"""bmtrunc benchmark: one workload per process, timed from outside.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

With --trace 0 the workload's op list runs in passes, in a closed loop with
one client, for --seconds (at least three passes), and the last line is a
JSON object with the end-to-end metrics.  Their times are scaled to a fixed
host speed, measured by a reference kernel run between ops (see
`reference_time`).  With --trace 1 one plain pass is followed by one pass
with every layer wrapped, and the JSON holds the per-layer metrics and the
tracing overhead.  Every op's output is checked;
a failed check makes `correct` false and the exit code 1.  `--workload all`
runs the three workloads, untraced then traced, each in a fresh process.
"""

import os

# One BLAS thread, set before numpy loads: with more, sums can differ in the
# last bit and flip borderline drift checks from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from models import write_models  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, build, run_op  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_PASSES = 3
SETUP_STARTS_MIN = 7
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}

# The reference kernel's time at the host speed every timed metric is scaled
# to; it sets the unit only.  On a shared 2-vCPU Xeon virtual machine with
# numpy 2.4 and one BLAS thread its median ran from 0.003 to 0.0065 s.
REFERENCE_S = 0.005
REFERENCE_MATRIX = (np.arange(64.0).reshape(8, 8) % 7 + 1.0) / 28.0

SETUP_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import bmtrunc.cli
for path in sys.argv[2:]:
    bmtrunc.cli.load_model(path)
"""


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def setup_start(paths: dict) -> float:
    """Wall time of a fresh interpreter that imports bmtrunc.cli and loads every model."""
    cmd = [sys.executable, "-c", SETUP_SCRIPT, str(SRC), *paths.values()]
    started = time.perf_counter()
    subprocess.run(cmd, check=True)
    return time.perf_counter() - started


def reference_time() -> float:
    """Seconds one run of the reference kernel takes.

    The kernel is a Python loop over 8x8 matrix products, the mix of
    interpreter and tiny-array numpy work that bmtrunc's hot paths are made
    of.  It never calls bmtrunc, so a change to the library cannot change
    its time; only the host's speed can.  On a shared host that speed moves
    by half and more for minutes at a time, and bmtrunc's ops move with this
    kernel, not with the clock."""
    started = time.perf_counter()
    x = REFERENCE_MATRIX
    total = 0.0
    for i in range(1000):
        x = x @ REFERENCE_MATRIX
        x /= x.sum()
        total += float(x[0, 0]) * (i % 7)
    return time.perf_counter() - started


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` at the host speed where the reference kernel takes
    REFERENCE_S, from the kernel's times just before and just after."""
    return seconds * REFERENCE_S * 2.0 / (before + after)


def run_pass(ops, paths, tracer=None, reference=None):
    """One pass over the op list: (wall seconds, [(op, exit code, output, latency)]).

    With a `reference` list, the reference kernel runs before each op and
    once after the last, and its times are appended there."""
    results = []
    started = time.perf_counter()
    for op in ops:
        if reference is not None:
            reference.append(reference_time())
        span = None
        if tracer is not None:
            tracer.op = op.id
            span = tracer.begin("bench.op" if op.kind == "decay" else "cli.op")
        t0 = time.perf_counter()
        code, output = run_op(op, paths)
        latency = time.perf_counter() - t0
        if span is not None:
            tracer.end(span)
        if code not in (0, 1, 2, 3):
            raise RuntimeError(f"{op.id}: unexpected exit code {code}: {output}")
        results.append((op, code, output, latency))
    if reference is not None:
        reference.append(reference_time())
    return time.perf_counter() - started, results


def check_passes(passes, record: dict) -> tuple[list[str], int]:
    """Problems over every op of every pass, and ops that recovered from a
    recorded failure."""
    problems = []
    recovered = set()
    first = {}
    for results in passes:
        for op, code, output, _latency in results:
            values, found = checks.check_output(op, code, output)
            problems += [f"{op.id}: {p}" for p in found]
            if op.id in first and first[op.id] != (code, values):
                problems.append(f"{op.id}: output changed between passes")
            first.setdefault(op.id, (code, values))
            if op.id in record:
                found, back = checks.compare_to_record(record[op.id], code, values)
                problems += [f"{op.id}: {p} (record)" for p in found]
                if back:
                    recovered.add(op.id)
    return problems, len(recovered)


def timed_passes(ops, paths, seconds: float):
    """At least MIN_PASSES passes, then more while the next still fits in `seconds`.

    One set-up start goes before each pass, so that set-up and ops sample
    the same stretches of the run.  The reference kernel runs between any
    two of them.  Returns set-up starts as (seconds, kernel before, kernel
    after), and each pass with its kernel times."""
    setup = []
    passes = []
    walls = []
    started = time.perf_counter()
    while True:
        before = reference_time()
        start = setup_start(paths)
        reference = []
        wall, results = run_pass(ops, paths, reference=reference)
        setup.append((start, before, reference[0]))
        walls.append(wall)
        passes.append((results, reference))
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            break
    while len(setup) < SETUP_STARTS_MIN:
        before = reference_time()
        start = setup_start(paths)
        setup.append((start, before, reference_time()))
    return setup, passes


def end_to_end(setup, passes) -> dict:
    """Each op's median latency over the passes; pass_s is their sum and
    op_p50_s their median.  Every time is scaled by the reference kernel's
    times just before and just after it."""
    raw_ops = {}
    scaled_ops = {}
    for results, reference in passes:
        for i, (op, _code, _out, latency) in enumerate(results):
            raw_ops.setdefault(op.id, []).append(latency)
            scaled_ops.setdefault(op.id, []).append(
                scaled(latency, reference[i], reference[i + 1]))

    def summary(starts, per_op):
        medians = [statistics.median(v) for v in per_op.values()]
        return {"setup_s": statistics.median(starts), "pass_s": sum(medians),
                "op_p50_s": statistics.median(medians)}

    raw = summary([start for start, _b, _a in setup], raw_ops)
    values = summary([scaled(*s) for s in setup], scaled_ops)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kernel = [t for _results, reference in passes for t in reference]
    print(f"# setup_s is the median of {len(setup)} fresh starts; each op's median of "
          f"{len(passes)} passes gives pass_s and op_p50_s")
    print(f"# reference kernel: median {statistics.median(kernel)!r} s over {len(kernel)} "
          f"runs; times are scaled to a host where it takes {REFERENCE_S} s")
    print("# unscaled: " + ", ".join(f"{k} = {v!r} s" for k, v in raw.items()))
    every = [t for v in scaled_ops.values() for t in v]
    if len(every) >= 100:
        p90 = statistics.quantiles(every, n=10)[-1]
        beyond = sum(1 for t in every if t > p90)
        print(f"op_p90_s = {p90!r} s  (every op run, n={len(every)}, {beyond} beyond)")
    else:
        print(f"op_p90_s not reported: {len(every)} op runs, fewer than 100")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(ops, paths, env) -> tuple[list, dict]:
    """One plain pass, then the same ops traced."""
    plain_wall, plain = run_pass(ops, paths)
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, traced = run_pass(ops, paths, tracer)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{env['workload']}-seed{env['seed']}.json", env)
    exit_codes = Counter(code for op, code, _out, _lat in traced if op.kind != "decay")
    return [plain, traced], tracer.metrics(exit_codes, traced_wall, plain_wall)


def run_workload(args) -> int:
    import bmtrunc

    if Path(bmtrunc.__file__).resolve().parent != SRC / "bmtrunc":
        print(f"error: imported bmtrunc from {bmtrunc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment(args)
    print(f"# bmtrunc benchmark {json.dumps(env)}")
    docs, ops = build(args.workload, args.seed)
    record = checks.load_record(BENCH / "expected" / f"{args.workload}.json").get(str(args.seed))
    work = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        paths = write_models(docs, work)
        if args.trace:
            passes, metrics = per_layer(ops, paths, env)
        else:
            setup, timed = timed_passes(ops, paths, args.seconds)
            metrics = end_to_end(setup, timed)
            passes = [results for results, _reference in timed]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems, recovered = check_passes(passes, record or {})
    codes = [code for results in passes for _op, code, _out, _lat in results]
    attempted = len(codes)
    failed = sum(1 for code in codes if code != 0)
    print(f"# {len(ops)} ops per pass, {len(passes)} passes")
    if record is None:
        print(f"# no record for seed {args.seed}: invariant checks only")
    else:
        print(f"# record for seed {args.seed}: {len(record)} ops compared, "
              f"{recovered} recovered from a recorded failure")
    print(f"fail_ratio = {failed / attempted!r}  ({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


def run_all(args) -> int:
    worst = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            code = subprocess.run(cmd).returncode
            if code:
                print(f"# {workload} trace={trace} exited {code}", file=sys.stderr)
            worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bmtrunc" / "__init__.py").is_file():
        print(f"error: no bmtrunc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
