"""Record each op's exit code and printed values, per workload and seed.

    python3 perfbench/record.py --first 0 --last 31

Writes perfbench/expected/<workload>.json, which run.py compares against
for the seeds it covers.  Run it only on the commit whose answers are the
reference; it refuses to record an op whose output fails an invariant.
"""

import argparse
import json
import shutil
import sys

import run  # pins BLAS threads before numpy loads
import checks
from models import write_models
from workloads import WORKLOADS, build


def record_seed(workload: str, seed: int) -> dict:
    docs, ops = build(workload, seed)
    work = run.OUT / f"record-{workload}-seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        _wall, results = run.run_pass(ops, write_models(docs, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = {}
    for op, code, output, _latency in results:
        values, problems = checks.check_output(op, code, output)
        if problems:
            raise SystemExit(f"{workload} seed {seed} {op.id}: {problems}")
        out[op.id] = {"exit": code, "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--last", type=int, default=31)
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    target = run.BENCH / "expected"
    target.mkdir(exist_ok=True)
    for workload in args.workload or WORKLOADS:
        path = target / f"{workload}.json"
        doc = checks.load_record(path)
        for seed in range(args.first, args.last + 1):
            doc[str(seed)] = record_seed(workload, seed)
            print(f"recorded {workload} seed {seed}", flush=True)
        lines = [f"{json.dumps(seed)}: {json.dumps(doc[seed], sort_keys=True, separators=(',', ':'))}"
                 for seed in sorted(doc, key=int)]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
