"""The three workloads: which queues each one draws and which ops it runs.

An op is one user-visible request to bmtrunc.  CLI ops run in-process
through `bmtrunc.cli.main(args, standalone_mode=False)` with stdout and
stderr captured; the library op calls public functions through the
`bmtrunc` package namespace at call time, so the tracer's wrappers see it.
Ops run one after another in a closed loop with a single client.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

import numpy as np

from models import QueueSpec, queue_doc

WORKLOADS = ("certify", "deep_reference", "wide_phase")

CERTIFY_N = 50
DEEP_N = 40
DECAY_TIMES = (1.0, 5.0)
DECAY_N_REF = 100


@dataclass(frozen=True)
class Op:
    """kind is "bound", "sweep" (CLI commands) or "decay" (library)."""

    id: str
    kind: str
    model: str
    args: tuple = ()


def certify_specs() -> list[QueueSpec]:
    """d in {1,2,4,8} x loads {0.8, 0.999}, psi cycling over {0, 0.1, 0.5}
    lambda, plus one pure-reset queue.  Batch sizes, tails and the service
    rule cycle through the list.

    At rho = 0.999 psi is never 0: those queues fail drift_check with
    DriftViolated (ROADMAP item 3) for most seeds, and every op the
    benchmark times must succeed."""
    specs = []
    for d in (1, 2, 4, 8):
        for rho in (0.8, 0.999):
            i = len(specs)
            psi = (0.0, 0.1, 0.5)[i % 3]
            if rho == 0.999 and psi == 0.0:
                psi = 0.1
            specs.append(QueueSpec(
                name=f"d{d}_rho{rho}_psi{psi}", d=d, rho=rho, psi=psi,
                k_max=1 + i % 4,
                tail_ratio=0.4 if i % 3 == 0 else None,
                mu_rule="affine" if i % 5 == 2 else "constant",
            ))
    specs.append(QueueSpec(name="d2_reset_psi1.0", d=2, rho=None, psi=1.0, k_max=3))
    return specs


# Rates at the conftest d2 / d2_disaster scale (largest diagonal rate 5.45
# and 5.95, load 0.56).  Every op takes well under a second, so that each
# runs a dozen times or more in a run and its median time is steady.
DEEP_SPECS = (
    QueueSpec("deep_d2_psi0", d=2, rho=0.56, k_max=3, sigma=5.45),
    QueueSpec("deep_d2_psi", d=2, rho=0.56, psi=0.255, k_max=3, sigma=5.95),
    QueueSpec("deep_d1_psi0", d=1, rho=0.56, k_max=3, sigma=5.45),
    QueueSpec("deep_d1_psi", d=1, rho=0.56, psi=0.255, k_max=3, sigma=5.95),
)
DEEP_BOUNDS = (
    ("deep_d2_psi0", 250),
    ("deep_d2_psi", 200),
    ("deep_d1_psi", 200),
    ("deep_d1_psi0", 150),
)
DEEP_DECAY = ("deep_d2_psi0", "deep_d1_psi")

WIDE_SPECS = (
    QueueSpec("wide_d8_psi0", d=8, rho=0.7, k_max=2),
    QueueSpec("wide_d8_psi", d=8, rho=0.7, psi=0.2, k_max=2),
    QueueSpec("wide_d16_psi0", d=16, rho=0.7, k_max=2),
    QueueSpec("wide_d16_psi", d=16, rho=0.7, psi=0.2, k_max=2),
    QueueSpec("wide_d24_psi0", d=24, rho=0.7, k_max=2),
    QueueSpec("wide_d24_psi", d=24, rho=0.7, psi=0.2, k_max=2),
)


def build(workload: str, seed: int) -> tuple[dict, list[Op]]:
    """Model documents and the fixed op list of one pass, from the seed."""
    shape_rng = np.random.default_rng(WORKLOADS.index(workload))
    seed_rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    docs = {}
    ops = []
    if workload == "certify":
        for spec in certify_specs():
            docs[spec.name] = queue_doc(spec, shape_rng, seed_rng)
        ops = [Op(f"bound:{name}", "bound", name, ("--n", str(CERTIFY_N))) for name in docs]
    elif workload == "deep_reference":
        for spec in DEEP_SPECS:
            docs[spec.name] = queue_doc(spec, shape_rng, seed_rng)
        ops = [Op(f"bound:{name}:n_ref={n_ref}", "bound", name,
                  ("--n", str(DEEP_N), "--n-ref", str(n_ref))) for name, n_ref in DEEP_BOUNDS]
        ops += [Op(f"decay:{name}", "decay", name) for name in DEEP_DECAY]
    elif workload == "wide_phase":
        for spec in WIDE_SPECS:
            docs[spec.name] = queue_doc(spec, shape_rng, seed_rng)
        ops = [Op(f"sweep:{name}", "sweep", name,
                  ("--n-min", "2", "--n-max", "6", "--step", "2")) for name in docs]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return docs, ops


def run_op(op: Op, paths: dict):
    """Run one op; returns (exit code, output).

    CLI output is the captured text.  A library op's output is its
    DecayReport; a BmtruncError maps to the CLI's exit code.  Any other
    exception propagates and aborts the benchmark.
    """
    import bmtrunc
    from bmtrunc import cli

    if op.kind == "decay":
        try:
            return 0, _decay(bmtrunc, paths[op.model])
        except bmtrunc.BmtruncError as exc:
            return cli.exit_code_for(exc), f"error: {exc}"
    args = [op.kind, "--model", paths[op.model], *op.args]
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            cli.main(args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code or 0
    return code, buf.getvalue()


def _decay(bmtrunc, path):
    """Certificate for the queue, then the transient decay envelope check."""
    model = bmtrunc.load_model(path)
    B = bmtrunc.BmapModel(d=model.d, D=model.D, mu=model.mu, psi=model.psi, tail=model.tail)
    if B.psi == 0.0:
        cert = bmtrunc.find_beta_no_disaster(B)
    else:
        raw = bmtrunc.find_constants_disaster(B)
        cert = raw if raw.K == 0 else bmtrunc.corollary_transform(raw, bmtrunc.build_generator(B))
    return bmtrunc.transient_decay_check(model, cert, times=list(DECAY_TIMES),
                                         n_ref=DECAY_N_REF)
