"""Command-line front end.

Subcommands: validate, truncate, solve, bound, sweep.  Exit codes: 0 all
good, 1 a requested check failed, 2 bad input, 3 a numerical routine gave
up.  The sweep writes one CSV row per (n, style) with the fixed header
n,style,t_star,bound_min,true_tv,ordering_pass,runtime_ms.
"""

from __future__ import annotations

import csv
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import click
import numpy as np

from . import bmap as _bmap
from . import bounds as _bounds
from .blockmat import BmapQueueModel, load_model, validate_q_matrix
from .errors import (
    BmtruncError,
    CheckFailure,
    InputError,
    NumericalFailure,
)
from .order import generator_dominates, generator_is_block_monotone, vector_dominates
from .solve import stationary, tv_distance
from .truncate import (
    CUSTOM,
    FIRST_COLUMN,
    LAST_COLUMN,
    TruncationSpec,
    custom_truncate,
    fc_truncate,
    lc_truncate,
)

CSV_HEADER = ["n", "style", "t_star", "bound_min", "true_tv", "ordering_pass", "runtime_ms"]


@dataclass
class RunConfig:
    """Parsed invocation; one instance per command run."""

    model_path: str | None = None
    against_path: str | None = None
    n: int | None = None
    n_min: int | None = None
    n_max: int | None = None
    step: int = 5
    n_ref: int | None = None
    style: str = LAST_COLUMN
    styles: tuple = (LAST_COLUMN, FIRST_COLUMN)
    weights: dict | None = None
    beta: float | None = None
    t: float | None = None
    tol: float | None = None
    jobs: int = 1
    out: str | None = None


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, InputError):
        return 2
    if isinstance(exc, CheckFailure):
        return 1
    if isinstance(exc, NumericalFailure):
        return 3
    return 3


def _load(cfg: RunConfig):
    if cfg.model_path is None:
        raise InputError("a model file is required")
    return load_model(cfg.model_path)


def _truncation(model, cfg: RunConfig, n: int, style: str):
    if style == LAST_COLUMN:
        return lc_truncate(model, n)
    if style == FIRST_COLUMN:
        return fc_truncate(model, n)
    if cfg.weights is None:
        raise InputError("custom style needs --weights")
    spec = TruncationSpec(n=n, style=CUSTOM, weights=parse_weights_resolved(cfg.weights, n))
    return custom_truncate(model, spec)


def parse_weights_resolved(weights: dict, n: int) -> dict:
    """Re-anchor a weight map parsed with a placeholder top level."""
    out = {}
    for level, frac in weights.items():
        out[n if level == -1 else int(level)] = frac
    return out


def run_validate(cfg: RunConfig) -> int:
    model = _load(cfg)
    report = validate_q_matrix(model)
    bm = generator_is_block_monotone(model)
    parts = [
        f"conservative: {'yes' if report.conservative else 'no'}",
        f"BM_{model.d}: {'yes' if bm.holds else 'no'}",
    ]
    ok = report.ok and bm.holds
    if cfg.against_path is not None:
        other = load_model(cfg.against_path)
        dom = generator_dominates(model, other)
        parts.append(f"dominated by {cfg.against_path}: {'yes' if dom.holds else 'no'}")
        ok = ok and dom.holds
        if not dom.holds:
            parts.append(f"violation at {dom.worst_violation}")
    if not bm.holds:
        parts.append(f"violation at {bm.worst_violation}")
    for msg in report.messages:
        parts.append(msg)
    click.echo(", ".join(parts))
    return 0 if ok else 1


def run_truncate(cfg: RunConfig) -> int:
    model = _load(cfg)
    if cfg.n is None:
        raise InputError("--n is required")
    trunc = _truncation(model, cfg, cfg.n, cfg.style)
    values = trunc.matrix.values
    if cfg.out:
        if cfg.out.endswith(".npy"):
            np.save(cfg.out, values)
        else:
            np.savetxt(cfg.out, values, delimiter=",")
        click.echo(f"wrote {values.shape[0]}x{values.shape[1]} corner to {cfg.out}")
    else:
        click.echo(np.array2string(values, max_line_width=120))
    return 0


def run_solve(cfg: RunConfig) -> int:
    model = _load(cfg)
    if cfg.n is None:
        raise InputError("--n is required")
    trunc = _truncation(model, cfg, cfg.n, cfg.style)
    pi = stationary(trunc.matrix, source=cfg.style)
    rows = [
        (k, i, pi.values[k * model.d + i])
        for k in range(cfg.n + 1)
        for i in range(model.d)
    ]
    if cfg.out:
        with open(cfg.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["level", "phase", "probability"])
            writer.writerows(rows)
        click.echo(f"wrote {len(rows)} states to {cfg.out}")
    else:
        for k, i, p in rows:
            click.echo(f"{k},{i},{p:.12e}")
    return 0


def run_bound(cfg: RunConfig) -> int:
    model = _load(cfg)
    if cfg.n is None:
        raise InputError("--n is required")
    if not isinstance(model, BmapQueueModel):
        raise InputError(
            "bounds need a BmapQueue model; other kinds carry no certificate recipe"
        )
    reports = _bmap.bound_pipeline(model, [cfg.n], beta=cfg.beta, n_ref=cfg.n_ref)
    rep = reports[0]
    click.echo(f"n={rep.n} t_star={rep.t_star:.9g} bound_min={rep.bound_min:.9g}")
    if cfg.t is not None:
        click.echo(f"bound at t={cfg.t}: {rep.bound_at(cfg.t):.9g}")
    if rep.true_tv is not None:
        click.echo(f"true_tv (vs n_ref={cfg.n_ref}): {rep.true_tv:.9g}")
    if rep.origin:
        click.echo(f"provenance: {rep.origin}")
    return 0


def _sweep_payload(model, cert, pi_ref_values, cfg: RunConfig, n: int) -> list[dict]:
    """All CSV rows for one truncation level.

    A row's runtime_ms is the time its own style took to truncate and solve.
    """
    d = model.d
    tol = cfg.tol if cfg.tol is not None else 1e-12
    solutions = {}
    elapsed = {}
    for style in cfg.styles:
        started = time.perf_counter()
        trunc = _truncation(model, cfg, n, style)
        solutions[style] = stationary(trunc.matrix, source=style).values
        elapsed[style] = (time.perf_counter() - started) * 1e3
    chain = [FIRST_COLUMN, CUSTOM, LAST_COLUMN]
    present = [s for s in chain if s in solutions]
    ordering = True
    for lo, hi in zip(present, present[1:]):
        ordering &= vector_dominates(solutions[lo], solutions[hi], d, tol=tol).holds
    if LAST_COLUMN in solutions:
        ordering &= vector_dominates(
            solutions[LAST_COLUMN], pi_ref_values, d, tol=tol
        ).holds
    rows = []
    bound_rep = None
    if cert is not None and LAST_COLUMN in solutions:
        bound_rep = _bounds.bound_report(
            cert, model, n, true_tv=float(tv_distance(solutions[LAST_COLUMN], pi_ref_values))
        )
    for style in cfg.styles:
        tv = float(tv_distance(solutions[style], pi_ref_values))
        row = {
            "n": n,
            "style": style,
            "t_star": "",
            "bound_min": "",
            "true_tv": f"{tv:.9e}",
            "ordering_pass": "yes" if ordering else "no",
            "runtime_ms": f"{elapsed[style]:.3f}",
        }
        if style == LAST_COLUMN and bound_rep is not None:
            row["t_star"] = f"{bound_rep.t_star:.9e}"
            row["bound_min"] = f"{bound_rep.bound_min:.9e}"
        rows.append(row)
    return rows


def _sweep_worker(args):
    model, cert, pi_ref_values, cfg, n = args
    return n, _sweep_payload(model, cert, pi_ref_values, cfg, n)


def run_sweep(cfg: RunConfig) -> int:
    model = _load(cfg)
    if cfg.n_min is None or cfg.n_max is None:
        raise InputError("--n-min and --n-max are required")
    if cfg.n_min < 1 or cfg.n_max < cfg.n_min:
        raise InputError(f"bad sweep range [{cfg.n_min}, {cfg.n_max}]")
    n_ref = cfg.n_ref if cfg.n_ref is not None else 4 * cfg.n_max
    if n_ref < 4 * cfg.n_max:
        raise InputError(
            f"n_ref={n_ref} too small for a trustworthy reference; need >= {4 * cfg.n_max}"
        )
    cfg.n_ref = n_ref
    levels = list(range(cfg.n_min, cfg.n_max + 1, cfg.step))
    cert = None
    if isinstance(model, BmapQueueModel):
        cert, _ = _bmap._level0_certificate(model, beta=cfg.beta)
    pi_ref = stationary(lc_truncate(model, n_ref).matrix, source="lc")
    out = open(cfg.out, "w", newline="") if cfg.out else sys.stdout
    writer = csv.DictWriter(out, fieldnames=CSV_HEADER)
    writer.writeheader()
    try:
        tasks = [(model, cert, pi_ref.values, cfg, n) for n in levels]
        if cfg.jobs > 1:
            with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
                results = dict(pool.map(_sweep_worker, tasks))
        else:
            results = dict(map(_sweep_worker, tasks))
        for n in levels:
            for row in results[n]:
                writer.writerow(row)
    except BmtruncError as exc:
        writer.writerow({
            "n": "error",
            "style": type(exc).__name__,
            "t_star": "",
            "bound_min": "",
            "true_tv": "",
            "ordering_pass": "",
            "runtime_ms": "",
        })
        if out is not sys.stdout:
            out.close()
        click.echo(f"error: {exc}", err=True)
        return exit_code_for(exc)
    if out is not sys.stdout:
        out.close()
        click.echo(f"wrote {len(levels) * len(cfg.styles)} rows to {cfg.out}")
    return 0


def _dispatch(runner, cfg: RunConfig):
    try:
        code = runner(cfg)
    except BmtruncError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(exit_code_for(exc))
    sys.exit(code)


@click.group()
def main():
    """Block-augmented truncations with computable error bounds."""


def _model_option(fn):
    return click.option("--model", "model_path", required=True,
                        help="Model file (JSON).")(fn)


@main.command()
@_model_option
@click.option("--against", "against_path", default=None,
              help="Second model; also check block-wise dominance against it.")
def validate(model_path, against_path):
    """Check q-matrix validity and block monotonicity."""
    cfg = RunConfig(model_path=model_path, against_path=against_path)
    _dispatch(run_validate, cfg)


@main.command()
@_model_option
@click.option("--n", type=int, required=True, help="Truncation level.")
@click.option("--style", type=click.Choice([LAST_COLUMN, FIRST_COLUMN, CUSTOM]),
              default=LAST_COLUMN)
@click.option("--weights", default=None, help='Custom weights, e.g. "0=0.5,n=0.5".')
@click.option("--out", default=None, help="Write the corner matrix here (.npy or CSV).")
def truncate(model_path, n, style, weights, out):
    """Build a block-augmented truncation."""
    cfg = RunConfig(model_path=model_path, n=n, style=style,
                    weights=_parse_weight_placeholders(weights), out=out)
    _dispatch(run_truncate, cfg)


@main.command()
@_model_option
@click.option("--n", type=int, required=True, help="Truncation level.")
@click.option("--style", type=click.Choice([LAST_COLUMN, FIRST_COLUMN, CUSTOM]),
              default=LAST_COLUMN)
@click.option("--weights", default=None, help='Custom weights, e.g. "0=0.5,n=0.5".')
@click.option("--out", default=None, help="Write level,phase,probability CSV here.")
def solve(model_path, n, style, weights, out):
    """Stationary distribution of a truncation."""
    cfg = RunConfig(model_path=model_path, n=n, style=style,
                    weights=_parse_weight_placeholders(weights), out=out)
    _dispatch(run_solve, cfg)


@main.command()
@_model_option
@click.option("--n", type=int, required=True, help="Truncation level.")
@click.option("--t", type=float, default=None, help="Also evaluate the bound here.")
@click.option("--beta", type=float, default=None, help="Geometric base override.")
@click.option("--n-ref", type=int, default=None,
              help="Reference level for a measured error comparison.")
def bound(model_path, n, t, beta, n_ref):
    """Total-variation error bound for the last-column truncation."""
    cfg = RunConfig(model_path=model_path, n=n, t=t, beta=beta, n_ref=n_ref)
    _dispatch(run_bound, cfg)


@main.command()
@_model_option
@click.option("--n-min", type=int, required=True)
@click.option("--n-max", type=int, required=True)
@click.option("--step", type=int, default=5)
@click.option("--n-ref", type=int, default=None,
              help="Reference level (default 4*n_max; must be >= 4*n_max).")
@click.option("--style", "styles", multiple=True,
              type=click.Choice([LAST_COLUMN, FIRST_COLUMN, CUSTOM]),
              help="Styles to sweep (repeatable; default lc and fc).")
@click.option("--weights", default=None, help='Custom weights, e.g. "0=0.5,n=0.5".')
@click.option("--beta", type=float, default=None, help="Geometric base override.")
@click.option("--tol", type=float, default=None, help="Ordering check tolerance.")
@click.option("--jobs", type=int, default=1, help="Parallel workers across levels.")
@click.option("--out", default=None, help="CSV output path (default stdout).")
def sweep(model_path, n_min, n_max, step, n_ref, styles, weights, beta, tol, jobs, out):
    """Truncation sweep: solutions, errors, bounds, ordering checks."""
    styles = tuple(styles) if styles else (LAST_COLUMN, FIRST_COLUMN)
    parsed = _parse_weight_placeholders(weights)
    if CUSTOM in styles and parsed is None:
        raise click.UsageError("custom style needs --weights")
    cfg = RunConfig(model_path=model_path, n_min=n_min, n_max=n_max,
                    step=step, n_ref=n_ref, styles=styles, weights=parsed, beta=beta,
                    tol=tol, jobs=jobs, out=out)
    _dispatch(run_sweep, cfg)


def _parse_weight_placeholders(text: str | None) -> dict | None:
    """Parse --weights keeping the literal n as placeholder level -1."""
    if text is None:
        return None
    out = {}
    for part in text.split(","):
        if "=" not in part:
            raise click.UsageError(f"bad weight entry {part!r}, expected LEVEL=FRACTION")
        key, val = part.split("=", 1)
        key = key.strip()
        level = -1 if key == "n" else int(key)
        out[level] = float(val)
    return out


if __name__ == "__main__":
    main()
