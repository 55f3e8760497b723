"""Command-line front end.

Subcommands: validate, truncate, solve, bound, sweep.  Exit codes: 0 all
good, 1 a requested check failed, 2 bad input, 3 a numerical routine gave
up.  The sweep solves its (n, style) corners in stacks, one elimination
pass each, and writes one CSV row per (n, style) with the fixed header
n,style,t_star,bound_min,true_tv,ordering_pass,runtime_ms.
"""

from __future__ import annotations

import contextlib
import csv
import sys
import time

import click
import numpy as np

from . import bmap as _bmap
from . import bounds as _bounds
from .blockmat import BmapQueueModel, load_model, validate_q_matrix
from .errors import BmtruncError, CheckFailure, InputError
from .order import (
    check_ordering_tol,
    generator_dominates,
    generator_is_block_monotone,
    vector_dominates,
)
from .solve import solve_truncation, solve_truncations, tv_distance
from .tolerances import TAU_ORD
from .truncate import CUSTOM, FIRST_COLUMN, LAST_COLUMN, TruncationSpec, truncation

CSV_HEADER = ["n", "style", "t_star", "bound_min", "true_tv", "ordering_pass", "runtime_ms"]


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, InputError):
        return 2
    if isinstance(exc, CheckFailure):
        return 1
    return 3


def _spec(n: int, style: str, weights: dict | None) -> TruncationSpec:
    if style != CUSTOM:
        return TruncationSpec(n=n, style=style)
    if weights is None:
        raise InputError("custom style needs --weights")
    targets = {n if level == "n" else level: frac for level, frac in weights.items()}
    return TruncationSpec(n=n, style=CUSTOM, weights=targets)


def run_validate(model_path: str, against_path: str | None) -> int:
    model = load_model(model_path)
    report = validate_q_matrix(model)
    bm = generator_is_block_monotone(model)
    parts = [
        f"conservative: {'yes' if report.conservative else 'no'}",
        f"BM_{model.d}: {'yes' if bm.holds else 'no'}",
    ]
    ok = report.ok and bm.holds
    if against_path is not None:
        dom = generator_dominates(model, load_model(against_path))
        parts.append(f"dominated by {against_path}: {'yes' if dom.holds else 'no'}")
        ok = ok and dom.holds
        if not dom.holds:
            parts.append(f"violation at {dom.worst_violation}")
    if not bm.holds:
        parts.append(f"violation at {bm.worst_violation}")
    parts.extend(report.messages)
    click.echo(", ".join(parts))
    return 0 if ok else 1


def run_truncate(model_path: str, n: int, style: str, weights: dict | None,
                 out: str | None) -> int:
    values = truncation(load_model(model_path), _spec(n, style, weights)).matrix.values
    if out:
        if out.endswith(".npy"):
            np.save(out, values)
        else:
            np.savetxt(out, values, delimiter=",")
        click.echo(f"wrote {values.shape[0]}x{values.shape[1]} corner to {out}")
    else:
        click.echo(np.array2string(values, max_line_width=120))
    return 0


def run_solve(model_path: str, n: int, style: str, weights: dict | None,
              out: str | None) -> int:
    model = load_model(model_path)
    pi = solve_truncation(model, _spec(n, style, weights))
    rows = [(k, i, pi.values[k * model.d + i]) for k in range(n + 1) for i in range(model.d)]
    if out:
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["level", "phase", "probability"])
            writer.writerows(rows)
        click.echo(f"wrote {len(rows)} states to {out}")
    else:
        for k, i, p in rows:
            click.echo(f"{k},{i},{p:.12e}")
    return 0


def run_bound(model_path: str, n: int, t: float | None, beta: float | None,
              n_ref: int | None) -> int:
    model = load_model(model_path)
    if not isinstance(model, BmapQueueModel):
        raise InputError(
            "bounds need a BmapQueue model; other kinds carry no certificate recipe"
        )
    rep = _bmap.bound_pipeline(model, [n], beta=beta, n_ref=n_ref)[0]
    at_t = None if t is None else rep.bound_at(t)
    click.echo(f"n={rep.n} t_star={rep.t_star:.9g} bound_min={rep.bound_min:.9g}")
    if at_t is not None:
        click.echo(f"bound at t={t}: {at_t:.9g}")
    if rep.true_tv is not None:
        click.echo(f"true_tv (vs n_ref={n_ref}): {rep.true_tv:.9g}")
    if rep.origin:
        click.echo(f"provenance: {rep.origin}")
    return 0


def _stacks(specs: list, d: int, budget: int):
    """Runs of consecutive specs, each solved as one stack: a run grows while
    as many corners as it holds, of its last spec's size, stay within
    budget entries.  The sweep's levels rise, so that size is the run's
    largest."""
    run = []
    for spec in specs:
        states = (spec.n + 1) * d
        if run and (len(run) + 1) * states * states > budget:
            yield run
            run = []
        run.append(spec)
    if run:
        yield run


def _sweep_rows(model, cert, pi_ref_values, n: int, styles: tuple, solved: dict,
                tol: float) -> list[dict]:
    """All CSV rows for one truncation level.

    solved maps (n, style) to the corner's stationary vector and the wall
    time, in ms, of the `solve_truncations` call that solved its stack; a
    row's runtime_ms is that time, shared by every row of the stack.
    """
    d = model.d
    solutions = {style: solved[n, style][0] for style in styles}
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
    for style in styles:
        tv = float(tv_distance(solutions[style], pi_ref_values))
        row = {
            "n": n,
            "style": style,
            "t_star": "",
            "bound_min": "",
            "true_tv": f"{tv:.9e}",
            "ordering_pass": "yes" if ordering else "no",
            "runtime_ms": f"{solved[n, style][1]:.3f}",
        }
        if style == LAST_COLUMN and bound_rep is not None:
            row["t_star"] = f"{bound_rep.t_star:.9e}"
            row["bound_min"] = f"{bound_rep.bound_min:.9e}"
        rows.append(row)
    return rows


def _sweep_table(model, cert, pi_ref_values, levels, styles: tuple, weights: dict | None,
                 tol: float) -> list[dict]:
    """Every CSV row of the sweep, level by level.

    The (n, style) corners are solved by `solve_truncations` in stacks of
    consecutive corners that hold at most half the reference corner's
    entries.  A pivot's update makes a temporary as large as its fill,
    which can be the whole stack, and the reference corner is gone by
    then, so no stack solve outgrows the reference solve's memory.  A spec
    that cannot be built (custom weights outside its level) is raised after
    the specs before it are solved, whose errors come first, as they would
    one corner at a time.  The rows are built once every corner is solved.
    """
    specs, refused = [], None
    try:
        for n in levels:
            for style in styles:
                specs.append(_spec(n, style, weights))
    except BmtruncError as exc:
        refused = exc
    solved = {}
    for stack in _stacks(specs, model.d, pi_ref_values.size ** 2 // 2):
        started = time.perf_counter()
        vectors = solve_truncations(model, stack)
        elapsed = (time.perf_counter() - started) * 1e3
        for spec, pi in zip(stack, vectors):
            solved[spec.n, spec.style] = (pi.values, elapsed)
    if refused is not None:
        raise refused
    return [row for n in levels
            for row in _sweep_rows(model, cert, pi_ref_values, n, styles, solved, tol)]


def run_sweep(model_path: str, n_min: int, n_max: int, step: int, n_ref: int | None,
              styles: tuple, weights: dict | None, beta: float | None, tol: float | None,
              out: str | None) -> int:
    model = load_model(model_path)
    if n_min < 1 or n_max < n_min:
        raise InputError(f"bad sweep range [{n_min}, {n_max}]")
    if step < 1:
        raise InputError(f"sweep step must be >= 1, got {step}")
    if n_ref is None:
        n_ref = 4 * n_max
    if n_ref < 4 * n_max:
        raise InputError(
            f"n_ref={n_ref} too small for a trustworthy reference; need >= {4 * n_max}"
        )
    levels = range(n_min, n_max + 1, step)
    tol = TAU_ORD if tol is None else check_ordering_tol(tol)
    cert = None
    if isinstance(model, BmapQueueModel):
        cert = _bmap._level0_certificate(model, beta=beta)
    pi_ref = solve_truncation(model, TruncationSpec(n=n_ref))
    with open(out, "w", newline="") if out else contextlib.nullcontext(sys.stdout) as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_HEADER, lineterminator="\n")
        writer.writeheader()
        try:
            # every level is solved before any row is written, so a failing
            # level leaves the header and the error row only
            rows = _sweep_table(model, cert, pi_ref.values, levels, styles, weights, tol)
        except BmtruncError as exc:
            writer.writerow({"n": "error", "style": type(exc).__name__})
            click.echo(f"error: {exc}", err=True)
            return exit_code_for(exc)
        writer.writerows(rows)
    if out:
        click.echo(f"wrote {len(rows)} rows to {out}")
    return 0


def _fail(exc: BmtruncError):
    click.echo(f"error: {exc}", err=True)
    sys.exit(exit_code_for(exc))


def _dispatch(runner, *args):
    try:
        code = runner(*args)
    except BmtruncError as exc:
        _fail(exc)
    sys.exit(code)


def _parse_weights(text: str | None) -> dict | None:
    """Parse --weights into level -> fraction; the literal level n stays "n".

    An entry that is not LEVEL=FRACTION with an integer level and a number
    fails like every other bad input: one error line and exit code 2.
    """
    if text is None:
        return None
    out = {}
    for part in text.split(","):
        try:
            key, val = part.split("=", 1)
            out["n" if key.strip() == "n" else int(key)] = float(val)
        except ValueError:
            _fail(InputError(f"bad weight entry {part!r}, expected LEVEL=FRACTION"))
    return out


@click.group()
def main():
    """Block-augmented truncations with computable error bounds."""


def _model_option(fn):
    return click.option("--model", "model_path", required=True,
                        help="Model file (JSON).")(fn)


_STYLES = click.Choice([LAST_COLUMN, FIRST_COLUMN, CUSTOM])
_WEIGHTS_HELP = 'Custom weights, e.g. "0=0.5,n=0.5".'


@main.command()
@_model_option
@click.option("--against", "against_path", default=None,
              help="Second model; also check block-wise dominance against it.")
def validate(model_path, against_path):
    """Check q-matrix validity and block monotonicity."""
    _dispatch(run_validate, model_path, against_path)


@main.command()
@_model_option
@click.option("--n", type=int, required=True, help="Truncation level.")
@click.option("--style", type=_STYLES, default=LAST_COLUMN)
@click.option("--weights", default=None, help=_WEIGHTS_HELP)
@click.option("--out", default=None, help="Write the corner matrix here (.npy or CSV).")
def truncate(model_path, n, style, weights, out):
    """Build a block-augmented truncation."""
    _dispatch(run_truncate, model_path, n, style, _parse_weights(weights), out)


@main.command()
@_model_option
@click.option("--n", type=int, required=True, help="Truncation level.")
@click.option("--style", type=_STYLES, default=LAST_COLUMN)
@click.option("--weights", default=None, help=_WEIGHTS_HELP)
@click.option("--out", default=None, help="Write level,phase,probability CSV here.")
def solve(model_path, n, style, weights, out):
    """Stationary distribution of a truncation."""
    _dispatch(run_solve, model_path, n, style, _parse_weights(weights), out)


@main.command()
@_model_option
@click.option("--n", type=int, required=True, help="Truncation level.")
@click.option("--t", type=float, default=None, help="Also evaluate the bound here.")
@click.option("--beta", type=float, default=None, help="Geometric base override.")
@click.option("--n-ref", type=int, default=None,
              help="Reference level for a measured error comparison (above --n).")
def bound(model_path, n, t, beta, n_ref):
    """Total-variation error bound for the last-column truncation."""
    _dispatch(run_bound, model_path, n, t, beta, n_ref)


@main.command()
@_model_option
@click.option("--n-min", type=int, required=True)
@click.option("--n-max", type=int, required=True)
@click.option("--step", type=int, default=5)
@click.option("--n-ref", type=int, default=None,
              help="Reference level (default 4*n_max; must be >= 4*n_max).")
@click.option("--style", "styles", multiple=True, type=_STYLES,
              help="Styles to sweep (repeatable; default lc and fc).")
@click.option("--weights", default=None, help=_WEIGHTS_HELP)
@click.option("--beta", type=float, default=None, help="Geometric base override.")
@click.option("--tol", type=float, default=None, help="Ordering check tolerance.")
@click.option("--out", default=None, help="CSV output path (default stdout).")
def sweep(model_path, n_min, n_max, step, n_ref, styles, weights, beta, tol, out):
    """Truncation sweep: solutions, errors, bounds, ordering checks."""
    styles = styles or (LAST_COLUMN, FIRST_COLUMN)
    parsed = _parse_weights(weights)
    if CUSTOM in styles and parsed is None:
        raise click.UsageError("custom style needs --weights")
    _dispatch(run_sweep, model_path, n_min, n_max, step, n_ref, styles, parsed, beta, tol, out)


if __name__ == "__main__":
    main()
