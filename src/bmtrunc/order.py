"""Block-wise stochastic order calculus.

Everything here is phrased through the block summation operator T_d: right
multiplication turns a row vector or matrix into per-phase cumulative sums
from the highest level down, and its inverse takes per-phase first
differences.  Monotonicity and dominance checks reduce to sign conditions on
transformed arrays; for infinitely described models the checks use exact tail
sums over a finite level range that level-homogeneity makes sufficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockmat import (
    TAU_CONS,
    BlockGeneratorModel,
    FiniteBlockMatrix,
    check_block_length,
)
from .errors import DimensionMismatch, IncompatibleModels, NotStochastic

TAU_ORD = 1e-12


@dataclass
class DominanceReport:
    """Outcome of an ordering check.

    worst_violation is (index, magnitude) at the entry with the least slack;
    margin is that minimal slack itself (negative when the check fails).
    """

    holds: bool
    worst_violation: tuple | None
    margin: float


def _levels(x: np.ndarray, d: int) -> np.ndarray:
    """View a flat per-state vector as (levels, d)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {x.shape}")
    n_lev = check_block_length(x.shape[0], d)
    return x.reshape(n_lev, d)


def _col_tail(values: np.ndarray, d: int) -> np.ndarray:
    """Right-multiply by T_d: column block l becomes the sum over blocks >= l."""
    rows, cols = values.shape
    n_lev = check_block_length(cols, d)
    v = values.reshape(rows, n_lev, d)
    return np.flip(np.cumsum(np.flip(v, axis=1), axis=1), axis=1).reshape(rows, cols)

def _col_diff(values: np.ndarray, d: int) -> np.ndarray:
    """Right-multiply by the inverse of T_d: first differences across column blocks."""
    rows, cols = values.shape
    n_lev = check_block_length(cols, d)
    v = values.reshape(rows, n_lev, d)
    out = v.copy()
    out[:, :-1, :] -= v[:, 1:, :]
    return out.reshape(rows, cols)


def _row_diff(values: np.ndarray, d: int) -> np.ndarray:
    """Left-multiply by the inverse of T_d: block row k minus block row k-1."""
    rows, cols = values.shape
    n_lev = check_block_length(rows, d)
    v = values.reshape(n_lev, d, cols)
    out = v.copy()
    out[1:] -= v[:-1]
    return out.reshape(rows, cols)


def td_transform(x, d: int, direction: str = "T") -> np.ndarray:
    """Apply T_d (or its inverse) on the right of a row vector or matrix.

    For a vector x, (x T_d)(l, j) = sum over m >= l of x(m, j); the inverse
    recovers x by per-phase first differences, exactly up to roundoff.
    """
    if direction not in ("T", "T_inverse"):
        raise DimensionMismatch(f"direction must be 'T' or 'T_inverse', got {direction!r}")
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        out = _col_tail(arr[None, :], d) if direction == "T" else _col_diff(arr[None, :], d)
        return out[0]
    if arr.ndim == 2:
        return _col_tail(arr, d) if direction == "T" else _col_diff(arr, d)
    raise DimensionMismatch(f"expected vector or matrix, got ndim={arr.ndim}")


def _tol(tol: float, *arrays: np.ndarray) -> float:
    scale = max((float(np.max(np.abs(a))) for a in arrays if a.size), default=0.0)
    return tol * max(1.0, scale)


def _report(slack: np.ndarray, tol: float, index_of=None) -> DominanceReport:
    """Build a report from a slack array that must be >= -tol everywhere."""
    if slack.size == 0:
        return DominanceReport(holds=True, worst_violation=None, margin=np.inf)
    flat = int(np.argmin(slack))
    idx = np.unravel_index(flat, slack.shape)
    if index_of is not None:
        idx = index_of(idx)
    margin = float(slack.reshape(-1)[flat])
    magnitude = max(0.0, -margin)
    return DominanceReport(
        holds=magnitude <= tol,
        worst_violation=(tuple(int(i) for i in idx), magnitude),
        margin=margin,
    )


def is_block_increasing(f, d: int, tol: float = TAU_ORD) -> DominanceReport:
    """Check f(k, i) <= f(k+1, i) for every phase i and adjacent levels."""
    lev = _levels(f, d)
    slack = lev[1:] - lev[:-1]
    return _report(slack, _tol(tol, lev), index_of=lambda ij: (ij[0], ij[1]))


def vector_dominates(mu, eta, d: int, tol: float = TAU_ORD) -> DominanceReport:
    """Check mu is block-wise dominated by eta: cumulative tails of eta are
    at least those of mu, per phase.  Shorter vectors are padded with zeros."""
    a = _levels(getattr(mu, "values", mu), d)
    b = _levels(getattr(eta, "values", eta), d)
    n = max(a.shape[0], b.shape[0])
    pa = np.zeros((n, d))
    pb = np.zeros((n, d))
    pa[: a.shape[0]] = a
    pb[: b.shape[0]] = b
    ta = np.flip(np.cumsum(np.flip(pa, 0), 0), 0)
    tb = np.flip(np.cumsum(np.flip(pb, 0), 0), 0)
    slack = tb - ta
    return _report(slack, _tol(tol, ta, tb), index_of=lambda ij: (ij[0], ij[1]))


def is_block_monotone_stochastic(P, d: int, tol: float = TAU_ORD) -> DominanceReport:
    """Check block monotonicity of a row-stochastic matrix.

    Equivalent to every entry of inv(T_d) P T_d being nonnegative, i.e. the
    per-phase cumulative row tails are nondecreasing in the row level.
    """
    values = P.values if isinstance(P, FiniteBlockMatrix) else np.asarray(P, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {values.shape}")
    row_defect = float(np.max(np.abs(values.sum(axis=1) - 1.0)))
    if row_defect > TAU_CONS * max(1.0, float(np.max(np.abs(values)))):
        raise NotStochastic(f"row sums deviate from 1 by {row_defect:.3e}")
    if float(values.min()) < -TAU_CONS:
        raise NotStochastic(f"negative entry {values.min():.3e}")
    transformed = _row_diff(_col_tail(values, d), d)
    return _report(transformed, _tol(tol, values))


def generator_is_block_monotone(M, d: int | None = None, tol: float = TAU_ORD) -> DominanceReport:
    """Check block monotonicity of a conservative generator.

    For a finite matrix this is nonnegativity of the off-diagonal entries of
    inv(T_d) Q T_d.  For a model the same condition is evaluated through exact
    tail sums S(k; l) over levels k up to the homogeneity level plus band
    width; beyond that the rows repeat and the inequalities with them.
    """
    if isinstance(M, BlockGeneratorModel):
        return _model_block_monotone(M, tol)
    if isinstance(M, FiniteBlockMatrix):
        values, d = M.values, M.d
    else:
        values = np.asarray(M, dtype=float)
        if d is None:
            raise DimensionMismatch("block size d required for a plain array")
    transformed = _row_diff(_col_tail(values, d), d)
    mask = np.ones_like(transformed, dtype=bool)
    np.fill_diagonal(mask, False)
    slack = transformed[mask]
    return _report(slack, _tol(tol, values))


def _model_block_monotone(M: BlockGeneratorModel, tol: float) -> DominanceReport:
    d = M.d
    k_top = M.bm_check_level()
    worst = (None, 0.0)
    margin = np.inf
    scale = 1.0
    for k in range(1, k_top + 1):
        l_top = k + M.upper_hint() + 1
        for l in range(l_top + 1):
            lo = M.tail_sum(k - 1, l)
            hi = M.tail_sum(k, l)
            scale = max(scale, float(np.max(np.abs(lo))), float(np.max(np.abs(hi))))
            slack = hi - lo
            if l == k:
                # diagonal pairs (k,i;k,i) are outside the monotonicity index set
                slack = slack + np.diag(np.full(d, np.inf))
            m = float(slack.min())
            if m < margin:
                margin = m
                i, j = np.unravel_index(int(np.argmin(slack)), slack.shape)
                worst = ((k, int(i), l, int(j)), max(0.0, -m))
    magnitude = worst[1]
    return DominanceReport(
        holds=magnitude <= tol * max(1.0, scale),
        worst_violation=worst if worst[0] is not None else None,
        margin=margin,
    )


class _TailSumView:
    """Uniform S(k; l) access for dominance checks across representations."""

    def __init__(self, obj):
        from .truncate import TruncatedGenerator

        self.tail = None
        if isinstance(obj, TruncatedGenerator):
            self.d = obj.base.d
            self.check_level = max(
                obj.base.bm_check_level(), obj.spec.n + obj.base.upper_hint() + 2
            )
            self.col_extent = lambda k: max(obj.spec.n, k) + 1
            self.sum = obj.virtual_tail_sum
        elif isinstance(obj, BlockGeneratorModel):
            self.d = obj.d
            self.check_level = obj.bm_check_level()
            self.col_extent = lambda k: k + obj.upper_hint() + 1
            self.sum = obj.tail_sum
            self.tail = getattr(obj, "tail", None)
        elif isinstance(obj, FiniteBlockMatrix):
            self.d = obj.d
            self.check_level = obj.n
            self.col_extent = lambda k: obj.n + 1
            vals = obj.values
            n, dd = obj.n, obj.d

            def finite_sum(k, l, vals=vals, n=n, dd=dd):
                if k > n or l > n:
                    return np.zeros((dd, dd))
                row = vals[k * dd:(k + 1) * dd]
                return row[:, max(l, 0) * dd:].reshape(dd, -1, dd).sum(axis=1)

            self.sum = finite_sum
        else:
            raise IncompatibleModels(f"cannot take tail sums of {type(obj).__name__}")


def generator_dominates(M, M_tilde, d: int | None = None, tol: float = TAU_ORD) -> DominanceReport:
    """Check Q T_d <= Q~ T_d, i.e. S(k; l) <= S~(k; l) entrywise for all k, l.

    Accepts any mix of finite matrices, models and truncations; the scan
    covers every level up to both homogeneity horizons, and analytic tails
    beyond the scan are compared in closed form.
    """
    a = _TailSumView(M)
    b = _TailSumView(M_tilde)
    if a.d != b.d:
        raise IncompatibleModels(f"block sizes differ: {a.d} vs {b.d}")
    d = a.d
    k_top = max(a.check_level, b.check_level)
    worst = (None, 0.0)
    margin = np.inf
    scale = 1.0
    for k in range(k_top + 1):
        l_top = max(a.col_extent(k), b.col_extent(k))
        for l in range(l_top + 1):
            lo = a.sum(k, l)
            hi = b.sum(k, l)
            scale = max(scale, float(np.max(np.abs(lo))), float(np.max(np.abs(hi))))
            slack = hi - lo
            m = float(slack.min())
            if m < margin:
                margin = m
                i, j = np.unravel_index(int(np.argmin(slack)), slack.shape)
                worst = ((k, int(i), l, int(j)), max(0.0, -m))
    tail_rep = _tail_beyond(a, b, k_top, tol * max(1.0, scale))
    if tail_rep is not None and tail_rep[1] > worst[1]:
        worst = tail_rep
        margin = min(margin, -tail_rep[1])
    magnitude = worst[1]
    return DominanceReport(
        holds=magnitude <= tol * max(1.0, scale),
        worst_violation=worst if worst[0] is not None else None,
        margin=margin,
    )


def _tail_beyond(a: _TailSumView, b: _TailSumView, k_top: int, tau: float):
    """Compare geometric remainders past the scanned columns.

    Only the left side matters when it has no analytic tail (its sums vanish
    beyond the scan while the right side's stay nonnegative).  With a left
    tail present, domination beyond every scanned column needs the right tail
    to decay no faster and to dominate at the first unscanned offset.
    """
    ta = a.tail
    if ta is None or not np.any(ta.coef):
        return None
    tb = b.tail
    if tb is None:
        mag = float(np.max(ta.coef)) * ta.ratio / (1.0 - ta.ratio)
        return ((k_top + 1,), mag)
    if ta.ratio > tb.ratio + 1e-15:
        return ((k_top + 1,), float(np.max(ta.coef)))
    m0 = 1
    slack = tb.sum_from(m0) - ta.sum_from(m0)
    m = float(slack.min())
    if m < -tau:
        return ((k_top + 1,), -m)
    return None
