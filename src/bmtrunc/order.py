"""Block-wise stochastic order calculus.

Everything here is phrased through the block summation operator T_d: right
multiplication turns a row vector or matrix into per-phase cumulative sums
from the highest level down, and its inverse takes per-phase first
differences.  Every monotonicity and dominance check is a sign condition on
such tail sums, and one scan, `_scan`, makes them all: it compares two
stacked tables of blocks entrywise and forgives a shortfall of up to
TAU_ORD times the largest finite entry it compared (at least 1).  A model's
table, a truncation's augmented generator included, is read from its
`tail_sums` rows, each row's columns reaching one past its `band`, over a
finite level range that level-homogeneity makes sufficient.  A finite
matrix's table comes from `_col_tail`, and a vector is a table with one
column of 1 x d blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blockmat import BlockGeneratorModel, FiniteBlockMatrix, check_block_length
from .errors import DimensionMismatch, IncompatibleModels, InputError, NotStochastic
from .tolerances import RATIO_TOL, TAU_CONS, TAU_ORD


@dataclass
class DominanceReport:
    """Outcome of an ordering check.

    worst_violation is (location, magnitude) at the entry with the least
    slack, located at (k, i, l, j) in a table of blocks and at (level,
    phase) in a vector; margin is that minimal slack itself (negative when
    the check fails).
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
    # +inf and -inf in one tail sum give a NaN, which every scan counts as
    # a violation
    with np.errstate(invalid="ignore"):
        tails = np.cumsum(np.flip(v, axis=1), axis=1)
    return np.flip(tails, axis=1).reshape(rows, cols)

def _col_diff(values: np.ndarray, d: int) -> np.ndarray:
    """Right-multiply by the inverse of T_d: first differences across column blocks."""
    rows, cols = values.shape
    n_lev = check_block_length(cols, d)
    v = values.reshape(rows, n_lev, d)
    out = v.copy()
    out[:, :-1, :] -= v[:, 1:, :]
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


def check_ordering_tol(tol: float) -> float:
    """Return tol, refusing a negative, NaN or infinite one: every check
    scales it, and such a tol would fail each comparison, or forgive every
    one, NaN slacks included, instead of meaning anything."""
    if not 0.0 <= tol < math.inf:
        bound = "finite" if tol == math.inf else ">= 0"
        raise InputError(f"ordering tolerance must be {bound}, got {tol}")
    return tol


def _scan(lower: np.ndarray, upper: np.ndarray, tol: float, valid: np.ndarray | None = None,
          first: int = 0, skip_diagonal: bool = False):
    """Check lower(k, l) <= upper(k, l) entrywise, block by block.

    lower and upper are stacked tables of blocks, shape (rows, columns, a,
    b), whose row r holds level first + r and column l level l.  valid
    marks the (row, column) pairs to compare; without it every pair is
    compared, and the tables are read in place.  The tolerance is tol times
    the largest finite entry compared (at least 1; a NaN or an infinity
    adds nothing to it, so an infinite shortfall fails).  With
    skip_diagonal the entries (k,i;k,i) are left out, as block monotonicity
    asks; it needs valid.  A NaN slack counts as -inf and is the worst
    violation if there is one; otherwise that is the first least slack in
    (k, l, i, j) order.  It is located at (k, i, l, j).  Returns the report
    and the scaled tolerance.
    """
    check_ordering_tol(tol)
    block = lower.shape[2:]
    if valid is None:
        lo, hi = lower.reshape(-1, *block), upper.reshape(-1, *block)
    else:
        rows, cols = np.nonzero(valid)
        lo, hi = lower[rows, cols], upper[rows, cols]
    slack = hi - lo
    if skip_diagonal:
        eye = np.arange(block[0])
        slack[np.flatnonzero(rows + first == cols)[:, None], eye, eye] = np.inf
    tau = tol * float(max(np.max(np.abs(a), initial=1.0, where=np.isfinite(a)) for a in (lo, hi)))
    q = int(np.argmin(slack)) if slack.size else None
    margin = math.inf if q is None else float(slack.flat[q])
    if margin == math.inf:
        return DominanceReport(holds=True, worst_violation=None, margin=np.inf), tau
    margin = -math.inf if math.isnan(margin) else margin
    p, i, j = np.unravel_index(q, slack.shape)
    k, l = divmod(int(p), lower.shape[1]) if valid is None else (rows[p], cols[p])
    worst = ((int(first + k), int(i), int(l), int(j)), max(0.0, -margin))
    return DominanceReport(holds=worst[1] <= tau, worst_violation=worst, margin=margin), tau


def _vector_scan(lower: np.ndarray, upper: np.ndarray, tol: float) -> DominanceReport:
    """`_scan` of two (levels, d) arrays as tables with one column of 1 x d
    blocks; the worst violation is located at (level, phase)."""
    report = _scan(lower[:, None, None], upper[:, None, None], tol)[0]
    if report.worst_violation is not None:
        (k, _, _, j), magnitude = report.worst_violation
        report.worst_violation = ((k, j), magnitude)
    return report


def _finite_scan(M: FiniteBlockMatrix, tol: float, skip_diagonal: bool = False) -> DominanceReport:
    """inv(T_d) M T_d >= 0 entrywise, read off M's tail-sum table: row k
    against row k - 1, row 0 against zeros."""
    m = M.n + 1
    upper = _table(M, m, m)
    lower = np.zeros_like(upper)
    lower[1:] = upper[:-1]
    return _scan(lower, upper, tol, valid=np.ones((m, m), dtype=bool),
                 skip_diagonal=skip_diagonal)[0]


def _tail_table(M: BlockGeneratorModel, rows: int, cols: int) -> np.ndarray:
    """S(k; l) for k < rows and l < cols, shape (rows, cols, d, d).

    One `tail_sums` row per level, so every entry is `M.tail_sum(k, l)` bit
    for bit.
    """
    return np.stack([M.tail_sums(k, 0, cols) for k in range(rows)])


def is_block_increasing(f, d: int, tol: float = TAU_ORD) -> DominanceReport:
    """Check f(k, i) <= f(k+1, i) for every phase i and adjacent levels."""
    lev = _levels(f, d)
    return _vector_scan(lev[:-1], lev[1:], tol)


def vector_dominates(mu, eta, d: int, tol: float = TAU_ORD) -> DominanceReport:
    """Check mu is block-wise dominated by eta: cumulative tails of eta are
    at least those of mu, per phase.  Shorter vectors are padded with zeros."""
    a = _levels(getattr(mu, "values", mu), d)
    b = _levels(getattr(eta, "values", eta), d)
    padded = np.zeros((2, max(a.shape[0], b.shape[0]), d))
    padded[0, :a.shape[0]] = a
    padded[1, :b.shape[0]] = b
    ta, tb = _col_tail(padded.reshape(2, -1), d).reshape(padded.shape)
    return _vector_scan(ta, tb, tol)


def is_block_monotone_stochastic(P, d: int, tol: float = TAU_ORD) -> DominanceReport:
    """Check block monotonicity of a row-stochastic matrix.

    Equivalent to every entry of inv(T_d) P T_d being nonnegative, i.e. the
    per-phase cumulative row tails are nondecreasing in the row level.
    """
    P = FiniteBlockMatrix(d, getattr(P, "values", P))
    values = P.values
    row_defect = float(np.max(np.abs(values.sum(axis=1) - 1.0)))
    if row_defect > TAU_CONS * max(1.0, float(np.max(np.abs(values)))):
        raise NotStochastic(f"row sums deviate from 1 by {row_defect:.3e}")
    if float(values.min()) < -TAU_CONS:
        raise NotStochastic(f"negative entry {values.min():.3e}")
    return _finite_scan(P, tol)


def generator_is_block_monotone(M, tol: float = TAU_ORD) -> DominanceReport:
    """Check block monotonicity of a conservative generator.

    This is nonnegativity of the off-diagonal entries of inv(T_d) Q T_d,
    i.e. S(k-1; l) <= S(k; l) entrywise off the diagonal.  A finite matrix
    has every row of its tail-sum table checked, row 0 against zeros.  For
    a model the rows run up to the homogeneity level plus band width;
    beyond that they repeat and the inequalities with them.  The sums come
    from one table, rows 0..bm_check_level() and columns up to one past the
    band, and one `_scan` compares each row with the next.  Any other input
    than a model or a FiniteBlockMatrix is refused with IncompatibleModels.
    """
    if isinstance(M, BlockGeneratorModel):
        top = M.bm_check_level()
        reach = _reach(M, top + 1)
        col_top = np.maximum(reach[:-1], reach[1:])
        table = _tail_table(M, top + 1, int(col_top.max()) + 1)
        valid = np.arange(table.shape[1]) <= col_top[:, None]
        return _scan(table[:-1], table[1:], tol, valid=valid, first=1, skip_diagonal=True)[0]
    if not isinstance(M, FiniteBlockMatrix):
        raise IncompatibleModels(f"cannot take tail sums of {type(M).__name__}")
    return _finite_scan(M, tol, skip_diagonal=True)


def generator_dominates(M, M_tilde, tol: float = TAU_ORD) -> DominanceReport:
    """Check Q T_d <= Q~ T_d, i.e. S(k; l) <= S~(k; l) entrywise for all k, l.

    Accepts any mix of finite matrices and models, truncations included; the
    scan covers every level up to both homogeneity horizons and every column
    either row's band reaches, and analytic tails beyond the scan are
    compared in closed form.
    """
    k_top = max(_check_depth(M), _check_depth(M_tilde))
    if M.d != M_tilde.d:
        raise IncompatibleModels(f"block sizes differ: {M.d} vs {M_tilde.d}")
    col_top = np.maximum(_reach(M, k_top + 1), _reach(M_tilde, k_top + 1))
    shape = (k_top + 1, int(col_top.max()) + 1)
    valid = np.arange(shape[1]) <= col_top[:, None]
    report, tau = _scan(_table(M, *shape), _table(M_tilde, *shape), tol, valid=valid)
    tail_rep = _tail_beyond(_scan_tail(M), _scan_tail(M_tilde), k_top, tau)
    if tail_rep is not None and tail_rep[1] > max(0.0, -report.margin):
        return DominanceReport(
            holds=tail_rep[1] <= tau,
            worst_violation=tail_rep,
            margin=min(report.margin, -tail_rep[1]),
        )
    return report


def _check_depth(M) -> int:
    """Last level a tail-sum scan of M must check; past it rows repeat or vanish."""
    if isinstance(M, BlockGeneratorModel):
        return M.bm_check_level()
    if isinstance(M, FiniteBlockMatrix):
        return M.n
    raise IncompatibleModels(f"cannot take tail sums of {type(M).__name__}")


def _reach(M, rows: int) -> np.ndarray:
    """One past the last band column of each row k < rows: from there on
    S(k; l) is zero or a model's analytic tail."""
    if isinstance(M, BlockGeneratorModel):
        return np.array([M.band(k)[1] + 1 for k in range(rows)])
    return np.full(rows, M.n + 1)


def _table(M, rows: int, cols: int) -> np.ndarray:
    """S(k; l) for k < rows and l < cols, shape (rows, cols, d, d): a model's
    from `_tail_table`, a finite matrix's from `_col_tail`, zero past its corner."""
    if isinstance(M, BlockGeneratorModel):
        return _tail_table(M, rows, cols)
    d, m = M.d, M.n + 1
    sums = _col_tail(M.values, d).reshape(m, d, m, d).transpose(0, 2, 1, 3)
    out = np.zeros((rows, cols, d, d))
    out[:m, :m] = sums[:rows, :cols]
    return out


def _scan_tail(M):
    """The geometric tail of M's rows past its check depth, if it has one."""
    return M.row_tail(M.bm_check_level()) if isinstance(M, BlockGeneratorModel) else None


def _tail_beyond(ta, tb, k_top: int, tau: float):
    """Compare geometric remainders past the scanned columns.

    Only the left side matters when it has no analytic tail (its sums vanish
    beyond the scan while the right side's stay nonnegative).  With a left
    tail present, domination beyond every scanned column needs the right tail
    to decay no faster and to dominate at the first unscanned offset.
    """
    if ta is None or not np.any(ta.coef):
        return None
    if tb is None:
        mag = float(np.max(ta.coef)) * ta.ratio / (1.0 - ta.ratio)
        return ((k_top + 1,), mag)
    if ta.ratio > tb.ratio + RATIO_TOL:
        return ((k_top + 1,), float(np.max(ta.coef)))
    m0 = 1
    slack = tb.sum_from(m0) - ta.sum_from(m0)
    m = float(slack.min())
    if m < -tau:
        return ((k_top + 1,), -m)
    return None
