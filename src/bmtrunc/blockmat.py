"""Block-structured conservative q-matrices.

States are (level, phase) pairs with phases 0..d-1 per level, laid out as
state = level*d + phase.  Infinite generators are finitely described models:
banded with eventual level-homogeneity and an optional geometric tail (an
M/G/1-type generator is one, built by `Mg1Model`), or the batch-arrival
queue whose certificates the bmap module searches.  Finite pieces are plain
dense arrays wrapped with their block size.

Every model is read through one banded-block view.  A model kind supplies
`block(k, l)` and states its band: row k is nonzero only in column 0, in
columns k - lower_hint() .. k + upper_hint(), and, under the geometric tail
`row_tail(k)`, beyond them in closed form.  `BlockGeneratorModel.band` is
that rule, and the tail sums S(k;l), the row products (Qv)(k), the window
and the truncation fold all follow it.  A corner over levels 0..n is read
from `band` once, into a `CornerLayout` that the window, its vector
product and the truncation fold share.  It takes its O(n * band) band
blocks from one batched `blocks(ks, ls)` call (a stack of `block` calls
by default, array arithmetic for the queue model) plus one vectorized tail
fill per row; past the drift fit horizon, `slack_law` gives each row's
drift slack in closed form.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InputError,
    InvalidBmap,
    InvalidModelFile,
    NotConstantAcrossLevels,
    NotStochastic,
    TailSumUnavailable,
)
from .tolerances import EDGE_FLOOR, SCALE_FLOOR, TAU_CONS


def _scalar_pow(x, k: int) -> np.ndarray:
    """x ** k entry by entry, through the scalar pow.

    numpy's array ** uses a vectorized pow that can differ from the scalar
    one in the last bit, so a power taken on a whole grid would not match
    the same power taken at one of its points.  A float x is raised
    directly.
    """
    if isinstance(x, float):
        return x ** k
    x = np.asarray(x, dtype=float)
    return np.array([xi ** k for xi in x.flat]).reshape(x.shape)


def is_level(x) -> bool:
    """x names a level or a count of phases: an int or a numpy integer, not
    a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_level(value, what: str, least=0, most=None, error=InputError):
    """The one rule for a level, a count or a size: `value`, when it is a
    level (`is_level`) in least..most, most None for no top; otherwise the
    caller's `error`, naming `what` and the value."""
    if not is_level(value):
        raise error(f"{what} must be an integer, got {value!r}")
    if most is None and value < least:
        raise error(f"{what} must be >= {least}, got {value}")
    if most is not None and not least <= value <= most:
        raise error(f"{what} {value} outside {least}..{most}")
    return value


def check_block_length(size: int, d: int) -> int:
    """Return the number of levels, raising if d is not an integer >= 1 or
    size is not a multiple of it."""
    check_level(d, "block size", 1, error=DimensionMismatch)
    if size % d != 0:
        raise DimensionMismatch(f"length {size} is not a multiple of block size {d}")
    return size // d


def zero_corners(n: int, d: int, count: int) -> np.ndarray:
    """A stack of `count` zeroed corners over levels 0..n of d phases, shaped
    (states, count, states): corner k is [:, k, :], so row s of every corner
    lies in one block.  InputError, naming the states and the size, where
    numpy cannot allocate them or index that many."""
    states = (check_level(n, "window level") + 1) * d
    try:
        return np.zeros((states, count, states))
    except (MemoryError, ValueError) as exc:
        need = "its float64 matrix needs" if count == 1 else f"{count} float64 matrices need"
        raise InputError(f"the corner over levels 0..{n} has {states} states: {need} "
                         f"{8 * count * states ** 2 / 2 ** 30:.3g} GiB and cannot be allocated") from exc


def zero_corner(n: int, d: int) -> np.ndarray:
    """Zeros over levels 0..n of d phases, as `zero_corners` allocates one."""
    return zero_corners(n, d, 1)[:, 0]


@dataclass
class FiniteBlockMatrix:
    """Dense square matrix over levels 0..n with d phases per level."""

    d: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise DimensionMismatch(f"matrix must be square, got {self.values.shape}")
        self.n_levels = check_block_length(self.values.shape[0], self.d)

    @property
    def n(self) -> int:
        """Highest level index."""
        return self.n_levels - 1

    def block(self, k: int, l: int) -> np.ndarray:
        """Q(k; l) as a (d, d) view; InputError for a level that is not an
        integer or lies outside 0..n."""
        check_level(k, "block row", 0, self.n)
        check_level(l, "block column", 0, self.n)
        d = self.d
        return self.values[k * d:(k + 1) * d, l * d:(l + 1) * d]


@dataclass
class ValidationReport:
    ok: bool
    conservative: bool
    messages: list[str]
    max_offdiag_violation: float
    max_diag_violation: float
    max_row_defect: float
    row_scale: float


@dataclass(frozen=True)
class MuRule:
    """Level-dependent departure rates mu(k), k >= 1, with an eventual rule.

    The table covers mu(1)..mu(len(table)); beyond it the rule is either
    "constant" (at `value`, defaulting to the last table entry) or "affine"
    (last entry plus slope per level).  mu(0) is always 0.
    """

    table: tuple[float, ...]
    eventual: str = "constant"
    value: float | None = None
    slope: float = 0.0

    def __post_init__(self):
        if len(self.table) == 0:
            raise InputError("mu table must contain at least mu(1)")
        fields = [(f"table[{i}]", m) for i, m in enumerate(self.table)]
        for name, x in fields + [("value", self.value), ("slope", self.slope)]:
            # a bool or a string is no rate, though float() would read one
            if x is not None and (isinstance(x, bool) or not isinstance(x, numbers.Real)):
                raise InputError(f"mu {name} must be a real number, got {x!r}")
        if not all(0.0 <= m < math.inf for m in self.table):
            raise InputError("mu(k) must be finite and nonnegative")
        if self.eventual not in ("constant", "affine"):
            raise InputError(f"unknown eventual mu rule {self.eventual!r}")
        if self.eventual == "affine" and not 0.0 <= self.slope < math.inf:
            raise InputError("affine mu rule needs a finite slope >= 0")
        if self.value is not None and not 0.0 <= self.value < math.inf:
            raise InputError("eventual mu value must be finite and nonnegative")

    def __call__(self, k: int) -> float:
        if k <= 0:
            return 0.0
        if k <= len(self.table):
            return float(self.table[k - 1])
        if self.eventual == "constant":
            return float(self.table[-1] if self.value is None else self.value)
        return float(self.table[-1] + self.slope * (k - len(self.table)))

    def at(self, ks) -> np.ndarray:
        """mu(k) for an array of levels, each entry bit-identical to `mu(k)`."""
        ks = np.asarray(ks, dtype=int)
        size = len(self.table)
        listed = np.asarray(self.table, dtype=float)[np.clip(ks - 1, 0, size - 1)]
        if self.eventual == "constant":
            beyond = float(self.table[-1] if self.value is None else self.value)
        else:
            beyond = self.table[-1] + self.slope * (ks - size)
        return np.where(ks <= 0, 0.0, np.where(ks <= size, listed, beyond))

    @property
    def stable_from(self) -> int:
        """Level from which mu(k) follows the closed eventual law in k."""
        return len(self.table) + 1

    def infimum(self) -> float:
        """inf over k >= 1; the eventual rule never dips below its start."""
        vals = [min(self.table)]
        if self.eventual == "constant" and self.value is not None:
            vals.append(self.value)
        return float(min(vals))


@dataclass(frozen=True)
class GeometricTail:
    """Analytic envelope D(k) = coef * ratio**k for k beyond the listed blocks."""

    coef: np.ndarray
    ratio: float

    def __post_init__(self):
        object.__setattr__(self, "coef", np.asarray(self.coef, dtype=float))
        if not 0.0 < self.ratio < 1.0:
            raise InputError(f"tail ratio must lie in (0,1), got {self.ratio}")
        if not np.all(np.isfinite(self.coef)):
            raise InputError("tail coefficient matrix must be finite")
        if np.any(self.coef < 0):
            raise InputError("tail coefficient matrix must be nonnegative")

    def sum_from(self, m) -> np.ndarray:
        """Sum of D(k) for k >= m, in closed form.

        A list of m gives the stack of sums, shape (len(m), d, d), each
        bit-identical to the sum at its own m.
        """
        def factor(j):
            return self.ratio ** j / (1.0 - self.ratio)

        if isinstance(m, list):
            return np.array([factor(j) for j in m])[:, None, None] * self.coef
        return self.coef * factor(m)

    def weighted_sum_from(self, m: int) -> np.ndarray:
        """Sum of k*D(k) for k >= m, in closed form."""
        r = self.ratio
        return self.coef * (r ** m * (m - (m - 1) * r) / (1.0 - r) ** 2)

    def power_series_from(self, m: int, z) -> np.ndarray:
        """Sum of z**k * D(k) for k >= m; requires z*ratio < 1.

        An array of z gives the stack of sums, shape z.shape + (d, d); a
        float z gives its one sum without an array round trip.
        """
        scalar = isinstance(z, float)
        x = z * self.ratio if scalar else np.asarray(z, dtype=float) * self.ratio
        if (x >= 1.0) if scalar else np.any(x >= 1.0):
            raise TailSumUnavailable(
                f"z={z} is outside the tail's convergence radius 1/{self.ratio}"
            )
        factor = _scalar_pow(x, m) / (1.0 - x)
        return factor * self.coef if scalar else factor[..., None, None] * self.coef


@dataclass(frozen=True, eq=False)
class CornerLayout:
    """Where each row of a model's corner over levels 0..n lives, from `band`.

    Row k holds band blocks in column 0 (when lo[k] > 0) and in columns
    lo[k]..min(hi[k], n).  A tailed row also holds the tail block
    tail.coef * tail.ratio**(l - k) in every column l > hi[k]; a model's
    rows share one tail.  The rows that reach past level n, through their
    band or a tail, are the ones a truncation folds.  `window` fills a
    corner from it, `_truncate` folds one, and `product` multiplies a
    vector by one without forming it.
    """

    n: int
    lo: np.ndarray
    hi: np.ndarray
    tail: GeometricTail | None
    tailed: np.ndarray

    @functools.cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(ks, ls): the level pair of every band block, row by row, column 0 first."""
        col0 = (self.lo > 0).astype(int)
        counts = col0 + np.maximum(np.minimum(self.hi, self.n) - self.lo + 1, 0)
        ks = np.repeat(np.arange(self.n + 1), counts)
        pos = np.arange(ks.size) - np.repeat(np.cumsum(counts) - counts, counts)
        ls = np.where(pos < col0[ks], 0, self.lo[ks] + pos - col0[ks])
        return ks, ls

    def filled(self) -> np.ndarray:
        """Rows holding tail blocks inside the corner."""
        return np.flatnonzero(self.tailed & (self.hi < self.n))

    def folded(self) -> np.ndarray:
        """Rows that reach past level n."""
        return np.flatnonzero(self.tailed | (self.hi > self.n))

    def product(self, x, band: np.ndarray) -> np.ndarray:
        """x @ window(n) for a vector x over levels 0..n, without the window.

        band holds the band blocks at `pairs`, as `blocks` gives them.  The
        tail blocks coef * ratio**(l - k) past each tailed row's band add
        up, column by column, to a first-order geometric recurrence: a
        running sum carried from each level to the next.  It equals
        x @ window(n).values up to rounding.
        """
        d = band.shape[-1]
        X = np.asarray(x, dtype=float).reshape(self.n + 1, d)
        ks, ls = self.pairs
        terms = np.matmul(X[ks, None, :], band)[:, 0, :]
        cols = (ls[:, None] * d + np.arange(d)).ravel()
        out = np.bincount(cols, weights=terms.ravel(), minlength=X.size)
        filled = self.filled()
        if filled.size:
            tail = self.tail
            start = self.hi[filled] + 1
            pulses = np.zeros_like(X)
            np.add.at(pulses, start, (X[filled] @ tail.coef)
                      * (tail.ratio ** (start - filled).astype(float))[:, None])
            for l in range(1, self.n + 1):
                pulses[l] += tail.ratio * pulses[l - 1]
            out += pulses.ravel()
        return out


class BlockGeneratorModel:
    """Base for finitely described infinite block generators.

    A model kind supplies `block(k, l)`, its band hints (`lower_hint`,
    `upper_hint` and, for rows with a geometric tail, `row_tail`) and its
    level metadata (`homogeneity_level`, `drift_fit_level`).  Everything
    else, `blocks`, `tail_sum`, `apply_row`, `layout`, `window` and
    `slack_law` included, is derived here from `band` and `block`
    (`BmapQueueModel` overrides `slack_law` for affine service and `blocks`
    with array arithmetic).  Models are immutable after construction.
    """

    d: int

    def block(self, k: int, l: int) -> np.ndarray:
        raise NotImplementedError

    def blocks(self, ks, ls) -> np.ndarray:
        """Q(k_i; l_i) for paired levels, stacked: shape (len(ks), d, d).

        The stacked `block` calls; a model kind may override it with array
        arithmetic that gives every entry bit for bit.
        """
        stack = [self.block(int(k), int(l)) for k, l in zip(ks, ls)]
        return np.array(stack, dtype=float).reshape(len(stack), self.d, self.d)

    def homogeneity_level(self) -> int:
        """Level at and beyond which rows follow the eventual law."""
        raise NotImplementedError

    def upper_hint(self) -> int:
        """Finite-support width of the upper band (tail excluded)."""
        raise NotImplementedError

    def lower_hint(self) -> int:
        raise NotImplementedError

    def drift_fit_level(self) -> int:
        """Level from which every row follows `slack_law` exactly."""
        raise NotImplementedError

    def row_tail(self, k: int) -> GeometricTail | None:
        """Geometric tail filling row k beyond its band, if the row has one."""
        return None

    def band(self, k: int) -> tuple[int, int, GeometricTail | None]:
        """Where row k can be nonzero: (lo, hi, tail).

        Row k lives in column 0 and columns lo..hi; when tail is not None,
        every column l > hi also holds the block tail.coef * tail.ratio**(l-k).
        """
        return max(0, k - self.lower_hint()), k + self.upper_hint(), self.row_tail(k)

    def tail_sum(self, k: int, l: int) -> np.ndarray:
        """S(k;l) = sum of blocks Q(k;m) over m >= l, exact."""
        return self.tail_sums(k, l, l + 1)[0]

    def tail_sums(self, k: int, l0: int, l1: int) -> np.ndarray:
        """S(k;l) for l = l0 .. l1-1, stacked: shape (l1 - l0, d, d), exact.

        The one summation rule of every tail sum: column 0's block goes
        onto S(k;0) when it lies outside the band, then each band block
        Q(k;m), in increasing m, onto the prefix of columns l <= m that
        contain it, then the tail's closed-form remainder.  Every column
        gets the same additions in the same order as alone, so a row of
        tail sums is bit-identical to its `tail_sum` calls.
        """
        lo, hi, tail = self.band(k)
        out = np.zeros((l1 - l0, self.d, self.d))
        if l0 == 0 and lo > 0:
            out[0] += self.block(k, 0)
        for m in range(max(l0, lo), hi + 1):
            out[:m + 1 - l0] += self.block(k, m)
        if tail is not None:
            out += tail.sum_from([max(l, hi + 1) - k for l in range(l0, l1)])
        return out

    def apply_row(self, k: int, v) -> np.ndarray:
        """Sum of Q(k;l) v(l) over all l, exact even with an analytic tail.

        v must provide level(l) -> (d,) array; geometric tails additionally
        require v.beta, v.u and v.shift for the closed-form remainder.
        """
        lo, hi, tail = self.band(k)
        out = np.zeros(self.d)
        if lo > 0:
            out += self.block(k, 0) @ v.level(0)
        for l in range(lo, hi + 1):
            out += self.block(k, l) @ v.level(l)
        if tail is not None:
            j = hi + 1 - k
            out += v.beta ** k * (tail.power_series_from(j, v.beta) @ v.u)
            out += v.shift * tail.sum_from(j).sum(axis=1)
        return out

    def slack_law(self, v, c: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a0, a1, g0) with (Qv)(k) + c v(k) = beta**k (a0 + a1 k) + g0 exactly.

        Holds per phase for geometric v at every k >= drift_fit_level().  Read
        off the horizon's row, so rows there must be shift-invariant and clear
        of column 0 (then a1 = 0); level-dependent rates need an override.
        """
        k = self.drift_fit_level()
        lo, hi, tail = self.band(k)
        beta, u = v.beta, v.u
        a0 = c * u
        for l in range(lo, hi + 1):
            a0 = a0 + beta ** (l - k) * (self.block(k, l) @ u)
        if tail is not None:
            a0 = a0 + tail.power_series_from(hi + 1 - k, beta) @ u
        g0 = v.shift * (self.tail_sum(k, 1).sum(axis=1) + c) + self.block(k, 0) @ u
        return a0, np.zeros(self.d), g0

    def bm_check_level(self) -> int:
        return self.homogeneity_level() + self.lower_hint() + self.upper_hint() + 1

    def layout(self, n: int) -> CornerLayout:
        """Where the rows of the corner over levels 0..n live: `band` read once per row."""
        lo, hi, tails = zip(*(self.band(k) for k in range(n + 1)))
        return CornerLayout(
            n=n, lo=np.array(lo), hi=np.array(hi),
            tail=next((t for t in tails if t is not None), None),
            tailed=np.array([t is not None for t in tails]),
        )

    def window(self, n: int, layout: CornerLayout | None = None,
               out: np.ndarray | None = None) -> FiniteBlockMatrix:
        """Northwest corner over levels 0..n; not conservative in general.

        Rows follow `layout(n)` (pass it when already read): the band blocks
        come from one `blocks` call over its pairs in one stacked
        assignment, and a tailed row is filled past its band in closed form.
        It fills `out`, a `zero_corner`, allocated before `layout` when not given.
        """
        d = self.d
        out = zero_corner(n, d) if out is None else out
        lay = self.layout(n) if layout is None else layout
        blocks = out.reshape(n + 1, d, n + 1, d)
        filled = lay.filled()
        if filled.size:
            tail = lay.tail
            powers = np.array([tail.ratio ** o for o in range(n + 1)])
            for k, hi in zip(filled.tolist(), lay.hi[filled].tolist()):
                blocks[k, :, hi + 1:, :] = (
                    tail.coef[:, None, :] * powers[hi + 1 - k:n + 1 - k, None]
                )
        ks, ls = lay.pairs
        blocks[ks, :, ls, :] = self.blocks(ks, ls)
        return FiniteBlockMatrix(d, out)

    def diag_abs(self, k: int) -> np.ndarray:
        """|q(k,j;k,j)| for each phase j."""
        return np.abs(np.diag(self.block(k, k)))


class BandedModel(BlockGeneratorModel):
    """ExplicitBanded: blocks within [k-L, k+U], level-homogeneous above K_hom.

    Row k holds the blocks of row min(k, K_hom) at offsets -L..U.  With a
    geometric tail, every row k >= K_hom also holds, at each offset o > U,
    the block tail.coef * tail.ratio**o.
    """

    def __init__(self, d: int, L: int, U: int, K_hom: int, rows: dict,
                 tail: GeometricTail | None = None):
        # K_hom >= L, so that the homogeneous row clears level 0
        for name, value, least in (("d", d, 1), ("L", L, 0), ("U", U, 0), ("K_hom", K_hom, L)):
            check_level(value, name, least)
        if tail is not None and tail.coef.shape != (d, d):
            raise DimensionMismatch(
                f"tail coefficient has shape {tail.coef.shape}, want {(d, d)}")
        self.d = d
        self.L = L
        self.U = U
        self.K_hom = K_hom
        self.tail = tail
        self._zero = np.zeros((d, d))
        self._rows = {}
        for k, offsets in rows.items():
            # row k > K_hom would never be read: rows from K_hom on repeat row K_hom
            check_level(k, "block row", 0, K_hom, InvalidModelFile)
            row = {}
            for o, mat in offsets.items():
                mat = np.asarray(mat, dtype=float)
                if mat.shape != (d, d):
                    raise DimensionMismatch(
                        f"block at level {k}, offset {o} has shape {mat.shape}, want {(d, d)}"
                    )
                check_level(o, f"block row {k} offset", -L, U)
                if k + o < 0:
                    raise InvalidModelFile(
                        f"block at level {k}, offset {o} lies in column {k + o} < 0"
                    )
                row[o] = mat
            self._rows[k] = row
        for k in range(K_hom + 1):
            if k not in self._rows:
                raise InvalidModelFile(f"missing block row for level {k} (K_hom={K_hom})")

    def _row(self, k: int) -> dict:
        return self._rows[min(k, self.K_hom)]

    def block(self, k: int, l: int) -> np.ndarray:
        o = l - k
        if o < -self.L or l < 0:
            return self._zero
        if o > self.U:
            tail = self.row_tail(k)
            return self._zero if tail is None else tail.coef * tail.ratio ** o
        return self._row(k).get(o, self._zero)

    def homogeneity_level(self) -> int:
        return self.K_hom

    def upper_hint(self) -> int:
        return self.U

    def lower_hint(self) -> int:
        return self.L

    def row_tail(self, k: int) -> GeometricTail | None:
        return self.tail if k >= self.K_hom else None

    def drift_fit_level(self) -> int:
        return max(self.K_hom + self.U + 1, self.L + 1)


def Mg1Model(d: int, repeat: list, boundary: list,
             tail: GeometricTail | None = None) -> BandedModel:
    """The level-independent M/G/1-type generator, built as a `BandedModel`.

    Boundary row 0 has blocks B(0), B(1), ...; every row k >= 1 has blocks
    A(-1), A(0), A(1), ... starting at column k-1, and an optional geometric
    tail extends them.  So L = K_hom = 1 and U = max(len(A) - 2, len(B) - 1);
    where the boundary row is the longer one, row 1's band ends in tail blocks.
    """
    if len(repeat) < 2:
        raise InvalidModelFile("MG1Type needs at least A(-1) and A(0)")
    if not boundary:
        raise InvalidModelFile("MG1Type needs a boundary row: at least B(0)")
    U = max(len(repeat) - 2, len(boundary) - 1)
    row1 = {o - 1: a for o, a in enumerate(repeat)}
    if tail is not None:
        row1.update({o: tail.coef * tail.ratio ** o for o in range(len(repeat) - 1, U + 1)})
    return BandedModel(d=d, L=1, U=U, K_hom=1, rows={0: dict(enumerate(boundary)), 1: row1},
                       tail=tail)


def reachable(adj: np.ndarray) -> np.ndarray:
    """reach[i, j]: state j can be reached from state i along edges of adj.

    Every state reaches itself.  The closure is found by squaring until it
    stops growing, so it costs O(log d) boolean products.
    """
    reach = np.asarray(adj, dtype=bool) | np.eye(len(adj), dtype=bool)
    while True:
        grown = reach @ reach
        if np.array_equal(grown, reach):
            return reach
        reach = grown


@dataclass(eq=False)
class BmapQueueModel(BlockGeneratorModel):
    """The BMAP/M(k)/1 queue generator with optional disasters.

    Row 0 is D(0), D(1), ...; row k >= 1 has psi*I in column 0 (plus mu(1)*I
    when k = 1), mu(k)*I on the subdiagonal, D(0) - (psi+mu(k))*I on the
    diagonal, and D(l-k) above it.

    Construction validates the parameters: finite d x d blocks, a D(0)
    with nonnegative off-diagonal and negative diagonal entries,
    nonnegative D(k) for k >= 1, a finite psi >= 0, and a conservative,
    irreducible phase process sum D(k).  r_D is the radius of convergence of the batch-size
    transform: the reciprocal tail ratio when an analytic tail is declared,
    infinite for finitely supported batches.

    Every queue the constructor accepts is block-monotone: S(k-1; l) <=
    S(k; l) entrywise off the entries (k,i;k,i), where S(k; l) sums row k's
    blocks in columns >= l.  So the certificate searches do not scan for it
    (`order.generator_is_block_monotone` still does, for explicit callers).
    Proof: let D = sum_j D(j).  Row 0 has S(0; 0) = D and S(0; l) =
    sum_{j >= l} D(j).  A row k >= 1 sums to D in total (at k = 1 column 0
    carries mu(1) besides psi), S(k; l) = D - psi I for 1 <= l <= k-1,
    S(k; k) = D - (psi + mu(k)) I and S(k; l) = sum_{j >= l-k} D(j) for
    l > k.  Off the diagonal, S(k; l) - S(k-1; l) is therefore

    - 0 at l = 0 (both rows sum to D) and at 1 <= l <= k-2;
    - mu(k-1) I at l = k-1;
    - D(0) - (psi + mu(k)) I at l = k, whose diagonal is skipped;
    - D(l-k) at l > k;

    and each is >= 0 by the sign checks below: mu >= 0 (`MuRule`), D(0)
    has no negative off-diagonal entry, and every D(j), j >= 1, is
    nonnegative.  A geometric tail only extends D(j) by coef * ratio**j
    with coef >= 0.  The scan reads these differences off rounded tail
    sums.  Wherever one is 0 off the diagonal, adjacent rows add the same
    numbers in the same order, so it comes out exactly 0; the others move
    by the rounding of the row's rates only, inside the scan's tolerance
    of TAU_ORD times its largest entry.
    """

    d: int
    D: tuple
    mu: MuRule
    psi: float = 0.0
    tail: GeometricTail | None = None

    def __post_init__(self):
        self.D = tuple(np.asarray(m, dtype=float) for m in self.D)
        if len(self.D) < 1:
            raise InvalidBmap("need at least D(0)")
        d = check_level(self.d, "phase count d", 1, error=InvalidBmap)
        for i, m in enumerate(self.D):
            if m.shape != (d, d):
                raise InvalidBmap(f"D({i}) has shape {m.shape}, want {(d, d)}")
        if self.tail is not None and self.tail.coef.shape != (d, d):
            raise InvalidBmap(f"tail coefficient has shape {self.tail.coef.shape}, want {(d, d)}")
        d0 = self.D[0]
        off0 = d0 - np.diag(np.diag(d0))
        if float(off0.min()) < 0:
            raise InvalidBmap("D(0) has a negative off-diagonal entry")
        if float(np.max(np.diag(d0))) >= 0:
            raise InvalidBmap("D(0) diagonal must be strictly negative")
        for i, m in enumerate(self.D[1:], start=1):
            if float(m.min()) < 0:
                raise InvalidBmap(f"D({i}) has a negative entry")
        if not 0.0 <= self.psi < math.inf:
            raise InvalidBmap(f"disaster rate must be finite and >= 0, got {self.psi}")
        self.psi = float(self.psi)
        self._zero = np.zeros((d, d))
        self._eye = np.eye(d)
        self._stacked_D = np.stack(self.D)
        # the power iteration's shift: E = I + Dhat(z) / shift is nonnegative
        self._perron_shift = float(np.max(np.abs(np.diag(d0))))
        total = self.phase_sum()
        if not np.all(np.isfinite(total)):
            raise InvalidBmap("D(k) must be finite")
        defect = float(np.max(np.abs(total.sum(axis=1))))
        if defect > TAU_CONS * max(1.0, float(np.max(np.abs(total)))):
            raise InvalidBmap(f"sum of D(k) is not conservative (defect {defect:.3e})")
        if not reachable(total > EDGE_FLOOR).all():
            raise InvalidBmap("phase process generator sum of D(k) is reducible")

    @property
    def k_max(self) -> int:
        return len(self.D) - 1

    @property
    def r_D(self) -> float:
        return math.inf if self.tail is None else 1.0 / self.tail.ratio

    def phase_sum(self) -> np.ndarray:
        """D = sum of all D(k), the phase process generator: row 0's sum."""
        return self.tail_sum(0, 0)

    def dhat(self, z) -> np.ndarray:
        """Batch transform sum z^k D(k), exact including the analytic tail.

        An array of z gives the stack of transforms, shape z.shape + (d, d),
        each bit-identical to the transform at its own point; a float z is
        taken as it is, without an array round trip, and its transform is
        built in place: D(0) + 0.0, then += z^k D(k) and the tail, the
        additions of `sum`, signed zeros included.
        """
        scalar = isinstance(z, float)
        zs = z if scalar else np.asarray(z, dtype=float)
        if not ((0.0 < z < self.r_D) if scalar else np.all((0.0 < zs) & (zs < self.r_D))):
            raise InputError(f"z={z} outside (0, {self.r_D})")
        if scalar:
            # sum's first term is 0 + 1.0 D(0): -0.0 entries come out +0.0
            out = self.D[0] + 0.0
            for k in range(1, len(self.D)):
                out += z ** k * self.D[k]
        else:
            out = sum(_scalar_pow(zs, k)[..., None, None] * m for k, m in enumerate(self.D))
        if self.tail is not None:
            out += self.tail.power_series_from(self.k_max + 1, zs)
        return out

    def _dblock(self, j: int) -> np.ndarray:
        if j <= self.k_max:
            return self.D[j]
        if self.tail is not None:
            return self.tail.coef * self.tail.ratio ** j
        return self._zero

    def block(self, k: int, l: int) -> np.ndarray:
        if l < 0:
            return self._zero
        if k == 0:
            return self._dblock(l)
        if l == k:
            return self.D[0] - (self.psi + self.mu(k)) * self._eye
        if l > k:
            return self._dblock(l - k)
        if l == k - 1 and k >= 2:
            return self.mu(k) * self._eye
        if l == 0:
            rate = self.psi + (self.mu(1) if k == 1 else 0.0)
            return rate * self._eye
        return self._zero

    def blocks(self, ks, ls) -> np.ndarray:
        """`block` over paired levels by array arithmetic, entry for entry.

        D(j), or the tail block, on row 0 and above the diagonal;
        D(0) - (psi + mu(k)) I on the diagonal; mu(k) I below it; and
        (psi + mu(1) [k = 1]) I in column 0.
        """
        ks, ls = np.asarray(ks, dtype=int), np.asarray(ls, dtype=int)
        out = np.zeros((ks.size, self.d, self.d))
        j = ls - ks
        upper = (ls >= 0) & ((ks == 0) | (ls > ks))
        listed = np.flatnonzero(upper & (j <= self.k_max))
        out[listed] = self._stacked_D[j[listed]]
        if self.tail is not None:
            beyond = np.flatnonzero(upper & (j > self.k_max))
            powers = np.array([self.tail.ratio ** o for o in j[beyond].tolist()])
            out[beyond] = self.tail.coef * powers.reshape(-1, 1, 1)
        mus = self.mu.at(ks)
        diag = np.flatnonzero((ks >= 1) & (ls == ks))
        out[diag] = self.D[0] - (self.psi + mus[diag])[:, None, None] * self._eye
        sub = np.flatnonzero((ks >= 2) & (ls == ks - 1))
        out[sub] = mus[sub][:, None, None] * self._eye
        col0 = np.flatnonzero((ks >= 1) & (ls == 0))
        rates = self.psi + np.where(ks[col0] == 1, mus[col0], 0.0)
        out[col0] = rates[:, None, None] * self._eye
        return out

    def homogeneity_level(self) -> int:
        return max(2, self.mu.stable_from)

    def upper_hint(self) -> int:
        return self.k_max

    def lower_hint(self) -> int:
        return 1

    def row_tail(self, k: int) -> GeometricTail | None:
        return self.tail

    def drift_fit_level(self) -> int:
        return max(2, self.mu.stable_from, self.homogeneity_level() + self.k_max + 1)

    def slack_law(self, v, c: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Closed form for mu(k) = m0 + m1 k; a conservative D adds no shift term.

        a0 = Dhat(beta) u - (m0 (1 - 1/beta) + psi - c) u, a1 = m1 (1/beta - 1) u
        and g0 = psi u + (c - psi) shift.
        """
        m1 = self.mu.slope if self.mu.eventual == "affine" else 0.0
        m0 = self.mu(self.mu.stable_from) - m1 * self.mu.stable_from
        beta, u, psi = v.beta, v.u, self.psi
        a0 = self.dhat(beta) @ u - (m0 * (1.0 - 1.0 / beta) + psi - c) * u
        return a0, m1 * (1.0 / beta - 1.0) * u, psi * u + (c - psi) * v.shift


def validate_q_matrix(M) -> ValidationReport:
    """Check q-matrix structure and conservativity.

    Accepts a FiniteBlockMatrix, a plain square array, or a model.  Signs
    and finiteness are checked on the values read, the row scale taken
    from them: a model's probe window over levels 0..bm_check_level(), or
    the matrix itself.  Conservativity is judged on exact row sums: a
    model's S(k;0) 1 for k <= bm_check_level(), or the matrix's row sums.
    """
    if isinstance(M, BlockGeneratorModel):
        probe = M.bm_check_level()
        values = M.window(probe).values
        sums = np.concatenate([M.tail_sum(k, 0).sum(axis=1) for k in range(probe + 1)])
    else:
        values = M.values if isinstance(M, FiniteBlockMatrix) else np.asarray(M, dtype=float)
        sums = values.sum(axis=1)
    messages = []
    off = values - np.diag(np.diag(values))
    off_viol = float(max(0.0, -off.min())) if off.size else 0.0
    diag_viol = float(max(0.0, np.max(np.diag(values)))) if values.size else 0.0
    row_scale = float(np.max(np.abs(values).sum(axis=1))) if values.size else 0.0
    tau = TAU_CONS * max(row_scale, SCALE_FLOOR)
    if off_viol > tau:
        i, j = np.unravel_index(np.argmin(off), off.shape)
        messages.append(f"negative off-diagonal {values[i, j]:.3e} at ({i},{j})")
    if diag_viol > tau:
        i = int(np.argmax(np.diag(values)))
        messages.append(f"positive diagonal {values[i, i]:.3e} at state {i}")
    if not np.all(np.isfinite(values)):
        messages.append("non-finite entries present")
    row_defect = float(np.max(np.abs(sums))) if sums.size else 0.0
    conservative = row_defect <= tau
    if not conservative:
        bad = int(np.argmax(np.abs(sums)))
        messages.append(f"row sum {sums[bad]:.3e} at state {bad} exceeds tolerance {tau:.3e}")
    return ValidationReport(
        ok=not messages,
        conservative=conservative,
        messages=messages,
        max_offdiag_violation=off_viol,
        max_diag_violation=diag_viol,
        max_row_defect=row_defect,
        row_scale=row_scale,
    )


def phase_generator(M: BlockGeneratorModel) -> np.ndarray:
    """Aggregate phase generator: row sums of blocks, constant across levels.

    Returns the d x d matrix with entries sum_l q(k,i;l,j), evaluated at the
    homogeneity level and verified constant over lower levels.
    """
    k_top = M.homogeneity_level()
    xi = M.tail_sum(k_top, 0)
    scale = max(float(np.max(np.abs(xi))), 1.0)
    tau = TAU_CONS * scale
    for k in range(k_top + 1):
        dev = float(np.max(np.abs(M.tail_sum(k, 0) - xi)))
        if dev > tau:
            raise NotConstantAcrossLevels(
                f"phase row aggregates differ by {dev:.3e} between level {k} "
                f"and level {k_top}; model is not block-monotone"
            )
    rows = np.abs(xi.sum(axis=1)).max()
    if rows > tau:
        raise NotStochastic(f"phase generator rows sum to {rows:.3e}, not 0")
    off = xi - np.diag(np.diag(xi))
    if off.min(initial=0.0) < -tau:
        raise NotStochastic("phase generator has negative off-diagonal entries")
    return xi


def _json_number(value, where: str) -> float:
    """A number field of a model file: a JSON int or float, never a bool or
    a string, which float() would read as some other number."""
    if type(value) not in (int, float):
        raise InvalidModelFile(f"{where} must be a number, got {value!r}")
    return float(value)


def _json_list(value, where: str) -> list:
    """A list field of a model file; a string or an object is refused, as
    iterating it would read its characters or its keys."""
    if not isinstance(value, list):
        raise InvalidModelFile(f"{where} must be a list, got {value!r}")
    return value


def _json_matrix(obj, d: int, where: str) -> np.ndarray:
    """A d x d matrix field: d lists of d numbers each."""
    rows = [_json_list(row, f"{where}[{i}]") for i, row in enumerate(_json_list(obj, where))]
    widths = {len(row) for row in rows}
    if len(rows) != d or widths != {d}:
        shape = (len(rows), *widths) if len(widths) <= 1 else "of uneven rows"
        raise InvalidModelFile(f"{where}: expected {d}x{d} matrix, got shape {shape}")
    if not {type(x) for row in rows for x in row} <= {int, float}:
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                _json_number(x, f"{where}[{i}][{j}]")
    return np.array(rows, dtype=float)


def _parse_matrix(obj, d: int, where: str) -> np.ndarray:
    mat = _json_matrix(obj, d, where)
    if not np.all(np.isfinite(mat)):
        raise InvalidModelFile(f"{where}: entries must be finite")
    return mat


def _parse_tail(params: dict, d: int) -> GeometricTail | None:
    if "tail" not in params or params["tail"] is None:
        return None
    t = params["tail"]
    return GeometricTail(_parse_matrix(t["coef"], d, "tail.coef"),
                         _json_number(t["ratio"], "tail.ratio"))


def _parse_mu(obj) -> MuRule:
    if not isinstance(obj, dict) or "table" not in obj:
        raise InvalidModelFile("mu must be an object with a 'table' list")
    value = obj.get("value")
    return MuRule(
        table=tuple(_json_number(x, f"mu.table[{i}]")
                    for i, x in enumerate(_json_list(obj["table"], "mu.table"))),
        eventual=obj.get("eventual", "constant"),
        value=None if value is None else _json_number(value, "mu.value"),
        slope=_json_number(obj.get("slope", 0.0), "mu.slope"),
    )


def _json_int(value, what: str, path, least=-math.inf) -> int:
    """An integer field of a model file, at least `least` (an offset may be
    negative, so no bound by default); a bool or a float is refused."""
    return check_level(value, f"{path}: {what}", least, error=InvalidModelFile)


def load_model(path) -> BlockGeneratorModel:
    """Read a model file: JSON with top-level {d, kind, parameters}."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidModelFile(f"{path}: {exc}") from exc
    except OSError as exc:
        raise InvalidModelFile(f"{path}: {exc}") from exc
    try:
        d = doc["d"]
        kind = doc["kind"]
        params = doc.get("parameters", {})
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidModelFile(f"{path}: missing or malformed d/kind") from exc
    d = _json_int(d, "d", path, 1)
    try:
        if kind == "BmapQueue":
            # D's finiteness is the queue model's check (InvalidBmap)
            D = [_json_matrix(m, d, f"D[{k}]")
                 for k, m in enumerate(_json_list(params["D"], "D"))]
            if "k_max" in params and _json_int(params["k_max"], "k_max", path) != len(D) - 1:
                raise InvalidModelFile(
                    f"k_max={params['k_max']} disagrees with {len(D)} D blocks"
                )
            return BmapQueueModel(
                d=d,
                D=D,
                mu=_parse_mu(params["mu"]),
                psi=_json_number(params.get("psi", 0.0), "psi"),
                tail=_parse_tail(params, d),
            )
        if kind == "ExplicitBanded":
            rows: dict = {}
            for entry in _json_list(params["blocks"], "blocks"):
                k = _json_int(entry["level"], "block level", path)
                o = _json_int(entry["offset"], "block offset", path)
                rows.setdefault(k, {})[o] = _parse_matrix(
                    entry["matrix"], d, f"block level {k} offset {o}"
                )
            return BandedModel(
                d=d,
                L=_json_int(params["L"], "L", path),
                U=_json_int(params["U"], "U", path),
                K_hom=_json_int(params["K_hom"], "K_hom", path),
                rows=rows,
            )
        if kind == "MG1Type":
            repeat = [_parse_matrix(m, d, f"A[{i}]")
                      for i, m in enumerate(_json_list(params["A"], "A"))]
            boundary = [_parse_matrix(m, d, f"B[{i}]")
                        for i, m in enumerate(_json_list(params["B"], "B"))]
            return Mg1Model(d=d, repeat=repeat, boundary=boundary, tail=_parse_tail(params, d))
    except InputError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: an integer past the float range
        raise InvalidModelFile(f"{path}: {exc!r}") from exc
    raise InvalidModelFile(f"{path}: unknown model kind {kind!r}")
