"""Block-structured conservative q-matrices.

States are (level, phase) pairs with phases 0..d-1 per level, laid out as
state = level*d + phase.  Infinite generators are represented by finitely
described models (banded with eventual level-homogeneity, M/G/1-type, or the
batch-arrival queue whose certificates the bmap module searches); finite
pieces are plain dense arrays wrapped with their block size.

Every model states its band: row k is nonzero only in column 0, in columns
k - lower_hint() .. k + upper_hint(), and, under a geometric tail, beyond
them in closed form.  `BlockGeneratorModel.band` is that rule, and the
window and the truncation fold follow it, so a corner over levels 0..n
costs O(n * band) `block` calls plus one vectorized tail fill per row.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

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

# Tolerance on a row sum that should vanish or a sign that should hold; each
# conservativity check multiplies it by its own scale.
TAU_CONS = 1e-10


def check_block_length(size: int, d: int) -> int:
    """Return the number of levels, raising if size is not a multiple of d."""
    if d < 1:
        raise DimensionMismatch(f"block size must be >= 1, got {d}")
    if size % d != 0:
        raise DimensionMismatch(f"length {size} is not a multiple of block size {d}")
    return size // d


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
        if np.any(self.coef < 0):
            raise InputError("tail coefficient matrix must be nonnegative")

    def sum_from(self, m: int) -> np.ndarray:
        """Sum of D(k) for k >= m, in closed form."""
        return self.coef * (self.ratio ** m / (1.0 - self.ratio))

    def weighted_sum_from(self, m: int) -> np.ndarray:
        """Sum of k*D(k) for k >= m, in closed form."""
        r = self.ratio
        return self.coef * (r ** m * (m - (m - 1) * r) / (1.0 - r) ** 2)

    def power_series_from(self, m: int, z: float) -> np.ndarray:
        """Sum of z**k * D(k) for k >= m; requires z*ratio < 1."""
        x = z * self.ratio
        if x >= 1.0:
            raise TailSumUnavailable(
                f"z={z} is outside the tail's convergence radius 1/{self.ratio}"
            )
        return self.coef * (x ** m / (1.0 - x))


class BlockGeneratorModel:
    """Base for finitely described infinite block generators.

    Subclasses provide exact block and tail-sum accessors; everything here is
    derived from those.  Models are immutable after construction.
    """

    d: int
    kind: str

    def block(self, k: int, l: int) -> np.ndarray:
        raise NotImplementedError

    def tail_sum(self, k: int, l: int) -> np.ndarray:
        """S(k;l) = sum of blocks Q(k;m) over m >= l, exact."""
        raise NotImplementedError

    def homogeneity_level(self) -> int:
        """Level at and beyond which rows follow the eventual law."""
        raise NotImplementedError

    def upper_hint(self) -> int:
        """Finite-support width of the upper band (tail excluded)."""
        raise NotImplementedError

    def lower_hint(self) -> int:
        raise NotImplementedError

    def drift_fit_level(self) -> int:
        """Level from which row sums against a geometric level rule are exactly
        affine-geometric in the level index (used by drift verification)."""
        raise NotImplementedError

    def apply_row(self, k: int, v) -> np.ndarray:
        """Sum of Q(k;l) v(l) over all l, exact even with an analytic tail.

        v must provide level(l) -> (d,) array; geometric tails additionally
        require v.beta, v.u and v.shift for the closed-form remainder.
        """
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

    def bm_check_level(self) -> int:
        return self.homogeneity_level() + self.lower_hint() + self.upper_hint() + 1

    def window(self, n: int) -> FiniteBlockMatrix:
        """Northwest corner over levels 0..n; not conservative in general.

        Row k calls `block` only on column 0 and its band; past the band
        the row is zero or filled from the geometric tail in closed form.
        """
        if n < 0:
            raise InputError(f"window level must be >= 0, got {n}")
        d = self.d
        out = np.zeros(((n + 1) * d, (n + 1) * d))
        blocks = out.reshape(n + 1, d, n + 1, d)
        powers = None
        for k in range(n + 1):
            lo, hi, tail = self.band(k)
            cols = range(lo, min(hi, n) + 1)
            for l in (cols if lo == 0 else (0, *cols)):
                b = self.block(k, l)
                if np.any(b):
                    blocks[k, :, l, :] = b
            if tail is not None and hi < n:
                if powers is None:
                    powers = np.array([tail.ratio ** o for o in range(n + 1)])
                blocks[k, :, hi + 1:, :] = (
                    tail.coef[:, None, :] * powers[hi + 1 - k:n + 1 - k, None]
                )
        return FiniteBlockMatrix(d, out)

    def diag_abs(self, k: int) -> np.ndarray:
        """|q(k,j;k,j)| for each phase j."""
        return np.abs(np.diag(self.block(k, k)))


class BandedModel(BlockGeneratorModel):
    """ExplicitBanded: blocks within [k-L, k+U], level-homogeneous above K_hom."""

    kind = "ExplicitBanded"

    def __init__(self, d: int, L: int, U: int, K_hom: int, rows: dict):
        if K_hom < L:
            raise InputError(
                f"K_hom={K_hom} must be >= L={L} so the homogeneous row clears level 0"
            )
        self.d = d
        self.L = L
        self.U = U
        self.K_hom = K_hom
        self._zero = np.zeros((d, d))
        self._rows = {}
        for k, offsets in rows.items():
            row = {}
            for o, mat in offsets.items():
                mat = np.asarray(mat, dtype=float)
                if mat.shape != (d, d):
                    raise DimensionMismatch(
                        f"block at level {k}, offset {o} has shape {mat.shape}, want {(d, d)}"
                    )
                if not -L <= o <= U:
                    raise InputError(f"offset {o} outside band [-{L}, {U}]")
                row[o] = mat
            self._rows[k] = row
        for k in range(K_hom + 1):
            if k not in self._rows:
                raise InvalidModelFile(f"missing block row for level {k} (K_hom={K_hom})")

    def _row(self, k: int) -> dict:
        return self._rows[min(k, self.K_hom)]

    def block(self, k: int, l: int) -> np.ndarray:
        o = l - k
        if o < -self.L or o > self.U or l < 0:
            return self._zero
        return self._row(k).get(o, self._zero)

    def tail_sum(self, k: int, l: int) -> np.ndarray:
        out = np.zeros((self.d, self.d))
        for m in range(max(l, max(0, k - self.L)), k + self.U + 1):
            out += self.block(k, m)
        return out

    def homogeneity_level(self) -> int:
        return self.K_hom

    def upper_hint(self) -> int:
        return self.U

    def lower_hint(self) -> int:
        return self.L

    def drift_fit_level(self) -> int:
        return max(self.K_hom + self.U + 1, self.L + 1)

    def apply_row(self, k: int, v) -> np.ndarray:
        out = np.zeros(self.d)
        for l in range(max(0, k - self.L), k + self.U + 1):
            out += self.block(k, l) @ v.level(l)
        return out


class Mg1Model(BlockGeneratorModel):
    """Level-independent M/G/1-type generator.

    Boundary row 0 has blocks B(0), B(1), ...; every row k >= 1 has blocks
    A(-1), A(0), A(1), ... starting at column k-1.  An optional geometric tail
    extends the repeating upper blocks.
    """

    kind = "MG1Type"

    def __init__(self, d: int, repeat: list, boundary: list, tail: GeometricTail | None = None):
        self.d = d
        self._zero = np.zeros((d, d))
        self.repeat = tuple(np.asarray(a, dtype=float) for a in repeat)
        self.boundary = tuple(np.asarray(b, dtype=float) for b in boundary)
        if len(self.repeat) < 2:
            raise InvalidModelFile("MG1Type needs at least A(-1) and A(0)")
        for a in self.repeat + self.boundary:
            if a.shape != (d, d):
                raise DimensionMismatch(f"block shape {a.shape}, want {(d, d)}")
        self.tail = tail

    def block(self, k: int, l: int) -> np.ndarray:
        if l < 0:
            return self._zero
        if k == 0:
            if l < len(self.boundary):
                return self.boundary[l]
            return self._zero
        o = l - k
        if o < -1:
            return self._zero
        if o + 1 < len(self.repeat):
            return self.repeat[o + 1]
        if self.tail is not None:
            return self.tail.coef * self.tail.ratio ** o
        return self._zero

    def tail_sum(self, k: int, l: int) -> np.ndarray:
        out = np.zeros((self.d, self.d))
        if k == 0:
            for m in range(l, len(self.boundary)):
                out += self.boundary[m]
            return out
        top = len(self.repeat) - 2
        for o in range(max(l - k, -1), top + 1):
            out += self.repeat[o + 1]
        if self.tail is not None:
            out += self.tail.sum_from(max(l - k, top + 1))
        return out

    def homogeneity_level(self) -> int:
        return 1

    def upper_hint(self) -> int:
        return max(len(self.repeat) - 2, len(self.boundary) - 1)

    def lower_hint(self) -> int:
        return 1

    def row_tail(self, k: int) -> GeometricTail | None:
        return self.tail if k >= 1 else None

    def drift_fit_level(self) -> int:
        return max(2, self.upper_hint() + 2)

    def apply_row(self, k: int, v) -> np.ndarray:
        out = np.zeros(self.d)
        if k == 0:
            for l in range(len(self.boundary)):
                out += self.boundary[l] @ v.level(l)
        else:
            for o in range(-1, len(self.repeat) - 1):
                out += self.repeat[o + 1] @ v.level(k + o)
        if self.tail is not None and k >= 1:
            out += _geometric_tail_row(self.tail, len(self.repeat) - 1, k, v)
        return out


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
    """

    d: int
    D: tuple
    mu: MuRule
    psi: float = 0.0
    tail: GeometricTail | None = None

    kind = "BmapQueue"

    def __post_init__(self):
        self.D = tuple(np.asarray(m, dtype=float) for m in self.D)
        if len(self.D) < 1:
            raise InvalidBmap("need at least D(0)")
        d = self.d
        for i, m in enumerate(self.D):
            if m.shape != (d, d):
                raise InvalidBmap(f"D({i}) has shape {m.shape}, want {(d, d)}")
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
        total = self.phase_sum()
        if not np.all(np.isfinite(total)):
            raise InvalidBmap("D(k) and the tail coefficients must be finite")
        defect = float(np.max(np.abs(total.sum(axis=1))))
        if defect > TAU_CONS * max(1.0, float(np.max(np.abs(total)))):
            raise InvalidBmap(f"sum of D(k) is not conservative (defect {defect:.3e})")
        if not reachable(total > 1e-300).all():
            raise InvalidBmap("phase process generator sum of D(k) is reducible")

    @property
    def k_max(self) -> int:
        return len(self.D) - 1

    @property
    def r_D(self) -> float:
        return math.inf if self.tail is None else 1.0 / self.tail.ratio

    def phase_sum(self) -> np.ndarray:
        """D = sum of all D(k), the phase process generator."""
        return self._dtail(0)

    def dhat(self, z: float) -> np.ndarray:
        """Batch transform sum z^k D(k), exact including the analytic tail."""
        if not 0.0 < z < self.r_D:
            raise InputError(f"z={z} outside (0, {self.r_D})")
        out = sum((z ** k) * m for k, m in enumerate(self.D))
        if self.tail is not None:
            out = out + self.tail.power_series_from(self.k_max + 1, z)
        return out

    def _dblock(self, j: int) -> np.ndarray:
        if j <= self.k_max:
            return self.D[j]
        if self.tail is not None:
            return self.tail.coef * self.tail.ratio ** j
        return self._zero

    def _dtail(self, j: int) -> np.ndarray:
        """Sum of D(m) for m >= j."""
        out = np.zeros((self.d, self.d))
        for m in range(max(j, 0), self.k_max + 1):
            out += self.D[m]
        if self.tail is not None:
            out += self.tail.sum_from(max(j, self.k_max + 1))
        return out

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

    def tail_sum(self, k: int, l: int) -> np.ndarray:
        if k == 0:
            return self._dtail(l)
        if l > k:
            return self._dtail(l - k)
        out = self._dtail(0) - self.psi * self._eye
        if l == 0:
            return out + self.psi * self._eye
        if l == k:
            out -= self.mu(k) * self._eye
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

    def apply_row(self, k: int, v) -> np.ndarray:
        out = np.zeros(self.d)
        if k == 0:
            for j in range(self.k_max + 1):
                out += self.D[j] @ v.level(j)
            if self.tail is not None:
                out += _geometric_tail_row(self.tail, self.k_max + 1, 0, v)
            return out
        out += self.psi * v.level(0)
        out += self.mu(k) * v.level(k - 1)
        out += (self.D[0] - (self.psi + self.mu(k)) * self._eye) @ v.level(k)
        for j in range(1, self.k_max + 1):
            out += self.D[j] @ v.level(k + j)
        if self.tail is not None:
            out += _geometric_tail_row(self.tail, self.k_max + 1, k, v)
        return out


def _geometric_tail_row(tail: GeometricTail, j_from: int, k: int, v) -> np.ndarray:
    """Sum of tail blocks D(j) v(k+j) for j >= j_from, closed form.

    Needs v geometric: v(l) = beta**l * u + shift for l >= 1 (levels k+j here
    are always >= 1 when k + j_from >= 1).
    """
    try:
        beta, u, shift = v.beta, v.u, v.shift
    except AttributeError as exc:
        raise TailSumUnavailable(
            "a geometric D-tail requires a geometric drift rule"
        ) from exc
    x = beta * tail.ratio
    if x >= 1.0:
        raise TailSumUnavailable(
            f"beta={beta} reaches the tail convergence radius 1/{tail.ratio}"
        )
    geom = tail.coef @ u * (beta ** k) * x ** j_from / (1.0 - x)
    const = tail.coef @ np.full_like(u, shift) * tail.ratio ** j_from / (1.0 - tail.ratio)
    return geom + const


def validate_q_matrix(M) -> ValidationReport:
    """Check q-matrix structure and conservativity.

    Accepts a FiniteBlockMatrix, a plain square array, or a model (checked on
    a probe window with conservativity taken from exact tail sums).
    """
    if isinstance(M, BlockGeneratorModel):
        probe = M.bm_check_level()
        win = M.window(probe)
        report = _validate_finite(win.values, conservative_rows=None)
        defect = 0.0
        scale = max(report.row_scale, 1e-300)
        for k in range(probe + 1):
            defect = max(defect, float(np.max(np.abs(M.tail_sum(k, 0).sum(axis=1)))))
        conservative = defect <= TAU_CONS * scale
        messages = list(report.messages)
        if not conservative:
            messages.append(
                f"row sums defect {defect:.3e} exceeds {TAU_CONS * scale:.3e}"
            )
        return ValidationReport(
            ok=not messages,
            conservative=conservative,
            messages=messages,
            max_offdiag_violation=report.max_offdiag_violation,
            max_diag_violation=report.max_diag_violation,
            max_row_defect=defect,
            row_scale=report.row_scale,
        )
    values = M.values if isinstance(M, FiniteBlockMatrix) else np.asarray(M, dtype=float)
    return _validate_finite(values, conservative_rows=True)


def _validate_finite(values: np.ndarray, conservative_rows) -> ValidationReport:
    messages = []
    off = values - np.diag(np.diag(values))
    off_viol = float(max(0.0, -off.min())) if off.size else 0.0
    diag_viol = float(max(0.0, np.max(np.diag(values)))) if values.size else 0.0
    row_scale = float(np.max(np.abs(values).sum(axis=1))) if values.size else 0.0
    tau = TAU_CONS * max(row_scale, 1e-300)
    if off_viol > tau:
        i, j = np.unravel_index(np.argmin(off), off.shape)
        messages.append(f"negative off-diagonal {values[i, j]:.3e} at ({i},{j})")
    if diag_viol > tau:
        i = int(np.argmax(np.diag(values)))
        messages.append(f"positive diagonal {values[i, i]:.3e} at state {i}")
    if not np.all(np.isfinite(values)):
        messages.append("non-finite entries present")
    row_defect = float(np.max(np.abs(values.sum(axis=1)))) if values.size else 0.0
    conservative = row_defect <= tau
    if conservative_rows and not conservative:
        bad = int(np.argmax(np.abs(values.sum(axis=1))))
        messages.append(
            f"row sum {values.sum(axis=1)[bad]:.3e} at state {bad} exceeds tolerance {tau:.3e}"
        )
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


def _parse_matrix(obj, d: int, where: str) -> np.ndarray:
    mat = np.asarray(obj, dtype=float)
    if mat.shape != (d, d):
        raise InvalidModelFile(f"{where}: expected {d}x{d} matrix, got shape {mat.shape}")
    return mat


def _parse_tail(params: dict, d: int) -> GeometricTail | None:
    if "tail" not in params or params["tail"] is None:
        return None
    t = params["tail"]
    return GeometricTail(_parse_matrix(t["coef"], d, "tail.coef"), float(t["ratio"]))


def _parse_mu(obj) -> MuRule:
    if not isinstance(obj, dict) or "table" not in obj:
        raise InvalidModelFile("mu must be an object with a 'table' list")
    return MuRule(
        table=tuple(float(x) for x in obj["table"]),
        eventual=obj.get("eventual", "constant"),
        value=obj.get("value"),
        slope=float(obj.get("slope", 0.0)),
    )


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
        d = int(doc["d"])
        kind = doc["kind"]
        params = doc.get("parameters", {})
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidModelFile(f"{path}: missing or malformed d/kind") from exc
    if d < 1:
        raise InvalidModelFile(f"{path}: d must be >= 1, got {d}")
    try:
        if kind == "BmapQueue":
            D = list(params["D"])
            if "k_max" in params and int(params["k_max"]) != len(D) - 1:
                raise InvalidModelFile(
                    f"k_max={params['k_max']} disagrees with {len(D)} D blocks"
                )
            return BmapQueueModel(
                d=d,
                D=D,
                mu=_parse_mu(params["mu"]),
                psi=float(params.get("psi", 0.0)),
                tail=_parse_tail(params, d),
            )
        if kind == "ExplicitBanded":
            rows: dict = {}
            for entry in params["blocks"]:
                k = int(entry["level"])
                o = int(entry["offset"])
                rows.setdefault(k, {})[o] = _parse_matrix(
                    entry["matrix"], d, f"block level {k} offset {o}"
                )
            return BandedModel(
                d=d,
                L=int(params["L"]),
                U=int(params["U"]),
                K_hom=int(params["K_hom"]),
                rows=rows,
            )
        if kind == "MG1Type":
            repeat = [_parse_matrix(m, d, f"A[{i}]") for i, m in enumerate(params["A"])]
            boundary = [_parse_matrix(m, d, f"B[{i}]") for i, m in enumerate(params["B"])]
            return Mg1Model(d=d, repeat=repeat, boundary=boundary, tail=_parse_tail(params, d))
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidModelFile(f"{path}: {exc!r}") from exc
    raise InvalidModelFile(f"{path}: unknown model kind {kind!r}")
