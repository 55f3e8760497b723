"""Block-augmented northwest-corner truncations.

A truncation keeps the corner of a generator over levels 0..n and folds each
row's excess mass (everything headed above n) back into columns 0..n so the
corner stays a conservative q-matrix.  Folding into column n is the
last-column scheme, into column 0 the first-column scheme; a custom scheme
spreads the excess over chosen target levels with phase preserved.

Rows above n are never materialized for solving: they keep their original
blocks over columns 0..n plus the fold, their diagonal block in place, and
nothing else.  `TruncatedGenerator` is that augmented generator as a
banded-block model: it supplies `block(k, l)` and the band of each row, and
its tail sums, windows and row products come from `BlockGeneratorModel` like
every other model's, for ordering checks and transience probes alike.  It
also keeps the base's corner layout, its band blocks and each folded
row's cut mass S(k; n+1), so `corner_product` gives x Q for the corner
without reading it, and a solver may overwrite the corner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blockmat import (
    BlockGeneratorModel,
    CornerLayout,
    FiniteBlockMatrix,
    check_level,
    reachable,
    zero_corner,
)
from .errors import DimensionMismatch, InputError, InvalidRedistribution
from .tolerances import LEAK_TOL, TAU_CONS, WEIGHT_SUM_TOL

LAST_COLUMN = "lc"
FIRST_COLUMN = "fc"
CUSTOM = "custom"


def check_truncation_levels(n: int, n_ref: int | None = None):
    """The levels a truncation and its reference may take: integers with
    n >= 1 and, when a reference level is given, n_ref > n; anything else
    raises InputError."""
    check_level(n, "truncation level", 1)
    if n_ref is not None:
        check_level(n_ref, "reference level n_ref", n + 1)


@dataclass(frozen=True)
class TruncationSpec:
    """Truncation level, augmentation style, and redistribution weights.

    weights maps target levels (0..n) to fractions of the excess mass; it is
    required for the custom style and ignored otherwise.
    """

    n: int
    style: str = LAST_COLUMN
    weights: dict | None = None

    def __post_init__(self):
        check_truncation_levels(self.n)
        if self.style not in (LAST_COLUMN, FIRST_COLUMN, CUSTOM):
            raise InputError(f"unknown truncation style {self.style!r}")
        if self.style == CUSTOM:
            if not self.weights:
                raise InvalidRedistribution("custom truncation needs weights")
            _check_weights(self.weights, self.n)

    @property
    def targets(self) -> dict:
        """Target level -> fraction of every row's folded excess."""
        if self.style == LAST_COLUMN:
            return {self.n: 1.0}
        if self.style == FIRST_COLUMN:
            return {0: 1.0}
        return {int(level): frac for level, frac in self.weights.items()}


def _check_weights(w: dict, n: int):
    if not w:
        raise InvalidRedistribution("empty weight map")
    total = 0.0
    for level, frac in w.items():
        check_level(level, "target level", 0, n, InvalidRedistribution)
        if not math.isfinite(frac):
            raise InvalidRedistribution(f"non-finite weight {frac} at level {level}")
        if frac < 0:
            raise InvalidRedistribution(f"negative weight {frac} at level {level}")
        total += frac
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise InvalidRedistribution(f"weights sum to {total}, expected 1")


@dataclass(eq=False)
class TruncatedGenerator(BlockGeneratorModel):
    """The augmented generator: a conservative corner plus the frozen rows above it.

    Row k <= n is the corner's row, over columns 0..n.  Row k > n keeps the
    base's blocks over columns 0..n plus its folded excess, and its own
    diagonal block; so row k lives in columns 0..max(n, k) and has no tail.
    The band hints are the base's, and the homogeneity level is the base's
    pushed past the corner, so the scan depth `bm_check_level()` is
    max(base.bm_check_level(), n + U + 2): beyond it every row is a base row
    shifted along with a constant fold.
    """

    base: BlockGeneratorModel
    spec: TruncationSpec
    matrix: FiniteBlockMatrix
    # the base's layout over levels 0..n, the band blocks at its pairs, and
    # S(k; n+1) of each of its folded rows: what the fold added to the corner
    base_layout: CornerLayout
    band_blocks: np.ndarray
    cut: np.ndarray

    def __post_init__(self):
        self.d = self.base.d
        self._zero = np.zeros((self.d, self.d))

    @property
    def n(self) -> int:
        return self.spec.n

    def excess(self, k: int) -> np.ndarray:
        """Row mass folded back into the corner: everything above level n,
        the frozen diagonal block excluded for rows that keep one."""
        e = self.base.tail_sum(k, self.n + 1)
        if k > self.n:
            e = e - self.base.block(k, k)
        return e

    def corner_product(self, x) -> np.ndarray:
        """x @ matrix for a vector x over levels 0..n, from the base model.

        The window's part is `CornerLayout.product` over the band blocks;
        the fold adds, at each target level, its fraction of the sum over
        folded rows of x(k) S(k; n+1).  It equals x @ matrix.values up to
        rounding and never reads the corner, so it holds also once the
        corner has been overwritten.
        """
        d, n = self.d, self.n
        out = self.base_layout.product(x, self.band_blocks)
        X = np.asarray(x, dtype=float).reshape(n + 1, d)
        folded = np.einsum("ki,kij->j", X[self.base_layout.folded()], self.cut)
        levels = out.reshape(n + 1, d)
        for l, frac in self.spec.targets.items():
            levels[l] += frac * folded
        return out

    def block(self, k: int, l: int) -> np.ndarray:
        n = self.n
        if k <= n:
            return self.matrix.block(k, l) if 0 <= l <= n else self._zero
        if l == k:
            return self.base.block(k, k)
        if not 0 <= l <= n:
            return self._zero
        frac = self.spec.targets.get(l)
        if frac is None:
            return self.base.block(k, l)
        return self.base.block(k, l) + frac * self.excess(k)

    def band(self, k: int) -> tuple[int, int, None]:
        return 0, max(self.n, k), None

    def homogeneity_level(self) -> int:
        return max(self.base.homogeneity_level(), self.n + 1 - self.base.lower_hint())

    def upper_hint(self) -> int:
        return self.base.upper_hint()

    def lower_hint(self) -> int:
        return self.base.lower_hint()

    def extended_matrix(self, probe: int) -> FiniteBlockMatrix:
        """Materialize levels 0..n+probe of the augmented generator."""
        return self.window(self.n + check_level(probe, "probe"))


def _truncate(M: BlockGeneratorModel, spec: TruncationSpec,
              out: np.ndarray | None = None) -> TruncatedGenerator:
    d, n = M.d, spec.n
    # a corner too large to allocate is refused before `layout` walks its levels
    corner = zero_corner(n, d) if out is None else out
    if corner.shape != ((n + 1) * d,) * 2:
        raise DimensionMismatch(f"a corner over levels 0..{n} of {d} phases does not fit "
                                f"an array of shape {corner.shape}")
    layout = M.layout(n)
    M.window(n, layout, out=corner)
    blocks = corner.reshape(n + 1, d, n + 1, d)
    ks, ls = layout.pairs
    # the band blocks `window` wrote, before the fold lands on some of them
    band_blocks = blocks[ks, :, ls, :]
    folded = layout.folded()
    cut = np.array([M.tail_sum(k, n + 1) for k in folded.tolist()]).reshape(-1, d, d)
    # a row whose cut is all zeros is left alone, signed zeros included
    live = cut.any(axis=(1, 2))
    for l, frac in spec.targets.items():
        blocks[folded[live], :, l, :] += frac * cut[live]
    result = FiniteBlockMatrix(d, corner)
    defect = float(np.max(np.abs(corner.sum(axis=1))))
    # the largest |entry|, without a corner-sized |corner| temporary
    scale = max(float(corner.max()), -float(corner.min()), 1.0)
    if defect > TAU_CONS * scale * corner.shape[0]:
        raise InvalidRedistribution(
            f"augmented corner is not conservative (defect {defect:.3e}); "
            "the source model's tail sums are inconsistent"
        )
    return TruncatedGenerator(base=M, spec=spec, matrix=result, base_layout=layout,
                              band_blocks=band_blocks, cut=cut)


def lc_truncate(M: BlockGeneratorModel, n: int, out=None) -> TruncatedGenerator:
    """Fold all mass above level n into column n (into `out`, as `truncation`)."""
    return _truncate(M, TruncationSpec(n=n, style=LAST_COLUMN), out)


def fc_truncate(M: BlockGeneratorModel, n: int, out=None) -> TruncatedGenerator:
    """Fold all mass above level n into column 0 (into `out`, as `truncation`)."""
    return _truncate(M, TruncationSpec(n=n, style=FIRST_COLUMN), out)


def custom_truncate(M: BlockGeneratorModel, spec: TruncationSpec, out=None) -> TruncatedGenerator:
    """Fold mass above level n following the given redistribution weights
    (into `out`, as `truncation`)."""
    if spec.style != CUSTOM:
        raise InvalidRedistribution(f"custom_truncate needs style 'custom', got {spec.style!r}")
    return _truncate(M, spec, out)


def truncation(M: BlockGeneratorModel, spec: TruncationSpec, out=None) -> TruncatedGenerator:
    """The truncation that spec names, by lc_truncate, fc_truncate or custom_truncate.

    The corner is written into `out` when given: a zeroed (n+1)d x (n+1)d
    float64 array or view, such as one slot of a `zero_corners` stack;
    otherwise it gets an array of its own.
    """
    if spec.style == LAST_COLUMN:
        return lc_truncate(M, spec.n, out)
    if spec.style == FIRST_COLUMN:
        return fc_truncate(M, spec.n, out)
    return custom_truncate(M, spec, out)


def check_no_closed_classes_above(T: TruncatedGenerator, probe: int | None = None) -> bool:
    """Verify levels above n are all transient in the augmented generator.

    Each frozen diagonal block above n is inspected as a sub-generator on its
    phases: from every phase some leaking phase (row sum strictly below zero,
    meaning rate out of the level) must be reachable through the block's
    positive transitions.  A diagonal block harboring a conservative
    communicating set would be a closed class, so the check returns False.
    It inspects the levels n+1..n+probe, probe >= 1, one past the base's
    upper band by default.
    """
    base = T.base
    probe = base.upper_hint() + 1 if probe is None else check_level(probe, "probe", 1)
    for k in range(T.n + 1, T.n + probe + 1):
        block = base.block(k, k)
        tau = LEAK_TOL * max(1.0, float(np.max(np.abs(block))))
        leak = -block.sum(axis=1) > tau
        if not reachable(block > tau)[:, leak].any(axis=1).all():
            return False
    return True
