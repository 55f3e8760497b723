"""Block-augmented northwest-corner truncations.

A truncation keeps the corner of a generator over levels 0..n and folds each
row's excess mass (everything headed above n) back into columns 0..n so the
corner stays a conservative q-matrix.  Folding into column n is the
last-column scheme, into column 0 the first-column scheme; a custom scheme
spreads the excess over chosen target levels with phase preserved.

Rows above n are never materialized for solving: they keep their original
blocks over columns 0..n plus the fold, their diagonal block in place, and
nothing else.  That frozen structure is what virtual_tail_sum and
extended_matrix expose for ordering checks and transience probes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockmat import (
    TAU_CONS,
    BlockGeneratorModel,
    FiniteBlockMatrix,
    reachable,
)
from .errors import InputError, InvalidRedistribution

LAST_COLUMN = "lc"
FIRST_COLUMN = "fc"
CUSTOM = "custom"


@dataclass(frozen=True)
class TruncationSpec:
    """Truncation level, augmentation style, and redistribution weights.

    weights maps target levels (0..n) to fractions of the excess mass; it is
    required for the custom style and ignored otherwise.  weights_by_source
    optionally overrides the shared weights for specific source levels.
    """

    n: int
    style: str = LAST_COLUMN
    weights: dict | None = None
    weights_by_source: dict | None = None

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"truncation level must be >= 1, got {self.n}")
        if self.style not in (LAST_COLUMN, FIRST_COLUMN, CUSTOM):
            raise InputError(f"unknown truncation style {self.style!r}")
        if self.style == CUSTOM:
            if not self.weights and not self.weights_by_source:
                raise InvalidRedistribution("custom truncation needs weights")
            if self.weights:
                _check_weights(self.weights, self.n)
            for k, w in (self.weights_by_source or {}).items():
                _check_weights(w, self.n)

    def weights_for(self, source_level: int) -> dict:
        """Resolved target weights for one source row."""
        if self.style == LAST_COLUMN:
            return {self.n: 1.0}
        if self.style == FIRST_COLUMN:
            return {0: 1.0}
        by_src = self.weights_by_source or {}
        if source_level in by_src:
            return by_src[source_level]
        if self.weights is None:
            raise InvalidRedistribution(
                f"no redistribution weights for source level {source_level}"
            )
        return self.weights


def _check_weights(w: dict, n: int):
    if not w:
        raise InvalidRedistribution("empty weight map")
    total = 0.0
    for level, frac in w.items():
        if not 0 <= int(level) <= n:
            raise InvalidRedistribution(f"target level {level} outside 0..{n}")
        if frac < 0:
            raise InvalidRedistribution(f"negative weight {frac} at level {level}")
        total += frac
    if abs(total - 1.0) > 1e-12:
        raise InvalidRedistribution(f"weights sum to {total}, expected 1")


@dataclass
class TruncatedGenerator:
    """A conservative corner matrix plus the frozen structure above it."""

    base: BlockGeneratorModel
    spec: TruncationSpec
    matrix: FiniteBlockMatrix

    @property
    def d(self) -> int:
        return self.base.d

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

    def virtual_tail_sum(self, k: int, l: int) -> np.ndarray:
        """S(k; l) of the full augmented generator, any row, exact."""
        d = self.d
        n = self.n
        if k <= n:
            if l > n:
                return np.zeros((d, d))
            row = self.matrix.values[k * d:(k + 1) * d]
            return row[:, l * d:].reshape(d, -1, d).sum(axis=1)
        out = np.zeros((d, d))
        if l <= n:
            for m in range(l, n + 1):
                out = out + self.base.block(k, m)
            w = self.spec.weights_for(k)
            frac = sum(fr for lev, fr in w.items() if int(lev) >= l)
            out = out + frac * self.excess(k)
        if l <= k:
            out = out + self.base.block(k, k)
        return out

    def extended_matrix(self, probe: int) -> FiniteBlockMatrix:
        """Materialize levels 0..n+probe of the augmented generator."""
        if probe < 0:
            raise InputError(f"probe must be >= 0, got {probe}")
        d, n = self.d, self.n
        top = n + probe
        out = np.zeros(((top + 1) * d, (top + 1) * d))
        out[: (n + 1) * d, : (n + 1) * d] = self.matrix.values
        for k in range(n + 1, top + 1):
            rows = slice(k * d, (k + 1) * d)
            for l in range(n + 1):
                out[rows, l * d:(l + 1) * d] = self.base.block(k, l)
            e = self.excess(k)
            for lev, frac in self.spec.weights_for(k).items():
                l = int(lev)
                out[rows, l * d:(l + 1) * d] += frac * e
            out[rows, k * d:(k + 1) * d] = self.base.block(k, k)
        return FiniteBlockMatrix(d, out)


def _truncate(M: BlockGeneratorModel, spec: TruncationSpec) -> TruncatedGenerator:
    d = M.d
    n = spec.n
    corner = M.window(n).values
    for k in range(n + 1):
        _lo, hi, tail = M.band(k)
        if hi <= n and tail is None:
            continue
        e = M.tail_sum(k, n + 1)
        if not np.any(e):
            continue
        rows = slice(k * d, (k + 1) * d)
        for lev, frac in spec.weights_for(k).items():
            l = int(lev)
            corner[rows, l * d:(l + 1) * d] += frac * e
    result = FiniteBlockMatrix(d, corner)
    defect = float(np.max(np.abs(corner.sum(axis=1))))
    scale = max(float(np.max(np.abs(corner))), 1.0)
    if defect > TAU_CONS * scale * corner.shape[0]:
        raise InvalidRedistribution(
            f"augmented corner is not conservative (defect {defect:.3e}); "
            "the source model's tail sums are inconsistent"
        )
    return TruncatedGenerator(base=M, spec=spec, matrix=result)


def lc_truncate(M: BlockGeneratorModel, n: int) -> TruncatedGenerator:
    """Fold all mass above level n into column n."""
    return _truncate(M, TruncationSpec(n=n, style=LAST_COLUMN))


def fc_truncate(M: BlockGeneratorModel, n: int) -> TruncatedGenerator:
    """Fold all mass above level n into column 0."""
    return _truncate(M, TruncationSpec(n=n, style=FIRST_COLUMN))


def custom_truncate(M: BlockGeneratorModel, spec: TruncationSpec) -> TruncatedGenerator:
    """Fold mass above level n following the given redistribution weights."""
    if spec.style != CUSTOM:
        raise InvalidRedistribution(f"custom_truncate needs style 'custom', got {spec.style!r}")
    return _truncate(M, spec)


def check_no_closed_classes_above(T: TruncatedGenerator, probe: int | None = None,
                                  tol: float = 1e-12) -> bool:
    """Verify levels above n are all transient in the augmented generator.

    Each frozen diagonal block above n is inspected as a sub-generator on its
    phases: from every phase some leaking phase (row sum strictly below zero,
    meaning rate out of the level) must be reachable through the block's
    positive transitions.  A diagonal block harboring a conservative
    communicating set would be a closed class, so the check returns False.
    """
    base = T.base
    if probe is None:
        probe = base.upper_hint() + 1
    for k in range(T.n + 1, T.n + probe + 1):
        block = base.block(k, k)
        tau = tol * max(1.0, float(np.max(np.abs(block))))
        leak = -block.sum(axis=1) > tau
        if not reachable(block > tau)[:, leak].any(axis=1).all():
            return False
    return True
