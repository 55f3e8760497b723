"""Numerical engines: stationary vectors, uniformized transition matrices,
and the distances used by the error bounds.

The stationary solver is a subtraction-free state-elimination scheme working
directly on transition rates, so every intermediate quantity stays
nonnegative and the result keeps componentwise relative accuracy; that
matters because bound validation compares total-variation errors down to
1e-10 and below.

Costs follow the fill of the corner, not its size.  States are eliminated
in groups of whole levels.  Each group reads its pattern once and bounds
every pivot's fill from it: the rows from the first one that reaches the
pivot's column or a later pivot's, and, in each run of columns the group's
rows reach, the columns from the first one that the pivot's row or a later
pivot's reaches.  Fill only spreads from a later pivot to an earlier one,
so no pivot's fill leaves its bounds, and every other entry inside them
only gains exact zeros.  The pivot's scale still sums its whole row and the
back-substitution keeps its order, so the result is bit for bit that of a
dense update.  On a banded corner of N states that is O(N * band^2) work,
and O(N^2 * band) under a geometric tail, against O(N^3) dense.

Two paths own their arrays differently.  `stationary(G)` never writes to G:
it eliminates a copy and takes the residual x G from G, so it holds two
N x N arrays.  A truncation's corner is eliminated in place, with the
residual taken from the model.  The truncation callers (the bound
pipeline, the sweep, `bmtrunc solve`) go through `solve_truncations`,
which writes each spec's corner into one slot of a single zeroed stack,
largest first, and eliminates the whole stack in one pass: pivots run
from the largest corner's top state down, the corners larger than the
pivot take part as one leading slice, and each pivot's fill bounds are
the union of theirs, which only adds exact zeros.  Each vector is the one
a lone solve gives, bit for bit, and a lone corner runs the same numpy
calls as a 2-D loop.  A stack of K corners holds K arrays of the largest
one's size, and a pivot's update a temporary as large as its fill; the
sweep packs its corners into stacks of at most half its reference
corner's entries after that corner is freed, so its peak memory is the
reference solve's.  `solve_truncation` is the stack of one.  The decay
check uniformizes from its proxy's corner first and then solves that
corner in place.  Only explicit matrices and the phase law take
`stationary`.

Uniformization propagates a start distribution as vector x matrix
products, O(N^2) per Poisson term, with one sequence of terms for all the
times asked; only `transition_matrix` forms matrix powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds as _bounds
from .blockmat import (
    BlockGeneratorModel,
    FiniteBlockMatrix,
    check_block_length,
    is_level,
    phase_generator,
    zero_corners,
)
from .errors import (
    BmtruncError,
    CertificateNotVerified,
    DimensionMismatch,
    InputError,
    KNotZero,
    MultipleClosedClasses,
    NoConvergence,
)
from .tolerances import PIVOT_FLOOR, POISSON_TAIL, RESIDUAL, WEIGHT_FLOOR
from .truncate import TruncatedGenerator, TruncationSpec, lc_truncate, truncation

# Fewest states per elimination group; a group is made of whole levels.
GROUP_STATES = 64


@dataclass
class DistributionVector:
    """Probability vector over (level, phase) states with provenance."""

    d: int
    values: np.ndarray
    source: str = "full-reference"
    n: int | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.n is None and self.values.size % self.d == 0:
            self.n = self.values.size // self.d - 1


def _square_values(G, d: int | None):
    """G's values and block size; InputError where a rate is NaN or infinite."""
    if isinstance(G, FiniteBlockMatrix):
        values, d = G.values, G.d
    else:
        values, d = np.asarray(G, dtype=float), (1 if d is None else d)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {values.shape}")
        check_block_length(values.shape[0], d)
    if not np.isfinite(values).all():
        raise InputError("the generator has a NaN or infinite rate")
    return values, d


def stationary(G, d: int | None = None, source: str = "full-reference") -> DistributionVector:
    """Stationary distribution of a finite conservative q-matrix.

    G is never written to: the elimination runs on a copy, and the
    residual x G is taken from G itself.  `solve_truncation` is the path
    that owns its corner and overwrites it, one array per solve.

    States are eliminated highest index first.  Elimination folds each
    removed state's rates back into the remaining ones using only additions,
    multiplications and divisions of nonnegative numbers, so no cancellation
    occurs and small stationary probabilities come out with full relative
    accuracy.  States go in groups of d * ceil(GROUP_STATES / d), whole
    levels of d phases (d = 1 for a plain array).  Each group reads its
    pattern once and bounds each pivot's fill: rows from the first one
    that reaches the pivot or a later pivot of the group, and in each run
    of the group's columns, the columns from the first one that the
    pivot's row or a later pivot's row reaches.  Each pivot adds a rank-1
    update inside its bounds, one slice per run.  Every entry the fold can
    change lies inside them, and every other entry there gains an exact
    zero, so the result is the dense update's, to the last bit, at a cost
    proportional to the fill.  A vanishing elimination pivot means the
    state cannot reach the surviving ones, i.e. the chain has more than one
    closed class.
    """
    values, d = _square_values(G, d)
    if values.shape[0] == 0:
        raise DimensionMismatch("a stationary distribution needs at least one state")
    x, diag_scale = _solved(_eliminate(values.copy()[:, None, :], [values.shape[0]], d)[0])
    _check_residual(x @ values, diag_scale)
    return DistributionVector(d=d, values=x, source=source)


def solve_truncation(M: BlockGeneratorModel, spec: TruncationSpec) -> DistributionVector:
    """Stationary distribution of the truncation of M that spec names.

    The corner is built as `truncation(M, spec)` builds it, then eliminated
    in place by the kernel of `stationary`, so the result is that of
    `stationary(truncation(M, spec).matrix)` bit for bit while only one
    corner-sized array is ever held.  The residual x Q is taken from the
    model (`TruncatedGenerator.corner_product`), since the corner is gone
    by then, under the same contract.  It is `solve_truncations` of one spec.
    """
    return solve_truncations(M, [spec])[0]


def solve_truncations(M: BlockGeneratorModel, specs) -> list[DistributionVector]:
    """Stationary distributions of the truncations of M that specs name, in
    their order, each bit for bit what `solve_truncation` returns for it.

    Every corner is written by `truncation` into its own slot of one
    `zero_corners` stack, largest first, and the stack is eliminated in one
    pass; each residual is then checked from the model.  The stack holds
    len(specs) arrays of the largest corner's size.  Where a spec is
    refused, the error raised is the one that solving the specs one by one
    in their order raises first: a truncation that fails leaves the specs
    after it unbuilt, and the eliminations' and residuals' errors are taken
    in spec order before it.  Only a stack too large to allocate is refused
    before any corner is built.
    """
    specs = list(specs)
    if not specs:
        return []
    d = M.d
    slots = sorted(range(len(specs)), key=lambda i: -specs[i].n)
    slot_of = {i: slot for slot, i in enumerate(slots)}
    sizes = [(specs[i].n + 1) * d for i in slots]
    stack = zero_corners(specs[slots[0]].n, d, len(specs))
    truncs, refused = [], None
    for i, spec in enumerate(specs):
        slot, size = slot_of[i], sizes[slot_of[i]]
        try:
            truncs.append(truncation(M, spec, stack[:size, slot, :size]))
        except BmtruncError as exc:
            refused = exc
            stack[:, slot] = 0.0
            break
    results = _eliminate(stack, sizes, d)
    vectors = [_checked(trunc, results[slot_of[i]]) for i, trunc in enumerate(truncs)]
    if refused is not None:
        raise refused
    return vectors


def _solve_in_place(trunc: TruncatedGenerator) -> DistributionVector:
    """Eliminate trunc's corner in place and check the residual x Q from
    the model; the corner's entries are garbage after."""
    values = trunc.matrix.values
    return _checked(trunc, _eliminate(values[:, None, :], [values.shape[0]], trunc.d)[0])


def _solved(result) -> tuple[np.ndarray, float]:
    """A corner's `_eliminate` result: its vector and largest |diagonal|,
    or its refusal, raised."""
    if isinstance(result, MultipleClosedClasses):
        raise result
    return result


def _checked(trunc: TruncatedGenerator, result) -> DistributionVector:
    """trunc's stationary vector from its `_eliminate` result, its residual
    x Q checked from the model."""
    x, diag_scale = _solved(result)
    _check_residual(trunc.corner_product(x), diag_scale)
    return DistributionVector(d=trunc.d, values=x, source=trunc.spec.style)


def _eliminate(S: np.ndarray, sizes: list, d: int) -> list:
    """Group elimination of a stack of q-matrices in place.

    S is (N, K, N): corner k is S[:sizes[k], k, :sizes[k]], zero-padded to
    N = sizes[0], with sizes non-increasing.  Per corner the result is its
    stationary vector and its largest |diagonal|, or the
    MultipleClosedClasses that eliminating it alone raises.  S's entries
    are garbage after.

    Pivots run from state N - 1 down, and at pivot s the corners with more
    than s states take part, as the leading slice S[:, :m].  A group's
    fill bounds are the union of those corners' patterns, which only adds
    exact zeros to each; a lone corner is a 2-D view with a scalar pivot,
    the same numpy calls as a 2-D loop.  A corner whose pivot falls to its
    floor is recorded, zeroed and divided by 1 from there on, so it gains
    only zeros and the others go on.
    """
    N, K = S.shape[0], S.shape[1]
    diag_scale = np.abs(np.diagonal(S, axis1=0, axis2=2)).max(axis=1)
    floors = PIVOT_FLOOR * np.maximum(1.0, diag_scale)
    width = d * -(-GROUP_STATES // d)
    # reach[1 + c] marks column c of the group's rows; the ends stay False
    reach = np.zeros(N + 2, dtype=bool)
    refused = [None] * K
    # m corners take part in the pivot; joined[m] is the size of the next one
    joined = [*sizes, 0]
    m = 0
    for top in range(N, 1, -width):
        g0 = max(top - width, 1)
        # pivots go top - 1 down to g0, and fill only spreads from a later
        # pivot to an earlier one, so the first row, and in each run of
        # columns the first column, that the pivot or a later one reaches
        # bound the pivot's fill (where none does, argmax gives the start);
        # the rest of the update would only add exact zeros
        parts = sum(size > g0 for size in sizes)
        into = S[:top, :parts, top - 1:g0 - 1:-1] != 0.0
        out = S[top - 1:g0 - 1:-1, :parts, :top] != 0.0
        if parts == 1:
            into, out = into[:, 0], out[:, 0]
        else:
            into, out = into.any(axis=1), out.any(axis=1)
        rows = np.minimum.accumulate(into.argmax(axis=0)).tolist()
        np.any(out, axis=0, out=reach[1:top + 1])
        reach[top + 1] = False
        runs = np.flatnonzero(reach[:top + 1] != reach[1:top + 2]).reshape(-1, 2)
        first = np.empty((len(runs), top - g0), dtype=np.intp)
        for j, (c0, c1) in enumerate(runs.tolist()):
            out[:, c0:c1].argmax(axis=1, out=first[j])
        starts = (np.minimum.accumulate(first, axis=1) + runs[:, :1]).T.tolist()
        ends = runs[:, 1].tolist()
        for s, r0, cols in zip(range(top - 1, g0 - 1, -1), rows, starts):
            if joined[m] > s:
                m = sum(size > s for size in sizes)
                a, floor = (S[:, 0], floors[0]) if m == 1 else (S[:, :m], floors[:m])
            scale = np.add.reduce(a[s, ..., :s], -1)
            low = scale <= floor
            # a lone corner's pivot is a scalar, whose test needs no any()
            if low if m == 1 else low.any():
                scale = _refuse(S, scale, low, s, refused)
            piv = a[r0:s, ..., s]
            piv /= scale
            piv = piv[..., None]
            for c0, c1 in zip(cols, ends):
                if c0 >= s:
                    break
                c1 = min(c1, s)
                fill = a[r0:s, ..., c0:c1]
                fill += piv * a[s, ..., c0:c1]
    results = []
    for k, size in enumerate(sizes):
        if refused[k] is not None:
            results.append(refused[k])
            continue
        A = S[:, k]
        x = np.zeros(size)
        x[0] = 1.0
        for s in range(1, size):
            x[s] = x[:s] @ A[:s, s]
        x /= x.sum()
        results.append((x, float(diag_scale[k])))
    return results


def _refuse(S: np.ndarray, scale, low, s: int, refused: list):
    """Record the refusal of each corner whose pivot at state s is at most
    its floor, the first time it happens; zero that corner, so that it only
    gains zeros from here on; and give the scale with 1 in those places."""
    for k in np.flatnonzero(low).tolist():
        if refused[k] is None:
            refused[k] = MultipleClosedClasses(
                f"elimination pivot {float(np.reshape(scale, -1)[k]):.3e} at state {s}: "
                "no path from the top states back down, the chain is reducible"
            )
            S[:, k] = 0.0
    return np.where(low, 1.0, scale)


def _check_residual(xq: np.ndarray, diag_scale: float) -> None:
    """Refuse x whose residual x Q passes RESIDUAL * max(1, max |diag Q|),
    or is NaN."""
    residual = float(np.max(np.abs(xq))) if xq.size else 0.0
    if not residual <= RESIDUAL * max(1.0, diag_scale):
        raise NoConvergence(
            f"stationary residual {residual:.3e} exceeds contract "
            f"{RESIDUAL * max(1.0, diag_scale):.3e}"
        )


def _poisson_weights(lam: float, tol: float) -> np.ndarray:
    """Poisson pmf values 0..M where M is the smallest index with tail < tol.

    A tol finer than the float sum of the pmf can resolve ends the series at
    the first term that no longer adds to the cumulative mass.
    """
    if lam <= 0.0:
        return np.array([1.0])
    if lam <= 700.0:
        weights = [math.exp(-lam)]
        cum = weights[0]
        m = 0
        while cum < 1.0 - tol:
            m += 1
            w = weights[-1] * lam / m
            if cum + w == cum:
                break
            weights.append(w)
            cum += w
        return np.array(weights)
    # large rates: work from log pmf to dodge underflow of the m=0 term
    hi = int(lam + 40.0 * math.sqrt(lam) + 50.0)
    m = np.arange(hi + 1, dtype=float)
    log_lam = math.log(lam)
    logw = -lam + m * log_lam - np.array([math.lgamma(v + 1.0) for v in m])
    w = np.exp(logw)
    cum = np.cumsum(w)
    cut = int(np.searchsorted(cum, 1.0 - tol)) + 1
    return w[:cut]


def transition_matrix(G, t: float, tol: float = POISSON_TAIL) -> FiniteBlockMatrix:
    """P(t) = exp(Gt) by uniformization.

    With sigma the largest diagonal magnitude, A = I + G/sigma is
    substochastic-free of negative entries, and P(t) is the Poisson(sigma*t)
    mixture of its powers; the series is cut when the remaining Poisson mass
    drops below tol, which must lie in [0, 1).
    """
    # written so that a NaN tol fails it
    if not 0.0 <= tol < 1.0:
        raise InputError(f"Poisson tail tolerance must lie in [0, 1), got {tol}")
    values, d = _square_values(G, None)
    return FiniteBlockMatrix(d, _uniformized(values, np.eye(values.shape[0]), [t], tol)[0])


def _check_time(t: float) -> None:
    if not 0.0 <= t < math.inf:
        raise InputError(f"time must be finite and >= 0, got {t}")


def _uniformized(values: np.ndarray, start: np.ndarray, times, tol: float) -> list:
    """start @ exp(values * t) for each t by uniformization, one start row or many.

    I + values/sigma is built once, in place, and one sequence of terms
    start, start A, start A^2, ... serves every time: each time adds the
    terms it needs, with its own Poisson weights, into its own output.
    """
    for t in times:
        _check_time(t)
    N = values.shape[0]
    sigma = float(np.max(np.abs(np.diag(values)))) if N else 1.0
    if sigma <= 0.0:
        sigma = 1.0
    A = values / sigma
    A.flat[::N + 1] += 1.0
    weights = [_poisson_weights(sigma * t, tol) for t in times]
    outs = [np.zeros_like(start) for _ in times]
    term = start
    for i in range(max((w.size for w in weights), default=0)):
        if i > 0:
            term = term @ A
        for w, out in zip(weights, outs):
            if i < w.size and w[i] > 0.0:
                out += w[i] * term
    return outs


def _pad_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = max(a.size, b.size)
    pa = np.zeros(n)
    pb = np.zeros(n)
    pa[: a.size] = a
    pb[: b.size] = b
    return pa, pb


def _flat(x, what: str) -> np.ndarray:
    """The values of x as floats; DimensionMismatch, naming the shape, unless 1-D."""
    values = np.asarray(getattr(x, "values", x), dtype=float)
    if values.ndim != 1:
        raise DimensionMismatch(f"{what} must be 1-D, got shape {values.shape}")
    return values


def tv_distance(a, b) -> float:
    """Total variation distance in the sum convention: values in [0, 2].

    Both are 1-D.  Shorter vectors are zero-padded, which is exactly how
    truncation outputs embed into the full state space.
    """
    da = a.d if isinstance(a, DistributionVector) else None
    db = b.d if isinstance(b, DistributionVector) else None
    if da is not None and db is not None and da != db:
        raise DimensionMismatch(f"block sizes differ: {da} vs {db}")
    pa, pb = _pad_pair(_flat(a, "first vector"), _flat(b, "second vector"))
    return float(np.abs(pa - pb).sum())


def v_norm(x, v) -> float:
    """Weighted absolute sum |x| . v of two vectors; the weight must be
    nonempty, cover x and be >= 1."""
    xv = _flat(x, "signed vector")
    vv = _flat(v, "weight vector")
    if vv.size == 0:
        raise InputError("weight vector is empty")
    if vv.size < xv.size:
        raise DimensionMismatch(
            f"weight vector covers {vv.size} states, signed vector has {xv.size}"
        )
    # written so that a NaN weight fails it
    if not vv.min() >= WEIGHT_FLOOR:
        raise InputError(f"weight vector dips to {vv.min()}, must be >= 1")
    return float(np.abs(xv) @ vv[: xv.size])


@dataclass
class DecayReport:
    """Measured transient deviations against their exponential envelopes."""

    times: list
    measured: list
    limits: list
    eps_trunc: float
    start_level: int
    ok: bool = field(init=False)

    def __post_init__(self):
        self.ok = all(m <= l for m, l in zip(self.measured, self.limits))


def transient_decay_check(model, cert, times, start_level: int = 0,
                          n_ref: int = 200) -> DecayReport:
    """Check the exponential-ergodicity envelope on a finite proxy.

    The chain is started at the given level with phases drawn from the phase
    process's own stationary law, and the weighted deviation from stationarity
    at each time must fit under 2 e^{-ct} (v(start) + b/c), the v(start) term
    dropped at level 0.  Working on the level-n_ref last-column proxy adds a
    truncation slack, reported and added to the envelope rather than ignored.
    The start level must be an integer in 0..n_ref.
    """
    if not cert.verified:
        raise CertificateNotVerified("run drift_check before the decay check")
    if cert.K != 0:
        raise KNotZero("decay envelope needs a level-0 certificate; transform first")
    if not is_level(start_level):
        raise InputError(f"start level must be an integer, got {start_level!r}")
    if not 0 <= start_level <= n_ref:
        raise InputError(f"start level {start_level} outside the proxy's levels 0..{n_ref}")
    for t in times:
        _check_time(t)
    d = model.d
    proxy = lc_truncate(model, n_ref)
    xi = phase_generator(model)
    phase_law = stationary(FiniteBlockMatrix(d, xi)).values
    eps_trunc = _bounds.minimized_bound(cert, model, n_ref)
    v_vec = cert.v.levels(n_ref)
    p0 = np.zeros((n_ref + 1) * d)
    p0[start_level * d:(start_level + 1) * d] = phase_law
    v_start = float(phase_law @ cert.v.level(start_level)) if start_level > 0 else 0.0
    # uniformization reads the corner, then the solve eliminates it in place
    terms = _uniformized(proxy.matrix.values, p0, times, POISSON_TAIL)
    pi_ref = _solve_in_place(proxy)
    measured = [v_norm(pt - pi_ref.values, v_vec) for pt in terms]
    limits = [2.0 * math.exp(-cert.c * t) * (v_start + cert.b / cert.c) + eps_trunc
              for t in times]
    return DecayReport(
        times=list(times),
        measured=measured,
        limits=limits,
        eps_trunc=float(eps_trunc),
        start_level=start_level,
    )
