"""Batch-arrival queue with level-dependent services and disasters.

The input process is a batch Markovian arrival process given by matrices
D(0), D(1), ... (D(0) holds phase transitions without arrivals, D(k) those
accompanied by a batch of size k).  Level k of the queue drains at rate
mu(k), and an optional disaster rate psi flushes the whole queue to level 0.
The queue is `blockmat.BmapQueueModel`, which validates these parameters and
is also the generator every other module reads.  Its docstring proves that
every queue it accepts is block-monotone, so the certificate searches do not
scan for it; `build_generator` still does, for its explicit callers.

Everything a drift certificate needs comes from the transform
Dhat(z) = sum z^k D(k) and its Perron root delta_D(z): the root is 0 at
z = 1 and increasing, and its slope at 1 is the arrival rate.  It need not
be convex in z (a phase cycle closed by arrivals gives sqrt(z) - 1), but it
is convex in t = log z: every entry of I + Dhat(e^t) / shift is a
nonnegative combination of exponentials e^{kt}, hence log-convex, so that
matrix's Perron root 1 + delta_D / shift is log-convex, and delta_D convex,
in t (Kingman, Quart. J. Math. 12, 1961).  The certificate search picks a
geometric base beta inside the transform's radius of convergence to
maximize the certified decay rate.  It scores a fixed grid of 200 bases,
evenly spaced in log beta, in parts of 32 bases of increasing beta, in
array passes: a batched two-sided power iteration over the stacked
transforms gives their Perron data (`_grid_perron`), and the disaster
search reads its offset levels and constants off a table with a row per
base and a column per level (`_offset_table`).  Exact facts let both
searches stop early.  Without disasters, c(beta) = mu_inf (1 - 1/beta) -
delta_D(beta) is concave in log beta, so its grid scores rise to one peak
and fall after it: the search stops after the first part that holds a fall.
With disasters, c'(K), the decay rate past offset level K, is the minimum
of the decay bracket mu(k)(1 - 1/beta) + psi(1 - beta^-k) - delta_D(beta)
over levels K+1 .. max(stable_from, K+1), as the rounded bracket never
falls past the mu table (`_offset_rates`).  It never decreases in K, so a
base has a feasible offset exactly when c'(K_CAP) > 0.  Each bracket is
concave in log beta and 0 at beta = 1, so it is positive on an interval
from 1, and the bases with a feasible offset form a prefix of the grid:
the search stops after the first part whose last base has none.
The grid only picks the best base; a golden-section polish around it and
the winner call the scalar `spectral` (and `_disaster_constants`) at each
point they visit, and the winner's certificate goes through `drift_check`,
once more at the Collatz-Wielandt ratio of its own vector when refuted
(`_verified`).  `_disaster_constants` scans its offset levels on Python
floats over a mu list built once per search: the table's arithmetic,
without a numpy call per window of levels.  `spectral` is a two-sided
power iteration of four numpy calls per step.  Its contract: positive
vectors with min u = 1 and eta . u = 1 whose right and left residuals are
within RESIDUAL max|Dhat(z)|; the iteration's root is their Rayleigh
quotient, so it lies between the Collatz-Wielandt ratios of u.  It stops
at the first step where both residuals meet that contract, and forms the
quotient and the residuals only where bounds on the distances from it to
the next normalizers, free of numpy calls, leave them a chance to pass.  Its
shift, the largest diagonal rate of D(0), is the queue model's
`_perron_shift`, fixed when the model is built and shared with the grid's
batched iteration.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import bounds as _bounds
from .blockmat import BmapQueueModel, FiniteBlockMatrix
from .bounds import BoundReport, DriftCertificate, GeometricVector
from .errors import (
    DegenerateArrivals,
    DriftViolated,
    InputError,
    InvalidBmap,
    NoConvergence,
    NoFeasibleK,
    NoPositiveC,
)
from .order import generator_is_block_monotone
from .solve import solve_truncations, stationary, tv_distance
from .tolerances import RESIDUAL, SCALE_FLOOR, THETA_AGREEMENT
from .truncate import TruncationSpec, check_truncation_levels

BETA_CAP = 64.0
GRID_POINTS = 200
GOLDEN_ITERS = 30
K_CAP = 200
# Bases per part of the grid search, at every d.  Both searches stop after a
# part, so smaller parts skip more bases, but each part pays the power
# iteration's per-step calls again, whatever its size.
GRID_PART = 32
# Power steps before spectral, or the grid's batched iteration, hands over to
# the dense eigensolver; no spectral call of the benchmark workloads takes
# more than 43.
POWER_ITERS = 100
# Below this many phases one dense eigensolve of a part's stack gives the
# grid's Perron data sooner than the batched power iteration, each of whose
# steps is a dozen calls on small arrays.  Per part of 32 bases on one core
# of an Intel Xeon, eigensolve against iteration: 0.5-0.7 against 0.8-0.95
# ms at d = 8, 1.9 against 1.1-1.2 ms at d = 16 and 4.5 against 1.0-1.3 ms
# at d = 24 (the benchmark's queues, seed 3); between, at d = 10 and 12,
# the two are within 20 % of each other and the iteration's step count
# decides.
DENSE_GRID_D = 16
_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# spectral's reductions, called without the ndarray method's Python layer
_max = np.maximum.reduce
_min = np.minimum.reduce
_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2.0


# The queue model validates its parameters on construction; this name is kept
# for the callers that build queues as bmap.BmapModel.
BmapModel = BmapQueueModel


def build_generator(B: BmapModel) -> BmapQueueModel:
    """Confirm the queue generator's block monotonicity and return it.

    Every queue `BmapQueueModel` accepts passes; the scan is for callers
    that want it shown.
    """
    report = generator_is_block_monotone(B)
    if not report.holds:
        raise InvalidBmap(
            f"queue generator fails block monotonicity at {report.worst_violation}"
        )
    return B


def arrival_rate(B: BmapModel) -> float:
    """Mean arrivals per unit time: eta . (sum k D(k)) e."""
    eta = stationary(FiniteBlockMatrix(B.d, B.phase_sum())).values
    weighted = np.zeros((B.d, B.d))
    for k, m in enumerate(B.D[1:], start=1):
        weighted = weighted + k * m
    if B.tail is not None:
        weighted = weighted + B.tail.weighted_sum_from(B.k_max + 1)
    lam = float(eta @ weighted @ np.ones(B.d))
    if lam <= 0.0:
        raise DegenerateArrivals("arrival rate is zero: no batches ever arrive")
    return lam


@dataclass
class SpectralRecord:
    """Perron data of the batch transform at one evaluation point."""

    z: float
    eigenvalue: float
    right: np.ndarray
    left: np.ndarray
    residual: float
    iterations: int


def spectral(B: BmapModel, z: float) -> SpectralRecord:
    """Perron root and eigenvectors of Dhat(z).

    Shifts by the largest diagonal rate of D(0) (the queue's
    `_perron_shift`, fixed at construction) so the iteration matrix
    E = I + Dhat(z) / shift is nonnegative, then runs power iteration on
    both sides at once, reading the root off the two-sided Rayleigh
    quotient r.  A step is four numpy calls on (2, d) buffers with rows x
    and y: the products E x and E^T y, their maxima mx and my (read as
    floats) and one normalization.  The contract: u > 0 with min u = 1,
    eta > 0 with eta . u = 1, both residuals max |Dhat x - val x| and
    max |y Dhat - val y| within RESIDUAL max|Dhat| for x and y scaled to
    maximum 1, and `residual` the larger of the two over max|Dhat|.  The
    root is the Rayleigh quotient, a weighted mean of the ratios
    (Dhat u)_i / u_i, so it lies between them (Collatz-Wielandt) and within
    RESIDUAL max|Dhat| max u / min u of the Perron root.

    The iteration stops at the first step where both residuals meet the
    contract; no other rule stops it.  They are evaluated, and r formed,
    only where they can pass.  For x >= 0 with max x = 1 and r >= 0,
    max_i |(Ex)_i - r x_i| >= |mx - r| (compare at the argmax of Ex when
    mx >= r, at that of x otherwise), and shift (Ex - r x) = Dhat x - val x
    with val = (r - 1) shift; likewise on the left.  Past bar, the contract
    plus `_rounding_margin`'s gamma (base + |val|), such a bound fails its
    residual, and neither residual is evaluated.  Both pass only if
    shift |mx - my| <= 2 bar; then |val| <= shift |mx - 1| + bar, so
    bar <= C / (1 - gamma), C = limit + gamma (base + shift |mx - 1|), and
    past 2 (1 + gamma)^2 / (1 - gamma) C, r is not formed: (1 + gamma)^2 >
    1 + 20u covers the rounding of both bounds, of val and of this test.
    The stop step is the one that evaluating both at every step would give.

    |Dhat| is never formed: max |Dhat| = max(max Dhat, -min Dhat), and d
    times it bounds the row and column sums in `_rounding_margin`.  At d = 1
    the transform's one entry is the root.  If no step has met the contract
    after POWER_ITERS steps, `_dense_perron` of Dhat(z) and of its
    transpose gives the pair, which meets the same residual contract with x
    and y of unit 2-norm.  The right vector is scaled to minimum component 1
    and the left one to unit inner product against it.  The certificate
    search calls this at the points its golden-section polish visits and at
    its winner; from DENSE_GRID_D phases on, its grid runs the same
    iteration batched, in `_power_perron`.
    """
    dh = B.dhat(z)
    d = B.d
    if d == 1:
        val = float(dh[0, 0])
        return SpectralRecord(z=z, eigenvalue=val, right=np.ones(1), left=np.ones(1),
                              residual=0.0, iterations=0)
    norm = max(float(_max(dh, axis=None)), -float(_min(dh, axis=None)), SCALE_FLOOR)
    shift = B._perron_shift
    limit = RESIDUAL * norm
    gamma, base = _rounding_margin(d, norm, shift, limit)
    E = B._eye + dh / shift
    ET = E.T
    dot, divide = np.dot, np.divide
    # x, y: the rows of one buffer; E x, E^T y: the other's; m: their maxima
    now, nxt, m = np.ones((2, d)), np.empty((2, d)), np.empty((2, 1))
    now, nxt = (now, *now), (nxt, *nxt)
    apart = 2.0 * (1.0 + gamma) ** 2 / (1.0 - gamma)
    iterations = 0
    while True:
        _, x, y = now
        dot(E, x, out=nxt[1])
        dot(ET, y, out=nxt[2])
        _max(nxt[0], axis=1, keepdims=True, out=m)
        (mx,), (my,) = m.tolist()
        # past the first product, where both free bounds can pass the bar
        if iterations and shift * abs(mx - my) <= apart * (
                limit + gamma * (base + shift * abs(mx - 1.0))):
            r = _quotient(x, y, nxt[1])
            val = (r - 1.0) * shift
            bar = limit + gamma * (base + abs(val))
            if shift * abs(mx - r) <= bar and shift * abs(my - r) <= bar:
                # the left residual only counts once the right one passes
                res_r = _residual(dh @ x, val, x)
                if res_r <= limit:
                    res_l = _residual(y @ dh, val, y)
                    if res_l <= limit:
                        break
        iterations += 1
        if iterations > POWER_ITERS:
            # E's second eigenvalue is close to +-1 in modulus, as under
            # stiff phase rates: the dense eigensolver takes over
            val, x = _dense_perron(dh)
            val = float(val)
            y = _dense_perron(dh.T)[1]
            res_r = _residual(dh @ x, val, x)
            res_l = _residual(y @ dh, val, y)
            if max(res_r, res_l) > limit:
                raise NoConvergence(
                    f"no Perron pair at z={z}; is the phase process reducible?"
                )
            break
        # E is nonnegative and irreducible, so iterates from positive starts stay positive
        divide(nxt[0], m, out=nxt[0])
        now, nxt = nxt, now
    u = x / float(_min(x))
    eta = y / float(y @ u)
    return SpectralRecord(
        z=z,
        eigenvalue=val,
        right=u,
        left=eta,
        residual=max(res_r, res_l) / norm,
        iterations=iterations,
    )


def _quotient(x: np.ndarray, y: np.ndarray, Ex: np.ndarray) -> float:
    """y . Ex / y . x: the two-sided Rayleigh quotient of E at (x, y)."""
    return float(np.dot(y, Ex)) / float(np.dot(y, x))


def _residual(product: np.ndarray, val: float, v: np.ndarray) -> float:
    """max |product - val v|: a Perron residual, Dhat x - val x or y Dhat - val y."""
    return float(_max(np.abs(product - val * v)))


def _rounding_margin(d: int, norm: float, shift: float, limit: float) -> tuple[float, float]:
    """(gamma, base): gamma (base + |val|) is the rounding margin of `spectral`'s skip.

    `d` is the phase count, `norm` at least max |Dhat| and `limit` the
    residual contract.  With unit roundoff u, g_n = n u / (1 - n u)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1),
    S the largest row or column sum of |Dhat|, at most d norm, and x, y
    scaled to maximum 1, the computed bound shift |max(Ex) - r|
    exceeds the exact one, that of I + Dhat / shift at the exact
    1 + val / shift, by at most g_{d+1} shift + g_{d+2} S (the rounding of E
    and of its d-term products) plus g_4 |val| (the rounding of val, counted
    twice to cover an exact 1 + val / shift below 0, where the lemma does
    not apply).  The computed residual falls short of the exact one by at
    most g_d S + u |val|, and the skip test's own products and sums lose a
    relative 4u of the contract.  For d >= 2 all of it is below
    g_{d+3} (shift + 2 d norm + |val| + limit); gamma is twice g_{d+3}, so
    the margin also covers the rounding of its own evaluation.  A larger
    margin only lets the contract decide at more steps.
    """
    unit = (d + 3) * _UNIT_ROUNDOFF
    gamma = 2.0 * unit / (1.0 - unit)
    return gamma, shift + 2.0 * d * norm + limit


def _dense_perron(dh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Perron roots and right Perron vectors of irreducible Metzler matrices.

    `dh` is one matrix or a stack of them, shape (..., d, d), and a single
    dense eigendecomposition covers the whole stack.  Per matrix, the root
    is the eigenvalue of largest real part and the vector the absolute value
    of its right eigenvector, unnormalized; the left vector is the right one
    of the transpose.  A matrix's values do not depend on the stack it is
    in.  `spectral` and `_power_perron` call it for the points their power
    iteration leaves unconverged after POWER_ITERS steps, and `_grid_perron`
    for a part of the grid below DENSE_GRID_D phases.
    """
    vals, vecs = np.linalg.eig(dh)
    i = np.argmax(vals.real, axis=-1)[..., None]
    roots = np.take_along_axis(vals.real, i, axis=-1)[..., 0]
    right = np.take_along_axis(vecs.real, i[..., None], axis=-1)[..., 0]
    return roots, np.abs(right)


def _grid_perron(B: BmapModel, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Perron roots delta_D(z) and spreads max u / min u over a grid of bases.

    One call on the stacked transforms: `_dense_perron` below DENSE_GRID_D
    phases, `_power_perron` from there on.  The search hands it one part of
    GRID_PART bases at a time.  A base's values do not depend on the bases
    it shares the call with, and agree with `spectral` to rounding.
    """
    if B.d == 1:
        return B.dhat(grid)[:, 0, 0], np.ones(grid.size)
    if B.d < DENSE_GRID_D:
        roots, right = _dense_perron(B.dhat(grid))
        return roots, right.max(axis=1) / right.min(axis=1)
    return _power_perron(B.dhat(grid), B._perron_shift)


def _power_perron(dh: np.ndarray, shift: float) -> tuple[np.ndarray, np.ndarray]:
    """Perron roots and spreads max u / min u of a stack of transforms.

    The two-sided power iteration of `spectral` on each matrix of the
    stack, with its shift and its residual contract as the only stop rule.
    At each step the right residual of every pending base is read off E x,
    which the step has already formed, and the left one is formed only for
    the bases whose right one passes, in the order `spectral` uses; a base
    that passes both keeps that step's values, so its values do not depend
    on the stack it is in.  The bases left after POWER_ITERS steps go to
    one `_dense_perron` call.
    """
    m, d = dh.shape[:2]
    roots = np.empty(m)
    spread = np.empty(m)
    # max|Dhat| per matrix, from its extremes as `spectral` reads it
    norm = np.maximum(dh.max(axis=(1, 2)), -dh.min(axis=(1, 2)))
    limit = RESIDUAL * np.maximum(norm, SCALE_FLOOR)
    # [x, y] times [E, E^T] in one product per step, E = I + Dhat / shift
    # built in place; iterates of the nonnegative, irreducible E stay positive
    M = np.empty((2, m, d, d))
    np.divide(dh, shift, out=M[0])
    M[0] += np.eye(d)
    M[1] = M[0].transpose(0, 2, 1)
    V = np.stack([M[0] @ np.ones(d), np.ones((m, d))])
    V[0] /= V[0].max(axis=1, keepdims=True)
    pending = np.ones(m, dtype=bool)
    for _ in range(POWER_ITERS):
        W = (M @ V[..., None])[..., 0]
        x = V[0]
        V = W / W.max(axis=2, keepdims=True)
        r = np.einsum("md,md->m", V[1], W[0]) / np.einsum("md,md->m", V[1], x)
        # Dhat = shift (E - I), so Dhat x - delta x = shift (E x - r x), and
        # E x is W[0]; the left residual only counts once the right one passes
        res = shift * np.abs(W[0] - r[:, None] * x).max(axis=1)
        right = np.flatnonzero(pending & (res <= limit))
        if not right.size:
            continue
        y = V[1, right]
        res = shift * np.abs((M[1, right] @ y[..., None])[..., 0] - r[right, None] * y).max(axis=1)
        ok = right[res <= limit[right]]
        roots[ok] = (r[ok] - 1.0) * shift
        spread[ok] = (x[ok] / x[ok].min(axis=1, keepdims=True)).max(axis=1)
        pending[ok] = False
        if not pending.any():
            return roots, spread
    # E's second eigenvalue is close to +-1 in modulus at these bases
    roots[pending], right = _dense_perron(dh[pending])
    spread[pending] = right.max(axis=1) / right.min(axis=1)
    return roots, spread


def delta_D(B: BmapModel, z: float) -> float:
    return spectral(B, z).eigenvalue


def _beta_grid(B: BmapModel) -> np.ndarray:
    """GRID_POINTS bases from 1 + 1e-6 up to min(0.999 r_D, BETA_CAP), increasing.

    A transform that converges only up to r_D <= (1 + 1e-6) / 0.999 leaves
    no room for the grid: the search's own error (NoPositiveC without
    disasters, NoFeasibleK with them) refuses it before a base below 1 is
    ever scored.
    """
    lo, hi = 1.0 + 1e-6, min(0.999 * B.r_D, BETA_CAP)
    if not hi > lo:
        error = NoPositiveC if B.psi == 0.0 else NoFeasibleK
        raise error(
            f"no geometric base fits between 1 and the batch transform's radius "
            f"of convergence r_D = {B.r_D:.9g}: the search needs 0.999 r_D > 1 + 1e-6"
        )
    return np.geomspace(lo, hi, GRID_POINTS)


def _golden_max(f, lo: float, hi: float):
    """Golden-section maximization; returns (argmax, max)."""
    a, b = lo, hi
    c1 = b - _PHI * (b - a)
    c2 = a + _PHI * (b - a)
    f1, f2 = f(c1), f(c2)
    for _ in range(GOLDEN_ITERS):
        if f1 >= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - _PHI * (b - a)
            f1 = f(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + _PHI * (b - a)
            f2 = f(c2)
    return ((a + b) / 2.0, max(f1, f2))


def _grid_scores(B: BmapModel, grid: np.ndarray, grid_objective, stop) -> np.ndarray:
    """grid_objective(betas, delta_D, max u / min u) over the grid, part by
    part in increasing beta, up to the first part after which
    stop(scores) holds; the bases past that part are left at -inf,
    unscored.

    A part holds GRID_PART bases and gets its Perron data from one
    `_grid_perron` call.  `scores` runs from the base before the part (the
    part's own first base for the first part) to the part's end.
    """
    values = np.full(grid.size, -math.inf)
    for start in range(0, grid.size, GRID_PART):
        part = slice(start, start + GRID_PART)
        values[part] = grid_objective(grid[part], *_grid_perron(B, grid[part]))
        if stop(values[max(start - 1, 0):part.stop]):
            break
    return values


def _best_beta(B: BmapModel, objective, grid_objective, stop) -> float:
    """The grid base of largest objective, polished by golden section.

    `_grid_scores` scores the grid part by part with grid_objective, from
    `_grid_perron` data, until the search's stop rule holds; the polish
    calls objective(beta), which takes them from `spectral`.  The grid
    scores agree with objective to rounding and only pick the bracket.
    Raises NoFeasibleK when no grid base has a finite objective.
    """
    grid = _beta_grid(B)
    values = _grid_scores(B, grid, grid_objective, stop)
    i = int(np.argmax(values))
    if not np.isfinite(values[i]):
        raise NoFeasibleK(
            f"no offset level up to {K_CAP} yields a positive decay "
            "bracket for any geometric base"
        )
    beta, _ = _golden_max(objective, grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)])
    return beta


def find_beta_no_disaster(B: BmapModel, beta: float | None = None) -> DriftCertificate:
    """Certificate for the disaster-free queue.

    The certified rate is c(beta) = (inf_k mu(k))(1 - 1/beta) - delta_D(beta),
    positive for some beta > 1 exactly when the service floor exceeds the
    arrival rate; beta is chosen to maximize it.  The weight profile is the
    Perron vector u(beta), and b = (c + delta_D(beta)) max_j u(beta, j) covers
    the level-0 row.
    """
    if B.psi != 0.0:
        raise InputError("disaster-free search requires psi = 0")
    mu_inf = B.mu.infimum()

    def c_of(beta_val: float) -> float:
        return mu_inf * (1.0 - 1.0 / beta_val) - delta_D(B, beta_val)

    def c_of_grid(grid, roots, _spread):
        return mu_inf * (1.0 - 1.0 / grid) - roots

    def past_peak(scores):
        # c is concave in log beta, and the grid is evenly spaced in it:
        # after its first fall it only falls
        return bool((np.diff(scores) < 0.0).any())

    def constants(rec: SpectralRecord):
        c = mu_inf * (1.0 - 1.0 / beta) - rec.eigenvalue
        return c, (c + rec.eigenvalue) * float(rec.right.max()), 0

    given = beta is not None
    if not given:
        beta = _best_beta(B, c_of, c_of_grid, past_peak)
    rec = spectral(B, beta)
    found = constants(rec)
    c = found[0]
    if c <= 0.0:
        if given:
            raise NoPositiveC(f"geometric base beta={beta} certifies no decay: "
                              f"c(beta) = {c:.6g} <= 0")
        lam = arrival_rate(B)
        raise NoPositiveC(
            f"no geometric base certifies decay: service floor {mu_inf} vs "
            f"arrival rate {lam:.6g} leaves c(beta) <= 0 everywhere"
        )
    return _verified(B, rec, found, constants)


def _verified(B: BmapModel, rec: SpectralRecord, found, constants) -> DriftCertificate:
    """drift_check of the certificate (c, b, K) = found = constants(rec) on
    the weight beta^k u that rec's point and right vector give.

    rec's root may sit below the Collatz-Wielandt ratio
    max_i (Dhat(beta) u)_i / u_i of its own u by as much as `spectral`'s
    residual contract allows, and a row's slack by that gap times beta^k u.
    The ratio bounds the Perron root from above for any positive u
    (Collatz 1942, Wielandt 1950), so when the check refutes the
    certificate, the constants are taken once more with the ratio as the
    root, and every row the weight's Perron part carries then holds up to
    the rounding of its own terms.  Constants that form no certificate
    there (None, or c <= 0) leave the refutation standing.
    """
    v = GeometricVector(beta=rec.z, u=rec.right)
    try:
        return _bounds.drift_check(B, v, *found)
    except DriftViolated:
        ratio = float(_max(B.dhat(rec.z) @ rec.right / rec.right))
        retry = constants(replace(rec, eigenvalue=ratio))
        if retry is None or not retry[0] > 0.0:
            raise
        return _bounds.drift_check(B, v, *retry)


def _mu_levels(B: BmapModel) -> np.ndarray:
    """mu(0), mu(1), ... through the deepest level c'(K_CAP) reads."""
    return B.mu.at(np.arange(max(B.mu.stable_from, K_CAP + 1) + 1))


def _disaster_constants(B: BmapModel, beta: float, mus: list,
                        rec: SpectralRecord | None = None):
    """Smallest feasible offset level and its constants at one beta.

    The decay bracket mu(k)(1 - 1/beta) + psi(1 - beta^-k) - delta_D(beta) is
    evaluated once per level k, on Python floats: the IEEE operations, in
    the order, of the table's array expression, and beta^-k by the scalar
    pow.  c'(K), its infimum over k > K, is the minimum over levels
    K+1 .. max(stable_from, K+1), since from stable_from on the rounded
    bracket never falls (see `_offset_rates`).  For K < stable_from that is
    a suffix minimum of levels 1 .. stable_from, which are evaluated first;
    from there on it is the bracket at K+1, which grows one level at a time
    until a K is feasible or K_CAP is passed.  `mus` is `_mu_levels(B)` as a
    list, built once per search, and rec, `spectral(B, beta)` unless given,
    supplies delta_D(beta) and u(beta).  Returns (K, c', b', rec) or None
    when no K up to the cap makes the bracket positive.  b' is inf when
    beta^K passes the float range.
    """
    if rec is None:
        rec = spectral(B, beta)
    beta = float(beta)
    delta, u_max = rec.eigenvalue, float(_max(rec.right))
    psi, slope = B.psi, 1.0 - 1.0 / beta
    stable = B.mu.stable_from
    decay, bracket = [], []

    def extend(top: int) -> None:  # the bracket through level top
        for k in range(len(bracket), top + 1):
            decay.append(beta ** (-k))
            bracket.append(mus[k] * slope + psi * (1.0 - decay[k]) - delta)

    extend(stable)
    # suffix[K] is the minimum over levels K+1 .. stable_from
    suffix = list(itertools.accumulate(reversed(bracket[1:]), min))[::-1]
    for K in range(K_CAP + 1):
        if K < stable:
            c_prime = suffix[K]
        else:
            extend(K + 1)
            c_prime = bracket[K + 1]
        if c_prime > 0.0:
            break
    else:
        return None
    try:
        math.pow(beta, K)
    except OverflowError:
        # no float b' exists; the search's objective c'/(1 + b'/psi) reads 0
        return K, c_prime, math.inf, rec
    # a Python float: the search's c'/(1 + b'/psi) then reads 0, without a
    # float warning, where b'/psi passes the float range
    b_prime = max(
        (c_prime + delta - mus[k] * slope - psi * (1.0 - decay[k])) * beta ** k
        for k in range(K + 1)
    ) * u_max
    return K, c_prime, b_prime, rec


def _offset_rates(bracket: np.ndarray) -> np.ndarray:
    """c'(K) from the decay bracket over levels 0 .. at least stable_from,
    along the last axis, for K = 0 .. K_CAP or as far as the levels reach.

    c'(K), the minimum over levels K+1 .. max(stable_from, K+1), is one
    reversed running minimum over the window: from stable_from on mu(k) is
    constant or affine with slope >= 0, consecutive beta^-k differ by the
    factor beta, at least 1 + 1e-6 on the grid and far above the pow's
    rounding, and each rounded operation of the bracket is monotone, so the
    rounded bracket never falls there.
    """
    return np.minimum.accumulate(bracket[..., :0:-1], axis=-1)[..., ::-1][..., :K_CAP + 1]


def _offset_table(B: BmapModel, betas: np.ndarray, deltas: np.ndarray,
                  spreads: np.ndarray, mus: np.ndarray):
    """`_disaster_constants` at many bases at once, from their Perron data.

    `deltas` and `spreads` are delta_D and max u / min u at each base.  The
    table has a row per base and a column per level of the cap's window,
    the levels of `mus`.  Returns the arrays (K, c', b'), with K = -1 where
    no offset level up to the cap is feasible (c' and b' are then
    meaningless) and b' = inf where beta^K passes the float range.  A row's
    values do not depend on the bases it shares a table with, and agree
    with the scalar scan to rounding.
    """
    beta = betas[:, None]
    levels = np.arange(mus.size)
    bracket = mus * (1.0 - 1.0 / beta) + B.psi * (1.0 - beta ** -levels) - deltas[:, None]
    c_of_K = _offset_rates(bracket)
    feasible = c_of_K > 0.0
    K = np.where(feasible.any(axis=1), feasible.argmax(axis=1), -1)
    c_prime = np.take_along_axis(c_of_K, np.maximum(K, 0)[:, None], axis=1)
    with np.errstate(over="ignore"):
        # beta^k for k <= K is finite on a row exactly when beta^K is
        overflow = np.isinf(betas ** K)
        top = np.where(overflow, 0, np.maximum(K, 0))[:, None]
        cols = levels[:top.max() + 1]
        terms = (c_prime - bracket[:, cols]) * beta ** np.minimum(cols, top)
        terms[cols > top] = -math.inf
        b_prime = np.where(overflow, math.inf, terms.max(axis=1) * spreads)
    return K, c_prime[:, 0], b_prime


def _offset_scores(B: BmapModel, K: np.ndarray, c_prime: np.ndarray,
                   b_prime: np.ndarray) -> np.ndarray:
    """The disaster search's objective on `_offset_table` rows: c' at K = 0,
    c'/(1 + b'/psi) above it (0 when b' overflows) and -inf where no K is
    feasible."""
    with np.errstate(over="ignore"):
        scores = np.where(K == 0, c_prime, c_prime / (1.0 + b_prime / B.psi))
    return np.where(K < 0, -math.inf, scores)


def find_constants_disaster(B: BmapModel, beta: float | None = None) -> DriftCertificate:
    """Certificate for the disaster queue, offset allowed through level K.

    Disasters add psi(1 - beta^{-k}) to the decay bracket, so even a queue
    with no service can be geometrically ergodic; K is the first level from
    which the bracket stays positive.  Among grid betas the winner maximizes
    the decay rate that survives the conversion to level-0 form.
    """
    if B.psi <= 0.0:
        raise InputError("disaster search requires psi > 0")
    mus = _mu_levels(B)
    mu_list = mus.tolist()

    def objective(beta_val: float) -> float:
        found = _disaster_constants(B, beta_val, mu_list)
        if found is None:
            return -math.inf
        K, c_prime, b_prime, _ = found
        if K == 0:
            return c_prime
        return c_prime / (1.0 + b_prime / B.psi)

    def grid_objective(grid, roots, spread):
        return _offset_scores(B, *_offset_table(B, grid, roots, spread, mus))

    def past_feasible(scores):
        # the bases with a feasible offset form a prefix of the grid; the
        # objective is not unimodal, so the peak rule does not apply
        return scores[-1] == -math.inf

    def constants(rec: SpectralRecord):
        found = _disaster_constants(B, beta, mu_list, rec)
        return None if found is None else (found[1], found[2], found[0])

    if beta is None:
        beta = _best_beta(B, objective, grid_objective, past_feasible)
    rec = spectral(B, beta)
    found = constants(rec)
    if found is None:
        raise NoFeasibleK(f"no offset level up to {K_CAP} works at beta={beta}")
    return _verified(B, rec, found, constants)


def _closed_form_theta(B: BmapModel, cert: DriftCertificate, n: int,
                       shift: float | None = None) -> float:
    """The application's printed minimizer, for cross-checking.

    theta = -log(beta^{-n}/(2c) * sum_j (psi + mu(n) + |D_jj(0)|)/(u_j + shift beta^{-n})),
    the weight's shift being the one a converted certificate carries unless
    `shift` overrides it.
    """
    beta = cert.v.beta
    u = cert.v.u
    shift = cert.v.shift if shift is None else shift
    num = B.psi + B.mu(n) + np.abs(np.diag(B.D[0]))
    s = float(np.sum(num / (u + shift * beta ** (-n)))) * beta ** (-n)
    if s <= 0.0:
        return math.inf
    return max(-math.log(s / (2.0 * cert.c)), 0.0)


def _level0_certificate(B: BmapModel, beta: float | None = None) -> DriftCertificate:
    """The certificate route shared by bound_pipeline and the CLI sweep.

    Picks the search by the disaster rate, and converts a level-K
    certificate to level-0 form.  A given beta must lie in (1, r_D).  The
    queue is block-monotone by construction (`BmapQueueModel`), so neither
    search scans it.
    """
    if beta is not None and not 1.0 < beta < B.r_D:
        raise InputError(f"geometric base beta={beta} must lie in (1, {B.r_D:g})")
    if B.psi == 0.0:
        cert = find_beta_no_disaster(B, beta=beta)
    else:
        cert = find_constants_disaster(B, beta=beta)
    return _bounds.corollary_transform(cert, B)


def bound_pipeline(B: BmapModel, n_range, beta: float | None = None,
                   n_ref: int | None = None) -> list[BoundReport]:
    """End-to-end bounds for a sweep of truncation levels.

    Picks the certificate route by the disaster rate, converts a level-K
    certificate to level-0 form when needed, and evaluates the minimized
    bound at each n.  Every n must be at least 1, and n_ref, when given,
    must exceed each n.  The application's closed-form minimizer is evaluated
    alongside the generic one; any disagreement beyond THETA_AGREEMENT
    relative is recorded on the report rather than silently dropped.  With
    n_ref given, the reference and every level go to one `solve_truncations`
    call, and each report's runtime_ms is its corner's run time plus its own
    evaluation.
    """
    n_range = list(n_range)
    for n in n_range:
        check_truncation_levels(n, n_ref)
    cert = _level0_certificate(B, beta=beta)
    pis = [None] * len(n_range)
    if n_ref is not None:
        pi_ref, *pis = solve_truncations(B, [TruncationSpec(n=n) for n in [n_ref, *n_range]])
    reports = []
    for n, pi_n in zip(n_range, pis):
        started = time.perf_counter()
        true_tv = None if pi_n is None else tv_distance(pi_n, pi_ref)
        report = _bounds.bound_report(cert, B, n, true_tv=true_tv)
        theta_closed = _closed_form_theta(B, cert, n)
        gap = abs(theta_closed - report.theta) / max(1.0, abs(report.theta))
        if gap > THETA_AGREEMENT:
            report.origin += (
                f"; closed-form minimizer disagrees with the generic one "
                f"(relative gap {gap:.3e}), generic kept"
            )
        report.runtime_ms = (time.perf_counter() - started) * 1e3
        if pi_n is not None:
            report.runtime_ms += pi_n.runtime_ms
        reports.append(report)
    return reports
