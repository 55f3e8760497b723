"""Batch-arrival queue with level-dependent services and disasters.

The input process is a batch Markovian arrival process given by matrices
D(0), D(1), ... (D(0) holds phase transitions without arrivals, D(k) those
accompanied by a batch of size k).  Level k of the queue drains at rate
mu(k), and an optional disaster rate psi flushes the whole queue to level 0.
The queue is `blockmat.BmapQueueModel`, which validates these parameters and
is also the generator every other module reads.

Everything a drift certificate needs comes from the transform
Dhat(z) = sum z^k D(k) and its Perron root delta_D(z): the root is 0 at
z = 1, increasing and convex, and its slope at 1 is the arrival rate.  The
certificate search picks a geometric base beta inside the transform's radius
of convergence to maximize the certified decay rate.  It scores a fixed grid
of 200 bases in array passes: a batched two-sided power iteration over the
stacked transforms gives their Perron data (`_grid_perron`), and the
disaster search reads its offset levels and constants off one table with a
row per base and a column per level (`_offset_table`).  The grid only picks
the best base; a golden-section polish around it and the winner call the
scalar `spectral` (and `_disaster_constants`) at each point they visit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import bounds as _bounds
from .blockmat import BmapQueueModel, FiniteBlockMatrix
from .bounds import BoundReport, DriftCertificate, GeometricVector
from .errors import (
    DegenerateArrivals,
    InputError,
    InvalidBmap,
    NoConvergence,
    NoFeasibleK,
    NoPositiveC,
)
from .order import generator_is_block_monotone
from .solve import stationary, tv_distance
from .truncate import lc_truncate

BETA_CAP = 64.0
GRID_POINTS = 200
GOLDEN_ITERS = 30
K_CAP = 200
# Matrix entries per batch of the beta grid's power iteration (128 KB of
# float64): the whole grid goes in one batch up to d = 9.  A batch holds its
# transforms and the stacked iteration matrices [E, E^T], about 384 KB, where
# the whole grid at d = 24 would hold about 2.8 MB.  The disaster table goes
# in chunks whose working arrays hold as many entries together.
GRID_BATCH_ENTRIES = 2 ** 14
# Power steps before spectral, or the grid's batched iteration, hands over to
# the dense eigensolver; no spectral call of the benchmark workloads takes
# more than 43.
POWER_ITERS = 100
_PHI = (math.sqrt(5.0) - 1.0) / 2.0


# The queue model validates its parameters on construction; this name is kept
# for the callers that build queues as bmap.BmapModel.
BmapModel = BmapQueueModel


def build_generator(B: BmapModel) -> BmapQueueModel:
    """Confirm the queue generator's block monotonicity and return it."""
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


def spectral(B: BmapModel, z: float, seed: int = 0) -> SpectralRecord:
    """Perron root and eigenvectors of Dhat(z).

    Shifts by the largest diagonal rate so the iteration matrix is
    nonnegative, then runs power iteration on both sides at once, reading the
    root off the two-sided Rayleigh quotient.  If that has not converged
    after POWER_ITERS steps, `_dense_perron` of Dhat(z) and of its transpose
    gives the pair.  The right vector is scaled to minimum component 1 and
    the left one to unit inner product against it.  The certificate search
    calls this at the points its golden-section polish visits and at its
    winner; its grid runs the same iteration batched, in `_power_perron`.
    """
    dh = B.dhat(z)
    d = B.d
    shift = float(np.max(np.abs(np.diag(B.D[0]))))
    norm = max(float(np.max(np.abs(dh))), 1e-300)
    if d == 1:
        val = float(dh[0, 0])
        return SpectralRecord(z=z, eigenvalue=val, right=np.ones(1), left=np.ones(1),
                              residual=0.0, iterations=0)
    E = np.eye(d) + dh / shift
    ET = E.T
    rng = None

    def reseed():
        nonlocal rng
        if rng is None:
            rng = np.random.default_rng(seed)
        return rng.random(d) + 0.5, rng.random(d) + 0.5

    y = np.ones(d)
    # Ex = E @ x for the current normalized x: the Rayleigh quotient's
    # product is the next iterate
    Ex = E @ np.ones(d)
    rprev = math.inf
    iterations = 0
    while True:
        iterations += 1
        if iterations > POWER_ITERS:
            # E's second eigenvalue is close to +-1 in modulus, as under
            # stiff phase rates: the dense eigensolver takes over
            val, x = _dense_perron(dh)
            val = float(val)
            y = _dense_perron(dh.T)[1]
            res_r = float(np.abs(dh @ x - val * x).max())
            res_l = float(np.abs(y @ dh - val * y).max())
            if max(res_r, res_l) > 1e-12 * norm:
                raise NoConvergence(
                    f"no Perron pair at z={z}; is the phase process reducible?"
                )
            break
        x = Ex
        y = ET @ y
        nx = float(np.abs(x).max())
        ny = float(np.abs(y).max())
        if nx <= 0.0 or ny <= 0.0:
            x, y = reseed()
            Ex = E @ x
            rprev = math.inf
            continue
        x /= nx
        y /= ny
        Ex = E @ x
        r = float((y @ Ex) / (y @ x))
        done = abs(r - rprev) < 1e-13 * max(1.0, abs(r))
        rprev = r
        if done:
            val = (r - 1.0) * shift
            res_r = float(np.abs(dh @ x - val * x).max())
            res_l = float(np.abs(y @ dh - val * y).max())
            if max(res_r, res_l) <= 1e-12 * norm:
                break
    u = x / float(x.min())
    eta = y / float(y @ u)
    return SpectralRecord(
        z=z,
        eigenvalue=val,
        right=u,
        left=eta,
        residual=max(res_r, res_l) / norm,
        iterations=iterations,
    )


def _dense_perron(dh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Perron roots and right Perron vectors of irreducible Metzler matrices.

    `dh` is one matrix or a stack of them, shape (..., d, d), and a single
    dense eigendecomposition covers the whole stack.  Per matrix, the root
    is the eigenvalue of largest real part and the vector the absolute value
    of its right eigenvector, unnormalized; the left vector is the right one
    of the transpose.  `spectral` and `_power_perron` call it for the points
    their power iteration leaves unconverged after POWER_ITERS steps.
    """
    vals, vecs = np.linalg.eig(dh)
    i = np.argmax(vals.real, axis=-1)[..., None]
    roots = np.take_along_axis(vals.real, i, axis=-1)[..., 0]
    right = np.take_along_axis(vecs.real, i[..., None], axis=-1)[..., 0]
    return roots, np.abs(right)


def _grid_slices(size: int, width: int) -> list[slice]:
    """Consecutive row slices of at most GRID_BATCH_ENTRIES // width rows."""
    step = max(1, GRID_BATCH_ENTRIES // width)
    return [slice(i, i + step) for i in range(0, size, step)]


def _grid_perron(B: BmapModel, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Perron roots delta_D(z) and spreads max u / min u over a grid of bases.

    `_power_perron` of the stacked transforms, GRID_BATCH_ENTRIES matrix
    entries at a time.  The values agree with `spectral` to rounding.
    """
    if B.d == 1:
        return B.dhat(grid)[:, 0, 0], np.ones(grid.size)
    shift = float(np.max(np.abs(np.diag(B.D[0]))))
    roots = np.empty(grid.size)
    spread = np.empty(grid.size)
    for part in _grid_slices(grid.size, B.d ** 2):
        roots[part], spread[part] = _power_perron(B.dhat(grid[part]), shift)
    return roots, spread


def _power_perron(dh: np.ndarray, shift: float) -> tuple[np.ndarray, np.ndarray]:
    """Perron roots and spreads max u / min u of a stack of transforms.

    The two-sided power iteration of `spectral` on each matrix of the
    stack, with its shift, its stop rule and its residual contract.  The
    residuals are checked once every base still iterating has stopped, and
    a base that passes keeps the values of that step.  The bases left after
    POWER_ITERS steps go to one `_dense_perron` call.
    """
    m, d = dh.shape[:2]
    roots = np.empty(m)
    spread = np.empty(m)
    norm = np.maximum(np.abs(dh).max(axis=(1, 2)), 1e-300)
    # [x, y] times [E, E^T] in one product per step, E = I + Dhat / shift
    # built in place; iterates of the nonnegative, irreducible E stay positive
    M = np.empty((2, m, d, d))
    np.divide(dh, shift, out=M[0])
    M[0] += np.eye(d)
    M[1] = M[0].transpose(0, 2, 1)
    V = np.stack([M[0] @ np.ones(d), np.ones((m, d))])
    V[0] /= V[0].max(axis=1, keepdims=True)
    rprev = np.full(m, math.inf)
    pending = np.ones(m, dtype=bool)
    for step in range(POWER_ITERS):
        W = (M @ V[..., None])[..., 0]
        x = V[0]
        V = W / W.max(axis=2, keepdims=True)
        r = np.einsum("md,md->m", V[1], W[0]) / np.einsum("md,md->m", V[1], x)
        done = np.abs(r - rprev) < 1e-13 * np.maximum(1.0, r)
        rprev = r
        if not (np.all(done | ~pending) or step == POWER_ITERS - 1):
            continue
        # Dhat = shift (E - I), so Dhat x - delta x = shift (E x - r x)
        xy = np.stack([x, V[1]])
        res = shift * np.abs((M @ xy[..., None])[..., 0] - r[:, None] * xy).max(axis=(0, 2))
        ok = pending & done & (res <= 1e-12 * norm)
        roots[ok] = (r[ok] - 1.0) * shift
        spread[ok] = (x[ok] / x[ok].min(axis=1, keepdims=True)).max(axis=1)
        pending &= ~ok
        if not pending.any():
            return roots, spread
    # E's second eigenvalue is close to +-1 in modulus at these bases
    roots[pending], right = _dense_perron(dh[pending])
    spread[pending] = right.max(axis=1) / right.min(axis=1)
    return roots, spread


def delta_D(B: BmapModel, z: float) -> float:
    return spectral(B, z).eigenvalue


def _beta_grid(B: BmapModel) -> np.ndarray:
    hi = min(0.999 * B.r_D, BETA_CAP)
    return np.geomspace(1.0 + 1e-6, hi, GRID_POINTS)


def _golden_max(f, lo: float, hi: float, iters: int = GOLDEN_ITERS):
    """Golden-section maximization; returns (argmax, max)."""
    a, b = lo, hi
    c1 = b - _PHI * (b - a)
    c2 = a + _PHI * (b - a)
    f1, f2 = f(c1), f(c2)
    for _ in range(iters):
        if f1 >= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - _PHI * (b - a)
            f1 = f(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + _PHI * (b - a)
            f2 = f(c2)
    return ((a + b) / 2.0, max(f1, f2))


def _best_beta(B: BmapModel, objective, grid_objective) -> float:
    """The grid base of largest objective, polished by golden section.

    `_grid_perron` gives the Perron data of the whole grid, and
    grid_objective(grid, delta_D, max u / min u) scores every base at once;
    the polish calls objective(beta), which takes them from `spectral`.  The
    grid scores agree with objective to rounding and only pick the bracket.
    Raises NoFeasibleK when no grid base has a finite objective.
    """
    grid = _beta_grid(B)
    values = grid_objective(grid, *_grid_perron(B, grid))
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

    build_generator(B)
    if beta is None:
        beta = _best_beta(B, c_of, c_of_grid)
    rec = spectral(B, beta)
    c = mu_inf * (1.0 - 1.0 / beta) - rec.eigenvalue
    if c <= 0.0:
        lam = arrival_rate(B)
        raise NoPositiveC(
            f"no geometric base certifies decay: service floor {mu_inf} vs "
            f"arrival rate {lam:.6g} leaves c(beta) <= 0 everywhere"
        )
    b = (c + rec.eigenvalue) * float(rec.right.max())
    return _bounds.drift_check(B, GeometricVector(beta=beta, u=rec.right), c, b, K=0)


def _mu_levels(B: BmapModel) -> np.ndarray:
    """mu(0), mu(1), ... through the deepest level an offset window reads."""
    top = max(B.mu.stable_from, K_CAP + 1) + 1
    return np.array([B.mu(k) for k in range(top + 1)])


def _disaster_constants(B: BmapModel, beta: float, mus: np.ndarray):
    """Smallest feasible offset level and its constants at one beta.

    The decay bracket mu(k)(1 - 1/beta) + psi(1 - beta^-k) - delta_D(beta) is
    evaluated once per level k.  c'(K), its infimum over k > K, is the
    minimum over levels K+1 .. max(stable_from, K+1)+1: past the mu table
    the bracket only grows.  `mus` is `_mu_levels(B)`, computed once per
    search, and `spectral` supplies delta_D(beta) and u(beta).  Returns (K,
    c', b', spectral record) or None when no K up to the cap makes the
    bracket positive.  b' is inf when beta^K passes the float range.
    """
    rec = spectral(B, beta)
    delta, u_max = rec.eigenvalue, float(rec.right.max())
    psi = B.psi
    slope = 1.0 - 1.0 / beta
    decay = [beta ** (-k) for k in range(mus.size)]
    bracket = mus * slope + psi * (1.0 - np.array(decay)) - delta
    c_of_K = _offset_rates(B, bracket)
    feasible = np.flatnonzero(c_of_K > 0.0)
    if feasible.size == 0:
        return None
    K = int(feasible[0])
    c_prime = float(c_of_K[K])
    try:
        math.pow(beta, K)
    except OverflowError:
        # no float b' exists; the search's objective c'/(1 + b'/psi) reads 0
        return K, c_prime, math.inf, rec
    mu_k = mus[:K + 1].tolist()
    b_prime = max(
        (c_prime + delta - mu_k[k] * slope - psi * (1.0 - decay[k])) * beta ** k
        for k in range(K + 1)
    ) * u_max
    return K, c_prime, b_prime, rec


def _offset_rates(B: BmapModel, bracket: np.ndarray) -> np.ndarray:
    """c'(K) for K = 0 .. K_CAP from the decay bracket over levels, along
    the last axis.

    For K < stable_from - 1 it is a suffix minimum over the window
    K+1 .. stable_from+1, from there on a minimum of two neighbours.
    """
    stable = B.mu.stable_from
    split = min(stable - 1, K_CAP + 1)
    return np.concatenate([
        np.minimum.accumulate(bracket[..., stable + 1:0:-1], axis=-1)[..., ::-1][..., :split],
        np.minimum(bracket[..., split + 1:K_CAP + 2], bracket[..., split + 2:K_CAP + 3]),
    ], axis=-1)


def _offset_table(B: BmapModel, betas: np.ndarray, deltas: np.ndarray,
                  spreads: np.ndarray, mus: np.ndarray):
    """`_disaster_constants` at many bases at once, from their Perron data.

    One table row per base and one column per level, in chunks of rows
    whose working arrays, about four of the table's size, hold
    GRID_BATCH_ENTRIES entries; `deltas` and `spreads` are delta_D and
    max u / min u at each base.  Returns the arrays (K, c', b'), with K = -1 where no
    offset level up to the cap is feasible (c' and b' are then meaningless)
    and b' = inf where beta^K passes the float range.  The values agree
    with the scalar scan to rounding.
    """
    K = np.empty(betas.size, dtype=int)
    c_prime = np.empty(betas.size)
    b_prime = np.empty(betas.size)
    levels = np.arange(mus.size)
    for part in _grid_slices(betas.size, 4 * mus.size):
        beta = betas[part, None]
        slope = 1.0 - 1.0 / beta
        bracket = B.psi * (1.0 - beta ** -levels)
        bracket += mus * slope
        bracket -= deltas[part, None]
        c_of_K = _offset_rates(B, bracket)
        feasible = c_of_K > 0.0
        K[part] = np.where(feasible.any(axis=1), feasible.argmax(axis=1), -1)
        c_first = np.take_along_axis(c_of_K, K[part, None], axis=1)
        c_prime[part] = c_first[:, 0]
        with np.errstate(over="ignore"):
            # beta^k for k <= K is finite on a row exactly when beta^K is
            overflow = np.isinf(beta[:, 0] ** K[part])
            top = np.where(overflow, 0, np.maximum(K[part], 0))[:, None]
            cols = levels[:top.max() + 1]
            terms = (c_first - bracket[:, cols]) * beta ** np.minimum(cols, top)
            terms[cols > top] = -math.inf
            b_prime[part] = terms.max(axis=1) * spreads[part]
        b_prime[part][overflow] = math.inf
    return K, c_prime, b_prime


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
    build_generator(B)
    mus = _mu_levels(B)

    def objective(beta_val: float) -> float:
        found = _disaster_constants(B, beta_val, mus)
        if found is None:
            return -math.inf
        K, c_prime, b_prime, _ = found
        if K == 0:
            return c_prime
        return c_prime / (1.0 + b_prime / B.psi)

    def grid_objective(grid, roots, spread):
        return _offset_scores(B, *_offset_table(B, grid, roots, spread, mus))

    if beta is None:
        beta = _best_beta(B, objective, grid_objective)
    found = _disaster_constants(B, beta, mus)
    if found is None:
        raise NoFeasibleK(f"no offset level up to {K_CAP} works at beta={beta}")
    K, c_prime, b_prime, rec = found
    return _bounds.drift_check(
        B, GeometricVector(beta=beta, u=rec.right), c_prime, b_prime, K=K
    )


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


def _level0_certificate(B: BmapModel, beta: float | None = None,
                        mode: str = "auto") -> DriftCertificate:
    """The certificate route shared by bound_pipeline and the CLI sweep.

    Picks the search by the disaster rate ("auto") or by `mode`, and converts
    a level-K certificate to level-0 form.  A given beta must lie in
    (1, r_D).  The search checks the generator's block monotonicity.
    """
    if mode not in ("auto", "no_disaster", "disaster"):
        raise InputError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = "no_disaster" if B.psi == 0.0 else "disaster"
    if mode == "no_disaster" and B.psi != 0.0:
        raise InputError("no_disaster mode on a model with psi > 0")
    if mode == "disaster" and B.psi == 0.0:
        raise InputError("disaster mode on a model with psi = 0")
    if beta is not None and not 1.0 < beta < B.r_D:
        raise InputError(f"geometric base beta={beta} must lie in (1, {B.r_D:g})")
    if mode == "no_disaster":
        cert = find_beta_no_disaster(B, beta=beta)
    else:
        cert = find_constants_disaster(B, beta=beta)
    return _bounds.corollary_transform(cert, B)


def bound_pipeline(B: BmapModel, n_range, mode: str = "auto",
                   beta: float | None = None, n_ref: int | None = None) -> list[BoundReport]:
    """End-to-end bounds for a sweep of truncation levels.

    Picks the certificate route by the disaster rate, converts a level-K
    certificate to level-0 form when needed, and evaluates the minimized
    bound at each n.  The application's closed-form minimizer is evaluated
    alongside the generic one; any disagreement beyond 1e-9 relative is
    recorded on the report rather than silently dropped.  Each report's
    runtime_ms covers its level's corner solve (when n_ref is given) and the
    bound evaluation.
    """
    cert = _level0_certificate(B, beta=beta, mode=mode)
    pi_ref = None
    if n_ref is not None:
        pi_ref = stationary(lc_truncate(B, n_ref).matrix, source="lc")
    reports = []
    for n in n_range:
        started = time.perf_counter()
        true_tv = None
        if pi_ref is not None:
            pi_n = stationary(lc_truncate(B, n).matrix, source="lc")
            true_tv = tv_distance(pi_n, pi_ref)
        report = _bounds.bound_report(cert, B, n, true_tv=true_tv)
        theta_closed = _closed_form_theta(B, cert, n)
        gap = abs(theta_closed - report.theta) / max(1.0, abs(report.theta))
        if gap > 1e-9:
            report.origin += (
                f"; closed-form minimizer disagrees with the generic one "
                f"(relative gap {gap:.3e}), generic kept"
            )
        report.runtime_ms = (time.perf_counter() - started) * 1e3
        reports.append(report)
    return reports
