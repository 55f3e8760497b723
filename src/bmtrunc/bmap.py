"""Batch-arrival queue with level-dependent services and disasters.

The input process is a batch Markovian arrival process given by matrices
D(0), D(1), ... (D(0) holds phase transitions without arrivals, D(k) those
accompanied by a batch of size k).  Level k of the queue drains at rate
mu(k), and an optional disaster rate psi flushes the whole queue to level 0.

Everything a drift certificate needs comes from the transform
Dhat(z) = sum z^k D(k) and its Perron root delta_D(z): the root is 0 at
z = 1, increasing and convex, and its slope at 1 is the arrival rate.  The
certificate search picks a geometric base beta inside the transform's radius
of convergence to maximize the certified decay rate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import bounds as _bounds
from .blockmat import (
    BmapQueueModel,
    FiniteBlockMatrix,
    GeometricTail,
    MuRule,
)
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
_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class BmapModel:
    """Validated queue parameters.

    r_D is the radius of convergence of the batch-size transform: the
    reciprocal tail ratio when an analytic tail is declared, infinite for
    finitely supported batches.
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
        if self.psi < 0:
            raise InvalidBmap(f"disaster rate must be >= 0, got {self.psi}")
        total = self.phase_sum()
        defect = float(np.max(np.abs(total.sum(axis=1))))
        if defect > 1e-10 * max(1.0, float(np.max(np.abs(total)))):
            raise InvalidBmap(f"sum of D(k) is not conservative (defect {defect:.3e})")
        if not _irreducible(total):
            raise InvalidBmap("phase process generator sum of D(k) is reducible")

    @property
    def k_max(self) -> int:
        return len(self.D) - 1

    @property
    def r_D(self) -> float:
        return math.inf if self.tail is None else 1.0 / self.tail.ratio

    def phase_sum(self) -> np.ndarray:
        """D = sum of all D(k), the phase process generator."""
        out = sum(self.D[1:], start=self.D[0].copy())
        if self.tail is not None:
            out = out + self.tail.sum_from(self.k_max + 1)
        return out

    def dhat(self, z: float) -> np.ndarray:
        """Batch transform sum z^k D(k), exact including the analytic tail."""
        if not 0.0 < z < self.r_D:
            raise InputError(f"z={z} outside (0, {self.r_D})")
        out = sum((z ** k) * m for k, m in enumerate(self.D))
        if self.tail is not None:
            out = out + self.tail.power_series_from(self.k_max + 1, z)
        return out


def _irreducible(gen: np.ndarray) -> bool:
    d = gen.shape[0]
    adj = (gen > 1e-300).astype(float)
    np.fill_diagonal(adj, 1.0)
    reach = adj.copy()
    for _ in range(d):
        reach = np.minimum(reach @ adj, 1.0)
    return bool(np.all(reach > 0))


def _assemble(B: BmapModel) -> BmapQueueModel:
    return BmapQueueModel(d=B.d, D=list(B.D), mu=B.mu, psi=B.psi, tail=B.tail)


def build_generator(B: BmapModel) -> BmapQueueModel:
    """Assemble the queue generator and confirm its block monotonicity."""
    model = _assemble(B)
    report = generator_is_block_monotone(model)
    if not report.holds:
        raise InvalidBmap(
            f"assembled generator fails block monotonicity at {report.worst_violation}"
        )
    return model


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
    root off the two-sided Rayleigh quotient.  The right vector is scaled to
    minimum component 1 and the left one to unit inner product against it.
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
        if iterations > 100_000:
            raise NoConvergence(
                f"power iteration did not converge at z={z}; is the phase "
                "process reducible?"
            )
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
            if iterations % 5000 == 0:
                # stagnating short of the residual target: reseed
                x, y = reseed()
                Ex = E @ x
                rprev = math.inf
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

    model = build_generator(B)
    if beta is None:
        grid = _beta_grid(B)
        values = np.array([c_of(bv) for bv in grid])
        i = int(np.argmax(values))
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, grid.size - 1)]
        beta, _ = _golden_max(c_of, lo, hi)
    rec = spectral(B, beta)
    c = mu_inf * (1.0 - 1.0 / beta) - rec.eigenvalue
    if c <= 0.0:
        lam = arrival_rate(B)
        raise NoPositiveC(
            f"no geometric base certifies decay: service floor {mu_inf} vs "
            f"arrival rate {lam:.6g} leaves c(beta) <= 0 everywhere"
        )
    b = (c + rec.eigenvalue) * float(rec.right.max())
    return _bounds.drift_check(model, GeometricVector(beta=beta, u=rec.right), c, b, K=0)


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
    search.  Returns (K, c', b', spectral record) or None when no K up to
    the cap makes the bracket positive.
    """
    rec = spectral(B, beta)
    delta = rec.eigenvalue
    psi = B.psi
    slope = 1.0 - 1.0 / beta
    decay = [beta ** (-k) for k in range(mus.size)]
    bracket = mus * slope + psi * (1.0 - np.array(decay)) - delta
    # c'(K) for K < stable_from - 1 is a suffix minimum over the window
    # K+1 .. stable_from+1, from there on a minimum of two neighbours
    stable = B.mu.stable_from
    split = min(stable - 1, K_CAP + 1)
    c_of_K = np.concatenate([
        np.minimum.accumulate(bracket[stable + 1:0:-1])[::-1][:split],
        np.minimum(bracket[split + 1:K_CAP + 2], bracket[split + 2:K_CAP + 3]),
    ])
    feasible = np.flatnonzero(c_of_K > 0.0)
    if feasible.size == 0:
        return None
    K = int(feasible[0])
    c_prime = float(c_of_K[K])
    mu_k = mus[:K + 1].tolist()
    u_max = float(rec.right.max())
    b_prime = max(
        (c_prime + delta - mu_k[k] * slope - psi * (1.0 - decay[k])) * beta ** k
        for k in range(K + 1)
    ) * u_max
    return K, c_prime, b_prime, rec


def find_constants_disaster(B: BmapModel, beta: float | None = None) -> DriftCertificate:
    """Certificate for the disaster queue, offset allowed through level K.

    Disasters add psi(1 - beta^{-k}) to the decay bracket, so even a queue
    with no service can be geometrically ergodic; K is the first level from
    which the bracket stays positive.  Among grid betas the winner maximizes
    the decay rate that survives the conversion to level-0 form.
    """
    if B.psi <= 0.0:
        raise InputError("disaster search requires psi > 0")
    model = build_generator(B)
    mus = _mu_levels(B)

    def objective(beta_val: float) -> float:
        found = _disaster_constants(B, beta_val, mus)
        if found is None:
            return -math.inf
        K, c_prime, b_prime, _ = found
        if K == 0:
            return c_prime
        return c_prime / (1.0 + b_prime / B.psi)

    if beta is None:
        grid = _beta_grid(B)
        values = np.array([objective(bv) for bv in grid])
        i = int(np.argmax(values))
        if not np.isfinite(values[i]):
            raise NoFeasibleK(
                f"no offset level up to {K_CAP} yields a positive decay "
                "bracket for any geometric base"
            )
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, grid.size - 1)]
        beta, _ = _golden_max(objective, lo, hi)
    found = _disaster_constants(B, beta, mus)
    if found is None:
        raise NoFeasibleK(f"no offset level up to {K_CAP} works at beta={beta}")
    K, c_prime, b_prime, rec = found
    return _bounds.drift_check(
        model, GeometricVector(beta=beta, u=rec.right), c_prime, b_prime, K=K
    )


def _closed_form_theta(B: BmapModel, cert: DriftCertificate, n: int,
                       b_prime: float | None) -> float:
    """The application's printed minimizer, for cross-checking.

    Without disasters: theta = -log(beta^{-n}/(2c) * sum_j (mu(n)+|D_jj(0)|)/u_j).
    With disasters and a converted certificate, the weight picks up the
    conversion shift and the numerator the disaster rate.
    """
    beta = cert.v.beta
    u = cert.v.u
    diag0 = np.abs(np.diag(B.D[0]))
    num = B.psi + B.mu(n) + diag0
    if b_prime is None:
        s = float(np.sum(num / u)) * beta ** (-n)
    else:
        shift = b_prime / B.psi
        s = float(np.sum(num / (u + shift * beta ** (-n)))) * beta ** (-n)
    if s <= 0.0:
        return math.inf
    return max(-math.log(s / (2.0 * cert.c)), 0.0)


def _level0_certificate(B: BmapModel, beta: float | None = None, mode: str = "auto"):
    """The certificate route shared by bound_pipeline and the CLI sweep.

    Picks the search by the disaster rate ("auto") or by `mode`, and converts
    a level-K certificate to level-0 form.  The search builds the generator
    and checks its block monotonicity; the model returned is the same
    assembly, unchecked a second time.  Returns (model, certificate, b'),
    b' being the offset before the conversion, or None when none was needed.
    """
    if mode not in ("auto", "no_disaster", "disaster"):
        raise InputError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = "no_disaster" if B.psi == 0.0 else "disaster"
    if mode == "no_disaster" and B.psi != 0.0:
        raise InputError("no_disaster mode on a model with psi > 0")
    if mode == "disaster" and B.psi == 0.0:
        raise InputError("disaster mode on a model with psi = 0")
    if mode == "no_disaster":
        cert = find_beta_no_disaster(B, beta=beta)
    else:
        cert = find_constants_disaster(B, beta=beta)
    model = _assemble(B)
    if cert.K == 0:
        return model, cert, None
    return model, _bounds.corollary_transform(cert, model), cert.b


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
    model, cert, b_prime = _level0_certificate(B, beta=beta, mode=mode)
    pi_ref = None
    if n_ref is not None:
        pi_ref = stationary(lc_truncate(model, n_ref).matrix, source="lc")
    reports = []
    for n in n_range:
        started = time.perf_counter()
        true_tv = None
        if pi_ref is not None:
            pi_n = stationary(lc_truncate(model, n).matrix, source="lc")
            true_tv = tv_distance(pi_n, pi_ref)
        report = _bounds.bound_report(cert, model, n, true_tv=true_tv)
        theta_closed = _closed_form_theta(B, cert, n, b_prime)
        gap = abs(theta_closed - report.theta) / max(1.0, abs(report.theta))
        if gap > 1e-9:
            report.origin += (
                f"; closed-form minimizer disagrees with the generic one "
                f"(relative gap {gap:.3e}), generic kept"
            )
        report.runtime_ms = (time.perf_counter() - started) * 1e3
        reports.append(report)
    return reports
