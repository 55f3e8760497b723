"""Shared oracles and generators for the test suite.

Everything here is independent of the library internals on purpose: tail
sums are recomputed with plain numpy slicing, the reference minimizer is a
golden-section search with a parabolic polish, and random models are
assembled entry by entry.  The stationary oracle is the dense elimination
and the window oracle asks for every block pair, the plain algorithms the
library's band-aware ones must reproduce.  The power-iteration and
offset-level oracles are the plain loops the certificate search must match
bit for bit, and the serial search is the search as it ran before its grid
was batched; the batched grid's offset table must match that search's
objective.  The slack oracle checks a certificate row by row, and
`regime_queues` draws the queues it is checked on.
"""

import json
import math

import numpy as np
from hypothesis import strategies as st

from bmtrunc import (
    BmapModel,
    BmapQueueModel,
    GeometricTail,
    MuRule,
    NoConvergence,
    find_beta_no_disaster,
    find_constants_disaster,
    spectral,
)
from bmtrunc.bmap import (
    _beta_grid,
    _disaster_constants,
    _golden_max,
    _grid_perron,
    _mu_levels,
    _offset_scores,
    _offset_table,
)


def golden_min(f, lo, hi, h_floor=1e-4):
    """Minimize a unimodal function on [lo, hi] to well under 1e-8 relative.

    Golden-section narrows the bracket to h_floor, then one parabolic fit
    through three points h apart polishes the result.  A minimum sitting on
    the left boundary is returned as lo exactly.
    """
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c1 = b - phi * (b - a)
    c2 = a + phi * (b - a)
    f1, f2 = f(c1), f(c2)
    while (b - a) > h_floor:
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - phi * (b - a)
            f1 = f(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + phi * (b - a)
            f2 = f(c2)
    t0 = (a + b) / 2
    if f(lo) <= f(t0):
        return lo
    h = max(h_floor, 1e-6 * abs(t0))
    if t0 - h < lo:
        t0 = lo + h
    fm, f0, fp = f(t0 - h), f(t0), f(t0 + h)
    denom = fp - 2 * f0 + fm
    if denom <= 0:
        return t0
    return min(max(t0 - 0.5 * h * (fp - fm) / denom, lo), hi)


def dense_stationary(values):
    """Stationary vector by dense subtraction-free elimination.

    The textbook Grassmann-Taksar-Heyman scheme with a full rank-1 update
    of the leading block at every step, O(N^3) whatever the sparsity.
    """
    A = np.array(values, dtype=float)
    N = A.shape[0]
    for s in range(N - 1, 0, -1):
        A[:s, s] /= A[s, :s].sum()
        A[:s, :s] += np.outer(A[:s, s], A[s, :s])
    x = np.zeros(N)
    x[0] = 1.0
    for s in range(1, N):
        x[s] = x[:s] @ A[:s, s]
    return x / x.sum()


def brute_window(model, n):
    """The corner over levels 0..n from one block() call per block pair."""
    d = model.d
    out = np.zeros(((n + 1) * d, (n + 1) * d))
    for k in range(n + 1):
        for l in range(n + 1):
            b = model.block(k, l)
            if b is not None and np.any(b):
                out[k * d:(k + 1) * d, l * d:(l + 1) * d] = b
    return out


def brute_corner(model, spec):
    """brute_window plus every row's cut tail folded by the spec's weights."""
    d, n = model.d, spec.n
    out = brute_window(model, n)
    for k in range(n + 1):
        e = model.tail_sum(k, n + 1)
        for level, frac in spec.weights_for(k).items():
            l = int(level)
            out[k * d:(k + 1) * d, l * d:(l + 1) * d] += frac * e
    return out


def d2_blocks():
    """D(0)..D(3) of the two-phase batch arrivals the fixtures share."""
    D0 = np.array([[-1.95, 0.7], [0.8, -1.95]])
    D1 = np.array([[0.5, 0.2], [0.3, 0.3]])
    D2 = np.array([[0.25, 0.1], [0.2, 0.15]])
    D3 = np.array([[0.15, 0.05], [0.1, 0.1]])
    return (D0, D1, D2, D3)


def tailed_queue(d=2, psi=0.5, ratio=0.4):
    """A conservative queue model with a geometric batch tail beyond D(2)."""
    rng = np.random.default_rng(17)
    D1 = rng.uniform(0.1, 0.3, (d, d))
    D2 = rng.uniform(0.05, 0.15, (d, d))
    tail = GeometricTail(coef=rng.uniform(0.1, 0.4, (d, d)), ratio=ratio)
    off = rng.uniform(0.2, 0.6, (d, d))
    np.fill_diagonal(off, 0.0)
    out = off.sum(axis=1) + D1.sum(axis=1) + D2.sum(axis=1) + tail.sum_from(3).sum(axis=1)
    D0 = off - np.diag(out)
    return BmapQueueModel(d=d, D=[D0, D1, D2], mu=MuRule(table=(2.5, 3.0)), psi=psi,
                          tail=tail)


def affine_disaster_queue(lam=0.617):
    """The d=1 queue with arrivals and disasters at rate lam and affine
    service 2.06 + 0.103 k: its first feasible offset level climbs toward
    K_CAP as beta grows, and near beta = 37.5 beta**K passes the float range."""
    return BmapQueueModel(d=1, D=[np.array([[-lam]]), np.array([[lam]])],
                          mu=MuRule(table=(2.06,), eventual="affine", slope=0.103), psi=lam)


def power_iteration(B, z, seed=0):
    """Perron data of B.dhat(z) by the plain two-sided power iteration.

    Returns (eigenvalue, right, left, residual, iterations) with the
    normalizations of `bmtrunc.spectral`: min(right) = 1, left . right = 1.
    """
    dh = B.dhat(z)
    d = B.d
    shift = float(np.max(np.abs(np.diag(B.D[0]))))
    norm = max(float(np.max(np.abs(dh))), 1e-300)
    if d == 1:
        return float(dh[0, 0]), np.ones(1), np.ones(1), 0.0, 0
    E = np.eye(d) + dh / shift
    x = np.ones(d)
    y = np.ones(d)
    rng = np.random.default_rng(seed)
    rprev = math.inf
    iterations = 0
    while True:
        iterations += 1
        if iterations > 100_000:
            raise NoConvergence(f"power iteration did not converge at z={z}")
        x = E @ x
        y = E.T @ y
        nx = float(np.max(np.abs(x)))
        ny = float(np.max(np.abs(y)))
        if nx <= 0.0 or ny <= 0.0:
            x = rng.random(d) + 0.5
            y = rng.random(d) + 0.5
            rprev = math.inf
            continue
        x /= nx
        y /= ny
        r = float((y @ (E @ x)) / (y @ x))
        done = abs(r - rprev) < 1e-13 * max(1.0, abs(r))
        rprev = r
        if done:
            val = (r - 1.0) * shift
            res_r = float(np.max(np.abs(dh @ x - val * x)))
            res_l = float(np.max(np.abs(y @ dh - val * y)))
            if max(res_r, res_l) <= 1e-12 * norm:
                break
            if iterations % 5000 == 0:
                x = rng.random(d) + 0.5
                y = rng.random(d) + 0.5
                rprev = math.inf
    u = x / float(x.min())
    eta = y / float(y @ u)
    return val, u, eta, max(res_r, res_l) / norm, iterations


def offset_constants(B, beta, rec, k_cap):
    """First offset level K and its (c', b') by rescanning every window.

    For K = 0, 1, ... up to k_cap, c'(K) is the minimum of the decay bracket
    over levels K+1 .. max(stable_from, K+1)+1, evaluated afresh for each K;
    the first positive one wins.  `rec` supplies delta_D(beta) and u(beta).
    Returns (K, c', b') or None.
    """
    delta = rec.eigenvalue
    psi = B.psi

    def bracket(k):
        return B.mu(k) * (1.0 - 1.0 / beta) + psi * (1.0 - beta ** (-k)) - delta

    for K in range(k_cap + 1):
        ks = range(K + 1, max(B.mu.stable_from, K + 1) + 2)
        c_prime = min(bracket(k) for k in ks)
        if c_prime > 0.0:
            u_max = float(rec.right.max())
            b_prime = max(
                (c_prime + delta - B.mu(k) * (1.0 - 1.0 / beta)
                 - psi * (1.0 - beta ** (-k))) * beta ** k
                for k in range(K + 1)
            ) * u_max
            return K, c_prime, b_prime
    return None


def serial_objective(B):
    """The certificate search's objective of beta, one `spectral` call each.

    c(beta) = inf mu (1 - 1/beta) - delta_D(beta) without disasters; with
    them, c' of the first feasible offset level, divided by 1 + b'/psi when
    that level is above 0, and -inf when none is feasible.
    """
    if B.psi == 0.0:
        mu_inf = B.mu.infimum()
        return lambda beta: mu_inf * (1.0 - 1.0 / beta) - spectral(B, beta).eigenvalue
    mus = _mu_levels(B)

    def objective(beta):
        found = _disaster_constants(B, beta, mus)
        if found is None:
            return -math.inf
        K, c_prime, b_prime, _ = found
        return c_prime if K == 0 else c_prime / (1.0 + b_prime / B.psi)

    return objective


def serial_grid_argmax(B):
    """Index of the best grid base, each objective from its own `spectral` call."""
    objective = serial_objective(B)
    return int(np.argmax([objective(beta) for beta in _beta_grid(B)]))


def serial_certificate(B):
    """The raw certificate of the search with its grid evaluated serially.

    The golden-section polish runs around `serial_grid_argmax`, and the
    winner goes through the search's given-beta route.
    """
    grid = _beta_grid(B)
    i = serial_grid_argmax(B)
    beta, _ = _golden_max(serial_objective(B), grid[max(i - 1, 0)],
                          grid[min(i + 1, grid.size - 1)])
    search = find_beta_no_disaster if B.psi == 0.0 else find_constants_disaster
    return search(B, beta=beta)


def assert_table_matches_the_objective(B):
    """At every grid base, the disaster table has the scalar scan's offset
    level and `serial_objective`'s value; an overflowing beta**K scores 0.

    The grid's Perron roots are held to an absolute residual of 1e-12
    max|Dhat(beta)|, so values agree to 1e-9 relative or to that much
    absolute, and the two may pick different offset levels only where c' at
    the lower one lies within it of 0.  Returns the table's K and b'.
    """
    grid = _beta_grid(B)
    mus = _mu_levels(B)
    K, c_prime, b_prime = _offset_table(B, grid, *_grid_perron(B, grid), mus)
    scores = _offset_scores(B, K, c_prime, b_prime)
    objective = serial_objective(B)
    for beta, k, c, b, score in zip(grid, K, c_prime, b_prime, scores):
        found = _disaster_constants(B, beta, mus)
        tol = 1e-12 * np.abs(B.dhat(beta)).max()
        k_scan = -1 if found is None else found[0]
        if k != k_scan:
            table_lower = k != -1 and (k_scan == -1 or k < k_scan)
            assert abs(c if table_lower else found[1]) <= tol, (beta, k, k_scan)
            continue
        if found is not None and found[2] == math.inf:
            assert b == math.inf and score == 0.0
        assert math.isclose(score, objective(beta), rel_tol=1e-9, abs_tol=tol), (beta, score)
    return K, b_prime


def assert_same_certificate(found, expected):
    """beta, c, b, K and the weight profile agree bit for bit."""
    assert (found.v.beta, found.c, found.b, found.K) == (
        expected.v.beta, expected.c, expected.b, expected.K)
    np.testing.assert_array_equal(found.v.u, expected.v.u)


def brute_scaled_slack(model, cert, depth=500):
    """Largest drift slack over its tolerance scale, row by row.

    Rows 0..drift_fit_level() + depth are evaluated one by one with
    `apply_row`, the offset b taken off rows up to K, and each slack divided
    by the scale drift_check uses, max(1, c max v(k), b).  A float row sum
    is only good to its rounding bound, (terms + 4) * eps * sum_l |Q(k;l)| v(l),
    which stiff rates or a small c can push above DRIFT_TOL times the scale;
    the slack is counted net of that bound.  Rows whose weight beta**k would
    pass e**700 are left out: no float evaluates them.
    """
    v, c = cert.v, cert.c
    top = min(model.drift_fit_level() + depth, int(700.0 / math.log(v.beta)))
    weights = v.levels(top + model.upper_hint()).reshape(-1, model.d)
    worst = -math.inf
    for k in range(top + 1):
        lo, hi, tail = model.band(k)
        cols = sorted({0, *range(lo, hi + 1)})
        size = sum(np.abs(model.block(k, l)) @ weights[l] for l in cols) + c * weights[k]
        if tail is not None:
            # nonnegative blocks coef * ratio**j against v(k + j), j > hi - k
            j = hi + 1 - k
            size = size + (v.beta ** k * (tail.power_series_from(j, v.beta) @ v.u)
                           + v.shift * tail.sum_from(j).sum(axis=1))
        rounding = (model.d * len(cols) + 4) * np.finfo(float).eps * size
        vk = v.level(k)
        s = model.apply_row(k, v) + c * vk - (cert.b if k <= cert.K else 0.0)
        scale = max(1.0, c * float(vk.max()), cert.b)
        worst = max(worst, float(np.max(s - rounding)) / scale)
    return worst


def phase_tails(x, d):
    """Per-phase reverse cumulative sums of a flat vector, as (levels, d)."""
    m = np.asarray(x, dtype=float).reshape(-1, d)
    return m[::-1].cumsum(axis=0)[::-1]


def t_matrix(levels, d):
    """The block lower-triangular ones matrix, materialized."""
    T = np.zeros((levels * d, levels * d))
    for k in range(levels):
        for l in range(k + 1):
            T[k * d:(k + 1) * d, l * d:(l + 1) * d] = np.eye(d)
    return T


def bmap_doc(B):
    """JSON document for a BmapModel in the model-file layout."""
    mu = {"table": list(B.mu.table), "eventual": B.mu.eventual,
          "slope": B.mu.slope}
    if B.mu.value is not None:
        mu["value"] = B.mu.value
    params = {"D": [np.asarray(m).tolist() for m in B.D], "mu": mu,
              "psi": B.psi}
    if B.tail is not None:
        params["tail"] = {"coef": np.asarray(B.tail.coef).tolist(),
                          "ratio": B.tail.ratio}
    return {"d": B.d, "kind": "BmapQueue", "parameters": params}


def write_model(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def random_bmap(rng, d=2, scale=1.0, psi=0.0):
    """A random irreducible arrival process with nondecreasing service.

    All off-diagonal rates are strictly positive, so the phase process is
    irreducible, and the sorted service table keeps the generator block
    monotone.  `scale` multiplies every rate, slowing the chain down
    uniformly without touching its structure.
    """
    D1 = rng.uniform(0.15, 0.5, (d, d))
    D2 = rng.uniform(0.05, 0.25, (d, d))
    off = rng.uniform(0.2, 1.0, (d, d))
    np.fill_diagonal(off, 0.0)
    D0 = off.copy()
    np.fill_diagonal(D0, -(off.sum(axis=1) + D1.sum(axis=1) + D2.sum(axis=1)))
    table = tuple(sorted(rng.uniform(1.0, 3.0, size=2)))
    return BmapModel(d=d, D=tuple(scale * m for m in (D0, D1, D2)),
                     mu=MuRule(table=tuple(scale * t for t in table)),
                     psi=scale * psi)


def break_monotone(values, d, rng):
    """Spoil block monotonicity while keeping a conservative q-matrix.

    Strips the one-up entry and most of the two-up entry of one interior
    row at a single phase column, routing the rate downward instead.  The
    row's tail beyond the next level then falls strictly below the tail of
    the row above it, at a component the monotonicity test never masks.
    """
    Q = np.asarray(values, dtype=float).copy()
    levels = Q.shape[0] // d
    k = levels // 2
    i = int(rng.integers(d))
    row = k * d + i
    j = int(np.argmax(Q[row, (k + 2) * d:(k + 3) * d]))
    up1 = (k + 1) * d + j
    up2 = (k + 2) * d + j
    take = Q[row, up1] + 0.8 * Q[row, up2]
    Q[row, up1] = 0.0
    Q[row, up2] *= 0.2
    Q[row, (k - 1) * d + (i + 1) % d] += take
    return Q


def dominated_pair(rng, levels, d):
    """A distribution eta and a copy with mass moved to lower levels."""
    eta = rng.dirichlet(np.ones(levels * d))
    mu = eta.reshape(levels, d).copy()
    for _ in range(4):
        src = int(rng.integers(1, levels))
        dst = int(rng.integers(src))
        ph = int(rng.integers(d))
        amount = rng.uniform(0, mu[src, ph])
        mu[src, ph] -= amount
        mu[dst, ph] += amount
    return mu.ravel(), eta


def block_increasing(rng, levels, d):
    """A nonnegative vector nondecreasing in level within each phase."""
    f = rng.uniform(0, 1, (levels, d)).cumsum(axis=0) + rng.uniform(0, 1, d)
    return f.ravel()


@st.composite
def regime_queues(draw):
    """Valid queues across the regimes certificates must survive.

    d <= 8 phases; up to three listed batch sizes, optionally followed by a
    geometric tail; constant, increasing-table, affine or no service (pure
    reset); disaster rate psi in {0, 0.01, 1} times the arrival rate (pure
    reset needs psi > 0); phase switching at the arrival time scale or 10**4
    times faster; and loads lambda / inf mu from 0.3 up to 0.999.  The
    service rate is set from the arrival rate measured on the drawn blocks,
    so the load holds exactly.  All phases switch on one time scale: with
    phases 10**4 apart, row slacks sit below the rounding of their own sums
    and drift_check's tolerance cannot tell them from zero.
    """
    d = draw(st.integers(1, 8))
    k_max = draw(st.integers(1, 3))
    tail_ratio = draw(st.sampled_from([None, 0.3, 0.6]))
    rule = draw(st.sampled_from(["constant", "table", "affine", "reset"]))
    rho = draw(st.sampled_from([0.3, 0.8, 0.99, 0.999]))
    psi_share = draw(st.sampled_from([0.01, 1.0] if rule == "reset" else [0.0, 0.01, 1.0]))
    spread = draw(st.sampled_from([1.0, 1e4]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    off = rng.uniform(0.2, 1.0, (d, d)) * spread
    np.fill_diagonal(off, 0.0)
    batches = [rng.uniform(0.05, 0.5, (d, d)) * 0.5 ** k for k in range(k_max)]
    tail, tail_mass = None, np.zeros((d, d))
    if tail_ratio is not None:
        tail = GeometricTail(coef=rng.uniform(0.02, 0.1, (d, d)), ratio=tail_ratio)
        tail_mass = tail.sum_from(k_max + 1)
    D0 = off - np.diag(off.sum(axis=1) + sum(b.sum(axis=1) for b in batches)
                       + tail_mass.sum(axis=1))
    generator = D0 + sum(batches) + tail_mass
    eta = np.linalg.lstsq(np.vstack([generator.T, np.ones(d)]),
                          np.r_[np.zeros(d), 1.0], rcond=None)[0]
    weighted = sum((k + 1) * b for k, b in enumerate(batches))
    if tail is not None:
        weighted = weighted + tail.weighted_sum_from(k_max + 1)
    lam = float(eta @ weighted.sum(axis=1))
    mu = lam / rho
    service = {
        "constant": MuRule(table=(mu,)),
        "table": MuRule(table=(mu, 1.2 * mu, 1.5 * mu)),
        "affine": MuRule(table=(mu,), eventual="affine", slope=0.05 * mu),
        "reset": MuRule(table=(0.0,)),
    }[rule]
    return BmapQueueModel(d=d, D=[D0, *batches], mu=service, psi=psi_share * lam,
                          tail=tail)
