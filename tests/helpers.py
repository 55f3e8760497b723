"""Shared oracles and generators for the test suite.

Each oracle computes what the library promises by a plainer route, not by
a copy of its steps: stationary vectors by dense Grassmann-Taksar-Heyman
elimination, corners by one `block` call per block pair, ordering reports
from flat slack arrays over tail sums of materialized windows, and offset
levels over a window twice as deep as the search's, so that the premise
of its one rule, a decay bracket that never falls past the mu table, is
not assumed (it is checked in both of the search's arithmetics).  The
serial search and grid assertions compare the search's grid with its own
scalar route and go with that grid.  The slack oracle checks certificates
row by row on the queues `regime_queues` draws.  `spectral` has no oracle
here: tests hold it to its contract with `scipy.linalg.eigvals`.
"""

import itertools
import json
import math
from unittest import mock

import numpy as np
from hypothesis import strategies as st

from bmtrunc import (
    BandedModel,
    BmapModel,
    BmapQueueModel,
    DominanceReport,
    FiniteBlockMatrix,
    GeometricTail,
    Mg1Model,
    MultipleClosedClasses,
    MuRule,
    TruncatedGenerator,
    find_beta_no_disaster,
    find_constants_disaster,
    lc_truncate,
    spectral,
    td_transform,
)
from bmtrunc import bmap
from bmtrunc.bmap import (
    GRID_PART,
    GRID_POINTS,
    _beta_grid,
    _disaster_constants,
    _golden_max,
    _grid_perron,
    _mu_levels,
    _offset_rates,
    _offset_scores,
    _offset_table,
)
from bmtrunc.order import TAU_ORD, _tail_beyond
from bmtrunc.solve import PIVOT_FLOOR, _poisson_weights


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

    The textbook Grassmann-Taksar-Heyman scheme (Oper. Res. 33, 1985): a
    full rank-1 update of the leading block at every step, O(N^3), with the
    library's pivot floor and error.  `stationary`'s fill-bounded updates
    leave out only exact zeros, so it must give this vector bit for bit.
    """
    A = np.array(values, dtype=float)
    N = A.shape[0]
    floor = PIVOT_FLOOR * max(1.0, float(np.abs(np.diag(A)).max(initial=0.0)))
    for s in range(N - 1, 0, -1):
        scale = A[s, :s].sum()
        if scale <= floor:
            raise MultipleClosedClasses(
                f"elimination pivot {scale:.3e} at state {s}: no path from "
                "the top states back down, the chain is reducible"
            )
        A[:s, s] /= scale
        A[:s, :s] += np.outer(A[:s, s], A[s, :s])
    x = np.zeros(N)
    x[0] = 1.0
    for s in range(1, N):
        x[s] = x[:s] @ A[:s, s]
    return x / x.sum()


def uniformized_per_time(values, start, t, tol):
    """start @ exp(values * t) by uniformization at one time: I + values/sigma
    from an identity matrix, and a term sequence of its own.  The shared
    sequence must give every time's output bit for bit."""
    N = values.shape[0]
    sigma = float(np.max(np.abs(np.diag(values)))) if N else 1.0
    if sigma <= 0.0:
        sigma = 1.0
    A = np.eye(N) + values / sigma
    out = np.zeros_like(start)
    term = start
    for i, w in enumerate(_poisson_weights(sigma * t, tol)):
        if i > 0:
            term = term @ A
        if w > 0.0:
            out += w * term
    return out


def extended_fold(T, probe):
    """Levels 0..n+probe of a truncation's augmented generator, filled by
    hand: the corner, then each row above it from the base's blocks over
    columns 0..n, the fold of its excess and its diagonal block."""
    d, n = T.d, T.n
    top = n + probe
    out = np.zeros(((top + 1) * d, (top + 1) * d))
    out[: (n + 1) * d, : (n + 1) * d] = T.matrix.values
    for k in range(n + 1, top + 1):
        rows = slice(k * d, (k + 1) * d)
        for l in range(n + 1):
            out[rows, l * d:(l + 1) * d] = T.base.block(k, l)
        e = T.excess(k)
        for l, frac in T.spec.targets.items():
            out[rows, l * d:(l + 1) * d] += frac * e
        out[rows, k * d:(k + 1) * d] = T.base.block(k, k)
    return out


def pairwise_table(F, rows, cols):
    """S(k; l) of a finite block matrix for k < rows and l < cols, shape
    (rows, cols, d, d), by numpy's pairwise column sums; zero past the
    corner."""
    d, m = F.d, F.n + 1
    out = np.zeros((rows, cols, d, d))
    for k in range(min(rows, m)):
        for l in range(min(cols, m)):
            out[k, l] = F.values[k * d:(k + 1) * d, l * d:].reshape(d, -1, d).sum(axis=1)
    return out


def window_tail_table(M, rows, cols):
    """S(k; l) of a model for k < rows and l < cols, shape (rows, cols, d, d):
    row k's blocks over columns 0..W, W past the band of every row read,
    summed from the right, plus its geometric tail's remainder past W."""
    W = max(rows - 1 + M.upper_hint(), cols - 1) + 1
    blocks = np.array([[M.block(k, l) for l in range(W + 1)] for k in range(rows)], dtype=float)
    table = np.flip(np.cumsum(np.flip(blocks, 1), 1), 1)[:, :cols]
    for k, tail in enumerate(map(M.row_tail, range(rows))):
        if tail is not None:
            table[k] += tail.sum_from(W + 1 - k)
    return table


def monotone_oracle(M, tol=TAU_ORD):
    """Block monotonicity of a model by `table_order_oracle` over its
    `window_tail_table`: rows 1..bm_check_level() against the row below,
    over the columns up to one past either row's band, where level
    homogeneity lets the check stop."""
    top = M.bm_check_level()
    col_top = np.arange(1, top + 1) + M.upper_hint() + 1
    table = window_tail_table(M, top + 1, int(col_top.max()) + 1)
    valid = np.arange(table.shape[1]) <= col_top[:, None]
    return table_order_oracle(table[:-1], table[1:], valid, first=1, skip_diagonal=True,
                              tol=tol)


def _hand_view(M):
    """(check level, column extent, table of S(k; l) by (rows, columns),
    tail) of one side of a dominance check, its sums taken by hand: a
    model's by `window_tail_table`, a finite matrix's, or the hand-built
    `extended_fold` of a truncation's, by `pairwise_table`."""
    if isinstance(M, TruncatedGenerator):
        level = max(M.base.bm_check_level(), M.n + M.base.upper_hint() + 2)
        return level, lambda k: max(M.n, k) + 1, lambda rows, cols: pairwise_table(
            FiniteBlockMatrix(M.d, extended_fold(M, max(rows, cols) - 1 - M.n)), rows, cols), None
    if isinstance(M, FiniteBlockMatrix):
        return M.n, lambda k: M.n + 1, lambda rows, cols: pairwise_table(M, rows, cols), None
    level = M.bm_check_level()
    return (level, lambda k: k + M.upper_hint() + 1,
            lambda rows, cols: window_tail_table(M, rows, cols), M.row_tail(level))


def hand_dominates(M, M_tilde, tol=TAU_ORD):
    """`generator_dominates` by `table_order_oracle` over `_hand_view`
    tables and the geometric tails past them in closed form."""
    a_top, a_ext, a_table, a_tail = _hand_view(M)
    b_top, b_ext, b_table, b_tail = _hand_view(M_tilde)
    k_top = max(a_top, b_top)
    col_top = np.array([max(a_ext(k), b_ext(k)) for k in range(k_top + 1)])
    shape = (k_top + 1, int(col_top.max()) + 1)
    valid = np.arange(shape[1]) <= col_top[:, None]
    report, tau, slack = table_order_oracle(a_table(*shape), b_table(*shape), valid, tol=tol)
    tail_rep = _tail_beyond(a_tail, b_tail, k_top, tau)
    if tail_rep is not None and tail_rep[1] > max(0.0, -report.margin):
        report = DominanceReport(holds=tail_rep[1] <= tau, worst_violation=tail_rep,
                                 margin=min(report.margin, -tail_rep[1]))
    return report, tau, slack


def assert_same_scan(found, expected, tau, slack, tol=TAU_ORD):
    """A report agrees with `table_order_oracle`'s (expected, tau, slack):
    the verdict, the margin to 1e-14 times the scale, and where the check
    fails, the worst place, or one whose slack is as small to that much."""
    rounding = 1e-14 * tau / tol
    assert found.holds == expected.holds, (found, expected)
    assert found.margin == expected.margin or (
        abs(found.margin - expected.margin) <= rounding), (found, expected)
    where = found.worst_violation and found.worst_violation[0]
    if not expected.holds and where != expected.worst_violation[0]:
        assert abs(slack(*where) - expected.margin) <= rounding, (found, expected)


def banded_two_down(rng):
    """A conservative d = 2 `BandedModel` with L = U = 2, level-homogeneous
    from level 3; row k's diagonal block makes it conservative."""
    rows = {}
    for k in range(4):
        offsets = [0] + [o for o in range(-min(k, 2), 3) if o != 0]
        rows[k] = dict(zip(offsets, conservative_blocks(rng, 2, len(offsets))))
    return BandedModel(d=2, L=2, U=2, K_hom=3, rows=rows)


# d = 1, L = 2: levels 2 and 4 only go up, level 3 jumps down to level 1,
# and the rows from level 5 on go down one or two levels.  An lc corner at
# level 2 or 4 folds that level's up rate back onto itself, which closes the
# level off; every deeper lc corner and every fc corner is irreducible.
UP_ONLY_ROWS = {
    0: {0: [[-1.0]], 1: [[1.0]]},
    1: {-1: [[2.0]], 0: [[-3.0]], 1: [[1.0]]},
    2: {0: [[-1.0]], 1: [[1.0]]},
    3: {-2: [[2.0]], 0: [[-3.0]], 1: [[1.0]]},
    4: {0: [[-1.0]], 1: [[1.0]]},
    5: {-2: [[1.0]], -1: [[1.0]], 0: [[-3.0]], 1: [[1.0]]},
}


def up_only_banded():
    """The `BandedModel` of `UP_ONLY_ROWS`."""
    rows = {k: {o: np.array(m) for o, m in row.items()} for k, row in UP_ONLY_ROWS.items()}
    return BandedModel(d=1, L=2, U=1, K_hom=5, rows=rows)


def conservative_blocks(rng, d, count):
    """`count` nonnegative blocks whose first gets a diagonal that makes
    the sum of them all conservative."""
    blocks = [rng.uniform(0.05, 0.5, (d, d)) for _ in range(count)]
    np.fill_diagonal(blocks[0], 0.0)
    blocks[0] -= np.diag(sum(b.sum(axis=1) for b in blocks))
    return blocks


def banded_queue_rows(queue):
    """The d = 2 conftest queue's rows as a `BandedModel`, level-homogeneous
    from its constant service on."""
    return BandedModel(d=2, L=1, U=3, K_hom=2, rows={
        k: {l - k: queue.block(k, l) for l in range(max(k - 1, 0), k + 4)} for k in range(3)
    })


def tailed_mg1_parts(rng):
    """(repeat, boundary, tail) of a conservative d = 2 M/G/1-type model whose
    repeating row ends in a geometric tail; the tail's mass moves into A(0)'s
    diagonal."""
    A0, Am1, A1, A2 = conservative_blocks(rng, 2, 4)
    B0, B1, B2 = conservative_blocks(rng, 2, 3)
    tail = GeometricTail(coef=rng.uniform(0.05, 0.3, (2, 2)), ratio=0.5)
    A0 -= np.diag(tail.sum_from(3).sum(axis=1))
    return [Am1, A0, A1, A2], [B0, B1, B2], tail


def tailed_mg1(rng):
    """The model of `tailed_mg1_parts`."""
    return Mg1Model(2, *tailed_mg1_parts(rng))


def mg1_block(repeat, boundary, tail, k, l):
    """Q(k; l) of the M/G/1-type generator, one rule per row kind.

    Row 0 is B(0), B(1), ... and nothing past them; row k >= 1 is A(-1),
    A(0), ... from column k - 1 on, then the tail block coef * ratio**(l - k).
    """
    zero = np.zeros_like(repeat[0], dtype=float)
    if l < 0:
        return zero
    if k == 0:
        return np.asarray(boundary[l], dtype=float) if l < len(boundary) else zero
    o = l - k
    if o < -1:
        return zero
    if o + 1 < len(repeat):
        return np.asarray(repeat[o + 1], dtype=float)
    if tail is not None:
        return tail.coef * tail.ratio ** o
    return zero


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
        for l, frac in spec.targets.items():
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


def offset_constants(B, beta, rec, k_cap):
    """First offset level K and its (c', b') from a deep window of levels.

    c'(K), the infimum of the decay bracket
    mu(k)(1 - 1/beta) + psi(1 - beta^-k) - delta_D(beta) over k > K, is
    taken as its minimum over levels K+1 .. 2 max(stable_from, k_cap + 1),
    twice as deep as the search's window, so it does not lean on the
    search's premise that the bracket never falls past the mu table.  For
    K = 0, 1, ... up to k_cap the first positive one wins.  `rec` supplies
    delta_D(beta) and u(beta).  Returns (K, c', b') or None, with b' = inf
    where beta**K passes the float range.
    """
    delta = rec.eigenvalue
    psi = B.psi

    def bracket(k):
        return B.mu(k) * (1.0 - 1.0 / beta) + psi * (1.0 - beta ** (-k)) - delta

    top = 2 * max(B.mu.stable_from, k_cap + 1)
    # deep[K] is the minimum over levels K+1 .. top
    deep = list(itertools.accumulate((bracket(k) for k in range(top, 0, -1)), min))[::-1]
    for K in range(k_cap + 1):
        c_prime = deep[K]
        if c_prime > 0.0:
            if math.log(beta) * K > math.log(np.finfo(float).max):
                return K, c_prime, math.inf
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
    mus = _mu_levels(B).tolist()

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
    the lower one lies within it of 0.  A row does not depend on the bases
    it shares the table with: tables of single bases and of parts give the
    whole grid's rows bit for bit.  Returns the table's K and b'.
    """
    grid = _beta_grid(B)
    mus = _mu_levels(B)
    perron = _grid_perron(B, grid)
    table = _offset_table(B, grid, *perron, mus)
    for split in ([[i] for i in range(grid.size)],
                  np.array_split(np.arange(grid.size), [1, 7, 100, 101, 150])):
        for part in split:
            rows = _offset_table(B, grid[part], perron[0][part], perron[1][part], mus)
            for found, whole in zip(rows, table):
                np.testing.assert_array_equal(found, whole[part])
    K, c_prime, b_prime = table
    scores = _offset_scores(B, K, c_prime, b_prime)
    objective = serial_objective(B)
    mu_list = mus.tolist()
    for beta, k, c, b, score in zip(grid, K, c_prime, b_prime, scores):
        found = _disaster_constants(B, beta, mu_list)
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


def whole_grid_scores(B):
    """The disaster search's grid scores from one `_grid_perron` call and
    one `_offset_table` over the whole grid."""
    grid = _beta_grid(B)
    return _offset_scores(B, *_offset_table(B, grid, *_grid_perron(B, grid), _mu_levels(B)))


def whole_grid_c(B):
    """The disaster-free search's grid scores, c(beta) = inf mu (1 - 1/beta)
    - delta_D(beta), from one `_grid_perron` call over the whole grid."""
    grid = _beta_grid(B)
    return B.mu.infimum() * (1.0 - 1.0 / grid) - _grid_perron(B, grid)[0]


def searched_grid_scores(B):
    """The grid scores the search computes, -inf where it stopped before
    scoring, caught on their way to its argmax."""
    seen = []
    real = bmap._grid_scores

    def caught(*args):
        seen.append(real(*args))
        return seen[-1]

    with mock.patch.object(bmap, "_grid_scores", caught):
        (find_beta_no_disaster if B.psi == 0.0 else find_constants_disaster)(B)
    assert len(seen) == 1
    return seen[0]


def assert_searched_up_to(B, oracle, last):
    """The search's grid scores are `oracle` bit for bit up to the end of
    the part that holds base `last`, and -inf from there on.  A part holds
    GRID_PART bases.  Returns that end."""
    stop = min((last // GRID_PART + 1) * GRID_PART, GRID_POINTS)
    found = searched_grid_scores(B)
    np.testing.assert_array_equal(found[:stop], oracle[:stop])
    assert (found[stop:] == -math.inf).all()
    return stop


def assert_peak_prefix(B):
    """The disaster-free search scores its grid up to the end of the first
    part that holds a fall, bit for bit `whole_grid_c`.  Returns that end."""
    oracle = whole_grid_c(B)
    falls = np.flatnonzero(np.diff(oracle) < 0.0)
    return assert_searched_up_to(B, oracle, falls[0] + 1 if falls.size else GRID_POINTS - 1)


def assert_feasible_prefix(B):
    """The two facts the disaster search's skips rest on, and the skips.

    c'(K) from `_offset_rates` on the whole bracket never decreases in K at
    any grid base, the bases with a finite score form a prefix of the grid,
    and the search's part-by-part scores are `whole_grid_scores` bit for
    bit up to the end of the first part whose last base scores -inf, and
    -inf from there on.  Returns that end.
    """
    grid = _beta_grid(B)
    mus = _mu_levels(B)
    deltas = _grid_perron(B, grid)[0][:, None]
    bracket = mus * (1.0 - 1.0 / grid[:, None]) + B.psi * (
        1.0 - grid[:, None] ** -np.arange(mus.size)) - deltas
    assert (np.diff(_offset_rates(bracket), axis=1) >= 0.0).all()
    oracle = whole_grid_scores(B)
    feasible = int(np.isfinite(oracle).sum())
    assert np.isfinite(oracle[:feasible]).all(), oracle
    return assert_searched_up_to(B, oracle, min(feasible, grid.size - 1))


def assert_bracket_never_falls_past_the_table(B, betas, deltas):
    """The premise of c'(K)'s one rule: from stable_from through the last
    level `_mu_levels` holds, at least K_CAP + 1, the decay bracket
    mu(k)(1 - 1/beta) + psi(1 - beta^-k) - delta_D(beta) never falls, at
    each of `betas` with its root in `deltas`.  Both forms the search
    evaluates are checked: the offset scan's, on Python floats with the
    scalar pow, and the table's, one array expression over all the bases
    with numpy's array pow."""
    mus = _mu_levels(B)
    stable = B.mu.stable_from
    betas = np.asarray(betas, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    beta = betas[:, None]
    table = mus * (1.0 - 1.0 / beta) + B.psi * (1.0 - beta ** -np.arange(mus.size)) \
        - deltas[:, None]
    assert (np.diff(table[:, stable:], axis=1) >= 0.0).all()
    for beta, delta in zip(betas.tolist(), deltas.tolist()):
        slope = 1.0 - 1.0 / beta
        scan = [m * slope + B.psi * (1.0 - beta ** (-k)) - delta
                for k, m in enumerate(mus.tolist())]
        assert all(a <= b for a, b in zip(scan[stable:], scan[stable + 1:])), beta


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
    reset needs psi > 0); phases that switch freely, at the arrival time
    scale or 10**4 times faster, or step along a cycle 0 -> 1 -> ... -> d-1
    that only batches close, which can make delta_D concave in z (as
    sqrt(z) - 1 at d = 2); and loads lambda / inf mu from 0.3 up to 0.999.
    The service rate is set from the arrival rate measured on the drawn
    blocks, so the load holds exactly.  All phases switch on one time scale,
    a cycle's steps on that of the batches that close it: with phases 10**4
    apart, row slacks sit below the rounding of their own sums and
    drift_check's tolerance cannot tell them from zero.
    """
    d = draw(st.integers(1, 8))
    k_max = draw(st.integers(1, 3))
    tail_ratio = draw(st.sampled_from([None, 0.3, 0.6]))
    rule = draw(st.sampled_from(["constant", "table", "affine", "reset"]))
    rho = draw(st.sampled_from([0.3, 0.8, 0.99, 0.999]))
    psi_share = draw(st.sampled_from([0.01, 1.0] if rule == "reset" else [0.0, 0.01, 1.0]))
    cycle = draw(st.booleans())
    spread = draw(st.sampled_from([1.0] if cycle else [1.0, 1e4]))
    return regime_queue(d, k_max, tail_ratio, rule, rho, psi_share, cycle, spread,
                        draw(st.integers(0, 2 ** 32 - 1)))


def regime_queue(d, k_max, tail_ratio, rule, rho, psi_share, cycle, spread, seed):
    """The queue `regime_queues` draws with these choices, its random rates
    from numpy's generator seeded with seed."""
    rng = np.random.default_rng(seed)
    off = rng.uniform(0.2, 1.0, (d, d)) * spread
    np.fill_diagonal(off, 0.0)
    # a batch moves the phase anywhere, or only from d-1 back to 0
    reach = np.ones((d, d))
    if cycle:
        off *= np.eye(d, k=1)
        reach = np.eye(d, k=1 - d)
    batches = [rng.uniform(0.05, 0.5, (d, d)) * 0.5 ** k * reach for k in range(k_max)]
    tail, tail_mass = None, np.zeros((d, d))
    if tail_ratio is not None:
        tail = GeometricTail(coef=rng.uniform(0.02, 0.1, (d, d)) * reach, ratio=tail_ratio)
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


def order_scale(*arrays):
    """The ordering checks' tolerance scale: the largest finite |entry| of
    the arrays compared, at least 1; a NaN or an infinity adds nothing."""
    return max([1.0] + [abs(x) for a in arrays for x in np.ravel(a) if math.isfinite(x)])


def flat_report(slack, tau, index_of=None):
    """An ordering report from a slack array that must be >= -tau everywhere,
    as the finite-matrix and vector checks built it on their own: the first
    NaN, or else the first least entry, in C order, located by its index."""
    if slack.size == 0:
        return DominanceReport(holds=True, worst_violation=None, margin=np.inf)
    flat = int(np.argmin(slack))
    idx = np.unravel_index(flat, slack.shape)
    if index_of is not None:
        idx = index_of(idx)
    margin = float(slack.reshape(-1)[flat])
    margin = -math.inf if math.isnan(margin) else margin
    magnitude = max(0.0, -margin)
    return DominanceReport(holds=magnitude <= tau,
                           worst_violation=(tuple(int(i) for i in idx), magnitude),
                           margin=margin)


def finite_order_oracle(values, d, skip_diagonal=False, tol=TAU_ORD):
    """Block monotonicity of a finite matrix from the entries of
    inv(T_d) M T_d, its diagonal dropped for a generator.  Its location is
    an index into the flat slack, not (k, i, l, j).  The tolerance is tol
    times `order_scale` of the tail sums M T_d, the rule of the scan; a
    finite matrix's used to be scaled by its largest entry instead."""
    tails = td_transform(values, d)
    # block row k minus block row k - 1
    slack = tails.copy()
    slack[d:] -= tails[:-d]
    if skip_diagonal:
        slack = slack[~np.eye(len(slack), dtype=bool)]
    return flat_report(slack, tol * order_scale(tails))


def vector_order_oracle(lower, upper, tol=TAU_ORD):
    """lower <= upper entrywise for two (levels, d) arrays, located at
    (level, phase)."""
    return flat_report(upper - lower, tol * order_scale(lower, upper),
                       index_of=lambda ij: (ij[0], ij[1]))


def table_order_oracle(lower, upper, valid, first=0, skip_diagonal=False, tol=TAU_ORD):
    """lower(k, l) <= upper(k, l) for two tables of blocks, shape (rows,
    columns, d, d), whose row r is level first + r, at the (k, l) pairs
    valid marks, off the entries (k,i;k,i) with skip_diagonal; located at
    (k, i, l, j).  Returns the report, the scaled tolerance and the slack
    at (k, i, l, j)."""
    slack = np.where(valid[..., None, None], upper - lower, math.inf)
    for r in range(len(slack)) if skip_diagonal else ():
        if r + first < slack.shape[1]:
            np.fill_diagonal(slack[r, r + first], math.inf)
    tau = tol * order_scale(lower[valid], upper[valid])
    report = flat_report(slack, tau, index_of=lambda ij: (ij[0] + first, ij[2], ij[1], ij[3]))
    return report, tau, lambda k, i, l, j: float(slack[k - first, l, i, j])


def vector_dominates_oracle(mu, eta, d, tol=TAU_ORD):
    """`vector_order_oracle` of the per-phase tail sums of the two vectors,
    the shorter one padded with zeros."""
    n = max(len(mu), len(eta)) // d
    tails = []
    for x in (mu, eta):
        padded = np.zeros((n, d))
        padded[: len(x) // d] = np.reshape(x, (-1, d))
        tails.append(np.flip(np.cumsum(np.flip(padded, 0), 0), 0))
    return vector_order_oracle(*tails, tol)


def _perturb(rng, values, noise, nan):
    """values plus zero-row-sum noise of the given size, and optionally one
    NaN entry."""
    jitter = noise * rng.normal(size=values.shape)
    out = values + (jitter - jitter.mean(axis=-1, keepdims=True))
    if nan:
        out[np.unravel_index(int(rng.integers(out.size)), out.shape)] = np.nan
    return out


@st.composite
def finite_order_cases(draw):
    """(Q, P, d): a generator and the kernel I + Q / (2 max |q_ii|) made
    from it, over one to five levels of d <= 3 phases.  Q is a queue's
    last-column corner, block monotone, or a random generator with rates
    up to 5 and half its entries zero.  Both get 1e-11 noise or none, and
    one NaN entry or none."""
    d = draw(st.integers(1, 3))
    levels = draw(st.integers(1, 5))
    corner = levels > 1 and draw(st.booleans())
    noise = draw(st.sampled_from([0.0, 1e-11]))
    nan = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if corner:
        Q = lc_truncate(random_bmap(rng, d=d), levels - 1).matrix.values.copy()
    else:
        size = levels * d
        Q = rng.uniform(0.0, 5.0, (size, size)) * (rng.random((size, size)) < 0.5)
        np.fill_diagonal(Q, 0.0)
        np.fill_diagonal(Q, -Q.sum(axis=1))
    P = np.eye(len(Q)) + Q / (2.0 * max(1.0, float(np.abs(np.diag(Q)).max())))
    return _perturb(rng, Q, noise, nan), _perturb(rng, P, noise, nan), d


@st.composite
def vector_order_cases(draw):
    """(mu, eta, f, d) over d <= 4 phases: mu a distribution on one to six
    levels; eta mu with 1e-11 noise or an independent distribution whose
    length may differ; f nondecreasing in level, with flat steps, with
    1e-11 noise or none.  mu and f may carry one NaN entry."""
    d = draw(st.integers(1, 4))
    levels = draw(st.integers(1, 6))
    near = draw(st.booleans())
    other = draw(st.integers(1, 6))
    noise = draw(st.sampled_from([0.0, 1e-11]))
    nan = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mu = rng.dirichlet(np.ones(levels * d))
    eta = mu + 1e-11 * rng.normal(size=mu.shape) if near else rng.dirichlet(np.ones(other * d))
    steps = rng.uniform(0.0, 1.0, (levels, d)) * (rng.random((levels, d)) < 0.5)
    f = steps.cumsum(axis=0).ravel() + noise * rng.normal(size=levels * d)
    if nan:
        mu[int(rng.integers(mu.size))] = np.nan
        f[int(rng.integers(f.size))] = np.nan
    return mu, eta, f, d


@st.composite
def sparse_generators(draw):
    """(G, d): a random irreducible generator over 1 to 40 levels of d <= 5
    phases.  Its rates are spread over six decades, on a random pattern of
    density 0.03 to 0.5 within a band of levels, plus a random cycle through
    every state, which makes it irreducible and links far states.  Rows may
    also be folded onto column 0, as a first-column corner folds them, and
    the upper triangle past the band may be dense, as a geometric tail
    makes it."""
    d = draw(st.integers(1, 5))
    levels = draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.03, 0.15, 0.5]))
    down, up = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    fold = draw(st.booleans())
    tail = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = levels * d
    level = np.arange(size) // d
    gap = level[None, :] - level[:, None]
    pattern = (gap >= -down) & (gap <= up) & (rng.random((size, size)) < density)
    cycle = rng.permutation(size)
    pattern[cycle, np.roll(cycle, -1)] = True
    if fold:
        pattern[:, 0] |= rng.random(size) < 0.5
    if tail:
        pattern |= gap > up
    rates = rng.uniform(0.1, 1.0, (size, size)) * 10.0 ** rng.uniform(-3.0, 3.0, (size, size))
    G = np.where(pattern, rates, 0.0)
    np.fill_diagonal(G, 0.0)
    np.fill_diagonal(G, -G.sum(axis=1))
    return G, d
