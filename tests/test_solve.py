import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given
from hypothesis import strategies as st

from bmtrunc import (
    CertificateNotVerified,
    DimensionMismatch,
    DistributionVector,
    FiniteBlockMatrix,
    GeometricVector,
    InputError,
    InvalidRedistribution,
    KNotZero,
    MultipleClosedClasses,
    NoConvergence,
    TruncationSpec,
    build_generator,
    custom_truncate,
    fc_truncate,
    lc_truncate,
    solve,
    solve_truncation,
    solve_truncations,
    stationary,
    transient_decay_check,
    transition_matrix,
    truncation,
    tv_distance,
    v_norm,
)
from bmtrunc.tolerances import POISSON_TAIL
from helpers import (
    banded_queue_rows,
    banded_two_down,
    dense_stationary,
    random_bmap,
    sparse_generators,
    tailed_mg1,
    tailed_queue,
    uniformized_per_time,
    up_only_banded,
)


def test_stationary_two_state_exact():
    G = np.array([[-1.0, 1.0], [2.0, -2.0]])
    pi = stationary(G, d=1)
    np.testing.assert_allclose(pi.values, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    # wrapping in a block matrix gives the same answer and carries d along
    pi2 = stationary(FiniteBlockMatrix(d=1, values=G))
    assert pi2.d == 1
    np.testing.assert_allclose(pi2.values, pi.values, atol=1e-15)


def test_stationary_residual_contract(fleet_models):
    for model in fleet_models.values():
        Q = lc_truncate(model, 30).matrix
        pi = stationary(Q)
        resid = float(np.abs(pi.values @ Q.values).max())
        scale = max(1.0, float(np.abs(np.diag(Q.values)).max()))
        assert resid <= 1e-12 * scale


def test_stationary_rejects_two_closed_classes():
    G = np.array([
        [-1.0, 1.0, 0.0, 0.0],
        [1.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, -2.0, 2.0],
        [0.0, 0.0, 3.0, -3.0],
    ])
    with pytest.raises(MultipleClosedClasses):
        stationary(G, d=1)


def test_stationary_state_never_entered_gets_no_mass():
    # no lower state leads to state 2, so its elimination has no rows to update
    G = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 0.0, -1.0]])
    pi = stationary(G, d=1).values
    np.testing.assert_array_equal(pi, dense_stationary(G))
    np.testing.assert_array_equal(pi, [0.5, 0.5, 0.0])


@pytest.mark.parametrize("n", [50, 200])
def test_stationary_matches_dense_elimination(fleet_models, n):
    # the fleet covers d = 1 and 2, with and without catastrophes (psi > 0)
    models = dict(fleet_models, queue_tail=tailed_queue())
    custom = TruncationSpec(n=n, style="custom", weights={0: 0.25, n // 2: 0.25, n: 0.5})
    for name, model in models.items():
        for corner in (lc_truncate(model, n), fc_truncate(model, n),
                       custom_truncate(model, custom)):
            pi = stationary(corner.matrix).values
            ref = dense_stationary(corner.matrix.values)
            np.testing.assert_array_equal(pi, ref, err_msg=f"{name} {corner.spec.style}")


def _corner_models(fleet_models):
    """Queues at d = 1, 2 and 8 with and without psi and at d = 24 with psi,
    a geometric tail, a banded model and an M/G/1-type model with a tail."""
    rng = np.random.default_rng(23)
    models = dict(fleet_models, queue_tail=tailed_queue())
    for d in (1, 8):
        for psi in (0.0, 0.4):
            models[f"d{d}_psi{psi}"] = random_bmap(rng, d=d, psi=psi)
    models["banded"] = banded_queue_rows(fleet_models["d2"])
    models["mg1_tail"] = tailed_mg1(rng)
    # wide blocks: a group is one level, and a row's runs of columns hold
    # level 0 apart from its band
    models["d24_psi0.4"] = random_bmap(rng, d=24, psi=0.4)
    return models


@pytest.mark.parametrize("name", ["d8_psi0.0", "d8_psi0.4", "d24_psi0.4"])
def test_wide_corners_match_dense_elimination(fleet_models, name):
    # an oracle that shares no code with the level-group elimination, at the
    # widest blocks of _corner_models; entries that underflow are left out
    model = _corner_models(fleet_models)[name]
    # the dense oracle is cubic in the corner's states, 984 at d = 24 and
    # n = 40, so the widest blocks stop at n = 20
    for n in (9, 40) if model.d == 8 else (9, 20):
        custom = TruncationSpec(n=n, style="custom", weights={0: 0.25, n // 2: 0.25, n: 0.5})
        for corner in (lc_truncate(model, n), fc_truncate(model, n),
                       custom_truncate(model, custom)):
            pi = solve_truncation(model, corner.spec).values
            ref = dense_stationary(corner.matrix.values)
            kept = ref > 1e-290
            assert kept.any()
            np.testing.assert_allclose(pi[kept], ref[kept], rtol=1e-12, atol=0.0,
                                       err_msg=f"{name} n={n} {corner.spec.style}")


def test_stationary_is_bit_identical_to_dense_elimination(fleet_models):
    # the fill-bounded updates leave out only exact zeros of the dense ones
    rng = np.random.default_rng(29)
    for name, model in _corner_models(fleet_models).items():
        for n in (9, 40):
            custom = TruncationSpec(n=n, style="custom",
                                    weights={0: 0.25, n // 2: 0.25, n: 0.5})
            for corner in (lc_truncate(model, n), fc_truncate(model, n),
                           custom_truncate(model, custom)):
                Q = corner.matrix
                expected = dense_stationary(Q.values)
                assert np.array_equal(stationary(Q).values, expected), (
                    f"{name} n={n} {corner.spec.style}")
                # the in-place solve of the same corner, from the model
                assert np.array_equal(solve_truncation(model, corner.spec).values, expected), (
                    f"{name} n={n} {corner.spec.style} in place")
    # raw arrays are eliminated in groups of GROUP_STATES (64) states,
    # whatever their blocks
    raw = [lc_truncate(random_bmap(rng, d=3, psi=0.2), 30).matrix.values,
           fc_truncate(tailed_queue(d=5), 12).matrix.values]
    dense = rng.uniform(0.0, 1.0, (37, 37))
    np.fill_diagonal(dense, 0.0)
    raw.append(dense - np.diag(dense.sum(axis=1)))
    for G in raw:
        assert np.array_equal(stationary(G).values, dense_stationary(G))


@given(case=sparse_generators())
@example(case=(np.array([[-1.0, 1.0], [1e-20, -1e-20]]), 1))
def test_stationary_is_dense_elimination_on_sparse_generators(case):
    # far links, folds onto column 0 and dense upper triangles move a
    # pivot's first row and column below its own as fill spreads down.  A
    # draw whose paths back down are too weak for its pivot floor is
    # refused by the dense elimination, and must be refused alike
    G, d = case
    try:
        expected = dense_stationary(G)
    except MultipleClosedClasses as exc:
        with pytest.raises(MultipleClosedClasses) as refused:
            stationary(G, d)
        assert str(refused.value) == str(exc)
    else:
        assert np.array_equal(stationary(G, d).values, expected)


@pytest.mark.parametrize("specs", [[], (), iter(())], ids=["list", "tuple", "iterator"])
def test_solve_truncations_of_no_specs_is_empty(fleet_models, specs, monkeypatch):
    # nothing is built: the stack of corners is never allocated
    def refuse(*args):
        raise AssertionError("a corner stack was allocated")

    monkeypatch.setattr(solve, "zero_corners", refuse)
    assert solve_truncations(fleet_models["d2"], specs) == []


def test_solve_truncations_is_solve_truncation_bit_for_bit(fleet_models):
    # the fleet with a tailed queue, psi > 0, an M/G/1-type model and banded
    # models with L = 1 and 2; one call per model mixes n = 1..8 in an order
    # that is not monotone with lc, fc and custom corners, whose weights put
    # mass on an interior level, so the stack's slots are not in spec order
    models = dict(_corner_models(fleet_models),
                  banded_two_down=banded_two_down(np.random.default_rng(43)))
    specs = []
    for n in (5, 1, 8, 3, 2, 7, 4, 6):
        specs += [TruncationSpec(n=n, style="fc"), TruncationSpec(n=n)]
        if n >= 2:
            specs.append(TruncationSpec(n=n, style="custom",
                                        weights={0: 0.25, n // 2: 0.25, n: 0.5}))
    for name, model in models.items():
        stacked = solve_truncations(model, specs)
        assert len(stacked) == len(specs)
        for spec, pi in zip(specs, stacked):
            alone = solve_truncation(model, spec)
            assert np.array_equal(pi.values, alone.values), f"{name} n={spec.n} {spec.style}"
            assert (pi.d, pi.n, pi.source) == (alone.d, alone.n, alone.source)


@given(cases=st.lists(sparse_generators(), min_size=2, max_size=4))
def test_stacked_elimination_is_dense_elimination_on_sparse_generators(cases):
    # generators of different sizes and block sizes, zero-padded into one
    # stack: each pivot's fill bounds are the union over the corners that
    # take part in it, and its groups follow the largest corner's block
    # size.  A draw whose paths back down are too weak for its pivot floor
    # is refused by the dense elimination, and its slot must be refused alike
    cases = sorted(cases, key=lambda case: -case[0].shape[0])
    sizes = [G.shape[0] for G, _ in cases]
    S = np.zeros((sizes[0], len(cases), sizes[0]))
    for k, (G, _) in enumerate(cases):
        S[:sizes[k], k, :sizes[k]] = G
    results = solve._eliminate(S, sizes, cases[0][1])
    for (G, _), result in zip(cases, results):
        try:
            expected = dense_stationary(G)
        except MultipleClosedClasses as exc:
            assert isinstance(result, MultipleClosedClasses) and str(result) == str(exc)
        else:
            assert np.array_equal(result[0], expected)


def test_a_stack_raises_the_first_refusal_in_spec_order():
    # the lc corners at levels 2 and 4 are reducible; the stack meets level
    # 4's zero pivot first, whichever spec comes first.  Tier-1 turns any
    # RuntimeWarning into an error, so the refused corners divide by nothing
    # that warns
    model = up_only_banded()
    two, four, fc = TruncationSpec(n=2), TruncationSpec(n=4), TruncationSpec(n=4, style="fc")
    for specs, first, state in (([two, fc, four], two, 2), ([fc, four, two], four, 4)):
        with pytest.raises(MultipleClosedClasses) as alone:
            solve_truncation(model, first)
        with pytest.raises(MultipleClosedClasses, match=f"at state {state}:") as stacked:
            solve_truncations(model, specs)
        assert str(stacked.value) == str(alone.value)
    # the irreducible corners of such a stack still solve, bit for bit
    two_fc = TruncationSpec(n=2, style="fc")
    pis = solve_truncations(model, [two_fc, fc, TruncationSpec(n=16)])
    for spec, pi in zip([two_fc, fc, TruncationSpec(n=16)], pis):
        assert np.array_equal(pi.values, solve_truncation(model, spec).values)


def test_a_stack_raises_a_failed_truncation_after_the_specs_before_it(monkeypatch):
    model = up_only_banded()
    real = solve.truncation

    def broken_fc(M, spec, out=None):
        if spec.style == "fc":
            raise InvalidRedistribution("broken fold")
        return real(M, spec, out)

    monkeypatch.setattr(solve, "truncation", broken_fc)
    two, fc = TruncationSpec(n=2), TruncationSpec(n=4, style="fc")
    with pytest.raises(MultipleClosedClasses, match="at state 2:"):
        solve_truncations(model, [two, fc])
    with pytest.raises(InvalidRedistribution, match="broken fold"):
        solve_truncations(model, [fc, two])


def test_corner_product_is_the_dense_residual(fleet_models):
    rng = np.random.default_rng(37)
    for name, model in _corner_models(fleet_models).items():
        # a tailed model's tail blocks add up by a running sum over the
        # levels: n = 400 checks a long one
        tailed = model.layout(9).tail is not None
        for n in (9, 40, 400) if tailed else (9, 40):
            specs = (TruncationSpec(n=n), TruncationSpec(n=n, style="fc"),
                     TruncationSpec(n=n, style="custom",
                                    weights={0: 0.25, n // 2: 0.25, n: 0.5}))
            for spec in specs:
                trunc = truncation(model, spec)
                Q = trunc.matrix.values
                x = rng.uniform(0.01, 1.0, Q.shape[0])
                dense = x @ Q
                scale = max(1.0, float(np.max(x @ np.abs(Q))))
                err = float(np.max(np.abs(trunc.corner_product(x) - dense)))
                assert err <= 1e-14 * scale, f"{name} n={n} {spec.style}: {err:.3e}"


def test_solve_truncation_refuses_a_vector_that_breaks_the_contract(monkeypatch, fleet_models):
    model = fleet_models["d2"]
    real = solve._eliminate

    def off_by_a_little(S, sizes, d):
        results = real(S, sizes, d)
        for x, _ in results:
            x[-1] += 1e-6
        return results

    monkeypatch.setattr(solve, "_eliminate", off_by_a_little)
    for spec in (TruncationSpec(n=30), TruncationSpec(n=30, style="fc")):
        with pytest.raises(NoConvergence, match="stationary residual"):
            solve_truncation(model, spec)


def test_solve_truncation_holds_one_corner(fleet_models):
    # N = 700 states: the corner is 3.9 MB, and a copy of it would pass the cap
    model, spec = fleet_models["d2"], TruncationSpec(n=349)
    N = (spec.n + 1) * model.d
    solve_truncation(model, spec)
    tracemalloc.start()
    try:
        solve_truncation(model, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * N * N, f"peak {peak / 8 / N / N:.2f} corners"


def test_reducible_corner_fails_at_the_scalar_loops_state():
    rng = np.random.default_rng(31)
    # closed classes on states 0..19 and 20..44, and 13 top states that lead
    # only into the first: the pivot vanishes at state 20, inside the one
    # group of states 1..57
    G = np.zeros((58, 58))
    G[:20, :20] = rng.uniform(0.1, 1.0, (20, 20))
    G[20:45, 20:45] = rng.uniform(0.1, 1.0, (25, 25))
    G[45:, :20] = rng.uniform(0.1, 1.0, (13, 20))
    np.fill_diagonal(G, 0.0)
    G -= np.diag(G.sum(axis=1))
    with pytest.raises(MultipleClosedClasses) as expected:
        dense_stationary(G)
    with pytest.raises(MultipleClosedClasses) as found:
        stationary(G, d=1)
    assert str(found.value) == str(expected.value)
    assert "at state 20:" in str(found.value)


def test_single_phase_queue_is_truncated_geometric(mm1):
    # the last-column corner of the rate-1/rate-2 queue keeps detailed
    # balance, so its stationary law is the geometric law conditioned on
    # {0..n}
    n, rho = 10, 0.5
    Q = lc_truncate(build_generator(mm1), n).matrix
    pi = stationary(Q)
    expected = (1 - rho) * rho ** np.arange(n + 1) / (1 - rho ** (n + 1))
    np.testing.assert_allclose(pi.values, expected, atol=1e-12)


def test_transition_matrix_matches_dense_exponential():
    rng = np.random.default_rng(5)
    Q = lc_truncate(build_generator(random_bmap(rng)), 5).matrix
    for t in (0.3, 1.7):
        P = transition_matrix(Q, t)
        np.testing.assert_allclose(P.values, scipy.linalg.expm(t * Q.values),
                                   atol=1e-11)
        np.testing.assert_allclose(P.values.sum(axis=1), 1.0, atol=1e-12)
        assert P.values.min() >= -1e-15
    np.testing.assert_allclose(transition_matrix(Q, 0.0).values,
                               np.eye(Q.values.shape[0]), atol=1e-15)


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf, -math.inf])
def test_transition_matrix_refuses_a_time_that_is_not_finite_and_nonnegative(t):
    Q = np.array([[-1.0, 1.0], [2.0, -2.0]])
    with pytest.raises(InputError, match="time must be finite and >= 0"):
        transition_matrix(Q, t)


@pytest.mark.parametrize("tol", [math.nan, 2.0, 1.0, -1e-3, math.inf])
def test_transition_matrix_refuses_a_tail_tolerance_outside_0_1(tol):
    # a tol of 1 or more cut the series after its first term: rows of P(1)
    # summed to exp(-2) = 0.135
    Q = np.array([[-1.0, 1.0], [2.0, -2.0]])
    with pytest.raises(InputError, match=r"tolerance must lie in \[0, 1\)"):
        transition_matrix(Q, 1.0, tol=tol)


def test_transition_matrix_at_a_zero_tail_tolerance_is_stochastic():
    P = transition_matrix(np.array([[-1.0, 1.0], [2.0, -2.0]]), 1.0, tol=0.0).values
    np.testing.assert_allclose(P.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)


def test_uniformized_vector_matches_transition_matrix(d2_psi05):
    Q = lc_truncate(build_generator(d2_psi05), 60).matrix.values
    rng = np.random.default_rng(2)
    p0 = rng.dirichlet(np.ones(Q.shape[0]))
    for t in (0.0, 1.0, 5.0):
        np.testing.assert_allclose(solve._uniformized(Q, p0, [t], 1e-12)[0],
                                   p0 @ transition_matrix(Q, t).values,
                                   rtol=0.0, atol=1e-14)


def test_uniformized_times_share_one_term_sequence(d2_psi05):
    Q = lc_truncate(build_generator(d2_psi05), 40).matrix.values
    p0 = np.random.default_rng(4).dirichlet(np.ones(Q.shape[0]))
    times = (5.0, 0.0, 1.0, 17.3, 5.0)
    for start in (p0, np.eye(Q.shape[0])[:3]):
        found = solve._uniformized(Q, start, times, 1e-12)
        assert len(found) == len(times)
        for t, out in zip(times, found):
            assert np.array_equal(out, uniformized_per_time(Q, start, t, 1e-12)), t


def test_decay_report_is_the_per_time_report(monkeypatch, fleet_models, fleet_certs):
    args = (fleet_models["d2"], fleet_certs["d2"], (0.5, 1.0, 5.0))
    shared = transient_decay_check(*args, start_level=3, n_ref=60)
    monkeypatch.setattr(solve, "_uniformized", lambda values, start, times, tol: [
        uniformized_per_time(values, start, t, tol) for t in times])
    per_time = transient_decay_check(*args, start_level=3, n_ref=60)
    assert shared == per_time


def _poisson_series(lam, tol):
    """The Poisson series of uniformization, term by term, until the mass
    left is below tol: the loop the default tol's weights must match."""
    weights = [math.exp(-lam)]
    cum = weights[0]
    while cum < 1.0 - tol:
        weights.append(weights[-1] * lam / len(weights))
        cum += weights[-1]
    return np.array(weights)


def test_poisson_weights_at_the_default_tol_are_unchanged():
    for lam in (1e-3, 0.7, 5.45, 27.25, 50.0, 123.4, 400.0, 699.9):
        assert np.array_equal(solve._poisson_weights(lam, 1e-12), _poisson_series(lam, 1e-12))


def test_poisson_weights_end_where_float64_stops_resolving_tol():
    # 1 - 1e-16 lies above the float sum of the Poisson(50) pmf: the series
    # used to run forever, so the check runs in a process of its own
    code = (
        "import numpy as np\n"
        "from bmtrunc import solve, transition_matrix\n"
        "w = solve._poisson_weights(50.0, 1e-16)\n"
        "assert abs(w.sum() - 1.0) < 1e-15 and w[-1] < 1e-15, w\n"
        "P = transition_matrix(np.array([[-1.0, 1.0], [1.0, -1.0]]), 50.0, tol=1e-16)\n"
        "assert np.allclose(P.values, 0.5, atol=1e-15), P.values\n"
    )
    src = os.path.dirname(os.path.dirname(solve.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_transition_matrix_semigroup():
    rng = np.random.default_rng(11)
    Q = lc_truncate(build_generator(random_bmap(rng)), 4).matrix
    P1 = transition_matrix(Q, 1.0).values
    Ps = transition_matrix(Q, 0.3).values @ transition_matrix(Q, 0.7).values
    np.testing.assert_allclose(P1, Ps, atol=1e-9)


def test_long_horizon_rows_reach_stationarity(mm1):
    Q = lc_truncate(build_generator(mm1), 20).matrix
    pi = stationary(Q)
    P = transition_matrix(Q, 1e3)
    for row in P.values:
        np.testing.assert_allclose(row, pi.values, atol=1e-9)


@pytest.mark.parametrize("Q", [[[-1.0, 1.0], [math.nan, 0.0]],
                               [[-1.0, 1.0], [math.inf, -math.inf]]], ids=["nan", "inf"])
def test_solvers_refuse_a_rate_that_is_not_finite(Q):
    for G in (Q, FiniteBlockMatrix(1, Q)):
        with pytest.raises(InputError, match="NaN or infinite rate"):
            stationary(G)
        with pytest.raises(InputError, match="NaN or infinite rate"):
            transition_matrix(G, 1.0)


def test_residual_check_refuses_a_nan_residual():
    with pytest.raises(NoConvergence, match="stationary residual nan"):
        solve._check_residual(np.array([0.0, math.nan]), 1.0)


def test_transition_matrix_of_a_zero_generator_is_the_identity():
    # with no rate to uniformize by, sigma is taken as 1; the Poisson series
    # is cut with less than its tail tolerance left
    P = transition_matrix(np.zeros((3, 3)), 2.0).values
    np.testing.assert_allclose(P, np.eye(3), rtol=0.0, atol=POISSON_TAIL)


def test_stationary_refuses_a_matrix_with_no_states():
    for G in (np.zeros((0, 0)), FiniteBlockMatrix(2, np.zeros((0, 0)))):
        with pytest.raises(DimensionMismatch, match="at least one state"):
            stationary(G)


def test_stationary_refuses_a_block_size_that_does_not_divide_the_states():
    # a FiniteBlockMatrix refuses the same pair
    G = np.array([[-1.0, 1.0], [1.0, -1.0]])
    for d in (3, 0):
        with pytest.raises(DimensionMismatch):
            FiniteBlockMatrix(d, G)
        with pytest.raises(DimensionMismatch):
            stationary(G, d=d)
    assert stationary(G, d=2).d == 2


@pytest.mark.parametrize("a, b, shape", [
    ([[0.5, 0.5]], [1.0], "(1, 2)"),
    (np.eye(2), [1.0], "(2, 2)"),
    ([1.0], 1.0, "()"),
], ids=["row", "square", "scalar"])
def test_tv_distance_refuses_inputs_that_are_not_1d(a, b, shape):
    # held to 1-D as v_norm holds its vectors
    with pytest.raises(DimensionMismatch, match=re.escape(f"must be 1-D, got shape {shape}")):
        tv_distance(a, b)


def test_tv_distance_basics():
    a = DistributionVector(d=1, values=np.array([1.0, 0.0, 0.0]))
    b = DistributionVector(d=1, values=np.array([0.0, 0.0, 1.0]))
    assert tv_distance(a, b) == pytest.approx(2.0)
    assert tv_distance(a, a) == 0.0
    # shorter vectors are padded with zeros
    c = DistributionVector(d=1, values=np.array([0.5, 0.5]))
    assert tv_distance(a, c) == pytest.approx(1.0)
    with pytest.raises(DimensionMismatch):
        tv_distance(a, DistributionVector(d=2, values=np.array([0.5, 0.5])))


def test_tv_distance_triangle_inequality():
    rng = np.random.default_rng(3)
    for _ in range(25):
        x, y, z = (rng.random(6) for _ in range(3))
        x, y, z = x / x.sum(), y / y.sum(), z / z.sum()
        assert tv_distance(x, z) <= tv_distance(x, y) + tv_distance(y, z) + 1e-14


def test_v_norm_hand_value_and_guards():
    v = GeometricVector(beta=2.0, u=np.array([1.0]), shift=0.0)
    x = np.array([0.25, 0.25, 0.5])
    assert v_norm(x, v.levels(2)) == pytest.approx(2.75)
    with pytest.raises(DimensionMismatch):
        v_norm(np.ones(5), v.levels(2))
    with pytest.raises(InputError):
        v_norm(x, np.array([0.5, 2.0, 4.0]))


def test_v_norm_refuses_nan_weights():
    with pytest.raises(InputError):
        v_norm([0.5, 0.5], [math.nan, 1.0])
    with pytest.raises(InputError):
        v_norm([0.5, 0.5], [1.0, math.nan])


def test_v_norm_refuses_malformed_vectors():
    with pytest.raises(InputError, match="weight vector is empty"):
        v_norm([], [])
    with pytest.raises(DimensionMismatch, match=r"weight vector must be 1-D, got shape \(1, 2\)"):
        v_norm([1.0], [[1.0, 2.0]])
    with pytest.raises(DimensionMismatch, match=r"signed vector must be 1-D, got shape \(1, 1\)"):
        v_norm([[0.5]], [1.0, 1.0])


def test_geometric_vector_shift_skips_level_zero():
    v = GeometricVector(beta=2.0, u=np.array([1.0]), shift=0.25)
    np.testing.assert_allclose(v.levels(3), [1.0, 2.25, 4.25, 8.25])


def test_transient_decay_envelope(mm1, fleet_certs):
    rep = transient_decay_check(build_generator(mm1), fleet_certs["mm1"],
                                times=(0.0, 5.0), n_ref=60)
    assert rep.ok
    assert all(m <= l for m, l in zip(rep.measured, rep.limits))
    assert rep.eps_trunc < 1e-4


def test_transient_decay_check_propagates_a_vector(monkeypatch, fleet_models, fleet_certs):
    def no_matrix(*args, **kwargs):
        raise AssertionError("the decay check must not form P(t)")

    monkeypatch.setattr(solve, "transition_matrix", no_matrix)
    rep = transient_decay_check(fleet_models["d2"], fleet_certs["d2"],
                                times=(1.0, 5.0), n_ref=60)
    assert rep.ok


def test_transient_decay_check_guards(mm1, fleet_certs):
    G = build_generator(mm1)
    cert = fleet_certs["mm1"]
    with pytest.raises(KNotZero):
        transient_decay_check(G, dataclasses.replace(cert, K=3),
                              times=(0.0,), n_ref=40)
    with pytest.raises(CertificateNotVerified):
        transient_decay_check(G, dataclasses.replace(cert, verified=False),
                              times=(0.0,), n_ref=40)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_transient_decay_check_refuses_a_nonfinite_time(monkeypatch, mm1, fleet_certs, t):
    # the times are checked before the n_ref proxy is built
    calls = []
    monkeypatch.setattr(solve, "lc_truncate",
                        lambda *args: calls.append(args) or lc_truncate(*args))
    with pytest.raises(InputError, match="time must be finite and >= 0"):
        transient_decay_check(build_generator(mm1), fleet_certs["mm1"], times=(1.0, t),
                              n_ref=40)
    assert calls == []


@pytest.mark.parametrize("start_level", [-1, 101, 150])
def test_transient_decay_check_rejects_start_outside_the_proxy(mm1, fleet_certs,
                                                               start_level):
    # the start vector would be all zeros, so the check would measure nothing
    with pytest.raises(InputError, match="start level"):
        transient_decay_check(build_generator(mm1), fleet_certs["mm1"], times=(1.0,),
                              start_level=start_level, n_ref=100)


@pytest.mark.parametrize("start_level", [2.5, 2.0, True])
def test_transient_decay_check_refuses_a_start_level_that_is_not_an_integer(
        mm1, fleet_certs, start_level):
    with pytest.raises(InputError, match="start level must be an integer"):
        transient_decay_check(build_generator(mm1), fleet_certs["mm1"], times=(1.0,),
                              start_level=start_level, n_ref=40)


def test_transient_decay_check_accepts_the_top_level(mm1, fleet_certs):
    rep = transient_decay_check(build_generator(mm1), fleet_certs["mm1"], times=(1.0,),
                                start_level=100, n_ref=100)
    assert rep.start_level == 100 and rep.measured[0] > 0.0
