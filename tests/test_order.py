import math

import numpy as np
import pytest
from hypothesis import given

from bmtrunc import (
    FiniteBlockMatrix,
    IncompatibleModels,
    InputError,
    NotStochastic,
    build_generator,
    fc_truncate,
    generator_dominates,
    generator_is_block_monotone,
    is_block_increasing,
    is_block_monotone_stochastic,
    lc_truncate,
    td_transform,
    transition_matrix,
    vector_dominates,
)
from bmtrunc.bmap import BmapModel
from bmtrunc.blockmat import BandedModel, GeometricTail, Mg1Model, MuRule
from bmtrunc.order import _tail_table

from helpers import (
    assert_same_scan,
    banded_queue_rows,
    block_increasing,
    break_monotone,
    dominated_pair,
    finite_order_cases,
    finite_order_oracle,
    hand_dominates,
    monotone_oracle,
    random_bmap,
    regime_queues,
    t_matrix,
    tailed_mg1,
    tailed_queue,
    vector_dominates_oracle,
    vector_order_cases,
    vector_order_oracle,
    window_tail_table,
)


def test_td_transform_matches_explicit_multiplication():
    rng = np.random.default_rng(11)
    for d, levels in ((1, 5), (2, 4), (3, 3)):
        T = t_matrix(levels, d)
        x = rng.normal(size=levels * d)
        np.testing.assert_allclose(td_transform(x, d), x @ T, atol=1e-13)
        np.testing.assert_allclose(td_transform(x, d, "T_inverse"),
                                   x @ np.linalg.inv(T), atol=1e-13)
        M = rng.normal(size=(levels * d, levels * d))
        np.testing.assert_allclose(td_transform(M, d), M @ T, atol=1e-12)


def test_td_transform_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        levels = int(rng.integers(1, 7))
        x = rng.normal(size=levels * d)
        back = td_transform(td_transform(x, d), d, "T_inverse")
        np.testing.assert_allclose(back, x, atol=1e-13)
        back = td_transform(td_transform(x, d, "T_inverse"), d)
        np.testing.assert_allclose(back, x, atol=1e-13)


def test_similarity_transform_oracle():
    # T^{-1} Q T on a two-level single-phase generator, by hand:
    # [[-1,1],[2,-3]] -> [[0,1],[-1,-4]].  The off-diagonal entries are the
    # tail-sum differences the monotonicity test inspects: the leaky second
    # row puts -1 below the diagonal, so this matrix is not block monotone,
    # while its conservative completion [[-1,1],[2,-2]] is.
    Q = np.array([[-1.0, 1.0], [2.0, -3.0]])
    T = t_matrix(2, 1)
    similar = np.linalg.inv(T) @ Q @ T
    np.testing.assert_allclose(similar, [[0.0, 1.0], [-1.0, -4.0]], atol=1e-13)
    rep = generator_is_block_monotone(FiniteBlockMatrix(1, Q))
    assert not rep.holds
    assert rep.margin == pytest.approx(-1.0)
    closed = np.array([[-1.0, 1.0], [2.0, -2.0]])
    assert generator_is_block_monotone(FiniteBlockMatrix(1, closed)).holds


def test_vector_dominates_basic():
    mu = np.array([0.5, 0.3, 0.2])
    eta = np.array([0.2, 0.3, 0.5])
    assert vector_dominates(mu, eta, 1).holds
    rep = vector_dominates(eta, mu, 1)
    assert not rep.holds
    assert rep.worst_violation is not None
    assert rep.margin < 0


def test_vector_dominates_pads_shorter_vector():
    short = np.array([0.6, 0.4])
    long = np.array([0.2, 0.3, 0.5])
    assert vector_dominates(short, long, 1).holds
    assert not vector_dominates(long, short, 1).holds


def test_is_block_increasing():
    assert is_block_increasing(np.array([0.0, 1.0, 1.0, 2.5]), 1).holds
    assert is_block_increasing(np.array([1.0, 5.0, 2.0, 6.0]), 2).holds
    assert not is_block_increasing(np.array([1.0, 5.0, 0.5, 6.0]), 2).holds


def test_stochastic_monotone_identity_and_swap():
    assert is_block_monotone_stochastic(np.eye(4), 2).holds
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = is_block_monotone_stochastic(swap, 1)
    assert not rep.holds


def test_stochastic_monotone_rejects_non_stochastic():
    with pytest.raises(NotStochastic):
        is_block_monotone_stochastic(np.array([[0.5, 0.4], [0.2, 0.8]]), 1)
    with pytest.raises(NotStochastic):
        is_block_monotone_stochastic(np.array([[1.1, -0.1], [0.0, 1.0]]), 1)


@pytest.mark.parametrize("tol", [-1e-12, -math.inf, math.nan])
def test_ordering_checks_refuse_a_negative_or_nan_tolerance(fleet_models, tol):
    # such a tol would fail every comparison (or none) instead of meaning anything
    model = fleet_models["d2"]
    checks = [
        lambda: vector_dominates(np.array([0.5, 0.5]), np.array([0.2, 0.8]), 1, tol=tol),
        lambda: is_block_increasing(np.array([0.0, 1.0]), 1, tol=tol),
        lambda: is_block_monotone_stochastic(np.eye(4), 2, tol=tol),
        lambda: generator_is_block_monotone(model, tol=tol),
        lambda: generator_is_block_monotone(lc_truncate(model, 4).matrix, tol=tol),
        lambda: generator_dominates(model, model, tol=tol),
    ]
    for check in checks:
        with pytest.raises(InputError, match="ordering tolerance must be >= 0"):
            check()


def test_ordering_checks_refuse_an_infinite_tolerance(fleet_models):
    # tol = inf let every check hold, a NaN slack or a shortfall of 1 included
    for lower, upper in (([math.nan, 0.0], [0.0, 0.0]), ([0.0, 5.0], [1.0, 0.0])):
        with pytest.raises(InputError, match="ordering tolerance must be finite, got inf"):
            vector_dominates(np.array(lower), np.array(upper), 1, tol=math.inf)
    with pytest.raises(InputError, match="ordering tolerance must be finite"):
        generator_dominates(fleet_models["d2"], fleet_models["d2"], tol=math.inf)


def test_fleet_generators_are_block_monotone(fleet_models):
    for model in fleet_models.values():
        assert generator_is_block_monotone(model).holds
        corner = lc_truncate(model, 8).matrix
        assert generator_is_block_monotone(corner).holds


def test_broken_generator_is_flagged_with_location():
    rng = np.random.default_rng(5)
    B = random_bmap(rng)
    Q = break_monotone(lc_truncate(build_generator(B), 6).matrix.values, 2, rng)
    rep = generator_is_block_monotone(FiniteBlockMatrix(2, Q))
    assert not rep.holds
    assert rep.worst_violation is not None
    assert rep.margin < -1e-6


def test_dominance_preserved_by_monotone_kernel():
    # a block monotone kernel maps ordered distributions to ordered ones,
    # and ordered distributions agree on every block increasing function
    rng = np.random.default_rng(6)
    d = 2
    for _ in range(20):
        B = random_bmap(rng)
        Q = lc_truncate(build_generator(B), 5).matrix.values
        P = np.eye(Q.shape[0]) + Q / (2.0 * np.abs(np.diag(Q)).max())
        assert is_block_monotone_stochastic(P, d).holds
        mu, eta = dominated_pair(rng, 6, d)
        assert vector_dominates(mu, eta, d).holds
        assert vector_dominates(mu @ P, eta @ P, d).holds
        f = block_increasing(rng, 6, d)
        assert is_block_increasing(f, d).holds
        assert float(mu @ f) <= float(eta @ f) + 1e-12


def test_uniformization_keeps_block_monotonicity():
    rng = np.random.default_rng(7)
    for _ in range(10):
        B = random_bmap(rng)
        Q = lc_truncate(build_generator(B), 6).matrix.values
        sigma = np.abs(np.diag(Q)).max()
        P = np.eye(Q.shape[0]) + Q / sigma
        assert is_block_monotone_stochastic(P, 2, tol=1e-10).holds


def test_truncation_dominance_carries_to_transition_rows(mm1):
    # the smaller generator's transition rows stay dominated at every time
    model = build_generator(mm1)
    fc = fc_truncate(model, 6).matrix
    lc = lc_truncate(model, 6).matrix
    for t in (0.5, 2.0):
        P_fc = transition_matrix(fc, t).values
        P_lc = transition_matrix(lc, t).values
        for r in range(P_fc.shape[0]):
            assert vector_dominates(P_fc[r], P_lc[r], 1, tol=1e-10).holds


def test_generator_dominates_models():
    base = BmapModel(d=1, D=(np.array([[-1.0]]), np.array([[1.0]])),
                     mu=MuRule(table=(2.0,)))
    faster = BmapModel(d=1, D=(np.array([[-1.0]]), np.array([[1.0]])),
                       mu=MuRule(table=(2.2,)))
    assert generator_dominates(build_generator(faster), build_generator(base)).holds
    rep = generator_dominates(build_generator(base), build_generator(faster))
    assert not rep.holds


def test_generator_dominates_checks_one_column_past_the_band():
    # the queue's row 0 carries its geometric batch tail from column 2 on;
    # the M/G/1 row 0 stops at column 2, so S~(0; 3) = 0 while the queue
    # still sends 0.25 that far, and every other pair dominates
    tail = GeometricTail(coef=[[1.0]], ratio=0.5)
    queue = BmapModel(d=1, D=(np.array([[-1.5]]), np.array([[1.0]])),
                      mu=MuRule(table=(3.0,)), tail=tail)
    mg1 = Mg1Model(d=1, repeat=[[[2.0]], [[-4.25]], [[1.0]], [[1.0]]],
                   boundary=[[[-2.0]], [[1.0]], [[1.0]]], tail=tail)
    rep = generator_dominates(build_generator(queue), mg1)
    assert not rep.holds
    assert rep.worst_violation == ((0, 0, 3, 0), 0.25)


def test_truncations_dominated_by_base_and_each_other(d2_psi05):
    model = build_generator(d2_psi05)
    lc = lc_truncate(model, 7)
    fc = fc_truncate(model, 7)
    assert generator_dominates(lc, model).holds
    assert generator_dominates(fc, lc).holds
    assert not generator_dominates(lc, fc).holds


def test_nan_slack_is_a_violation():
    nan = float("nan")
    reports = {
        "increasing": is_block_increasing([0.5, nan, 1.0], 1),
        "vector": vector_dominates([0.5, nan], [0.5, 0.5], 1),
        "stochastic": is_block_monotone_stochastic(np.array([[1.0, 0.0], [nan, 1.0]]), 1),
        "finite_generator": generator_is_block_monotone(
            FiniteBlockMatrix(1, [[-1.0, 1.0], [nan, -2.0]])),
    }
    rows = {0: {0: [[-1.0]], 1: [[1.0]]}, 1: {-1: [[2.0]], 0: [[-3.0]], 1: [[1.0]]}}
    good = BandedModel(d=1, L=1, U=1, K_hom=1, rows=rows)
    rows[1] = {-1: [[nan]], 0: [[-3.0]], 1: [[1.0]]}
    broken = BandedModel(d=1, L=1, U=1, K_hom=1, rows=rows)
    reports["model_generator"] = generator_is_block_monotone(broken)
    reports["dominates_left"] = generator_dominates(broken, good)
    reports["dominates_right"] = generator_dominates(good, broken)
    for name, rep in reports.items():
        assert not rep.holds, name
        assert rep.margin == -np.inf, name
        assert rep.worst_violation is not None, name


def test_infinite_shortfall_is_a_violation():
    # an infinite entry adds nothing to the tolerance, or it would forgive
    # every shortfall, its own infinite one included
    inf = float("inf")
    reports = {
        "vector": vector_dominates([0.0, inf], [1.0, 0.0], 1),
        "finite_generator": generator_is_block_monotone(
            FiniteBlockMatrix(1, [[-inf, inf], [1.0, -1.0]])),
    }
    for name, rep in reports.items():
        assert not rep.holds, name
        assert rep.margin == -np.inf, name
        assert rep.worst_violation[1] == np.inf, name


def test_opposite_infinite_tails_are_a_violation_without_a_warning():
    # inf + -inf in one tail sum is a NaN slack, found by the scan; the
    # RuntimeWarning filter of the suite would turn a float warning into an error
    rep = vector_dominates([-np.inf, np.inf], [0.5, 0.5], 1)
    assert not rep.holds
    assert rep.margin == -np.inf


def test_generator_is_block_monotone_takes_only_models_and_block_matrices():
    Q = [[-1.0, 1.0], [2.0, -2.0]]
    assert generator_is_block_monotone(FiniteBlockMatrix(1, Q)).holds
    for M in (np.array(Q), Q):
        with pytest.raises(IncompatibleModels):
            generator_is_block_monotone(M)


def test_generator_dominates_refuses_different_block_sizes(mm1, d2_psi0):
    with pytest.raises(IncompatibleModels, match="block sizes differ"):
        generator_dominates(build_generator(mm1), build_generator(d2_psi0))


def _nan_banded():
    rows = {0: {0: [[-1.0]], 1: [[1.0]]}, 1: {-1: [[float("nan")]], 0: [[-3.0]], 1: [[1.0]]}}
    return BandedModel(d=1, L=1, U=1, K_hom=1, rows=rows)


def _scan_models(fleet_models, pure_disaster):
    """Every model kind, with and without tails, at d = 1, 2 and 8, plus a
    model that is not block monotone and one whose slack is NaN."""
    models = dict(fleet_models, tailed_queue=tailed_queue(), pure_disaster=pure_disaster,
                  banded=banded_queue_rows(fleet_models["d2"]),
                  mg1_tail=tailed_mg1(np.random.default_rng(23)),
                  d8=random_bmap(np.random.default_rng(3), d=8, psi=0.3), nan=_nan_banded())
    # the two-up rate of row 0 exceeds everything row 1 sends past level 1
    models["not_monotone"] = BandedModel(d=1, L=1, U=2, K_hom=1, rows={
        0: {0: [[-3.0]], 2: [[3.0]]},
        1: {-1: [[1.0]], 0: [[-1.5]], 1: [[0.25]], 2: [[0.25]]},
    })
    return models


def test_tail_table_is_tail_sum_bit_for_bit(fleet_models, pure_disaster):
    # the table is tail_sum's rows bit for bit; both are the tail sums of a
    # materialized window plus the tail's closed-form remainder, up to the
    # rounding of sums over that window, NaN where a NaN block enters
    eps = np.finfo(float).eps
    for name, model in _scan_models(fleet_models, pure_disaster).items():
        rows, cols = model.bm_check_level() + 1, model.bm_check_level() + model.upper_hint() + 3
        table = _tail_table(model, rows, cols)
        assert table.shape == (rows, cols, model.d, model.d)
        window = window_tail_table(model, rows, cols)
        # a sum of at most `terms` blocks, of largest entries adding up to scale
        terms = cols + model.upper_hint() + 2
        for k in range(rows):
            scale = sum(np.fmax.reduce(np.abs(model.block(k, m)), axis=None, initial=0.0)
                        for m in range(terms))
            for l in range(cols):
                entry = model.tail_sum(k, l)
                assert np.array_equal(table[k, l], entry, equal_nan=True), (name, k, l)
                nan = np.isnan(entry)
                assert np.array_equal(nan, np.isnan(window[k, l])), (name, k, l)
                gap = np.abs(entry - window[k, l])[~nan].max(initial=0.0)
                assert gap <= terms * eps * scale, (name, k, l, gap)


def test_monotone_scan_matches_the_per_pair_loop(fleet_models, pure_disaster):
    outcomes = set()
    for name, model in _scan_models(fleet_models, pure_disaster).items():
        found = generator_is_block_monotone(model)
        assert_same_scan(found, *monotone_oracle(model))
        outcomes.add((found.holds, found.margin == -np.inf))
    # holding, violated and NaN reports are all covered
    assert outcomes == {(True, False), (False, False), (False, True)}


@given(B=regime_queues())
def test_monotone_scan_matches_the_per_pair_loop_on_regime_queues(B):
    assert_same_scan(generator_is_block_monotone(B), *monotone_oracle(B))


def test_dominance_scan_matches_the_per_pair_loop(fleet_models, pure_disaster):
    # every pair below has a tailless left side, so the report is the scan's
    models = _scan_models(fleet_models, pure_disaster)
    d2 = models["d2_disaster"]
    pairs = [(lc_truncate(d2, 7), d2), (fc_truncate(d2, 7), lc_truncate(d2, 7)),
             (lc_truncate(d2, 7), fc_truncate(d2, 7)), (models["d2"], d2),
             (lc_truncate(d2, 5).matrix, d2), (d2, lc_truncate(d2, 5).matrix),
             (models["nan"], models["not_monotone"]), (models["not_monotone"], models["nan"])]
    # the last row each scan reads decides these: d2 against its n = 7 corner
    # fails worst at row 8 = bm_check_level(), the first row past the corner,
    # where the queue's rows meet zero rows; M/M/1 against its n = 7 corner
    # fails only at the corner's last row, 7, the finite side's check depth
    mm1 = models["mm1"]
    pairs += [(models["d2"], lc_truncate(models["d2"], 7).matrix),
              (mm1, lc_truncate(mm1, 7).matrix)]
    for left, right in pairs:
        assert_same_scan(generator_dominates(left, right), *hand_dominates(left, right))
    assert generator_dominates(models["d2"], pairs[-2][1]).worst_violation[0][0] == 8
    assert generator_dominates(mm1, pairs[-1][1]).worst_violation[0][0] == 7


def test_geometric_tails_past_the_scan_are_compared():
    # d = 1 queues alike but for the geometric batch tail past D(1); the
    # tails are compared in closed form beyond every scanned column
    def queue(coef, ratio, batch=0.5):
        tail = GeometricTail(coef=np.array([[coef]]), ratio=ratio)
        D1 = np.array([[batch]])
        return BmapModel(d=1, D=[-D1 - tail.sum_from(2), D1], mu=MuRule(table=(4.0,)),
                         tail=tail)

    def beyond(left, right):
        return (max(left.bm_check_level(), right.bm_check_level()) + 1,)

    # a light tail that decays slower: every scanned tail sum holds, and
    # past column 20 the left one exceeds the right one
    slow, fast = queue(0.01, 0.6), queue(0.5, 0.5)
    rep = generator_dominates(slow, fast)
    assert (rep.holds, rep.worst_violation, rep.margin) == (False, (beyond(slow, fast), 0.01),
                                                            -0.01)
    # equal ratios: the left tail's excess over all offsets from 1 on,
    # 0.1, outweighs the scan's worst shortfall, 0.05 at offset 1
    heavy, light = queue(0.3, 0.5), queue(0.2, 0.5)
    rep = generator_dominates(heavy, light)
    assert not rep.holds
    assert rep.worst_violation[0] == beyond(heavy, light)
    assert rep.worst_violation[1] == pytest.approx(0.1, rel=1e-12)
    assert rep.margin == -rep.worst_violation[1]
    assert generator_dominates(light, heavy).holds
    # a heavy, slow tail against a light, fast one with a larger D(1): the
    # worst shortfall, T(2) = 0.81 against 0.005, is the scan's, at column
    # k + 2, one past both rows' bands; one column short, the scan would
    # find 0.305 at column k + 1, where D(1) makes up half a unit
    slow, fast = queue(0.1, 0.9), queue(0.01, 0.5, batch=1.0)
    rep = generator_dominates(slow, fast)
    assert not rep.holds and rep.worst_violation[0] == (0, 0, 2, 0)
    assert rep.worst_violation[1] == pytest.approx(0.805, rel=1e-12)
    assert rep.margin == -rep.worst_violation[1]
    assert_same_scan(rep, *hand_dominates(slow, fast))


def test_a_holding_scan_reports_its_first_least_slack_past_both_bands():
    # d = 1, D = (-0.2, 0.1, 0.1), mu = 1: row 1's sum rounds 5.6e-17 above
    # row 0's 0, so every slack between them is positive up to column 3,
    # and their first least slack, 0, is at column 4, one past both rows'
    # bands, where both tail sums are 0; row 2's sum is row 1's, bit for bit
    B = BmapModel(d=1, D=(np.array([[-0.2]]), np.array([[0.1]]), np.array([[0.1]])),
                  mu=MuRule(table=(1.0,)))
    assert B.tail_sum(1, 0)[0, 0] > B.tail_sum(0, 0)[0, 0] == 0.0
    rep = generator_is_block_monotone(B)
    assert (rep.holds, rep.worst_violation, rep.margin) == (True, ((1, 0, 4, 0), 0.0), 0.0)
    # a finite matrix past its corner: the one-state zero matrix against
    # three levels of ones, whose slacks are 3, 2 and 1 up to column 2 in
    # every row and 0 at column 3, one past the larger corner
    rep = generator_dominates(FiniteBlockMatrix(1, [[0.0]]), FiniteBlockMatrix(1, np.ones((3, 3))))
    assert (rep.holds, rep.worst_violation, rep.margin) == (True, ((0, 0, 3, 0), 0.0), 0.0)


def test_finite_generator_violation_is_located_by_level_and_phase():
    # row (1, 0) sums to -3 over phase 0 from level 0 on, row (0, 0) to -1
    Q = np.array([[-1.0, 1.0, 0.0, 0.0], [1.0, -2.0, 0.0, 1.0],
                  [0.0, 2.0, -3.0, 1.0], [1.0, 0.0, 1.0, -2.0]])
    rep = generator_is_block_monotone(FiniteBlockMatrix(2, Q))
    assert (rep.holds, rep.worst_violation, rep.margin) == (False, ((1, 0, 0, 0), 2.0), -2.0)
    swap = is_block_monotone_stochastic(np.array([[0.0, 1.0], [1.0, 0.0]]), 1)
    assert swap.worst_violation == ((1, 0, 1, 0), 1.0)


def test_finite_tolerance_scales_with_the_largest_tail_sum_compared():
    # the largest tail sum is 5, half the largest entry, and a 7e-12
    # shortfall at (2, 0, 0, 0) exceeds TAU_ORD times that scale
    Q = np.array([[-1.0, 1.0, 0.0], [5.0, -10.0, 5.0], [-7e-12, 1.0, -1.0]])
    rep = generator_is_block_monotone(FiniteBlockMatrix(1, Q))
    assert not rep.holds
    assert rep.worst_violation == ((2, 0, 0, 0), 7e-12)


def _assert_same_report(found, expected, located=True):
    assert found.holds == expected.holds
    assert float(found.margin).hex() == float(expected.margin).hex()
    if located:
        assert found.worst_violation == expected.worst_violation


@given(case=finite_order_cases())
def test_finite_checks_give_the_flat_report(case):
    Q, P, d = case
    _assert_same_report(generator_is_block_monotone(FiniteBlockMatrix(d, Q)),
                        finite_order_oracle(Q, d, skip_diagonal=True), located=False)
    _assert_same_report(is_block_monotone_stochastic(P, d), finite_order_oracle(P, d),
                        located=False)


@given(case=vector_order_cases())
def test_vector_checks_give_the_flat_report(case):
    mu, eta, f, d = case
    levels = f.reshape(-1, d)
    _assert_same_report(vector_dominates(mu, eta, d), vector_dominates_oracle(mu, eta, d))
    _assert_same_report(vector_dominates(eta, mu, d), vector_dominates_oracle(eta, mu, d))
    _assert_same_report(is_block_increasing(f, d), vector_order_oracle(levels[:-1], levels[1:]))
