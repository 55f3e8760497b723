import time

import numpy as np
import pytest

from bmtrunc import (
    BandedModel,
    BmapModel,
    DimensionMismatch,
    FiniteBlockMatrix,
    InputError,
    InvalidRedistribution,
    TruncationSpec,
    bound_pipeline,
    build_generator,
    check_no_closed_classes_above,
    custom_truncate,
    fc_truncate,
    generator_dominates,
    generator_is_block_monotone,
    lc_truncate,
    truncation,
)
from bmtrunc.blockmat import zero_corners
from bmtrunc.order import _table
from bmtrunc.truncate import _check_weights, check_truncation_levels

from helpers import (
    assert_same_scan,
    banded_two_down,
    extended_fold,
    hand_dominates,
    pairwise_table,
    tailed_mg1,
    tailed_queue,
)


def test_single_phase_corners_by_hand(mm1):
    # level 1 truncations of the rate-1/rate-2 queue: the excess above the
    # corner is the arrival rate 1, folded into the last, first, or split
    # column
    model = build_generator(mm1)
    np.testing.assert_array_equal(lc_truncate(model, 1).matrix.values,
                                  [[-1.0, 1.0], [2.0, -2.0]])
    np.testing.assert_array_equal(fc_truncate(model, 1).matrix.values,
                                  [[-1.0, 1.0], [3.0, -3.0]])
    spec = TruncationSpec(n=1, style="custom", weights={0: 0.5, 1: 0.5})
    np.testing.assert_array_equal(custom_truncate(model, spec).matrix.values,
                                  [[-1.0, 1.0], [2.5, -2.5]])


def test_a_truncation_fills_the_slot_it_is_given(fleet_models):
    # one slot of a stack, padded past the corner: the corner lands in the
    # slot, bit for bit the one a truncation allocates, and nothing else moves
    model = fleet_models["d2"]
    for spec in (TruncationSpec(n=5), TruncationSpec(n=5, style="fc"),
                 TruncationSpec(n=5, style="custom", weights={0: 0.5, 2: 0.5})):
        stack = zero_corners(7, 2, 3)
        T = truncation(model, spec, stack[:12, 1, :12])
        assert np.shares_memory(T.matrix.values, stack)
        assert np.array_equal(stack[:12, 1, :12], truncation(model, spec).matrix.values)
        assert not stack[:, [0, 2]].any() and not stack[12:, 1].any() and not stack[:, 1, 12:].any()
    with pytest.raises(DimensionMismatch, match=r"does not fit an array of shape \(10, 10\)"):
        truncation(model, TruncationSpec(n=5), np.zeros((10, 10)))


def test_truncation_spec_validation():
    with pytest.raises(InputError):
        TruncationSpec(n=0, style="lc")
    with pytest.raises(InvalidRedistribution):
        TruncationSpec(n=3, style="custom", weights={0: 0.4, 3: 0.4})
    with pytest.raises(InvalidRedistribution):
        TruncationSpec(n=3, style="custom", weights={0: 1.5, 3: -0.5})
    with pytest.raises(InvalidRedistribution):
        TruncationSpec(n=3, style="custom", weights={0: 0.5, 4: 0.5})
    for bad in ({0: float("nan")}, {0: 0.5, 3: float("nan")}, {0: float("inf")}):
        with pytest.raises(InvalidRedistribution):
            TruncationSpec(n=3, style="custom", weights=bad)
    with pytest.raises(InputError):
        TruncationSpec(n=3, style="diagonal")


def test_truncation_level_rule():
    # the one rule behind TruncationSpec, bound_report, bound_pipeline and
    # `bmtrunc bound`: a level n >= 1 and a reference level above it
    for n, n_ref in ((1, None), (1, 2), (7, 8), (40, 200)):
        check_truncation_levels(n, n_ref)
    for n, n_ref in ((0, None), (-1, None), (0, 5)):
        with pytest.raises(InputError, match="truncation level must be >= 1"):
            check_truncation_levels(n, n_ref)
    for n, n_ref in ((5, 5), (5, 3), (5, -1)):
        with pytest.raises(InputError, match="must exceed the truncation level"):
            check_truncation_levels(n, n_ref)


@pytest.mark.parametrize("n, n_ref", [(5.5, None), (True, None), (5.0, None), ("5", None),
                                      (5, 20.0), (5, np.float64(20.0)), (5, False)])
def test_truncation_levels_are_integers(n, n_ref):
    with pytest.raises(InputError, match="must be an integer"):
        check_truncation_levels(n, n_ref)


def test_numpy_integer_levels_are_levels():
    check_truncation_levels(np.int64(5), np.int32(20))
    _check_weights({np.int64(2): 1.0}, 3)


def test_lc_truncate_refuses_a_fractional_level(mm1):
    with pytest.raises(InputError, match="must be an integer, got 5.5"):
        lc_truncate(mm1, 5.5)


def test_truncation_spec_refuses_a_bool_level():
    with pytest.raises(InputError, match="must be an integer, got True"):
        TruncationSpec(n=True)


def test_bound_pipeline_refuses_a_fractional_level(mm1):
    with pytest.raises(InputError, match="must be an integer, got 5.5"):
        bound_pipeline(mm1, [5.5])


@pytest.mark.parametrize("level", [2.5, 2.0, "a", True, None])
def test_custom_weights_refuse_a_target_that_is_not_a_level(level):
    with pytest.raises(InvalidRedistribution, match="target level must be an integer"):
        _check_weights({level: 1.0}, 3)


def test_a_corner_past_the_index_range_is_refused_at_once(mm1):
    # 10**20 entries pass numpy's index range; the refusal names the states
    # and the size, and comes before `layout` walks 10**10 levels
    started = time.perf_counter()
    with pytest.raises(InputError, match=r"10000000001 states: .* 7\.45e\+11 GiB"):
        lc_truncate(mm1, 10**10)
    assert time.perf_counter() - started < 5.0


def test_a_corner_the_allocator_refuses_is_an_input_error(mm1, monkeypatch):
    real = np.zeros

    def zeros(shape, *args, **kwargs):
        if shape == (100001, 100001):
            raise MemoryError("Unable to allocate 74.5 GiB")
        return real(shape, *args, **kwargs)

    def walked(self, n):
        raise AssertionError(f"layout({n}) walked before the corner was allocated")

    monkeypatch.setattr(np, "zeros", zeros)
    monkeypatch.setattr(BmapModel, "layout", walked)
    with pytest.raises(InputError, match=r"100001 states: .* 74\.5 GiB"):
        lc_truncate(mm1, 10**5)


def test_corners_are_conservative(fleet_models):
    for model in fleet_models.values():
        for trunc in (lc_truncate(model, 9), fc_truncate(model, 9)):
            sums = trunc.matrix.values.sum(axis=1)
            np.testing.assert_allclose(sums, np.zeros_like(sums), atol=1e-12)


def test_excess_is_the_cut_tail(d2_psi0):
    model = build_generator(d2_psi0)
    n = 6
    trunc = lc_truncate(model, n)
    for k in range(n + 1):
        np.testing.assert_allclose(trunc.excess(k), model.tail_sum(k, n + 1),
                                   atol=1e-13)


def test_custom_split_interpolates_between_lc_and_fc(d2_psi0):
    model = build_generator(d2_psi0)
    n = 5
    lc = lc_truncate(model, n).matrix.values
    fc = fc_truncate(model, n).matrix.values
    spec = TruncationSpec(n=n, style="custom", weights={0: 0.5, n: 0.5})
    mid = custom_truncate(model, spec).matrix.values
    np.testing.assert_allclose(mid, 0.5 * (lc + fc), atol=1e-12)


def test_last_column_style_preserves_block_monotonicity(fleet_models):
    # routing overflow to the last level keeps the ordering; routing it to
    # level 0 does not, which is easy to see on the single-phase queue
    for model in fleet_models.values():
        assert generator_is_block_monotone(lc_truncate(model, 7).matrix).holds
    mm1 = fleet_models["mm1"]
    assert not generator_is_block_monotone(fc_truncate(mm1, 7).matrix).holds


def test_extended_matrix_embeds_the_corner(mm1):
    model = build_generator(mm1)
    n = 2
    trunc = lc_truncate(model, n)
    ext = trunc.extended_matrix(2)
    size = (n + 1) * model.d
    np.testing.assert_array_equal(ext.values[:size, :size], trunc.matrix.values)
    sums = ext.values.sum(axis=1)
    np.testing.assert_allclose(sums, np.zeros_like(sums), atol=1e-12)
    # rows above the corner keep their own diagonal and fold the rest back
    np.testing.assert_array_equal(ext.values[3], [0.0, 0.0, 3.0, -3.0, 0.0])
    np.testing.assert_array_equal(ext.values[4], [0.0, 0.0, 3.0, 0.0, -3.0])


def test_virtual_rows_stay_conservative(d2_psi05):
    model = build_generator(d2_psi05)
    trunc = lc_truncate(model, 4)
    for k in range(5, 9):
        np.testing.assert_allclose(trunc.tail_sum(k, 0).sum(axis=1),
                                   np.zeros(model.d), atol=1e-12)


def test_no_closed_classes_above_fleet(fleet_models):
    for model in fleet_models.values():
        assert check_no_closed_classes_above(lc_truncate(model, 5))


def test_closed_class_above_is_detected():
    # beyond level 1 every state is absorbing, so any truncation below that
    # cuts off a closed class
    rows = {
        0: {0: [[-1.0]], 1: [[1.0]]},
        1: {-1: [[2.0]], 0: [[-3.0]], 1: [[1.0]]},
        2: {-1: [[0.0]], 0: [[0.0]], 1: [[0.0]]},
    }
    m = BandedModel(d=1, L=1, U=1, K_hom=2, rows=rows)
    assert not check_no_closed_classes_above(lc_truncate(m, 1), probe=3)


def _truncations(fleet_models, pure_disaster):
    """lc, fc and custom truncations at n = 3 and 7 of the fleet, the
    pure-reset queue, a tailed M/G/1-type model and a two-down banded model."""
    models = dict(fleet_models, pure_disaster=build_generator(pure_disaster),
                  mg1_tail=tailed_mg1(np.random.default_rng(23)),
                  banded_l2=banded_two_down(np.random.default_rng(5)))
    out = {}
    for name, model in models.items():
        for n in (3, 7):
            spec = TruncationSpec(n=n, style="custom", weights={0: 0.25, 1: 0.25, n: 0.5})
            out[name, n] = (model, {"lc": lc_truncate(model, n), "fc": fc_truncate(model, n),
                                    "custom": custom_truncate(model, spec)})
    return out


def test_extended_matrix_is_the_hand_fold(fleet_models, pure_disaster):
    for key, (_model, truncs) in _truncations(fleet_models, pure_disaster).items():
        for style, trunc in truncs.items():
            for probe in (0, 1, 3):
                assert np.array_equal(trunc.extended_matrix(probe).values,
                                      extended_fold(trunc, probe)), (key, style, probe)
    with pytest.raises(InputError):
        trunc.extended_matrix(-1)


def test_tail_sums_match_the_hand_sums(fleet_models, pure_disaster):
    eps = np.finfo(float).eps
    for key, (_model, truncs) in _truncations(fleet_models, pure_disaster).items():
        for style, trunc in truncs.items():
            top = trunc.bm_check_level() + 2
            extended = FiniteBlockMatrix(trunc.d, extended_fold(trunc, top - trunc.n))
            rows = np.abs(extended.values).sum(axis=1)
            hand = pairwise_table(extended, top + 1, top + 3)
            for k in range(top + 1):
                scale = float(rows[k * trunc.d:(k + 1) * trunc.d].max())
                for l in range(max(trunc.n, k) + 3):
                    gap = np.abs(trunc.tail_sum(k, l) - hand[k, l]).max()
                    assert gap <= 4 * eps * scale, (key, style, k, l, gap)
            # the corner's own table, as the ordering checks read a finite matrix
            corner = trunc.matrix
            table = _table(corner, corner.n + 1, corner.n + 2)
            hand = pairwise_table(corner, corner.n + 1, corner.n + 2)
            for k in range(corner.n + 1):
                scale = float(rows[k * trunc.d:(k + 1) * trunc.d].max())
                gap = np.abs(table[k] - hand[k]).max()
                assert gap <= 4 * eps * scale, (key, style, k, gap)


def test_dominance_matches_the_hand_sums(fleet_models, pure_disaster):
    failing = 0
    for key, (model, truncs) in _truncations(fleet_models, pure_disaster).items():
        lc, fc, custom = truncs["lc"], truncs["fc"], truncs["custom"]
        pairs = [(lc, model), (fc, model), (custom, model), (model, lc), (fc, lc), (lc, fc),
                 (custom, lc), (lc, custom), (fc, custom), (custom, fc), (lc.matrix, model),
                 (lc.matrix, fc), (fc, lc.matrix), (lc.matrix, custom.matrix)]
        for i, (left, right) in enumerate(pairs):
            expected = hand_dominates(left, right)
            assert_same_scan(generator_dominates(left, right), *expected)
            failing += not expected[0].holds
    assert failing > 0


def test_last_column_truncation_is_block_monotone(fleet_models, pure_disaster):
    # LC augmentation keeps block monotonicity, checked on the augmented
    # generator itself, rows above the corner included
    models = dict(fleet_models, pure_disaster=build_generator(pure_disaster),
                  tailed_queue=tailed_queue())
    for name, model in models.items():
        assert generator_is_block_monotone(model).holds, name
        for n in (1, 3, 7):
            assert generator_is_block_monotone(lc_truncate(model, n)).holds, (name, n)
