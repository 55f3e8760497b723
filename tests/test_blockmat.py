import dataclasses
import functools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import shortest_path

from bmtrunc import (
    BandedModel,
    BmapQueueModel,
    DimensionMismatch,
    FiniteBlockMatrix,
    GeometricTail,
    InputError,
    InvalidBmap,
    InvalidModelFile,
    Mg1Model,
    MuRule,
    NotConstantAcrossLevels,
    NotStochastic,
    TruncationSpec,
    build_generator,
    custom_truncate,
    fc_truncate,
    generator_is_block_monotone,
    lc_truncate,
    load_model,
    stationary,
    td_transform,
    validate_q_matrix,
)
from bmtrunc import blockmat, truncate
from bmtrunc.blockmat import (
    BlockGeneratorModel,
    check_block_length,
    phase_generator,
    reachable,
)
from bmtrunc.bounds import GeometricVector
from bmtrunc.tolerances import TAU_ORD

from helpers import (
    affine_disaster_queue,
    bmap_doc,
    brute_corner,
    brute_window,
    d2_blocks,
    mg1_block,
    regime_queues,
    tailed_mg1_parts,
    tailed_queue,
    write_model,
)


def test_check_block_length():
    assert check_block_length(6, 2) == 3
    assert check_block_length(2, 1) == 2
    with pytest.raises(DimensionMismatch):
        check_block_length(5, 2)


def test_finite_block_matrix_indexing():
    values = np.arange(36, dtype=float).reshape(6, 6)
    M = FiniteBlockMatrix(2, values)
    assert M.n == 2
    np.testing.assert_array_equal(M.block(0, 0), values[0:2, 0:2])
    np.testing.assert_array_equal(M.block(2, 1), values[4:6, 2:4])


@pytest.mark.parametrize("k, l", [(-1, 0), (5, 0), (0, -1), (0, 2)])
def test_finite_block_matrix_refuses_a_level_outside_its_levels(k, l):
    # a slice past either end would be an empty (0, d) block
    M = FiniteBlockMatrix(2, np.arange(16, dtype=float).reshape(4, 4))
    with pytest.raises(InputError, match=re.escape(f"block ({k}, {l}) lies outside levels 0..1")):
        M.block(k, l)


@pytest.mark.parametrize("k, l", [(0.0, 0), (True, 0), (0, np.float64(1.0)), (0, "1")])
def test_finite_block_matrix_refuses_a_level_that_is_not_an_integer(k, l):
    # a float slice raised a bare TypeError, and True read as level 1
    M = FiniteBlockMatrix(2, np.arange(16, dtype=float).reshape(4, 4))
    with pytest.raises(InputError, match=re.escape(f"block ({k!r}, {l!r}) needs integer levels")):
        M.block(k, l)
    assert np.array_equal(M.block(np.int64(1), np.int32(0)), M.values[2:, :2])


@pytest.mark.parametrize("call", [
    lambda: FiniteBlockMatrix(2.0, np.eye(4)),
    lambda: check_block_length(4, 2.0),
    lambda: check_block_length(4, True),
    lambda: stationary(np.array([[-1.0, 1.0], [1.0, -1.0]]), d=1.0),
    lambda: td_transform(np.ones(4), 2.0),
], ids=["matrix", "length", "bool", "stationary", "td_transform"])
def test_a_block_size_that_is_not_an_integer_is_refused(call):
    # a float block size gave float level counts (FiniteBlockMatrix(2.0, ...)
    # had n == 1.0) or a bare TypeError, and True read as 1
    with pytest.raises(DimensionMismatch, match="block size must be an integer"):
        call()


def test_finite_block_matrix_rejects_bad_shape():
    with pytest.raises(DimensionMismatch):
        FiniteBlockMatrix(2, np.zeros((5, 5)))


def test_mu_rule_table_and_eventual():
    mu = MuRule(table=(1.0, 2.5), eventual="constant", value=3.0)
    assert mu(0) == 0.0
    assert mu(1) == 1.0
    assert mu(2) == 2.5
    assert mu(3) == 3.0
    assert mu(50) == 3.0
    assert mu.stable_from == 3
    assert mu.infimum() == 1.0


def test_mu_rule_constant_defaults_to_last_entry():
    mu = MuRule(table=(2.0,))
    assert mu(7) == 2.0


def test_mu_rule_affine():
    mu = MuRule(table=(1.0,), eventual="affine", slope=0.5)
    assert mu(1) == 1.0
    assert mu(2) == 1.5
    assert mu(4) == 2.5


def test_mu_rule_rejects_bad_input():
    with pytest.raises(InputError):
        MuRule(table=())
    with pytest.raises(InputError):
        MuRule(table=(1.0, -0.5))
    with pytest.raises(InputError):
        MuRule(table=(1.0,), eventual="affine", slope=-1.0)
    with pytest.raises(InputError):
        MuRule(table=(1.0,), eventual="quadratic")
    with pytest.raises(InputError):
        MuRule(table=(1.0, float("nan")))
    with pytest.raises(InputError):
        MuRule(table=(1.0,), value=float("inf"))


def test_geometric_tail_closed_forms():
    coef = np.array([[0.3, 0.1], [0.2, 0.4]])
    tail = GeometricTail(coef, 0.5)
    # brute-force partial sums converge fast at ratio 1/2
    ks = np.arange(3, 200)
    brute = sum(coef * 0.5 ** k for k in ks)
    np.testing.assert_allclose(tail.sum_from(3), brute, rtol=1e-12)
    brute_w = sum(k * coef * 0.5 ** k for k in ks)
    np.testing.assert_allclose(tail.weighted_sum_from(3), brute_w, rtol=1e-12)
    brute_z = sum(coef * (1.3 * 0.5) ** k for k in ks)
    np.testing.assert_allclose(tail.power_series_from(3, 1.3), brute_z, rtol=1e-12)


def test_geometric_tail_power_series_needs_convergence():
    tail = GeometricTail(np.eye(1), 0.5)
    with pytest.raises(InputError):
        tail.power_series_from(0, 2.0)


def test_geometric_tail_rejects_nonfinite_coefficients():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InputError):
            GeometricTail(np.array([[0.1, bad], [0.2, 0.3]]), 0.5)


def test_queue_window_layout(mm1):
    model = build_generator(mm1)
    w = model.window(3)
    expected = np.array([
        [-1.0, 1.0, 0.0, 0.0],
        [2.0, -3.0, 1.0, 0.0],
        [0.0, 2.0, -3.0, 1.0],
        [0.0, 0.0, 2.0, -3.0],
    ])
    np.testing.assert_array_equal(w.values, expected)


def test_queue_disaster_column(d2_psi05):
    model = build_generator(d2_psi05)
    # catastrophes jump straight to level 0; above level 1 that is the only
    # route down to column 0
    np.testing.assert_array_equal(model.block(3, 0), 0.5 * np.eye(2))
    np.testing.assert_array_equal(model.block(1, 0), (3.0 + 0.5) * np.eye(2))


def test_queue_tail_sum_matches_brute_force(d2_psi05):
    model = build_generator(d2_psi05)
    big = model.window(30).values
    d = model.d
    for k in range(7):
        for l in range(9):
            brute = np.zeros((d, d))
            for m in range(l, 31):
                brute += big[k * d:(k + 1) * d, m * d:(m + 1) * d]
            np.testing.assert_allclose(model.tail_sum(k, l), brute, atol=1e-13)


class _TableProfile:
    """Level-indexed weight table, the minimal shape apply_row needs."""

    def __init__(self, arr):
        self.arr = arr

    def level(self, l):
        return self.arr[l]


def test_queue_apply_row_matches_window(d2_psi05):
    model = build_generator(d2_psi05)
    rng = np.random.default_rng(3)
    levels = 12
    v = rng.uniform(0.5, 2.0, levels * model.d)
    w = model.window(levels - 1).values
    profile = _TableProfile(v.reshape(levels, model.d))
    for k in range(6):
        direct = w[k * model.d:(k + 1) * model.d] @ v
        np.testing.assert_allclose(model.apply_row(k, profile), direct, atol=1e-12)


def test_queue_rows_conservative(d2_psi05):
    model = build_generator(d2_psi05)
    for k in range(8):
        np.testing.assert_allclose(model.tail_sum(k, 0).sum(axis=1),
                                   np.zeros(model.d), atol=1e-13)


def _edge_queues():
    """Queues at the edges of BmapQueueModel's block-monotonicity proof."""
    D0, D1 = np.array([[-1e4 - 1.0, 1e4], [1.0, -1.5]]), np.array([[0.5, 0.5], [0.3, 0.2]])
    return {
        "decreasing_mu": BmapQueueModel(d=2, D=d2_blocks(), mu=MuRule(table=(4.0, 2.5, 1.2))),
        "pure_reset": BmapQueueModel(d=2, D=d2_blocks(), mu=MuRule(table=(0.0,)), psi=0.7),
        "affine": BmapQueueModel(d=2, D=d2_blocks(), psi=0.2,
                                 mu=MuRule(table=(1.0, 1.5), eventual="affine", slope=0.5)),
        "tail": tailed_queue(),
        "d1": affine_disaster_queue(),
        "phases_1e4_apart": BmapQueueModel(d=2, D=(D0, D1), mu=MuRule(table=(3.0,)), psi=0.01),
    }


def _proved_difference(B, k, l):
    """S(k; l) - S(k-1; l) as BmapQueueModel's docstring derives it."""
    eye = np.eye(B.d)
    if l == k - 1 and k >= 2:
        return B.mu(k - 1) * eye
    if l == k:
        return B.D[0] - (B.psi + B.mu(k)) * eye
    if l > k:
        return B.block(0, l - k)
    return np.zeros((B.d, B.d))


@pytest.mark.parametrize("name", list(_edge_queues()))
def test_queue_is_block_monotone_as_its_docstring_proves(name):
    # every difference of adjacent tail-sum rows is the proof's, to the
    # scan's tolerance, nonnegative off the diagonal, and exactly 0 off the
    # diagonal where the proof says 0
    B = _edge_queues()[name]
    assert generator_is_block_monotone(B).holds
    top = B.bm_check_level()
    cols = top + B.k_max + 3
    sums = np.stack([B.tail_sums(k, 0, cols) for k in range(top + 1)])
    tol = TAU_ORD * np.abs(sums).max()
    off = ~np.eye(B.d, dtype=bool)
    for k in range(1, top + 1):
        for l in range(cols):
            found = sums[k, l] - sums[k - 1, l]
            proved = _proved_difference(B, k, l)
            np.testing.assert_allclose(found, proved, rtol=0.0, atol=tol, err_msg=f"{k}, {l}")
            assert (proved[off] >= 0.0).all(), (k, l)
            assert (found[off][proved[off] == 0.0] == 0.0).all(), (k, l)


def test_banded_model_repeats_beyond_homogeneity():
    rows = {
        0: {0: [[-1.0]], 1: [[1.0]]},
        1: {-1: [[2.0]], 0: [[-3.0]], 1: [[1.0]]},
    }
    m = BandedModel(d=1, L=1, U=1, K_hom=1, rows=rows)
    np.testing.assert_array_equal(m.block(5, 4), [[2.0]])
    np.testing.assert_array_equal(m.block(5, 5), [[-3.0]])
    np.testing.assert_array_equal(m.block(5, 6), [[1.0]])
    np.testing.assert_array_equal(m.block(5, 3), [[0.0]])


def test_banded_model_validates_band_and_coverage():
    with pytest.raises(InputError):
        BandedModel(d=1, L=2, U=1, K_hom=1,
                    rows={0: {0: [[-1.0]]}, 1: {0: [[-1.0]]}})
    with pytest.raises(InvalidModelFile):
        BandedModel(d=1, L=1, U=1, K_hom=2,
                    rows={0: {0: [[-1.0]]}, 1: {0: [[-1.0]]}})
    with pytest.raises(InputError):
        BandedModel(d=1, L=1, U=1, K_hom=1,
                    rows={0: {0: [[-1.0]]}, 1: {2: [[1.0]]}})
    # blocks the model would never read are refused, not stored
    rows = {0: {0: [[-1.0]], 1: [[1.0]]}, 1: {-1: [[1.0]], 0: [[-1.0]]}}
    for level, offset in ((-3, 0), (2, 0), (5, -1), (0, -1)):
        bad = {k: dict(v) for k, v in rows.items()}
        bad.setdefault(level, {})[offset] = [[0.5]]
        with pytest.raises(InvalidModelFile):
            BandedModel(d=1, L=1, U=1, K_hom=1, rows=bad)
    two_down = {0: {0: [[-1.0]]}, 1: {0: [[-1.0]]}, 2: {0: [[-1.0]]}}
    two_down[1][-2] = [[1.0]]
    with pytest.raises(InvalidModelFile, match="column -1 < 0"):
        BandedModel(d=1, L=2, U=1, K_hom=2, rows=two_down)


def test_mg1_model_block_layout():
    A = [np.array([[2.0]]), np.array([[-3.0]]), np.array([[0.6]]), np.array([[0.4]])]
    B = [np.array([[-1.0]]), np.array([[0.7]]), np.array([[0.3]])]
    m = Mg1Model(d=1, repeat=A, boundary=B)
    np.testing.assert_array_equal(m.block(0, 1), [[0.7]])
    np.testing.assert_array_equal(m.block(0, 5), [[0.0]])
    np.testing.assert_array_equal(m.block(4, 3), [[2.0]])
    np.testing.assert_array_equal(m.block(4, 6), [[0.4]])
    np.testing.assert_array_equal(m.tail_sum(4, 5), [[1.0]])


def test_validate_q_matrix_accepts_fleet(fleet_models):
    for model in fleet_models.values():
        report = validate_q_matrix(model)
        assert report.ok
        assert report.conservative
        assert report.messages == []


def test_validate_q_matrix_flags_defects():
    bad = np.array([[-1.0, 1.0], [2.0, -1.5]])  # second row leaks +0.5
    report = validate_q_matrix(FiniteBlockMatrix(1, bad))
    assert not report.conservative
    assert report.max_row_defect > 0.4
    negative = np.array([[-1.0, -0.2], [1.0, -1.0]])
    report = validate_q_matrix(FiniteBlockMatrix(1, negative))
    assert not report.ok
    assert report.max_offdiag_violation >= 0.2
    for values, message in (([[0.5, 0.0], [1.0, -1.0]], "positive diagonal 5.000e-01 at state 0"),
                            ([[-1.0, np.nan], [1.0, -1.0]], "non-finite entries present"),
                            ([[-1.0, 1.0], [np.inf, -1.0]], "non-finite entries present")):
        report = validate_q_matrix(FiniteBlockMatrix(1, np.array(values)))
        assert not report.ok and message in report.messages


def test_validate_q_matrix_values_are_pinned(fleet_models):
    # (ok, conservative, max_offdiag_violation, max_diag_violation,
    # max_row_defect, row_scale, messages), exact: a model's probe window
    # gives its signs and row scale, its exact row sums S(k;0) 1 the defect
    tail = GeometricTail(coef=np.array([[0.25]]), ratio=0.5)
    models = dict(
        fleet_models,
        tailed_banded=BandedModel(d=1, L=1, U=1, K_hom=1, tail=tail, rows={
            0: {0: [[-1.5]], 1: [[1.5]]}, 1: {-1: [[2.0]], 0: [[-3.125]], 1: [[1.0]]}}),
        mg1=Mg1Model(2, *tailed_mg1_parts(np.random.default_rng(23))),
        # level 1, phase 1 (state 3) loses 0.75
        leaky=BandedModel(d=2, L=1, U=1, K_hom=1, rows={
            0: {0: [[-1.0, 0.5], [0.5, -1.0]], 1: [[0.5, 0.0], [0.0, 0.5]]},
            1: {-1: [[1.0, 0.0], [0.0, 1.0]], 0: [[-2.0, 0.5], [0.5, -2.5]],
                1: [[0.5, 0.0], [0.0, 0.25]]}}),
        bad=FiniteBlockMatrix(1, np.array([[-1.0, 1.0], [2.0, -1.5]])),
        negative=FiniteBlockMatrix(1, np.array([[-1.0, -0.2], [1.0, -1.0]])),
    )
    expected = {
        "mm1": (True, True, 0.0, 0.0, 0.0, 6.0, []),
        "d2": (True, True, 0.0, 0.0, 4.440892098500626e-16, 10.9, []),
        "d2_disaster": (True, True, 0.0, 0.0, 4.440892098500626e-16, 11.9, []),
        "tailed_banded": (True, True, 0.0, 0.0, 0.0, 6.21875, []),
        "mg1": (True, True, 0.0, 0.0, 2.220446049250313e-16, 4.364344260958634, []),
        "leaky": (False, False, 0.0, 0.0, 0.75, 4.25,
                  ["row sum -7.500e-01 at state 3 exceeds tolerance 4.250e-10"]),
        "bad": (False, False, 0.0, 0.0, 0.5, 3.5,
                ["row sum 5.000e-01 at state 1 exceeds tolerance 3.500e-10"]),
        "negative": (False, False, 0.2, 0.0, 1.2, 2.0,
                     ["negative off-diagonal -2.000e-01 at (0,1)",
                      "row sum -1.200e+00 at state 0 exceeds tolerance 2.000e-10"]),
    }
    for name, M in models.items():
        r = validate_q_matrix(M)
        assert (r.ok, r.conservative, r.max_offdiag_violation, r.max_diag_violation,
                r.max_row_defect, r.row_scale, r.messages) == expected[name], name


def test_phase_generator_collapses_levels(mm1, d2_psi05):
    xi = phase_generator(build_generator(mm1))
    np.testing.assert_allclose(xi, [[0.0]], atol=1e-14)
    xi2 = phase_generator(build_generator(d2_psi05))
    np.testing.assert_allclose(xi2.sum(axis=1), [0.0, 0.0], atol=1e-13)
    assert xi2[0, 1] > 0


def test_phase_generator_requires_constant_arrivals():
    # both rows are conservative, but their phase-mixing rates differ, so
    # the per-level aggregates cannot collapse to one matrix
    rows = {
        0: {0: [[-0.5, 0.5], [0.4, -0.4]], 1: [[0.0, 0.0], [0.0, 0.0]]},
        1: {-1: [[1.0, 0.0], [0.0, 1.0]],
            0: [[-2.0, 1.0], [0.4, -1.4]],
            1: [[0.0, 0.0], [0.0, 0.0]]},
    }
    m = BandedModel(d=2, L=1, U=1, K_hom=1, rows=rows)
    with pytest.raises(NotConstantAcrossLevels):
        phase_generator(m)


def _refused_model_calls(tmp_path):
    """Model-building refusals by name, each a call that must raise."""
    D0 = np.array([[-1.0, 0.5], [0.5, -1.0]])
    D1 = np.full((2, 2), 0.25)
    queue = tailed_queue()  # r_D = 2.5

    def banded(rows, d=2):
        return BandedModel(d=d, L=1, U=1, K_hom=1, rows={
            k: {o: np.array(m) for o, m in per.items()} for k, per in rows.items()})

    def load(doc):
        return load_model(write_model(tmp_path / "m.json", doc))

    queue_doc = {"d": 1, "kind": "BmapQueue",
                 "parameters": {"D": [[[-1.0]], [[1.0]]], "mu": {"table": [2.0]}}}
    return {
        # phase aggregates constant across levels, but not a generator
        "phase_rows_leak": lambda: phase_generator(banded(
            {0: {0: [[-1.0]], 1: [[0.5]]}, 1: {-1: [[2.0]], 0: [[-3.0]], 1: [[0.5]]}}, d=1)),
        "phase_negative_off_diagonal": lambda: phase_generator(banded(
            {0: {0: [[1.0, -1.0], [-1.0, 1.0]], 1: np.zeros((2, 2))},
             1: {-1: np.eye(2), 0: [[0.0, -1.0], [-1.0, 0.0]], 1: np.zeros((2, 2))}})),
        # a negative band loaded, and d = 0 built a model
        **{f"banded_{field}_{value!r}": functools.partial(BandedModel, **dict(
            dict(d=1, L=1, U=1, K_hom=1, rows={0: {0: [[-1.0]], 1: [[1.0]]}}), **{field: value}))
           for field, value in (("d", 0), ("L", -1), ("U", -1), ("L", 1.0), ("K_hom", True))},
        "mg1_d_0": lambda: Mg1Model(d=0, repeat=[np.zeros((0, 0))] * 2,
                                   boundary=[np.zeros((0, 0))]),
        "tail_ratio_0": lambda: GeometricTail(coef=D1, ratio=0.0),
        "tail_ratio_1": lambda: GeometricTail(coef=D1, ratio=1.0),
        "tail_ratio_negative": lambda: GeometricTail(coef=D1, ratio=-0.5),
        "tail_negative_coef": lambda: GeometricTail(coef=-D1, ratio=0.5),
        "queue_without_D": lambda: BmapQueueModel(d=2, D=[], mu=MuRule(table=(2.0,))),
        "queue_misshapen_D1": lambda: BmapQueueModel(d=2, D=[D0, np.full((3, 3), 0.25)],
                                                     mu=MuRule(table=(2.0,))),
        "queue_negative_D0": lambda: BmapQueueModel(
            d=2, D=[np.array([[-1.0, -0.5], [0.5, -1.0]]), D1], mu=MuRule(table=(2.0,))),
        "dhat_at_0": lambda: queue.dhat(0.0),
        "dhat_at_r_D": lambda: queue.dhat(2.5),
        "dhat_past_r_D": lambda: queue.dhat(np.array([1.5, 3.0])),
        "load_without_kind": lambda: load({"d": 1, "parameters": {}}),
        "load_not_an_object": lambda: load([1, "BmapQueue"]),
        "load_d_below_1": lambda: load(dict(queue_doc, d=0)),
        "load_mu_without_table": lambda: load(dict(queue_doc, parameters=dict(
            queue_doc["parameters"], mu={"value": 2.0}))),
        "load_misshapen_matrix": lambda: load({
            "d": 1, "kind": "MG1Type",
            "parameters": {"A": [[[2.0]], [[-3.0]], [[1.0, 0.0]]], "B": [[[-1.0]], [[1.0]]]}}),
    }


@pytest.mark.parametrize("name, error, fragment", [
    ("phase_rows_leak", NotStochastic, "phase generator rows sum to 5.000e-01, not 0"),
    ("phase_negative_off_diagonal", NotStochastic,
     "phase generator has negative off-diagonal entries"),
    ("banded_d_0", InputError, "d must be >= 1, got 0"),
    ("banded_L_-1", InputError, "L must be >= 0, got -1"),
    ("banded_U_-1", InputError, "U must be >= 0, got -1"),
    ("banded_L_1.0", InputError, "L must be an integer, got 1.0"),
    ("banded_K_hom_True", InputError, "K_hom must be an integer, got True"),
    ("mg1_d_0", InputError, "d must be >= 1, got 0"),
    ("tail_ratio_0", InputError, "tail ratio must lie in (0,1), got 0.0"),
    ("tail_ratio_1", InputError, "tail ratio must lie in (0,1), got 1.0"),
    ("tail_ratio_negative", InputError, "tail ratio must lie in (0,1), got -0.5"),
    ("tail_negative_coef", InputError, "tail coefficient matrix must be nonnegative"),
    ("queue_without_D", InvalidBmap, "need at least D(0)"),
    ("queue_misshapen_D1", InvalidBmap, "D(1) has shape (3, 3), want (2, 2)"),
    ("queue_negative_D0", InvalidBmap, "D(0) has a negative off-diagonal entry"),
    ("dhat_at_0", InputError, "z=0.0 outside (0, 2.5"),
    ("dhat_at_r_D", InputError, "z=2.5 outside (0, 2.5"),
    ("dhat_past_r_D", InputError, "outside (0, 2.5"),
    ("load_without_kind", InvalidModelFile, "missing or malformed d/kind"),
    ("load_not_an_object", InvalidModelFile, "missing or malformed d/kind"),
    ("load_d_below_1", InvalidModelFile, "d must be >= 1, got 0"),
    ("load_mu_without_table", InvalidModelFile, "mu must be an object with a 'table' list"),
    ("load_misshapen_matrix", InvalidModelFile, "A[2]: expected 1x1 matrix, got shape (1, 2)"),
])
def test_model_building_refuses_what_it_cannot_use(tmp_path, name, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        _refused_model_calls(tmp_path)[name]()


def test_load_model_round_trip(tmp_path, d2_psi05):
    path = write_model(tmp_path / "queue.json", bmap_doc(d2_psi05))
    model = load_model(path)
    assert model.d == 2
    assert model.psi == 0.5
    assert model.mu.table == (3.0, 3.5)
    for k, D in enumerate(d2_psi05.D):
        np.testing.assert_array_equal(model.D[k], D)


def test_load_model_banded_and_mg1(tmp_path):
    banded = {
        "d": 1, "kind": "ExplicitBanded",
        "parameters": {
            "L": 1, "U": 1, "K_hom": 1,
            "blocks": [
                {"level": 0, "offset": 0, "matrix": [[-1.0]]},
                {"level": 0, "offset": 1, "matrix": [[1.0]]},
                {"level": 1, "offset": -1, "matrix": [[2.0]]},
                {"level": 1, "offset": 0, "matrix": [[-3.0]]},
                {"level": 1, "offset": 1, "matrix": [[1.0]]},
            ],
        },
    }
    m = load_model(write_model(tmp_path / "banded.json", banded))
    assert isinstance(m, BandedModel)
    np.testing.assert_array_equal(m.block(3, 2), [[2.0]])

    mg1 = {
        "d": 1, "kind": "MG1Type",
        "parameters": {
            "A": [[[2.0]], [[-3.0]], [[1.0]]],
            "B": [[[-1.0]], [[1.0]]],
        },
    }
    m = load_model(write_model(tmp_path / "mg1.json", mg1))
    assert isinstance(m, BandedModel)
    np.testing.assert_array_equal(m.block(2, 3), [[1.0]])


def test_mg1_model_needs_a_boundary_row(tmp_path):
    A = [np.array([[2.0]]), np.array([[-3.0]]), np.array([[1.0]])]
    with pytest.raises(InvalidModelFile, match="boundary row"):
        Mg1Model(d=1, repeat=A, boundary=[])
    doc = {"d": 1, "kind": "MG1Type",
           "parameters": {"A": [[[2.0]], [[-3.0]], [[1.0]]], "B": []}}
    with pytest.raises(InvalidModelFile, match="boundary row"):
        load_model(write_model(tmp_path / "mg1.json", doc))


def test_load_model_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json")
    with pytest.raises(InvalidModelFile):
        load_model(str(bad))
    with pytest.raises(InvalidModelFile):
        load_model(str(tmp_path / "missing.json"))
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"d": 1, "kind": "Mystery", "parameters": {}}))
    with pytest.raises(InvalidModelFile):
        load_model(str(unknown))
    k_max_clash = bmap_doc(
        load_model(write_model(tmp_path / "q.json",
                               {"d": 1, "kind": "BmapQueue",
                                "parameters": {"D": [[[-1.0]], [[1.0]]],
                                               "mu": {"table": [2.0]}}}))
    )
    k_max_clash["parameters"]["k_max"] = 5
    with pytest.raises(InvalidModelFile):
        load_model(write_model(tmp_path / "clash.json", k_max_clash))
    # banded blocks the model would never read: below level 0, above K_hom
    blocks = [{"level": 0, "offset": 0, "matrix": [[-1.0]]},
              {"level": 0, "offset": 1, "matrix": [[1.0]]},
              {"level": 1, "offset": -1, "matrix": [[2.0]]},
              {"level": 1, "offset": 0, "matrix": [[-3.0]]},
              {"level": 1, "offset": 1, "matrix": [[1.0]]}]
    for level in (-3, 2):
        doc = {"d": 1, "kind": "ExplicitBanded",
               "parameters": {"L": 1, "U": 1, "K_hom": 1, "blocks": blocks + [
                   {"level": level, "offset": 0, "matrix": [[-0.5]]}]}}
        with pytest.raises(InvalidModelFile, match=f"level {level} outside 0..K_hom=1"):
            load_model(write_model(tmp_path / "banded.json", doc))


def _band_model_parts():
    """The banded model of `_band_models` and its M/G/1 models' (repeat,
    boundary, tail): without a tail, with one, and with a boundary row
    shorter than the repeating one."""
    rng = np.random.default_rng(8)

    def blk():
        return rng.uniform(0.0, 1.0, (2, 2))

    banded = BandedModel(d=2, L=2, U=1, K_hom=3, rows={
        k: {o: blk() for o in range(-min(k, 2), 2)} for k in range(4)
    })
    repeat = [blk() for _ in range(3)]
    boundary = [blk() for _ in range(4)]
    tail = GeometricTail(coef=blk(), ratio=0.5)
    return banded, {
        "mg1": (repeat, boundary, None),
        "mg1_tail": (repeat, boundary, tail),
        "mg1_short_boundary_tail": (repeat, boundary[:1], tail),
    }


def _band_models(fleet_models):
    """One model of each kind, tails included, plus the fleet queues."""
    banded, mg1_parts = _band_model_parts()
    models = {"banded": banded}
    models.update({name: Mg1Model(2, *parts) for name, parts in mg1_parts.items()})
    models["queue_tail"] = tailed_queue()
    models.update(fleet_models)
    return models


def assert_window_matches_brute_force(model, name=""):
    for n in (0, 1, 2, 5, 12):
        np.testing.assert_array_equal(model.window(n).values,
                                      brute_window(model, n), err_msg=name)


def test_window_matches_brute_force(fleet_models):
    for name, model in _band_models(fleet_models).items():
        assert_window_matches_brute_force(model, name)


@given(B=regime_queues())
def test_window_matches_brute_force_on_regime_queues(B):
    assert_window_matches_brute_force(B)


def test_window_calls_block_only_on_the_band(fleet_models):
    n = 40
    for name, model in _band_models(fleet_models).items():
        calls = []
        original = model.blocks
        model.blocks = lambda ks, ls: calls.extend(zip(ks, ls)) or original(ks, ls)
        try:
            model.window(n)
        finally:
            del model.blocks
        # column 0 plus the band k-L..k+U, whatever n is
        width = model.lower_hint() + model.upper_hint() + 2
        assert len(calls) <= (n + 1) * width, name
        assert all(l == 0 or model.band(k)[0] <= l <= model.band(k)[1] for k, l in calls), name


def assert_blocks_are_the_block_calls(model, top, name=""):
    """`blocks` over every pair of rows 0..top and columns -1 .. past the band
    equals the stacked `block` calls bit for bit, the sign of zero included."""
    pairs = [(k, l) for k in range(top + 1) for l in range(-1, top + model.upper_hint() + 4)]
    expected = np.stack([model.block(k, l) for k, l in pairs])
    ks, ls = (list(levels) for levels in zip(*pairs))
    for got in (model.blocks(ks, ls), model.blocks(np.array(ks), np.array(ls))):
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64),
                                      err_msg=name)
    assert model.blocks([], []).shape == (0, model.d, model.d)


def test_blocks_are_the_block_calls(fleet_models, pure_disaster):
    def queue(mu, psi=0.5):
        return BmapQueueModel(d=2, D=d2_blocks(), mu=mu, psi=psi)

    models = {
        **_band_models(fleet_models),  # every kind; queues with psi = 0 and psi > 0
        "pure_reset": pure_disaster,  # mu = 0
        "affine_d1": affine_disaster_queue(),
        "affine_table": queue(MuRule(table=(1.0, 2.0, 2.5), eventual="affine", slope=0.3)),
        "eventual_value": queue(MuRule(table=(1.0, 2.0), value=4.0), psi=0.0),
        "tail_psi0": tailed_queue(psi=0.0),
    }
    for name, model in models.items():
        # rows 0, 1, 2 and levels well past every mu table
        assert_blocks_are_the_block_calls(model, 9, name)
    # tail blocks far out, where only the closed form fills the row
    B = models["queue_tail"]
    far = B.blocks([0, 3, 40], [30, 40, 60])
    for got, (k, l) in zip(far, [(0, 30), (3, 40), (40, 60)]):
        np.testing.assert_array_equal(got.view(np.uint64), B.block(k, l).view(np.uint64))


@given(B=regime_queues())
def test_queue_blocks_are_the_block_calls_on_regime_queues(B):
    assert_blocks_are_the_block_calls(B, 6)


def test_mu_rule_at_matches_mu():
    rules = [
        MuRule(table=(2.0,)),
        MuRule(table=(3.0, 3.5), value=3.5),
        MuRule(table=(1.0, 2.0), value=4.0),
        MuRule(table=(2.06,), eventual="affine", slope=0.103),
        MuRule(table=(1.0, 2.0, 2.5), eventual="affine", slope=0.3),
        MuRule(table=(0.0,)),
    ]
    levels = np.arange(-2, 60)
    for rule in rules:
        expected = np.array([rule(int(k)) for k in levels])
        np.testing.assert_array_equal(rule.at(levels).view(np.uint64),
                                      expected.view(np.uint64), err_msg=repr(rule))


def assert_fold_matches_brute_force(model, name=""):
    for n in (2, 5, 15):
        custom = TruncationSpec(n=n, style="custom", weights={0: 0.3, n // 2: 0.2, n: 0.5})
        pairs = [
            (lc_truncate(model, n), TruncationSpec(n=n, style="lc")),
            (fc_truncate(model, n), TruncationSpec(n=n, style="fc")),
            (custom_truncate(model, custom), custom),
        ]
        for corner, spec in pairs:
            np.testing.assert_array_equal(corner.matrix.values, brute_corner(model, spec),
                                          err_msg=f"{name} {spec.style} n={n}")


def test_truncation_fold_matches_brute_force(fleet_models):
    queues = {"queue_tail": tailed_queue()}
    queues.update(fleet_models)
    for name, model in queues.items():
        assert_fold_matches_brute_force(model, name)


@given(B=regime_queues())
def test_truncation_fold_matches_brute_force_on_regime_queues(B):
    assert_fold_matches_brute_force(B)


def test_tail_sum_matches_deep_window(fleet_models):
    # geometric tails decay like 0.5**l, so past level 200 they vanish in
    # double precision and the deep window's row sums are the whole row
    deep = 200
    for name, model in _band_models(fleet_models).items():
        d = model.d
        blocks = model.window(deep).values.reshape(deep + 1, d, deep + 1, d)
        for k in range(8):
            for l in range(k + model.upper_hint() + 4):
                brute = blocks[k, :, l:, :].sum(axis=1)
                np.testing.assert_allclose(model.tail_sum(k, l), brute, rtol=1e-12,
                                           atol=1e-14, err_msg=f"{name} k={k} l={l}")


def test_apply_row_matches_window_product(fleet_models):
    n = 30
    for name, model in _band_models(fleet_models).items():
        d = model.d
        v = GeometricVector(beta=1.3, u=np.linspace(1.0, 2.0, d), shift=0.25)
        rows = model.window(n).values
        vn = v.levels(n)
        for k in range(10):
            expected = rows[k * d:(k + 1) * d] @ vn
            tail = model.row_tail(k)
            if tail is not None:
                # columns l > n hold coef * ratio**(l-k) against beta**l u + shift
                j0 = n + 1 - k
                x = v.beta * tail.ratio
                expected = expected + (tail.coef @ v.u) * v.beta ** k * x ** j0 / (1.0 - x)
                expected = expected + tail.coef.sum(axis=1) * v.shift * (
                    tail.ratio ** j0 / (1.0 - tail.ratio))
            np.testing.assert_allclose(model.apply_row(k, v), expected, rtol=1e-12,
                                       atol=1e-13, err_msg=f"{name} k={k}")


def _slack_law_model_parts():
    """The banded model of `_slack_law_models` and its M/G/1 model's
    (repeat, boundary, tail)."""
    rng = np.random.default_rng(11)

    def blk():
        return rng.uniform(0.0, 1.0, (2, 2))

    banded = BandedModel(d=2, L=2, U=2, K_hom=3, rows={
        k: {o: blk() for o in range(-min(k, 2), 3)} for k in range(4)
    })
    tail = GeometricTail(coef=blk(), ratio=0.4)
    return banded, ([blk() for _ in range(3)], [blk() for _ in range(2)], tail)


def _slack_law_models():
    """A banded model with L = U = 2, an M/G/1 model with a tail, and tailed
    queues under constant and affine service, with and without disasters."""
    banded, mg1_parts = _slack_law_model_parts()
    models = {"banded": banded, "mg1_tail": Mg1Model(2, *mg1_parts)}
    base = tailed_queue()
    for rule in (MuRule(table=(2.5, 3.0)),
                 MuRule(table=(2.5, 3.0), eventual="affine", slope=0.4)):
        for psi in (0.0, 0.6):
            models[f"queue_{rule.eventual}_psi{psi}"] = dataclasses.replace(
                base, mu=rule, psi=psi)
    return models


def test_slack_law_matches_apply_row():
    for name, model in _slack_law_models().items():
        v = GeometricVector(beta=1.3, u=np.linspace(1.0, 2.0, model.d), shift=0.7)
        c = 0.2
        a0, a1, g0 = model.slack_law(v, c)
        k0 = model.drift_fit_level()
        for k in range(k0, k0 + 40):
            exact = model.apply_row(k, v) + c * v.level(k)
            law = v.beta ** k * (a0 + a1 * k) + g0
            scale = max(float(np.max(np.abs(exact))), c * float(np.max(v.level(k))))
            assert float(np.max(np.abs(law - exact))) <= 1e-13 * scale, f"{name} k={k}"
        if "affine" in name:
            assert float(np.max(a1)) < 0.0
        else:
            assert not np.any(a1)


def _mg1_cases():
    """(repeat, boundary, tail) of the M/G/1 models of `_band_models`,
    `_slack_law_models` and `tailed_mg1`."""
    _, cases = _band_model_parts()
    cases["slack_law_mg1_tail"] = _slack_law_model_parts()[1]
    cases["tailed_mg1"] = tailed_mg1_parts(np.random.default_rng(23))
    return cases


def assert_same_bits(got, expected, name):
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    assert got.shape == expected.shape, name
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64), err_msg=name)


def test_mg1_model_follows_the_mg1_block_rule():
    """Blocks, corners, tail sums, row products and the slack law of an
    `Mg1Model` are those of `mg1_block` under the band [k - 1, k + U] with
    U = max(len(A) - 2, len(B) - 1) and the tail on rows k >= 1, bit for bit."""
    v = GeometricVector(beta=1.3, u=np.linspace(1.0, 2.0, 2), shift=0.7)
    c = 0.2
    for name, (repeat, boundary, tail) in _mg1_cases().items():
        model = Mg1Model(2, repeat, boundary, tail)
        assert isinstance(model, BandedModel), name
        U = max(len(repeat) - 2, len(boundary) - 1)

        def block(k, l):
            return mg1_block(repeat, boundary, tail, k, l)

        def tail_sum(k, l):
            out = np.zeros((2, 2))
            for m in range(l, k + U + 1):
                out = out + block(k, m)
            if tail is not None and k >= 1:
                out = out + tail.sum_from(max(l, k + U + 1) - k)
            return out

        top = 8 + U + 3
        for k in range(9):
            for l in range(-1, top + 1):
                assert_same_bits(model.block(k, l), block(k, l), f"{name} block({k}, {l})")
            assert_same_bits(model.tail_sums(k, 0, top + 1),
                             [tail_sum(k, l) for l in range(top + 1)], f"{name} S({k}; .)")
            row = np.zeros(2)
            for l in range(k + U + 1):
                row = row + block(k, l) @ v.level(l)
            if tail is not None and k >= 1:
                row = row + v.beta ** k * (tail.power_series_from(U + 1, v.beta) @ v.u)
                row = row + v.shift * tail.sum_from(U + 1).sum(axis=1)
            assert_same_bits(model.apply_row(k, v), row, f"{name} (Qv)({k})")
        for n in (0, 1, 2, 5, 12):
            brute = np.block([[block(k, l) for l in range(n + 1)] for k in range(n + 1)])
            assert_same_bits(model.window(n).values, brute, f"{name} window({n})")
        k = max(2, U + 2)
        assert model.drift_fit_level() == k, name
        a0 = c * v.u
        for l in range(k - 1, k + U + 1):
            a0 = a0 + v.beta ** (l - k) * (block(k, l) @ v.u)
        if tail is not None:
            a0 = a0 + tail.power_series_from(U + 1, v.beta) @ v.u
        g0 = v.shift * (tail_sum(k, 1).sum(axis=1) + c) + block(k, 0) @ v.u
        for got, expected in zip(model.slack_law(v, c), (a0, np.zeros(2), g0)):
            assert_same_bits(got, expected, f"{name} slack law")


def test_model_kinds_supply_only_blocks_and_band_hints():
    kinds = [cls for mod in (blockmat, truncate) for cls in vars(mod).values()
             if isinstance(cls, type) and issubclass(cls, BlockGeneratorModel)
             and cls is not BlockGeneratorModel]
    assert {cls.__name__ for cls in kinds} == {"BandedModel", "BmapQueueModel",
                                               "TruncatedGenerator"}
    for cls in kinds:
        derived = {"tail_sum", "tail_sums", "apply_row", "window"} & set(vars(cls))
        assert not derived, f"{cls.__name__} overrides {sorted(derived)}"


@st.composite
def _adjacency(draw):
    d = draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.05, 0.15, 0.3, 0.6]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return np.random.default_rng(seed).random((d, d)) < density


@settings(max_examples=200, deadline=None, derandomize=True)
@given(adj=_adjacency())
def test_reachable_matches_scipy_shortest_paths(adj):
    dist = shortest_path(adj.astype(float), unweighted=True)
    np.testing.assert_array_equal(reachable(adj), dist < np.inf)
