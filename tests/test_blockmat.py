import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import shortest_path

from bmtrunc import (
    BandedModel,
    DimensionMismatch,
    FiniteBlockMatrix,
    GeometricTail,
    InputError,
    InvalidModelFile,
    Mg1Model,
    MuRule,
    NotConstantAcrossLevels,
    TruncationSpec,
    build_generator,
    custom_truncate,
    fc_truncate,
    lc_truncate,
    load_model,
    validate_q_matrix,
)
from bmtrunc.blockmat import check_block_length, phase_generator, reachable

from helpers import bmap_doc, brute_corner, brute_window, tailed_queue, write_model


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
    assert isinstance(m, Mg1Model)
    np.testing.assert_array_equal(m.block(2, 3), [[1.0]])


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


def _band_models(fleet_models):
    """One model of each kind, tails included, plus the fleet queues."""
    rng = np.random.default_rng(8)

    def blk():
        return rng.uniform(0.0, 1.0, (2, 2))

    banded = BandedModel(d=2, L=2, U=1, K_hom=3, rows={
        k: {o: blk() for o in range(-min(k, 2), 2)} for k in range(4)
    })
    repeat = [blk() for _ in range(3)]
    boundary = [blk() for _ in range(4)]
    tail = GeometricTail(coef=blk(), ratio=0.5)
    models = {
        "banded": banded,
        "mg1": Mg1Model(d=2, repeat=repeat, boundary=boundary),
        "mg1_tail": Mg1Model(d=2, repeat=repeat, boundary=boundary, tail=tail),
        "mg1_short_boundary_tail": Mg1Model(d=2, repeat=repeat, boundary=boundary[:1],
                                            tail=tail),
        "queue_tail": tailed_queue(),
    }
    models.update(fleet_models)
    return models


def test_window_matches_brute_force(fleet_models):
    for name, model in _band_models(fleet_models).items():
        for n in (0, 1, 2, 5, 12):
            np.testing.assert_array_equal(model.window(n).values,
                                          brute_window(model, n), err_msg=name)


def test_window_calls_block_only_on_the_band(fleet_models):
    n = 40
    for name, model in _band_models(fleet_models).items():
        calls = []
        original = model.block
        model.block = lambda k, l: calls.append((k, l)) or original(k, l)
        try:
            model.window(n)
        finally:
            del model.block
        # column 0 plus the band k-L..k+U, whatever n is
        width = model.lower_hint() + model.upper_hint() + 2
        assert len(calls) <= (n + 1) * width, name


def test_truncation_fold_matches_brute_force(fleet_models):
    queues = {"queue_tail": tailed_queue()}
    queues.update(fleet_models)
    for name, model in queues.items():
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
