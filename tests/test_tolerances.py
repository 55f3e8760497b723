"""Each entry of `bmtrunc.tolerances` pinned at its boundary.

A case a third of the tolerance inside its limit passes and a case three
times past it fails, so moving an entry by a factor of ten either way fails
its test; the two floors are pinned against being dropped.  Every other
module takes its tolerances from the table: no float literal at or below
1e-9 appears anywhere else in the package.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import bmtrunc
from bmtrunc import (
    BandedModel,
    BmapModel,
    FiniteBlockMatrix,
    GeometricTail,
    GeometricVector,
    InputError,
    InvalidBmap,
    InvalidRedistribution,
    MultipleClosedClasses,
    MuRule,
    NoConvergence,
    bmap,
    bound_pipeline,
    check_no_closed_classes_above,
    drift_check,
    generator_is_block_monotone,
    lc_truncate,
    stationary,
    transition_matrix,
    v_norm,
    validate_q_matrix,
)
from bmtrunc import tolerances
from bmtrunc.errors import DriftViolated
from bmtrunc.order import _tail_beyond
from bmtrunc.solve import _check_residual, _poisson_weights
from bmtrunc.truncate import _check_weights

PACKAGE = Path(bmtrunc.__file__).parent


def test_no_tolerance_literal_outside_the_table():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and 0.0 < abs(node.value) <= 1e-9):
                found.append((path.name, node.lineno, node.value))
    assert found == []


def test_the_old_names_stay_importable():
    from bmtrunc.blockmat import TAU_CONS
    from bmtrunc.bounds import DRIFT_TOL
    from bmtrunc.order import TAU_ORD
    from bmtrunc.solve import PIVOT_FLOOR
    assert (TAU_CONS, DRIFT_TOL, TAU_ORD, PIVOT_FLOOR) == (
        tolerances.TAU_CONS, tolerances.DRIFT_TOL, tolerances.TAU_ORD, tolerances.PIVOT_FLOOR)


def _bmap_with_defect(defect):
    # the phase generator D(0) + D(1) has row sums `defect` at scale 1
    return BmapModel(d=1, D=[np.array([[-1.0]]), np.array([[1.0 + defect]])],
                     mu=MuRule(table=(2.0,)))


def test_conservativity_tolerance():
    _bmap_with_defect(3e-11)
    with pytest.raises(InvalidBmap, match="not conservative"):
        _bmap_with_defect(3e-10)


def test_ordering_tolerance():
    # the largest tail sum compared is 5, so a shortfall passes up to 5e-12
    def check(shortfall):
        Q = np.array([[-1.0, 1.0, 0.0], [5.0, -10.0, 5.0], [-shortfall, 1.0, -1.0]])
        return generator_is_block_monotone(FiniteBlockMatrix(1, Q)).holds

    assert check(1.5e-12)
    assert not check(1.5e-11)


def test_drift_tolerance(mm1):
    # M/M/1 at lambda = 1, mu = 2 with v(k) = 1.5**k: Qv = -c0 v on every
    # row above 0, so c = c0 (1 + f) leaves slack f c0 v(k), which the
    # check measures against c v(k) once that passes 1
    beta = 1.5
    c0 = 3.0 - beta - 2.0 / beta
    v = GeometricVector(beta=beta, u=np.ones(1))

    def check(f):
        c = c0 * (1.0 + f)
        return drift_check(mm1, v, c, c + (beta - 1.0), K=0)

    assert check(3e-11).verified
    with pytest.raises(DriftViolated):
        check(3e-10)


def test_residual_contract():
    # the scale is max(1, max |diag Q|): 1 here, 4 below
    _check_residual(np.array([3e-13, -3e-13]), 0.5)
    _check_residual(np.array([1.2e-12]), 4.0)
    with pytest.raises(NoConvergence):
        _check_residual(np.array([3e-12]), 0.5)


def test_pivot_floor():
    # eliminating state 1 leaves the pivot eps against max |diag Q| = 1
    def solve(eps):
        return stationary(np.array([[-1.0, 1.0], [eps, -eps]]))

    assert solve(3e-14).values[0] > 0.0
    with pytest.raises(MultipleClosedClasses):
        solve(3e-15)


def test_weight_floor():
    GeometricVector(beta=2.0, u=np.array([1.0 - 3e-13, 2.0]))
    assert v_norm(np.ones(2), np.array([1.0 - 3e-13, 1.0])) == pytest.approx(2.0)
    with pytest.raises(InputError):
        GeometricVector(beta=2.0, u=np.array([1.0 - 3e-12, 2.0]))
    with pytest.raises(InputError):
        v_norm(np.ones(2), np.array([1.0 - 3e-12, 1.0]))


def test_weight_sum_tolerance():
    _check_weights({0: 0.5, 3: 0.5 + 3e-13}, 3)
    with pytest.raises(InvalidRedistribution, match="sum"):
        _check_weights({0: 0.5, 3: 0.5 + 3e-12}, 3)


def test_poisson_tail():
    # sigma t = 6: the series needs 30, 31 and 32 terms at tails of 1e-11,
    # 1e-12 and 1e-13, so the default keeps the middle one
    G = np.array([[-3.0, 3.0], [1.0, -1.0]])
    terms = [_poisson_weights(6.0, tol).size for tol in (1e-11, 1e-12, 1e-13)]
    assert len(set(terms)) == 3
    np.testing.assert_array_equal(transition_matrix(G, 2.0).values,
                                  transition_matrix(G, 2.0, tol=1e-12).values)
    for tol in (1e-11, 1e-13):
        assert not np.array_equal(transition_matrix(G, 2.0).values,
                                  transition_matrix(G, 2.0, tol=tol).values)


def test_leak_tolerance():
    # above level 1 the only rate is `leak` down a level, against a block
    # scale of 1: a smaller leak leaves each level a closed class
    def leaks(leak):
        rows = {
            0: {0: [[-1.0]], 1: [[1.0]]},
            1: {-1: [[2.0]], 0: [[-3.0]], 1: [[1.0]]},
            2: {-1: [[leak]], 0: [[-leak]], 1: [[0.0]]},
        }
        m = BandedModel(d=1, L=1, U=1, K_hom=2, rows=rows)
        return check_no_closed_classes_above(lc_truncate(m, 1), probe=3)

    assert leaks(3e-12)
    assert not leaks(3e-13)


def test_ratio_tolerance():
    # equal coefficients: only the ratio can flag the left tail
    def flagged(gap):
        left = GeometricTail(coef=np.array([[0.1]]), ratio=0.5 + gap)
        right = GeometricTail(coef=np.array([[0.1]]), ratio=0.5)
        return _tail_beyond(left, right, 4, 1e-12) is not None

    assert not flagged(3e-16)
    assert flagged(3e-15)


def test_theta_agreement(mm1, monkeypatch):
    closed_form = bmap._closed_form_theta

    def notes(f):
        def off_by(B, cert, n):
            theta = closed_form(B, cert, n)
            return theta + f * max(1.0, abs(theta))

        monkeypatch.setattr(bmap, "_closed_form_theta", off_by)
        return "disagrees" in bound_pipeline(mm1, [5])[0].origin

    assert not notes(3e-10)
    assert notes(3e-9)


def test_scale_floor():
    # entries far below the floor read as a zero matrix; without the floor
    # the tolerance would underflow to 0 and flag them
    report = validate_q_matrix(np.array([[1e-315, -1e-315], [0.0, 0.0]]))
    assert report.ok and report.conservative


def test_edge_floor():
    # the two phases meet only through rates far below the floor
    D0 = np.array([[-1.0, 1e-310], [1e-310, -1.0]])
    with pytest.raises(InvalidBmap, match="reducible"):
        BmapModel(d=2, D=[D0, np.eye(2)], mu=MuRule(table=(2.0,)))
    D0 = np.array([[-1.0, 1e-290], [1e-290, -1.0]])
    BmapModel(d=2, D=[D0, np.eye(2)], mu=MuRule(table=(2.0,)))

