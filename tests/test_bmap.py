import math
import time

import numpy as np
import pytest

from bmtrunc import (
    BmapModel,
    GeometricTail,
    InputError,
    InvalidBmap,
    MuRule,
    NoPositiveC,
    arrival_rate,
    bmap,
    bound_pipeline,
    build_generator,
    delta_D,
    find_beta_no_disaster,
    find_constants_disaster,
    spectral,
)
from bmtrunc.bmap import _closed_form_theta


def test_batch_family_validation():
    with pytest.raises(InvalidBmap):
        # row sums of the batch family must vanish
        BmapModel(d=1, D=[np.array([[-0.9]]), np.array([[1.0]])],
                  mu=MuRule(table=(2.0,)))
    with pytest.raises(InvalidBmap):
        BmapModel(d=1, D=[np.array([[-1.0]]), np.array([[-1.0]])],
                  mu=MuRule(table=(2.0,)))
    with pytest.raises(InvalidBmap):
        BmapModel(d=1, D=[np.array([[0.0]]), np.array([[0.0]])],
                  mu=MuRule(table=(2.0,)))
    with pytest.raises(InvalidBmap):
        # two phases that never communicate
        BmapModel(d=2, D=[-np.eye(2), np.eye(2)], mu=MuRule(table=(2.0,)))


def test_accessors(d2_psi0):
    assert d2_psi0.k_max == 3
    ps = d2_psi0.phase_sum()
    np.testing.assert_allclose(ps.sum(axis=1), 0.0, atol=1e-14)
    np.testing.assert_allclose(d2_psi0.dhat(1.0), ps, atol=1e-14)
    assert d2_psi0.r_D == math.inf


def test_geometric_tail_closes_the_defect():
    # listed blocks stop at batch size 1 with mass 0.9; the envelope
    # 0.2 * 0.5**k over k >= 2 supplies the remaining 0.1
    B = BmapModel(d=1, D=[np.array([[-1.0]]), np.array([[0.9]])],
                  mu=MuRule(table=(2.5,)),
                  tail=GeometricTail(coef=np.array([[0.2]]), ratio=0.5))
    assert B.r_D == pytest.approx(2.0)
    with pytest.raises(InvalidBmap):
        BmapModel(d=1, D=[np.array([[-1.0]]), np.array([[0.9]])],
                  mu=MuRule(table=(2.5,)),
                  tail=GeometricTail(coef=np.array([[0.1]]), ratio=0.5))


def test_arrival_rate_single_phase(mm1):
    assert arrival_rate(mm1) == pytest.approx(1.0, rel=1e-14)


def test_arrival_rate_matches_independent_derivation(d2_psi0):
    # recompute lambda from scratch: stationary phase row eta solves
    # eta * sum_k D(k) = 0, then lambda = eta (sum_k k D(k)) 1
    ps = d2_psi0.phase_sum()
    A = np.vstack([ps.T, np.ones(2)])
    rhs = np.array([0.0, 0.0, 1.0])
    eta = np.linalg.lstsq(A, rhs, rcond=None)[0]
    weighted = sum(k * Dk for k, Dk in enumerate(d2_psi0.D))
    lam = float(eta @ weighted @ np.ones(2))
    assert arrival_rate(d2_psi0) == pytest.approx(lam, rel=1e-10)


def test_spectral_single_phase_shortcut(mm1):
    rec = spectral(mm1, 1.7)
    assert rec.iterations == 0
    assert rec.residual == 0.0
    assert rec.eigenvalue == pytest.approx(float(mm1.dhat(1.7)[0, 0]))
    np.testing.assert_array_equal(rec.right, [1.0])


def test_spectral_normalization_and_residual(d2_psi0):
    for z in (1.0, 1.3, 2.1):
        rec = spectral(d2_psi0, z)
        assert rec.residual <= 1e-10
        assert rec.right.min() == pytest.approx(1.0)
        assert rec.left @ rec.right == pytest.approx(1.0, rel=1e-12)
        resid = rec.left @ d2_psi0.dhat(z) - rec.eigenvalue * rec.left
        assert float(np.abs(resid).max()) <= 1e-10
    assert spectral(d2_psi0, 1.0).eigenvalue == pytest.approx(0.0, abs=1e-12)


def test_batch_transform_slope_and_convexity(d2_psi0):
    assert delta_D(d2_psi0, 1.0) == pytest.approx(0.0, abs=1e-12)
    lam = arrival_rate(d2_psi0)
    h = 1e-4
    slope = (delta_D(d2_psi0, 1.0 + h) - delta_D(d2_psi0, 1.0 - h)) / (2 * h)
    assert slope == pytest.approx(lam, rel=1e-6)
    zs = np.linspace(1.0, 3.0, 20)
    vals = np.array([delta_D(d2_psi0, z) for z in zs])
    second = np.diff(vals, 2)
    assert float(second.min()) >= -1e-10


def test_single_phase_certificate_closed_form(mm1, fleet_certs):
    # rate-1 arrivals against rate-2 service: the optimal geometric base is
    # sqrt(2), with drift gap 3 - 2 sqrt(2) and offset 2 - sqrt(2)
    cert = fleet_certs["mm1"]
    assert cert.verified and cert.K == 0
    assert cert.v.beta == pytest.approx(math.sqrt(2.0), abs=1e-6)
    assert cert.c == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), rel=1e-12)
    assert cert.b == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-6)


def test_no_certificate_for_unstable_service():
    B = BmapModel(d=1, D=[np.array([[-1.0]]), np.array([[1.0]])],
                  mu=MuRule(table=(0.5,)))
    with pytest.raises(NoPositiveC):
        find_beta_no_disaster(B)


def test_catastrophe_certificate_direct_route(d2_psi05, fleet_certs):
    # with resets present but service still active the drift condition
    # certifies at level 0 without any transform
    cert = fleet_certs["d2_disaster"]
    assert cert.verified and cert.K == 0
    assert cert.v.beta == pytest.approx(1.2109299182004207, rel=1e-12)
    assert cert.c == pytest.approx(0.15245141041466398, rel=1e-12)
    assert cert.b == pytest.approx(0.6142472274846995, rel=1e-12)


def test_pure_reset_certificate_needs_the_transform(pure_disaster):
    raised = find_constants_disaster(pure_disaster)
    assert raised.K == 3
    assert raised.v.beta == pytest.approx(1.188646169078333, rel=1e-12)


def test_closed_form_minimizer_mirrors_generic(fleet, fleet_certs,
                                               fleet_models):
    from bmtrunc import bounds

    for name, B in fleet.items():
        cert = fleet_certs[name]
        model = fleet_models[name]
        for n in (10, 20, 40):
            rep = bounds.bound_report(cert, model, n)
            mirrored = _closed_form_theta(B, cert, n, None)
            assert mirrored == pytest.approx(rep.theta, rel=1e-9, abs=1e-12)


def test_pipeline_origins_carry_no_disagreement(fleet, pure_disaster):
    models = list(fleet.values()) + [pure_disaster]
    for B in models:
        for rep in bound_pipeline(B, [10, 20, 40]):
            assert "disagree" not in rep.origin


def test_pipeline_mode_handling(d2_psi0, d2_psi05):
    with pytest.raises(InputError):
        bound_pipeline(d2_psi0, [5], mode="nonsense")
    with pytest.raises(InputError):
        bound_pipeline(d2_psi0, [5], mode="disaster")
    with pytest.raises(InputError):
        bound_pipeline(d2_psi05, [5], mode="no_disaster")


def test_pipeline_reports(d2_psi0):
    reps = bound_pipeline(d2_psi0, [5, 10])
    assert [r.n for r in reps] == [5, 10]
    assert all(r.true_tv is None for r in reps)
    reps2 = bound_pipeline(d2_psi0, [5, 10, 20], n_ref=80)
    tvs = [r.true_tv for r in reps2]
    assert all(tv is not None for tv in tvs)
    assert tvs[0] > tvs[1] > tvs[2] > 0.0
    assert all(tv <= r.bound_min for tv, r in zip(tvs, reps2))


def test_pipeline_runtime_covers_the_corner_solve(mm1, monkeypatch):
    real = bmap.stationary

    def slow_corner_solve(G, *args, source="full-reference", **kwargs):
        if source == "lc":
            time.sleep(0.03)
        return real(G, *args, source=source, **kwargs)

    monkeypatch.setattr(bmap, "stationary", slow_corner_solve)
    reps = bound_pipeline(mm1, [5, 10], n_ref=40)
    assert all(r.runtime_ms >= 30.0 for r in reps)
