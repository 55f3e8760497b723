import numpy as np
import pytest

from bmtrunc import (
    BandedModel,
    BmapModel,
    CertificateNotVerified,
    DriftCertificate,
    DriftViolated,
    FirstColumnUnreachable,
    GeometricVector,
    InputError,
    MuRule,
    bounds,
    build_generator,
    corollary_transform,
    decay_exponent,
    drift_check,
    minimized_bound,
    spectral,
    t_star,
    theorem_bound,
)
from helpers import d2_blocks, golden_min


def test_geometric_vector_guards():
    with pytest.raises(InputError):
        GeometricVector(beta=0.9, u=np.array([1.0]))
    with pytest.raises(InputError):
        GeometricVector(beta=2.0, u=np.array([0.5]))


@pytest.mark.parametrize("beta", [37.5, np.float64(37.5)])
def test_weights_past_the_float_range_are_not_certified(beta):
    v = GeometricVector(beta=beta, u=np.array([1.0, 2.0]))
    assert np.isfinite(v.level(195)).all() and np.isfinite(v.levels(195)).all()
    for weigh in (v.level, v.levels):
        with pytest.raises(CertificateNotVerified, match="at level 196 "):
            weigh(300)


@pytest.fixture(scope="module")
def mm1_cert_and_model(mm1, fleet_certs):
    return fleet_certs["mm1"], build_generator(mm1)


def test_drift_check_accepts_true_constants(mm1_cert_and_model):
    cert, G = mm1_cert_and_model
    again = drift_check(G, cert.v, c=cert.c, b=cert.b)
    assert again.verified
    assert "checked exactly" in again.origin


def test_drift_check_flags_overclaimed_rate(mm1_cert_and_model):
    cert, G = mm1_cert_and_model
    with pytest.raises(DriftViolated) as exc:
        drift_check(G, cert.v, c=2 * cert.c + 0.2, b=cert.b)
    assert exc.value.level == 0
    assert exc.value.slack > 0


def test_drift_check_flags_starved_offset(mm1_cert_and_model):
    cert, G = mm1_cert_and_model
    with pytest.raises(DriftViolated) as exc:
        drift_check(G, cert.v, c=cert.c, b=1e-6)
    assert exc.value.level == 0


def test_bound_at_zero_is_four_b_over_c(mm1_cert_and_model, fleet_certs,
                                        fleet_models):
    cert, G = mm1_cert_and_model
    assert theorem_bound(cert, G, 10, 0.0) == pytest.approx(
        4 * cert.b / cert.c, rel=1e-14)
    for name, model in fleet_models.items():
        c = fleet_certs[name]
        Gm = model
        assert theorem_bound(c, Gm, 8, 0.0) == pytest.approx(
            4 * c.b / c.c, rel=1e-13)


def test_weighted_diag_structure(mm1_cert_and_model):
    # for the single-phase queue each weighted diagonal term is
    # (service + arrival diagonal) / profile, so scaling by beta^n must
    # give back that constant
    cert, G = mm1_cert_and_model
    w10 = bounds.weighted_diag_sum(cert, G, 10)
    assert w10 * cert.v.beta ** 10 == pytest.approx(3.0, abs=1e-12)
    w11 = bounds.weighted_diag_sum(cert, G, 11)
    assert w11 / w10 == pytest.approx(1.0 / cert.v.beta, rel=1e-12)


def test_t_star_against_direct_minimization(mm1_cert_and_model, fleet_certs,
                                            fleet_models):
    cert, G = mm1_cert_and_model
    ts = t_star(cert, G, 10)
    ref = golden_min(lambda t: theorem_bound(cert, G, 10, t), 1e-6, 100.0)
    assert ts == pytest.approx(ref, rel=1e-8)
    assert ts == pytest.approx(7.562521966432397, rel=1e-12)
    for name, model in fleet_models.items():
        c = fleet_certs[name]
        tn = t_star(c, model, 20)
        if tn == 0.0:
            # boundary regime: the curve is already increasing at the origin
            assert theorem_bound(c, model, 20, 0.0) <= theorem_bound(
                c, model, 20, 1e-3)
        else:
            rn = golden_min(lambda t: theorem_bound(c, model, 20, t),
                            1e-6, 10 * tn + 10)
            assert tn == pytest.approx(rn, rel=1e-7)


def test_minimized_bound_is_curve_at_t_star(mm1_cert_and_model):
    cert, G = mm1_cert_and_model
    for n in (5, 10, 40):
        ts = t_star(cert, G, n)
        assert minimized_bound(cert, G, n) == pytest.approx(
            theorem_bound(cert, G, n, ts), rel=1e-12)


def test_decay_exponent_scales_t_star(mm1_cert_and_model):
    cert, G = mm1_cert_and_model
    theta = decay_exponent(cert, G, 10)
    assert theta == pytest.approx(cert.c * t_star(cert, G, 10), rel=1e-12)


def test_small_window_hits_flat_regime(mm1_cert_and_model):
    # for very small corners the weighted diagonal sum is too large for the
    # exponential term to help, so the optimum sits at t = 0
    cert, G = mm1_cert_and_model
    rep = bounds.bound_report(cert, G, 2)
    assert rep.t_star == 0.0
    assert rep.theta == 0.0
    assert rep.bound_min == pytest.approx(4 * cert.b / cert.c, rel=1e-14)


def test_bound_report_fields(mm1_cert_and_model):
    cert, G = mm1_cert_and_model
    rep = bounds.bound_report(cert, G, 10, true_tv=0.012)
    assert rep.n == 10
    assert rep.c == cert.c and rep.b == cert.b
    assert rep.style == "lc"
    assert rep.true_tv == 0.012
    assert rep.bound_min == pytest.approx(8.572417387538925, rel=1e-12)
    assert rep.weighted_diag == pytest.approx(3.0 * cert.v.beta ** -10,
                                              rel=1e-12)


def test_corollary_transform_is_identity_at_level_zero(mm1_cert_and_model):
    cert, G = mm1_cert_and_model
    flat = corollary_transform(cert, G)
    assert flat.K == 0
    assert flat.c == cert.c and flat.b == cert.b


def test_corollary_transform_flattens_disaster_certificate(pure_disaster):
    from bmtrunc import find_constants_disaster

    raised = find_constants_disaster(pure_disaster)
    assert raised.K == 3 and raised.verified
    assert raised.c == pytest.approx(0.09450125262559816, rel=1e-12)
    assert raised.b == pytest.approx(0.5024638094511331, rel=1e-12)
    flat = corollary_transform(raised, build_generator(pure_disaster))
    assert flat.K == 0 and flat.verified
    assert flat.c == pytest.approx(0.06289752340864738, rel=1e-12)
    assert flat.b == pytest.approx(1.1305435712650496, rel=1e-12)
    # the offset folded into the profile is exactly b' over the reset rate
    assert flat.v.shift == pytest.approx(raised.b / pure_disaster.psi,
                                         rel=1e-12)


def test_corollary_transform_needs_reachable_first_column():
    rows = {
        0: {0: np.array([[-1.0]]), 1: np.array([[1.0]])},
        1: {-1: np.array([[0.0]]), 0: np.array([[-1.0]]),
            1: np.array([[1.0]])},
    }
    pure_birth = BandedModel(d=1, L=1, U=1, K_hom=1, rows=rows)
    fake = DriftCertificate(v=GeometricVector(beta=1.5, u=np.array([1.0])),
                            c=0.1, b=5.0, K=1, verified=True, origin="hand")
    with pytest.raises(FirstColumnUnreachable):
        corollary_transform(fake, pure_birth)


@pytest.mark.parametrize("slope, expected", [
    (0.0, {"horizon", "tail"}),
    (0.002, {"horizon", "tail", "verified"}),
    (0.02, {"horizon", "verified"}),
])
def test_tail_violations_name_real_rows(slope, expected):
    # Rows through the horizon carry the offset, and a large shift with
    # psi > c makes the constant part g0 very negative; c is then pushed
    # past the largest rate the tail can carry, so the geometric
    # coefficient at the horizon is positive and the slack rises past it.
    # Under affine service that rise may stop short of the tolerance.
    rule = MuRule(table=(1.0,), eventual="affine", slope=slope)
    B = BmapModel(d=2, D=d2_blocks(), mu=rule, psi=3.0)
    k_fit = B.drift_fit_level()
    b = 1e4
    outcomes = set()
    for shift in (10.0, 100.0):
        for extra in (1e-3, 1e-2, 0.1):
            v = GeometricVector(beta=1.3, u=spectral(B, 1.3).right, shift=shift)
            a0, a1, _ = B.slack_law(v, 0.0)
            c = float(np.max(-(a0 + a1 * k_fit) / v.u)) + extra

            def scaled(k):
                vk = v.level(k)
                s = B.apply_row(k, v) + c * vk
                return s, bounds.DRIFT_TOL * max(1.0, c * float(vk.max()), b)

            try:
                drift_check(B, v, c, b, K=k_fit - 1)
            except DriftViolated as exc:
                if exc.level <= k_fit:
                    outcomes.add("horizon")
                    continue
                outcomes.add("tail")
                s, tau = scaled(exc.level)
                assert exc.slack == pytest.approx(float(s[exc.phase]), rel=1e-9)
                assert exc.slack > tau
                # it is the first such row
                for k in range(k_fit, exc.level):
                    s, tau = scaled(k)
                    assert float(s.max()) <= tau
            else:
                outcomes.add("verified")
                for k in range(k_fit, k_fit + 300):
                    s, tau = scaled(k)
                    assert float(s.max()) <= tau
    assert outcomes == expected


def test_tail_rising_past_float_range_is_not_certified():
    # A stand-in model whose slack law keeps rising at every level floats
    # can weigh (beta = 2 reaches e**700 at level 1009) without any row
    # there exceeding its tolerance: no verdict is possible.
    class Rising:
        d = 1

        def drift_fit_level(self):
            return 5

        def apply_row(self, k, v):
            return -2.0 * v.level(k)

        def slack_law(self, v, c):
            return np.array([1.0]), np.zeros(1), np.array([-1e305])

    with pytest.raises(CertificateNotVerified, match="still rising"):
        drift_check(Rising(), GeometricVector(beta=2.0, u=np.array([1.0])), c=1.0, b=1.0)
