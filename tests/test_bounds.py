import dataclasses
import functools
import math
import re
from collections import Counter

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
    KNotZero,
    MuRule,
    bounds,
    build_generator,
    corollary_transform,
    decay_exponent,
    drift_check,
    find_beta_no_disaster,
    find_constants_disaster,
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


@pytest.mark.parametrize("u, shape", [([], "(0,)"), ([[1.0, 2.0]], "(1, 2)"), (1.0, "()")],
                         ids=["empty", "row_matrix", "scalar"])
def test_geometric_vector_refuses_a_profile_that_is_not_a_nonempty_vector(u, shape):
    with pytest.raises(InputError, match=re.escape(f"shape {shape}")):
        GeometricVector(beta=1.5, u=u)


@pytest.mark.parametrize("k", [2.5, np.float64(2.0), True, "2"])
def test_geometric_vector_refuses_a_level_that_is_not_an_integer(k):
    v = GeometricVector(beta=2.0, u=[1.0])
    for weigh in (v.level, v.levels):
        with pytest.raises(InputError, match=re.escape(f"level must be an integer, got {k!r}")):
            weigh(k)
    # numpy integers are levels
    assert np.array_equal(v.levels(np.int64(2)), v.levels(2))
    assert np.array_equal(v.level(np.int32(2)), [4.0])


def test_geometric_vector_refuses_a_negative_level():
    # beta**-1 u would be a weight below the floor of 1
    v = GeometricVector(beta=2.0, u=[1.0, 1.5])
    for weigh in (v.level, v.levels):
        with pytest.raises(InputError, match="level must be >= 0, got -1"):
            weigh(-1)
    np.testing.assert_array_equal(v.levels(0), v.level(0))


def _banded_mm1():
    """M/M/1 with arrival rate 1 and service rate 2 as a `BandedModel`."""
    return BandedModel(d=1, L=1, U=1, K_hom=1, rows={
        0: {0: [[-1.0]], 1: [[1.0]]}, 1: {-1: [[2.0]], 0: [[-3.0]], 1: [[1.0]]}})


@pytest.mark.parametrize("beta, u, shift", [
    (1.5, [math.nan], 0.0),
    (1.5, [math.inf], 0.0),
    (1.5, [1.0], math.nan),
    (1.5, [1.0], math.inf),
    (math.nan, [1.0], 0.0),
    (math.inf, [1.0], 0.0),
], ids=["u_nan", "u_inf", "shift_nan", "shift_inf", "beta_nan", "beta_inf"])
def test_geometric_vector_refuses_values_that_are_not_finite(beta, u, shift):
    with pytest.raises(InputError):
        drift_check(_banded_mm1(), GeometricVector(beta=beta, u=u, shift=shift), c=0.1, b=1.0)


@pytest.mark.parametrize("c, b", [(math.nan, 1.0), (math.inf, 1.0), (0.1, math.nan)],
                         ids=["c_nan", "c_inf", "b_nan"])
def test_drift_check_refuses_constants_that_are_not_finite(mm1, c, b):
    v = GeometricVector(beta=1.5, u=[1.0])
    with pytest.raises(InputError):
        drift_check(build_generator(mm1), v, c=c, b=b)


def test_drift_check_certifies_an_infinite_offset(mm1):
    # b = inf forgives every offset row and bounds nothing: allowed, as before
    cert = drift_check(build_generator(mm1), GeometricVector(beta=1.5, u=[1.0]), c=0.1, b=math.inf)
    assert cert.verified


@pytest.mark.parametrize("beta", [37.5, np.float64(37.5)])
def test_weights_past_the_float_range_are_not_certified(beta):
    v = GeometricVector(beta=beta, u=np.array([1.0, 2.0]))
    assert np.isfinite(v.level(195)).all() and np.isfinite(v.levels(195)).all()
    for weigh in (v.level, v.levels):
        with pytest.raises(CertificateNotVerified, match="at level 196 "):
            weigh(300)


def test_weight_levels_are_the_stack_of_level_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(300):
        v = GeometricVector(beta=float(rng.uniform(1.0001, 3.0)),
                            u=rng.uniform(1.0, 4.0, size=int(rng.integers(1, 5))),
                            shift=float(rng.choice([0.0, rng.uniform(0.0, 2.0)])))
        n = 40
        np.testing.assert_array_equal(
            v.levels(n), np.concatenate([v.level(k) for k in range(n + 1)]))


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


def test_report_bound_curve_refuses_a_negative_time(mm1_cert_and_model):
    cert, G = mm1_cert_and_model
    report = bounds.bound_report(cert, G, 10)
    assert report.bound_at(0.0) == theorem_bound(cert, G, 10, 0.0)
    for t in (-1.0, -1e-300, float("nan")):
        with pytest.raises(InputError, match="time must be >= 0"):
            report.bound_at(t)


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
    assert rep.true_tv == 0.012
    assert rep.bound_min == pytest.approx(8.572417387538925, rel=1e-12)
    assert rep.weighted_diag == pytest.approx(3.0 * cert.v.beta ** -10,
                                              rel=1e-12)


def test_bound_report_refuses_levels_that_do_not_exist(mm1_cert_and_model):
    cert, G = mm1_cert_and_model
    for n in (0, -1):
        for evaluate in (bounds.bound_report, minimized_bound, t_star, decay_exponent):
            with pytest.raises(InputError, match="truncation level must be >= 1"):
                evaluate(cert, G, n)
        with pytest.raises(InputError, match="truncation level must be >= 1"):
            theorem_bound(cert, G, n, 1.0)


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


def _refused_calls(mm1, cert, offset, pure_disaster):
    """The certificate route's refusals by name, each a call that must raise.

    cert is mm1's verified level-0 certificate and offset pure_disaster's
    verified one with K = 3."""
    unverified = dataclasses.replace(cert, verified=False)
    return {
        "drift_check_negative_K": lambda: drift_check(mm1, cert.v, cert.c, cert.b, K=-1),
        # 1.5 was certified as given, and nan failed row 0 with DriftViolated
        **{f"drift_check_{K!r}_K": functools.partial(drift_check, mm1, cert.v, cert.c, cert.b,
                                                     K=K) for K in (1.5, True, math.nan)},
        "drift_check_profile_length": lambda: drift_check(
            mm1, GeometricVector(beta=cert.v.beta, u=np.ones(2)), cert.c, cert.b),
        "bound_report_unverified": lambda: bounds.bound_report(unverified, mm1, 5),
        "minimized_bound_unverified": lambda: minimized_bound(unverified, mm1, 5),
        "bound_report_offset": lambda: bounds.bound_report(offset, pure_disaster, 5),
        "minimized_bound_offset": lambda: minimized_bound(offset, pure_disaster, 5),
        "corollary_transform_unverified": lambda: corollary_transform(unverified, mm1),
    }


@pytest.mark.parametrize("name, error, fragment", [
    ("drift_check_negative_K", InputError, "offset level K must be >= 0, got -1"),
    ("drift_check_1.5_K", InputError, "offset level K must be an integer, got 1.5"),
    ("drift_check_True_K", InputError, "offset level K must be an integer, got True"),
    ("drift_check_nan_K", InputError, "offset level K must be an integer, got nan"),
    ("drift_check_profile_length", InputError, "weight profile has 2 phases, model has 1"),
    ("bound_report_unverified", CertificateNotVerified, "has not passed drift_check"),
    ("minimized_bound_unverified", CertificateNotVerified, "has not passed drift_check"),
    ("bound_report_offset", KNotZero, "offset through level K=3"),
    ("minimized_bound_offset", KNotZero, "apply corollary_transform first"),
    ("corollary_transform_unverified", CertificateNotVerified,
     "transform input must be a verified certificate"),
])
def test_the_certificate_route_refuses_what_it_cannot_use(mm1, fleet_certs, pure_disaster,
                                                          name, error, fragment):
    offset = find_constants_disaster(pure_disaster)
    assert offset.verified and offset.K == 3
    calls = _refused_calls(mm1, fleet_certs["mm1"], offset, pure_disaster)
    with pytest.raises(error, match=re.escape(fragment)):
        calls[name]()


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


def test_drift_check_computes_each_weight_once(fleet, pure_disaster, monkeypatch):
    # a row reads its own weight, and apply_row those of the row's band, so
    # neighbouring rows share levels; one check computes each weight once
    checks = []
    for B in [*fleet.values(), pure_disaster]:
        search = find_beta_no_disaster if B.psi == 0.0 else find_constants_disaster
        raw = search(B)
        level0 = corollary_transform(raw, B)
        checks += [(B, raw.v, raw.c, raw.b, raw.K), (B, level0.v, level0.c, level0.b, 0)]
    computed = Counter()
    real = GeometricVector.level

    def counted(v, k):
        computed[k] += 1
        return real(v, k)

    monkeypatch.setattr(GeometricVector, "level", counted)
    for B, *cert in checks:
        computed.clear()
        drift_check(B, *cert)
        assert set(computed) >= set(range(B.drift_fit_level() + 1))
        assert max(computed.values()) == 1, computed


def test_drift_check_raises_in_the_order_the_rows_read_the_weights():
    # beta**2 passes the float range; only rows 1 on read level 2
    v = GeometricVector(beta=1e200, u=[1.0])
    # row 0's slack, -1 + 1e200, breaks its tolerance before then
    mm1 = BmapModel(d=1, D=([[-1.0]], [[1.0]]), mu=MuRule(table=(2.0,)))
    with pytest.raises(DriftViolated) as violated:
        drift_check(mm1, v, c=1.0, b=1.0)
    assert violated.value.level == 0
    # arrivals too rare to lift row 0: row 1 meets the weight at level 2
    rare = BmapModel(d=1, D=([[-1e-250]], [[1e-250]]), mu=MuRule(table=(2.0,)))
    with pytest.raises(CertificateNotVerified, match=re.escape("float range at level 2 (")):
        drift_check(rare, v, c=1.0, b=1.0)

    # a level the vector refuses stays refused after its integer twin's
    # weight is kept
    class FloatLevels:
        d = 1

        def drift_fit_level(self):
            return 1

        def apply_row(self, k, v):
            return -2.0 * v.level(float(k))

    with pytest.raises(InputError, match=re.escape("got 0.0")):
        drift_check(FloatLevels(), GeometricVector(beta=2.0, u=[1.0]), c=1.0, b=1.0)
    # a check leaves the vector's rows as they were: one taken afterwards
    # is read-only or the caller's own to change
    cert = find_beta_no_disaster(mm1)
    fresh = GeometricVector(beta=cert.v.beta, u=cert.v.u, shift=cert.v.shift)
    for k in range(mm1.drift_fit_level() + 2):
        row = cert.v.level(k)
        if row.flags.writeable:
            row += 1.0
        assert np.array_equal(cert.v.level(k), fresh.level(k))
    assert drift_check(mm1, cert.v, cert.c, cert.b).verified
