"""Certificates against independent oracles across the queue regimes.

The queues come from `helpers.regime_queues`; how many are drawn is set by
the hypothesis profile loaded in conftest.py (HYPOTHESIS_PROFILE=deep for
a long run).
"""

from hypothesis import assume, given

from bmtrunc import (
    corollary_transform,
    find_beta_no_disaster,
    find_constants_disaster,
    lc_truncate,
    minimized_bound,
    stationary,
    tv_distance,
)
from bmtrunc.bounds import DRIFT_TOL
from helpers import (
    assert_same_certificate,
    assert_table_matches_the_objective,
    brute_scaled_slack,
    regime_queues,
    serial_certificate,
)


@given(B=regime_queues())
def test_certificates_hold_in_every_regime(B):
    # Every queue drawn is stable (rho < 1, or psi > 0), so the search must
    # find a positive c, and drift_check must accept it: a NoPositiveC,
    # NoFeasibleK or DriftViolated here is a false rejection.
    search = find_beta_no_disaster if B.psi == 0.0 else find_constants_disaster
    raw = search(B)
    cert = corollary_transform(raw, B)
    # no false certificates: every row holds, checked row by row
    for verified in {id(raw): raw, id(cert): cert}.values():
        assert verified.verified
        assert brute_scaled_slack(B, verified) <= DRIFT_TOL
    # the bound covers the measured error against a reference four times
    # deeper, TV(pi_n, pi_4n) <= TV(pi_n, pi) + TV(pi, pi_4n), at the first
    # level whose bounds say anything (a TV distance never exceeds 2)
    for n in (10, 20, 40):
        allowed = minimized_bound(cert, B, n) + minimized_bound(cert, B, 4 * n)
        if allowed < 2.0:
            pi_n = stationary(lc_truncate(B, n).matrix, source="lc")
            pi_ref = stationary(lc_truncate(B, 4 * n).matrix, source="lc")
            assert tv_distance(pi_n, pi_ref) <= allowed
            break


@given(B=regime_queues())
def test_search_matches_the_serial_oracle_in_every_regime(B):
    # the batched grid picks the same point as one spectral call per base
    search = find_beta_no_disaster if B.psi == 0.0 else find_constants_disaster
    assert_same_certificate(search(B), serial_certificate(B))


@given(B=regime_queues())
def test_offset_table_matches_the_scalar_objective_in_every_regime(B):
    assume(B.psi > 0.0)
    assert_table_matches_the_objective(B)
