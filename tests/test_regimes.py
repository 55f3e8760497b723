"""Certificates against independent oracles across the queue regimes.

The queues come from `helpers.regime_queues`; how many are drawn is set by
the hypothesis profile loaded in conftest.py (HYPOTHESIS_PROFILE=deep for
a long run).
"""

import numpy as np
import pytest
from hypothesis import assume, given

from bmtrunc import (
    BmapQueueModel,
    MuRule,
    corollary_transform,
    find_beta_no_disaster,
    find_constants_disaster,
    generator_is_block_monotone,
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
def test_every_regime_queue_is_block_monotone(B):
    # the certificate searches take this from BmapQueueModel's proof and
    # no longer scan for it
    assert generator_is_block_monotone(B).holds


@given(B=regime_queues())
def test_search_matches_the_serial_oracle_in_every_regime(B):
    # the batched grid picks the same point as one spectral call per base
    search = find_beta_no_disaster if B.psi == 0.0 else find_constants_disaster
    assert_same_certificate(search(B), serial_certificate(B))


@given(B=regime_queues())
def test_offset_table_matches_the_scalar_objective_in_every_regime(B):
    assume(B.psi > 0.0)
    assert_table_matches_the_objective(B)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "drift_check skips the slack-law walk when the law's value at k_fit is "
    "within that row's tolerance, so a positive a0 that rises like beta**k "
    "passes unseen (the drift_check FOUND entry of CHANGES.md)"))
def test_the_cycle_closed_by_arrivals_holds_its_certificate_at_every_level():
    # a draw of the deep regime suite: d = 4 phases on a cycle that only
    # arrivals close, constant service 0.128, no disasters and no tail.  The
    # search's certificate (beta = 1.18966, c = 2.18166e-3) verifies, but
    # its delta_D sits 2.5e-13 below the Collatz-Wielandt ratio of its own
    # u, and deep in the law's range every row's scaled slack is 1.0284e-10
    D0 = np.array([
        [-0.5822520760678682, 0.5822520760678682, 0.0, 0.0],
        [0.0, -0.30923372890363937, 0.30923372890363937, 0.0],
        [0.0, 0.0, -0.75443609154292, 0.75443609154292],
        [0.0, 0.0, 0.0, -0.2892074173046665]])
    D1 = np.zeros((4, 4))
    D1[3, 0] = 0.2892074173046665
    B = BmapQueueModel(d=4, D=[D0, D1], mu=MuRule(table=(0.12840941927781674,)))
    cert = find_beta_no_disaster(B)
    assert cert.verified
    assert brute_scaled_slack(B, cert) <= DRIFT_TOL
