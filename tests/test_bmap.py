import dataclasses
import math
import time
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from bmtrunc import (
    BmapModel,
    BmapQueueModel,
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
from bmtrunc.bounds import DRIFT_TOL
from bmtrunc.cli import main
from bmtrunc.bmap import (
    K_CAP,
    _beta_grid,
    _closed_form_theta,
    _dense_perron,
    _disaster_constants,
    _grid_perron,
    _mu_levels,
)
from helpers import (
    affine_disaster_queue,
    assert_same_certificate,
    assert_table_matches_the_objective,
    bmap_doc,
    brute_scaled_slack,
    d2_blocks,
    offset_constants,
    power_iteration,
    random_bmap,
    serial_certificate,
    serial_grid_argmax,
    tailed_queue,
    write_model,
)


def test_batch_family_validation(mm1):
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
    for psi in (-1.0, math.inf, math.nan):
        with pytest.raises(InvalidBmap):
            dataclasses.replace(mm1, psi=psi)
    with pytest.raises(InvalidBmap, match="d must be >= 1"):
        BmapModel(d=0, D=[np.zeros((0, 0))], mu=MuRule(table=(2.0,)))


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
    # a K = 1 certificate: the conversion shift is b' over psi + mu(1), not
    # over psi alone
    offset_one = BmapModel(d=2, D=d2_blocks(), mu=MuRule(table=(1.8,)), psi=1.5)
    assert find_constants_disaster(offset_one).K == 1
    models = list(fleet.values()) + [pure_disaster, offset_one]
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


def _assert_same_spectral(B, z):
    rec = spectral(B, z)
    val, right, left, residual, iterations = power_iteration(B, z)
    assert rec.eigenvalue == val
    np.testing.assert_array_equal(rec.right, right)
    np.testing.assert_array_equal(rec.left, left)
    assert rec.residual == residual
    assert rec.iterations == iterations


def _assert_same_offset_constants(B, beta):
    """_disaster_constants equals the rescanning oracle bit for bit."""
    found = _disaster_constants(B, beta, _mu_levels(B))
    expected = offset_constants(B, beta, spectral(B, beta), K_CAP)
    if expected is None:
        assert found is None
    else:
        assert found[:3] == expected
    return found


def test_spectral_is_the_plain_power_iteration(fleet, pure_disaster):
    rng = np.random.default_rng(5)
    models = [*fleet.values(), pure_disaster,
              *(random_bmap(rng, d=d, psi=0.3) for d in (3, 5, 8))]
    for B in models:
        for z in (0.5, 1.0, 1.0 + 1e-6, 1.3, 2.0, 7.5):
            _assert_same_spectral(B, z)


def test_offset_constants_match_the_rescan(fleet, pure_disaster):
    outcomes = set()
    for B in [*fleet.values(), pure_disaster]:
        grid = _beta_grid(B)
        betas = [*grid[::7], float(grid[3]), 1.0005, 1.2, 3.0]
        for beta in betas:
            found = _assert_same_offset_constants(B, beta)
            outcomes.add(None if found is None else min(found[0], 1))
    # infeasible betas, level-0 certificates and offset ones are all covered
    assert outcomes == {None, 0, 1}


@pytest.mark.parametrize("zeros, expected_K", [(K_CAP, K_CAP), (K_CAP + 1, None)])
def test_offset_level_at_the_cap(zeros, expected_K):
    # no service through level `zeros`, fast service from the next level on:
    # with a small disaster rate the bracket turns positive exactly there
    D = (np.array([[-1.95, 0.7], [0.8, -1.95]]), np.array([[0.5, 0.2], [0.3, 0.3]]),
         np.array([[0.25, 0.1], [0.2, 0.15]]), np.array([[0.15, 0.05], [0.1, 0.1]]))
    B = BmapModel(d=2, D=D, mu=MuRule(table=(0.0,) * zeros + (10.0,)), psi=0.01)
    for beta in (1.1, 1.2, 1.5):
        found = _assert_same_offset_constants(B, beta)
        assert (None if found is None else found[0]) == expected_K


_mu_rules = st.one_of(
    st.builds(lambda t: MuRule(table=tuple(t)),
              st.lists(st.floats(0.0, 4.0), min_size=1, max_size=5)),
    st.builds(lambda t, v: MuRule(table=tuple(t), value=v),
              st.lists(st.floats(0.0, 4.0), min_size=1, max_size=5),
              st.floats(0.0, 4.0)).filter(lambda m: m.value != m.table[-1]),
    st.builds(lambda t, a: MuRule(table=tuple(t), eventual="affine", slope=a),
              st.lists(st.floats(0.0, 4.0), min_size=1, max_size=5),
              st.floats(0.0, 1.0)),
    st.just(MuRule(table=(0.0,))),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mu=_mu_rules, psi=st.floats(0.01, 3.0), d=st.integers(1, 4),
       seed=st.integers(0, 2 ** 16), beta=st.floats(1.0 + 1e-6, 12.0))
def test_offset_constants_match_the_rescan_for_any_service_rule(mu, psi, d, seed, beta):
    base = random_bmap(np.random.default_rng(seed), d=d)
    B = BmapModel(d=d, D=base.D, mu=mu, psi=psi)
    _assert_same_offset_constants(B, beta)
    _assert_same_spectral(B, beta)


def _stiff_queue(spread=1e4, fast=range(5)):
    """A d=5 queue at load 0.8 whose phases `fast` switch `spread` times
    faster than its batches arrive."""
    base = random_bmap(np.random.default_rng(11), d=5)
    off = base.D[0] - np.diag(np.diag(base.D[0]))
    off[list(fast)] *= spread
    batches = base.D[1:]
    D0 = off - np.diag(off.sum(axis=1) + sum(m.sum(axis=1) for m in batches))
    B = BmapModel(d=5, D=(D0, *batches), mu=MuRule(table=(1.0,)))
    return dataclasses.replace(B, mu=MuRule(table=(arrival_rate(B) / 0.8,)))


def test_batched_grid_matches_spectral(fleet, monkeypatch):
    rng = np.random.default_rng(5)
    # tailed_queue's grid ends at 0.999 r_D; at d = 12 the grid's power
    # iteration runs in two batches; with phases 0, 1 and 4 switching 10**3
    # times faster than the others, power iteration stalls at most bases
    # of the grid but not all
    partly_stiff = _stiff_queue(1e3, fast=(0, 1, 4))
    queues = [*fleet.values(), tailed_queue(), _stiff_queue(), partly_stiff,
              *(random_bmap(rng, d=d, psi=0.3) for d in (3, 5, 8, 12))]
    brackets = []
    golden = bmap._golden_max
    monkeypatch.setattr(bmap, "_golden_max",
                        lambda f, lo, hi: brackets.append((lo, hi)) or golden(f, lo, hi))
    dense_calls = _count_calls(monkeypatch, bmap, "_dense_perron")
    for B in queues:
        grid = _beta_grid(B)
        dense_calls.clear()
        roots, spread = _grid_perron(B, grid)
        fallback = sum(len(args[0]) for args in dense_calls)
        assert (0 < fallback < grid.size) == (B is partly_stiff)
        stack = B.dhat(grid)
        eig_roots, eig_right = _dense_perron(stack)
        for z, root, ratio, eig_root, u, dh in zip(grid, roots, spread, eig_roots,
                                                   eig_right, stack):
            rec = spectral(B, z)
            for found in (root, eig_root):
                assert abs(found - rec.eigenvalue) <= 1e-12 * np.abs(dh).max()
            # max u / min u reaches the disaster objective
            for found in (ratio, u.max() / u.min()):
                assert found == pytest.approx(rec.right.max(), rel=1e-9)
        # the polish brackets the grid point the serial scan picks
        brackets.clear()
        (find_beta_no_disaster if B.psi == 0.0 else find_constants_disaster)(B)
        i = serial_grid_argmax(B)
        assert brackets == [(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)])]


def test_offset_table_matches_the_scalar_objective(fleet, pure_disaster):
    for B in [*fleet.values(), pure_disaster, tailed_queue()]:
        if B.psi > 0.0:
            assert_table_matches_the_objective(B)
    K, b_prime = assert_table_matches_the_objective(affine_disaster_queue())
    # the affine queue's grid reaches offset levels whose beta**K overflows
    assert K.max() > 150 and np.isinf(b_prime).any()


def test_search_matches_the_serial_oracle(fleet, pure_disaster):
    for B in [*fleet.values(), pure_disaster, tailed_queue()]:
        search = find_beta_no_disaster if B.psi == 0.0 else find_constants_disaster
        assert_same_certificate(search(B), serial_certificate(B))


def test_disaster_search_reads_an_overflowing_offset_as_no_bound():
    # near beta = 37.5 the first feasible offset level is 199, and
    # beta**199 passes the float range
    B = affine_disaster_queue()
    mus = _mu_levels(B)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        K, c_prime, b_prime, _ = _disaster_constants(B, 37.5, mus)
        overflowing = [z for z in _beta_grid(B)
                       if (found := _disaster_constants(B, z, mus)) and found[2] == math.inf]
        cert = find_constants_disaster(B)
    assert (K, b_prime) == (199, math.inf) and c_prime > 0.0
    assert overflowing
    assert_same_certificate(cert, serial_certificate(B))
    assert cert.K == 0 and cert.verified


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _assert_spectral_calls(search, B, monkeypatch):
    calls = _count_calls(monkeypatch, bmap, "spectral")
    search(B)
    # the grid takes batched eigensolves; golden section (two starting
    # points plus one per step) and the winner call spectral
    assert len(calls) == bmap.GOLDEN_ITERS + 2 + 1
    calls.clear()
    search(B, beta=1.3)
    assert len(calls) == 1


def test_no_disaster_search_evaluates_the_winner_once(d2_psi0, monkeypatch):
    _assert_spectral_calls(find_beta_no_disaster, d2_psi0, monkeypatch)


def test_disaster_search_evaluates_the_winner_once(d2_psi05, monkeypatch):
    _assert_spectral_calls(find_constants_disaster, d2_psi05, monkeypatch)


def test_one_monotonicity_check_per_certificate(fleet, pure_disaster, tmp_path,
                                                monkeypatch):
    calls = _count_calls(monkeypatch, bmap, "generator_is_block_monotone")
    for B in [*fleet.values(), pure_disaster]:
        calls.clear()
        bound_pipeline(B, [10])
        assert len(calls) == 1
    path = write_model(tmp_path / "reset.json", bmap_doc(pure_disaster))
    calls.clear()
    result = CliRunner().invoke(main, ["sweep", "--model", path, "--n-min", "4",
                                       "--n-max", "4"])
    assert result.exit_code == 0, result.output
    assert len(calls) == 1


def test_pipeline_builds_no_queue_object(fleet, pure_disaster, monkeypatch):
    built = []
    init = BmapQueueModel.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(BmapQueueModel, "__init__", counting_init)
    queues = [*fleet.values(), pure_disaster]
    for B in queues:
        bound_pipeline(B, [10])
    assert built == []
    assert all(build_generator(B) is B for B in queues)


def test_near_critical_single_server_certifies():
    # lambda = 1 against mu = 1.001: the search finds beta = sqrt(mu) and a
    # positive c of about 2.5e-7, and the certificate truly holds
    B = BmapModel(d=1, D=(np.array([[-1.0]]), np.array([[1.0]])),
                  mu=MuRule(table=(1.001,)))
    cert = find_beta_no_disaster(B)
    assert cert.verified


def test_near_critical_two_phase_queue_certifies():
    # rho about 0.988 at beta about 1.004, where fitting the tail law from a
    # few rows is ill-conditioned (condition about (beta - 1)**-2); every
    # row holds
    B = BmapModel(d=2, D=d2_blocks(), mu=MuRule(table=(1.98,)))
    cert = find_beta_no_disaster(B)
    assert cert.verified and 1.0 < cert.v.beta < 1.01
    assert brute_scaled_slack(B, cert) <= DRIFT_TOL


@pytest.mark.parametrize("beta", ["0.5", "1.0"])
def test_bound_rejects_out_of_range_beta(d2_psi0, tmp_path, beta):
    path = write_model(tmp_path / "q.json", bmap_doc(d2_psi0))
    result = CliRunner().invoke(main, ["bound", "--model", path, "--n", "10",
                                       "--beta", beta])
    assert result.exit_code == 2, result.output
    assert f"beta={float(beta)}" in result.output
