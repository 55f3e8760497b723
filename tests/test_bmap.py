import dataclasses
import math
import sys
import time
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bmtrunc import (
    BmapModel,
    BmapQueueModel,
    DegenerateArrivals,
    DriftViolated,
    GeometricTail,
    InputError,
    InvalidBmap,
    MuRule,
    NoFeasibleK,
    NoPositiveC,
    TruncationSpec,
    arrival_rate,
    bmap,
    bound_pipeline,
    build_generator,
    delta_D,
    drift_check,
    find_beta_no_disaster,
    find_constants_disaster,
    load_model,
    order,
    solve,
    spectral,
)
from bmtrunc.bounds import DRIFT_TOL
from bmtrunc.cli import main
from bmtrunc.bmap import (
    DENSE_GRID_D,
    GRID_PART,
    K_CAP,
    POWER_ITERS,
    _beta_grid,
    _closed_form_theta,
    _dense_perron,
    _disaster_constants,
    _grid_perron,
    _mu_levels,
    _power_perron,
    _quotient,
    _residual,
    _rounding_margin,
)
from bmtrunc.tolerances import RESIDUAL
from helpers import (
    affine_disaster_queue,
    assert_bracket_never_falls_past_the_table,
    assert_feasible_prefix,
    assert_peak_prefix,
    assert_same_certificate,
    assert_table_matches_the_objective,
    bmap_doc,
    brute_scaled_slack,
    d2_blocks,
    offset_constants,
    random_bmap,
    regime_queue,
    regime_queues,
    serial_certificate,
    serial_grid_argmax,
    tailed_queue,
    whole_grid_c,
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
    # eta * sum_k D(k) = 0, then lambda = eta (sum_k k D(k)) 1, a geometric
    # tail's blocks coef * ratio**k summed one by one
    for B in (d2_psi0, tailed_queue()):
        blocks = list(B.D)
        if B.tail is not None:
            blocks += [B.tail.coef * B.tail.ratio ** k for k in range(len(blocks), 200)]
        ps = B.phase_sum()
        A = np.vstack([ps.T, np.ones(2)])
        rhs = np.array([0.0, 0.0, 1.0])
        eta = np.linalg.lstsq(A, rhs, rcond=None)[0]
        weighted = sum(k * Dk for k, Dk in enumerate(blocks))
        lam = float(eta @ weighted @ np.ones(2))
        assert arrival_rate(B) == pytest.approx(lam, rel=1e-10)


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
        # where beta**-n underflows the closed form's weighted sum reads 0,
        # an unbounded decay depth
        assert _closed_form_theta(B, cert, int(1100 / math.log2(cert.v.beta))) == math.inf


def test_pipeline_origins_carry_no_disagreement(fleet, pure_disaster):
    # a K = 1 certificate: the conversion shift is b' over psi + mu(1), not
    # over psi alone
    offset_one = BmapModel(d=2, D=d2_blocks(), mu=MuRule(table=(1.8,)), psi=1.5)
    assert find_constants_disaster(offset_one).K == 1
    models = list(fleet.values()) + [pure_disaster, offset_one]
    for B in models:
        for rep in bound_pipeline(B, [10, 20, 40]):
            assert "disagree" not in rep.origin


def test_pipeline_refuses_levels_that_do_not_exist(d2_psi0):
    for n_range, n_ref in (([-1], None), ([0], None), ([5, 0], None), ([5], 3), ([5], 5),
                           ([5, 10], 8)):
        with pytest.raises(InputError):
            bound_pipeline(d2_psi0, n_range, n_ref=n_ref)


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
    # the corners at 5 and 10 are eliminated in one run, after the
    # reference's: each report carries its run's elimination
    real = solve._eliminate

    def slow_elimination(S, sizes, d):
        time.sleep(0.03)
        return real(S, sizes, d)

    monkeypatch.setattr(solve, "_eliminate", slow_elimination)
    reps = bound_pipeline(mm1, [5, 10], n_ref=40)
    assert all(r.runtime_ms >= 30.0 for r in reps)


def test_pipeline_solves_its_reference_and_levels_in_one_call(d2_psi0, monkeypatch):
    real = bmap.solve_truncations
    calls = []

    def counted(M, specs):
        calls.append([(spec.n, spec.style) for spec in specs])
        return real(M, specs)

    monkeypatch.setattr(bmap, "solve_truncations", counted)
    reps = bound_pipeline(d2_psi0, [5, 10, 20], n_ref=80)
    assert calls == [[(80, "lc"), (5, "lc"), (10, "lc"), (20, "lc")]]
    # each level's true_tv is the one its lone solve gives, bit for bit
    pi_ref = solve.solve_truncation(d2_psi0, TruncationSpec(n=80))
    for rep in reps:
        pi_n = solve.solve_truncation(d2_psi0, TruncationSpec(n=rep.n))
        assert rep.true_tv == solve.tv_distance(pi_n, pi_ref)


def _spectral_steps(B, z):
    """spectral(B, z) and each step's products [E x; E^T y], as the step's
    row maxima read them."""
    products = []
    real = bmap._max

    def recorded(a, *args, **kwargs):
        if kwargs.get("keepdims"):
            products.append(a.copy())
        return real(a, *args, **kwargs)

    with mock.patch.object(bmap, "_max", recorded):
        return spectral(B, z), products


def _assert_spectral_contract(B, z):
    """spectral(B, z) keeps its contract, checked against `scipy.linalg.eigvals`.

    Its vectors are positive, min u = 1 and eta . u = 1.  Scaled as the
    iteration scales them (maximum 1; unit 2-norm where the dense
    eigensolver took over after POWER_ITERS steps), both meet the residual
    contract RESIDUAL max|Dhat| up to the rounding of that rescaling and of
    the products, and the record's residual is the larger of the two.  On
    x = u / max u the contract and the Collatz-Wielandt bounds put the root
    within RESIDUAL max|Dhat| / min x of the Perron root, which the
    eigensolver gets to within its own first-order error,
    eps max|Dhat| d ||u|| ||eta|| / (eta . u).  A power-iteration root is
    a Rayleigh quotient, a weighted mean of the ratios (Dhat u)_i / u_i, so
    it also lies between them, up to their rounding and that of the
    quotient.  And the iteration stops at the first step whose residuals
    meet the contract: replayed on its own iterates, no step before it
    does, so the steps that form no quotient and check no residual hide
    none.
    """
    rec, products = _spectral_steps(B, z)
    dh = B.dhat(z)
    d, eps = B.d, np.finfo(float).eps
    u, eta, val = rec.right, rec.left, rec.eigenvalue
    assert rec.z == z
    assert (u > 0.0).all() and (eta > 0.0).all() and u.min() == 1.0
    assert abs(float(eta @ u) - 1.0) <= 4 * d * eps
    norm = np.abs(dh).max()
    limit = RESIDUAL * norm
    dense = rec.iterations > POWER_ITERS
    x, y = (v / (np.linalg.norm(v) if dense else v.max()) for v in (u, eta))
    residuals = (np.abs(dh @ x - val * x).max(), np.abs(y @ dh - val * y).max())
    rounding = (2 * d + 8) * eps * max((np.abs(dh) @ x + abs(val) * x).max(),
                                       (y @ np.abs(dh) + abs(val) * y).max())
    assert max(residuals) <= limit + rounding, (z, residuals)
    assert rec.residual <= RESIDUAL
    assert abs(rec.residual * norm - max(residuals)) <= rounding, z
    perron = float(scipy.linalg.eigvals(dh).real.max())
    condition = np.linalg.norm(u) * np.linalg.norm(eta) / float(eta @ u)
    assert abs(val - perron) <= (limit + rounding) / x.min() + d * eps * norm * condition, z
    for step in range(1, len(products)):
        xs, ys = products[step - 1] / products[step - 1].max(axis=1, keepdims=True)
        r = (_quotient(xs, ys, products[step][0]) - 1.0) * B._perron_shift
        passes = max(_residual(dh @ xs, r, xs), _residual(ys @ dh, r, ys)) <= limit
        assert passes == (step == rec.iterations), (z, step)
    if not dense:
        ratios = dh @ u / u
        spread = (d + 1) * eps * (np.abs(dh) @ u) / u + (2 * d + 4) * eps * (
            B._perron_shift + abs(val))
        assert (ratios - spread).min() <= val <= (ratios + spread).max(), z


def _assert_same_offset_constants(B, beta):
    """_disaster_constants equals the deep-window oracle bit for bit."""
    found = _disaster_constants(B, beta, _mu_levels(B).tolist())
    expected = offset_constants(B, beta, spectral(B, beta), K_CAP)
    if expected is None:
        assert found is None
    else:
        assert found[:3] == expected
    return found


def test_spectral_meets_its_contract(fleet, pure_disaster):
    rng = np.random.default_rng(5)
    # stiff transforms: phases that switch 10**4 times faster than batches
    stiff = [regime_queue(d, 2, None, "constant", 0.8, 0.0, False, 1e4, seed)
             for seed, d in enumerate((2, 8, 24))]
    models = [*fleet.values(), pure_disaster,
              *(random_bmap(rng, d=d, psi=0.3) for d in (3, 5, 8, 16, 24)), *stiff,
              _stiff_queue(1e3, fast=(0, 1, 4))]
    dense = 0
    for B in models:
        for z in (0.5, 1.0, 1.0 + 1e-6, 1.3, 2.0, 7.5):
            _assert_spectral_contract(B, z)
            dense += spectral(B, z).iterations > POWER_ITERS
    # the partly stiff queue hands some points to the dense eigensolver
    assert dense > 0


def test_spectral_agrees_with_an_independent_eigensolver(fleet, pure_disaster):
    # at the points the searches score and the winners they certify
    for B in [*fleet.values(), pure_disaster]:
        search = find_beta_no_disaster if B.psi == 0.0 else find_constants_disaster
        for z in (*_beta_grid(B)[::20], search(B).v.beta):
            _assert_spectral_contract(B, z)


@given(B=regime_queues())
def test_spectral_meets_its_contract_on_regime_queues(B):
    # at the points the search visits
    for z in (0.5, 1.0 + 1e-6, *_beta_grid(B)[::40]):
        _assert_spectral_contract(B, z)


def test_spectral_skips_the_residual_checks_that_must_fail(d2_psi0, monkeypatch):
    # evaluating the right residual at every step, and the left one where
    # the right one passes, would take at least one evaluation per step;
    # spectral evaluates them only where their free lower bounds let them
    # pass, and both at the step that stops
    calls = _count_calls(monkeypatch, bmap, "_residual")
    for z in (0.5, 1.3, 7.5):
        calls.clear()
        rec = spectral(d2_psi0, z)
        assert 2 <= len(calls) < rec.iterations


def test_spectral_forms_the_quotient_only_where_it_can_stop(d2_psi0, monkeypatch):
    # forming the Rayleigh quotient at every step would take one per step;
    # spectral forms it only where both free bounds can pass the bar, and
    # at the step that stops, whose quotient is the root
    formed = []
    real = bmap._quotient

    def recorded(*args):
        formed.append(real(*args))
        return formed[-1]

    monkeypatch.setattr(bmap, "_quotient", recorded)
    for z in (0.5, 1.3, 7.5):
        formed.clear()
        rec = spectral(d2_psi0, z)
        assert 1 <= len(formed) < rec.iterations
        assert (formed[-1] - 1.0) * d2_psi0._perron_shift == rec.eigenvalue


def test_spectral_stops_where_its_quotient_skip_is_at_the_edge():
    # at these points the step that stops has shift |mx - my| between C and
    # the skip's bar 2 (1 + gamma)^2 / (1 - gamma) C, with mx and my the
    # maxima of its E x and E^T y and C = limit + gamma (base + shift
    # |mx - 1|): a skip that cut its factor would form no quotient there and
    # stop late.  It stops at the first step whose residuals, computed at
    # every step, meet the contract.
    B = random_bmap(np.random.default_rng(5), d=4, psi=0.3)
    shift = B._perron_shift
    for z in (2.5, 3.0, 3.7):
        _assert_spectral_contract(B, z)
        rec, products = _spectral_steps(B, z)
        norm = float(np.abs(B.dhat(z)).max())
        limit = RESIDUAL * norm
        gamma, base = _rounding_margin(B.d, norm, shift, limit)
        mx, my = products[rec.iterations].max(axis=1)
        C = limit + gamma * (base + shift * abs(mx - 1.0))
        assert C < shift * abs(mx - my) <= 2.0 * (1.0 + gamma) ** 2 / (1.0 - gamma) * C, z


def _metzler(rng, d, kind):
    """A random irreducible Metzler matrix, every off-diagonal rate positive.

    "stiff" makes the rates of every other phase 10**4 times those of the
    rest; "nearly_decomposable" couples two blocks of phases at 1e-6 of
    their rates within.
    """
    off = rng.uniform(0.2, 1.0, (d, d))
    if kind == "stiff":
        off *= np.where(np.arange(d) % 2 == 0, 1e4, 1.0)[:, None]
    elif kind == "nearly_decomposable":
        block = np.arange(d) < d // 2
        off[block[:, None] != block[None, :]] *= 1e-6
    np.fill_diagonal(off, 0.0)
    return off - np.diag(off.sum(axis=1) * rng.uniform(0.5, 1.5, d))


@given(d=st.integers(2, 24), seed=st.integers(0, 2 ** 32 - 1))
def test_the_residual_bound_less_its_margin_never_exceeds_the_residual(d, seed):
    # spectral skips the residuals when shift |max(Ex) - r| or
    # shift |max(E^T y) - r| exceeds the contract by more than the margin,
    # which is sound when the bound less the margin never exceeds the
    # computed residual: at random vectors, and at the Perron pair and near
    # it, where the residual is down to rounding
    rng = np.random.default_rng(seed)
    for kind in ("plain", "stiff", "nearly_decomposable"):
        dh = _metzler(rng, d, kind)
        shift = float(np.max(-np.diag(dh)))
        norm = float(np.abs(dh).max())
        limit = RESIDUAL * norm
        gamma, base = _rounding_margin(d, norm, shift, limit)
        E = np.eye(d) + dh / shift
        right, left = _dense_perron(dh)[1], _dense_perron(dh.T)[1]
        pairs = [(rng.uniform(0.1, 1.0, d), rng.uniform(0.1, 1.0, d))]
        for spread in (0.0, 1e-15, 1e-12, 1e-8):
            pairs.append((right * (1.0 + spread * rng.standard_normal(d)),
                          left * (1.0 + spread * rng.standard_normal(d))))
        for x, y in pairs:
            x, y = x / x.max(), y / y.max()
            Ex, Ey = E @ x, E.T @ y
            r = float(y @ Ex) / float(y @ x)
            val = (r - 1.0) * shift
            margin = gamma * (base + abs(val))
            assert shift * abs(float(Ex.max()) - r) - margin <= _residual(dh @ x, val, x)
            assert shift * abs(float(Ey.max()) - r) - margin <= _residual(y @ dh, val, y)


@given(d=st.integers(2, 24), seed=st.integers(0, 2 ** 32 - 1))
def test_where_the_quotient_is_skipped_a_free_bound_fails(d, seed):
    # spectral forms no quotient where, with mx and my the maxima of E x and
    # E^T y, shift |mx - my| > 2 (1 + gamma)^2 / (1 - gamma) C for
    # C = limit + gamma (base + shift |mx - 1|); that is sound when one of the
    # two free-bound tests, as computed in floats, fails wherever it does:
    # at random vectors, and at the Perron pair and near it, on one side or
    # both, where the maxima meet and the skip sits near its edge
    rng = np.random.default_rng(seed)
    skipped = 0
    for kind in ("plain", "stiff", "nearly_decomposable"):
        dh = _metzler(rng, d, kind)
        shift = float(np.max(-np.diag(dh)))
        norm = float(np.abs(dh).max())
        limit = RESIDUAL * norm
        gamma, base = _rounding_margin(d, norm, shift, limit)
        apart = 2.0 * (1.0 + gamma) ** 2 / (1.0 - gamma)
        E = np.eye(d) + dh / shift
        right, left = _dense_perron(dh)[1], _dense_perron(dh.T)[1]
        pairs = [(rng.uniform(0.1, 1.0, d), rng.uniform(0.1, 1.0, d))]
        for spread in (0.0, 1e-15, 1e-13, 1e-12, 1e-11, 1e-10, 1e-8):
            noisy = (right * (1.0 + spread * rng.standard_normal(d)),
                     left * (1.0 + spread * rng.standard_normal(d)))
            pairs += [noisy, (right, noisy[1]), (noisy[0], left)]
        for x, y in pairs:
            x, y = x / x.max(), y / y.max()
            Ex = E @ x
            mx, my = float(Ex.max()), float((E.T @ y).max())
            if shift * abs(mx - my) > apart * (limit + gamma * (base + shift * abs(mx - 1.0))):
                skipped += 1
                r = _quotient(x, y, Ex)
                bar = limit + gamma * (base + abs((r - 1.0) * shift))
                assert shift * abs(mx - r) > bar or shift * abs(my - r) > bar
    # at least the random vectors
    assert skipped >= 3


def test_perron_shift_is_the_largest_diagonal_rate_of_D0(fleet, pure_disaster, tmp_path):
    rng = np.random.default_rng(3)
    loaded = load_model(write_model(tmp_path / "d2.json", bmap_doc(fleet["d2"])))
    for B in [*fleet.values(), pure_disaster, tailed_queue(), loaded,
              *(random_bmap(rng, d=d) for d in (1, 4, 24))]:
        assert B._perron_shift == float(np.max(np.abs(np.diag(B.D[0]))))


def test_offset_constants_match_the_rescan(fleet, pure_disaster):
    # at every grid base, the ones past the feasible prefix too, where the
    # scan finds no offset level
    outcomes = set()
    for B in [*fleet.values(), pure_disaster, tailed_queue(), affine_disaster_queue()]:
        grid = _beta_grid(B)
        found = [_assert_same_offset_constants(B, beta) for beta in grid]
        feasible = [f is not None for f in found]
        assert feasible == sorted(feasible, reverse=True) and not feasible[-1]
        found += [_assert_same_offset_constants(B, beta)
                  for beta in (float(grid[3]), 1.0005, 1.2, 3.0) if beta < grid[-1]]
        outcomes |= {None if f is None else min(f[0], 1) for f in found}
    # infeasible betas, level-0 certificates and offset ones are all covered
    assert outcomes == {None, 0, 1}
    # the affine queue's offset levels climb past 150, where the scan reads
    # the cap's window, and beta**K overflows
    offsets = [f for f in found if f is not None]
    assert max(f[0] for f in offsets) > 150 and any(f[2] == math.inf for f in offsets)


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
    _assert_spectral_contract(B, beta)


def _stiff_queue(spread=1e4, fast=range(5)):
    """A d=5 queue at load 0.8 whose phases `fast` switch `spread` times
    faster than its batches arrive."""
    base = random_bmap(np.random.default_rng(11), d=5)
    off = base.D[0] - np.diag(np.diag(base.D[0]))
    off[list(fast)] *= spread
    batches = base.D[1:]
    D0 = off - np.diag(off.sum(axis=1) + sum(m.sum(axis=1) for m in batches))
    return _at_load(BmapModel(d=5, D=(D0, *batches), mu=MuRule(table=(1.0,))), 0.8)


def _at_load(B, rho):
    """B with constant service at arrival rate / rho."""
    return dataclasses.replace(B, mu=MuRule(table=(arrival_rate(B) / rho,)))


def _signed_zero_queue(tailed: bool) -> BmapQueueModel:
    """A d=3 queue whose phase 0 never moves to phase 2: D(0), D(1) and,
    when tailed, the tail's coefficient hold -0.0 there."""
    off = np.array([[0.0, 0.6, -0.0], [0.0, 0.0, 0.5], [0.4, 0.3, 0.0]])
    D1 = np.array([[0.3, 0.2, -0.0], [0.1, 0.2, 0.2], [0.2, 0.1, 0.1]])
    tail = None
    out = off.sum(axis=1) + D1.sum(axis=1)
    if tailed:
        tail = GeometricTail(coef=[[0.2, 0.1, -0.0], [0.1, 0.3, 0.1], [0.2, 0.2, 0.3]],
                             ratio=0.4)
        out += tail.sum_from(2).sum(axis=1)
    return BmapQueueModel(d=3, D=[off - np.diag(out), D1], mu=MuRule(table=(2.0,)),
                          psi=0.5, tail=tail)


def test_transform_at_a_point_is_its_grid_entry_bit_for_bit(fleet, pure_disaster):
    # a float z takes the scalar route through dhat and power_series_from;
    # it must give the stack entry the grid computes for the same point,
    # byte for byte: where every term of an entry is -0.0, the sum that
    # starts from 0 gives +0.0, with or without a tail
    rng = np.random.default_rng(19)
    signed = [_signed_zero_queue(tailed) for tailed in (False, True)]
    for B in signed:
        assert np.signbit(B.D[0][0, 2]) and np.signbit(B.D[1][0, 2])
    for B in [*fleet.values(), pure_disaster, tailed_queue(), tailed_queue(d=5, ratio=0.7),
              random_bmap(rng, d=8, psi=0.3), *signed]:
        grid = _beta_grid(B)
        stack = B.dhat(grid)
        for i in range(0, grid.size, 13):
            for z in (grid[i], float(grid[i])):
                assert B.dhat(z).tobytes() == stack[i].tobytes()
                if B.tail is not None:
                    assert (B.tail.power_series_from(2, z).tobytes()
                            == B.tail.power_series_from(2, grid[i:i + 1])[0].tobytes())


def test_batched_grid_matches_spectral(fleet, monkeypatch):
    rng = np.random.default_rng(5)
    # tailed_queue's grid ends at 0.999 r_D; a part of the search holds
    # GRID_PART bases at d = 24 as below it; with phases 0, 1 and 4 switching
    # 10**3 times faster than the others, power iteration stalls at most
    # bases of the grid but not all
    partly_stiff = _stiff_queue(1e3, fast=(0, 1, 4))
    queues = [*fleet.values(), tailed_queue(), _stiff_queue(), partly_stiff,
              *(random_bmap(rng, d=d, psi=0.3) for d in (3, 5, 8, 12, 24))]
    brackets = []
    golden = bmap._golden_max
    monkeypatch.setattr(bmap, "_golden_max",
                        lambda f, lo, hi: brackets.append((lo, hi)) or golden(f, lo, hi))
    dense_calls = _count_calls(monkeypatch, bmap, "_dense_perron")
    grid_calls = _count_calls(monkeypatch, bmap, "_grid_perron")
    for B in queues:
        grid = _beta_grid(B)
        stack = B.dhat(grid)
        dense_calls.clear()
        roots, spread = _grid_perron(B, grid)
        # below DENSE_GRID_D phases the grid is one eigensolve of its stack
        dense = [len(args[0]) for args in dense_calls]
        assert (dense == [grid.size]) == (1 < B.d < DENSE_GRID_D)
        found_roots, found_spreads = [roots], [spread]
        if B.d > 1:
            # the batched power iteration on every queue, whatever its d
            shift = float(np.max(np.abs(np.diag(B.D[0]))))
            dense_calls.clear()
            power = _power_perron(stack, shift)
            fallback = sum(len(args[0]) for args in dense_calls)
            assert (0 < fallback < grid.size) == (B is partly_stiff)
            found_roots.append(power[0])
            found_spreads.append(power[1])
            # an independent eigensolver: the residual contract on
            # x = u / max u and the Collatz-Wielandt bounds put the root
            # within RESIDUAL max|Dhat| (max u / min u) of the Perron root
            perron = np.array([scipy.linalg.eigvals(dh).real.max() for dh in stack])
            bound = RESIDUAL * np.abs(stack).max(axis=(1, 2)) * power[1]
            assert (np.abs(power[0] - perron) <= bound).all()
            # each base keeps its own stop step: any split of the stack, and
            # a base alone, give its values bit for bit, stiff bases included
            splits = (np.array_split(np.arange(grid.size), [1, 7, 100, 101, 150]),
                      [[i] for i in range(0, grid.size, 9)])
            for part in (part for split in splits for part in split):
                alone = _power_perron(stack[part], shift)
                np.testing.assert_array_equal(alone[0], power[0][part])
                np.testing.assert_array_equal(alone[1], power[1][part])
        eig_roots, eig_right = _dense_perron(stack)
        found_roots.append(eig_roots)
        found_spreads.append(eig_right.max(axis=1) / eig_right.min(axis=1))
        for i, (z, dh) in enumerate(zip(grid, stack)):
            rec = spectral(B, z)
            for found in found_roots:
                assert abs(found[i] - rec.eigenvalue) <= 1e-12 * np.abs(dh).max()
            # max u / min u reaches the disaster objective
            for found in found_spreads:
                assert found[i] == pytest.approx(rec.right.max(), rel=1e-9)
        # the polish brackets the grid point the serial scan picks, and the
        # search hands the Perron data one part at a time
        brackets.clear()
        grid_calls.clear()
        (find_beta_no_disaster if B.psi == 0.0 else find_constants_disaster)(B)
        i = serial_grid_argmax(B)
        assert brackets == [(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)])]
        sizes = [len(args[1]) for args in grid_calls]
        last = min(GRID_PART, grid.size - GRID_PART * (len(sizes) - 1))
        assert sizes == [GRID_PART] * (len(sizes) - 1) + [last]


def test_offset_table_matches_the_scalar_objective(fleet, pure_disaster):
    for B in [*fleet.values(), pure_disaster, tailed_queue()]:
        if B.psi > 0.0:
            assert_table_matches_the_objective(B)
    K, b_prime = assert_table_matches_the_objective(affine_disaster_queue())
    # the affine queue's grid reaches offset levels whose beta**K overflows
    assert K.max() > 150 and np.isinf(b_prime).any()
    # service that dips to 0.2 at level 3, the table's last level: c'(K)
    # for K < 3 is the running minimum down to that level, not the bracket
    # at K+1
    dip = BmapModel(d=2, D=d2_blocks(), mu=MuRule(table=(4.0, 3.0, 0.2), value=3.5), psi=0.5)
    K, _ = assert_table_matches_the_objective(dip)
    assert set(K.tolist()) == {-1, 3}


def test_feasible_bases_form_a_prefix(fleet, pure_disaster):
    stops = {name: assert_feasible_prefix(B) for name, B in [
        ("d2_disaster", fleet["d2_disaster"]), ("pure_disaster", pure_disaster),
        ("tailed", tailed_queue()), ("affine", affine_disaster_queue()),
        ("d8", random_bmap(np.random.default_rng(5), d=8, psi=0.3))]}
    # parts hold 32 bases at d = 8 as below it, and the d = 8 queue's
    # feasible bases end in the first
    assert stops["d2_disaster"] < 100 and stops["pure_disaster"] < 100
    assert stops["d8"] == 32


@given(B=regime_queues())
def test_feasible_bases_form_a_prefix_on_regime_queues(B):
    assume(B.psi > 0.0)
    assert_feasible_prefix(B)


def test_the_decay_bracket_never_falls_past_the_mu_table(fleet, pure_disaster):
    # at every grid base, and at given bases next to 1, between grid bases
    # and past the grid's cap
    for B in [*fleet.values(), pure_disaster, tailed_queue(), affine_disaster_queue()]:
        grid = _beta_grid(B)
        assert_bracket_never_falls_past_the_table(B, grid, _grid_perron(B, grid)[0])
        betas = [beta for beta in (1.0 + 2.0 ** -52, 1.0 + 1e-9, 1.0005, 1.2, 3.0, 100.0)
                 if beta < 0.999 * B.r_D]
        assert_bracket_never_falls_past_the_table(B, betas, [delta_D(B, b) for b in betas])


@given(B=regime_queues(), data=st.data())
def test_the_decay_bracket_never_falls_past_the_mu_table_on_regime_queues(B, data):
    grid = _beta_grid(B)
    assert_bracket_never_falls_past_the_table(B, grid, _grid_perron(B, grid)[0])
    betas = data.draw(st.lists(st.floats(1.0, min(0.999 * B.r_D, 1e3), exclude_min=True),
                               min_size=1, max_size=4))
    assert_bracket_never_falls_past_the_table(B, betas, [delta_D(B, b) for b in betas])


def test_disaster_free_search_stops_after_its_peak(fleet):
    rng = np.random.default_rng(7)
    stops = {name: assert_peak_prefix(B) for name, B in [
        ("mm1", fleet["mm1"]), ("d2", fleet["d2"]), ("tailed", tailed_queue(psi=0.0)),
        ("stiff", _stiff_queue()),
        *((f"d{d}", _at_load(random_bmap(rng, d=d), 0.7)) for d in (8, 24))]}
    # most peaks lie in the first part of 32 bases, at every d; the tailed
    # queue's grid ends at 0.999 r_D = 2.4975, and its peak in the third
    assert stops == {"mm1": 32, "d2": 32, "tailed": 96, "stiff": 32, "d8": 32, "d24": 32}


@given(B=regime_queues())
def test_disaster_free_grid_scores_fall_after_their_peak_on_regime_queues(B):
    # c is concave in log beta, and the grid is evenly spaced in it: after
    # the first fall no score rises by more than the grid's rounding
    assume(B.psi == 0.0)
    scores = whole_grid_c(B)
    rises = np.diff(scores)
    falls = np.flatnonzero(rises < 0.0)
    if falls.size:
        scale = np.abs(B.dhat(_beta_grid(B))).max(axis=(1, 2))
        assert (rises[falls[0]:] <= 1e-12 * scale[falls[0] + 1:]).all(), scores
    assert_peak_prefix(B)
    assert_same_certificate(find_beta_no_disaster(B), serial_certificate(B))


def _phase_cycle(mu, psi):
    """Phase 0 steps to phase 1 without an arrival, phase 1 back to 0 with
    one: Dhat(z) = [[-1, 1], [z, -1]] and delta_D(z) = sqrt(z) - 1."""
    return BmapModel(d=2, D=(np.array([[-1.0, 1.0], [0.0, -1.0]]),
                             np.array([[0.0, 0.0], [1.0, 0.0]])),
                     mu=MuRule(table=(mu,)), psi=psi)


def test_a_phase_cycle_gives_a_concave_transform():
    # delta_D is convex in log z but not in z; both searches rest only on
    # the former
    B = _phase_cycle(2.0, 0.0)
    assert abs(delta_D(B, 4.0) - 1.0) <= 1e-12
    roots = [delta_D(B, z) for z in np.linspace(1.0, 9.0, 17)]
    assert (np.diff(roots, 2) < 0.0).all()
    for mu in (1.2, 2.0):
        for psi in (0.0, 0.5):
            B = _phase_cycle(mu, psi)
            search = find_beta_no_disaster if psi == 0.0 else find_constants_disaster
            assert_same_certificate(search(B), serial_certificate(B))


def test_search_matches_the_serial_oracle(fleet, pure_disaster):
    for B in [*fleet.values(), pure_disaster, tailed_queue()]:
        search = find_beta_no_disaster if B.psi == 0.0 else find_constants_disaster
        assert_same_certificate(search(B), serial_certificate(B))


def test_disaster_search_reads_an_overflowing_offset_as_no_bound():
    # near beta = 37.5 the first feasible offset level is 199, and
    # beta**199 passes the float range
    B = affine_disaster_queue()
    mus = _mu_levels(B).tolist()
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


def test_disaster_objective_reads_an_overflowing_ratio_as_zero():
    # at beta = 35.65 the first feasible offset level is 198 and b' = 3.1e306
    # is finite, but b'/psi passes the float range: the objective is 0 there,
    # with no float warning, in the search as in the table
    D0 = np.array([[-1.29254099, 0.41582937], [0.23277882, -0.93403837]])
    D1 = np.array([[0.41597161, 0.46074001], [0.3229861, 0.37827345]])
    B = BmapModel(d=2, D=(D0, D1), mu=MuRule(table=(2.564457687437209,), eventual="affine",
                                            slope=0.12822288437186044),
                  psi=0.007693373062311626)
    K, c_prime, b_prime, _ = _disaster_constants(B, 35.648737945928396, _mu_levels(B).tolist())
    assert K == 198 and c_prime > 0.0 and math.isinf(b_prime / B.psi)
    assert c_prime / (1.0 + b_prime / B.psi) == 0.0
    assert_table_matches_the_objective(B)


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


def test_no_monotonicity_scan_per_certificate(fleet, pure_disaster, tmp_path, monkeypatch):
    # every queue BmapQueueModel accepts is block-monotone (its docstring
    # proves it), so no certificate route scans one; the scan is counted
    # through every bmtrunc module that binds it
    real = order.generator_is_block_monotone
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bmtrunc":
            for attr in [a for a, value in vars(module).items() if value is real]:
                monkeypatch.setattr(module, attr, counted)
    runner = CliRunner()
    for B in [*fleet.values(), pure_disaster]:
        bound_pipeline(B, [10])
        path = write_model(tmp_path / "q.json", bmap_doc(B))
        for command, *options in (("bound", "--n", "10"), ("sweep", "--n-min", "4", "--n-max", "4")):
            result = runner.invoke(main, [command, "--model", path, *options])
            assert result.exit_code == 0, result.output
    assert calls == []
    # the count sees the explicit callers
    build_generator(pure_disaster)
    assert runner.invoke(main, ["validate", "--model", path]).exit_code == 0
    assert len(calls) == 2


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


@pytest.mark.parametrize("psi_share, d, k_max, tail_ratio, seed", [
    (0.0, 4, 3, None, 749326921),
    (0.01, 3, 3, 0.3, 3288490523),
])
def test_a_refuted_certificate_is_retaken_at_the_collatz_wielandt_ratio(
        psi_share, d, k_max, tail_ratio, seed):
    # phases switch 10**4 times faster than arrivals (|diag D(0)| about 1e4):
    # spectral's root meets its residual contract, 1e-12 max|Dhat|, but lies
    # below the Collatz-Wielandt ratio of its own u by more than drift_check
    # forgives on row 1, so the certificate built on it is refuted
    B = regime_queue(d, k_max, tail_ratio, "constant", 0.3, psi_share, False, 1e4, seed)
    search = find_beta_no_disaster if B.psi == 0.0 else find_constants_disaster
    cert = search(B)
    beta, u = cert.v.beta, cert.v.u
    rec = spectral(B, beta)
    np.testing.assert_array_equal(u, rec.right)
    ratio = float(np.max(B.dhat(beta) @ u / u))
    assert rec.eigenvalue < ratio
    if B.psi == 0.0:
        def constants(delta):
            c = B.mu.infimum() * (1.0 - 1.0 / beta) - delta
            return c, (c + delta) * float(u.max()), 0
    else:
        def constants(delta):
            K, c_prime, b_prime, _ = _disaster_constants(
                B, beta, _mu_levels(B).tolist(), dataclasses.replace(rec, eigenvalue=delta))
            return c_prime, b_prime, K
    with pytest.raises(DriftViolated) as refuted:
        drift_check(B, cert.v, *constants(rec.eigenvalue))
    assert refuted.value.level == 1
    assert (cert.c, cert.b, cert.K) == constants(ratio)
    assert brute_scaled_slack(B, cert) <= DRIFT_TOL
    assert math.isfinite(bound_pipeline(B, [5])[0].bound_min)


def test_a_refutation_stands_when_the_retaken_constants_form_no_certificate(mm1):
    # c = 10 is far above the queue's decay: drift_check refutes it at level
    # 0, and constants that give nothing, or c <= 0, leave that standing
    rec = spectral(mm1, 1.5)
    for retry in (None, (0.0, 1.0, 0)):
        with pytest.raises(DriftViolated) as refuted:
            bmap._verified(mm1, rec, (10.0, 1.0, 0), lambda _rec: retry)
        assert refuted.value.level == 0


def _no_offset_queue():
    # no service and resets at rate 0.001 against arrivals at rate 1: the
    # decay bracket psi (1 - beta^-k) - delta_D(beta) is negative at every
    # level up to K_CAP for every base
    return BmapModel(d=1, D=(np.array([[-1.0]]), np.array([[1.0]])),
                     mu=MuRule(table=(0.0,)), psi=0.001)


def test_disaster_search_without_a_feasible_base_is_refused():
    with pytest.raises(NoFeasibleK, match="for any geometric base"):
        find_constants_disaster(_no_offset_queue())


def test_disaster_search_at_a_base_without_an_offset_level_is_refused():
    with pytest.raises(NoFeasibleK, match="at beta=1.5"):
        find_constants_disaster(_no_offset_queue(), beta=1.5)


def test_arrival_rate_of_a_queue_without_batches_is_refused():
    B = BmapModel(d=2, D=(np.array([[-1.0, 1.0], [1.0, -1.0]]),), mu=MuRule(table=(2.0,)))
    with pytest.raises(DegenerateArrivals):
        arrival_rate(B)


@pytest.mark.parametrize("beta", ["0.5", "1.0"])
def test_bound_rejects_out_of_range_beta(d2_psi0, tmp_path, beta):
    path = write_model(tmp_path / "q.json", bmap_doc(d2_psi0))
    result = CliRunner().invoke(main, ["bound", "--model", path, "--n", "10",
                                       "--beta", beta])
    assert result.exit_code == 2, result.output
    assert f"beta={float(beta)}" in result.output


def test_a_given_beta_without_decay_is_named(mm1, tmp_path):
    # the search certifies this queue; the given base does not
    path = write_model(tmp_path / "mm1.json", bmap_doc(mm1))
    result = CliRunner().invoke(main, ["bound", "--model", path, "--n", "3",
                                       "--beta", "10"])
    assert result.exit_code == 3, result.output
    assert "beta=10.0" in result.output and "c(beta) = -7.2" in result.output
    with pytest.raises(NoPositiveC, match="beta=10.0"):
        find_beta_no_disaster(mm1, beta=10.0)


@pytest.mark.parametrize("psi, error", [(0.0, NoPositiveC), (0.3, NoFeasibleK)])
def test_a_radius_too_close_to_1_refuses_the_search(tmp_path, psi, error):
    # a batch tail of ratio 0.9995 gives r_D = 1.0005, so 0.999 r_D lies
    # below 1 + 1e-6: the search refuses the queue with its own error, on
    # r_D, and never scores a base below 1
    tail = GeometricTail(coef=np.array([[0.001]]), ratio=0.9995)
    D1 = np.array([[0.5]])
    B = BmapQueueModel(d=1, D=[-(D1 + tail.sum_from(2)), D1], mu=MuRule(table=(5.0,)),
                       psi=psi, tail=tail)
    with pytest.raises(error, match="r_D = 1.00050025"):
        (find_beta_no_disaster if psi == 0.0 else find_constants_disaster)(B)
    path = write_model(tmp_path / "q.json", bmap_doc(B))
    result = CliRunner().invoke(main, ["bound", "--model", path, "--n", "10"])
    assert result.exit_code == 3, result.output
    assert "r_D = 1.00050025" in result.output
