"""Sequential estimators and their closed-form error levels."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steeplab import (EstimateResult, ParamError, SimulationError,
                      SystemParams, alice_estimate_s, alice_limit_mse,
                      eve_estimate_s, eve_estimate_xA, mse_ratio_eta, phi,
                      per_realization_rates, sample_channels,
                      simulate_episode, validate)
from steeplab.seeds import subseed
from test_rates import make_realization

QUIET = dataclasses.replace(SystemParams(), eps_A=1e-12, eps_E=1e-12)


def _mc_mse(estimate_fn, params, n_trials=300, seed=0):
    """Average empirical and closed-form MSE over fresh episodes."""
    emp = np.empty(n_trials)
    closed = np.empty(n_trials)
    for i in range(n_trials):
        ep = simulate_episode(params, subseed(seed, "trial", i))
        res = estimate_fn(ep, params)
        emp[i], closed[i] = res.empirical_mse, res.closedform_mse
    return float(np.mean(emp)), float(np.mean(closed)), \
        float(np.std(emp - closed, ddof=1) / math.sqrt(n_trials))


# ---------------------------------------------------------------- Alice

def test_alice_estimate_shrinks_toward_limit():
    p = dataclasses.replace(QUIET, m_A=3000)
    emp, closed, se = _mc_mse(alice_estimate_s, p, n_trials=60, seed=1)
    assert abs(emp - closed) < 4 * se
    # the limit sigma_s2 / (t + 1) = 1/2 at unit powers
    assert alice_limit_mse(p) == pytest.approx(0.5)
    assert closed == pytest.approx(0.5, abs=2e-3)


def test_alice_limit_mse_formula():
    p = dataclasses.replace(QUIET, sigma_s2=4.0, sigma_B2=2.0)
    # sigma_s2 / (sigma_s2/sigma_B2 + 1) = 4/3
    assert alice_limit_mse(p) == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_alice_estimate_beats_prior():
    p = dataclasses.replace(QUIET, m_A=500)
    ep = simulate_episode(p, 3)
    res = alice_estimate_s(ep, p)
    assert res.empirical_mse < p.sigma_s2  # strictly better than guessing 0
    assert res.estimate.shape == ep.s.shape


def test_alice_estimate_requires_echo():
    from steeplab import run_probing
    p = QUIET
    probed = run_probing(p, sample_channels(p, 0), 0)
    with pytest.raises(SimulationError):
        alice_estimate_s(probed, p)


# ---------------------------------------------------------------- Eve

def test_eve_probe_estimate_frozen_example():
    # p_A ||g||^2 / sigma_EA2 = 9 gives MSE p_A/10; the closed form only
    # reads the gains, so swapping the realization is safe here
    p = QUIET
    ep = simulate_episode(p, 5)
    ep = dataclasses.replace(ep, realization=dataclasses.replace(
        ep.realization, g_A=make_realization(gnorm2_a=9.0).g_A))
    out = eve_estimate_xA(ep, p)
    assert out.closedform_mse == pytest.approx(0.1, abs=1e-12)


def test_eve_probe_estimate_statistics():
    p = dataclasses.replace(QUIET, m_A=4000)
    emp, closed, se = _mc_mse(eve_estimate_xA, p, n_trials=60, seed=2)
    assert abs(emp - closed) < 4 * se


def test_eve_secret_estimate_statistics():
    p = dataclasses.replace(QUIET, m_A=4000)
    emp, closed, se = _mc_mse(eve_estimate_s, p, n_trials=60, seed=3)
    assert abs(emp - closed) < 4 * se


def test_eve_secret_estimate_frozen_example():
    # phi = 1 at t = 1: MSE = sigma_s2 (phi+1)/(t+phi+1) = 2/3
    p = QUIET
    r = make_realization(habs2_ba=2.0, gnorm2_a=1.0)
    assert phi(p, r, "BA") == pytest.approx(1.0)
    ep = simulate_episode(p, 7)
    ep = dataclasses.replace(ep, realization=r)
    out = eve_estimate_s(ep, p)
    assert out.closedform_mse == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_eve_probe_estimate_is_keyword_only():
    # a positional third argument is never taken for a probe estimate
    p = dataclasses.replace(QUIET, m_A=8)
    ep = simulate_episode(p, 11)
    with pytest.raises(TypeError):
        eve_estimate_s(ep, p, eve_estimate_xA(ep, p))
    with pytest.raises(TypeError):
        eve_estimate_s(ep, p, True)


# ---------------------------------------------------------------- eta

def test_eta_frozen_examples():
    p = QUIET  # t = 1
    # phi = 1: eta = (1+1+1)/((1+1)(1+1)) = 3/4; at t -> inf it tends 1/2
    r_phi1 = make_realization(habs2_ba=2.0, gnorm2_a=1.0)
    assert mse_ratio_eta(p, r_phi1) == pytest.approx(0.75, abs=1e-12)
    p_big_t = dataclasses.replace(p, sigma_s2=1e9)
    assert mse_ratio_eta(p_big_t, r_phi1) == pytest.approx(0.5, abs=1e-6)
    # phi = 1/2 at large t tends to 2/3
    r_phi_half = make_realization(habs2_ba=1.0, gnorm2_a=1.0)
    assert phi(p, r_phi_half, "BA") == pytest.approx(0.5)
    assert mse_ratio_eta(p_big_t, r_phi_half) == pytest.approx(2.0 / 3.0,
                                                               abs=1e-6)


def test_eta_is_the_ratio_of_alice_and_eve_closed_forms():
    # eta = alice_limit_mse / r_ds_E: the large-m_A ratio of the two MSE
    # closed forms, per realization, for single and batch episodes
    p = dataclasses.replace(QUIET, rho=0.3 + 0.4j, n_E=2, sigma_s2=2.3,
                            sigma_B2=1.1, m_A=16)
    limit = alice_limit_mse(p)
    for seed in range(4):
        ep = simulate_episode(p, seed)
        eve = eve_estimate_s(ep, p).closedform_mse
        assert limit / eve == pytest.approx(mse_ratio_eta(p, ep.realization),
                                            rel=1e-12, abs=0)
    seeds = [subseed(41, "eta", t) for t in range(5)]
    eve = eve_estimate_s(simulate_episode(p, seeds), p).closedform_mse
    # trial t of the batch has the channels of seed t
    want = [mse_ratio_eta(p, sample_channels(p, seed)) for seed in seeds]
    np.testing.assert_allclose(limit / eve, want, rtol=1e-12, atol=0)


@given(habs2=st.floats(min_value=1e-3, max_value=1e3),
       gnorm2=st.floats(min_value=1e-3, max_value=1e3),
       t=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=200)
def test_eta_bounds(habs2, gnorm2, t):
    # 1/(phi+1) < eta < 1: Eve always loses, but never everything
    p = validate(dataclasses.replace(QUIET, sigma_s2=t))
    r = make_realization(habs2_ba=habs2, gnorm2_a=gnorm2)
    f = phi(p, r, "BA")
    eta = mse_ratio_eta(p, r)
    assert 1.0 / (f + 1.0) - 1e-12 < eta < 1.0 + 1e-12


def test_estimate_result_check():
    p = dataclasses.replace(QUIET, m_A=1000)
    ep = simulate_episode(p, 13)
    res = alice_estimate_s(ep, p)
    assert res.check() is res


# ---------------------------------------------------------------- batches

def _estimates(episode, p, probe=None):
    return {
        "alice": alice_estimate_s(episode, p),
        "eve_x": eve_estimate_xA(episode, p),
        "eve_s": eve_estimate_s(episode, p, probe_estimate=probe),
    }


@pytest.mark.parametrize("m_A", [1, 500])
@pytest.mark.parametrize("n_E", [1, 3])
@pytest.mark.parametrize("rho", [0.5, 0.3 + 0.4j, 0.2j])
def test_batch_estimates_are_the_estimates_of_each_episode(rho, n_E, m_A):
    p = dataclasses.replace(QUIET, rho=rho, n_E=n_E, m_A=m_A)
    seeds = [subseed(23, "batch", t) for t in range(6)]
    batch = simulate_episode(p, seeds)
    got = _estimates(batch, p, probe=eve_estimate_xA(batch, p))
    for t, seed in enumerate(seeds):
        # the single episode recomputes Eve's probe estimate itself
        want = _estimates(simulate_episode(p, seed), p)
        for key, res in got.items():
            assert res.empirical_mse.shape == res.closedform_mse.shape == (6,)
            assert res.estimate[t].tobytes() == want[key].estimate.tobytes()
            assert isinstance(want[key].empirical_mse, float)
            assert res.empirical_mse[t] == want[key].empirical_mse, key
            assert res.closedform_mse[t] == want[key].closedform_mse, key


def test_probe_estimate_must_fit_the_episode():
    p = dataclasses.replace(QUIET, m_A=8)
    batch = simulate_episode(p, [1, 2])
    other = eve_estimate_xA(simulate_episode(p, 1), p)
    with pytest.raises(ParamError, match="probe estimate"):
        eve_estimate_s(batch, p, probe_estimate=other)


def test_estimate_result_check_tests_every_entry():
    ok = np.array([0.5, 0.25])
    assert EstimateResult(np.zeros(2), ok, ok).check().closedform_mse is ok
    for bad in (np.array([0.5, np.nan]), np.array([-1e-3, 0.5])):
        with pytest.raises(ParamError, match="must be finite and >= 0"):
            EstimateResult(np.zeros(2), ok, bad).check()


def test_per_realization_rates_takes_one_draw():
    p = SystemParams()
    with pytest.raises(ParamError, match="one channel draw"):
        per_realization_rates(p, sample_channels(p, [1, 2]))
