"""Acceptance checks, one test per pinned criterion.

Each test prints exactly one ``criterion N: PASS/FAIL`` line (visible with
-s, or in the captured output on failure) and asserts the same condition,
so the pytest -v report also carries one line per criterion.
"""
import dataclasses
import math
import time

import numpy as np
import pytest

from steeplab import (BscParams, ChannelRealization, SystemParams,
                      alice_estimate_s, alice_limit_mse, corollary1_capacity,
                      empirical_snr, eve_estimate_s, eve_estimate_xA,
                      mac_bounds_digital, mse_ratio_eta, phi,
                      reconcile_and_amplify, reconcile_plan,
                      run_digital_episode, run_probing, run_echo,
                      sample_channels, simulate_episode, theorem1_bounds,
                      theorem1_term_oracles, validate, xi_digital)
from steeplab.digital import binary_entropy, effective_error_rates
from steeplab.rates import theorem1_draw_terms
from steeplab.seeds import stream, subseed
from steeplab.verify import _xi_enumerated
from test_rates import make_realization

pytestmark = pytest.mark.acceptance


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _random_oneway_params(rng) -> SystemParams:
    mag = rng.uniform(0.0, 0.95)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    scale = lambda: float(10.0 ** rng.uniform(-1.0, 1.0))
    return validate(SystemParams(
        p_A=scale(), p_B=scale(), sigma_A2=scale(), sigma_B2=scale(),
        sigma_EA2=scale(), sigma_EB2=scale(), sigma_s2=scale(),
        eps_A=scale(), eps_E=scale(),
        rho=complex(mag * math.cos(phase), mag * math.sin(phase)),
        n_E=int(rng.integers(1, 5)), m_A=int(rng.integers(1, 33)), m_B=0,
    ))


def test_criterion_1_oneway_capacity_consistency():
    """50 random one-way parameter sets: the general bounds and the
    closed bracket agree exactly, within the 30 s budget."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20240816)
    worst = 0.0
    for _ in range(50):
        p = _random_oneway_params(rng)
        rep = theorem1_bounds(p, n_draws=10_000, rng_seed=7)
        ckey = corollary1_capacity(p, n_draws=10_000, rng_seed=7)
        assert rep.values["C_B"] == rep.values["C_E"], "bracket must close"
        assert ckey == rep.values["C_B"], "corollary must reuse the bracket"
        recomposed = rep.values["alpha"] + p.m_A * rep.values["xi_BA"]
        worst = max(worst, abs(rep.values["C_B"] - recomposed))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 30.0
    _verdict(1, ok, f"C_B == C_E and C_key == alpha + m_A xi_BA exactly on "
                    f"50 random one-way sets (worst recomposition dev "
                    f"{worst:.2e}, {elapsed:.1f} s)")


def test_criterion_2_integrands_match_logdet_oracles():
    """Every per-realization integrand agrees with an independent
    covariance log-det oracle to 1e-9 on 1000 random realizations."""
    p = SystemParams()
    worst = 0.0
    worst_name = ""
    for seed in range(1000):
        r = sample_channels(p, seed)
        for report in theorem1_term_oracles(p, r):
            if report.abs_dev > worst:
                worst, worst_name = report.abs_dev, report.name
            assert report.passed, f"{report.name} at seed {seed}"
    ok = worst <= 1e-9
    _verdict(2, ok, f"1000 realizations x both directions and dual routes, "
                    f"worst |dev| {worst:.2e} ({worst_name})")


def test_criterion_3_mmse_levels_and_ratio_examples():
    """Estimator error levels hit the closed forms within 3 SE over 1000
    episodes of 1000 probes, and the textbook ratio examples hold."""
    p = dataclasses.replace(SystemParams(), m_A=1000, sigma_s2=0.25,
                            eps_A=1e-12, eps_E=1e-12)
    n = 1000
    rbar = alice_limit_mse(p)
    d_alice = np.empty(n)
    d_evex = np.empty(n)
    d_eves = np.empty(n)
    for i in range(n):
        ep = simulate_episode(p, subseed(0, "c3", i))
        d_alice[i] = alice_estimate_s(ep, p).empirical_mse - rbar
        rx = eve_estimate_xA(ep, p)
        d_evex[i] = rx.empirical_mse - rx.closedform_mse
        rs = eve_estimate_s(ep, p)
        d_eves[i] = rs.empirical_mse - rs.closedform_mse

    z = {}
    for name, d in (("alice", d_alice), ("eve_x", d_evex), ("eve_s", d_eves)):
        z[name] = abs(float(np.mean(d))) / (float(np.std(d, ddof=1))
                                            / math.sqrt(n))
    levels_ok = all(v < 3.0 for v in z.values())

    # ratio examples in the strong-secret regime t = 1000
    p_ratio = dataclasses.replace(p, sigma_s2=1000.0)
    eta_phi1 = mse_ratio_eta(p_ratio, make_realization(habs2_ba=2.0,
                                                       gnorm2_a=1.0))
    eta_phi_half = mse_ratio_eta(p_ratio, make_realization(habs2_ba=1.0,
                                                           gnorm2_a=1.0))
    ratios_ok = (abs(eta_phi1 - 0.5) < 0.02 * 0.5
                 and abs(eta_phi_half - 2.0 / 3.0) < 0.02 * (2.0 / 3.0))

    ok = levels_ok and ratios_ok
    _verdict(3, ok, f"MSE z-scores alice {z['alice']:.2f}, eve_x "
                    f"{z['eve_x']:.2f}, eve_s {z['eve_s']:.2f} (all < 3); "
                    f"eta examples {eta_phi1:.4f} vs 1/2 and "
                    f"{eta_phi_half:.4f} vs 2/3 within 2%")


def test_criterion_4_effective_snrs_from_waveforms():
    """Fitted SNRs from 1e5-sample episodes match t and t/(phi+1) within
    3%, including the equal-high-SNR case where Eve keeps half."""
    p = dataclasses.replace(SystemParams(), m_A=100_000, sigma_s2=4.0,
                            eps_A=1e-9, eps_E=1e-9)

    def fitted_snrs(realization, seed):
        ep = run_echo(p, run_probing(p, realization, subseed(seed, "pr")),
                      subseed(seed, "ec"))
        resid_a = ep.y_AB - realization.h_BA * ep.x_A
        snr_a = empirical_snr(ep.s, resid_a)
        xhat = eve_estimate_xA(ep, p).estimate
        resid_e = ep.y_EB - realization.h_BA * xhat
        snr_e = empirical_snr(ep.s, resid_e)
        return snr_a, snr_e

    t = p.sigma_s2 / p.sigma_B2
    devs = []
    for seed in range(3):
        r = sample_channels(p, seed)
        f = phi(p, r, "BA")
        snr_a, snr_e = fitted_snrs(r, seed)
        devs.append(abs(snr_a - t) / t)
        devs.append(abs(snr_e - t / (1.0 + f)) / (t / (1.0 + f)))

    # equal high probing SNRs (100) push phi to 100/101: Eve's echo SNR
    # lands at half of Bob's
    r_half = make_realization(habs2_ba=100.0, gnorm2_a=100.0)
    f_half = phi(p, r_half, "BA")
    snr_a, snr_e = fitted_snrs(r_half, 99)
    devs.append(abs(snr_a - t) / t)
    devs.append(abs(snr_e - t / (1.0 + f_half)) / (t / (1.0 + f_half)))
    ratio = snr_e / snr_a

    worst = max(devs)
    ok = worst < 0.03 and 0.47 < ratio < 0.53
    _verdict(4, ok, f"worst fitted-SNR deviation {worst:.3%} over 4 "
                    f"realizations; constructed case gives Eve "
                    f"{ratio:.3f} of Bob's echo SNR")


def test_criterion_5_strong_secret_limit_and_positivity():
    """The analog echo rate approaches the ideal one-way rate as the
    secret power grows, and stays positive however good Eve's probing is."""
    p_limit = dataclasses.replace(SystemParams(), sigma_s2=1e6)
    draws = theorem1_draw_terms(p_limit, n_draws=4000, rng_seed=0)
    xi_mean = float(np.mean(draws["xi_BA"]))
    # per-draw echo rate log2(1 + phi t / (t + 1 + phi)), same batch
    xi_tilde_mean = float(np.mean(draws["xi_BA_prime"]))
    rel = abs(xi_tilde_mean - xi_mean) / xi_mean

    floors = []
    for sigma_ea2 in (1.0, 0.5, 0.1, 0.02, 0.01):  # Eve gains up to 100x
        p = dataclasses.replace(SystemParams(), sigma_EA2=sigma_ea2)
        terms = theorem1_draw_terms(p, n_draws=3000, rng_seed=1)
        t = p.sigma_s2 / p.sigma_B2
        f = terms["phi_BA"]
        xt = np.log2(1.0 + f * t / (t + 1.0 + f))
        floors.append((float(np.mean(xt)), float(np.min(xt))))

    positive = all(mean > 0.0 and lo > 0.0 for mean, lo in floors)
    ok = rel < 0.005 and positive
    _verdict(5, ok, f"strong-secret gap {rel:.3%} (< 0.5%); echo rate mean "
                    f"stayed in [{min(m for m, _ in floors):.4f}, "
                    f"{max(m for m, _ in floors):.4f}] > 0 while Eve's "
                    f"probing noise fell 100x")


def test_criterion_6_digital_rate_formula():
    """xi(0.1, 0.2) hits the pinned value, matches exact enumeration on a
    9x9 grid, the two capacity bounds coincide, and simulated error rates
    land within 3 binomial sigma."""
    xi_ref = xi_digital(BscParams())
    pinned_ok = abs(xi_ref - 0.3578) <= 1e-4

    worst_enum = 0.0
    worst_gap = 0.0
    grid = np.linspace(0.05, 0.45, 9)
    for p_ba in grid:
        for p_ea in grid:
            bsc = BscParams(P_BA=float(p_ba), P_EA=float(p_ea), m_A=8)
            xi_enum = _xi_enumerated(bsc.P_BA, bsc.P_EA, bsc.P_AB, bsc.P_EB)
            worst_enum = max(worst_enum, abs(xi_digital(bsc) - float(xi_enum)))
            lo, hi = mac_bounds_digital(bsc)
            worst_gap = max(worst_gap, abs(hi - lo))

    big = BscParams(m_A=100_000)
    ep = run_digital_episode(big, 20)
    p_ab, p_eb = effective_error_rates(big)
    emp_ab = float(np.mean(ep.bbar_AB ^ ep.b_s))
    emp_eb = float(np.mean(ep.bbar_EB ^ ep.b_s))
    sig_ab = math.sqrt(p_ab * (1 - p_ab) / big.m_A)
    sig_eb = math.sqrt(p_eb * (1 - p_eb) / big.m_A)
    emp_ok = (abs(emp_ab - p_ab) < 3 * sig_ab
              and abs(emp_eb - p_eb) < 3 * sig_eb)

    ok = pinned_ok and worst_enum <= 1e-12 and worst_gap <= 1e-12 and emp_ok
    _verdict(6, ok, f"xi = {xi_ref:.6f} (pinned 0.3578 +/- 1e-4); worst "
                    f"enumeration dev {worst_enum:.2e}, worst bound gap "
                    f"{worst_gap:.2e} on 9x9 grid; empirical rates "
                    f"{emp_ab:.4f}/{emp_eb:.4f} within 3 sigma")


def test_criterion_7_key_agreement_under_budget():
    """100 full protocol runs at the default operating point distill the
    maximum-length key with at most one failure, within 60 s."""
    t0 = time.monotonic()
    bsc = BscParams()
    plan = reconcile_plan(bsc)
    agreed = 0
    converged = 0
    for trial in range(100):
        ep = run_digital_episode(bsc, subseed(3, "episode", trial))
        res = reconcile_and_amplify(ep, bsc, plan.max_key_len,
                                    subseed(3, "distill", trial))
        agreed += int(res.success)
        converged += int(res.decoder_converged)
    elapsed = time.monotonic() - t0
    ok = agreed >= 99 and elapsed < 60.0
    _verdict(7, ok, f"{agreed}/100 keys of length {plan.max_key_len} agreed "
                    f"({converged}/100 decoder converged) in {elapsed:.1f} s; "
                    f"disclosed {plan.syndrome_bits} syndrome bits = "
                    f"{plan.ideal_bits:.0f} ideal + {plan.leak_bits:.0f} "
                    f"charged to the key budget")


def test_criterion_8_echo_power_budget():
    """Measured echo power matches the budget within 2%, and the
    recommended secret power makes the echo twice the secret."""
    p = dataclasses.replace(SystemParams(), m_A=100_000)
    worst = 0.0
    for seed in range(3):
        ep = simulate_episode(p, seed)
        h2 = abs(ep.realization.h_BA) ** 2
        p_r = h2 * p.p_A + p.sigma_B2 + p.sigma_s2
        emp = float(np.mean(np.abs(ep.r) ** 2))
        worst = max(worst, abs(emp - p_r) / p_r)

    # recommended split sigma_s2 = |h_BA|^2 p_A with negligible sigma_B2
    r = sample_channels(p, 5)
    reco = abs(r.h_BA) ** 2 * p.p_A
    p_split = dataclasses.replace(p, sigma_s2=reco, sigma_B2=5e-3 * reco)
    ep = run_echo(p_split, run_probing(p_split, r, 11), 12)
    emp_ratio = float(np.mean(np.abs(ep.r) ** 2)) / reco
    closed_ratio = (reco + p_split.sigma_B2 + p_split.sigma_s2) / reco

    ok = (worst < 0.02 and 1.98 <= closed_ratio <= 2.02
          and 1.98 <= emp_ratio <= 2.02)
    _verdict(8, ok, f"worst echo-power deviation {worst:.3%} at 1e5 "
                    f"samples; recommended split gives echo/secret "
                    f"{emp_ratio:.4f} (closed {closed_ratio:.4f})")
