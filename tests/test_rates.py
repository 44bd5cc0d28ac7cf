"""Closed-form rate formulas: frozen exact values, invariants, and
independent quadrature cross-checks of the Monte Carlo expectations."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steeplab import (ChannelRealization, ParamError, SystemParams, alpha,
                      corollary1_capacity, effective_snrs,
                      per_realization_rates, phi, power_budget,
                      sample_channels, theorem1_bounds, theorem2_lower_bound,
                      theorem3_lower_bound, validate, xi_tilde_analog)
from steeplab import rates
from steeplab.channel import sample_channel_batch
from steeplab.rates import theorem1_draw_terms
from steeplab.seeds import stream
from test_channel import _reference_channel_batch

BASE = SystemParams()


def make_realization(habs2_ba=10.0, gnorm2_a=10.0, habs2_ab=4.0,
                     gnorm2_b=2.0, n_E=2):
    """Hand-built gains with exact squared magnitudes."""
    g_a = np.full(n_E, math.sqrt(gnorm2_a / n_E), dtype=complex)
    g_b = np.full(n_E, math.sqrt(gnorm2_b / n_E), dtype=complex)
    return ChannelRealization(h_AB=complex(math.sqrt(habs2_ab)),
                              h_BA=complex(math.sqrt(habs2_ba)),
                              g_A=g_a, g_B=g_b)


# ---------------------------------------------------------------- alpha

def test_alpha_frozen_value():
    # -log2(1 - 0.25) = log2(4/3)
    assert alpha(BASE) == pytest.approx(0.4150374992788438, abs=1e-15)


def test_alpha_zero_without_correlation():
    assert alpha(dataclasses.replace(BASE, rho=0.0)) == 0.0


def test_alpha_depends_only_on_magnitude():
    a = alpha(dataclasses.replace(BASE, rho=0.6))
    b = alpha(dataclasses.replace(BASE, rho=0.6j))
    c = alpha(dataclasses.replace(BASE, rho=-0.6))
    assert a == b == c


@given(lo=st.floats(min_value=0.0, max_value=0.98),
       hi=st.floats(min_value=0.0, max_value=0.98))
def test_alpha_monotone_in_correlation(lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    a_lo = alpha(dataclasses.replace(BASE, rho=lo))
    a_hi = alpha(dataclasses.replace(BASE, rho=hi))
    assert a_lo <= a_hi + 1e-12
    assert a_lo >= 0.0


# ---------------------------------------------------------------- phi

def test_phi_frozen_example():
    # main SNR 10 against eavesdropper SNR 10 gives 10/11
    r = make_realization()
    assert phi(BASE, r, "BA") == pytest.approx(10.0 / 11.0, abs=1e-15)


def test_phi_other_direction():
    r = make_realization()
    # p_B |h_AB|^2 / sigma_A2 = 4, p_B ||g_B||^2 / sigma_EB2 = 2
    assert phi(BASE, r, "AB") == pytest.approx(4.0 / 3.0, abs=1e-15)


def test_phi_rejects_unknown_direction():
    with pytest.raises(ParamError):
        phi(BASE, make_realization(), "XY")


def test_phi_grows_without_eavesdropper():
    weak = make_realization(gnorm2_a=1e-12)
    assert phi(BASE, weak, "BA") == pytest.approx(10.0, rel=1e-9)


# ------------------------------------------------- per-realization rates

def test_per_realization_frozen_values():
    r = make_realization()  # phi_BA = 10/11, t = 1
    rates = per_realization_rates(BASE, r)
    assert rates.phi_BA == pytest.approx(10 / 11, abs=1e-15)
    assert rates.xi_BA_term == pytest.approx(math.log2(21 / 11), abs=1e-12)
    # equal main and eavesdropper SNR kills the second-phase gamma term
    assert rates.gamma_BA_term == pytest.approx(0.0, abs=1e-12)
    # phi t / (1 + phi + t) = 10/32
    assert rates.xi_prime_BA_term == pytest.approx(math.log2(1 + 10 / 32),
                                                   abs=1e-12)
    assert rates.snr_AB == pytest.approx(1.0)
    assert rates.snr_EB == pytest.approx(11 / 21, abs=1e-12)


def test_xi_tilde_frozen_value():
    # phi = 1, t = 10: log2(1 + 10/12) = log2(11/6)
    p = dataclasses.replace(BASE, sigma_s2=10.0)
    r = make_realization(habs2_ba=2.0, gnorm2_a=1.0)
    assert phi(p, r, "BA") == pytest.approx(1.0, abs=1e-12)
    assert xi_tilde_analog(p, r) == pytest.approx(0.8744691179161412,
                                                  abs=1e-12)


@given(habs2=st.floats(min_value=1e-3, max_value=1e3),
       gnorm2=st.floats(min_value=1e-3, max_value=1e3),
       t=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=200)
def test_rate_chain_ordering(habs2, gnorm2, t):
    # 0 <= xi' <= xi on every realization
    p = validate(dataclasses.replace(BASE, sigma_s2=t))
    r = make_realization(habs2_ba=habs2, gnorm2_a=gnorm2)
    rates = per_realization_rates(p, r)
    assert 0.0 <= rates.xi_prime_BA_term <= rates.xi_BA_term + 1e-12
    # the second phase can only help the eavesdropper relative to xi
    assert rates.gamma_BA_term <= rates.xi_BA_term + 1e-12


@given(habs2=st.floats(min_value=1e-3, max_value=1e3),
       gnorm2=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=100)
def test_effective_snr_ordering(habs2, gnorm2):
    r = make_realization(habs2_ba=habs2, gnorm2_a=gnorm2)
    snr_ab, snr_eb = effective_snrs(BASE, r)
    assert snr_ab == pytest.approx(BASE.sigma_s2 / BASE.sigma_B2)
    assert 0.0 < snr_eb <= snr_ab  # Eve's echo SNR never beats Bob's


def test_power_budget_recommended_split():
    r = make_realization(habs2_ba=3.0)
    p_r, reco = power_budget(BASE, r)
    assert p_r == pytest.approx(3.0 * BASE.p_A + 2.0)
    assert reco == pytest.approx(3.0 * BASE.p_A)
    # at sigma_s2 = reco the echo power is about twice the secret power
    p2 = dataclasses.replace(BASE, sigma_s2=reco, sigma_B2=1e-4)
    p_r2, _ = power_budget(p2, r)
    assert p_r2 / reco == pytest.approx(2.0, abs=1e-3)


@pytest.mark.parametrize("one_draw", [per_realization_rates, effective_snrs,
                                      xi_tilde_analog, power_budget])
def test_one_draw_functions_reject_a_batch(one_draw):
    batch = sample_channels(BASE, [1, 2])
    with pytest.raises(ParamError, match="takes one channel draw, not a batch"):
        one_draw(BASE, batch)


# ---------------------------------------------------------------- theorem 1

def test_theorem1_report_structure_and_determinism():
    rep1 = theorem1_bounds(BASE, n_draws=4000, rng_seed=3)
    rep2 = theorem1_bounds(BASE, n_draws=4000, rng_seed=3)
    assert rep1.to_json() == rep2.to_json()
    for key in ("alpha", "xi_BA", "xi_AB", "gamma_BA", "gamma_AB",
                "C_A", "C_B", "C_E"):
        assert key in rep1.values
    for key in ("xi_BA", "xi_AB", "gamma_BA", "gamma_AB"):
        assert rep1.stderr[key] > 0.0


def test_theorem1_seed_sensitivity_within_error_bars():
    a = theorem1_bounds(BASE, n_draws=20_000, rng_seed=0)
    b = theorem1_bounds(BASE, n_draws=20_000, rng_seed=1)
    for key in ("xi_BA", "gamma_AB"):
        se = math.hypot(a.stderr[key], b.stderr[key])
        assert abs(a.values[key] - b.values[key]) < 6 * se


def test_theorem1_eavesdropper_dominates_both_sides():
    # per-draw xi >= gamma forces C_E >= max(C_A, C_B)
    for seed in range(5):
        p = dataclasses.replace(BASE, m_A=3, m_B=2)
        rep = theorem1_bounds(p, n_draws=2000, rng_seed=seed)
        assert rep.values["C_E"] >= rep.values["C_A"] - 1e-9
        assert rep.values["C_E"] >= rep.values["C_B"] - 1e-9


def test_theorem1_two_way_note_present():
    p = dataclasses.replace(BASE, m_A=3, m_B=2)
    rep = theorem1_bounds(p, n_draws=500, rng_seed=0)
    assert any("two-way" in n for n in rep.notes)
    rep_ow = theorem1_bounds(BASE, n_draws=500, rng_seed=0)
    assert not any("two-way" in n for n in rep_ow.notes)


# ------------------------------------------------- quadrature cross-checks

def _laguerre_expect(fn, shape_k, n_nodes=170):
    """E f(V) for V ~ Gamma(shape_k, 1) via Gauss-Laguerre."""
    x, w = np.polynomial.laguerre.laggauss(n_nodes)
    dens = x ** (shape_k - 1) / math.gamma(shape_k)
    return float(np.sum(w * dens * fn(x)))


def _expect_over_phi(fn, n_E=2, n_nodes=170):
    """E fn(phi) with phi = X/(1+Y), X ~ Exp(1), Y ~ Gamma(n_E, 1)."""
    x, wx = np.polynomial.laguerre.laggauss(n_nodes)
    inner = np.array([
        _laguerre_expect(lambda y, xv=xv: fn(xv / (1.0 + y)), n_E, n_nodes)
        for xv in x
    ])
    return float(np.sum(wx * inner))


@pytest.mark.slow
def test_xi_expectation_against_quadrature():
    # unit parameters make phi = |h|^2 / (1 + ||g||^2) exactly
    xi_true = _expect_over_phi(lambda f: np.log2(1.0 + f))
    rep = theorem1_bounds(BASE, n_draws=200_000, rng_seed=0)
    assert abs(rep.values["xi_BA"] - xi_true) < 4 * rep.stderr["xi_BA"]
    assert abs(rep.values["xi_AB"] - xi_true) < 4 * rep.stderr["xi_AB"]


@pytest.mark.slow
def test_gamma_expectation_against_quadrature():
    # gamma needs the joint (X, Y), not just phi
    x, wx = np.polynomial.laguerre.laggauss(170)
    vals = np.array([
        _laguerre_expect(
            lambda y, xv=xv: np.log2((xv + 1.0) / (y + 1.0)), 2)
        for xv in x
    ])
    gamma_true = float(np.sum(wx * vals))
    rep = theorem1_bounds(BASE, n_draws=200_000, rng_seed=0)
    assert abs(rep.values["gamma_BA"] - gamma_true) < 4 * rep.stderr["gamma_BA"]


@pytest.mark.slow
def test_theorem2_terms_against_quadrature():
    p = BASE  # eps equal: eta term vanishes, m_A = 4
    t = p.sigma_s2 / p.sigma_B2
    xi_prime_true = _expect_over_phi(
        lambda f: np.log2(1.0 + f * t / (1.0 + f + t)))
    scale = p.p_A / (p.sigma_s2 + p.sigma_B2)
    inv = 1.0 / (1.0 - abs(p.rho) ** 2)
    alpha_prime_true = _laguerre_expect(
        lambda v: np.log2((scale * v + inv) / (scale * v + 1.0)), p.m_A)
    rep = theorem2_lower_bound(p, n_draws=200_000, rng_seed=0)
    assert abs(rep.values["xi_BA_prime"] - xi_prime_true) \
        < 4 * rep.stderr["xi_BA_prime"]
    assert abs(rep.values["alpha_prime"] - alpha_prime_true) \
        < 4 * rep.stderr["alpha_prime"]
    assert rep.values["eta"] == 1.0
    assert rep.values["theorem2_lower"] == pytest.approx(
        rep.values["theorem3_lower"], abs=1e-12)


# ---------------------------------------------------------------- corollary

def test_corollary_matches_theorem1_exactly():
    rep = theorem1_bounds(BASE, n_draws=3000, rng_seed=9)
    ckey = corollary1_capacity(BASE, n_draws=3000, rng_seed=9)
    assert ckey == rep.values["C_B"]
    assert ckey == rep.values["C_E"]


def test_corollary_rejects_two_way():
    p = dataclasses.replace(BASE, m_A=2, m_B=2)
    with pytest.raises(ParamError, match="one-way probing required"):
        corollary1_capacity(p, n_draws=100, rng_seed=0)
    p0 = dataclasses.replace(BASE, m_A=0, m_B=0)
    with pytest.raises(ParamError, match="one-way probing required"):
        corollary1_capacity(p0, n_draws=100, rng_seed=0)


def test_corollary_probing_by_bob():
    p = dataclasses.replace(BASE, m_A=0, m_B=5)
    rep = theorem1_bounds(p, n_draws=3000, rng_seed=2)
    ckey = corollary1_capacity(p, n_draws=3000, rng_seed=2)
    assert ckey == rep.values["C_A"]
    assert ckey == rep.values["C_E"]


# ---------------------------------------------------------------- theorems 2/3

@pytest.mark.parametrize("zero", ["eps_A", "eps_E"])
def test_theorem2_requires_return_noise(zero):
    p = dataclasses.replace(BASE, **{zero: 0.0})
    with pytest.raises(ParamError, match="eps_A > 0 and eps_E > 0"):
        theorem2_lower_bound(p, n_draws=100, rng_seed=0)


@pytest.mark.parametrize("bound", [theorem2_lower_bound, theorem3_lower_bound])
def test_echo_bounds_require_probes(bound):
    p = dataclasses.replace(BASE, m_A=0, m_B=3)
    with pytest.raises(ParamError, match="echo-protocol bounds need m_A >= 1"):
        bound(p, n_draws=100, rng_seed=0)


def test_theorem2_checks_return_noise_before_probes():
    p = dataclasses.replace(BASE, m_A=0, eps_A=0.0)
    with pytest.raises(ParamError, match="eps_A > 0 and eps_E > 0"):
        theorem2_lower_bound(p, n_draws=100, rng_seed=0)


def test_theorem3_ignores_return_noise_ratio():
    # theorem3 never touches eps, so wildly asymmetric hardware is fine
    p = dataclasses.replace(BASE, eps_A=1e-6, eps_E=10.0)
    rep3 = theorem3_lower_bound(p, n_draws=2000, rng_seed=1)
    rep2 = theorem2_lower_bound(p, n_draws=2000, rng_seed=1)
    eta = p.eps_E / p.eps_A
    assert rep2.values["eta"] == pytest.approx(eta)
    assert rep2.values["theorem2_lower"] == pytest.approx(
        rep3.values["theorem3_lower"] + p.m_A * math.log2(eta), rel=1e-12)


def test_theorem2_report_is_the_theorem3_report_plus_the_eta_term():
    p = dataclasses.replace(BASE, eps_A=0.5, eps_E=2.0)
    rep3 = theorem3_lower_bound(p, n_draws=500, rng_seed=3)
    rep2 = theorem2_lower_bound(p, n_draws=500, rng_seed=3)
    assert list(rep2.values) == [*rep3.values, "eta", "eta_term",
                                 "theorem2_lower"]
    assert {k: rep2.values[k] for k in rep3.values} == rep3.values
    assert rep2.stderr == rep3.stderr and rep3.notes == []
    assert rep2.values["eta_term"] == p.m_A * math.log2(4.0)
    assert rep2.values["theorem2_lower"] == (rep3.values["theorem3_lower"]
                                             + rep2.values["eta_term"])
    assert len(rep2.notes) == 1 and "eta" in rep2.notes[0]


def test_echo_bounds_never_exceed_one_way_capacity():
    # alpha' <= alpha and xi' <= xi, so the echo bound sits below C_key
    for seed in (0, 4):
        rep3 = theorem3_lower_bound(BASE, n_draws=50_000, rng_seed=seed)
        ckey = corollary1_capacity(BASE, n_draws=50_000, rng_seed=seed)
        assert rep3.values["theorem3_lower"] <= ckey + 1e-9


def test_batch_terms_equal_per_draw_terms():
    # one magnitude rule, np.square(np.abs(h)), for the batch and for one
    # draw: each per-draw closed form is its draw of the batch, bit for bit
    p = dataclasses.replace(BASE, rho=0.7)
    shared = (("phi_BA", "phi_BA"), ("xi_BA", "xi_BA_term"),
              ("xi_AB", "xi_AB_term"), ("gamma_BA", "gamma_BA_term"),
              ("gamma_AB", "gamma_AB_term"),
              ("xi_BA_prime", "xi_prime_BA_term"),
              ("xi_BA_prime", "xi_tilde"), ("snr_AB", "snr_AB"),
              ("snr_EB", "snr_EB"))
    for seed in (1, 2, 3):
        terms = theorem1_draw_terms(p, 5000, seed)
        gains = _reference_channel_batch(p, seed, 5000)
        draws = [ChannelRealization(h_AB=complex(h_ab), h_BA=complex(h_ba),
                                    g_A=g_a, g_B=g_b)
                 for h_ab, h_ba, g_a, g_b in zip(*gains)]
        per = [per_realization_rates(p, r) for r in draws]
        for batch_name, draw_name in shared:
            one = np.array([getattr(r, draw_name) for r in per])
            assert np.array_equal(terms[batch_name], one), (seed, draw_name)
        # the received probe power of the echo budget follows the same rule
        recv = np.array([power_budget(p, r)[1] for r in draws])
        powers = sample_channel_batch(p, seed, 5000)
        assert np.array_equal(recv, powers[1] * p.p_A)


def test_draw_terms_are_writable_and_resampled_with_the_same_bits():
    terms = theorem1_draw_terms(BASE, 500, 3)
    assert all(arr.flags.writeable for arr in terms.values())
    terms["xi_BA"] *= 2
    # each call samples the batch afresh, with the same bits
    again = theorem1_draw_terms(BASE, 500, 3)
    assert np.array_equal(2 * again["xi_BA"], terms["xi_BA"])


# the CI's generic point: no two powers, variances or return noises equal
GENERIC = dict(p_A=1.3, p_B=0.7, sigma_A2=0.6, sigma_B2=1.1, sigma_EA2=0.8,
               sigma_EB2=1.7, sigma_s2=2.3, eps_A=0.4, eps_E=0.9)


@pytest.mark.parametrize("params", [
    BASE, SystemParams(**GENERIC), SystemParams(n_E=1, rho=0.3 + 0.4j),
    SystemParams(n_E=9, rho=0.7, **GENERIC)],
    ids=["default", "generic", "n_E_1", "n_E_9"])
def test_shared_terms_built_in_place_are_the_full_kernels_terms(params):
    # the terms a report reads are built over intermediates it does not
    # read; each keeps the bits of draw_terms on the same batch, and each
    # is an array of its own
    seed, n = 11, 3000
    terms = theorem1_draw_terms(params, n, seed)
    xnorm2 = 0.5 * params.p_A * stream(seed, "xnorm").chisquare(
        2 * params.m_A, size=n)
    gains = _reference_channel_batch(params, seed, n)
    full = rates.draw_terms(params, ChannelRealization(*gains), xnorm2=xnorm2)
    assert set(terms) == {"phi_BA", "xi_BA", "xi_AB", "gamma_BA", "gamma_AB",
                          "xi_BA_prime", "snr_AB", "snr_EB", "alpha_prime"}
    for name, arr in terms.items():
        assert arr.tobytes() == full[name].tobytes(), name
    arrays = list(terms.values())
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(arrays) for b in arrays[i + 1:])


def test_shared_terms_peak_memory_holds_no_complex_batch():
    # one 10^5-draw report at n_E 2 samples squared gain magnitudes (4.8
    # MB) through a normals scratch (3.2 MB) and peaks at 8.79 MB while
    # sampling; building its terms stays below that (9.6 MB when phi_AB
    # and a new u for alpha_prime were held too), and the complex batch
    # (9.6 MB) with its magnitudes took it to 14.4 MB
    p = SystemParams(rho=0.7, m_A=8)
    theorem1_draw_terms(p, 10, 1)
    tracemalloc.start()
    try:
        theorem1_draw_terms(p, 100_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9e6, peak


def _outputs(result):
    if isinstance(result, float):
        return result
    return result.values, result.stderr, result.notes


@pytest.mark.parametrize("bound", [theorem1_bounds, corollary1_capacity,
                                   theorem2_lower_bound, theorem3_lower_bound],
                         ids=lambda bound: bound.__name__)
def test_bound_reduces_given_terms_without_sampling(monkeypatch, bound):
    calls = []

    def counting(*args):
        calls.append(args)
        return sample_channel_batch(*args)

    monkeypatch.setattr(rates, "sample_channel_batch", counting)
    key = (BASE, 600, 9)
    terms = theorem1_draw_terms(*key)
    before = {name: arr.copy() for name, arr in terms.items()}
    other = theorem1_draw_terms(BASE, 599, 9)
    want = _outputs(bound(*key))
    # each batch sampled is one call
    assert [args[1:] for args in calls] == [(9, 600), (9, 599), (9, 600)]
    assert _outputs(bound(*key, terms=terms)) == want
    assert len(calls) == 3
    # the bounds of one report share the batch, so none may write to it
    assert all(np.array_equal(terms[name], before[name]) for name in before)
    with pytest.raises(ParamError, match="n_draws = 600"):
        bound(*key, terms=other)


# ------------------------------------------------------- exact reductions

@pytest.mark.parametrize("k", [*range(1, 41), 63, 64, 65, 127, 128, 129, 200,
                               257])
def test_row_sum_is_numpy_sum_bit_for_bit(k):
    # numpy sums a row pairwise from 8 columns on; column adds in any
    # other order change the last bits of Eve's probing SNR
    rng = np.random.default_rng(k)
    for n in (1, 1000):
        z = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        a = np.square(np.abs(z))
        assert rates._row_sum(a).tobytes() == a.sum(axis=-1).tobytes(), n
    # a batch of one draw keeps its shape
    assert rates._row_sum(a[0]).tobytes() == a[0].sum(axis=-1).tobytes()
    # any signs: rows of mixed signs, of -0.0 (numpy's sum starts at 0.0,
    # so they sum to 0.0) and of -0.0 among negative terms
    b = rng.standard_normal((1000, k)) * np.logspace(0, 12, k)
    b[:10] = -0.0
    b[10:20] = -np.abs(b[10:20])
    b[10:20, ::2] = -0.0
    assert rates._row_sum(b).tobytes() == b.sum(axis=-1).tobytes()
    assert rates._row_sum(b[0]).tobytes() == b[0].sum(axis=-1).tobytes()


@pytest.mark.parametrize("k", [8, 9, 130])
def test_row_sum_of_a_view_is_the_sum_of_its_contiguous_copy(k):
    # from 8 columns numpy's sum order follows the memory layout, so a
    # strided view is summed as its copy, whatever order the view would get
    a = np.random.default_rng(k).standard_normal((k, 5000)) ** 2
    v = np.moveaxis(a, 0, -1)
    want = np.ascontiguousarray(v).sum(-1)
    assert rates._row_sum(v).tobytes() == want.tobytes()


@pytest.mark.parametrize("n_E", [1, 9, 130])
def test_eve_snr_is_the_sum_over_antennas(n_E):
    p = SystemParams(n_E=n_E, p_A=1.7, sigma_EA2=0.3)
    # complex gains: squared ones would pass too, as both sides square them
    h_AB, h_BA, g_A, g_B = _reference_channel_batch(p, 6, 500)
    terms = rates.draw_terms(p, ChannelRealization(h_AB, h_BA, g_A, g_B))
    want = p.p_A * np.square(np.abs(g_A)).sum(axis=-1) / p.sigma_EA2
    assert terms["eve_BA"].tobytes() == want.tobytes()


def test_draw_terms_rejects_gains_that_disagree():
    # each of these once ran: terms of two lengths, five columns taken for
    # five antennas at n_E 2, a 7-long alpha_prime for a 3-draw batch
    p = SystemParams(n_E=2)
    h_ab, h_ba, g_a, g_b = _reference_channel_batch(p, 4, 3)
    cases = {"h_BA": ((h_ab, np.append(h_ba, 1.0), g_a, g_b), None),
             "g_A": ((h_ab, h_ba, np.ones((3, 5)), g_b), None),
             "g_B": ((h_ab, h_ba, g_a, g_b[:2]), None),
             "xnorm2": ((h_ab, h_ba, g_a, g_b), np.ones(7))}
    for name, (gains, xnorm2) in cases.items():
        with pytest.raises(ParamError, match=name):
            rates.draw_terms(p, ChannelRealization(*gains), xnorm2=xnorm2)
    with pytest.raises(ParamError, match="xnorm2"):
        rates.draw_terms(p, ChannelRealization(h_ab[0], h_ba[0], g_a[0],
                                               g_b[0]), np.ones(1))


def test_draw_terms_never_writes_to_xnorm2():
    p = SystemParams(n_E=2)
    gains = _reference_channel_batch(p, 4, 3)
    batch = ChannelRealization(*gains)
    xnorm2 = np.array([0.5, 2.0, 7.0])
    want = rates.draw_terms(p, batch, xnorm2=xnorm2.copy())["alpha_prime"]
    assert rates.draw_terms(p, batch, xnorm2)["alpha_prime"].tobytes() == \
        want.tobytes()
    assert xnorm2.tolist() == [0.5, 2.0, 7.0]
    one = np.array(3.0)   # a 0-d array, which one draw's batch of one views
    rates.draw_terms(p, ChannelRealization(*(g[0] for g in gains)),
                     xnorm2=one)
    assert one == 3.0


@pytest.mark.parametrize("bound, name", [
    (theorem1_bounds, "gamma_BA"), (theorem1_bounds, "xi_AB"),
    (corollary1_capacity, "xi_AB"), (theorem2_lower_bound, "alpha_prime"),
    (theorem3_lower_bound, "xi_BA_prime")],
    ids=lambda v: getattr(v, "__name__", v))
def test_bound_rejects_terms_missing_or_short_of_a_name_it_reads(bound,
                                                                 name):
    # a one-draw gamma_BA used to broadcast: C_A read -2.846 for -1.170
    p = SystemParams(m_B=0 if bound is corollary1_capacity else 2)
    terms = theorem1_draw_terms(p, 10, 1)
    for bad in (terms[name][:1], terms[name][:9], terms[name][:, None],
                None):
        given = dict(terms)
        if bad is None:
            del given[name]
        else:
            given[name] = bad
        with pytest.raises(ParamError, match=f"n_draws = 10 draws of {name}"):
            bound(p, 10, 1, terms=given)


@pytest.mark.parametrize("n", [1, 2, 3, 100_001])
@pytest.mark.parametrize("kind", ["constant", "negative", "mixed"])
def test_mean_se_is_numpy_mean_and_std(n, kind):
    rng = np.random.default_rng(n)
    a = {"constant": np.full(n, 0.1),
         "negative": -rng.exponential(3.0, n),
         "mixed": rng.standard_normal(n) * 1e3 + 0.5}[kind]
    mean, se = rates._mean_se(a)
    assert type(mean) is float and type(se) is float
    assert mean.hex() == float(np.mean(a)).hex()
    want = 0.0 if n == 1 else float(np.std(a, ddof=1) / math.sqrt(n))
    assert se.hex() == want.hex()
