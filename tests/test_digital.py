"""Digital protocol: BSC algebra, episodes, reconciliation."""
import dataclasses
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steeplab import (BscParams, DigitalEpisode, ParamError, binary_entropy,
                      bsc_convolve, effective_error_rates,
                      mac_bounds_digital, pack_bit_record,
                      reconcile_and_amplify,
                      reconcile_plan, run_digital_episode,
                      validate_bsc, xi_digital)
from steeplab import _workers, digital
from steeplab.codes import (_COL_WEIGHT, decode_syndrome, make_ldpc,
                            syndrome_of, toeplitz_hash)
from steeplab.seeds import subseed
from steeplab.verify import _joint_pmf, _xi_enumerated

probs = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)

DEFAULT = BscParams()


# ---------------------------------------------------------------- entropy

def test_binary_entropy_frozen_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.1) == pytest.approx(0.4689955935892812, abs=1e-12)
    assert binary_entropy(0.26) == pytest.approx(0.8267463724296977, abs=1e-9)


def test_binary_entropy_vectorized():
    out = binary_entropy(np.array([0.0, 0.1, 0.5]))
    assert out.shape == (3,)
    assert out[2] == 1.0


def test_binary_entropy_domain():
    with pytest.raises(ParamError):
        binary_entropy(-0.01)
    with pytest.raises(ParamError):
        binary_entropy(1.01)
    # NaN compares false with everything, so it must fail the range check
    with pytest.raises(ParamError):
        binary_entropy(math.nan)
    with pytest.raises(ParamError):
        binary_entropy(np.array([0.1, math.nan, 0.5]))


@given(p=st.floats(min_value=0.0, max_value=1.0))
def test_binary_entropy_symmetry(p):
    assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p),
                                              abs=1e-12)


# ---------------------------------------------------------------- convolve

@given(p=probs, q=probs)
def test_convolve_properties(p, q):
    c = bsc_convolve(p, q)
    # stays in [0, 1/2], commutes, and never cleans up a channel
    assert max(p, q) - 1e-12 <= c <= 0.5 + 1e-12
    assert c == pytest.approx(bsc_convolve(q, p), abs=1e-15)
    assert bsc_convolve(p, 0.0) == pytest.approx(p, abs=1e-15)
    assert bsc_convolve(p, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_convolve_frozen_value():
    assert bsc_convolve(0.1, 0.2) == pytest.approx(0.26, abs=1e-15)


# ---------------------------------------------------------------- rates

def test_effective_rates_exact_and_approx():
    # on a clean return path the exact rates are the module docstring's
    # approximate forms P_BA and P_BA + P_EA (1 - 2 P_BA)
    exact_ab, exact_eb = effective_error_rates(DEFAULT)
    assert exact_ab == pytest.approx(0.1)       # P_AB = 0 return path
    assert exact_eb == pytest.approx(0.26)
    assert exact_eb == pytest.approx(0.1 + 0.2 * (1 - 2 * 0.1))


def test_xi_digital_frozen_value():
    # f(0.26) - f(0.1)
    assert xi_digital(DEFAULT) == pytest.approx(0.3577507789033366, abs=1e-12)


def test_xi_digital_regime_guard():
    bad = dataclasses.replace(DEFAULT, P_BA=0.5, P_EA=0.5)
    with pytest.raises(ParamError, match="outside stated regime"):
        xi_digital(bad)


def test_validate_bsc_errors():
    with pytest.raises(ParamError):
        validate_bsc(dataclasses.replace(DEFAULT, P_BA=0.6))
    with pytest.raises(ParamError):
        validate_bsc(dataclasses.replace(DEFAULT, P_EA=-0.1))
    with pytest.raises(ParamError):
        validate_bsc(dataclasses.replace(DEFAULT, m_A=0))


@given(p_ba=st.floats(min_value=0.01, max_value=0.3),
       p_ea1=st.floats(min_value=0.0, max_value=0.49),
       p_ea2=st.floats(min_value=0.0, max_value=0.49))
@settings(max_examples=100)
def test_xi_monotone_in_eavesdropper_noise(p_ba, p_ea1, p_ea2):
    if p_ea1 > p_ea2:
        p_ea1, p_ea2 = p_ea2, p_ea1
    lo = xi_digital(dataclasses.replace(DEFAULT, P_BA=p_ba, P_EA=p_ea1))
    hi = xi_digital(dataclasses.replace(DEFAULT, P_BA=p_ba, P_EA=p_ea2))
    assert lo <= hi + 1e-12


@given(p_ba=st.floats(min_value=0.0, max_value=0.45),
       p_ea=st.floats(min_value=0.0, max_value=0.45))
@settings(max_examples=100)
def test_mac_bounds_coincide(p_ba, p_ea):
    bsc = dataclasses.replace(DEFAULT, P_BA=p_ba, P_EA=p_ea)
    lo, hi = mac_bounds_digital(bsc)
    assert lo == pytest.approx(hi, abs=1e-10)
    assert lo >= -1e-12


# ---------------------------------------------------------------- episodes

def test_episode_statistics():
    bsc = dataclasses.replace(DEFAULT, m_A=200_000)
    ep = run_digital_episode(bsc, 0)
    assert ep.b_s.dtype == np.uint8
    assert np.array_equal(ep.b_r, ep.b_s ^ ep.b_BA)
    assert np.array_equal(ep.bbar_AB, ep.b_AB ^ ep.b_A)
    emp_ab = np.mean(ep.bbar_AB ^ ep.b_s)
    emp_eb = np.mean(ep.bbar_EB ^ ep.b_s)
    assert abs(emp_ab - 0.1) < 0.004
    assert abs(emp_eb - 0.26) < 0.005


# every rate distinct, P_AB != P_EB in particular, so a closed form that
# reads one return rate for the other is off by several percent
GENERIC = BscParams(P_BA=0.07, P_EA=0.13, P_AB=0.02, P_EB=0.045,
                    m_A=100_000)


def _enumerated_rates(bsc):
    """(P_A|B, P_E|B) summed from the exact joint PMF of (b_s, bbar_AB,
    bbar_EB) over the secret bit and the four channel flips."""
    pmf = _joint_pmf((bsc.P_BA, bsc.P_EA, bsc.P_AB, bsc.P_EB),
                     lambda b_s, w_ba, w_ea, w_ab, w_eb:
                     (b_s, b_s ^ w_ba ^ w_ab, b_s ^ w_ea ^ w_ba ^ w_eb))
    return (float(pmf[0, 1].sum() + pmf[1, 0].sum()),
            float(pmf[0, :, 1].sum() + pmf[1, :, 0].sum()))


def _assert_closed_forms_match_enumeration(bsc):
    p_ab, p_eb = _enumerated_rates(bsc)
    plan = reconcile_plan(bsc)
    for got in (effective_error_rates(bsc),
                (plan.p_a_given_b, plan.p_e_given_b)):
        assert got == pytest.approx((p_ab, p_eb), rel=1e-13, abs=1e-15)
    xi_enum = float(_xi_enumerated(bsc.P_BA, bsc.P_EA, bsc.P_AB, bsc.P_EB))
    assert xi_digital(bsc) == pytest.approx(xi_enum, abs=1e-12)
    assert plan.xi == xi_digital(bsc)


def test_closed_forms_match_enumeration_with_distinct_return_rates():
    _assert_closed_forms_match_enumeration(GENERIC)


@given(rates=st.tuples(*[st.floats(min_value=0.0, max_value=0.45)] * 4))
@settings(max_examples=60, deadline=None)
def test_closed_forms_match_enumeration_at_any_point(rates):
    p_ba, p_ea, p_ab, p_eb = rates
    _assert_closed_forms_match_enumeration(
        BscParams(P_BA=p_ba, P_EA=p_ea, P_AB=p_ab, P_EB=p_eb, m_A=1000))


@pytest.mark.parametrize("seed", [0, 1])
def test_episode_crossovers_match_the_closed_forms_with_distinct_return_rates(
        seed):
    # each view of b_s through its effective BSC, within 4 standard errors
    ep = run_digital_episode(GENERIC, seed)
    for view, p in zip((ep.bbar_AB, ep.bbar_EB),
                       effective_error_rates(GENERIC)):
        se = math.sqrt(p * (1.0 - p) / GENERIC.m_A)
        assert abs(float(np.mean(view ^ ep.b_s)) - p) < 4.0 * se


def test_episode_deterministic():
    a = run_digital_episode(DEFAULT, 5)
    b = run_digital_episode(DEFAULT, 5)
    assert np.array_equal(a.b_s, b.b_s)
    assert np.array_equal(a.bbar_EB, b.bbar_EB)
    c = run_digital_episode(DEFAULT, 6)
    assert not np.array_equal(a.b_s, c.b_s)


def test_episode_bytes_round_trip():
    ep = run_digital_episode(dataclasses.replace(DEFAULT, m_A=777), 1)
    blob = ep.to_bytes()
    back = DigitalEpisode.from_bytes(blob)
    for name in ("b_A", "b_s", "bbar_AB", "bbar_EB"):
        assert np.array_equal(getattr(ep, name), getattr(back, name))
    assert back.key_A is None
    # and with keys attached
    ep2 = dataclasses.replace(ep, key_A=np.array([1, 0, 1], dtype=np.uint8),
                              key_B=np.array([1, 0, 1], dtype=np.uint8))
    back2 = DigitalEpisode.from_bytes(ep2.to_bytes())
    assert np.array_equal(back2.key_A, [1, 0, 1])


def test_episode_bytes_rejects_truncation():
    blob = run_digital_episode(DEFAULT, 2).to_bytes()
    with pytest.raises(ParamError):
        DigitalEpisode.from_bytes(blob[:-3])


def test_episode_from_bytes_rejects_streams_of_different_lengths():
    ep = run_digital_episode(dataclasses.replace(DEFAULT, m_A=64), 3)
    blob = b"".join(pack_bit_record(ep.b_s[:10] if name == "b_s"
                                    else getattr(ep, name))
                    for name in DigitalEpisode._FIELDS)
    with pytest.raises(ParamError, match="stream b_s has 10 bits, b_A has 64"):
        DigitalEpisode.from_bytes(blob)


def test_episode_requires_every_stream_but_not_keys():
    ep = run_digital_episode(dataclasses.replace(DEFAULT, m_A=64), 3)
    with pytest.raises(ParamError, match="missing required stream bbar_EB"):
        dataclasses.replace(ep, bbar_EB=None)
    short_keys = dataclasses.replace(ep, key_A=ep.b_A[:5], key_B=ep.b_A[:5])
    assert short_keys.m_A == 64


# ---------------------------------------------------------------- plans

def test_reconcile_plan_frozen_numbers():
    plan = reconcile_plan(DEFAULT)  # efficiency 1.6, margin 0.2
    assert plan.p_a_given_b == pytest.approx(0.1)
    assert plan.p_e_given_b == pytest.approx(0.26)
    assert plan.syndrome_bits == 7504
    assert plan.ideal_bits == pytest.approx(4689.955935892812, abs=1e-9)
    assert plan.leak_bits == pytest.approx(2814.044064107188, abs=1e-9)
    assert plan.max_key_len == 610


def test_reconcile_plan_noiseless_main_channel():
    clean = dataclasses.replace(DEFAULT, P_BA=0.0)
    plan = reconcile_plan(clean)
    assert plan.syndrome_bits == 0
    assert plan.leak_bits == 0.0
    # xi = f(P_EA) with nothing lost to reconciliation
    expect = math.floor(DEFAULT.m_A * binary_entropy(0.2) * 0.8)
    assert plan.max_key_len == expect


def test_reconcile_plan_key_budget_can_hit_zero():
    close = dataclasses.replace(DEFAULT, P_EA=0.12)
    assert reconcile_plan(close).max_key_len == 0


def test_reconcile_plan_promises_only_buildable_codes():
    # a syndrome of 1 or 2 bits is too short for an LDPC code of column
    # weight 3, so a plan with such a syndrome distills no key
    plans = [reconcile_plan(BscParams(P_BA=p_ba, P_EA=p_ea, m_A=m))
             for m in [*range(2, 200), 300, 500, 1000]
             for p_ba in (0.0005, 0.001, 0.01, 0.05, 0.1)
             for p_ea in (0.2, 0.4)]
    keyed = [plan for plan in plans if plan.max_key_len >= 1]
    assert len(keyed) == 1333   # another 632 have a 1-2 bit syndrome
    assert all(plan.syndrome_bits == 0 or plan.syndrome_bits >= _COL_WEIGHT
               for plan in keyed)
    short = reconcile_plan(BscParams(P_BA=0.01, m_A=10))
    assert (short.syndrome_bits, short.max_key_len) == (2, 0)


@pytest.mark.parametrize("efficiency", [math.inf, math.nan, 0.99])
def test_reconcile_plan_rejects_an_efficiency_it_cannot_size(efficiency):
    with pytest.raises(ParamError, match=r"efficiency must lie in \[1, inf\)"):
        reconcile_plan(DEFAULT, efficiency=efficiency)


def test_reconcile_plan_caps_an_overflowing_disclosure():
    # 1e308 * ideal is inf; the cap applies before rounding
    plan = reconcile_plan(DEFAULT, efficiency=1e308)
    assert plan.syndrome_bits == DEFAULT.m_A - 1
    assert isinstance(plan.syndrome_bits, int)


# ---------------------------------------------------------------- end to end

def test_reconcile_and_amplify_success():
    ep = run_digital_episode(DEFAULT, 100)
    res = reconcile_and_amplify(ep, DEFAULT, target_len=610, rng_seed=200)
    assert res.success and res.decoder_converged
    assert np.array_equal(res.key_A, res.key_B)
    assert res.key_A.shape == (610,)
    assert res.syndrome_bits == 7504
    assert res.max_key_len == 610


def test_reconcile_and_amplify_with_no_syndrome_builds_no_code(monkeypatch):
    # a noiseless probing channel leaves Alice's folded view equal to b_s:
    # nothing is published or decoded, both sides hash the same bits
    bsc = BscParams(P_BA=0.0, P_EA=0.2, m_A=2000)
    plan = reconcile_plan(bsc)
    assert (plan.syndrome_bits, plan.max_key_len) == (0, 1155)
    monkeypatch.setattr(digital, "make_ldpc", None)
    res = reconcile_and_amplify(run_digital_episode(bsc, 0), bsc,
                                plan.max_key_len, 0)
    assert res.syndrome_bits == 0 and res.leak_bits == 0.0
    assert res.success and res.decoder_converged
    assert res.key_A.shape == (1155,)


def _count_hashes(monkeypatch):
    """Patch ``digital.toeplitz_hash`` with a wrapper that records the
    string each call hashes; return the list of those strings."""
    hashed = []
    real = digital.toeplitz_hash

    def counting(bits, out_len, seed):
        hashed.append(bits.copy())
        return real(bits, out_len, seed)

    monkeypatch.setattr(digital, "toeplitz_hash", counting)
    return hashed


@pytest.mark.parametrize("bsc, seed, target_len, rng_seed", [
    (DEFAULT, 100, 610, 200),
    (BscParams(P_BA=0.0, P_EA=0.2, m_A=2000), 0, 1155, 0),
], ids=["decoded", "no_syndrome"])
def test_agreeing_keys_hash_once(monkeypatch, bsc, seed, target_len,
                                 rng_seed):
    # a key is a function of its string alone, so when Alice recovers b_s
    # only Bob's string is hashed and her key is a copy of his
    ep = run_digital_episode(bsc, seed)
    hashed = _count_hashes(monkeypatch)
    res = reconcile_and_amplify(ep, bsc, target_len, rng_seed)
    assert res.success and res.decoder_converged
    assert len(hashed) == 1 and np.array_equal(hashed[0], ep.b_s)
    assert np.array_equal(res.key_A, res.key_B)
    assert not np.shares_memory(res.key_A, res.key_B)


def test_failed_reconciliation_hashes_alices_own_string(monkeypatch):
    # `simulate-digital --m_A 20000 --efficiency 1.2 --seed 3`: the decoder
    # stops short of b_s, so Alice's key is the hash of her corrected string
    bsc = BscParams(m_A=20000)
    plan = reconcile_plan(bsc, efficiency=1.2)
    ep = run_digital_episode(bsc, 3)
    hashed = _count_hashes(monkeypatch)
    res = reconcile_and_amplify(ep, bsc, plan.max_key_len, 3, efficiency=1.2)
    assert not res.success and not res.decoder_converged
    assert len(hashed) == 2
    code = make_ldpc(bsc.m_A, plan.syndrome_bits, subseed(3, "ldpc"))
    err, converged = decode_syndrome(
        code, syndrome_of(code, ep.bbar_AB) ^ syndrome_of(code, ep.b_s),
        plan.p_a_given_b)
    assert not converged
    corrected = ep.bbar_AB ^ err
    assert not np.array_equal(corrected, ep.b_s)
    hash_seed = subseed(3, "toeplitz")
    assert np.array_equal(res.key_A, toeplitz_hash(corrected, plan.max_key_len,
                                                   hash_seed))
    assert np.array_equal(res.key_B, toeplitz_hash(ep.b_s, plan.max_key_len,
                                                   hash_seed))


def test_reconcile_and_amplify_deterministic():
    ep = run_digital_episode(DEFAULT, 101)
    r1 = reconcile_and_amplify(ep, DEFAULT, target_len=64, rng_seed=7)
    r2 = reconcile_and_amplify(ep, DEFAULT, target_len=64, rng_seed=7)
    assert np.array_equal(r1.key_A, r2.key_A)
    r3 = reconcile_and_amplify(ep, DEFAULT, target_len=64, rng_seed=8)
    assert not np.array_equal(r1.key_A, r3.key_A)  # hash seed matters


def test_reconcile_rejects_overlong_key():
    ep = run_digital_episode(DEFAULT, 102)
    with pytest.raises(ParamError, match="610"):
        reconcile_and_amplify(ep, DEFAULT, target_len=611, rng_seed=0)


def test_reconcile_rejects_bad_target():
    ep = run_digital_episode(DEFAULT, 103)
    with pytest.raises(ParamError):
        reconcile_and_amplify(ep, DEFAULT, target_len=0, rng_seed=0)


@pytest.mark.parametrize("target_len", [2.5, 64.0, True, "64"])
def test_reconcile_rejects_a_target_that_is_not_an_integer(target_len):
    ep = run_digital_episode(DEFAULT, 103)
    with pytest.raises(ParamError, match="target_len must be an integer"):
        reconcile_and_amplify(ep, DEFAULT, target_len=target_len, rng_seed=0)


@pytest.mark.parametrize("cpus", [2, 3])
def test_reconcile_and_amplify_from_a_busy_pool_job(monkeypatch, cpus):
    # with every other pool thread held, the call runs on the last one: the
    # hash and decoder jobs it hands the pool are never started there, so
    # they must run on the calling pool thread instead of waiting
    ep = run_digital_episode(DEFAULT, 105)
    want = reconcile_and_amplify(ep, DEFAULT, target_len=610, rng_seed=9)
    monkeypatch.setattr(_workers, "usable_cpus", lambda: cpus)
    release = threading.Event()
    held = [_workers.pool().submit(release.wait, 60) for _ in range(cpus - 2)]
    try:
        job = _workers.pool().submit(reconcile_and_amplify, ep, DEFAULT, 610, 9)
        got = job.result(timeout=60)
    finally:
        release.set()
    assert all(h.result(timeout=60) for h in held)
    assert got.success and got.decoder_converged == want.decoder_converged
    assert np.array_equal(got.key_A, want.key_A)
    assert np.array_equal(got.key_B, want.key_B)


def test_reconcile_key_looks_balanced():
    # Toeplitz output should be roughly half ones
    ep = run_digital_episode(DEFAULT, 104)
    res = reconcile_and_amplify(ep, DEFAULT, target_len=610, rng_seed=42)
    ones = int(res.key_B.sum())
    assert 230 < ones < 380
