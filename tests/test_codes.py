"""Parity-check codes, syndrome decoding, hashing, bit serialization."""
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steeplab import (BscParams, LdpcCode, ParamError, decode_syndrome,
                      hexdump, make_ldpc, pack_bit_record,
                      reconcile_and_amplify, reconcile_plan,
                      run_digital_episode, syndrome_of, toeplitz_hash,
                      unpack_bit_record)
from steeplab import _workers
from steeplab.codes import _check_ranges, _smooth_length
from steeplab.seeds import stream, subseed

bit_arrays = st.lists(st.integers(0, 1), min_size=0, max_size=200).map(
    lambda v: np.array(v, dtype=np.uint8))


def test_ldpc_structure():
    code = make_ldpc(1200, 900, rng_seed=0)
    assert code.n_bits == 1200 and code.n_checks == 900
    assert code.var.shape == code.chk.shape == (3 * 1200,)
    # column weight exactly 3
    assert np.all(np.bincount(code.var, minlength=1200) == 3)
    # no duplicate (check, var) edges anywhere
    keys = code.chk.astype(np.int64) * 1200 + code.var
    assert len(np.unique(keys)) == len(keys)


def test_ldpc_deterministic():
    a = make_ldpc(600, 450, rng_seed=5)
    b = make_ldpc(600, 450, rng_seed=5)
    assert np.array_equal(a.chk, b.chk) and np.array_equal(a.var, b.var)
    c = make_ldpc(600, 450, rng_seed=6)
    assert not (np.array_equal(a.chk, c.chk) and np.array_equal(a.var, c.var))


def test_syndrome_linear():
    code = make_ldpc(400, 300, rng_seed=1)
    rng = stream(0, "bits")
    u = rng.integers(0, 2, 400, dtype=np.uint8)
    v = rng.integers(0, 2, 400, dtype=np.uint8)
    lhs = syndrome_of(code, u ^ v)
    rhs = syndrome_of(code, u) ^ syndrome_of(code, v)
    assert np.array_equal(lhs, rhs)
    assert np.array_equal(syndrome_of(code, np.zeros(400, np.uint8)),
                          np.zeros(300, np.uint8))


def test_decode_recovers_sparse_error():
    code = make_ldpc(2000, 1500, rng_seed=2)
    e = np.zeros(2000, dtype=np.uint8)
    e[stream(1, "err").choice(2000, size=200, replace=False)] = 1  # 10%
    e_hat, ok = decode_syndrome(code, syndrome_of(code, e), p=0.1)
    assert ok
    assert np.array_equal(e_hat, e)


def test_decode_zero_syndrome_is_zero_error():
    code = make_ldpc(500, 380, rng_seed=3)
    e_hat, ok = decode_syndrome(code, np.zeros(380, np.uint8), p=0.1)
    assert ok and not e_hat.any()


def test_decode_reports_failure_when_overloaded():
    # 30% errors on a rate-0.25 code exceeds anything it can fix
    code = make_ldpc(1000, 750, rng_seed=4)
    e = np.zeros(1000, dtype=np.uint8)
    e[stream(2, "err").choice(1000, size=300, replace=False)] = 1
    _, ok = decode_syndrome(code, syndrome_of(code, e), p=0.3, max_iter=30)
    assert not ok


def _reference_make_ldpc(n_bits, n_checks, rng_seed, col_weight=3):
    """The comparison-sort build: np.sort duplicate test, stable argsort."""
    rng = stream(rng_seed, "code")
    base, extra = divmod(col_weight * n_bits, n_checks)
    row_w = np.full(n_checks, base, dtype=np.int64)
    row_w[:extra] += 1
    sockets = np.repeat(np.arange(n_checks, dtype=np.int64), row_w)
    rng.shuffle(sockets)
    cols = sockets.reshape(n_bits, col_weight)
    for _ in range(200):
        srt = np.sort(cols, axis=1)
        bad = np.flatnonzero(np.any(srt[:, 1:] == srt[:, :-1], axis=1))
        if bad.size == 0:
            break
        for j in bad:
            row = cols[j]
            seen = set()
            for slot in range(col_weight):
                if int(row[slot]) in seen:
                    k = int(rng.integers(n_bits))
                    other = int(rng.integers(col_weight))
                    row[slot], cols[k, other] = cols[k, other], row[slot]
                else:
                    seen.add(int(row[slot]))
    var = np.repeat(np.arange(n_bits, dtype=np.int64), col_weight)
    chk = cols.reshape(-1)
    order = np.argsort(chk, kind="stable")
    chk, var = chk[order], var[order]
    counts = np.bincount(chk, minlength=n_checks)
    return chk, var, np.concatenate(([0], np.cumsum(counts)))[:-1]


@pytest.mark.parametrize("n_bits, n_checks, rng_seed, col_weight", [
    (10, 3, 0, 3), (40, 39, 1, 3), (1200, 900, 0, 3), (600, 450, 5, 3),
    (500, 20, 2, 5), (400, 30, 3, 4),
    # sort keys of exactly 32 bits (2^16 bits, 2^16 - 1 checks) and of 33,
    # which take 64; check indices of 16 bits and of 17, around 2^16 checks
    (65_536, 65_535, 9, 3), (65_537, 65_536, 9, 3),
    (90_000, 65_535, 7, 3), (90_000, 65_536, 7, 3), (90_000, 65_537, 7, 3),
    (100_000, 70_000, 8, 3),
])
def test_make_ldpc_matches_stable_argsort(n_bits, n_checks, rng_seed,
                                          col_weight):
    code = make_ldpc(n_bits, n_checks, rng_seed, col_weight)
    chk, var, ptr = _reference_make_ldpc(n_bits, n_checks, rng_seed, col_weight)
    for got, want in ((code.chk, chk), (code.var, var), (code.ptr, ptr)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_ldpc_syndrome_pinned_past_2_16_checks():
    # the code and secret of `simulate-digital --m_A 100000 --seed 11`
    # (75,040 checks, so 64-bit sort keys); the transcript pin holds
    # no syndrome, so only this pin sees a wrong code at that size
    bsc = BscParams(m_A=100_000)
    plan = reconcile_plan(bsc)
    assert plan.syndrome_bits == 75_040
    code = make_ldpc(bsc.m_A, plan.syndrome_bits, subseed(11, "ldpc"))
    syn = syndrome_of(code, run_digital_episode(bsc, 11).b_s)
    assert hashlib.sha256(syn.tobytes()).hexdigest() == (
        "ba30a061552e002903aa87337903439bc5828e93ed92554c09c4df70256385a8")


def test_syndrome_is_exact_parity():
    code = make_ldpc(300, 200, rng_seed=6)
    H = np.zeros((200, 300), dtype=np.int64)
    H[code.chk, code.var] = 1
    for seed in range(5):
        bits = stream(seed, "par").integers(0, 2, 300, dtype=np.uint8)
        syn = syndrome_of(code, bits)
        assert syn.dtype == np.uint8
        assert np.array_equal(syn, (H @ bits) % 2)
    assert np.array_equal(syndrome_of(code, np.ones(300, dtype=bool)),
                          syndrome_of(code, np.ones(300, np.uint8)))


@pytest.mark.parametrize("bad", [[0, 2, 1], [1, -1, 0], [0.5, 0, 1]])
def test_syndrome_of_rejects_non_binary(bad):
    code = make_ldpc(10, 3, rng_seed=0)
    bits = np.zeros(10, dtype=np.asarray(bad).dtype)
    bits[:3] = bad
    with pytest.raises(ParamError, match="0 and 1"):
        syndrome_of(code, bits)


@pytest.mark.parametrize("shape", [(21,), (19,), (2, 10), (20, 1), ()])
def test_syndrome_of_rejects_bits_of_another_shape(shape):
    code = make_ldpc(20, 8, rng_seed=1)
    with pytest.raises(ParamError, match="20 bits in one dimension"):
        syndrome_of(code, np.zeros(shape, dtype=np.uint8))


@pytest.mark.parametrize("bad", [2, -1])
def test_decode_rejects_non_binary_syndrome(bad):
    code = make_ldpc(40, 30, rng_seed=0)
    syndrome = np.zeros(30, dtype=np.int64)
    syndrome[3] = bad
    with pytest.raises(ParamError, match="0 and 1"):
        decode_syndrome(code, syndrome, p=0.1)


def _reference_decode(code, syndrome, p, max_iter=100):
    """Sum-product with fresh temporaries and a float-bincount syndrome."""
    def syn_of(bits):
        sums = np.bincount(code.chk, weights=bits[code.var].astype(np.float64),
                           minlength=code.n_checks)
        return (sums.astype(np.int64) & 1).astype(np.uint8)
    llr0 = float(np.log((1.0 - p) / p))
    sgn_syn = (1.0 - 2.0 * syndrome.astype(np.float64))[code.chk]
    m_v2c = np.full(code.var.shape[0], llr0)
    e_hat = np.zeros(code.n_bits, dtype=np.uint8)
    for _ in range(max_iter):
        t = np.tanh(np.clip(m_v2c, -30.0, 30.0) / 2.0)
        sign = np.where(t >= 0.0, 1.0, -1.0)
        t = sign * np.clip(np.abs(t), 1e-12, 1.0 - 1e-15)
        prod = np.multiply.reduceat(t, code.ptr)
        ext = np.clip(prod[code.chk] / t, -(1.0 - 1e-15), 1.0 - 1e-15)
        m_c2v = 2.0 * np.arctanh(ext) * sgn_syn
        post = llr0 + np.bincount(code.var, weights=m_c2v,
                                  minlength=code.n_bits)
        m_v2c = post[code.var] - m_c2v
        e_hat = (post < 0.0).astype(np.uint8)
        if np.array_equal(syn_of(e_hat), syndrome):
            return e_hat, True
    return e_hat, False


_TANH_8 = np.tanh(np.float32(8.0))   # 1 - 4 * 2^-24
_BELOW_1 = np.float32(1.0 - 2.0 ** -24)   # the largest float32 below 1


def _reference_decode32(code, syndrome, p, max_iter=100):
    """The float32-message rule with fresh temporaries: half-scale messages
    clipped to +-8, |tanh| clamped to [1e-12, tanh(8)], every extrinsic
    product clamped below 1 in magnitude, float64 posteriors."""
    def syn_of(bits):
        sums = np.bincount(code.chk, weights=bits[code.var].astype(np.float64),
                           minlength=code.n_checks)
        return (sums.astype(np.int64) & 1).astype(np.uint8)
    half_llr0 = 0.5 * float(np.log((1.0 - p) / p))
    sgn_syn = 1.0 - 2.0 * syndrome.astype(np.float32)
    post32 = np.full(code.n_bits, half_llr0, dtype=np.float32)
    m_c2v = np.zeros(code.var.shape[0], dtype=np.float32)
    e_hat = np.zeros(code.n_bits, dtype=np.uint8)
    for _ in range(max_iter):
        t = np.tanh(np.clip(post32[code.var] - m_c2v, -8.0, 8.0))
        sign = np.where(t >= 0.0, np.float32(1.0), np.float32(-1.0))
        t = sign * np.clip(np.abs(t), np.float32(1e-12), _TANH_8)
        prod = np.multiply.reduceat(t, code.ptr) * sgn_syn
        ext = np.clip(prod[code.chk] / t, -_BELOW_1, _BELOW_1)
        m_c2v = np.arctanh(ext)
        post = half_llr0 + np.bincount(code.var,
                                       weights=m_c2v.astype(np.float64),
                                       minlength=code.n_bits)
        post32 = post.astype(np.float32)
        e_hat = (post < 0.0).astype(np.uint8)
        if np.array_equal(syn_of(e_hat), syndrome):
            return e_hat, True
    return e_hat, False


_CPU_COUNTS = (1, 2, 3)   # the decoder cuts its degree runs into about this
                          # many check ranges


@pytest.mark.parametrize("n_bits, n_checks, seed", [
    (2000, 1500, 2), (1000, 750, 4), (20_000, 15_000, 9), (500, 120, 1),
])
def test_decode_matches_fresh_temporaries(n_bits, n_checks, seed, monkeypatch):
    code = make_ldpc(n_bits, n_checks, rng_seed=seed)
    rng = stream(seed, "flips")
    results = set()
    for p, max_iter in ((0.02, 100), (0.1, 100), (0.2, 30), (0.3, 10)):
        e = (rng.random(n_bits) < p).astype(np.uint8)
        syn = syndrome_of(code, e)
        want, want_ok = _reference_decode(code, syn, p, max_iter)
        for cpus in _CPU_COUNTS:
            monkeypatch.setattr(_workers, "usable_cpus", lambda: cpus)
            got, ok = decode_syndrome(code, syn, p, max_iter)
            assert ok == want_ok and got.dtype == want.dtype, cpus
            assert np.array_equal(got, want), cpus
        results.add(want_ok)
    assert results == {True, False}


def test_float32_tanh_stays_below_one_up_to_the_clip():
    # the decoder's proof that no arctanh argument reaches +-1 rests on
    # |tanh x| <= tanh(8) <= 1 - 3 * 2^-24 for every float32 |x| <= 8
    # (numpy gives 1 - 4 * 2^-24); this checks every float32 from 0.5 to
    # 8, below which |tanh x| < 0.47
    assert _TANH_8 <= np.float32(1.0 - 3.0 * 2.0 ** -24)
    lo, hi = (int(np.float32(v).view(np.uint32)) for v in (0.5, 8.0))
    for start in range(lo, hi + 1, 1 << 23):
        stop = min(start + (1 << 23), hi + 1)
        x = np.arange(start, stop, dtype=np.uint32).view(np.float32)
        assert np.tanh(x).max() <= _TANH_8
        assert np.tanh(-x).min() >= -_TANH_8
    assert np.tanh(np.float32(0.5)) < 0.47


# frames decoded to the true error pattern by ``decode_syndrome`` at the
# protocol's default point (P_A|B = 0.1), per (n, efficiency), over seeds
# 0..19 at 2e4 bits and 0..5 at 1e5; the float64 reference decodes none
# of the frames the decoder misses.  A decoder change that moves a count
# (a layered schedule, an irregular code) updates this record
_FRAME_SEEDS = {20_000: 20, 100_000: 6}
_FRAMES_DECODED = {
    (20_000, 1.2): 17, (20_000, 1.25): 20, (20_000, 1.3): 20,
    (20_000, 1.6): 20,
    (100_000, 1.2): 5, (100_000, 1.25): 6, (100_000, 1.3): 6,
    (100_000, 1.6): 6,
}


@pytest.mark.slow
def test_frame_error_table_loses_no_frame_to_float32():
    # where the decoder misses the true pattern, the float64 reference
    # must miss it too
    decoded = {}
    for (n, efficiency) in _FRAMES_DECODED:
        bsc = BscParams(m_A=n)
        plan = reconcile_plan(bsc, efficiency=efficiency)
        decoded[n, efficiency] = 0
        for seed in range(_FRAME_SEEDS[n]):
            ep = run_digital_episode(bsc, seed)
            code = make_ldpc(n, plan.syndrome_bits, subseed(seed, "ldpc"))
            syn = syndrome_of(code, ep.b_s) ^ syndrome_of(code, ep.bbar_AB)
            err = ep.bbar_AB ^ ep.b_s
            got, ok = decode_syndrome(code, syn, plan.p_a_given_b)
            if ok and np.array_equal(got, err):
                decoded[n, efficiency] += 1
                continue
            want, want_ok = _reference_decode(code, syn, plan.p_a_given_b)
            assert not (want_ok and np.array_equal(want, err)), \
                (n, efficiency, seed)
    assert decoded == _FRAMES_DECODED


def _hand_built_code(degrees, n_bits, seed):
    """An LdpcCode with the given check degrees, in that order, and random
    distinct variables per check."""
    rng = stream(seed, "hand")
    degrees = np.asarray(degrees, dtype=np.int64)
    var = np.concatenate([rng.permutation(n_bits)[:d] for d in degrees])
    return LdpcCode(n_bits=n_bits, n_checks=degrees.size, var=var,
                    ptr=np.concatenate(([0], np.cumsum(degrees)[:-1])))


# one and two degree runs as make_ldpc builds them; every check in every
# column; non-monotone runs of degrees 2, 3, 1, 3 with a check of degree 0;
# one run of degree 2; one check of degree 2,000 between runs of degree 3
_RUN_LAYOUTS = {
    "one-run": lambda: make_ldpc(600, 450, rng_seed=3),
    "two-run": lambda: make_ldpc(2000, 1499, rng_seed=1),
    "all-checks": lambda: make_ldpc(40, 3, rng_seed=0),
    "hand-built": lambda: _hand_built_code(
        [2] * 40 + [3] * 30 + [1] * 10 + [0] + [3] * 20, 120, seed=5),
    "degree-2": lambda: _hand_built_code([2] * 300, 200, seed=7),
    "degree-2000": lambda: _hand_built_code(
        [3] * 400 + [2000] + [3] * 400, 2400, seed=8),
}


def test_degree_runs_of_each_layout():
    runs = {name: layout()._degree_runs
            for name, layout in _RUN_LAYOUTS.items()}
    assert runs["one-run"] == ((0, 0, 450, 4),)
    assert runs["all-checks"] == ((0, 0, 3, 40),)
    assert runs["hand-built"] == (
        (0, 0, 40, 2), (80, 40, 30, 3), (170, 70, 10, 1), (180, 81, 20, 3))
    # 6000 edges on 1499 checks: 4 checks of degree 5, then degree 4
    assert runs["two-run"] == ((0, 0, 4, 5), (20, 4, 1495, 4))
    assert runs["degree-2"] == ((0, 0, 300, 2),)
    assert runs["degree-2000"] == (
        (0, 0, 400, 3), (1200, 400, 1, 2000), (3200, 401, 400, 3))


def test_degree_runs_are_found_once_per_code():
    # a reconciliation takes two syndromes and one decode of one code
    code = make_ldpc(600, 450, rng_seed=3)
    assert "_degree_runs" not in vars(code)
    bits = np.zeros(600, dtype=np.uint8)
    syndrome_of(code, bits)
    runs = vars(code)["_degree_runs"]
    syndrome_of(code, bits)
    decode_syndrome(code, syndrome_of(code, bits), 0.1)
    assert code._degree_runs is runs


@pytest.mark.parametrize("layout", sorted(_RUN_LAYOUTS))
def test_syndrome_of_each_run_layout_is_dense_parity(layout):
    code = _RUN_LAYOUTS[layout]()
    H = np.zeros((code.n_checks, code.n_bits), dtype=np.int64)
    H[code.chk, code.var] = 1
    for seed in range(5):
        bits = stream(seed, "par").integers(0, 2, code.n_bits, dtype=np.uint8)
        assert np.array_equal(syndrome_of(code, bits), (H @ bits) % 2)


@pytest.mark.parametrize("layout", sorted(_RUN_LAYOUTS))
def test_decode_of_each_run_layout_matches_every_iteration(layout, monkeypatch):
    # stopping after 1..8 iterations exposes each iteration's hard decision;
    # the check-to-variable messages, taken where both decoders pass them
    # to bincount, must also agree bit for bit, so the float order holds
    # however many check ranges the runs are split into.  The float32
    # reference applies every clamp, so this also shows that the clamps
    # the decoder leaves out never bind
    code = _RUN_LAYOUTS[layout]()
    messages = []
    bincount = np.bincount

    def recording(x, weights=None, minlength=0):
        if x is code.var:
            messages.append(weights.copy())
        return bincount(x, weights=weights, minlength=minlength)

    monkeypatch.setattr(np, "bincount", recording)
    rng = stream(11, "flips")
    for p in (0.05, 0.2):
        e = (rng.random(code.n_bits) < p).astype(np.uint8)
        syn = syndrome_of(code, e)
        for max_iter in range(1, 9):
            want, want_ok = _reference_decode32(code, syn, p, max_iter)
            want_messages = [m.tobytes() for m in messages]
            messages.clear()
            for cpus in _CPU_COUNTS:
                monkeypatch.setattr(_workers, "usable_cpus", lambda: cpus)
                got, ok = decode_syndrome(code, syn, p, max_iter)
                assert ok == want_ok, (max_iter, cpus)
                assert np.array_equal(got, want), (max_iter, cpus)
                assert [m.tobytes() for m in messages] == want_messages, \
                    (max_iter, cpus)
                messages.clear()


def test_check_ranges_cover_each_run_in_order():
    # one run of 3 checks cut 2, 3 or 4 ways; a run of fewer checks than
    # parts leaves some parts empty, and those are dropped
    runs = _RUN_LAYOUTS["all-checks"]()._degree_runs
    assert _check_ranges(runs, 2) == [(slice(0, 40), slice(0, 1), 40),
                                      (slice(40, 120), slice(1, 3), 40)]
    assert [r[1] for r in _check_ranges(runs, 3)] == [
        slice(0, 1), slice(1, 2), slice(2, 3)]
    assert [r[1] for r in _check_ranges(runs, 4)] == [
        slice(0, 1), slice(1, 2), slice(2, 3)]
    # the code of m_A 5e4: 37,440 checks of degree 4, then 80 of degree 3,
    # which hold 0.16% of the edges and get one range of their own
    runs = make_ldpc(50_000, 37_520, rng_seed=1)._degree_runs
    assert runs == ((0, 0, 37_440, 4), (149_760, 37_440, 80, 3))
    assert _check_ranges(runs, 2) == [
        (slice(0, 74_880), slice(0, 18_720), 4),
        (slice(74_880, 149_760), slice(18_720, 37_440), 4),
        (slice(149_760, 150_000), slice(37_440, 37_520), 3)]
    assert [r[1] for r in _check_ranges(runs, 3)] == [
        slice(0, 12_480), slice(12_480, 24_960), slice(24_960, 37_440),
        slice(37_440, 37_520)]
    for layout in sorted(_RUN_LAYOUTS):
        runs = _RUN_LAYOUTS[layout]()._degree_runs
        for parts in (1, 2, 3, 16):
            ranges = _check_ranges(runs, parts)
            edges = [i for r in ranges for i in range(r[0].start, r[0].stop)]
            checks = [c for r in ranges for c in range(r[1].start, r[1].stop)]
            assert edges == [i for e0, _, k, d in runs
                             for i in range(e0, e0 + k * d)]
            assert checks == [c for _, c0, k, _ in runs
                              for c in range(c0, c0 + k)]
            assert all((r[0].stop - r[0].start) == r[2] * (r[1].stop - r[1].start)
                       for r in ranges)
            # each run gets at most its rounded share of parts, or one
            assert len(ranges) < parts + len(runs)


def test_decode_never_meets_a_one_on_a_check_of_degree_0(monkeypatch):
    # the hand-built code's check 80 holds no edge, so its parity is 0
    # whatever the decoder decides; a syndrome bit 1 there must keep the
    # decoder from reporting convergence at every split
    code = _RUN_LAYOUTS["hand-built"]()
    assert code.ptr[80] == code.ptr[81]
    syn = np.zeros(code.n_checks, dtype=np.uint8)
    syn[80] = 1
    want, want_ok = _reference_decode(code, syn, 0.1, 5)
    assert not want_ok
    for cpus in _CPU_COUNTS:
        monkeypatch.setattr(_workers, "usable_cpus", lambda: cpus)
        got, ok = decode_syndrome(code, syn, 0.1, 5)
        assert not ok and np.array_equal(got, want), cpus


@pytest.mark.parametrize("max_iter", [0, -1])
def test_decode_rejects_no_iterations(max_iter):
    code = make_ldpc(40, 30, rng_seed=0)
    with pytest.raises(ParamError, match="max_iter"):
        decode_syndrome(code, np.zeros(30, dtype=np.uint8), 0.1, max_iter)


@pytest.mark.parametrize("max_iter", [2.5, 3.0, True, None])
def test_decode_rejects_a_max_iter_that_is_not_an_integer(max_iter):
    code = make_ldpc(40, 30, rng_seed=0)
    with pytest.raises(ParamError, match="max_iter must be an integer"):
        decode_syndrome(code, np.zeros(30, dtype=np.uint8), 0.1, max_iter)


def test_make_ldpc_builds_every_three_check_code():
    # with n_checks equal to the column weight every column holds all three
    # checks; random socket swaps rarely reach that, so it is built directly
    for n_bits in range(16, 119, 3):
        for seed in range(3):
            code = make_ldpc(n_bits, 3, rng_seed=seed)
            assert np.array_equal(code.chk, np.repeat(np.arange(3), n_bits))
            assert np.array_equal(code.var, np.tile(np.arange(n_bits), 3))
            assert np.array_equal(code.ptr, [0, n_bits, 2 * n_bits])
    bsc = BscParams(P_BA=0.01, m_A=16)
    plan = reconcile_plan(bsc)
    assert (plan.syndrome_bits, plan.max_key_len) == (3, 6)
    for seed in range(3):
        result = reconcile_and_amplify(run_digital_episode(bsc, seed), bsc,
                                       plan.max_key_len, seed)
        assert result.syndrome_bits == 3 and result.key_A.size == 6


def test_make_ldpc_rejects_bad_shapes():
    with pytest.raises(ParamError):
        make_ldpc(10, 11, rng_seed=0)
    with pytest.raises(ParamError):
        make_ldpc(0, 0, rng_seed=0)


@pytest.mark.parametrize("col_weight", [0, -1, 4])
def test_make_ldpc_rejects_column_weight_out_of_range(col_weight):
    with pytest.raises(ParamError, match="col_weight"):
        make_ldpc(10, 3, rng_seed=0, col_weight=col_weight)


def test_make_ldpc_checks_its_seed_when_every_column_holds_every_check():
    # col_weight == n_checks builds the code without a stream
    with pytest.raises(ParamError, match="seed must be an integer"):
        make_ldpc(10, 3, 2.5)


@pytest.mark.parametrize("args", [
    (20.0, 8, 1, 3), (20, 8.0, 1, 3), (20, 8, 1, 3.0), (20, True, 1, 3),
    (20, 8, 1, True), (np.float64(20), 8, 1, 3),
], ids=["n_bits-float", "n_checks-float", "col_weight-float",
        "n_checks-bool", "col_weight-bool", "n_bits-np-float"])
def test_make_ldpc_rejects_sizes_that_are_not_integers(args):
    n_bits, n_checks, rng_seed, col_weight = args
    with pytest.raises(ParamError, match="must be an integer"):
        make_ldpc(n_bits, n_checks, rng_seed, col_weight)


def test_make_ldpc_takes_numpy_integer_sizes():
    code = make_ldpc(np.int64(20), np.int32(8), 1, np.uint8(3))
    ref = make_ldpc(20, 8, 1, 3)
    assert np.array_equal(code.var, ref.var) and code.n_checks == 8


@pytest.mark.parametrize("n_bits, n_checks, col_weight", [
    (10, 3, 3), (1333, 1000, 3), (7, 5, 3), (14, 7, 5),
    # past 2^16 checks, where make_ldpc sorts by a second digit
    (260_000, 200_000, 3),
])
def test_chk_is_each_check_repeated_by_its_degree(n_bits, n_checks,
                                                  col_weight):
    code = make_ldpc(n_bits, n_checks, 1, col_weight)
    base, extra = divmod(col_weight * n_bits, n_checks)
    row_w = np.full(n_checks, base)
    row_w[:extra] += 1
    assert code.chk.dtype == np.int64
    assert np.array_equal(code.chk, np.repeat(np.arange(n_checks), row_w))


def _six_bit_code(var, ptr=(0, 3)):
    """A hand-built code over 6 bits, one check per entry of ``ptr``."""
    return LdpcCode(n_bits=6, n_checks=len(ptr), var=np.asarray(var),
                    ptr=np.asarray(ptr))


# unchecked, a variable of 6 made decode_syndrome return a 7-bit pattern
# and report convergence and made syndrome_of raise IndexError; a variable
# of -1 wrapped to bit 5 in syndrome_of and made np.bincount raise
@pytest.mark.parametrize("bad, use", [
    (6, lambda code: decode_syndrome(code, np.zeros(2, np.uint8), 0.1)),
    (6, lambda code: syndrome_of(code, np.ones(6, np.uint8))),
    (-1, lambda code: syndrome_of(code, np.ones(6, np.uint8))),
    (-1, lambda code: decode_syndrome(code, np.zeros(2, np.uint8), 0.1)),
], ids=["6-decode", "6-syndrome", "-1-syndrome", "-1-decode"])
def test_a_code_with_a_variable_outside_its_bits_is_rejected(bad, use):
    with pytest.raises(ParamError, match=r"var entries must lie in \[0, 6\)"):
        use(_six_bit_code([0, 1, bad, 2, 3, 4]))


@pytest.mark.parametrize("var, ptr, match", [
    ([[0, 1], [2, 3]], (0, 3), "var must be a 1-D integer array"),
    ([0.0, 1.0, 2.0], (0, 1), "var must be a 1-D integer array"),
    ([True, False], (0, 1), "var must be a 1-D integer array"),
    (np.arange(4, dtype=np.uint64), (0, 2), "var must be a 1-D integer array"),
    ([0, 1, 2, 3], (0.0, 2.0), "ptr must be a 1-D integer array"),
    ([0, 1, 2, 3], [[0, 2]], "ptr must be a 1-D integer array"),
    ([0, 1, 2, 3], (1, 2), "ptr must hold 2 non-decreasing"),
    ([0, 1, 2, 3], (0, 3, 2), "ptr must hold 3 non-decreasing"),
    ([0, 1, 2, 3], (0, 5), "at most 4"),
])
def test_a_code_whose_edges_are_not_check_ranges_is_rejected(var, ptr, match):
    with pytest.raises(ParamError, match=match):
        _six_bit_code(var, ptr)


def test_a_code_needs_a_check_and_a_bit():
    with pytest.raises(ParamError, match="n_checks must be >= 1"):
        LdpcCode(n_bits=6, n_checks=0, var=np.arange(0), ptr=np.arange(0))
    with pytest.raises(ParamError, match="n_bits must be >= 1"):
        LdpcCode(n_bits=0, n_checks=1, var=np.arange(0), ptr=np.zeros(1, int))
    with pytest.raises(ParamError, match="n_checks must be an integer"):
        LdpcCode(n_bits=6, n_checks=1.0, var=np.arange(0),
                 ptr=np.zeros(1, int))


def test_checks_of_degree_0_still_build():
    # a last check of degree 0 starts at len(var); a code may hold no edge
    code = _six_bit_code([0, 1, 2, 3], (0, 4))
    assert np.array_equal(code.chk, [0, 0, 0, 0])
    assert np.array_equal(syndrome_of(code, np.ones(6, np.uint8)), [0, 0])
    empty = _six_bit_code(np.arange(0), (0, 0, 0))
    assert empty.chk.size == 0
    assert np.array_equal(syndrome_of(empty, np.ones(6, np.uint8)), [0, 0, 0])


# ---------------------------------------------------------------- hashing

def test_toeplitz_hash_shape_and_determinism():
    bits = stream(0, "x").integers(0, 2, 500, dtype=np.uint8)
    h1 = toeplitz_hash(bits, 64, hash_seed=9)
    h2 = toeplitz_hash(bits, 64, hash_seed=9)
    assert h1.shape == (64,) and h1.dtype == np.uint8
    assert np.array_equal(h1, h2)
    assert not np.array_equal(h1, toeplitz_hash(bits, 64, hash_seed=10))


def test_toeplitz_hash_is_linear():
    # T(x ^ y) = T(x) ^ T(y) over GF(2)
    rng = stream(3, "xy")
    x = rng.integers(0, 2, 300, dtype=np.uint8)
    y = rng.integers(0, 2, 300, dtype=np.uint8)
    t = lambda v: toeplitz_hash(v, 48, hash_seed=1)
    assert np.array_equal(t(x ^ y), t(x) ^ t(y))


def _dense_toeplitz_hash(bits, out_len, hash_seed):
    """The definition: T[i, j] = seed_bits[i - j + n - 1], key = T bits mod 2."""
    n = bits.shape[0]
    seed_bits = stream(hash_seed, "hash").integers(0, 2, n + out_len - 1,
                                                   dtype=np.uint8)
    i, j = np.indices((out_len, n), dtype=np.int32)
    T = seed_bits[i - j + n - 1]
    return ((T.astype(np.int64) @ bits.astype(np.int64)) % 2).astype(np.uint8)


@pytest.mark.parametrize("n, out_len", [
    (1, 1), (2, 1), (7, 7), (64, 64), (300, 48),
    # n and n + out_len - 1 just below, at and above a power of two
    (4095, 1), (4096, 1), (4097, 1), (2048, 2048), (2049, 2048),
    (4000, 96), (4000, 97), (4000, 98), (4097, 2049),
    # n + out_len - 1 just below, at and above the 5-smooth 3000 and 6075
    (2950, 50), (2950, 51), (2950, 52), (6000, 75), (6000, 76), (6000, 77),
])
def test_toeplitz_hash_matches_definition(n, out_len):
    rng = stream(n * 7919 + out_len, "ref")
    for bits in (np.zeros(n, np.uint8), np.ones(n, np.uint8),
                 rng.integers(0, 2, n, dtype=np.uint8)):
        for hash_seed in (0, 1, 12345):
            assert np.array_equal(toeplitz_hash(bits, out_len, hash_seed),
                                  _dense_toeplitz_hash(bits, out_len, hash_seed))


def test_smooth_length_is_the_next_5_smooth_integer():
    def smooth(k):
        for q in (2, 3, 5):
            while k % q == 0:
                k //= q
        return k == 1
    want = [next(m for m in range(n, 2 * n + 1) if smooth(m))
            for n in range(1, 5000)]
    assert [_smooth_length(n) for n in range(1, 5000)] == want
    assert _smooth_length(1_061_081) == 1_062_882   # 2 * 3^12, at m_A 10^6


def test_toeplitz_hash_scales_in_linear_memory():
    # the dense product at this size would take about 19 GB
    bits = stream(4, "big").integers(0, 2, 200_000, dtype=np.uint8)
    tracemalloc.start()
    try:
        key = toeplitz_hash(bits, 12_000, hash_seed=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert key.shape == (12_000,)
    assert peak < 64 * 2**20
    # spot-check rows against the definition
    n = bits.shape[0]
    seed_bits = stream(8, "hash").integers(0, 2, n + 12_000 - 1, dtype=np.uint8)
    for i in (0, 1, 5_999, 11_999):
        row = seed_bits[i:i + n][::-1].astype(np.int64)
        assert key[i] == int(row @ bits) % 2


def test_toeplitz_hash_guard_rejects_inexact_product(monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.3)
    with pytest.raises(FloatingPointError, match="not exact"):
        toeplitz_hash(np.ones(100, np.uint8), 10, hash_seed=0)


@pytest.mark.parametrize("shape", [(2, 6), (12, 1), ()])
def test_toeplitz_hash_rejects_bits_that_are_not_1d(shape):
    with pytest.raises(ParamError, match="1-D"):
        toeplitz_hash(np.ones(shape, dtype=np.uint8), 1, hash_seed=0)


@pytest.mark.parametrize("out_len", [2.0, 2.5, True, False, "2", None])
def test_toeplitz_hash_rejects_an_out_len_that_is_not_an_integer(out_len):
    with pytest.raises(ParamError, match="out_len must be an integer"):
        toeplitz_hash(np.ones(16, dtype=np.uint8), out_len, hash_seed=0)


def test_toeplitz_hash_checks_its_seed_before_an_empty_key():
    # out_len 0 keys no stream, yet a seed that is not an integer is an error
    with pytest.raises(ParamError, match="seed must be an integer"):
        toeplitz_hash(np.ones(8, np.uint8), 0, 2.5)


def test_toeplitz_hash_takes_a_numpy_integer_length():
    bits = stream(0, "x").integers(0, 2, 100, dtype=np.uint8)
    assert np.array_equal(toeplitz_hash(bits, np.int64(12), hash_seed=3),
                          toeplitz_hash(bits, 12, hash_seed=3))


def test_toeplitz_hash_rejects_expansion():
    bits = np.ones(16, dtype=np.uint8)
    with pytest.raises(ParamError):
        toeplitz_hash(bits, 17, hash_seed=0)


@pytest.mark.parametrize("bad", [2, -1, 255])
def test_toeplitz_hash_rejects_non_binary(bad):
    bits = np.zeros(16, dtype=np.int64)
    bits[5] = bad
    with pytest.raises(ParamError, match="0 and 1"):
        toeplitz_hash(bits, 4, hash_seed=0)


def test_toeplitz_hash_mixes_single_flip():
    bits = np.zeros(400, dtype=np.uint8)
    flipped = bits.copy()
    flipped[123] = 1
    a = toeplitz_hash(bits, 100, hash_seed=5)
    b = toeplitz_hash(flipped, 100, hash_seed=5)
    assert 20 < int(np.sum(a ^ b)) < 80  # a column of random bits


# ---------------------------------------------------------------- records

@given(bits=bit_arrays)
def test_bit_record_round_trip(bits):
    blob = pack_bit_record(bits)
    back, used = unpack_bit_record(blob)
    assert used == len(blob)
    assert np.array_equal(back, bits)


def test_bit_record_none():
    blob = pack_bit_record(None)
    back, used = unpack_bit_record(blob)
    assert back is None and used == len(blob)


def test_bit_record_concatenation():
    a = np.array([1, 0, 1, 1], dtype=np.uint8)
    b = np.array([0, 0, 1], dtype=np.uint8)
    blob = pack_bit_record(a) + pack_bit_record(None) + pack_bit_record(b)
    x, off = unpack_bit_record(blob)
    y, off = unpack_bit_record(blob, off)
    z, off = unpack_bit_record(blob, off)
    assert np.array_equal(x, a) and y is None and np.array_equal(z, b)
    assert off == len(blob)


@pytest.mark.parametrize("bad", [[1, 2, 0], [0, -1], [3]])
def test_bit_record_rejects_non_binary(bad):
    with pytest.raises(ParamError, match="0 and 1"):
        pack_bit_record(np.array(bad))


def test_bit_record_truncation_errors():
    blob = pack_bit_record(np.ones(20, dtype=np.uint8))
    with pytest.raises(ParamError):
        unpack_bit_record(blob[:-1])
    with pytest.raises(ParamError):
        unpack_bit_record(b"")


@pytest.mark.parametrize("offset", [-1, True, 1.0])
def test_bit_record_rejects_a_bad_offset(offset):
    with pytest.raises(ParamError, match="offset must be"):
        unpack_bit_record(b"\x01\x00", offset)


def test_hexdump_format():
    text = hexdump(bytes(range(40)), width=16)
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("000102")
