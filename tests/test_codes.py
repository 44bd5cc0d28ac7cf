"""Parity-check codes, syndrome decoding, hashing, bit serialization."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steeplab import (ParamError, decode_syndrome, hexdump, make_ldpc,
                      pack_bit_record, syndrome_of, toeplitz_hash,
                      unpack_bit_record)
from steeplab.seeds import stream

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


def test_make_ldpc_rejects_bad_shapes():
    with pytest.raises(ParamError):
        make_ldpc(10, 11, rng_seed=0)
    with pytest.raises(ParamError):
        make_ldpc(0, 0, rng_seed=0)


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
])
def test_toeplitz_hash_matches_definition(n, out_len):
    rng = stream(n * 7919 + out_len, "ref")
    for bits in (np.zeros(n, np.uint8), np.ones(n, np.uint8),
                 rng.integers(0, 2, n, dtype=np.uint8)):
        for hash_seed in (0, 1, 12345):
            assert np.array_equal(toeplitz_hash(bits, out_len, hash_seed),
                                  _dense_toeplitz_hash(bits, out_len, hash_seed))


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


def test_toeplitz_hash_rejects_expansion():
    bits = np.ones(16, dtype=np.uint8)
    with pytest.raises(ParamError):
        toeplitz_hash(bits, 17, hash_seed=0)


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


def test_bit_record_truncation_errors():
    blob = pack_bit_record(np.ones(20, dtype=np.uint8))
    with pytest.raises(ParamError):
        unpack_bit_record(blob[:-1])
    with pytest.raises(ParamError):
        unpack_bit_record(b"")


def test_hexdump_format():
    text = hexdump(bytes(range(40)), width=16)
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("000102")
