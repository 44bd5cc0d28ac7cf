"""Hierarchical seed derivation: stability and stream independence."""
import numpy as np
import pytest

from steeplab import ParamError
from steeplab.seeds import stream, subseed


def test_stream_deterministic_per_tag():
    a = stream(1, "probe").integers(0, 1 << 30, 8)
    b = stream(1, "probe").integers(0, 1 << 30, 8)
    assert np.array_equal(a, b)


def test_different_tags_differ():
    a = stream(1, "probe").integers(0, 1 << 30, 8)
    b = stream(1, "noise").integers(0, 1 << 30, 8)
    c = stream(2, "probe").integers(0, 1 << 30, 8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_mixed_tag_types():
    a = stream(0, "sweep", 3).integers(0, 1 << 30, 4)
    b = stream(0, "sweep", 4).integers(0, 1 << 30, 4)
    assert not np.array_equal(a, b)


def test_subseed_stable_and_distinct():
    s1 = subseed(7, "ldpc")
    assert s1 == subseed(7, "ldpc")
    assert s1 != subseed(7, "toeplitz")
    assert s1 != subseed(8, "ldpc")
    assert 0 <= s1 < (1 << 64)


def test_streams_look_independent():
    x = stream(0, "a").standard_normal(200_000)
    y = stream(0, "b").standard_normal(200_000)
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.01


@pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 65) - 1])
def test_seed_outside_64_bits_rejected(seed):
    with pytest.raises(ParamError, match=r"seed must be in \[0, 2\*\*64\)"):
        stream(seed, "probe")
    with pytest.raises(ParamError, match="seed must be in"):
        subseed(seed, "ldpc")
