"""Hierarchical seed derivation: stability and stream independence."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steeplab import ParamError
from steeplab.seeds import (_keys, _role_keys, _streams, _subseeds, _tag_int,
                            stream, subseed)


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


# ------------------------------------------------------------- batches

def _reference_key(seed, *tags):
    entropy = (seed,) + tuple(_tag_int(t) for t in tags)
    return np.random.SeedSequence(entropy).generate_state(2, np.uint64)


_EDGE_SEEDS = [0, 1, (1 << 32) - 1, 1 << 32, (1 << 64) - 1]
_seeds = st.lists(st.one_of(st.sampled_from(_EDGE_SEEDS),
                            st.integers(0, (1 << 32) - 1),
                            st.integers(0, (1 << 64) - 1)),
                  min_size=1, max_size=12)
_tags = st.lists(st.one_of(st.text(max_size=6),
                           st.integers(0, (1 << 64) - 1)), max_size=6)


@settings(max_examples=150, deadline=None)
@given(seeds=_seeds, tags=_tags)
def test_batch_keys_are_seed_sequence_keys(seeds, tags):
    # seeds of one and two words mix in one batch; int tags of two words
    # lengthen the entropy past the four-word pool
    want = np.array([_reference_key(s, *tags) for s in seeds])
    np.testing.assert_array_equal(_keys(seeds, *tags), want)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, (1 << 64) - 1),
       rows=st.lists(st.integers(0, (1 << 64) - 1), min_size=1,
                     max_size=8))
def test_batch_keys_with_a_tag_per_row(seed, rows):
    want = np.array([_reference_key(seed, "oracle", t) for t in rows])
    np.testing.assert_array_equal(_keys(seed, "oracle", rows), want)
    assert _subseeds(seed, "oracle", rows) == [subseed(seed, "oracle", t)
                                               for t in rows]


def test_batch_streams_draw_what_each_stream_draws():
    seeds = _EDGE_SEEDS + [12345, 7 << 40]
    for tags in [(), ("probe",), ("sweep", 3, 1 << 50)]:
        got = [rng.standard_normal(9) for rng in _streams(_keys(seeds, *tags))]
        want = [stream(s, *tags).standard_normal(9) for s in seeds]
        np.testing.assert_array_equal(got, want)
    got = [(rng.standard_normal(3), rng.random(2))
           for rng in _streams(_keys(seeds, "mixed"))]
    for (normals, uniforms), seed in zip(got, seeds):
        rng = stream(seed, "mixed")
        np.testing.assert_array_equal(normals, rng.standard_normal(3))
        np.testing.assert_array_equal(uniforms, rng.random(2))


_EPISODE_ROLES = ("channels", "probe", "noise_ea", "noise_b", "secret",
                  "noise_va", "noise_ve")


@settings(max_examples=100, deadline=None)
@given(seeds=_seeds,
       roles=st.lists(st.one_of(st.sampled_from(_EPISODE_ROLES),
                                st.text(max_size=6),
                                st.sampled_from(_EDGE_SEEDS),
                                st.integers(0, (1 << 64) - 1)),
                      min_size=1, max_size=7))
def test_role_keys_are_each_roles_keys(seeds, roles):
    # one pass over roles x seeds, seeds and int roles of one and two words
    # mixed, gives each role the keys of its own pass
    got = _role_keys(seeds, roles)
    assert got.shape == (len(roles), len(seeds), 2)
    for keys, role in zip(got, roles):
        np.testing.assert_array_equal(keys, _keys(seeds, role))
    got = [rng.standard_normal(3) for rng in _streams(got[0])]
    want = [stream(seed, roles[0]).standard_normal(3) for seed in seeds]
    np.testing.assert_array_equal(got, want)
    # one seed takes SeedSequence's keys, without an array hash pass
    with mock.patch("steeplab.seeds._state") as state:
        for seed in seeds:
            want = [[_reference_key(seed, role)] for role in roles]
            np.testing.assert_array_equal(_role_keys([seed], roles), want)
    assert state.call_count == 0


@pytest.mark.parametrize("seeds, roles, match", [
    ([3, -1], ["probe"], r"seed must be in \[0, 2\*\*64\), got -1"),
    ([3, True], ["probe", "secret"], "seed must be an integer, got True"),
    ([3, np.array(4)], ["probe"], r"seed must be an integer, got array\(4\)"),
    ([3, 4], ["probe", 1.0], "stream tag must be an integer, got 1.0"),
    ([3, 4], ["probe", 1 << 64], r"stream tag must be in \[0, 2\*\*64\)"),
])
def test_role_keys_check_every_seed_and_role(seeds, roles, match):
    with pytest.raises(ParamError, match=match):
        _role_keys(seeds, roles)


def test_batch_subseeds_equal_subseed():
    seeds = _EDGE_SEEDS + [99]
    assert _subseeds(seeds, "ldpc") == [subseed(s, "ldpc") for s in seeds]
    assert all(type(s) is int for s in _subseeds(seeds, "ldpc"))


@pytest.mark.parametrize("bad", [-1, 1 << 64])
def test_one_bad_seed_in_a_batch_raises_before_any_draw(bad):
    with pytest.raises(ParamError, match="seed must be in"):
        _streams(_keys([3, 4, bad], "probe"))
    with pytest.raises(ParamError, match="seed must be in"):
        _subseeds([3, bad, 4], "ldpc")


def test_batch_rows_must_agree():
    with pytest.raises(ParamError, match="at least one row"):
        _keys([], "probe")
    with pytest.raises(ParamError, match="lengths"):
        _keys([1, 2], "probe", [1, 2, 3])


@pytest.mark.parametrize("flag", [True, False, np.True_, np.array(3)])
def test_bool_seed_or_tag_is_rejected(flag):
    # a bool used to run as the seed or tag 1 (or 0); a 0-d array, taken for
    # a sequence of one per row, used to raise TypeError
    with pytest.raises(ParamError, match="seed must be an integer"):
        stream(flag, "a")
    with pytest.raises(ParamError, match="seed must be an integer"):
        subseed(flag, "a")
    with pytest.raises(ParamError, match="seed must be an integer"):
        _keys([1, flag], "a")
    with pytest.raises(ParamError, match="seed must be an integer"):
        _keys(flag, "a", [1, 2])
    with pytest.raises(ParamError, match="stream tag must be an integer"):
        stream(1, flag)
    with pytest.raises(ParamError, match="stream tag must be an integer"):
        _keys([1, 2], "a", [0, flag])
    with pytest.raises(ParamError, match="stream tag must be an integer"):
        _keys([1, 2], "a", flag)


@pytest.mark.parametrize("tag, why", [
    (True, "an integer, got True"), (np.True_, "an integer, got np.True_"),
    (1.0, "an integer, got 1.0"), (-1, r"in \[0, 2\*\*64\), got -1"),
    (1 << 64, r"in \[0, 2\*\*64\), got 18446744073709551616")],
    ids=["bool", "numpy-bool", "float", "negative", "2**64"])
def test_tag_outside_the_seed_rule_is_rejected(tag, why):
    # an int tag keeps the seed rule: no bool or float, and [0, 2**64),
    # outside which masking would run -1 as 2**64 - 1 and 2**64 as 0
    match = "stream tag must be " + why
    with pytest.raises(ParamError, match=match):
        stream(1, tag)
    with pytest.raises(ParamError, match=match):
        subseed(1, tag)
    with pytest.raises(ParamError, match=match):
        _keys([1, 2], "a", [0, tag])
    with pytest.raises(ParamError, match=match):
        _subseeds(1, "oracle", [tag, 3])
