"""Deterministic, role-tagged random streams.

Every random draw in the package flows from an explicit integer seed in
[0, 2**64) plus a tuple of role tags (short strings or ints in the same
range).  Each distinct ``(seed, *tags)`` combination yields an independent
counter-based stream, so

* identical inputs reproduce identical draws bit for bit,
* distinct signal roles inside one episode never share a stream, and
* work can be partitioned across workers in any order without changing
  results.

The stream of ``(seed, *tags)`` is ``Philox`` keyed by numpy's
``SeedSequence((seed, *tags))``.  Philox is counter-based, so its 128-bit
key sets the whole stream.  A batch of streams derives all its keys in one
pass of the ``SeedSequence`` hash over uint32 arrays (``_keys``), instead
of building one ``SeedSequence`` and one ``Philox`` per seed.  A pass costs
about the same at 1 row as at a few hundred, so the streams of several
roles of one batch take one pass too.  ``_role_keys`` alone decides how
keys are derived: one ``SeedSequence`` per role for one seed, which costs
less than a pass, and one pass for a batch.  ``_streams`` only re-keys a
generator from the key rows it is given.
"""
from __future__ import annotations

import functools
import zlib
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .params import ParamError, _integer

__all__ = ["stream", "subseed"]

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


def _seed_int(value: int, name: str = "seed") -> int:
    # a bool or a float would alias an integer seed or tag; masking one
    # outside [0, 2**64) would alias it to another one's streams
    value = _integer(name, value)
    if not 0 <= value <= _MASK64:
        raise ParamError(f"{name} must be in [0, 2**64), got {value}")
    return value


def _tag_int(tag: int | str) -> int:
    if isinstance(tag, str):
        return zlib.crc32(tag.encode("utf-8"))
    return _seed_int(tag, "stream tag")


def _seed_sequence(seed: int, tags: tuple) -> np.random.SeedSequence:
    entropy = (_seed_int(seed),) + tuple(_tag_int(t) for t in tags)
    return np.random.SeedSequence(entropy)


def stream(seed: int, *tags: int | str) -> np.random.Generator:
    """Independent generator for the role identified by ``tags``.

    Philox is counter-based: streams for different tag tuples are
    statistically independent.  The seed is an int in [0, 2**64) and each
    tag a str or such an int; any other seed or tag, a bool or a float
    among them, raises ``ParamError`` naming it, so none aliases another.
    """
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, tags)))


def subseed(seed: int, *tags: int | str) -> int:
    """Derive a child integer seed for a named sub-experiment.

    Hierarchical derivation keeps experiments isolated: adding a new tagged
    sub-experiment never perturbs the draws of existing ones.  The child
    seed is the first uint64 of the stream's Philox key.
    """
    return int(_seed_sequence(seed, tags).generate_state(1, np.uint64)[0])


# =====================================================================
# Batches: the SeedSequence hash on uint32 arrays, one entry per row
# =====================================================================

_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
# (source, destination) of the twelve mixes between pool words, in order
_CROSS = [(src, dst) for src in range(_POOL_SIZE) for dst in range(_POOL_SIZE)
          if src != dst]


def _hash_consts(const: int, mult: int, n_calls: int) -> list[int]:
    """The hash constants of ``n_calls`` successive hashmix calls: call k
    reads entries k and k + 1.  They do not depend on the data."""
    consts = [const]
    for _ in range(n_calls):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


def _hashmix(value: np.ndarray, consts: list[int], k: int) -> np.ndarray:
    value = (value ^ consts[k]) * consts[k + 1]
    return value ^ value >> _XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ result >> _XSHIFT


def _state(words: list[np.ndarray]) -> list[np.ndarray]:
    """The four uint32 words of ``SeedSequence(entropy).generate_state(2,
    np.uint64)`` for the uint32 entropy words; uint32 arrays wrap as the
    hash does."""
    extra = max(len(words) - _POOL_SIZE, 0)
    consts = _hash_consts(_INIT_A, _MULT_A,
                          _POOL_SIZE + len(_CROSS) + _POOL_SIZE * extra)
    words = words + [np.zeros_like(words[0])] * (_POOL_SIZE - len(words))
    pool = [_hashmix(words[i], consts, i) for i in range(_POOL_SIZE)]
    for k, (src, dst) in enumerate(_CROSS, _POOL_SIZE):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts, k))
    k = _POOL_SIZE + len(_CROSS)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts, k))
            k += 1
    consts = _hash_consts(_INIT_B, _MULT_B, _POOL_SIZE)
    return [_hashmix(pool[i], consts, i) for i in range(_POOL_SIZE)]


def _int_words(value: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: little-endian uint32
    words, and one word for zero."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _one_value(value) -> bool:
    """Whether a seed or tag argument is one value, not one per row: a
    string, anything that is not iterable, such as a float seed, or a 0-d
    array, which numpy makes iterable only to raise ``TypeError``.  Not
    ``np.ndim(value) == 0``: that holds for a generator of seeds too."""
    return (isinstance(value, str) or not isinstance(value, Iterable)
            or isinstance(value, np.ndarray) and value.ndim == 0)


def _column(value, to_int) -> int | np.ndarray:
    """One checked seed or tag argument: an int shared by every row, or a
    uint64 array of one int per row."""
    if _one_value(value):
        return to_int(value)
    return np.array([to_int(v) for v in value], dtype=np.uint64)


def _hash_keys(values: list[int | np.ndarray]) -> np.ndarray:
    """The (T, 2) keys of T rows of checked entropy values, each an int in
    [0, 2**64) shared by every row or a uint64 array of T of them: the
    hash core of ``_keys``.  Rows whose values take different numbers of
    uint32 words are hashed in separate groups."""
    lengths = {v.size for v in values if isinstance(v, np.ndarray)}
    if len(lengths) != 1 or 0 in lengths:
        raise ParamError("a batch needs at least one row and one length for "
                         f"every sequence, got lengths {sorted(lengths)}")
    n_rows = lengths.pop()
    # bit k of a row's group is set when its k-th value takes two words
    group = np.zeros(n_rows, dtype=np.int64)
    for k, v in enumerate(values):
        if isinstance(v, np.ndarray):
            group |= (v > _MASK32).astype(np.int64) << k
    keys = np.empty((n_rows, 2), dtype=np.uint64)
    # a set, not np.unique: its sort maps numpy's sort kernels into memory,
    # 1.6 MB of resident pages on first use
    for g in set(group.tolist()):
        rows = np.flatnonzero(group == g)
        words: list[np.ndarray] = []
        for k, v in enumerate(values):
            if not isinstance(v, np.ndarray):
                words += [np.full(rows.size, w, dtype=np.uint32)
                          for w in _int_words(v)]
                continue
            v = v[rows]
            words.append((v & _MASK32).astype(np.uint32))
            if g >> k & 1:
                words.append((v >> 32).astype(np.uint32))
        # a uint64 of the state is two successive words, the first the low
        state = [w.astype(np.uint64) for w in _state(words)]
        keys[rows, 0] = state[0] | state[1] << 32
        keys[rows, 1] = state[2] | state[3] << 32
    return keys


def _keys(seed: int | Sequence[int], *tags: int | str | Sequence[int]
          ) -> np.ndarray:
    """The (T, 2) uint64 Philox keys of ``stream(seed, *tags)`` for T rows:
    bit for bit ``SeedSequence((seed, *tags)).generate_state(2,
    np.uint64)`` of each row.

    ``seed`` and each tag are one value shared by every row or a sequence
    of T ints, one per row.  Every seed and tag is checked before any key
    is derived.
    """
    return _hash_keys([_column(seed, _seed_int)]
                      + [_column(t, _tag_int) for t in tags])


def _role_keys(seeds: Sequence[int], roles: Sequence[int | str]
               ) -> np.ndarray:
    """The (R, T, 2) Philox keys of R roles for T seeds: row [r, t] is the
    key of ``stream(seeds[t], roles[r])``.  Each seed and each role tag is
    checked once.  One seed takes one ``SeedSequence`` per role, which
    costs less than a hash pass; a batch takes one pass for all R * T."""
    seeds = _column(seeds, _seed_int)
    tags = _column(roles, _tag_int)
    if seeds.size == 1:
        return np.array([[np.random.SeedSequence((seeds.item(), tag))
                          .generate_state(2, np.uint64)]
                         for tag in tags.tolist()])
    keys = _hash_keys([np.tile(seeds, tags.size), np.repeat(tags, seeds.size)])
    return keys.reshape(tags.size, seeds.size, 2)


def _subseeds(seed: int | Sequence[int], *tags: int | str | Sequence[int]
              ) -> list[int]:
    """``subseed`` of each row, with rows as in ``_keys``."""
    return _keys(seed, *tags)[:, 0].tolist()


@functools.cache
def _philox_seed() -> np.random.SeedSequence:
    """The seed of the Philox that ``_streams`` re-keys: its key is
    overwritten before any draw, and a built SeedSequence is not hashed
    again.  Built on first use, since ``np.random`` is imported lazily."""
    return np.random.SeedSequence(0)


def _streams(keys: np.ndarray) -> Iterator[np.random.Generator]:
    """The generator of each of the (T, 2) key rows in turn, as ``_keys``
    or one role of ``_role_keys`` gives them: the streams of their seeds
    and tags, with no key derived and no seed checked again.

    One ``Philox`` is re-keyed through its public state (the key, counter
    0, an empty buffer), so a yielded generator draws its row's stream
    only until the next one is yielded.
    """
    bitgen = np.random.Philox(_philox_seed())
    state = bitgen.state          # a fresh state: counter 0, buffer empty
    # Python lists and ints: the state setter reads them in half the time
    # it takes for numpy arrays
    state["state"]["counter"] = state["buffer"] = [0] * 4
    rng = np.random.Generator(bitgen)
    for key in keys.tolist():
        state["state"]["key"] = key
        bitgen.state = state
        yield rng
