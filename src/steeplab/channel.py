"""Analog signal simulation: channel draws, the probing phase, and the echo.

Signal model, per probe index k (all noises circular complex Gaussian,
independent across k and across roles):

    probing (Alice -> everyone)
        y_B(k) = h_BA x_A(k) + w_B(k)                 at Bob
        e_A(k) = g_A x_A(k) + w_EA(k)                 at Eve, n_E antennas

    echo (Bob -> everyone, high-quality unit-gain return path)
        r(k)    = y_B(k) + s(k)                       Bob embeds his secret
        y_AB(k) = r(k) + v_A(k)                       at Alice
        y_EB(k) = r(k) + v_E(k)                       at Eve

The probing gains (h_AB, h_BA) are jointly Gaussian with unit variances and
cross-correlation rho; Eve's gain vectors g_A, g_B are i.i.d. CN(0, 1).  The
return path carries no fading: the echo is assumed to ride a strong channel
(e.g. beamformed or wired feedback), leaving only additive noise eps_A/eps_E.

Episodes are immutable value objects.  Identical ``(params, rng_seed)``
reproduce identical episodes bit for bit.  A sequence of seeds runs one
episode per seed as a batch: every gain and signal gains a leading trial
axis, and trial t equals the episode of seed t bit for bit, since each seed
keeps its own role-tagged streams.  An int seed is the batch of one,
returned without the trial axis.

All complex Gaussians come from one kernel, ``_cnormal_rows``; the gains of
``sample_channel_batch`` and ``sample_channels`` from one call of it.
"""
from __future__ import annotations

import os
import threading
from collections.abc import Iterator, Sequence
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .params import ChannelRealization, ParamError, SystemParams
from .seeds import _streams

__all__ = [
    "SimulationError",
    "AnalogEpisode",
    "sample_channels",
    "sample_channel_batch",
    "run_probing",
    "run_echo",
    "simulate_episode",
    "episode_to_csv",
    "EPISODE_CSV_COLUMNS",
]


class SimulationError(RuntimeError):
    """A simulator was asked to run outside its physical preconditions."""


def _seeds(rng_seed: int | Sequence[int]) -> tuple[list[int], bool]:
    """The seeds of a call and whether they make a batch; an int seed is
    the batch of one, whose trial axis the caller drops."""
    if isinstance(rng_seed, (int, np.integer)):
        return [rng_seed], False
    seeds = list(rng_seed)
    if not seeds:
        raise ParamError("a seed sequence needs at least one seed")
    return seeds, True


def _check_batch(shape: tuple, seeds: list[int], batched: bool) -> None:
    """Raise ParamError unless the gains or signals have the batch shape of
    the seeds: () for an int seed, (T,) for T seeds."""
    want = (len(seeds),) if batched else ()
    if shape != want:
        raise ParamError(f"batch shape {shape} does not match the seeds, "
                         f"which give {want}")


def _cnormal_rows(seeds: list[int], batched: bool, role: str,
                  shapes: Sequence[tuple], var: float) -> list[np.ndarray]:
    """CN(0, var) samples of each shape in turn for every seed: array k is
    (T, *shapes[k]), row t one fill of ``stream(seeds[t], role)``, real and
    then imaginary parts of variance var/2; without ``batched`` it drops
    its trial axis.  An array turns complex, and frees its normals, once
    its last row is filled, so one seed holds the normals of one array at
    a time (``np.empty`` commits no memory before a fill)."""
    scale = np.sqrt(var / 2.0)
    normals: list = [np.empty((len(seeds), 2, *shape)) for shape in shapes]
    out = []
    for t, rng in enumerate(_streams(seeds, role), 1):
        for k in range(len(shapes)):
            rng.standard_normal(out=normals[k][t - 1])
            if t == len(seeds):   # the bits of scale * (re + 1j * im)
                z = 1j * normals[k][:, 1]
                z += normals[k][:, 0]
                normals[k] = None
                z *= scale
                out.append(z)
    return out if batched else [z[0] for z in out]


# =====================================================================
# Channel sampling
# =====================================================================

def _channel_gains(params: SystemParams, seeds: list[int],
                   draws: tuple) -> tuple[np.ndarray, ...]:
    """h_AB, h_BA, g_A, g_B of each seed, (T, *draws) and (T, *draws, n_E)
    for ``draws`` (n,) or ().  The "channels" stream draws h_AB, w, g_A and
    g_B, all CN(0, 1), and h_BA = conj(rho) h_AB + sqrt(1-|rho|^2) w gives
    E{h_AB conj(h_BA)} = rho exactly."""
    h, g = draws, (*draws, params.n_E)
    h_AB, w, g_A, g_B = _cnormal_rows(seeds, True, "channels", (h, h, g, g),
                                      1.0)
    rho = complex(params.rho)
    h_BA = np.conj(rho) * h_AB + np.sqrt(1.0 - abs(rho) ** 2) * w
    return h_AB, h_BA, g_A, g_B


def sample_channels(params: SystemParams,
                    rng_seed: int | Sequence[int]) -> ChannelRealization:
    """Draw one joint realization of every channel gain: the single draw of
    ``sample_channel_batch(params, rng_seed, 1)``.

    A sequence of T seeds gives a batch realization of T such draws:
    h_AB and h_BA of shape (T,), g_A and g_B of shape (T, n_E).
    """
    seeds, batched = _seeds(rng_seed)
    gains = _channel_gains(params, seeds, ())
    if batched:
        return ChannelRealization(*gains)
    h_AB, h_BA, g_A, g_B = (g[0] for g in gains)
    return ChannelRealization(complex(h_AB), complex(h_BA), g_A, g_B)


def sample_channel_batch(params: SystemParams, rng_seed: int, n_draws: int):
    """Vectorized channel draws for Monte Carlo averaging.

    h_AB ~ CN(0,1) and h_BA from it as in ``_channel_gains``; Eve's gains
    g_A, g_B are i.i.d. CN(0,1).

    Returns:
        tuple ``(h_AB, h_BA, g_A, g_B)`` with shapes (n,), (n,), (n, n_E),
        (n, n_E).  The batch for a given ``(params, rng_seed, n_draws)`` is
        deterministic.
    """
    if n_draws < 1:
        raise ParamError(f"n_draws must be >= 1, got {n_draws}")
    return tuple(g[0] for g in _channel_gains(params, [rng_seed], (n_draws,)))


# =====================================================================
# Episodes
# =====================================================================

@dataclass(frozen=True, eq=False)
class AnalogEpisode:
    """All signals of one probe-echo run, or of a batch of T runs.

    ``run_probing`` fills the probing fields and leaves the echo fields
    ``None``; ``run_echo`` completes them.  Arrays indexed by probe k have
    length m_A; ``e_A`` has shape (n_E, m_A).  A batch puts the trial axis
    first: (T, m_A) and (T, n_E, m_A), with a batch realization.
    """

    realization: ChannelRealization
    x_A: np.ndarray          # Alice's probes, i.i.d. CN(0, p_A)
    y_B: np.ndarray          # Bob's probing observation
    e_A: np.ndarray          # Eve's probing observation, one row per antenna
    s: np.ndarray | None = None      # Bob's secret sequence, CN(0, sigma_s2)
    r: np.ndarray | None = None      # Bob's echo y_B + s
    y_AB: np.ndarray | None = None   # Alice's return observation
    y_EB: np.ndarray | None = None   # Eve's return observation

    @property
    def m_A(self) -> int:
        return self.x_A.shape[-1]

    @property
    def complete(self) -> bool:
        return self.y_AB is not None


def run_probing(params: SystemParams, realization: ChannelRealization,
                rng_seed: int | Sequence[int]) -> AnalogEpisode:
    """Phase 1: Alice sends m_A probes; Bob and Eve listen.

    A batch realization of T draws takes a sequence of T seeds.
    """
    realization.check_for(params)
    if params.m_A < 1:
        raise SimulationError("nothing to probe: m_A must be >= 1")
    seeds, batched = _seeds(rng_seed)
    _check_batch(np.shape(realization.h_BA), seeds, batched)
    m = params.m_A
    [x_A] = _cnormal_rows(seeds, batched, "probe", [(m,)], params.p_A)
    [w_B] = _cnormal_rows(seeds, batched, "noise_b", [(m,)], params.sigma_B2)
    y_B = np.expand_dims(realization.h_BA, -1) * x_A + w_B
    [w_EA] = _cnormal_rows(seeds, batched, "noise_ea", [(params.n_E, m)],
                           params.sigma_EA2)
    e_A = (np.expand_dims(realization.g_A, -1) * np.expand_dims(x_A, -2)
           + w_EA)
    return AnalogEpisode(realization=realization, x_A=x_A, y_B=y_B, e_A=e_A)


def run_echo(params: SystemParams, episode: AnalogEpisode,
             rng_seed: int | Sequence[int]) -> AnalogEpisode:
    """Phase 2: Bob echoes his probing observation with the secret added.

    Requires strictly positive return-path noise: eps_A = eps_E = 0 would be
    a noiseless feedback channel, which the model excludes.  A batch
    episode of T trials takes a sequence of T seeds.
    """
    if episode.complete:
        raise SimulationError("episode already contains an echo phase")
    if not (params.eps_A > 0 and params.eps_E > 0):
        raise SimulationError("run_echo requires eps_A > 0 and eps_E > 0")
    seeds, batched = _seeds(rng_seed)
    _check_batch(episode.x_A.shape[:-1], seeds, batched)
    m = episode.m_A
    [s] = _cnormal_rows(seeds, batched, "secret", [(m,)], params.sigma_s2)
    r = episode.y_B + s
    [v_A] = _cnormal_rows(seeds, batched, "noise_va", [(m,)], params.eps_A)
    [v_E] = _cnormal_rows(seeds, batched, "noise_ve", [(m,)], params.eps_E)
    return replace(episode, s=s, r=r, y_AB=r + v_A, y_EB=r + v_E)


def simulate_episode(params: SystemParams,
                     rng_seed: int | Sequence[int]) -> AnalogEpisode:
    """Sample channels, probe, and echo under one seed, or as one batch
    under a sequence of seeds (see the module docstring).

    Each stage derives its own role-tagged streams from ``rng_seed``, so the
    result is identical to calling the three stages with the same seed.
    """
    seeds, batched = _seeds(rng_seed)
    rng_seed = seeds if batched else seeds[0]
    realization = sample_channels(params, rng_seed)
    episode = run_probing(params, realization, rng_seed)
    return run_echo(params, episode, rng_seed)


# =====================================================================
# Serialization
# =====================================================================

#: Fixed column order of the episode CSV.  One row per probe index k; complex
#: signals are split into _re/_im pairs; Eve's antennas appear as e_A{i}_re,
#: e_A{i}_im for i = 0 .. n_E-1 after the scalar signals.
EPISODE_CSV_COLUMNS = (
    "k",
    "x_A_re", "x_A_im",
    "y_B_re", "y_B_im",
    "s_re", "s_im",
    "r_re", "r_im",
    "y_AB_re", "y_AB_im",
    "y_EB_re", "y_EB_im",
)


#: Rows formatted per block; formatting whole columns would raise peak memory.
_CSV_BLOCK_ROWS = 1024

_U, _I = np.uint64, np.int64


def _ascii_quads() -> np.ndarray:
    """The four ASCII digits of each i < 10**4, zero-padded, as the value of
    a little-endian word: the first digit is the lowest byte."""
    i = np.arange(10_000, dtype=_U)
    digits = i[:, None] // _U(10) ** np.arange(3, -1, -1, dtype=_U) % _U(10)
    return ((digits + _U(48)) << _U(8) * np.arange(4, dtype=_U)).sum(
        axis=1, dtype=_U)


def _float_field_words() -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Per word of a 48-byte float field: its byte mask and its fixed bytes
    (None when it has none), as little-endian word values, in rows
    (dp + 9) * 18 + nd for a value 0.d0d1...d(nd-1) * 10**dp with dp in
    [-9, 16] and nd in [0, 17].

    Bytes: 0 ','; 1 the sign; 2-6 '0.' and up to three zeros when
    -3 <= dp <= 0; 3-19 the digits, kept below ``cut``; 20 '.'; 27-43 the
    digits again, kept from ``cut`` below nd; 44-47 'e-XX' when dp <= -4.
    ``cut`` is dp in '123.45', 0 in '0.00123' and 1 in '1.5e-07'.
    """
    dp = np.arange(-9, 17)[:, None, None]
    nd = np.arange(18)[:, None]
    byte = np.arange(48)
    cut = np.where(dp >= 1, dp, np.where(dp >= -3, 0, 1))
    digit = byte % 24 - 3
    keep = np.where(byte < 24, (digit >= 0) & (digit < cut),
                    (digit >= cut) & (digit < nd))
    chars = np.zeros((26, 18, 48), np.uint8)
    chars[..., 0] = ord(",")
    zeros = np.where((dp <= 0) & (dp >= -3), 2 - dp, 0)
    chars[..., 2:7] = np.where(np.arange(5) < zeros,
                               np.frombuffer(b"0.000", np.uint8), 0)
    chars[..., 20] = np.where((cut >= 1) & (nd > cut), ord("."), 0)[..., 0]
    e = 1 - dp[:, 0]
    exponent = np.stack(np.broadcast_arrays(ord("e"), ord("-"),
                                            48 + e // 10, 48 + e % 10), -1)
    chars[..., 44:] = np.where(dp <= -4, exponent, 0)
    masks = np.where(keep, 255, 0).astype(np.uint8).view("<u8").reshape(-1, 6)
    fixed = chars.view("<u8").reshape(-1, 6)
    return [(masks[:, w].astype(_U),
             fixed[:, w].astype(_U) if fixed[:, w].any() else None)
            for w in range(6)]


_QUADS = _ascii_quads()
_POW5 = _U(5) ** np.arange(27, dtype=_U)
_FIELD_WORDS = _float_field_words()
#: _LEAD_MASK[c] keeps the last c bytes of a little-endian word
_LEAD_MASK = np.array([2**64 - 2**(64 - 8 * c) for c in range(9)], _U)
_POW10 = _I(10) ** np.arange(1, 19, dtype=_I)


def _scaled(flat: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each float64 v of flat as v' = |v| 10**q = I + R / 2**t exactly.

    |v| = m 2**e, q = 16 - floor(log10 |v|) puts v' in [1e16, 1e17), and
    I and R come from the 128-bit product m 5**q shifted by t = -(e + q).
    Returns ``ok`` (False where the guard sends v to ``repr``), q, I, 2R,
    t + 1 and 5**q: an integer C rounds to |v| iff
    |(C - I) 2**(t+1) - 2R| < 5**q.  The two sides are never equal, one
    even and one odd, so parsing's round-half-to-even never decides.

    The guard: 0, subnormals, inf and nan; a power-of-two mantissa, whose
    rounding interval is not symmetric; q outside [1, 26], so that 5**q
    fits in 64 bits, or t < 1 (about |v| < 1e-10 or |v| >= 2**52); R = 0
    or 2**(t-1), a tie (every integral v has R = 0); and a log10 that
    missed the decade.  Then t <= 60, and every integer fits in int64.
    """
    bits = flat.view(_U)
    biased = (bits >> _U(52)) & _U(0x7FF)
    frac = bits & _U((1 << 52) - 1)
    ok = (biased - _U(1) < _U(0x7FE)) & (frac != _U(0))
    q = _I(16) - np.floor(np.log10(np.abs(np.where(ok, flat, 1.0)))).astype(_I)
    t = _I(1075) - biased.astype(_I) - q
    ok &= (q >= 1) & (q <= 26) & (t >= 1)
    q = np.where(ok, q, _I(16))
    t = np.where(ok, t, _I(36)).astype(_U)
    # the 128-bit product m 5**q from 32-bit limbs
    m = frac | _U(1 << 52)
    p5 = _POW5.take(q)
    m_hi, m_lo = m >> _U(32), m & _U(0xFFFFFFFF)
    p_hi, p_lo = p5 >> _U(32), p5 & _U(0xFFFFFFFF)
    mid = m_hi * p_lo + m_lo * p_hi
    lo = m_lo * p_lo
    low = lo + (mid << _U(32))
    high = m_hi * p_hi + (mid >> _U(32)) + (low < lo)
    whole = (high << (_U(64) - t)) | (low >> t)
    rest = low & ((_U(1) << t) - _U(1))
    ok &= ((whole >= _U(10**16)) & (whole < _U(10**17)) & (rest != _U(0))
           & (rest != _U(1) << (t - _U(1))))
    return (ok, q, whole.astype(_I), (rest << _U(1)).astype(_I),
            t.astype(_I) + _I(1), p5.astype(_I))


def _shortest(flat: np.ndarray) -> tuple[np.ndarray, ...]:
    """repr's digits of each float64 of flat: ``ok`` and q of ``_scaled``,
    the digits as a 17-digit integer and the count of significant ones.

    They are the nearest multiple of 10**j to v' for the largest j at which
    that multiple still rounds to |v|.
    """
    ok, q, whole, r2, shift, p5 = _scaled(flat)
    # the integers that round to |v| are up - span .. up
    above = (r2 + p5) >> shift
    span = above + ((p5 - r2) >> shift)
    up = whole + above
    # j = 0: the nearest integer, always inside since 2**(e-1) 10**q > 1/2
    dec = whole + (r2 >> (shift - _I(1)))
    nd = np.full(flat.size, 17, _I)
    # j = 1: the nearest multiple of 10, when some multiple is inside
    ten = up - up // _I(10) * _I(10) <= span
    last = whole - whole // _I(10) * _I(10)
    dec = np.where(ten, whole - last + (last >= 5) * _I(10), dec)
    nd -= ten
    # j >= 2: at most one multiple of 10**j is inside, as span < 2 * 11.2,
    # and it is up rounded down; count the j in 2..16 that have one
    many = np.flatnonzero(up - up // _I(100) * _I(100) <= span)
    u = up.take(many)
    j = 1 + (u[:, None] % _POW10[1:16] <= span.take(many)[:, None]).sum(1)
    dec[many] = u - u % _POW10.take(j - 1)
    nd[many] = 17 - j
    return ok & (dec < _I(10**17)), q, dec, nd


def _csv_float_fields(x: np.ndarray, out: np.ndarray) -> int:
    """Write ',' and ``repr(float(v))`` for each v of the float64 array x
    into the 48-byte field ``out[idx]`` (six little-endian words, shape
    ``x.shape + (6,)``), leaving zero bytes between the runs of text, and
    return how many values took the guard's ``repr`` (see ``_scaled``).
    """
    flat = x.ravel()
    ok, q, dec, nd = _shortest(flat)
    # the 17 digits as '000' + 1 + 4 + 4 + 4 + 4, in three words
    head = dec // _I(10**8)
    tail = dec - head * _I(10**8)
    top = head // _I(10**4)
    lead = top // _I(10**4)
    q0, q1, q2, q3, q4 = (_QUADS.take(g) for g in (
        lead, top - lead * _I(10**4), head - top * _I(10**4),
        tail // _I(10**4), tail % _I(10**4)))
    digits = (q0 | (q1 << _U(32)), q2 | (q3 << _U(32)), q4)
    row = (_I(26) - q) * _I(18) + nd
    for w, (mask, chars) in enumerate(_FIELD_WORDS):
        word = digits[w % 3] & mask.take(row)
        if chars is not None:
            word |= chars.take(row)
        if w == 0:
            word |= (flat.view(_U) >> _U(63)) * _U(ord("-") << 8)
        out[..., w] = word.reshape(x.shape)
    fallback = np.flatnonzero(~ok)
    if fallback.size:
        text = np.zeros((fallback.size, 48), np.uint8)
        text[:, 0] = ord(",")
        text[:, 1:] = np.array([repr(v) for v in flat.take(fallback).tolist()],
                               "S47").view(np.uint8).reshape(-1, 47)
        out[np.unravel_index(fallback, x.shape)] = text.view("<u8")
    return fallback.size


def _csv_row_starts(k: np.ndarray, n_words: int) -> np.ndarray:
    """'\\n' and the decimal of each k, right-aligned in n_words words."""
    out = np.empty((k.size, n_words), _U)
    n_digits = np.searchsorted(_POW10, k, side="right") + 1
    for w in range(n_words - 1, -1, -1):
        k, eight = k // _I(10**8), k % _I(10**8)
        out[:, w] = (_QUADS.take(eight // _I(10**4))
                     | (_QUADS.take(eight % _I(10**4)) << _U(32)))
        out[:, w] &= _LEAD_MASK.take(
            np.clip(n_digits - 8 * (n_words - 1 - w), 0, 8))
    out[:, 0] |= _U(ord("\n"))
    return out


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _leave_start_cpu() -> None:
    """Move the calling new thread off the CPU it started on, its creator's.

    A kernel that does not balance load across CPUs (a cpuset with
    ``sched_load_balance`` 0) keeps a new thread on its creator's CPU, so
    the pool would share the caller's CPU.  Excluding that CPU once moves
    the thread; restoring the mask leaves it where it went.
    """
    try:
        with open("/proc/thread-self/stat", "rb") as stat:
            cpu = int(stat.read().rsplit(b")", 1)[1].split()[36])
        allowed = os.sched_getaffinity(0)
        if allowed - {cpu}:
            os.sched_setaffinity(0, allowed - {cpu})
            os.sched_setaffinity(0, allowed)
    except (OSError, AttributeError, ValueError, IndexError):
        pass   # no /proc or no affinity calls: leave placement to the kernel


_pool_lock = threading.Lock()
_pool: tuple[tuple[int, int], ThreadPoolExecutor] | None = None


def _csv_pool(workers: int) -> ThreadPoolExecutor:
    """The module's pool of ``workers`` threads, made on first use and made
    anew when the usable CPUs change or in a forked child, which has none
    of its parent's threads; a replaced pool's threads exit once no call
    holds it."""
    global _pool
    key = (workers, os.getpid())
    with _pool_lock:
        if _pool is None or _pool[0] != key:
            _pool = (key, ThreadPoolExecutor(
                workers, thread_name_prefix="steeplab-csv",
                initializer=_leave_start_cpu))
        return _pool[1]


def _episode_csv_parts(episode: AnalogEpisode) -> Iterator:
    """The bytes of ``episode_to_csv``'s text in order: the header, each
    block of ``_CSV_BLOCK_ROWS`` rows, then the final '\\n'.

    With N usable CPUs this thread formats every N-th block and a pool of
    N - 1 threads the others, at most N blocks ahead of the consumer; a
    block the pool has not started when it is due is formatted here.  Each
    thread fills its own buffers, so the bytes never depend on N.
    """
    if episode.x_A.ndim != 1:
        raise ParamError("episode_to_csv writes one episode, got a batch of "
                         f"{episode.x_A.shape[0]}")
    n_e = np.asarray(episode.realization.g_A).shape[0]
    header = list(EPISODE_CSV_COLUMNS)
    for i in range(n_e):
        header += [f"e_A{i}_re", f"e_A{i}_im"]
    yield ",".join(header).encode("ascii")
    signals = (episode.x_A, episode.y_B, episode.s, episode.r,
               episode.y_AB, episode.y_EB, *episode.e_A)
    # runs [a, b) of consecutive signals present, each one kernel call
    runs: list[list[int]] = []
    for i, z in enumerate(signals):
        if z is not None:
            if runs and runs[-1][1] == i:
                runs[-1][1] = i + 1
            else:
                runs.append([i, i + 1])
    m = episode.m_A
    rows = min(_CSV_BLOCK_ROWS, m)
    # a row: '\n' ending the line before, the index, then 48-byte fields
    n_start = (len(str(m - 1)) + 8) // 8
    n_values = 2 * sum(b - a for a, b in runs)
    local = threading.local()   # each thread's block and values buffers

    def block_bytes(lo: int) -> tuple[np.ndarray, bool]:
        """The block's bytes and whether most of its values took ``repr``."""
        bufs = getattr(local, "bufs", None)
        if bufs is None:
            block = np.zeros((rows, 8 * n_start + 96 * len(signals)), np.uint8)
            words = block.view("<u8")
            fields = words[:, n_start:].reshape(rows, 2 * len(signals), 6)
            fields[..., 0] = ord(",")  # an empty field
            bufs = local.bufs = (block, words, fields,
                                 np.empty((rows, 2 * len(signals))))
        block, words, fields, values = bufs
        n = min(rows, m - lo)
        fallbacks = 0
        for a, b in runs:
            for i in range(a, b):
                values[:n, 2 * i] = signals[i].real[lo:lo + n]
                values[:n, 2 * i + 1] = signals[i].imag[lo:lo + n]
            fallbacks += _csv_float_fields(values[:n, 2 * a:2 * b],
                                           fields[:n, 2 * a:2 * b])
        words[:n, :n_start] = _csv_row_starts(np.arange(lo, lo + n, dtype=_I),
                                              n_start)
        flat = block[:n].ravel()
        return flat[flat != 0], 2 * fallbacks > n * n_values

    starts = range(0, m, _CSV_BLOCK_ROWS)
    cpus = _usable_cpus() if len(starts) > 1 else 1
    pool = _csv_pool(cpus - 1) if cpus > 1 else None
    pending: dict[int, Future] = {}
    # ahead: the next block to hand out.  A block whose values mostly took
    # repr held the GIL throughout, so the blocks after it that are not yet
    # handed out are formatted here, one after another.
    ahead, serial = 0, False
    try:
        for b, lo in enumerate(starts):
            while not serial and ahead < min(b + cpus, len(starts)):
                if ahead % cpus:
                    pending[ahead] = pool.submit(block_bytes, starts[ahead])
                ahead += 1
            job = pending.pop(b, None)
            if job is None or job.cancel():   # not started: format it here
                part, held_gil = block_bytes(lo)
            else:
                part, held_gil = job.result()
            serial |= held_gil
            yield part
    finally:
        for job in pending.values():
            job.cancel()
        wait(pending.values())
    yield b"\n"


def episode_to_csv(episode: AnalogEpisode, path: str | Path | None = None) -> str:
    """Render an episode as columnar CSV text (and optionally write it).

    Incomplete episodes leave the echo columns empty.  Every float is
    written as ``repr(float(v))``, the shortest text that parses back to
    v, so equal episodes serialize to byte-identical text.  The digits come
    from exact integer arithmetic over a whole block of rows at a time;
    a value that arithmetic cannot certify (0, inf, nan, subnormals, an
    integral value or a tie, a power-of-two mantissa, |v| below about 1e-10
    or from 2**52) is formatted by ``repr`` itself.  The blocks are
    formatted on the CPUs the process may use; the text never depends on
    how many there are.  Every field is an int, a repr float or empty, so
    none ever needs CSV quoting.  The file holds exactly the returned text,
    encoded as ASCII, with '\\n' line ends on every platform.  A batch
    episode has no row layout and raises ``ParamError``.
    """
    text = b"".join(_episode_csv_parts(episode))
    if path is not None:
        Path(path).write_bytes(text)
    return text.decode("ascii")
