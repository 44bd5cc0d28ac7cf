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

Every complex Gaussian is composed from its standard normals by one
kernel, ``_compose``, and h_BA from h_AB by another, ``_mix``.  The gains
of ``sample_channels`` come from one ``_cnormal_rows`` call; those of
``sample_channel_batch`` from one normals scratch, composed straight into
their arrays or, for squared magnitudes, a chunk of draws at a time, so
that no complex batch is held.  The probing and the echo phase each draw
their three roles in turn on the calling thread, every seed of a batch in
one call.  Each role reads only its own streams, so an episode has the
same bits whichever thread runs it.  Only the public functions turn seeds
into the Philox keys of their roles' streams, with one
``seeds._role_keys`` call, which decides how one seed and a batch are
keyed; each private stage takes its roles' key rows.
"""
from __future__ import annotations

import math
import threading
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import _workers
from .params import ChannelRealization, ParamError, SystemParams, _integer
from .seeds import _one_value, _role_keys, _streams

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
    """The seeds of a call and whether they make a batch; a seed that is
    not a sequence is the batch of one, whose trial axis the caller drops."""
    if _one_value(rng_seed):
        return [rng_seed], False
    seeds = list(rng_seed)
    if not seeds:
        raise ParamError("a seed sequence needs at least one seed")
    return seeds, True


def _check_batch(shape: tuple, n_seeds: int, batched: bool) -> None:
    """Raise ParamError unless the gains or signals have the batch shape of
    the seeds: () for an int seed, (T,) for T seeds."""
    want = (n_seeds,) if batched else ()
    if shape != want:
        raise ParamError(f"batch shape {shape} does not match the seeds, "
                         f"which give {want}")


#: the stream roles of each stage of an episode, in the order drawn
_CHANNEL_ROLES = ("channels",)
_PROBE_ROLES = ("probe", "noise_ea", "noise_b")
_ECHO_ROLES = ("secret", "noise_va", "noise_ve")


def _compose(re: np.ndarray, im: np.ndarray, var: float,
             out: np.ndarray) -> np.ndarray:
    """CN(0, var) samples sqrt(var/2) * (re + 1j * im) of the standard
    normals ``re`` and ``im`` into the complex array ``out``, each part one
    product with sqrt(var/2)."""
    scale = np.sqrt(var / 2.0)
    np.multiply(re, scale, out=out.real)
    np.multiply(im, scale, out=out.imag)
    return out


def _cnormal_rows(keys: np.ndarray, batched: bool,
                  normals: list[np.ndarray | None], var: float
                  ) -> list[np.ndarray]:
    """CN(0, var) samples for each of the T (T, 2) key rows ``keys`` into
    each buffer of ``normals`` in turn: buffer k, ``np.empty((T, 2,
    *shape_k))``, gives the new (T, *shape_k) array k, row t one fill of
    the stream keyed by ``keys[t]``, real and then imaginary parts
    (``_compose``); without ``batched`` it drops its trial axis.  Once its
    last row is filled, a buffer leaves ``normals`` and is composed into
    its array, so a caller that passes its only reference frees it."""
    out = [np.empty((b.shape[0], *b.shape[2:]), complex) for b in normals]
    for t, rng in enumerate(_streams(keys), 1):
        for k, z in enumerate(out):
            rng.standard_normal(out=normals[k][t - 1])
            if t == len(keys):
                _compose(normals[k][:, 0], normals[k][:, 1], var, z)
                normals[k] = None
    return out if batched else [z[0] for z in out]


def _phase_signals(keys: np.ndarray, batched: bool,
                   roles: Sequence[tuple[tuple, float]]) -> list[np.ndarray]:
    """The ``_cnormal_rows`` array of each (shape, var) of one phase's
    roles, role r drawn from its key rows ``keys[r]`` (``_role_keys``).
    The roles are drawn in turn, but every role's normals buffer is made
    before the first draw: made one role at a time, they raised the oracle
    suite's peak RSS."""
    normals = [[np.empty((keys.shape[1], 2, *shape))] for shape, _ in roles]
    return [_cnormal_rows(rows, batched, buf, var)[0]
            for rows, (_, var), buf in zip(keys, roles, normals)]


# =====================================================================
# Channel sampling
# =====================================================================

#: draws of a squared batch composed per step (``_batch_gains``)
_CHUNK = 16_384


def _mix(rho: complex, h_AB: np.ndarray, w: np.ndarray) -> None:
    """h_BA = conj(rho) h_AB + sqrt(1-|rho|^2) w of the CN(0, 1) gains
    h_AB and w, formed in w's slot: E{h_AB conj(h_BA)} = rho exactly."""
    rho = complex(rho)
    np.multiply(np.sqrt(1.0 - abs(rho) ** 2), w, out=w)
    np.add(np.conj(rho) * h_AB, w, out=w)


def sample_channels(params: SystemParams,
                    rng_seed: int | Sequence[int]) -> ChannelRealization:
    """Draw one joint realization of every channel gain: the single draw of
    ``sample_channel_batch(params, rng_seed, 1)``.

    A sequence of T seeds gives a batch realization of T such draws:
    h_AB and h_BA of shape (T,), g_A and g_B of shape (T, n_E).
    """
    seeds, batched = _seeds(rng_seed)
    return _sample_channels(params, _role_keys(seeds, _CHANNEL_ROLES)[0],
                            batched)


def _sample_channels(params: SystemParams, keys: np.ndarray, batched: bool
                     ) -> ChannelRealization:
    """``sample_channels`` of the seeds keyed by the (T, 2) rows ``keys``
    of their "channels" streams.  Each stream draws h_AB, w, g_A and g_B,
    all CN(0, 1), and h_BA is ``_mix``'s; each seed draws all four gains
    in turn, so each gain keeps a normals buffer of every seed."""
    normals = [np.empty((len(keys), 2, *shape))
               for shape in ((), (), (params.n_E,), (params.n_E,))]
    gains = _cnormal_rows(keys, True, normals, 1.0)
    _mix(params.rho, gains[0], gains[1])
    if batched:
        return ChannelRealization(*gains)
    h_AB, h_BA, g_A, g_B = (g[0] for g in gains)
    return ChannelRealization(complex(h_AB), complex(h_BA), g_A, g_B)


def _batch_gains(params: SystemParams, keys: np.ndarray, n: int,
                 squared: bool) -> list[np.ndarray]:
    """h_AB, h_BA, g_A and g_B of n draws of the seed whose "channels"
    stream is keyed by ``keys`` (one row): (n,), (n,), (n, n_E) and (n,
    n_E) complex arrays, or with ``squared`` float arrays of their squared
    magnitudes, np.square(np.abs(gain)) bit for bit.

    The stream draws the gains in the order of ``_sample_channels``, one
    whole fill each, into one normals scratch of max(2 n n_E, 4 n) floats
    (3.2 MB at 10^5 draws and n_E 2): h_AB's and w's side by side, since
    ``_mix`` reads both, then g_A's and then g_B's, each fill composed
    (``_compose``) before the next.  Complex gains are composed straight
    into their arrays.  Squared ones are composed ``_CHUNK`` draws at a
    time into one complex work buffer and squared from there, so no
    complex batch is held."""
    shapes = ((n,), (n,), (n, params.n_E), (n, params.n_E))
    gains = [np.empty(shape, float if squared else complex)
             for shape in shapes]
    scratch = np.empty(max(2 * n * params.n_E, 4 * n))
    step = min(n, _CHUNK) if squared else n
    work = np.empty(step * max(2, params.n_E), complex) if squared else None
    rng = next(_streams(keys))
    for group in ((0, 1), (2,), (3,)):
        normals = []
        for k in group:
            size = 2 * math.prod(shapes[k])
            normals.append(scratch[len(normals) * size:][:size]
                           .reshape(2, *shapes[k]))
            rng.standard_normal(out=normals[-1])
        for a in range(0, n, step):
            zs = []
            for buf, k in zip(normals, group):
                out = gains[k][a:a + step]
                if squared:
                    size = out.size
                    out = work[len(zs) * size:][:size].reshape(out.shape)
                zs.append(_compose(buf[0, a:a + step], buf[1, a:a + step],
                                   1.0, out))
            if len(zs) == 2:
                _mix(params.rho, *zs)
            if squared:
                for z, k in zip(zs, group):
                    power = np.abs(z, out=gains[k][a:a + step])
                    np.square(power, out=power)
    return gains


def sample_channel_batch(params: SystemParams, rng_seed: int, n_draws: int,
                         squared: bool = False):
    """Vectorized channel draws for Monte Carlo averaging.

    h_AB ~ CN(0,1) and h_BA from it as in ``_sample_channels``; Eve's
    gains g_A, g_B are i.i.d. CN(0,1).

    Returns:
        tuple ``(h_AB, h_BA, g_A, g_B)`` with shapes (n,), (n,), (n, n_E),
        (n, n_E).  The batch for a given ``(params, rng_seed, n_draws)`` is
        deterministic.  With ``squared`` True the tuple holds the float
        squared magnitudes |h_AB|^2, |h_BA|^2, |g_A|^2 and |g_B|^2 of that
        batch instead, each ``np.square(np.abs(gain))`` bit for bit,
        built without holding the complex batch (``_batch_gains``).  A
        ``squared`` that is not a bool raises ``ParamError``.
    """
    n_draws = _integer("n_draws", n_draws, 1)
    if not isinstance(squared, bool):
        raise ParamError(f"squared must be a bool, got {squared!r}")
    keys = _role_keys([rng_seed], _CHANNEL_ROLES)[0]
    return tuple(_batch_gains(params, keys, n_draws, squared))


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
    seeds, batched = _seeds(rng_seed)
    return _run_probing(params, realization, _role_keys(seeds, _PROBE_ROLES),
                        batched)


def _run_probing(params: SystemParams, realization: ChannelRealization,
                 keys: np.ndarray, batched: bool) -> AnalogEpisode:
    """``run_probing`` of the seeds, keyed by the key rows of
    ``_PROBE_ROLES`` as in ``_phase_signals``."""
    realization.check_for(params)
    if params.m_A < 1:
        raise SimulationError("nothing to probe: m_A must be >= 1")
    _check_batch(np.shape(realization.h_BA), keys.shape[1], batched)
    m = params.m_A
    x_A, w_EA, w_B = _phase_signals(keys, batched, [
        ((m,), params.p_A), ((params.n_E, m), params.sigma_EA2),
        ((m,), params.sigma_B2)])
    y_B = np.expand_dims(realization.h_BA, -1) * x_A + w_B
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
    seeds, batched = _seeds(rng_seed)
    return _run_echo(params, episode, _role_keys(seeds, _ECHO_ROLES), batched)


def _run_echo(params: SystemParams, episode: AnalogEpisode,
              keys: np.ndarray, batched: bool) -> AnalogEpisode:
    """``run_echo`` of the seeds, keyed by the key rows of ``_ECHO_ROLES``
    as in ``_phase_signals``."""
    if episode.complete:
        raise SimulationError("episode already contains an echo phase")
    if not (params.eps_A > 0 and params.eps_E > 0):
        raise SimulationError("run_echo requires eps_A > 0 and eps_E > 0")
    _check_batch(episode.x_A.shape[:-1], keys.shape[1], batched)
    m = episode.m_A
    s, v_A, v_E = _phase_signals(keys, batched, [
        ((m,), params.sigma_s2), ((m,), params.eps_A), ((m,), params.eps_E)])
    r = episode.y_B + s
    return replace(episode, s=s, r=r, y_AB=r + v_A, y_EB=r + v_E)


def simulate_episode(params: SystemParams,
                     rng_seed: int | Sequence[int]) -> AnalogEpisode:
    """Sample channels, probe, and echo under one seed, or as one batch
    under a sequence of seeds (see the module docstring).

    Each stage draws its own role-tagged streams of ``rng_seed``, so the
    result is identical to calling the three stages with the same seed.
    The keys of all seven roles' streams come from one ``seeds._role_keys``
    call here, which checks each seed once and keys one seed with
    ``SeedSequence`` and a batch with one hash pass; each stage gets its
    roles' key rows.
    """
    seeds, batched = _seeds(rng_seed)
    keys = _role_keys(seeds, _CHANNEL_ROLES + _PROBE_ROLES + _ECHO_ROLES)
    realization = _sample_channels(params, keys[0], batched)
    episode = _run_probing(params, realization, keys[1:4], batched)
    return _run_echo(params, episode, keys[4:], batched)


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


#: Rows formatted per block.  Each numpy call of the CSV kernels, some 130
#: per block, hands the GIL to the other formatting thread and back, so a
#: larger block waits less per value.  Whole columns would raise peak
#: memory, and 3,072 or 4,096 rows took longer per episode at m_A 2·10^4 on
#: a 2-vCPU VM.
_CSV_BLOCK_ROWS = 2048

_U, _I = np.uint64, np.int64


def _ascii_quads() -> np.ndarray:
    """The four ASCII digits of each i < 10**4, zero-padded, as the value of
    a little-endian word: the first digit is the lowest byte."""
    i = np.arange(10_000, dtype=_U)
    digits = i[:, None] // _U(10) ** np.arange(3, -1, -1, dtype=_U) % _U(10)
    return ((digits + _U(48)) << _U(8) * np.arange(4, dtype=_U)).sum(
        axis=1, dtype=_U)


def _float_field_words() -> tuple[np.ndarray, ...]:
    """The byte tables of a 32-byte float field, per field word: the masks
    of the digit words' first and second copy and the fixed bytes, as
    little-endian word values in rows 2 * ((dp + 9) * 18 + nd) + s for a
    value (-1)**s 0.d0d1...d(nd-1) * 10**dp with dp in [-9, 16] and nd in
    [0, 17].

    The digit words hold '000' and 17 digits.  Bytes: 3-18 the first copy
    of the digits, kept below ``cut``; from 8 on the second copy, kept from
    ``cut`` below nd (digit d at 11 + d), after a '.' at 10 + cut, or after
    '0.' and up to three zeros when -3 <= dp <= 0; then 'e-XX' when
    dp <= -4; and the ',' and any '-' just before the text.  ``cut`` is dp
    in '123.45', 0 in '0.00123' and 1 in '1.5e-07'.  A field's text so
    comes in one run below 1, ',-0.00123', and in two from 1 on, ',12'
    '.345' and ',1' '.5e-07'.
    """
    dp = np.arange(-9, 17)[:, None, None, None]
    nd = np.arange(18)[:, None, None]
    sign = np.arange(2)[:, None]
    byte = np.arange(32)
    cut = np.where(dp >= 1, dp, np.where(dp >= -3, 0, 1))
    first = (byte >= 3) & (byte - 3 < cut)
    second = (byte - 11 >= cut) & (byte - 11 < nd)
    # the text starts with a digit at byte 3 or with '0.' right before the
    # second copy
    start = np.where(cut >= 1, 3, 9 + dp)
    prefix = np.frombuffer(b"0.000", np.uint8).take(
        np.clip(byte - start, 0, 4))
    chars = np.where((cut == 0) & (byte >= start) & (byte < 11), prefix, 0)
    chars = np.where((byte == 10 + cut) & (cut >= 1) & (nd > cut), ord("."),
                     chars)
    e = 1 - dp
    for k, c in enumerate((ord("e"), ord("-"), 48 + e // 10, 48 + e % 10)):
        chars = np.where((byte == 11 + nd + k) & (dp <= -4), c, chars)
    chars = np.where(byte == start - 1 - sign, ord(","), chars)
    chars = np.where((byte == start - 1) & (sign == 1), ord("-"), chars)
    shape = (26, 18, 2, 32)
    return tuple(
        np.ascontiguousarray(np.broadcast_to(a, shape), np.uint8)
        .view("<u8").reshape(-1, 4).T.astype(_U)
        for a in (np.where(first, 255, 0), np.where(second, 255, 0), chars))


_QUADS = _ascii_quads()
_POW5 = _U(5) ** np.arange(27, dtype=_U)
_POW5_FLOAT = np.array([float(5**q) for q in range(27)])
_FIRST, _SECOND, _FIXED = _float_field_words()
#: _LEAD_MASK[c] keeps the last c bytes of a little-endian word
_LEAD_MASK = np.array([2**64 - 2**(64 - 8 * c) for c in range(9)], _U)
_POW10 = _I(10) ** np.arange(1, 19, dtype=_I)


class _CsvScratch:
    """The arrays one thread's CSV kernels work in, made once and reused:
    six uint64 registers, a float64 values array and two bool flags of
    ``size`` elements each, viewed ``[:n]`` for a partial block and written
    with ufunc ``out=``, so that formatting a block allocates nothing of its
    size.  The same bytes later hold the block's zero-byte mask, which fits:
    a row takes 56 bytes a value here, and in the block 32 a value and at
    most 24 for its index.
    """

    def __init__(self, size: int):
        self.size = size
        self._words = np.empty(7 * size, _U)
        self._flags = np.empty((2, size), bool)

    def registers(self, n: int) -> list[np.ndarray]:
        return [self._words[k * self.size:k * self.size + n]
                for k in range(6)]

    def values(self, n: int) -> np.ndarray:
        """The kernels' input, which they only read."""
        return self._words[6 * self.size:6 * self.size + n].view(np.float64)

    def flags(self, n: int) -> list[np.ndarray]:
        return [f[:n] for f in self._flags]

    def mask(self, n: int) -> np.ndarray:
        return self._words.view(bool)[:n]


def _scaled(flat: np.ndarray, scratch: _CsvScratch) -> tuple[np.ndarray, ...]:
    """Each float64 v of flat as v' = |v| 10**q = I + R / 2**t exactly.

    |v| = m 2**e, q = 16 - floor(log10 |v|) puts v' in [1e16, 1e17), and
    I and R come from the 128-bit product P = m 5**q shifted by t = -(e + q).
    Returns ``ok`` (False where the guard sends v to ``repr``), q, I, 2R,
    t + 1 and 5**q, in ``scratch``'s first flag and registers 0-4: an
    integer C rounds to |v| iff |(C - I) 2**(t+1) - 2R| < 5**q.  The two
    sides are never equal, one even and one odd, so parsing's
    round-half-to-even never decides.

    P's low word is the wrapped uint64 product.  Its high word is the
    nearest integer to (fl(m fl(5**q)) - fl(low)) / 2**64: P < 2**113.4, so
    the float product misses P by under 2**61.4 and the difference rounds
    by under 2**60, together less than 0.2 of 2**64.

    The guard: 0, subnormals, inf and nan; a power-of-two mantissa, whose
    rounding interval is not symmetric; q outside [1, 26], so that 5**q
    fits in 64 bits, or t < 1 (about |v| < 1e-10 or |v| >= 2**52); R = 0
    or 2**(t-1), a tie (every integral v has R = 0); and a log10 that
    missed the decade.  Then t <= 60, and every integer fits in int64.
    """
    r0, r1, r2, r3, r4, _ = scratch.registers(flat.size)
    ok, flag = scratch.flags(flat.size)
    bits = flat.view(_U)
    biased = np.right_shift(bits, _U(52), out=r0)
    biased &= _U(0x7FF)
    m = np.bitwise_and(bits, _U((1 << 52) - 1), out=r1)
    np.less(np.subtract(biased, _U(1), out=r2), _U(0x7FE), out=ok)
    ok &= np.not_equal(m, _U(0), out=flag)
    # the guard discards q and t where ok is already False
    log = r2.view(np.float64)
    q = r3.view(_I)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log10(np.abs(flat, out=log), out=log)
        np.subtract(16.0, np.floor(log, out=log), out=q, casting="unsafe")
    t = np.subtract(_I(1075), biased.view(_I), out=r2.view(_I))
    t -= q
    # 1 <= q <= 26 as q - 1 < 26 unsigned
    ok &= np.less(np.subtract(r3, _U(1), out=r0), _U(26), out=flag)
    ok &= np.greater_equal(t, _I(1), out=flag)
    np.logical_not(ok, out=flag)
    np.copyto(q, _I(16), where=flag)
    np.copyto(t, _I(36), where=flag)
    t = r2
    m |= _U(1 << 52)
    low = np.multiply(m, np.take(_POW5, q, out=r0, mode="clip"), out=r0)
    estimate = r4.view(np.float64)
    np.multiply(m, np.take(_POW5_FLOAT, q, out=estimate, mode="clip"),
                out=estimate)
    estimate -= low
    estimate *= 2.0 ** -64
    high = np.rint(estimate, out=r1, casting="unsafe")
    whole = high
    whole <<= np.subtract(_U(64), t, out=r4)
    whole |= np.right_shift(low, t, out=r4)
    rest = low
    rest &= np.subtract(np.left_shift(_U(1), t, out=r4), _U(1), out=r4)
    # 1e16 <= whole < 1e17 as whole - 1e16 < 9e16 unsigned
    ok &= np.less(np.subtract(whole, _U(10**16), out=r4), _U(9 * 10**16),
                  out=flag)
    ok &= np.not_equal(rest, _U(0), out=flag)
    half = np.left_shift(_U(1), np.subtract(t, _U(1), out=r4), out=r4)
    ok &= np.not_equal(rest, half, out=flag)
    rest <<= _U(1)
    t += _U(1)
    p5 = np.take(_POW5, q, out=r4, mode="clip")
    return ok, q, whole.view(_I), rest.view(_I), t.view(_I), p5.view(_I)


def _shortest(flat: np.ndarray, scratch: _CsvScratch
              ) -> tuple[np.ndarray, ...]:
    """repr's digits of each float64 of flat: ``ok`` and q of ``_scaled``,
    the digits as a 17-digit integer and the count of significant ones, in
    ``scratch`` (registers 3, 0 and 1).

    They are the nearest multiple of 10**j to v' for the largest j at which
    that multiple still rounds to |v|.
    """
    ok, q, whole, two_r, shift, p5 = _scaled(flat, scratch)
    _, r1, r2, _, _, r5 = (r.view(_I) for r in scratch.registers(flat.size))
    _, flag = scratch.flags(flat.size)
    # the integers that round to |v| are up - span .. up
    above = np.add(two_r, p5, out=r5)
    above >>= shift
    span = p5
    span -= two_r
    span >>= shift
    span += above
    up = np.add(whole, above, out=r5)
    # j = 0: the nearest integer, always inside since 2**(e-1) 10**q > 1/2
    dec = two_r
    shift -= _I(1)
    dec >>= shift
    dec += whole
    # j = 1: the nearest multiple of 10, when some multiple is inside
    last = _mod(whole, _I(10), r2)
    whole -= last
    np.add(whole, _I(10), out=whole,
           where=np.greater_equal(last, _I(5), out=flag))
    ten = np.less_equal(_mod(up, _I(10), r2), span, out=flag)
    np.copyto(dec, whole, where=ten)
    nd = np.subtract(_I(17), ten, out=r1)
    # j >= 2: at most one multiple of 10**j is inside, as span < 2 * 11.2,
    # and it is up rounded down; only the ups with a multiple of 1000 inside
    # can have j > 2
    many = np.flatnonzero(np.less_equal(_mod(up, _I(100), r2), span,
                                        out=flag))
    if many.size:
        u, s = up.take(many), span.take(many)
        j = np.full(many.size, 2, _I)
        deep = np.flatnonzero(u % _I(1000) <= s)
        j[deep] = 1 + (u.take(deep)[:, None] % _POW10[1:16]
                       <= s.take(deep)[:, None]).sum(1)
        dec[many] = u - u % _POW10.take(j - 1)
        nd[many] = 17 - j
    ok &= np.less(dec, _I(10**17), out=flag)
    return ok, q, dec, nd


def _mod(x: np.ndarray, d: np.int64, out: np.ndarray) -> np.ndarray:
    """x - x // d * d into out: three passes that divide by a constant,
    faster than one ``%``."""
    np.floor_divide(x, d, out=out)
    out *= d
    return np.subtract(x, out, out=out)


def _csv_float_fields(x: np.ndarray, out: np.ndarray,
                      scratch: _CsvScratch) -> int:
    """Write ',' and ``repr(float(v))`` for each v of the C-contiguous
    float64 array x into the 32-byte field ``out[idx]`` (four little-endian
    words, shape ``x.shape + (4,)``), leaving zero bytes between the runs of
    text, and return how many values took the guard's ``repr`` (see
    ``_scaled``).  The work arrays are ``scratch``'s, of at least x.size
    elements; x may be its ``values``.  Each word of out is written once,
    from the registers.
    """
    flat = x.reshape(-1)
    ok, q, dec, nd = _shortest(flat, scratch)
    r0, r1, r2, r3, r4, r5 = (r.view(_I) for r in
                              scratch.registers(flat.size))
    # the tables' row: 2 * ((dp + 9) * 18 + nd) + s for the sign bit s
    row = np.subtract(_I(26), q, out=r3)
    row *= _I(36)
    row += nd
    row += nd
    row += np.right_shift(flat.view(_U), _U(63), out=r1.view(_U)).view(_I)
    # the 17 digits as '000' + 1 + 4 + 4 + 4 + 4, quads i0 .. i4 of dec,
    # in three words: i0 and i1, i2 and i3, i4
    a = np.floor_divide(dec, _I(10**12), out=r1)
    b = np.floor_divide(a, _I(10**4), out=r2)                     # i0
    word0 = np.take(_QUADS, b, out=r4.view(_U), mode="clip")
    a -= np.multiply(b, _I(10**4), out=r2)                        # i1
    word0 |= np.left_shift(np.take(_QUADS, a, out=r2.view(_U), mode="clip"),
                           _U(32), out=r2.view(_U))
    a = np.floor_divide(dec, _I(10**4), out=r1)
    b = np.floor_divide(a, _I(10**4), out=r2)
    a -= np.multiply(b, _I(10**4), out=r5)                        # i3
    b -= np.multiply(np.floor_divide(b, _I(10**4), out=r5), _I(10**4),
                     out=r5)                                      # i2
    word1 = np.take(_QUADS, b, out=r5.view(_U), mode="clip")
    word1 |= np.left_shift(np.take(_QUADS, a, out=r2.view(_U), mode="clip"),
                           _U(32), out=r2.view(_U))
    dec -= np.multiply(np.floor_divide(dec, _I(10**4), out=r1), _I(10**4),
                       out=r1)                                    # i4
    word2 = np.take(_QUADS, dec, out=r2.view(_U), mode="clip")
    digits = (word0, word1, word2)
    part, chars = r0.view(_U), r1.view(_U)
    # field word w: the first copy of digit word w (w < 3), the second of
    # w - 1 (w > 0) and the fixed bytes
    for w in range(4):
        np.take(_FIXED[w], row, out=part, mode="clip")
        if w < 3:
            np.take(_FIRST[w], row, out=chars, mode="clip")
            chars &= digits[w]
            part |= chars
        if w > 0:
            np.take(_SECOND[w], row, out=chars, mode="clip")
            chars &= digits[w - 1]
            part |= chars
        out[..., w] = part.reshape(x.shape)
    if ok.all():
        return 0
    fallback = np.flatnonzero(~ok)
    text = np.zeros((fallback.size, 32), np.uint8)
    text[:, 0] = ord(",")
    text[:, 1:] = np.array([repr(v) for v in flat.take(fallback).tolist()],
                           "S31").view(np.uint8).reshape(-1, 31)
    out[np.unravel_index(fallback, x.shape)] = text.view("<u8")
    return fallback.size


def _csv_row_starts(k: np.ndarray, out: np.ndarray) -> None:
    """Write '\\n' and the decimal of each k, right-aligned in the words of
    its row of out, shape (k.size, words)."""
    n_words = out.shape[1]
    n_digits = np.searchsorted(_POW10, k, side="right") + 1
    for w in range(n_words - 1, -1, -1):
        k, eight = k // _I(10**8), k % _I(10**8)
        out[:, w] = (_QUADS.take(eight // _I(10**4))
                     | (_QUADS.take(eight % _I(10**4)) << _U(32)))
        out[:, w] &= _LEAD_MASK.take(
            np.clip(n_digits - 8 * (n_words - 1 - w), 0, 8))
    out[:, 0] |= _U(ord("\n"))


def _episode_csv_parts(episode: AnalogEpisode) -> Iterator:
    """The bytes of ``episode_to_csv``'s text in order: the header, each
    block of ``_CSV_BLOCK_ROWS`` rows, then the final '\\n'.

    ``_workers.in_order`` formats the blocks on every usable CPU, the pool
    running ahead of the thread that takes and writes them.  A block of
    2,048 rows makes one kernel call per run of signals, of some 130 numpy
    calls, each a GIL handoff, for 2,048 rows' values.  Each thread formats
    into its own block and ``_CsvScratch``, made at its first block of this
    call and viewed ``[:n]`` for a last, partial block, so the bytes never
    depend on the CPUs and a block allocates only its text.
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
    width = 2 * len(signals)   # float fields per row
    # a row: '\n' ending the line before, the index, then 32-byte fields
    n_start = (len(str(m - 1)) + 8) // 8
    local = threading.local()   # each thread's buffers

    def block_bytes(lo: int) -> np.ndarray:
        bufs = getattr(local, "bufs", None)
        if bufs is None:
            block = np.zeros((rows, 8 * n_start + 32 * width), np.uint8)
            words = block.view("<u8")
            fields = words[:, n_start:].reshape(rows, width, 4)
            fields[..., 0] = ord(",")  # an empty field
            bufs = local.bufs = (block, words, fields,
                                 _CsvScratch(rows * width))
        block, words, fields, scratch = bufs
        n = min(rows, m - lo)
        for a, b in runs:
            # the run's values as n rows of b - a complex
            x = scratch.values(2 * (b - a) * n).reshape(n, 2 * (b - a))
            z = x.view(complex)
            for i in range(a, b):
                z[:, i - a] = signals[i][lo:lo + n]
            _csv_float_fields(x, fields[:n, 2 * a:2 * b], scratch)
        _csv_row_starts(np.arange(lo, lo + n, dtype=_I), words[:n, :n_start])
        flat = block[:n].reshape(-1)
        return flat[np.not_equal(flat, 0, out=scratch.mask(flat.size))]

    yield from _workers.in_order(block_bytes, range(0, m, _CSV_BLOCK_ROWS),
                                 _workers.usable_cpus())
    yield b"\n"


def episode_to_csv(episode: AnalogEpisode) -> str:
    """Render an episode as columnar CSV text.

    Incomplete episodes leave the echo columns empty.  Every float is
    written as ``repr(float(v))``, the shortest text that parses back to
    v, so equal episodes serialize to byte-identical text.  The digits come
    from exact integer arithmetic over a whole block of rows at a time;
    a value that arithmetic cannot certify (0, inf, nan, subnormals, an
    integral value or a tie, a power-of-two mantissa, |v| below about 1e-10
    or from 2**52) is formatted by ``repr`` itself.  The blocks are
    formatted on the CPUs the process may use, each thread in its own work
    arrays, reused from block to block; the text never depends on how many
    CPUs there are.  A block is ``_CSV_BLOCK_ROWS`` (2,048) rows, so that
    each numpy call, and with it each handoff of the GIL between the
    formatting threads, covers 2,048 rows.  Every field is an int, a repr
    float or empty, so none ever needs CSV quoting; the text is ASCII with
    '\\n' line ends.  A batch episode has no row layout and raises
    ``ParamError``.
    """
    return b"".join(_episode_csv_parts(episode)).decode("ascii")
