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

from collections.abc import Sequence
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


def episode_to_csv(episode: AnalogEpisode, path: str | Path | None = None) -> str:
    """Render an episode as columnar CSV text (and optionally write it).

    Incomplete episodes leave the echo columns empty.  Floats use repr-level
    precision, so equal episodes serialize to byte-identical text.  Every
    field is an int, a repr float or empty, so none ever needs CSV quoting.
    A batch episode has no row layout and raises ``ParamError``.
    """
    if episode.x_A.ndim != 1:
        raise ParamError("episode_to_csv writes one episode, got a batch of "
                         f"{episode.x_A.shape[0]}")
    n_e = np.asarray(episode.realization.g_A).shape[0]
    header = list(EPISODE_CSV_COLUMNS)
    for i in range(n_e):
        header += [f"e_A{i}_re", f"e_A{i}_im"]
    signals = (episode.x_A, episode.y_B, episode.s, episode.r,
               episode.y_AB, episode.y_EB, *episode.e_A)
    blocks = [",".join(header) + "\n"]
    for lo in range(0, episode.m_A, _CSV_BLOCK_ROWS):
        hi = min(lo + _CSV_BLOCK_ROWS, episode.m_A)
        cols = [map(str, range(lo, hi))]
        for z in signals:
            if z is None:
                cols += [[""] * (hi - lo)] * 2
            else:
                cols += [map(repr, z.real[lo:hi].tolist()),
                         map(repr, z.imag[lo:hi].tolist())]
        blocks.append("".join([",".join(row) + "\n" for row in zip(*cols)]))
    text = "".join(blocks)
    del blocks  # the file write encodes one more copy of the text
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text
