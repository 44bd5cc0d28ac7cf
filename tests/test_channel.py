"""Channel sampling statistics, episode simulation, and CSV export."""
import csv
import dataclasses
import hashlib
import io
import itertools
import os
import signal
import stat
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steeplab import (ParamError, SimulationError, SystemParams, _workers,
                      channel, episode_to_csv, run_echo, run_probing,
                      sample_channel_batch, sample_channels,
                      simulate_episode, validate)
from steeplab.channel import (EPISODE_CSV_COLUMNS, _csv_float_fields,
                              _csv_row_starts)
from steeplab.cli import main
from steeplab.seeds import _state, stream, subseed


def test_gain_variance_split():
    # every gain is CN(0, 1): real and imaginary parts each of variance 1/2
    p = dataclasses.replace(SystemParams(), rho=0.3 + 0.4j)
    for z in sample_channel_batch(p, 0, 100_000):
        assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.02
        assert abs(np.var(z.real) - 0.5) < 0.015
        assert abs(np.var(z.imag) - 0.5) < 0.015
        assert abs(np.mean(z)) < 0.02


def _reference_cn(rng, shape, var):
    """CN(0, var) samples as specified: one fill of real and then imaginary
    normals, times sqrt(var/2)."""
    re, im = rng.standard_normal((2, *shape))
    return np.sqrt(var / 2) * (re + 1j * im)


def _reference_channel_batch(params, rng_seed, n):
    """The channel batch drawn gain by gain from one "channels" stream:
    h_AB, w, g_A and g_B, with h_BA = conj(rho) h_AB + sqrt(1-|rho|^2) w."""
    rng = stream(rng_seed, "channels")
    h_ab, w = _reference_cn(rng, (n,), 1.0), _reference_cn(rng, (n,), 1.0)
    g_a = _reference_cn(rng, (n, params.n_E), 1.0)
    g_b = _reference_cn(rng, (n, params.n_E), 1.0)
    rho = complex(params.rho)
    h_ba = np.conj(rho) * h_ab + np.sqrt(1.0 - abs(rho) ** 2) * w
    return h_ab, h_ba, g_a, g_b


@pytest.mark.parametrize("rho, n_E", [(0.5, 1), (0.3 + 0.4j, 3), (-0.6j, 2),
                                      (0.8, 9)])
def test_channel_batch_layout(rho, n_E):
    p = SystemParams(rho=rho, n_E=n_E)
    # 4097 draws at n_E 9: the one-seed scratch is sized by Eve's gains
    for seed, n in ((0, 1), (3, 17), ((1 << 64) - 1, 1000), (5, 4097)):
        got = sample_channel_batch(p, seed, n)
        for a, b in zip(got, _reference_channel_batch(p, seed, n)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_E", [1, 2, 3])
@pytest.mark.parametrize("rho", [0.7, 0.6 + 0.3j, 0])
def test_squared_batch_is_the_squared_magnitude_of_the_complex_one(rho, n_E):
    # squared gains are composed chunk by chunk, never as a complex batch:
    # each is np.square(np.abs(gain)) of the complex return, byte for byte,
    # on either side of a chunk boundary
    p = SystemParams(rho=rho, n_E=n_E)
    chunk = channel._CHUNK
    for n in (1, chunk - 1, chunk, chunk + 1, 100_000):
        for seed in (0, 20231):
            squared = sample_channel_batch(p, seed, n, True)
            for a, z in zip(squared, sample_channel_batch(p, seed, n)):
                want = np.square(np.abs(z))
                assert a.dtype == want.dtype and a.shape == want.shape
                assert a.tobytes() == want.tobytes()


def test_sample_channels_deterministic():
    p = SystemParams()
    a = sample_channels(p, 42)
    b = sample_channels(p, 42)
    assert a.h_AB == b.h_AB and a.h_BA == b.h_BA
    assert np.array_equal(a.g_A, b.g_A)
    assert sample_channels(p, 43).h_AB != a.h_AB


@pytest.mark.parametrize("n_E", [1, 3])
@pytest.mark.parametrize("rho", [0.5, 0.3 + 0.4j, 0.2j])
def test_sample_channels_is_the_batch_of_one(rho, n_E):
    # numpy rounds a scalar complex product unlike an array one: a scalar
    # h_BA formula would differ in the last bit at rho = 0.3+0.4j, seed 2
    p = SystemParams(rho=rho, n_E=n_E)
    for seed in range(20):
        r = sample_channels(p, seed)
        h_ab, h_ba, g_a, g_b = sample_channel_batch(p, seed, 1)
        assert (r.h_AB, r.h_BA) == (h_ab[0], h_ba[0])
        assert r.g_A.tobytes() == g_a[0].tobytes()
        assert r.g_B.tobytes() == g_b[0].tobytes()


def test_channel_correlation_matches_rho():
    # E{h_AB conj(h_BA)} = rho under the construction
    p = dataclasses.replace(SystemParams(), rho=0.3 - 0.4j)
    h_ab, h_ba, _, _ = sample_channel_batch(p, 0, 400_000)
    corr = np.mean(h_ab * np.conj(h_ba))
    assert abs(corr - (0.3 - 0.4j)) < 0.01
    assert abs(np.mean(np.abs(h_ba) ** 2) - 1.0) < 0.01
    assert abs(np.mean(np.abs(h_ab) ** 2) - 1.0) < 0.01


@given(rho=st.complex_numbers(max_magnitude=0.95, allow_nan=False,
                              allow_infinity=False))
@settings(max_examples=20, deadline=None)
def test_channel_unit_variance_any_rho(rho):
    p = validate(dataclasses.replace(SystemParams(), rho=rho))
    _, h_ba, _, _ = sample_channel_batch(p, 7, 100_000)
    assert abs(np.mean(np.abs(h_ba) ** 2) - 1.0) < 0.02


def test_batch_shapes():
    p = dataclasses.replace(SystemParams(), n_E=3)
    h_ab, h_ba, g_a, g_b = sample_channel_batch(p, 0, 17)
    assert h_ab.shape == (17,) and h_ba.shape == (17,)
    assert g_a.shape == (17, 3) and g_b.shape == (17, 3)


def test_batch_rejects_bad_draw_count():
    with pytest.raises(ParamError, match="n_draws"):
        sample_channel_batch(SystemParams(), 0, 0)


@pytest.mark.parametrize("squared", [1, 0, "yes", None, np.True_])
def test_batch_rejects_a_squared_that_is_not_a_bool(squared):
    with pytest.raises(ParamError, match="squared must be a bool"):
        sample_channel_batch(SystemParams(), 0, 10, squared)


# ---------------------------------------------------------------- episodes

def test_probing_requires_probes():
    p = dataclasses.replace(SystemParams(), m_A=0)
    r = sample_channels(p, 0)
    with pytest.raises(SimulationError, match="nothing to probe"):
        run_probing(p, r, 0)


def test_probing_shapes_and_model():
    p = dataclasses.replace(SystemParams(), m_A=50_000, sigma_B2=0.5)
    r = sample_channels(p, 1)
    ep = run_probing(p, r, 2)
    assert ep.x_A.shape == (50_000,)
    assert ep.e_A.shape == (p.n_E, 50_000)
    assert not ep.complete
    noise = ep.y_B - r.h_BA * ep.x_A
    assert abs(np.mean(np.abs(noise) ** 2) - 0.5) < 0.02
    assert abs(np.mean(np.abs(ep.x_A) ** 2) - p.p_A) < 0.02


def test_echo_model_and_guards():
    p = dataclasses.replace(SystemParams(), m_A=50_000)
    ep = simulate_episode(p, 3)
    assert ep.complete
    assert np.array_equal(ep.r, ep.y_B + ep.s)
    assert abs(np.mean(np.abs(ep.y_AB - ep.r) ** 2) - p.eps_A) < 0.03
    assert abs(np.mean(np.abs(ep.s) ** 2) - p.sigma_s2) < 0.02
    with pytest.raises(SimulationError, match="already contains an echo"):
        run_echo(p, ep, 4)


@pytest.mark.parametrize("zero", ["eps_A", "eps_E"])
def test_echo_rejects_zero_return_noise(zero):
    p = dataclasses.replace(SystemParams(), **{zero: 0.0})
    r = sample_channels(p, 0)
    probed = run_probing(p, r, 0)
    with pytest.raises(SimulationError, match="eps_A > 0 and eps_E > 0"):
        run_echo(p, probed, 0)


def test_realization_check_rejects_wrong_antenna_count():
    p = SystemParams()
    r = sample_channels(p, 0)
    p3 = dataclasses.replace(p, n_E=3)
    with pytest.raises(ParamError):
        r.check_for(p3)


def test_simulate_episode_deterministic():
    p = dataclasses.replace(SystemParams(), m_A=64)
    a = simulate_episode(p, 11)
    b = simulate_episode(p, 11)
    assert np.array_equal(a.x_A, b.x_A)
    assert np.array_equal(a.y_EB, b.y_EB)
    c = simulate_episode(p, 12)
    assert not np.array_equal(a.x_A, c.x_A)


def test_probe_and_noise_streams_are_independent():
    # same seed, different roles: streams must not collide
    p = dataclasses.replace(SystemParams(), m_A=1000)
    ep = simulate_episode(p, 5)
    w = ep.y_B - ep.realization.h_BA * ep.x_A
    corr = abs(np.vdot(ep.x_A, w)) / (np.linalg.norm(ep.x_A)
                                      * np.linalg.norm(w))
    assert corr < 0.12


# ---------------------------------------------------------------- batches

SIGNALS = ("x_A", "y_B", "e_A", "s", "r", "y_AB", "y_EB")
GAINS = ("h_AB", "h_BA", "g_A", "g_B")


@pytest.mark.parametrize("m_A", [1, 500])
@pytest.mark.parametrize("n_E", [1, 3])
@pytest.mark.parametrize("rho", [0.5, 0.3 + 0.4j, 0.2j])
def test_batch_episode_is_the_episodes_of_its_seeds(rho, n_E, m_A):
    p = SystemParams(rho=rho, n_E=n_E, m_A=m_A)
    seeds = [subseed(17, "batch", t) for t in range(6)]
    batch = simulate_episode(p, iter(seeds))  # any iterable of seeds
    assert batch.x_A.shape == (6, m_A) and batch.e_A.shape == (6, n_E, m_A)
    assert batch.m_A == m_A and batch.realization.g_A.shape == (6, n_E)
    for t, seed in enumerate(seeds):
        one = simulate_episode(p, seed)
        assert one.x_A.shape == (m_A,) and isinstance(one.realization.h_BA,
                                                      complex)
        for name in SIGNALS:
            assert getattr(batch, name)[t].tobytes() == \
                getattr(one, name).tobytes(), name
        for name in GAINS:
            assert getattr(batch.realization, name)[t].tobytes() == \
                np.asarray(getattr(one.realization, name)).tobytes(), name


def test_batch_of_one_keeps_its_trial_axis():
    p = dataclasses.replace(SystemParams(), m_A=16)
    batch = simulate_episode(p, [5])
    one = simulate_episode(p, 5)
    assert batch.y_EB.shape == (1, 16)
    assert batch.y_EB[0].tobytes() == one.y_EB.tobytes()


def _reference_phases(params, realization, seeds, batched):
    """The signals of both phases, each role drawn for each seed as one
    ``_reference_cn`` fill of ``stream(seed, role)``."""
    def draw(role, shape, var):
        rows = [_reference_cn(stream(seed, role), shape, var) for seed in seeds]
        return np.stack(rows) if batched else rows[0]

    m = params.m_A
    x_A = draw("probe", (m,), params.p_A)
    y_B = (np.expand_dims(realization.h_BA, -1) * x_A
           + draw("noise_b", (m,), params.sigma_B2))
    e_A = (np.expand_dims(realization.g_A, -1) * np.expand_dims(x_A, -2)
           + draw("noise_ea", (params.n_E, m), params.sigma_EA2))
    s = draw("secret", (m,), params.sigma_s2)
    r = y_B + s
    return dict(x_A=x_A, y_B=y_B, e_A=e_A, s=s, r=r,
                y_AB=r + draw("noise_va", (m,), params.eps_A),
                y_EB=r + draw("noise_ve", (m,), params.eps_E))


def _assert_signals(episode, want, names=SIGNALS):
    for name in names:
        got = getattr(episode, name)
        assert got.shape == want[name].shape, name
        assert got.tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("n_E", [1, 3])
@pytest.mark.parametrize("batched", [False, True])
def test_phases_keep_their_bits_at_any_cpu_count(monkeypatch, n_E, batched):
    p = SystemParams(rho=0.3 + 0.4j, n_E=n_E, m_A=500)
    seeds = [subseed(23, "cpus", t) for t in range(200)] if batched else [23]
    rng_seed = seeds if batched else seeds[0]
    realization = sample_channels(p, rng_seed)
    want = _reference_phases(p, realization, seeds, batched)
    for cpus in (1, 2, 4):
        _use_cpus(monkeypatch, cpus)
        probed = run_probing(p, realization, rng_seed)
        assert probed.s is None and probed.y_EB is None
        _assert_signals(probed, want, ("x_A", "y_B", "e_A"))
        _assert_signals(run_echo(p, probed, rng_seed), want)
        whole = simulate_episode(p, rng_seed)
        _assert_signals(whole, want)
        for name in GAINS:
            assert np.asarray(getattr(whole.realization, name)).tobytes() == \
                np.asarray(getattr(realization, name)).tobytes(), name


def test_episode_from_a_pool_job_while_the_pool_is_held(monkeypatch):
    # three CPUs: a pool of two threads, one held and one running the
    # episode, whose roles draw the same bits in a pool thread
    _use_cpus(monkeypatch, 3)
    p = SystemParams(n_E=3, m_A=500)
    seeds = [subseed(31, "held", t) for t in range(200)]
    realization = sample_channels(p, seeds)
    want = _reference_phases(p, realization, seeds, True)
    release = threading.Event()
    busy = _workers.pool().submit(release.wait, 60)
    try:
        job = _workers.pool().submit(simulate_episode, p, seeds)
        episode = job.result(timeout=60)
    finally:
        release.set()
    assert busy.result(timeout=60)
    _assert_signals(episode, want)


@pytest.mark.parametrize("rho, n_E", [(0.5, 1), (0.3 + 0.4j, 3), (-0.6j, 2)])
def test_channel_draws_are_single_draws_of_the_batch_sampler(rho, n_E):
    # sample_channels draws all seeds of a batch through one re-keyed
    # Philox; each draw stays sample_channel_batch(p, seed, 1)
    p = SystemParams(rho=rho, n_E=n_E)
    seeds = [subseed(29, "draw", t) for t in range(300)] + [0, (1 << 64) - 1]
    batch = sample_channels(p, seeds)
    for t, seed in enumerate(seeds):
        one = sample_channels(p, seed)
        for name, want in zip(GAINS, sample_channel_batch(p, seed, 1)):
            assert getattr(batch, name)[t].tobytes() == want[0].tobytes()
            assert np.asarray(getattr(one, name)).tobytes() == \
                want[0].tobytes()


def test_bool_seed_is_rejected():
    # True used to run as seed 1; a 0-d array, taken for a sequence, used to
    # raise TypeError
    p = SystemParams()
    for seed in (True, [3, False], np.array(3)):
        with pytest.raises(ParamError, match="seed must be an integer"):
            simulate_episode(p, seed)


@pytest.mark.parametrize("bad", [-1, 1 << 64, True, 1.0, np.array(3)])
def test_one_bad_seed_in_a_batch_episode_raises_before_any_draw(monkeypatch,
                                                                 bad):
    drawn = []
    monkeypatch.setattr(channel, "_cnormal_rows",
                        lambda *args: drawn.append(args))
    p = dataclasses.replace(SystemParams(), m_A=4)
    with pytest.raises(ParamError, match="seed must be"):
        simulate_episode(p, [3, bad, 4])
    assert not drawn


def _count_hash_passes(monkeypatch) -> list:
    """Record a call of the SeedSequence hash per group of rows: one per
    pass when every seed of a pass takes the same number of uint32 words."""
    calls = []

    def counting(words):
        calls.append(len(words[0]))
        return _state(words)

    monkeypatch.setattr("steeplab.seeds._state", counting)
    return calls


def test_a_batch_episode_keys_its_seven_roles_in_one_pass(monkeypatch):
    p = dataclasses.replace(SystemParams(), m_A=8, n_E=2)
    batch = [subseed(41, "pass", t) for t in range(50)]
    assert all(s >> 32 for s in batch)     # every seed takes two words
    want = _reference_phases(p, sample_channels(p, batch), batch, True)
    passes = _count_hash_passes(monkeypatch)
    _assert_signals(simulate_episode(p, batch), want)
    assert passes == [7 * 50]
    # alone, each stage keys its own roles in one pass
    passes.clear()
    run_echo(p, run_probing(p, sample_channels(p, batch), batch), batch)
    assert passes == [50, 3 * 50, 3 * 50]
    # one seed keeps stream's SeedSequence per role: no pass
    passes.clear()
    simulate_episode(p, batch[0])
    simulate_episode(p, batch[:1])
    assert passes == []


def test_empty_seed_sequence_is_rejected():
    p = SystemParams()
    for call in (lambda: simulate_episode(p, []),
                 lambda: sample_channels(p, ()),
                 lambda: run_probing(p, sample_channels(p, 0), [])):
        with pytest.raises(ParamError, match="at least one seed"):
            call()


def test_batch_shape_must_match_the_seeds():
    p = dataclasses.replace(SystemParams(), m_A=4)
    pair = sample_channels(p, [1, 2])
    with pytest.raises(ParamError, match="batch shape"):
        run_probing(p, pair, [1, 2, 3])
    with pytest.raises(ParamError, match="batch shape"):
        run_probing(p, pair, 1)
    with pytest.raises(ParamError, match="batch shape"):
        run_echo(p, run_probing(p, sample_channels(p, 1), 1), [1])


# ---------------------------------------------------------------- CSV

def _use_cpus(monkeypatch, n):
    """Make the shared pool and the CSV writer count n usable CPUs."""
    monkeypatch.setattr(_workers, "usable_cpus", lambda: n)


def test_episode_csv_rejects_a_batch(monkeypatch):
    _use_cpus(monkeypatch, 2)
    formatted = []
    monkeypatch.setattr(channel, "_csv_float_fields",
                        lambda *args: formatted.append(args))
    p = dataclasses.replace(SystemParams(), m_A=2500)
    with pytest.raises(ParamError, match="one episode"):
        episode_to_csv(simulate_episode(p, [1, 2]))
    assert not formatted


def test_episode_csv_layout_and_determinism():
    p = dataclasses.replace(SystemParams(), m_A=8, n_E=2)
    ep = simulate_episode(p, 21)
    text = episode_to_csv(ep)
    assert episode_to_csv(simulate_episode(p, 21)) == text

    lines = text.splitlines()
    header = lines[0].split(",")
    expected = list(EPISODE_CSV_COLUMNS) + [
        "e_A0_re", "e_A0_im", "e_A1_re", "e_A1_im"]
    assert header == expected
    assert len(lines) == 1 + 8

    # values survive the text round trip exactly thanks to repr floats
    row = lines[1].split(",")
    k = header.index("x_A_re")
    assert float(row[k]) == ep.x_A[0].real


def test_episode_csv_incomplete_leaves_echo_columns_empty():
    p = SystemParams()
    probed = run_probing(p, sample_channels(p, 0), 0)
    lines = episode_to_csv(probed).splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    assert row[header.index("s_re")] == ""
    assert row[header.index("y_EB_im")] == ""
    assert row[header.index("x_A_re")] != ""


def _reference_episode_csv(episode):
    """The definition: one csv.writer row per probe index, one repr per float."""
    n_e = np.asarray(episode.realization.g_A).shape[0]
    header = list(EPISODE_CSV_COLUMNS)
    for i in range(n_e):
        header += [f"e_A{i}_re", f"e_A{i}_im"]

    def cols(z, k):
        if z is None:
            return ["", ""]
        return [repr(float(z[k].real)), repr(float(z[k].imag))]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for k in range(episode.m_A):
        row = [str(k)]
        for sig in (episode.x_A, episode.y_B, episode.s, episode.r,
                    episode.y_AB, episode.y_EB):
            row += cols(sig, k)
        for i in range(n_e):
            row += cols(episode.e_A[i], k)
        writer.writerow(row)
    return buf.getvalue()


#: the rows of a CSV block, and episode sizes at each edge of one
_B = channel._CSV_BLOCK_ROWS
_BLOCK_EDGES = [pytest.param(_B - 1, id="B-1"), pytest.param(_B, id="B"),
                pytest.param(_B + 1, id="B+1"),
                pytest.param(2 * _B + 1, id="2B+1")]


# m_A at fixed sizes, and on both sides of a block with a partial last block
@pytest.mark.parametrize("m_A", [1, 1023, 1024, 1025, 2500, *_BLOCK_EDGES])
@pytest.mark.parametrize("n_E", [1, 3])
@pytest.mark.parametrize("complete", [True, False])
def test_episode_csv_matches_reference(m_A, n_E, complete):
    p = dataclasses.replace(SystemParams(), m_A=m_A, n_E=n_E)
    seed = 1000 * m_A + n_E
    ep = (simulate_episode(p, seed) if complete
          else run_probing(p, sample_channels(p, seed), seed))
    assert episode_to_csv(ep) == _reference_episode_csv(ep)


@pytest.mark.parametrize("complete", [True, False])
def test_episode_csv_partial_block_follows_a_full_one(monkeypatch, complete):
    # one CPU: the calling thread formats a full block and then, in the same
    # buffers, a partial one whose values and fields are views of them
    _use_cpus(monkeypatch, 1)
    p = dataclasses.replace(SystemParams(), m_A=_B + _B // 3, n_E=3)
    ep = (simulate_episode(p, 11) if complete
          else run_probing(p, sample_channels(p, 11), 11))
    kernel = _KernelCalls(monkeypatch)
    assert episode_to_csv(ep) == _reference_episode_csv(ep)
    # the floats per row of each run: without the echo, x_A and y_B are one
    # run and e_A another
    widths = [2 * (6 + 3)] if complete else [2 * 2, 2 * 3]
    sizes = [size for _, _, size in kernel.calls]
    assert sizes == [w * n for n in (_B, _B // 3) for w in widths]
    assert kernel.pool_calls() == 0


def test_cli_simulate_analog_csv_pinned(tmp_path, capsys):
    out = tmp_path / "ep.csv"
    assert main(["simulate-analog", "--m_A", "2500", "--seed", "9",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "19b88134810ec8f400dcf95304d3409da7265ab2b62832c8ff1aedbfddd681c9")


class _KernelCalls:
    """Stands in for ``_csv_float_fields`` and records, per call, whether a
    pool thread made it, its fallback count and its value count.

    Once ``hold`` is set, the next call from outside the pool first waits
    (up to 30 s) until a pool thread has started one, so the pool surely
    formats a block instead of the calling thread taking them all.
    """

    def __init__(self, monkeypatch):
        self.kernel = channel._csv_float_fields
        self.calls = []
        self.hold = False
        self.pool_started = threading.Event()
        monkeypatch.setattr(channel, "_csv_float_fields", self)

    def __call__(self, x, out, scratch):
        in_pool = threading.current_thread().name.startswith("steeplab-pool")
        if in_pool:
            self.pool_started.set()
        elif self.hold:
            self.hold = False
            self.pool_started.wait(timeout=30)
        fallbacks = self.kernel(x, out, scratch)
        self.calls.append((in_pool, fallbacks, x.size))
        return fallbacks

    def pool_calls(self):
        return sum(in_pool for in_pool, _, _ in self.calls)


@pytest.mark.parametrize("m_A", [1, 1023, 1024, 1025, 2500, 20000,
                                 *_BLOCK_EDGES])
def test_episode_csv_bytes_do_not_depend_on_cpus(tmp_path, monkeypatch, m_A):
    p = dataclasses.replace(SystemParams(), m_A=m_A)
    seed = 7 * m_A
    episodes = {"complete": simulate_episode(p, seed),
                "probing": run_probing(p, sample_channels(p, seed), seed)}
    kernel = _KernelCalls(monkeypatch)
    texts = {}
    for cpus in (1, 2, 3):
        _use_cpus(monkeypatch, cpus)
        # the pool formats blocks exactly when there are two or more CPUs
        # and two or more blocks
        pooled = kernel.hold = cpus > 1 and m_A > _B
        kernel.calls.clear()
        kernel.pool_started.clear()
        for name, ep in episodes.items():
            text = episode_to_csv(ep)
            same = texts.setdefault(name, text) == text  # no diff of 6 MB
            assert same, (name, cpus)
        out = tmp_path / f"ep{cpus}.csv"
        assert main(["simulate-analog", "--m_A", str(m_A), "--seed", str(seed),
                     "--out", str(out)]) == 0
        same = out.read_bytes() == texts["complete"].encode("ascii")
        assert same, cpus
        assert (kernel.pool_calls() > 0) == pooled, cpus
    assert sorted(tmp_path.iterdir()) == [tmp_path / f"ep{c}.csv"
                                          for c in (1, 2, 3)]


def test_episode_csv_keeps_the_bytes_of_repr_heavy_blocks(monkeypatch):
    # values near 1e-12 all take repr, on pool threads as in this one
    powers = dict.fromkeys(("p_A", "sigma_B2", "sigma_EA2", "sigma_s2",
                            "eps_A", "eps_E"), 1e-24)
    p = dataclasses.replace(SystemParams(), m_A=5000, **powers)
    ep = simulate_episode(p, 3)
    want = _reference_episode_csv(ep)
    kernel = _KernelCalls(monkeypatch)
    for cpus in (1, 2, 3):
        _use_cpus(monkeypatch, cpus)
        kernel.hold = cpus > 1
        kernel.calls.clear()
        kernel.pool_started.clear()
        same = episode_to_csv(ep) == want
        assert same, cpus
        assert len(kernel.calls) == -(-p.m_A // _B)
        assert all(fallbacks == size for _, fallbacks, size in kernel.calls)
        assert (kernel.pool_calls() > 0) == (cpus > 1), cpus


def test_episode_csv_does_not_wait_for_a_busy_pool(monkeypatch):
    # blocks the pool has not started are formatted by the calling thread
    _use_cpus(monkeypatch, 2)
    ep = simulate_episode(dataclasses.replace(SystemParams(), m_A=5000), 2)
    kernel = _KernelCalls(monkeypatch)
    release = threading.Event()
    busy = _workers.pool().submit(release.wait, 10)
    try:
        same = episode_to_csv(ep) == _reference_episode_csv(ep)
    finally:
        release.set()
    busy.result(timeout=60)
    assert same
    assert len(kernel.calls) == -(-5000 // _B) and kernel.pool_calls() == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_episode_csv_runs_in_a_forked_child(monkeypatch):
    # the child inherits the parent's pool object but none of its threads
    _use_cpus(monkeypatch, 2)
    ep = simulate_episode(dataclasses.replace(SystemParams(), m_A=5000), 1)
    text = episode_to_csv(ep)
    kernel = _KernelCalls(monkeypatch)
    kernel.hold = True
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            same = episode_to_csv(ep) == text
            code = 0 if same and kernel.pool_calls() > 0 else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and \
            time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="needs os.sched_getaffinity")
def test_csv_pool_threads_keep_the_process_cpus(monkeypatch):
    # a pool thread moves off its starting CPU once, then may run anywhere
    # the process may
    _use_cpus(monkeypatch, 2)
    pool = _workers.pool()
    assert pool.submit(os.sched_getaffinity, 0).result(timeout=60) == \
        os.sched_getaffinity(0)


class _Boom(RuntimeError):
    pass


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("existing", [False, True])
def test_cli_simulate_analog_leaves_no_partial_output(tmp_path, monkeypatch,
                                                      capsys, cpus, existing):
    _use_cpus(monkeypatch, cpus)
    boom = _Boom("third block")
    calls = itertools.count(1)
    kernel = channel._csv_float_fields

    def failing(x, out, scratch):
        if next(calls) == 3:
            raise boom
        return kernel(x, out, scratch)

    monkeypatch.setattr(channel, "_csv_float_fields", failing)
    out = tmp_path / "ep.csv"
    if existing:
        out.write_bytes(b"earlier run\n")
    with pytest.raises(_Boom) as raised:
        main(["simulate-analog", "--m_A", "5000", "--out", str(out)])
    assert raised.value is boom
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == ([out] if existing else [])
    if existing:
        assert out.read_bytes() == b"earlier run\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_cli_simulate_analog_writes_into_a_pipe(tmp_path, capsys):
    fifo = tmp_path / "ep.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    assert main(["simulate-analog", "--m_A", "2500", "--seed", "9",
                 "--out", str(fifo)]) == 0
    reader.join(timeout=60)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert list(tmp_path.iterdir()) == [fifo]
    ep = simulate_episode(dataclasses.replace(SystemParams(), m_A=2500), 9)
    same = got == [episode_to_csv(ep).encode("ascii")]
    assert same


def test_episode_csv_concurrent_calls_share_the_pool(monkeypatch):
    # more formatting threads than CPUs, and threads switched as often as
    # the interpreter allows
    _use_cpus(monkeypatch, 3)
    p = dataclasses.replace(SystemParams(), m_A=5000)
    episodes = [simulate_episode(p, seed) for seed in (1, 2, 3)]
    want = [_reference_episode_csv(ep) for ep in episodes]
    got = [None] * len(episodes)

    def write(i):
        for _ in range(3):
            text = episode_to_csv(episodes[i])
            got[i] = text if got[i] in (None, text) else "differs"

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=write, args=(i,))
                   for i in range(len(episodes))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    same = [g == w for g, w in zip(got, want)]
    assert same == [True] * len(want)


# ------------------------------------------------- float formatting kernel

def _kernel_reprs(x):
    """The texts _csv_float_fields writes for the values of x, in order, and
    how many of them took the guard's repr."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    texts, fallbacks = [], 0
    for lo in range(0, x.size, 1 << 15):
        chunk = x[lo:lo + (1 << 15)]
        out = np.zeros(chunk.shape + (4,), "<u8")
        fallbacks += _csv_float_fields(chunk, out,
                                       channel._CsvScratch(chunk.size))
        flat = out.view(np.uint8).ravel()
        texts += flat[flat != 0].tobytes().decode("ascii").split(",")[1:]
    return texts, fallbacks


def _assert_reprs(x):
    texts, _ = _kernel_reprs(x)
    want = [repr(v) for v in np.asarray(x, dtype=np.float64).ravel().tolist()]
    bad = [(w, t) for w, t in zip(want, texts) if w != t]
    assert len(texts) == len(want) and not bad, bad[:5]


@pytest.mark.slow
def test_float_fields_equal_repr_over_a_corpus():
    rng = np.random.default_rng(20231)
    with np.errstate(over="ignore"):
        edges = np.array([0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308,
                          1.7976931348623157e308, 1e-4, 1e16, 1e-10, 2.0**52])
        edges = np.concatenate([edges, np.nextafter(edges, np.inf),
                                np.nextafter(edges, -np.inf)])
    literals = [float(f"{rng.integers(1, 10**n)}e{rng.integers(-12, 16)}")
                for n in range(1, 17) for _ in range(2_000)]
    corpus = np.concatenate(
        [rng.standard_normal(40_000) * s for s in np.logspace(-9, 20, 12)]
        + [rng.integers(0, 2**64, 300_000, dtype=np.uint64).view(np.float64),
           np.ldexp(rng.random(200_000) + 0.5,
                    rng.integers(-30, 51, 200_000))]
        + [np.round(rng.standard_normal(10_000), d) for d in range(1, 17)]
        + [np.array(literals), edges, -edges])
    assert corpus.size >= 10**6
    _assert_reprs(corpus)


finite_or_not = st.floats(allow_nan=True, allow_infinity=True)


@given(v=finite_or_not)
def test_float_fields_equal_repr_of_one_value(v):
    _assert_reprs([v])


@given(vs=st.lists(finite_or_not, min_size=1, max_size=40))
def test_float_fields_equal_repr_of_small_arrays(vs):
    _assert_reprs(vs)


@pytest.mark.parametrize("values", [
    [0.0, -0.0, np.inf, -np.inf, np.nan],           # no digits to certify
    [5e-324, -2.5e-320, 2.2250738585072009e-308],   # subnormal
    [2.0**-25, -(2.0**-28), 2.0**-30],              # asymmetric interval
    [1e-11, -3.3e-11, 1e17, 2.5e20],                # q outside [1, 26]
    [6e15, -4503599627370497.0],                    # t < 1
    [1.0, -7.0, 123.0, 0.5, 2.0**52 - 1],           # integral, or R = 0
    [1000000000000000.25, -1000000000000000.75],    # R = 2**(t-1): a tie
])
def test_float_fields_guard_formats_with_repr(values):
    texts, fallbacks = _kernel_reprs(values)
    assert texts == [repr(v) for v in values]
    assert fallbacks == len(values)


def test_float_fields_guard_catches_a_missed_decade():
    # log10 of the double below a power of ten can round up to it
    below = np.nextafter(10.0 ** np.arange(-9, 16), 0)
    texts, fallbacks = _kernel_reprs(below)
    assert texts == [repr(v) for v in below.tolist()]
    assert fallbacks > 0


def test_scaled_splits_each_value_exactly():
    # |v| 10**q = I + R / 2**t, with P = m 5**q's high word taken from a
    # float estimate; the largest products come at q = 26 and m near 2**53
    rng = np.random.default_rng(7)
    n = 20_000
    x = np.ldexp(rng.random(n) + 0.5, rng.integers(-34, 53, n))
    x[:2000] = np.nextafter(10.0 ** rng.integers(-9, 16, 2000), 0)
    x[2000:4000] = np.ldexp(1 - 2.0 ** -53 * rng.integers(1, 1000, 2000),
                            rng.integers(-33, -30, 2000))
    x[::2] *= -1
    ok, q, whole, two_r, shift, p5 = channel._scaled(
        x, channel._CsvScratch(n))
    assert ok.mean() > 0.8
    for v, qq, i, r2, s1, p in zip(*(a[ok].tolist() for a in (
            x, q, whole, two_r, shift, p5))):
        assert Fraction(abs(v)) * 10**qq == i + Fraction(r2, 2**s1)
        assert p == 5**qq and 10**16 <= i < 10**17


def test_float_fields_need_no_guard_on_gaussians():
    x = np.random.default_rng(1).standard_normal(320_000)
    texts, fallbacks = _kernel_reprs(x)
    assert fallbacks == 0
    assert texts == [repr(v) for v in x.tolist()]


def test_csv_row_starts_past_one_word():
    # from 10**7 rows on, the line break and the index take two words
    k = np.array([0, 7, 10**7 - 1, 10**7, 12345678, 10**15 - 1], np.int64)
    starts = np.zeros((len(k), 2), "<u8")
    _csv_row_starts(k, starts)
    starts = starts.view(np.uint8)
    assert [bytes(r[r != 0]).decode() for r in starts.reshape(len(k), -1)] \
        == ["\n" + str(v) for v in k.tolist()]
