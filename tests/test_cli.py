"""Harness behavior: subcommands, determinism, config, error handling."""
import dataclasses
import errno
import hashlib
import json
import math
import os
import shutil
import stat
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from steeplab import (BscParams, DigitalEpisode, ParamError, RateReport,
                      SweepSpec, SystemParams, emit_plotdata, episode_to_csv,
                      reconcile_and_amplify, reconcile_plan,
                      run_digital_episode, run_oracle_suite, run_rates,
                      run_sweep, simulate_episode)
import steeplab
from steeplab import _workers, cli, rates
from steeplab.channel import sample_channel_batch
from steeplab.cli import main, rows_to_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- run_rates

def test_run_rates_merges_everything():
    for seed in (0, 5, 22):
        rep = run_rates(SystemParams(), n_draws=1500, rng_seed=seed)
        for key in ("alpha", "C_B", "C_key_one_way", "theorem2_lower",
                    "theorem3_lower", "xi_tilde", "snr_AB", "snr_EB",
                    "power_p_r_mean"):
            assert key in rep.values, key
        # shared channel batch: identical quantities agree exactly
        assert rep.values["xi_steep_ac"] == rep.values["xi_BA"]
        assert rep.values["xi_tilde"] == rep.values["xi_BA_prime"], seed
        assert rep.stderr["xi_tilde"] == rep.stderr["xi_BA_prime"], seed
        assert rep.values["C_key_one_way"] == rep.values["C_B"]


def test_run_rates_single_draw():
    rep = run_rates(SystemParams(), n_draws=1, rng_seed=0)
    assert all(math.isfinite(v) for v in rep.values.values())
    assert set(rep.stderr.values()) == {0.0}


def test_run_rates_samples_one_channel_batch(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return sample_channel_batch(*args)

    monkeypatch.setattr(rates, "sample_channel_batch", counting)
    # every bound in the report reduces the batch run_rates passes it, and
    # nothing keeps that batch, so a later call samples anew
    key = (SystemParams(rho=0.3, m_A=3), 700, 41)
    run_rates(*key)
    assert len(calls) == 1
    rates.theorem1_draw_terms(*key)
    assert len(calls) == 2
    assert calls[0] == calls[1] == (key[0], 41, 700)


@pytest.mark.parametrize("workers, n_points", [(2, 4), (4, 16)])
def test_parallel_sweep_samples_one_batch_per_point(monkeypatch, workers,
                                                    n_points):
    calls = []

    def counting(*args):
        calls.append(args)
        return sample_channel_batch(*args)

    monkeypatch.setattr(rates, "sample_channel_batch", counting)
    spec = SweepSpec(base=SystemParams(), field_name="rho",
                     grid=tuple(k / 20 for k in range(1, n_points + 1)),
                     n_draws=2000, rng_seed=6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # workers switch often, so points interleave
    try:
        rows = run_sweep(spec, workers=workers)
    finally:
        sys.setswitchinterval(interval)
    # a point whose bounds sampled their own batches would count more
    assert len(calls) == n_points
    assert all(args[2:] == (2000,) for args in calls)
    assert rows == run_sweep(spec, workers=1)


def test_run_rates_no_probes_skips_echo_metrics():
    p = dataclasses.replace(SystemParams(), m_A=0, m_B=3)
    rep = run_rates(p, n_draws=800, rng_seed=1)
    assert "theorem3_lower" not in rep.values
    assert "C_key_one_way" in rep.values
    assert any("m_A = 0" in n for n in rep.notes)


def test_run_rates_without_return_noise_skips_the_eta_bound():
    p = dataclasses.replace(SystemParams(), eps_A=0.0)
    rep = run_rates(p, n_draws=500, rng_seed=2)
    assert "theorem3_lower" in rep.values
    assert "theorem2_lower" not in rep.values and "eta" not in rep.values
    assert rep.notes == ["eta-dependent lower bound skipped: needs "
                         "eps_A > 0 and eps_E > 0"]


# ---------------------------------------------------------------- sweeps

def test_sweep_rows_and_worker_independence(monkeypatch):
    spec = SweepSpec(base=SystemParams(), field_name="rho",
                     grid=(0.2, 0.5, 0.8), n_draws=400, rng_seed=3)
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=3)
    assert serial == parallel
    assert [r["value"] for r in serial] == [0.2, 0.5, 0.8]
    assert serial[0]["alpha"] < serial[2]["alpha"]
    # one draw per point, the least run_rates takes, sweeps too
    one = dataclasses.replace(spec, n_draws=1)
    assert run_sweep(one, workers=1) == run_sweep(one, workers=3)
    calls = []
    monkeypatch.setattr(cli, "run_rates", lambda *a: calls.append(a))
    with pytest.raises(ParamError, match=r"^n_draws must be >= 1, got 0$"):
        run_sweep(dataclasses.replace(spec, n_draws=0), workers=3)
    assert calls == []


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="needs os.sched_getaffinity")
def test_sweep_runs_points_here_and_on_the_shared_pool(monkeypatch):
    monkeypatch.setattr(_workers, "usable_cpus", lambda: 2)
    point = cli._sweep_point
    caller = threading.current_thread()
    ran = []
    pool_started = threading.Event()

    def recording(spec, item):
        me = threading.current_thread()
        if me.name.startswith("steeplab-pool"):
            pool_started.set()
        elif me is caller:   # the first point here waits for the pool's
            pool_started.wait(timeout=30)
        ran.append((me, os.sched_getaffinity(0)))
        return point(spec, item)

    monkeypatch.setattr(cli, "_sweep_point", recording)
    spec = SweepSpec(base=SystemParams(), field_name="rho",
                     grid=(0.2, 0.5, 0.8, 0.9), n_draws=300, rng_seed=3)
    rows = run_sweep(spec, workers=2)
    assert any(t is caller for t, _ in ran)
    in_pool = [cpus for t, cpus in ran if t.name.startswith("steeplab-pool")]
    assert in_pool
    assert all(cpus == os.sched_getaffinity(0) for cpus in in_pool)
    monkeypatch.setattr(cli, "_sweep_point", point)
    assert rows == run_sweep(spec, workers=1)


def test_sweep_never_starts_more_threads_than_usable_cpus(monkeypatch):
    # 8 workers on 2 usable CPUs: this thread and one pool thread
    monkeypatch.setattr(_workers, "usable_cpus", lambda: 2)
    point = cli._sweep_point
    before = set(threading.enumerate())
    started = set()

    def recording(spec, item):
        started.update(set(threading.enumerate()) - before)
        return point(spec, item)

    monkeypatch.setattr(cli, "_sweep_point", recording)
    spec = SweepSpec(base=SystemParams(), field_name="rho",
                     grid=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6), n_draws=200,
                     rng_seed=4)
    rows = run_sweep(spec, workers=8)
    assert len(started) <= 1
    # a pool replaced when the CPU count changed lets its threads go
    deadline = time.monotonic() + 30
    while len(pool := [t for t in threading.enumerate()
                       if t.name.startswith("steeplab-pool")]) > 1 and \
            time.monotonic() < deadline:
        time.sleep(0.01)
    assert len(pool) <= 1
    monkeypatch.setattr(cli, "_sweep_point", point)
    assert rows == run_sweep(spec, workers=1)


def test_sweep_integer_field_coercion():
    spec = SweepSpec(base=SystemParams(), field_name="m_A",
                     grid=(1.0, 2.0), n_draws=300, rng_seed=0)
    rows = run_sweep(spec)
    assert rows[1]["C_B"] > rows[0]["C_B"]
    bad = SweepSpec(base=SystemParams(), field_name="m_A", grid=(1.5,),
                    n_draws=300, rng_seed=0)
    with pytest.raises(ParamError, match="integer"):
        run_sweep(bad)


def test_sweep_digital_base():
    spec = SweepSpec(base=BscParams(), field_name="P_EA",
                     grid=(0.15, 0.3), rng_seed=0)
    rows = run_sweep(spec)
    assert rows[0]["xi_digital"] < rows[1]["xi_digital"]
    assert rows[0]["P_A_given_B"] == pytest.approx(0.1)


@pytest.mark.parametrize("field, grid, message", [
    ("rho", (0.5, 0.6, 1.5), r"\|rho\| must be < 1"),
    ("m_A", (2.0, 3.5), "integer"),
])
@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_rejects_bad_grid_value_before_any_point_runs(
        monkeypatch, field, grid, message, workers):
    calls = []
    monkeypatch.setattr("steeplab.cli.run_rates", lambda *a: calls.append(a))
    spec = SweepSpec(base=SystemParams(), field_name=field, grid=grid,
                     n_draws=200, rng_seed=0)
    with pytest.raises(ParamError, match=message):
        run_sweep(spec, workers=workers)
    assert calls == []


@pytest.mark.parametrize("value", ["0.3", None])
def test_sweep_rejects_a_grid_value_that_is_not_a_number(value):
    spec = SweepSpec(SystemParams(), "rho", (value,), 100)
    with pytest.raises(ParamError, match="sweep grid value .* is not finite"):
        run_sweep(spec)


def test_sweep_rejects_unknown_field():
    spec = SweepSpec(base=SystemParams(), field_name="nope", grid=(1.0,))
    with pytest.raises(ParamError, match="unknown sweep field 'nope'"):
        run_sweep(spec)


def test_sweep_rejects_empty_grid():
    spec = SweepSpec(base=SystemParams(), field_name="rho", grid=())
    with pytest.raises(ParamError, match="empty"):
        run_sweep(spec)


def test_plotdata_layout():
    spec = SweepSpec(base=BscParams(), field_name="P_EA", grid=(0.2, 0.4))
    rows = run_sweep(spec)
    text = emit_plotdata(rows, "xi_digital")
    lines = text.splitlines()
    assert lines[0] == "x,y,y_err"
    assert len(lines) == 3
    assert float(lines[1].split(",")[0]) == 0.2


def test_plotdata_rejects_unknown_metric():
    spec = SweepSpec(base=BscParams(), field_name="P_EA", grid=(0.2,))
    rows = run_sweep(spec)
    with pytest.raises(ParamError, match="available"):
        emit_plotdata(rows, "no_such_metric")


def test_plotdata_rejects_metric_missing_from_a_later_row():
    rows = [{"field": "m_A", "value": 4.0, "alpha": 0.5, "theorem3_lower": 0.1},
            {"field": "m_A", "value": 0.0, "alpha": 0.25}]
    with pytest.raises(ParamError, match=r"theorem3_lower.*0\.0; "
                                         r"available: alpha$"):
        emit_plotdata(rows, "theorem3_lower")


def test_cli_sweep_plot_bytes_pinned(tmp_path, capsys):
    # measured when the plot CSV had its own csv.writer; rows_to_csv must
    # write the same bytes
    plot = tmp_path / "plot.csv"
    code, _, _ = run_cli(capsys, "sweep", "--field", "rho", "--grid",
                         "0.2,0.6", "--n-draws", "300", "--seed", "5",
                         "--plot-metric", "C_B", "--plot-out", str(plot))
    assert code == 0
    assert plot.read_text() == ("x,y,y_err\n"
                                "0.2,1.720744561211421,0.09063350392541435\n"
                                "0.6,2.442650536135378,0.09339862676033651\n")


def test_cli_sweep_plot_without_plot_out_follows_the_sweep_csv(capsys):
    argv = ("sweep", "--field", "rho", "--grid", "0.2,0.6", "--n-draws",
            "300", "--seed", "5")
    code, sweep_csv, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out, err = run_cli(capsys, *argv, "--plot-metric", "C_B")
    assert code == 0 and err == ""
    assert out == sweep_csv + ("x,y,y_err\n"
                               "0.2,1.720744561211421,0.09063350392541435\n"
                               "0.6,2.442650536135378,0.09339862676033651\n")


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_rejects_nonpositive_workers(workers):
    spec = SweepSpec(base=SystemParams(), field_name="rho", grid=(0.2,),
                     n_draws=300)
    with pytest.raises(ParamError, match="workers must be >= 1"):
        run_sweep(spec, workers=workers)


def test_rows_to_csv_round_trip_precision():
    rows = [{"field": "rho", "value": 0.1, "alpha": 1 / 3}]
    text = rows_to_csv(rows)
    cell = text.splitlines()[1].split(",")[2]
    assert float(cell) == 1 / 3  # repr floats survive the text round trip


def test_rows_to_csv_writes_numpy_scalars_as_python_values():
    rows = [{"a": np.float64(1.5), "b": np.int64(3), "c": np.bool_(True)}]
    assert rows_to_csv(rows) == "a,b,c\n1.5,3,True\n"


def test_sweep_csv_header_independent_of_row_order(capsys):
    # the m_A = 0 row lacks the 16 echo metrics and the m_A = 4 row lacks
    # C_key_one_way: whichever row comes first, the header is the union
    headers = []
    for grid in ("0,4", "4,0"):
        code, text, _ = run_cli(capsys, "sweep", "--field", "m_A", "--grid",
                                grid, "--m_B", "2", "--n-draws", "200")
        assert code == 0
        lines = text.splitlines()
        headers.append(lines[0])
        assert all(len(line.split(",")) == 35 for line in lines)
    assert headers[0] == headers[1]
    assert {"C_key_one_way", "theorem3_lower"} <= set(headers[0].split(","))


# ---------------------------------------------------------------- CLI: rates

def test_cli_rates_stdout_and_json(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "rates", "--n-draws", "500",
                             "--seed", "3", "--json-out", str(out_json))
    assert code == 0 and err == ""
    assert "C_key_one_way" in out
    report = json.loads(out_json.read_text())
    assert report["params"] == json.loads(
        RateReport(params=SystemParams()).to_json())["params"]


def test_cli_rates_flag_overrides(tmp_path, capsys):
    out_json = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "rates", "--rho", "0.8", "--m_A", "2",
                         "--n-draws", "300", "--json-out", str(out_json))
    assert code == 0
    params = json.loads(out_json.read_text())["params"]
    assert complex(params["rho"]) == 0.8 and params["m_A"] == 2


def test_cli_rates_reads_config(tmp_path, capsys):
    cfg = tmp_path / "point.cfg"
    cfg.write_text("rho = 0.7\nm_A = 3\n# comment\n")
    out_json = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "rates", "--config", str(cfg),
                         "--m_A", "5", "--n-draws", "300",
                         "--json-out", str(out_json))
    assert code == 0
    params = json.loads(out_json.read_text())["params"]
    # flags win over the config file
    assert complex(params["rho"]) == 0.7 and params["m_A"] == 5


def test_cli_rejects_invalid_params(capsys):
    code, _, err = run_cli(capsys, "rates", "--rho", "1.5", "--n-draws", "100")
    assert code == 1
    assert "|rho| must be < 1" in err


@pytest.mark.parametrize("flag, text", [("--rho", "abc"), ("--m_A", "1.5")])
def test_cli_rejects_malformed_flag(capsys, flag, text):
    code, _, err = run_cli(capsys, "rates", flag, text, "--n-draws", "100")
    assert code == 1
    assert err == f"error: parameter '{flag[2:]}': cannot parse value '{text}'\n"


@pytest.mark.parametrize("argv", [
    ("rates", "--n-draws", "abc"),
    ("sweep", "--field", "rho", "--grid", "0.1,x"),
    ("simulate-digital", "--P_EA", "abc"),
    ("simulate-digital", "--m_A", "1.5"),
    ("sweep", "--grid", "1"),
    ("rates", "--bogus", "1"),
    (),
    # counts that used to drop work silently: all ten per-realization
    # checks, the worker pool, or the key (max_key_len is 121 here)
    ("verify-bounds", "--n-realizations", "0"),
    ("sweep", "--field", "rho", "--grid", "0.2", "--workers", "0"),
    ("sweep", "--field", "rho", "--grid", "0.2", "--n-draws", "0"),
    ("simulate-digital", "--m_A", "2000", "--target-len", "0"),
    ("simulate-digital", "--m_A", "2000", "--target-len", "-4"),
    # flags the chosen model never reads, and a plot file with no metric
    ("sweep", "--digital", "--config", "bad.cfg", "--rho", "0.3",
     "--field", "P_EA", "--grid", "0.2"),
    ("sweep", "--field", "rho", "--grid", "0.2", "--P_EA", "0.3"),
    ("sweep", "--field", "rho", "--grid", "0.2", "--n-draws", "100",
     "--plot-out", "pp.csv"),
    # files that cannot be read or written
    ("simulate-analog", "--out", "/nodir/x.csv"),
    ("simulate-digital", "--transcript-out", "/nodir/t.bin"),
    ("sweep", "--field", "rho", "--grid", "0.2", "--n-draws", "100",
     "--out", "/nodir/s.csv"),
    ("verify-bounds", "--csv-out", "/nodir/v.csv"),
    ("rates", "--config", "/nofile.cfg"),
    # seeds outside [0, 2**64), which would alias a valid seed's streams
    ("simulate-analog", "--m_A", "5", "--seed", "-1"),
    ("simulate-analog", "--m_A", "5", "--seed", str(1 << 64)),
    ("simulate-analog", "--m_A", "5", "--seed", str((1 << 65) - 1)),
    ("sweep", "--field", "rho", "--grid", "0.2,0.3", "--n-draws", "100",
     "--workers", "2", "--seed", "-1"),
    # a grid value that is not finite
    ("sweep", "--field", "rho", "--grid", "nan", "--n-draws", "100"),
    # efficiencies no syndrome length can be rounded from
    ("simulate-digital", "--m_A", "2000", "--efficiency", "inf"),
    ("simulate-digital", "--m_A", "2000", "--efficiency", "nan"),
    # two outputs to one file, which would keep only the plot
    ("sweep", "--field", "rho", "--grid", "0.3", "--n-draws", "100",
     "--out", "same.csv", "--plot-metric", "alpha", "--plot-out", "same.csv"),
])
def test_cli_bad_input_exits_1(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_reuses_one_parser_across_calls(capsys):
    # an error, a success and the same success in one process: the argument
    # tree is built once, and a failed parse leaves nothing behind in it
    argv = ("simulate-digital", "--m_A", "300", "--seed", "4")
    code, out, err = run_cli(capsys, *argv, "--no-such-flag")
    assert code == 1 and out == "" and err.startswith("error: ")
    runs = [run_cli(capsys, *argv) for _ in range(2)]
    assert runs[0] == runs[1] and runs[0][0] == 0 and runs[0][1]
    assert cli._parser() is cli._parser()


def _fail_if_reached(monkeypatch, worker):
    def reached(*args, **kwargs):
        raise AssertionError(f"{worker} ran before the output path was checked")
    monkeypatch.setattr(f"steeplab.cli.{worker}", reached)


@pytest.mark.parametrize("worker, argv", [
    ("run_rates", ("rates", "--json-out", "/nodir/r.json")),
    ("run_sweep", ("sweep", "--field", "rho", "--grid", "0.2",
                   "--out", "/nodir/s.csv")),
    ("run_sweep", ("sweep", "--field", "rho", "--grid", "0.2",
                   "--plot-metric", "alpha", "--plot-out", "/nodir/p.csv")),
    ("simulate_episode", ("simulate-analog", "--out", "/nodir/x.csv")),
    ("run_digital_episode", ("simulate-digital",
                             "--transcript-out", "/nodir/t.bin")),
    ("run_oracle_suite", ("verify-bounds", "--csv-out", "/nodir/v.csv")),
])
def test_cli_missing_output_directory_fails_before_the_work(
        monkeypatch, capsys, worker, argv):
    _fail_if_reached(monkeypatch, worker)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: cannot write /nodir/{}: directory /nodir does not " \
        "exist\n".format(argv[-1].rsplit("/", 1)[1])


# every output flag: the worker that runs before the file is written, and
# the command that writes it
_OUTPUTS = [
    ("run_rates", ("rates", "--n-draws", "300"), "--json-out"),
    ("run_sweep", ("sweep", "--field", "rho", "--grid", "0.2",
                   "--n-draws", "300"), "--out"),
    ("run_sweep", ("sweep", "--field", "rho", "--grid", "0.2",
                   "--n-draws", "300", "--plot-metric", "alpha"),
     "--plot-out"),
    ("simulate_episode", ("simulate-analog", "--m_A", "2500"), "--out"),
    ("run_digital_episode", ("simulate-digital", "--m_A", "2000"),
     "--transcript-out"),
    ("run_oracle_suite", ("verify-bounds", "--n-realizations", "5"),
     "--csv-out"),
]


@pytest.mark.parametrize("worker, argv, flag", _OUTPUTS)
def test_cli_output_path_that_is_a_directory_fails_before_the_work(
        tmp_path, monkeypatch, capsys, worker, argv, flag):
    _fail_if_reached(monkeypatch, worker)
    code, out, err = run_cli(capsys, *argv, flag, str(tmp_path))
    assert code == 1 and out == ""
    assert err == f"error: cannot write {tmp_path}: it is a directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("worker, argv, flag", _OUTPUTS)
def test_cli_output_link_into_a_missing_directory_fails_before_the_work(
        tmp_path, monkeypatch, capsys, worker, argv, flag):
    _fail_if_reached(monkeypatch, worker)
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "missing" / "out")
    code, out, err = run_cli(capsys, *argv, flag, str(link))
    assert code == 1 and out == ""
    missing = os.path.realpath(tmp_path / "missing")
    assert err == f"error: cannot write {link}: directory {missing} does " \
        "not exist\n"
    assert list(tmp_path.iterdir()) == [link]


def _failing_parts():
    yield b"a first part\n"
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _failing_replace(src, dst):
    raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), src, dst)


@pytest.mark.parametrize("stage", ["create", "write", "rename"])
def test_write_parts_errors_name_the_output(tmp_path, monkeypatch, stage):
    out = tmp_path / ("gone/out" if stage == "create" else "out")
    parts = _failing_parts() if stage == "write" else [b"text\n"]
    if stage == "rename":
        monkeypatch.setattr(os, "replace", _failing_replace)
    with pytest.raises(OSError) as raised:
        cli._write_parts(out, parts)
    assert raised.value.filename == str(out)
    assert raised.value.filename2 is None
    assert ".tmp" not in str(raised.value)
    assert list(tmp_path.iterdir()) == []


def _transcript_bytes() -> bytes:
    bsc = BscParams(m_A=2000)
    episode = run_digital_episode(bsc, 0)
    target = reconcile_plan(bsc, efficiency=1.6, safety_margin=0.2).max_key_len
    result = reconcile_and_amplify(episode, bsc, target, 0, efficiency=1.6,
                                   safety_margin=0.2)
    return dataclasses.replace(episode, key_A=result.key_A,
                               key_B=result.key_B).to_bytes()


def _sweep_rows():
    return run_sweep(SweepSpec(SystemParams(), "rho", (0.2,), n_draws=300))


# what the library returns for each output of _OUTPUTS, at seed 0
_LIBRARY_BYTES = {
    ("rates", "--json-out"):
        lambda: run_rates(SystemParams(), 300, 0).to_json().encode(),
    ("sweep", "--out"): lambda: rows_to_csv(_sweep_rows()).encode(),
    ("sweep", "--plot-out"):
        lambda: emit_plotdata(_sweep_rows(), "alpha").encode(),
    ("simulate-analog", "--out"): lambda: episode_to_csv(
        simulate_episode(SystemParams(m_A=2500), 0)).encode(),
    ("simulate-digital", "--transcript-out"): _transcript_bytes,
    ("verify-bounds", "--csv-out"): lambda: rows_to_csv(
        [dataclasses.asdict(r) for r in run_oracle_suite(
            SystemParams(), 0, n_realizations=5)]).encode(),
}


def _run_output(capsys, argv, flag, path):
    """Run argv writing its output to path; return the exit code, the stderr
    text and the bytes the library returns for that output."""
    code, _, err = run_cli(capsys, *argv, flag, str(path))
    return code, err, _LIBRARY_BYTES[argv[0], flag]()


@pytest.mark.parametrize("worker, argv, flag", _OUTPUTS)
def test_cli_output_holds_the_library_bytes(tmp_path, capsys, worker, argv,
                                            flag):
    # the exact bytes, so '\n' line ends stay '\n' on every platform
    out = tmp_path / "out"
    code, err, want = _run_output(capsys, argv, flag, out)
    assert code == 0 and err == ""
    assert out.read_bytes() == want
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("worker, argv, flag", _OUTPUTS)
def test_cli_output_keeps_an_earlier_file_when_the_rename_fails(
        tmp_path, monkeypatch, capsys, worker, argv, flag):
    def replace(*args):
        raise OSError("rename failed")
    monkeypatch.setattr(os, "replace", replace)
    out = tmp_path / "out"
    out.write_bytes(b"earlier run\n")
    code, err, _ = _run_output(capsys, argv, flag, out)
    assert code == 1 and err == "error: rename failed\n"
    assert out.read_bytes() == b"earlier run\n"
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("worker, argv, flag", _OUTPUTS)
def test_cli_output_keeps_the_file_mode(tmp_path, capsys, worker, argv, flag):
    out = tmp_path / "out"
    out.write_bytes(b"earlier run\n")
    out.chmod(0o600)
    code, err, want = _run_output(capsys, argv, flag, out)
    assert code == 0 and err == ""
    assert out.read_bytes() == want
    assert stat.S_IMODE(out.stat().st_mode) == 0o600


@pytest.mark.parametrize("worker, argv, flag", _OUTPUTS)
def test_cli_output_writes_through_a_symlink(tmp_path, capsys, worker, argv,
                                             flag):
    target = tmp_path / "target"
    target.write_bytes(b"earlier run\n")
    link = tmp_path / "link"
    link.symlink_to(target.name)
    code, err, want = _run_output(capsys, argv, flag, link)
    assert code == 0 and err == ""
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == want
    assert sorted(tmp_path.iterdir()) == [link, target]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("worker, argv, flag", _OUTPUTS)
def test_cli_output_writes_into_a_fifo(tmp_path, capsys, worker, argv, flag):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    code, err, want = _run_output(capsys, argv, flag, fifo)
    reader.join(timeout=60)
    assert code == 0 and err == "" and not reader.is_alive()
    assert got == [want]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_field = 2\n")
    code, _, err = run_cli(capsys, "rates", "--config", str(cfg))
    assert code == 1 and "unknown config key" in err


@pytest.mark.parametrize("blob, message", [
    (b"p_A = 2\n# caf\xe9\n", "is not UTF-8 text"),
    (b"p_A = 2\nrho = 0.3\np_A = 3\n",
     "config key 'p_A' is set twice, on lines 1 and 3"),
])
def test_cli_bad_config_file_exits_1(tmp_path, capsys, blob, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(blob)
    code, out, err = run_cli(capsys, "rates", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


# ---------------------------------------------------------------- CLI: sweep

def test_cli_sweep_deterministic_bytes(tmp_path, capsys):
    args = ("sweep", "--field", "rho", "--grid", "0.2,0.6", "--n-draws",
            "300", "--seed", "5")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code_a, _, _ = run_cli(capsys, *args, "--out", str(out_a))
    code_b, _, _ = run_cli(capsys, *args, "--workers", "2",
                           "--out", str(out_b))
    assert code_a == code_b == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cli_sweep_plot_output(tmp_path, capsys):
    plot = tmp_path / "plot.csv"
    code, _, _ = run_cli(capsys, "sweep", "--digital", "--field", "P_EA",
                         "--grid", "0.15,0.25", "--plot-metric",
                         "xi_digital", "--plot-out", str(plot))
    assert code == 0
    assert plot.read_text().splitlines()[0] == "x,y,y_err"


def test_cli_sweep_digital_keeps_rows_outside_regime(capsys):
    # P_EA = 0.5 puts P_E|B at 1/2, where the secrecy formula does not hold
    code, out, err = run_cli(capsys, "sweep", "--digital", "--field", "P_EA",
                             "--grid", "0.2,0.5,0.3", "--m_A", "16")
    assert code == 1
    assert err == ("error: P_EA = 0.5: secrecy formula outside stated "
                   "regime: P_E|B >= 1/2\n")
    lines = out.splitlines()
    header = lines[0].split(",")
    assert len(lines) == 4 and "status" in header
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert [r["value"] for r in rows] == ["0.2", "0.5", "0.3"]
    assert rows[1]["status"].startswith("secrecy formula outside")
    assert rows[1]["xi_digital"] == rows[1]["xi_lower"] == ""
    assert rows[0]["status"] == rows[2]["status"] == ""
    assert float(rows[0]["xi_digital"]) < float(rows[2]["xi_digital"])


def test_cli_sweep_analog_keeps_the_row_of_a_failing_point(tmp_path, capsys):
    # sigma_s2 = 1e300 overflows snr_EB's variance; the point's row stays,
    # with a status, as a digital point's does, and the other rows are
    # written in full
    argv = ("sweep", "--field", "sigma_s2", "--grid", "1,1e300,2",
            "--n-draws", "50")
    error = ("error: sigma_s2 = 1e+300: report value snr_EB is not "
             "finite: inf\n")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and err == error
    lines = out.splitlines()
    header = lines[0].split(",")
    assert len(lines) == 4 and "status" in header
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert [r["value"] for r in rows] == ["1.0", "1e+300", "2.0"]
    assert rows[1]["status"] == "report value snr_EB is not finite: inf"
    assert rows[1]["C_E"] == rows[1]["alpha"] == ""
    assert rows[0]["status"] == rows[2]["status"] == ""
    assert all(math.isfinite(float(r["C_E"])) for r in (rows[0], rows[2]))
    csv_out = tmp_path / "sweep.csv"
    code, _, err = run_cli(capsys, *argv, "--workers", "2", "--out",
                           str(csv_out))
    assert code == 1 and err == error
    assert csv_out.read_text() == out


@pytest.mark.parametrize("argv", [
    ("rates", "--n-draws", "100", "--sigma_s2", "1e300"),
    ("rates", "--n-draws", "100", "--sigma_B2", "1e-300"),
    ("rates", "--n-draws", "100", "--p_A", "1e308"),
    # failing points at --workers 2, where the pool's thread may run some
    # (test_workers pins the error state a pool job runs in)
    ("sweep", "--field", "sigma_s2", "--grid", "1e300,1,1e299,1e300",
     "--n-draws", "50", "--workers", "2"),
    ("simulate-analog", "--m_A", "1000", "--p_A", "1e300"),
])
def test_cli_extreme_point_fails_with_error_lines_and_no_warning(capsys,
                                                                 argv):
    # numpy's overflow warnings once printed above the error line; the
    # check of the report or summary names the value instead
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, *argv)
    assert code == 1 and err
    assert all(line.startswith("error: ") and "not finite" in line
               for line in err.splitlines())


@pytest.mark.parametrize("flag, value", [("--p_A", "1e300"),
                                         ("--sigma_s2", "1e300")])
def test_cli_simulate_analog_rejects_a_summary_that_is_not_finite(
        tmp_path, capsys, flag, value):
    # the summary was printed with a bare Infinity, which is not JSON, after
    # the episode CSV was written, and the command exited 0
    out = tmp_path / "episode.csv"
    code, text, err = run_cli(capsys, "simulate-analog", "--m_A", "1000",
                              flag, value, "--out", str(out))
    assert code == 1 and text == ""
    assert err == ("error: summary value snr_alice_empirical is not "
                   "finite: inf\n")
    assert list(tmp_path.iterdir()) == []


def test_cli_sweep_plot_with_no_row_in_regime(capsys):
    # the sweep ran; its one point has no rates, so there is nothing to plot
    code, out, err = run_cli(capsys, "sweep", "--digital", "--field", "P_EA",
                             "--grid", "0.5", "--P_BA", "0.5",
                             "--plot-metric", "xi_digital")
    assert code == 1
    assert out.splitlines()[0] == "field,value,status"
    assert err == ("error: P_EA = 0.5: secrecy formula outside stated "
                   "regime: P_E|B >= 1/2\n"
                   "error: no sweep row has rates to plot\n")
    with pytest.raises(ParamError, match="^no sweep row has rates to plot$"):
        emit_plotdata([], "xi_digital")


def test_cli_sweep_digital_rejects_grid_outside_unit_half(capsys):
    code, out, err = run_cli(capsys, "sweep", "--digital", "--field", "P_EA",
                             "--grid", "0.2,0.6")
    assert code == 1 and out == ""
    assert "P_EA must lie in [0, 0.5]" in err


def test_cli_sweep_unknown_field_fails(capsys):
    code, _, err = run_cli(capsys, "sweep", "--field", "zzz",
                           "--grid", "1,2")
    assert code == 1 and "unknown sweep field" in err


# ------------------------------------------------------- CLI: simulations

def test_cli_simulate_analog(tmp_path, capsys):
    out = tmp_path / "episode.csv"
    code, text, _ = run_cli(capsys, "simulate-analog", "--m_A", "2000",
                            "--seed", "1", "--out", str(out))
    assert code == 0
    payload = json.loads(text)
    assert abs(payload["p_r_empirical"] - payload["p_r_closed_form"]) \
        < 0.2 * payload["p_r_closed_form"]
    header = out.read_text().splitlines()[0]
    assert header.startswith("k,x_A_re,x_A_im")


def test_cli_simulate_analog_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli(capsys, "simulate-analog", "--m_A", "64", "--seed", "9",
            "--out", str(a))
    run_cli(capsys, "simulate-analog", "--m_A", "64", "--seed", "9",
            "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_cli_largest_seed_keeps_its_bytes(capsys):
    code, text, _ = run_cli(capsys, "simulate-analog", "--m_A", "5",
                            "--seed", str((1 << 64) - 1))
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e168a0473c7a280a67d355edbe24abb517756d7678f4789ce148ace3a2157087")


def test_cli_simulate_digital(tmp_path, capsys):
    blob = tmp_path / "transcript.bin"
    code, text, _ = run_cli(capsys, "simulate-digital", "--seed", "2",
                            "--transcript-out", str(blob))
    assert code == 0
    payload = json.loads(text)
    assert payload["keys_agree"] is True
    assert payload["target_len"] == payload["max_key_len"] == 610
    back = DigitalEpisode.from_bytes(blob.read_bytes())
    assert back.key_A is not None
    assert np.array_equal(back.key_A, back.key_B)


def test_cli_simulate_digital_without_a_buildable_code(capsys):
    # a 2-bit syndrome has no LDPC code of column weight 3: no key, exit 0
    code, text, _ = run_cli(capsys, "simulate-digital", "--m_A", "10",
                            "--P_BA", "0.01")
    assert code == 0
    payload = json.loads(text)
    assert (payload["syndrome_bits"], payload["max_key_len"]) == (2, 0)
    assert payload["note"] == "no distillable key at this operating point"


def _digital_transcript_sha256s(tmp_path, capsys, monkeypatch, m_A,
                                *extra, seed="11"):
    """The transcript digests of `simulate-digital` (seed 11 unless given)
    at 1, 2 and 3 usable CPUs, which split the decoder's checks and overlap
    the hashes.  The last transcript stays in tmp_path / "transcript.bin"."""
    digests = set()
    blob = tmp_path / "transcript.bin"
    for cpus in (1, 2, 3):
        monkeypatch.setattr(_workers, "usable_cpus", lambda: cpus)
        code, _, _ = run_cli(capsys, "simulate-digital", "--m_A", m_A,
                             *extra, "--seed", seed,
                             "--transcript-out", str(blob))
        assert code == 0
        digests.add(hashlib.sha256(blob.read_bytes()).hexdigest())
    return digests


def test_cli_simulate_digital_transcript_pinned(tmp_path, capsys, monkeypatch):
    # bytes written by the dense-matrix Toeplitz hash; the FFT hash and any
    # later change to the pipeline must reproduce them exactly
    assert _digital_transcript_sha256s(tmp_path, capsys, monkeypatch,
                                       "20000") == {
        "e522f2f04977f80a32e13a67433f6184c9a9ffafb15e633173ededd43608f3c8"}


def test_cli_simulate_digital_transcript_pinned_past_2_16_checks(
        tmp_path, capsys, monkeypatch):
    # 75,040 checks, so the LDPC edge sort runs its high 16-bit pass;
    # measured while the edges were ordered by a comparison sort
    assert _digital_transcript_sha256s(tmp_path, capsys, monkeypatch,
                                       "100000") == {
        "ed5eb034023a48786a3de90f1ea035295169928c3c649edbc3440c160ebbad79"}


def test_cli_simulate_digital_failed_reconciliation_transcript_pinned(
        tmp_path, capsys, monkeypatch):
    # the decoder stops short of b_s, so Alice hashes her own corrected
    # string; measured before a run whose keys agree stopped hashing twice
    assert _digital_transcript_sha256s(tmp_path, capsys, monkeypatch,
                                       "20000", "--efficiency", "1.2",
                                       seed="3") == {
        "6e564c5d1ccdd56bca2b2d6f938031baf0e0ac3a589d61d6f48492a096a08b4d"}
    back = DigitalEpisode.from_bytes(
        (tmp_path / "transcript.bin").read_bytes())
    assert not np.array_equal(back.key_A, back.key_B)


@pytest.mark.parametrize("extra, digest", [
    ((), "9962a4c74efe7ada7df4c47586dcf44bfddf0c61fc98534c41b14ffc3fa51407"),
    (("--m_B", "2"),
     "7e63d01a3de06ad21b7779e1991755ef1e4823b8213fb8ad2ce916f2e3a0f293"),
], ids=["one-way", "two-way-mB2"])
def test_cli_sweep_bytes_pinned(capsys, extra, digest):
    # measured before the draw terms moved into one kernel; the one-way and
    # two-way rate reports must reproduce them exactly
    code, out, _ = run_cli(capsys, "sweep", "--rho", "0.7", "--m_A", "8",
                           "--field", "rho", "--grid", "0.3,0.5,0.7,0.9",
                           "--n-draws", "2000", "--seed", "2", *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("extra, digest", [
    (("--n_E", "1"),
     "514dd85e6176f008f10936866562d2eeed37de2ccd6334f720b10c66a1d3e1ea"),
    (("--n_E", "9"),
     "17578458f2c2de61a8452b56e2dfc2931cec3e3aeebbd3d702596c7cf7f9f129"),
    (("--n_E", "9", "--rho", "0.3+0.4j"),
     "5b961b3aa47ea9e71c5bc5bc5e54c5d983e97cbd4142821e1744dd9f7b1faf1b"),
], ids=["nE1", "nE9", "nE9-complex-rho"])
def test_cli_rates_json_bytes_pinned(tmp_path, capsys, extra, digest):
    # measured while Eve's antenna sums were numpy's own .sum(axis=-1); from
    # 8 antennas on numpy adds them pairwise, not in turn
    out_json = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "rates", "--n-draws", "5000", "--seed", "4",
                         *extra, "--json-out", str(out_json))
    assert code == 0
    assert hashlib.sha256(out_json.read_bytes()).hexdigest() == digest


def test_cli_sweep_digital_bytes_pinned(capsys):
    # measured while the bounds were still enumerated in steeplab.digital
    code, out, _ = run_cli(capsys, "sweep", "--digital", "--field", "P_EA",
                           "--grid", "0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45",
                           "--P_AB", "0.01", "--P_EB", "0.01")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ff4c586578377542c84aa7e95f874fadf2a36e6be2ed2fbf65a858e17ed847f6")


def test_cli_simulate_digital_explicit_target(capsys):
    code, text, _ = run_cli(capsys, "simulate-digital", "--seed", "3",
                            "--target-len", "128")
    assert code == 0
    assert json.loads(text)["target_len"] == 128


def test_cli_simulate_digital_overlong_target(capsys):
    code, _, err = run_cli(capsys, "simulate-digital", "--seed", "3",
                           "--target-len", "100000")
    assert code == 1 and "610" in err


# ------------------------------------------------------- CLI: verify

_VERIFY_PINS = [
    (("--seed", "3", "--n-realizations", "200"),
     "d38c463f5eabbca165623f7c66f73b29f0b8f19998071d805a32f9dabfbd5ccc",
     "d40f09ac4af028159afd7c9482e1e287f751e8da20563dd42f6f3105da3a43ec"),
    (("--n_E", "3", "--rho", "0.4", "--seed", "4"),
     "6a83861a63b8075ab5ee8c1b65f0b20ab67cdc5c067da38bfe680c93235d1fe9",
     "d69774d9dc166f4c0f923c28bfa12e44c879f8091d015d2dc5f2f4abd57750f7"),
]


@pytest.mark.parametrize("argv, stdout_digest, csv_digest", _VERIFY_PINS,
                         ids=["seed3", "nE3-rho0.4-seed4"])
def test_cli_verify_bounds_bytes_pinned(tmp_path, monkeypatch, capsys, argv,
                                        stdout_digest, csv_digest):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "verify-bounds", *argv, "--csv-out", "v.csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest
    assert hashlib.sha256((tmp_path / "v.csv").read_bytes()).hexdigest() == (
        csv_digest)


def test_cli_verify_bounds_independent_of_blas_threads(tmp_path):
    # threaded BLAS splits long reductions by thread count; the sample
    # reductions behind the residual-SNR and MSE rows must not go through it
    argv, stdout_digest, csv_digest = _VERIFY_PINS[0]
    src = str(Path(steeplab.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        run_dir = tmp_path / threads
        run_dir.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "steeplab", "verify-bounds", *argv,
             "--csv-out", "v.csv"],
            cwd=run_dir, env=env, capture_output=True, check=True)
        outputs.append((proc.stdout, (run_dir / "v.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    assert hashlib.sha256(outputs[0][0]).hexdigest() == stdout_digest
    assert hashlib.sha256(outputs[0][1]).hexdigest() == csv_digest


def test_cli_verify_bounds_without_probes(capsys):
    # the echo checks set their own m_A; the high-power limit reads only xi
    code, out, _ = run_cli(capsys, "verify-bounds", "--m_A", "0",
                           "--n-realizations", "5")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_cli_verify_bounds_fails_the_overflowing_mse_checks(capsys):
    # at p_A 1e300 each trial's MSE overflows and its standard error is inf;
    # the MSE rows used to read PASS with tol=inf
    code, out, _ = run_cli(capsys, "verify-bounds", "--p_A", "1e300",
                           "--n-realizations", "5")
    assert code == 2
    mse_rows = [line for line in out.splitlines() if "MSE" in line]
    assert len(mse_rows) == 3
    assert all(line.startswith("FAIL") for line in mse_rows)


def test_cli_verify_bounds(capsys):
    code, out, _ = run_cli(capsys, "verify-bounds", "--n-realizations", "15",
                           "--seed", "0")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert "oracle checks passed" in out


# a point where no two powers, variances or return noises are equal, so a
# formula that reads the wrong one of them gives a wrong number
_GENERIC = ("--p_A", "1.3", "--p_B", "0.7", "--sigma_A2", "0.6",
            "--sigma_B2", "1.1", "--sigma_EA2", "0.8", "--sigma_EB2", "1.7",
            "--sigma_s2", "2.3", "--eps_A", "0.4", "--eps_E", "0.9")


@pytest.mark.parametrize("seed", ["1", "20231"])
def test_cli_verify_bounds_at_a_generic_point(capsys, seed):
    code, out, _ = run_cli(capsys, "verify-bounds", *_GENERIC, "--seed", seed)
    assert code == 0
    assert out.splitlines()[-1] == "20/20 oracle checks passed"


def _xfail_until(item):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"the suite misses it until {item}")


# one-line formula bugs: (file, text, its replacement); the oracle suite at
# the generic point must catch each one, and the rows it misses name the
# ROADMAP item meant to catch them
_MUTANTS = [
    pytest.param("rates.py",
                 "params.p_A, params.sigma_B2, params.sigma_EA2)",
                 "params.p_A, params.sigma_B2, params.sigma_EB2)",
                 id="M1-eve-BA-snr-divides-by-sigma_EB2"),
    pytest.param("rates.py",
                 "    t = params.sigma_s2 / params.sigma_B2\n    prime",
                 "    t = params.sigma_s2 / params.sigma_A2\n    prime",
                 id="M2-t-over-sigma_A2"),
    pytest.param("rates.py",
                 "u = np.divide(xnorm2, params.sigma_s2 + params.sigma_B2, "
                 "out=xnorm2)",
                 "u = np.divide(xnorm2, params.sigma_s2 + params.sigma_A2, "
                 "out=xnorm2)",
                 id="M3-alpha-prime-u-uses-sigma_A2",
                 marks=_xfail_until("item 2")),
    pytest.param("channel.py",
                 "((params.n_E, m), params.sigma_EA2)",
                 "((params.n_E, m), params.sigma_EB2)",
                 id="M4-eve-probing-noise-drawn-with-sigma_EB2"),
    pytest.param("mmse.py",
                 "params.p_A * gnorm2 / params.sigma_EA2 + 1.0",
                 "params.p_A * gnorm2 / params.sigma_EB2 + 1.0",
                 id="M5-eve-xA-mse-uses-sigma_EB2"),
    pytest.param("mmse.py",
                 "g = params.sigma_s2 + params.sigma_B2 + params.eps_A",
                 "g = params.sigma_s2 + params.sigma_B2 + params.eps_E",
                 id="M6-alice-s-mse-uses-eps_E",
                 marks=_xfail_until("item 2")),
    pytest.param("rates.py",
                 '("BA", 1, 2, params.p_A',
                 '("BA", 1, 2, params.p_B',
                 id="M7-BA-probing-snr-uses-p_B"),
    pytest.param("channel.py",
                 "((m,), params.sigma_s2)",
                 "((m,), 1.01 * params.sigma_s2)",
                 id="M8-secret-drawn-at-1.01-sigma_s2",
                 marks=_xfail_until("items 3 and 14")),
    pytest.param("digital.py",
                 "return (bsc_convolve(p_ba, p_ab),",
                 "return (bsc_convolve(p_ba, p_eb),",
                 id="D1-P_A_given_B-convolves-P_EB",
                 marks=_xfail_until("item 21 step 2")),
    pytest.param("digital.py",
                 "bsc_convolve(bsc_convolve(p_ea, p_ba), p_eb))",
                 "bsc_convolve(bsc_convolve(p_ea, p_ba), p_ab))",
                 id="D2-P_E_given_B-convolves-P_AB",
                 marks=_xfail_until("item 21 step 2")),
    pytest.param("digital.py",
                 "leak = max(0.0, syndrome_bits - ideal)",
                 "leak = 0.0",
                 id="D3-reconcile-plan-charges-no-leak",
                 marks=_xfail_until("items 6 and 7")),
    pytest.param("digital.py",
                 '"w_ea", m, bsc.P_EA',
                 '"w_ba", m, bsc.P_EA',
                 id="D4-eve-probing-flips-from-bobs-stream",
                 marks=_xfail_until("item 21 step 2")),
    pytest.param("digital.py",
                 "bbar_EB=b_eb ^ b_ea",
                 "bbar_EB=b_eb ^ b_a",
                 id="D5-eve-folds-with-alices-probes",
                 marks=_xfail_until("item 21 step 2")),
    pytest.param("rates.py",
                 "params.eps_E / params.eps_A",
                 "params.eps_A / params.eps_E",
                 id="R2-eta-is-eps_A-over-eps_E",
                 marks=_xfail_until("item 2")),
    pytest.param("rates.py",
                 "dev.sum() / (n - 1)",
                 "dev.sum() / n",
                 id="R3-standard-error-with-ddof-0",
                 marks=_xfail_until("item 26")),
    pytest.param("rates.py",
                 '("C_A", m_B, "xi_AB"',
                 '("C_A", m_B, "xi_BA"',
                 id="R4-C_A-adds-xi_BA",
                 marks=_xfail_until("item 26")),
]


@pytest.mark.slow
@pytest.mark.parametrize("module, text, mutated", _MUTANTS)
def test_oracle_suite_catches_one_line_mutants(tmp_path, module, text,
                                               mutated):
    src = Path(steeplab.__file__).resolve().parents[1]
    copy = tmp_path / "src"
    shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
    path = copy / "steeplab" / module
    code = path.read_text()
    if code.count(text) != 1:
        pytest.fail(f"{module} holds the mutant's text {code.count(text)} "
                    "times, not once")
    path.write_text(code.replace(text, mutated))
    proc = subprocess.run(
        [sys.executable, "-m", "steeplab", "verify-bounds", *_GENERIC,
         "--seed", "1"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(copy)),
        capture_output=True, text=True)
    if proc.returncode not in (0, 2):
        pytest.fail(f"verify-bounds ended with {proc.returncode}: "
                    f"{proc.stderr}")
    assert proc.returncode == 2, "the oracle suite passed the mutant"


# ------------------------------------------------------- CLI: closed stdout

@pytest.mark.parametrize("lines_read", [0, 1])
@pytest.mark.parametrize("argv, out_flag", [
    (("rates", "--n-draws", "2000", "--seed", "3"), "--json-out"),
    (("verify-bounds", "--n-realizations", "5", "--seed", "3"), "--csv-out"),
])
def test_cli_outlives_a_closed_stdout(tmp_path, monkeypatch, capsys, argv,
                                      out_flag, lines_read):
    # the reader goes away after `lines_read` lines, as `steeplab ... |
    # head -1` does; with 0 its end is closed before the command starts, so
    # the first flush always fails
    full = [*argv, out_flag, "out.txt"]
    (tmp_path / "ref").mkdir()
    monkeypatch.chdir(tmp_path / "ref")
    want_code = main(full)
    capsys.readouterr()
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(
        Path(steeplab.__file__).resolve().parents[1]))
    cmd = [sys.executable, "-m", "steeplab", *full]
    if lines_read == 0:
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = subprocess.Popen(cmd, cwd=run_dir, env=env, stdout=write_end,
                                stderr=subprocess.PIPE)
        os.close(write_end)
    else:
        proc = subprocess.Popen(cmd, cwd=run_dir, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline()
        proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == want_code
    assert err == b""
    assert (run_dir / "out.txt").read_bytes() == (
        tmp_path / "ref" / "out.txt").read_bytes()
