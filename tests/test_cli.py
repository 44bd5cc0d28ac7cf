"""Harness behavior: subcommands, determinism, config, error handling."""
import hashlib
import json
import math

import numpy as np
import pytest

from steeplab import (BscParams, DigitalEpisode, ParamError, RateReport,
                      SweepSpec, SystemParams, emit_plotdata, run_rates,
                      run_sweep)
from steeplab import rates
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
    # a point no other test evaluates, so no batch of it is kept already
    run_rates(SystemParams(rho=0.3, m_A=3), n_draws=700, rng_seed=41)
    assert len(calls) == 1


def test_run_rates_no_probes_skips_echo_metrics():
    import dataclasses
    p = dataclasses.replace(SystemParams(), m_A=0, m_B=3)
    rep = run_rates(p, n_draws=800, rng_seed=1)
    assert "theorem3_lower" not in rep.values
    assert "C_key_one_way" in rep.values
    assert any("m_A = 0" in n for n in rep.notes)


# ---------------------------------------------------------------- sweeps

def test_sweep_rows_and_worker_independence():
    spec = SweepSpec(base=SystemParams(), field_name="rho",
                     grid=(0.2, 0.5, 0.8), n_draws=400, rng_seed=3)
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=3)
    assert serial == parallel
    assert [r["value"] for r in serial] == [0.2, 0.5, 0.8]
    assert serial[0]["alpha"] < serial[2]["alpha"]


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


def test_rows_to_csv_round_trip_precision():
    rows = [{"field": "rho", "value": 0.1, "alpha": 1 / 3}]
    text = rows_to_csv(rows)
    cell = text.splitlines()[1].split(",")[2]
    assert float(cell) == 1 / 3  # repr floats survive the text round trip


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
    rep = RateReport.from_json(out_json.read_text())
    assert rep.params == SystemParams()


def test_cli_rates_flag_overrides(tmp_path, capsys):
    out_json = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "rates", "--rho", "0.8", "--m_A", "2",
                         "--n-draws", "300", "--json-out", str(out_json))
    assert code == 0
    rep = RateReport.from_json(out_json.read_text())
    assert rep.params.rho == 0.8 and rep.params.m_A == 2


def test_cli_rates_reads_config(tmp_path, capsys):
    cfg = tmp_path / "point.cfg"
    cfg.write_text("rho = 0.7\nm_A = 3\n# comment\n")
    out_json = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "rates", "--config", str(cfg),
                         "--m_A", "5", "--n-draws", "300",
                         "--json-out", str(out_json))
    assert code == 0
    rep = RateReport.from_json(out_json.read_text())
    # flags win over the config file
    assert rep.params.rho == 0.7 and rep.params.m_A == 5


def test_cli_rejects_invalid_params(capsys):
    code, _, err = run_cli(capsys, "rates", "--rho", "1.5", "--n-draws", "100")
    assert code == 1
    assert "|rho| must be < 1" in err


@pytest.mark.parametrize("flag, text", [("--rho", "abc"), ("--m_A", "1.5")])
def test_cli_rejects_malformed_flag(capsys, flag, text):
    code, _, err = run_cli(capsys, "rates", flag, text, "--n-draws", "100")
    assert code == 1
    assert err == f"error: parameter '{flag[2:]}': cannot parse value '{text}'\n"


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_field = 2\n")
    code, _, err = run_cli(capsys, "rates", "--config", str(cfg))
    assert code == 1 and "unknown config key" in err


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


def test_cli_simulate_digital_transcript_pinned(tmp_path, capsys):
    # bytes written by the dense-matrix Toeplitz hash; the FFT hash and any
    # later change to the pipeline must reproduce them exactly
    blob = tmp_path / "transcript.bin"
    code, _, _ = run_cli(capsys, "simulate-digital", "--m_A", "20000",
                         "--seed", "11", "--transcript-out", str(blob))
    assert code == 0
    assert hashlib.sha256(blob.read_bytes()).hexdigest() == (
        "e522f2f04977f80a32e13a67433f6184c9a9ffafb15e633173ededd43608f3c8")


@pytest.mark.parametrize("extra, digest", [
    ((), "9962a4c74efe7ada7df4c47586dcf44bfddf0c61fc98534c41b14ffc3fa51407"),
    (("--m_B", "2"),
     "7e63d01a3de06ad21b7779e1991755ef1e4823b8213fb8ad2ce916f2e3a0f293"),
])
def test_cli_sweep_bytes_pinned(capsys, extra, digest):
    # measured before the draw terms moved into one kernel; the one-way and
    # two-way rate reports must reproduce them exactly
    code, out, _ = run_cli(capsys, "sweep", "--rho", "0.7", "--m_A", "8",
                           "--field", "rho", "--grid", "0.3,0.5,0.7,0.9",
                           "--n-draws", "2000", "--seed", "2", *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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

def test_cli_verify_bounds(capsys):
    code, out, _ = run_cli(capsys, "verify-bounds", "--n-realizations", "15",
                           "--seed", "0")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert "oracle checks passed" in out
