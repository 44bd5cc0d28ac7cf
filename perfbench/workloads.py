"""The four benchmark workloads: CLI argv, output checks and traced replay.

Each op is one in-process call of ``steeplab.cli.main(argv)``, the way a
user runs the lab.  ``check`` reads the files the op wrote and decides
whether it failed.  ``replay`` recomputes the same op through the public
functions the CLI composes, under spans, and returns the bytes the CLI op
wrote, so the traced breakdown can be shown to describe the same work.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from steeplab import channel, cli, digital, rates, verify
from steeplab.digital import BscParams, DigitalEpisode, validate_bsc
from steeplab.params import SystemParams, validate

from spans import Tracer

# sizes per workload; "smoke" runs the same code paths in well under a second
SIZES = {
    "full": {"n_draws": 100_000, "digital_m_A": 50_000, "analog_m_A": 20_000,
             "n_realizations": 200},
    "smoke": {"n_draws": 2_000, "digital_m_A": 2_000, "analog_m_A": 500,
              "n_realizations": 10},
}
SWEEP_GRID = "0.3,0.5,0.7,0.9"
SWEEP_WORKERS = 2
ANALOG_COLUMNS = 13 + 2 * SystemParams().n_E


@dataclass
class OpOutcome:
    """One CLI call: exit code, captured stdout and the written file."""

    rc: int
    stdout: str
    path: Path
    seconds: float
    cpu_seconds: float


@dataclass
class Verdict:
    """``failed``: counts against the op.  ``wrong``: an output is wrong,
    as opposed to a Monte Carlo check reporting a deviation over its
    3-SE (or percentage) tolerance, which the CLI reports with exit code 2.
    """

    failed: bool
    wrong: bool
    items: int
    note: str = ""


def _fail(note: str) -> Verdict:
    return Verdict(failed=True, wrong=True, items=0, note=note)


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# =====================================================================
# rates_sweep
# =====================================================================

def sweep_argv(seed: int, out: Path, size: dict, workers: int = SWEEP_WORKERS):
    return ["sweep", "--rho", "0.7", "--m_A", "8", "--field", "rho",
            "--grid", SWEEP_GRID, "--n-draws", str(size["n_draws"]),
            "--workers", str(workers), "--seed", str(seed), "--out", str(out)]


def _sweep_check(op: OpOutcome, size: dict) -> Verdict:
    if op.rc != 0:
        return _fail(f"exit code {op.rc}")
    rows = _csv_rows(op.path)
    header, body = rows[0], rows[1:]
    n_points = len(SWEEP_GRID.split(","))
    if len(body) != n_points:
        return _fail(f"{len(body)} rows, want {n_points}")
    c_key, c_b = header.index("C_key_one_way"), header.index("C_B")
    for row in body:
        if float(row[c_key]) != float(row[c_b]):
            return _fail(f"C_key_one_way {row[c_key]} != C_B {row[c_b]}")
    return Verdict(False, False, n_points * size["n_draws"])


def _sweep_replay(seed: int, size: dict, tracer: Tracer) -> bytes:
    params = validate(SystemParams(rho=0.7, m_A=8))
    spec = cli.SweepSpec(base=params, field_name="rho",
                         grid=tuple(float(v) for v in SWEEP_GRID.split(",")),
                         n_draws=size["n_draws"], rng_seed=seed)
    rows = cli.run_sweep(spec, workers=SWEEP_WORKERS)
    return cli.rows_to_csv(rows).encode("utf-8")


# =====================================================================
# digital_keygen
# =====================================================================

def _digital_argv(seed: int, out: Path, size: dict):
    return ["simulate-digital", "--m_A", str(size["digital_m_A"]),
            "--seed", str(seed), "--transcript-out", str(out)]


def _digital_check(op: OpOutcome, size: dict) -> Verdict:
    if op.rc != 0:
        return _fail(f"exit code {op.rc}")
    if not json.loads(op.stdout).get("keys_agree"):
        return _fail("keys_agree is false")
    episode = DigitalEpisode.from_bytes(op.path.read_bytes())
    if episode.key_A is None or episode.key_B is None:
        return _fail("transcript holds no keys")
    if not (episode.key_A == episode.key_B).all() or episode.key_A.size == 0:
        return _fail("transcript keys differ")
    return Verdict(False, False, int(episode.key_B.size))


def _digital_replay(seed: int, size: dict, tracer: Tracer) -> bytes:
    bsc = validate_bsc(BscParams(m_A=size["digital_m_A"]))
    episode = digital.run_digital_episode(bsc, seed)
    plan = digital.reconcile_plan(bsc)
    result = digital.reconcile_and_amplify(episode, bsc, plan.max_key_len, seed)
    episode = dataclasses.replace(episode, key_A=result.key_A,
                                  key_B=result.key_B)
    with tracer.span("digital.to_bytes") as rec:
        data = episode.to_bytes()
        rec["bytes"] = len(data)
    return data


# =====================================================================
# analog_episode
# =====================================================================

def _analog_argv(seed: int, out: Path, size: dict):
    return ["simulate-analog", "--rho", "0.7", "--m_A", str(size["analog_m_A"]),
            "--seed", str(seed), "--out", str(out)]


def _analog_check(op: OpOutcome, size: dict) -> Verdict:
    if op.rc != 0:
        return _fail(f"exit code {op.rc}")
    lines = op.path.read_text(encoding="utf-8").splitlines()
    if len(lines) != size["analog_m_A"] + 1:
        return _fail(f"{len(lines)} lines, want {size['analog_m_A'] + 1}")
    widths = {line.count(",") + 1 for line in lines}
    if widths != {ANALOG_COLUMNS}:
        return _fail(f"column counts {sorted(widths)}, want {ANALOG_COLUMNS}")
    return Verdict(False, False, len(lines) - 1)


def _analog_replay(seed: int, size: dict, tracer: Tracer) -> bytes:
    params = validate(SystemParams(rho=0.7, m_A=size["analog_m_A"]))
    episode = channel.simulate_episode(params, seed)
    return channel.episode_to_csv(episode).encode("utf-8")


# =====================================================================
# oracle_suite
# =====================================================================

_CHECKS_LINE = re.compile(r"^(\d+)/(\d+) oracle checks passed$", re.M)
EXACT_TOLERANCE = 1e-9


def _oracle_argv(seed: int, out: Path, size: dict):
    return ["verify-bounds", "--seed", str(seed), "--n-realizations",
            str(size["n_realizations"]), "--csv-out", str(out)]


def _oracle_check(op: OpOutcome, size: dict) -> Verdict:
    if op.rc not in (0, 2):
        return _fail(f"exit code {op.rc}")
    found = _CHECKS_LINE.search(op.stdout)
    if found is None:
        return _fail("no check count printed")
    passed, total = int(found.group(1)), int(found.group(2))
    rows = _csv_rows(op.path)
    header, body = rows[0], rows[1:]
    if len(body) != total:
        return _fail(f"{len(body)} CSV rows, {total} checks printed")
    failing = [r for r in body if r[header.index("passed")] != "True"]
    if len(failing) != total - passed or (op.rc == 0) != (not failing):
        return _fail("exit code, printed count and CSV verdicts disagree")
    # exact checks (closed form vs log-det or enumeration) use tolerances of
    # 1e-9 and below; Monte Carlo checks use 3 SE or a few percent
    if any(float(r[header.index("tolerance")]) <= EXACT_TOLERANCE for r in failing):
        return _fail("an exact oracle check failed")
    if failing:
        names = "; ".join(r[header.index("name")] for r in failing)
        return Verdict(True, False, total, f"Monte Carlo check over tolerance: {names}")
    return Verdict(False, False, total)


def _oracle_replay(seed: int, size: dict, tracer: Tracer) -> bytes:
    reports = verify.run_oracle_suite(SystemParams(), rng_seed=seed,
                                      n_realizations=size["n_realizations"])
    rows = [{
        "name": r.name, "closed_form": r.closed_form, "oracle": r.oracle,
        "abs_dev": r.abs_dev, "rel_dev": r.rel_dev,
        "n_samples": str(r.n_samples), "tolerance": r.tolerance,
        "passed": str(r.passed),
    } for r in reports]
    return cli.rows_to_csv(rows).encode("utf-8")


# =====================================================================
# Registry and traced names
# =====================================================================

@dataclass(frozen=True)
class Workload:
    """``reference``: the reference kernel (see reference.py) whose speed
    around each op scales the op's time.
    ``op_s``: wall time of one full-size op plus one reference call on the
    2-vCPU VM of perfbench/README.md; a run of S seconds makes
    round(S / op_s) ops, so the op count, and with it ``attempted`` and
    ``failed``, depends only on the arguments.
    """

    name: str
    argv: Callable[[int, Path, dict], list[str]]
    check: Callable[[OpOutcome, dict], Verdict]
    replay: Callable[[int, dict, Tracer], bytes]
    reference: str
    op_s: float


WORKLOADS = {w.name: w for w in (
    Workload("rates_sweep", sweep_argv, _sweep_check, _sweep_replay,
             "numpy", 0.51),
    Workload("digital_keygen", _digital_argv, _digital_check, _digital_replay,
             "memory", 1.05),
    Workload("analog_episode", _analog_argv, _analog_check, _analog_replay,
             "cpu", 0.70),
    Workload("oracle_suite", _oracle_argv, _oracle_check, _oracle_replay,
             "cpu", 0.55),
)}


def _draws(result, args):
    return {"draws": int(result[0].shape[0])}


def _toeplitz(result, args):
    n, ell = len(args[0]), len(result)
    return {"mac_ops": n * ell, "bytes_computed": 8 * n * ell}


# (module, name looked up by the caller, span name, counters, trace memory).
# A name is patched in the namespace of the module that calls it, so only
# the calls the CLI's composition makes get a span: decode_syndrome's own
# per-iteration syndrome_of calls, for one, stay inside its span.
TARGETS = [
    (cli, "run_sweep", "cli.run_sweep", None, False),
    (cli, "run_rates", "cli.run_rates", None, False),
    (cli, "rows_to_csv", "cli.rows_to_csv", None, False),
    (cli, "theorem1_bounds", "rates.theorem1_bounds", None, False),
    (cli, "corollary1_capacity", "rates.corollary1_capacity", None, False),
    (cli, "theorem2_lower_bound", "rates.theorem2_lower_bound", None, False),
    (cli, "theorem3_lower_bound", "rates.theorem3_lower_bound", None, False),
    (rates, "sample_channel_batch", "channel.sample_channel_batch", _draws, False),
    (channel, "simulate_episode", "channel.simulate_episode", None, False),
    (channel, "episode_to_csv", "channel.episode_to_csv",
     lambda result, args: {"bytes": len(result)}, False),
    (digital, "run_digital_episode", "digital.run_digital_episode", None, False),
    (digital, "reconcile_plan", "digital.reconcile_plan", None, False),
    (digital, "reconcile_and_amplify", "digital.reconcile_and_amplify",
     lambda result, args: {"key_bits": int(result.key_B.size),
                           "syndrome_bits": result.syndrome_bits,
                           "keys_agree": bool(result.success)}, False),
    (digital, "make_ldpc", "codes.make_ldpc",
     lambda result, args: {"edges": int(result.chk.size)}, False),
    (digital, "syndrome_of", "codes.syndrome_of", None, False),
    (digital, "decode_syndrome", "codes.decode_syndrome",
     lambda result, args: {"converged": bool(result[1])}, False),
    (digital, "toeplitz_hash", "codes.toeplitz_hash", _toeplitz, True),
    (verify, "run_oracle_suite", "verify.run_oracle_suite",
     lambda result, args: {"checks": len(result),
                           "checks_failed": sum(not r.passed for r in result)},
     False),
    (verify, "theorem1_term_oracles", "verify.theorem1_term_oracles", None, False),
    (verify, "sample_channels", "channel.sample_channels", None, False),
    (verify, "simulate_episode", "channel.simulate_episode", None, False),
    (verify, "alice_estimate_s", "mmse.alice_estimate_s", None, False),
    (verify, "eve_estimate_xA", "mmse.eve_estimate_xA", None, False),
    (verify, "eve_estimate_s", "mmse.eve_estimate_s", None, False),
]
