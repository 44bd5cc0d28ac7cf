"""Experiment harness and command-line interface.

Subcommands:

    rates             all closed-form rates at one parameter point
    sweep             grid sweep over one parameter, CSV out
    simulate-analog   one full probe-echo episode, CSV + JSON summary
    simulate-digital  one digital episode end to end, keys included
    verify-bounds     run every oracle, table + optional CSV

Determinism contract: all randomness flows from one ``--seed``; per-point
and per-trial sub-seeds are derived hierarchically, so runs with identical
flags produce byte-identical outputs, and adding a new experiment never
perturbs an existing one.  The harness owns the only worker pool (sweep
points can evaluate in parallel); every computational module stays pure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import SimulationError, _episode_csv_parts, simulate_episode
from .digital import (BscParams, effective_error_rates, reconcile_and_amplify,
                      reconcile_plan, run_digital_episode, xi_digital)
from .codes import hexdump
from .params import (ChannelRealization, ParamError, RateReport, SystemParams,
                     _field_types, _replace_from_text, read_config)
from .rates import (_mean_se, _one_batch, corollary1_capacity, power_budget,
                    theorem1_bounds, theorem2_lower_bound,
                    theorem3_lower_bound)
from .seeds import subseed
from .verify import empirical_snr, mac_bounds_digital, run_oracle_suite

__all__ = ["SweepSpec", "run_rates", "run_sweep", "emit_plotdata",
           "rows_to_csv", "main"]


# =====================================================================
# Aggregated rate report
# =====================================================================

def run_rates(params: SystemParams, n_draws: int = 10_000,
              rng_seed: int = 0) -> RateReport:
    """Every rate the library computes, in one report.

    Every Monte Carlo term reduces one channel batch, sampled once per call
    and held only while the report is built (``rates._one_batch``), so
    quantities that coincide analytically coincide exactly: ``xi_tilde``
    is ``xi_BA_prime`` and ``xi_steep_ac`` is ``xi_BA``, values and
    standard errors alike.
    """
    key = (params, n_draws, rng_seed)
    with _one_batch(*key) as terms:
        report = theorem1_bounds(*key)
        values, stderr, notes = report.values, report.stderr, report.notes

        if (params.m_A == 0) != (params.m_B == 0):
            values["C_key_one_way"] = corollary1_capacity(*key)

        if params.m_A >= 1:
            rep3 = theorem3_lower_bound(*key)
            values.update(rep3.values)
            stderr.update(rep3.stderr)
            if params.eps_A > 0 and params.eps_E > 0:
                rep2 = theorem2_lower_bound(*key)
                values.update(rep2.values)
                stderr.update(rep2.stderr)
                notes.extend(n for n in rep2.notes if n not in notes)
            else:
                notes.append("eta-dependent lower bound skipped: needs "
                             "eps_A > 0 and eps_E > 0")

            for name, same in (("xi_tilde", "xi_BA_prime"),
                               ("xi_steep_ac", "xi_BA")):
                values[name], stderr[name] = values[same], stderr[same]
            values["snr_AB"] = float(terms["snr_AB"][0])
            values["snr_EB"], stderr["snr_EB"] = _mean_se(terms["snr_EB"])
            # p_r is linear in |h_BA|^2, so its mean is p_r at E|h_BA|^2 = 1
            unit = ChannelRealization(1.0, 1.0, np.zeros(params.n_E),
                                      np.zeros(params.n_E))
            values["power_p_r_mean"], values["power_sigma_s2_reco_mean"] = \
                power_budget(params, unit)
        else:
            notes.append("echo-phase metrics skipped: m_A = 0 means no "
                         "probes to echo")
    return report.check()


# =====================================================================
# Sweeps
# =====================================================================

@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional grid sweep over a parameter field.

    ``base`` may be analog ``SystemParams`` (rows carry every rate from
    ``run_rates``) or digital ``BscParams`` (rows carry the digital rates).
    A digital point outside the secrecy formula's regime (P_E|B = 1/2)
    keeps its row, with a ``status`` naming the reason and no rates.
    """

    base: SystemParams | BscParams
    field_name: str
    grid: tuple[float, ...]
    n_draws: int = 4000
    rng_seed: int = 0

    def check(self) -> "SweepSpec":
        if self.field_name not in _field_types(type(self.base)):
            raise ParamError(
                f"unknown sweep field '{self.field_name}' for "
                f"{type(self.base).__name__}"
            )
        if not self.grid:
            raise ParamError("sweep grid must not be empty")
        for v in self.grid:
            if not math.isfinite(v):
                raise ParamError(f"sweep grid value {v!r} is not finite")
        if self.n_draws < 2:
            raise ParamError("n_draws must be >= 2")
        return self


def _sweep_value(spec: SweepSpec, value: float):
    if _field_types(type(spec.base))[spec.field_name] is int:
        ival = int(value)
        if ival != value:
            raise ParamError(f"field {spec.field_name} needs integer grid "
                             f"values, got {value!r}")
        value = ival
    return dataclasses.replace(spec.base, **{spec.field_name: value})


def _sweep_point(spec: SweepSpec,
                 item: tuple[int, SystemParams | BscParams]) -> dict:
    index, point = item
    seed = subseed(spec.rng_seed, "sweep", index)
    row: dict = {"field": spec.field_name, "value": float(spec.grid[index])}
    if isinstance(point, SystemParams):
        report = run_rates(point, spec.n_draws, seed)
        row.update({k: float(v) for k, v in sorted(report.values.items())})
        row.update({f"{k}_stderr": float(v)
                    for k, v in sorted(report.stderr.items())})
    else:
        try:
            xi = xi_digital(point, mode="exact")
        except ParamError as exc:  # a valid point outside the formula's regime
            row["status"] = str(exc)
            return row
        p_ab, p_eb = effective_error_rates(point, mode="exact")
        xi_l, xi_u = mac_bounds_digital(point)
        row.update({
            "P_A_given_B": p_ab,
            "P_E_given_B": p_eb,
            "xi_digital": xi,
            "xi_lower": xi_l,
            "xi_upper": xi_u,
        })
    return row


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[dict]:
    """Evaluate the sweep grid; row order and values never depend on
    ``workers`` because every point derives its own seed."""
    spec.check()
    if workers < 1:
        raise ParamError(f"workers must be >= 1, got {workers}")
    # every point is built, and so validated, before any point runs
    items = list(enumerate(_sweep_value(spec, v) for v in spec.grid))
    if workers == 1:
        return [_sweep_point(spec, item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda item: _sweep_point(spec, item), items))


def rows_to_csv(rows: list[dict], path: str | Path | None = None) -> str:
    """Stable-column CSV; floats rendered with repr for reproducibility.

    Columns are field and value, then the union of every row's keys in
    sorted order; a row without one of them leaves that cell empty.  A
    NumPy float is written as the Python float it equals.  The file holds
    exactly the returned text, with '\\n' line ends on every platform.
    """
    if not rows:
        raise ParamError("no rows to serialize")
    keys = set().union(*rows)
    lead = [c for c in ("field", "value") if c in keys]
    columns = lead + sorted(keys.difference(lead))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row.get(c, "")) for c in columns])
    text = buf.getvalue()
    if path is not None:
        Path(path).write_bytes(text.encode("utf-8"))
    return text


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def emit_plotdata(rows: list[dict], style: str,
                  path: str | Path | None = None) -> str:
    """Plot-ready CSV with columns x, y, y_err for one chosen metric."""
    if not rows:
        raise ParamError("no sweep rows; run the sweep first")
    missing = [r["value"] for r in rows if style not in r]
    if missing:
        available = ", ".join(sorted(set.intersection(*map(set, rows))
                                     - {"field", "value"}))
        raise ParamError(f"plot metric '{style}' is missing at value(s) "
                         f"{', '.join(map(repr, missing))}; available: "
                         f"{available}")
    return rows_to_csv([{"x": float(r["value"]), "y": float(r[style]),
                         "y_err": float(r.get(f"{style}_stderr", 0.0))}
                        for r in rows], path)


# =====================================================================
# Command line
# =====================================================================

def _add_fields(parser: argparse.ArgumentParser, cls: type,
                skip: frozenset[str] = frozenset()) -> None:
    """One text-valued flag per field of ``cls``; ``_build`` parses them."""
    for f in dataclasses.fields(cls):
        if f.name not in skip:
            parser.add_argument(f"--{f.name}", default=None, help=(
                f"override {f.name}" if cls is SystemParams
                else f"{f.name} (default {f.default})"))


_PARAM_FLAGS = ("config", *_field_types(SystemParams), *_field_types(BscParams))


def _build(cls: type, args: argparse.Namespace) -> SystemParams | BscParams:
    """Params of ``cls``: defaults, then ``--config`` (analog only), then
    every parameter flag given, each parsed by the schema.  A given flag
    that ``cls`` does not use is an error, never dropped."""
    given = {k: getattr(args, k) for k in _PARAM_FLAGS
             if getattr(args, k, None) is not None}
    own = [*(("config",) if cls is SystemParams else ()), *_field_types(cls)]
    foreign = [k for k in given if k not in own]
    if foreign:
        raise ParamError(f"flags not used by {cls.__name__}: "
                         + ", ".join(f"--{k}" for k in foreign))
    config = given.pop("config", None)
    base = read_config(config) if config else cls()
    return _replace_from_text(base, [(k, given[k]) for k in own if k in given])


def _grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"grid must be comma-separated numbers, got {text!r}") from exc


def _check_out_dirs(*paths: Path | None) -> None:
    """Fail before the work, not after it, when an output file's directory
    does not exist."""
    for path in paths:
        if path is not None and not path.parent.is_dir():
            raise ParamError(f"cannot write {path}: directory {path.parent} "
                             "does not exist")


def _print(*args, **kwargs) -> None:
    """``print`` to stdout that outlives its reader: once the reader closes
    the pipe (``steeplab ... | head -1``), the rest of the output is
    dropped and the command still writes its files and returns its code."""
    try:
        print(*args, **kwargs)
    except BrokenPipeError:
        _drop_stdout()


def _drop_stdout() -> None:
    # point the stdout descriptor at /dev/null, so the buffered text still
    # pending, flushed now or at exit, has somewhere to go
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _print_json(payload: dict) -> None:
    _print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_rates(args: argparse.Namespace) -> int:
    params = _build(SystemParams, args)
    _check_out_dirs(args.json_out)
    report = run_rates(params, n_draws=args.n_draws, rng_seed=args.seed)
    if args.json_out:
        Path(args.json_out).write_bytes(report.to_json().encode("utf-8"))
    width = max(len(k) for k in report.values)
    for key in sorted(report.values):
        line = f"{key:<{width}}  {report.values[key]: .6f}"
        if key in report.stderr:
            line += f"  (+/- {report.stderr[key]:.2e})"
        _print(line)
    for note in report.notes:
        _print(f"note: {note}")
    if args.json_out:
        _print(f"wrote {args.json_out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.plot_out and not args.plot_metric:
        raise ParamError("--plot-out needs --plot-metric")
    base = _build(BscParams if args.digital else SystemParams, args)
    _check_out_dirs(args.out, args.plot_out)
    spec = SweepSpec(base=base, field_name=args.field, grid=args.grid,
                     n_draws=args.n_draws, rng_seed=args.seed)
    rows = run_sweep(spec, workers=args.workers)
    text = rows_to_csv(rows, path=args.out)
    if args.out:
        _print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        _print(text, end="")
    failed = [r for r in rows if "status" in r]
    for r in failed:
        print(f"error: {r['field']} = {r['value']!r}: {r['status']}",
              file=sys.stderr)
    if args.plot_metric:
        plot_text = emit_plotdata([r for r in rows if "status" not in r],
                                  args.plot_metric, path=args.plot_out)
        if args.plot_out:
            _print(f"wrote {args.plot_out}")
        else:
            _print(plot_text, end="")
    return 1 if failed else 0


def _write_parts(path: Path, parts) -> None:
    """Write the bytes-like parts to path as they come.  A file goes through
    a temporary file beside it: on any failure path is left as it was and
    the temporary file is removed.  A pipe or device is written in place,
    since renaming onto it would replace it."""
    if path.exists() and not path.is_file():
        with open(path, "wb") as fh:
            fh.writelines(parts)
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _cmd_simulate_analog(args: argparse.Namespace) -> int:
    params = _build(SystemParams, args)
    _check_out_dirs(args.out)
    episode = simulate_episode(params, args.seed)
    if args.out:
        _write_parts(args.out, _episode_csv_parts(episode))
    realization = episode.realization
    p_r, _ = power_budget(params, realization)
    payload = {
        "m_A": params.m_A,
        "h_BA_abs2": float(np.square(np.abs(realization.h_BA))),
        "p_r_closed_form": p_r,
        "p_r_empirical": float(np.mean(np.abs(episode.r) ** 2)),
        "secret_power_empirical": float(np.mean(np.abs(episode.s) ** 2)),
    }
    if params.m_A >= 1000:
        # genie probe cancellation; the residual n_B + s + v_A carries the
        # secret at SNR sigma_s2 / (sigma_B2 + eps_A)
        t_a = episode.y_AB - realization.h_BA * episode.x_A
        payload["snr_alice_empirical"] = empirical_snr(episode.s, t_a)
        payload["snr_alice_closed_form"] = params.sigma_s2 / (
            params.sigma_B2 + params.eps_A)
    if args.out:
        payload["episode_csv"] = str(args.out)
    _print_json(payload)
    return 0


def _cmd_simulate_digital(args: argparse.Namespace) -> int:
    bsc = _build(BscParams, args)
    _check_out_dirs(args.transcript_out)
    episode = run_digital_episode(bsc, args.seed)
    plan = reconcile_plan(bsc, efficiency=args.efficiency,
                          safety_margin=args.safety_margin)
    payload: dict = {
        "m_A": bsc.m_A,
        "xi_digital": plan.xi,
        "P_A_given_B": plan.p_a_given_b,
        "P_E_given_B": plan.p_e_given_b,
        "empirical_P_A_given_B": float(np.mean(episode.bbar_AB ^ episode.b_s)),
        "empirical_P_E_given_B": float(np.mean(episode.bbar_EB ^ episode.b_s)),
        "syndrome_bits": plan.syndrome_bits,
        "leak_bits": plan.leak_bits,
        "max_key_len": plan.max_key_len,
    }
    target = plan.max_key_len if args.target_len is None else args.target_len
    if target >= 1 or args.target_len is not None:
        result = reconcile_and_amplify(episode, bsc, target, args.seed,
                                       efficiency=args.efficiency,
                                       safety_margin=args.safety_margin)
        episode = dataclasses.replace(episode, key_A=result.key_A,
                                      key_B=result.key_B)
        payload.update({
            "target_len": target,
            "keys_agree": result.success,
            "decoder_converged": result.decoder_converged,
            "key_B_hex": hexdump(np.packbits(result.key_B,
                                             bitorder="little").tobytes()),
        })
    else:
        payload["target_len"] = 0
        payload["keys_agree"] = False
        payload["note"] = "no distillable key at this operating point"
    if args.transcript_out:
        Path(args.transcript_out).write_bytes(episode.to_bytes())
        payload["transcript"] = str(args.transcript_out)
    _print_json(payload)
    return 0


def _cmd_verify_bounds(args: argparse.Namespace) -> int:
    params = _build(SystemParams, args)
    _check_out_dirs(args.csv_out)
    reports = run_oracle_suite(params, rng_seed=args.seed,
                               n_realizations=args.n_realizations)
    if args.csv_out:
        rows_to_csv([dataclasses.asdict(r) for r in reports], path=args.csv_out)
    width = max(len(r.name) for r in reports)
    failures = 0
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        _print(f"{status}  {r.name:<{width}}  closed={r.closed_form: .9g}  "
               f"oracle={r.oracle: .9g}  |dev|={r.abs_dev:.3g}  "
               f"tol={r.tolerance:.3g}  n={r.n_samples}")
    if args.csv_out:
        _print(f"wrote {args.csv_out}")
    _print(f"{len(reports) - failures}/{len(reports)} oracle checks passed")
    return 0 if failures == 0 else 2


class _Parser(argparse.ArgumentParser):
    """Reports a malformed, missing or unknown flag as a ParamError."""

    def error(self, message: str):
        raise ParamError(message)


@functools.cache
def _parser() -> _Parser:
    """The whole argument tree, built once per process; parsing leaves it
    unchanged, so every ``main`` call can reuse it."""
    parser = _Parser(
        prog="steeplab",
        description="Probe-echo secrecy laboratory: closed-form rates, "
                    "protocol simulation, and oracle verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    analog = argparse.ArgumentParser(add_help=False)
    analog.add_argument("--config", type=Path, default=None,
                        help="flat 'key = value' parameter file")
    _add_fields(analog, SystemParams)
    digital = argparse.ArgumentParser(add_help=False)
    _add_fields(digital, BscParams)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)

    p_rates = sub.add_parser("rates", parents=[analog, seeded],
                             help="closed-form rates at one point")
    p_rates.add_argument("--n-draws", type=int, default=10_000)
    p_rates.add_argument("--json-out", type=Path, default=None)
    p_rates.set_defaults(func=_cmd_rates)

    p_sweep = sub.add_parser("sweep", parents=[analog, seeded],
                             help="grid sweep over one field")
    _add_fields(p_sweep, BscParams, skip=frozenset({"m_A"}))
    p_sweep.add_argument("--digital", action="store_true",
                         help="sweep the digital model instead of the analog one")
    p_sweep.add_argument("--field", required=True)
    p_sweep.add_argument("--grid", required=True, type=_grid,
                         help="comma-separated values")
    p_sweep.add_argument("--n-draws", type=int, default=4000)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--out", type=Path, default=None)
    p_sweep.add_argument("--plot-metric", default=None)
    p_sweep.add_argument("--plot-out", type=Path, default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sim = sub.add_parser("simulate-analog", parents=[analog, seeded],
                           help="one probe-echo episode")
    p_sim.add_argument("--out", type=Path, default=None,
                       help="write the episode CSV here")
    p_sim.set_defaults(func=_cmd_simulate_analog)

    p_dig = sub.add_parser("simulate-digital", parents=[digital, seeded],
                           help="one digital episode")
    p_dig.add_argument("--target-len", type=int, default=None,
                       help="key length; defaults to the distillable maximum")
    p_dig.add_argument("--efficiency", type=float, default=1.6)
    p_dig.add_argument("--safety-margin", type=float, default=0.2)
    p_dig.add_argument("--transcript-out", type=Path, default=None)
    p_dig.set_defaults(func=_cmd_simulate_digital)

    p_ver = sub.add_parser("verify-bounds", parents=[analog, seeded],
                           help="run the oracle suite")
    p_ver.add_argument("--n-realizations", type=int, default=200)
    p_ver.add_argument("--csv-out", type=Path, default=None)
    p_ver.set_defaults(func=_cmd_verify_bounds)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.func(args)
    except (ParamError, SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
