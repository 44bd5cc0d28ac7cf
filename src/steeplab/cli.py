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
import io
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import SimulationError, episode_to_csv, simulate_episode
from .digital import (BscParams, effective_error_rates, mac_bounds_digital,
                      reconcile_and_amplify, reconcile_plan,
                      run_digital_episode, validate_bsc, xi_digital)
from .codes import hexdump
from .params import (_INT_FIELDS, ChannelRealization, ParamError, RateReport,
                     SystemParams, _coerce_value, read_config, validate)
from .rates import (_drop_shared_terms, _mean_se, corollary1_capacity,
                    power_budget, theorem1_bounds, theorem1_draw_terms,
                    theorem2_lower_bound, theorem3_lower_bound)
from .seeds import subseed
from .verify import empirical_snr, run_oracle_suite

__all__ = ["SweepSpec", "run_rates", "run_sweep", "emit_plotdata",
           "rows_to_csv", "main"]


# =====================================================================
# Aggregated rate report
# =====================================================================

def run_rates(params: SystemParams, n_draws: int = 10_000,
              rng_seed: int = 0) -> RateReport:
    """Every rate the library computes, in one report.

    Every Monte Carlo term reduces one channel batch, sampled once per call
    (``rates.theorem1_draw_terms``), so quantities that coincide
    analytically coincide exactly: ``xi_tilde`` is ``xi_BA_prime`` and
    ``xi_steep_ac`` is ``xi_BA``, values and standard errors alike.
    """
    validate(params)
    report = theorem1_bounds(params, n_draws, rng_seed)
    values, stderr, notes = report.values, report.stderr, report.notes

    if (params.m_A == 0) != (params.m_B == 0):
        values["C_key_one_way"] = corollary1_capacity(params, n_draws, rng_seed)

    if params.m_A >= 1:
        rep3 = theorem3_lower_bound(params, n_draws, rng_seed)
        values.update(rep3.values)
        stderr.update(rep3.stderr)
        if params.eps_A > 0 and params.eps_E > 0:
            rep2 = theorem2_lower_bound(params, n_draws, rng_seed)
            values.update(rep2.values)
            stderr.update(rep2.stderr)
            notes.extend(n for n in rep2.notes if n not in notes)
        else:
            notes.append("eta-dependent lower bound skipped: needs "
                         "eps_A > 0 and eps_E > 0")

        for name, same in (("xi_tilde", "xi_BA_prime"), ("xi_steep_ac", "xi_BA")):
            values[name], stderr[name] = values[same], stderr[same]
        terms = theorem1_draw_terms(params, n_draws, rng_seed)
        values["snr_AB"] = float(terms["snr_AB"][0])
        values["snr_EB"], stderr["snr_EB"] = _mean_se(terms["snr_EB"])
        # p_r is linear in |h_BA|^2, so its mean is its value at E|h_BA|^2 = 1
        unit = ChannelRealization(1.0, 1.0, np.zeros(params.n_E), np.zeros(params.n_E))
        values["power_p_r_mean"], values["power_sigma_s2_reco_mean"] = \
            power_budget(params, unit)
    else:
        notes.append("echo-phase metrics skipped: m_A = 0 means no probes "
                     "to echo")
    # the report is done with the batch; kept, its terms would only hold memory
    _drop_shared_terms()
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
        names = {f.name for f in dataclasses.fields(type(self.base))}
        if self.field_name not in names:
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
    if spec.field_name in _INT_FIELDS:
        ival = int(value)
        if ival != value:
            raise ParamError(f"field {spec.field_name} needs integer grid "
                             f"values, got {value!r}")
        value = ival
    return dataclasses.replace(spec.base, **{spec.field_name: value})


def _sweep_point(spec: SweepSpec, index: int) -> dict:
    value = spec.grid[index]
    seed = subseed(spec.rng_seed, "sweep", index)
    row: dict = {"field": spec.field_name, "value": float(value)}
    point = _sweep_value(spec, value)
    if isinstance(point, SystemParams):
        report = run_rates(point, spec.n_draws, seed)
        row.update({k: float(v) for k, v in sorted(report.values.items())})
        row.update({f"{k}_stderr": float(v)
                    for k, v in sorted(report.stderr.items())})
    else:
        validate_bsc(point)
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
    indices = range(len(spec.grid))
    if workers <= 1:
        return [_sweep_point(spec, i) for i in indices]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda i: _sweep_point(spec, i), indices))


def rows_to_csv(rows: list[dict], path: str | Path | None = None) -> str:
    """Stable-column CSV; floats rendered with repr for reproducibility.

    Columns are field and value, then the union of every row's keys in
    sorted order; a row without one of them leaves that cell empty.
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
        Path(path).write_text(text, encoding="utf-8")
    return text


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit_plotdata(rows: list[dict], style: str,
                  path: str | Path | None = None) -> str:
    """Plot-ready CSV with columns x, y, y_err for one chosen metric."""
    if not rows:
        raise ParamError("no sweep rows; run the sweep first")
    if style not in rows[0]:
        available = ", ".join(sorted(k for k in rows[0]
                                     if k not in ("field", "value")))
        raise ParamError(f"unknown plot metric '{style}'; available: {available}")
    out = [{"x": r["value"], "y": r[style],
            "y_err": r.get(f"{style}_stderr", 0.0)} for r in rows]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "y", "y_err"])
    for r in out:
        writer.writerow([_cell(float(r["x"])), _cell(float(r["y"])),
                         _cell(float(r["y_err"]))])
    text = buf.getvalue()
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


# =====================================================================
# Command line
# =====================================================================

def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="flat 'key = value' parameter file")
    for f in dataclasses.fields(SystemParams):
        parser.add_argument(f"--{f.name}", default=None,
                            help=f"override {f.name}")


def _build_params(args: argparse.Namespace) -> SystemParams:
    params = read_config(args.config) if args.config else SystemParams()
    overrides = {}
    for f in dataclasses.fields(SystemParams):
        v = getattr(args, f.name, None)
        if v is not None:
            overrides[f.name] = _coerce_value(f.name, v)
    if overrides:
        params = dataclasses.replace(params, **overrides)
    return validate(params)


def _add_bsc_flags(parser: argparse.ArgumentParser,
                   skip: frozenset[str] = frozenset()) -> None:
    for f in dataclasses.fields(BscParams):
        if f.name in skip:
            continue
        typ = int if f.name == "m_A" else float
        parser.add_argument(f"--{f.name}", type=typ, default=None,
                            help=f"{f.name} (default {f.default})")


def _build_bsc(args: argparse.Namespace) -> BscParams:
    kwargs = {}
    for f in dataclasses.fields(BscParams):
        v = getattr(args, f.name, None)
        if isinstance(v, str):  # sweep's --m_A is the analog, text-valued flag
            v = _coerce_value(f.name, v)
        kwargs[f.name] = f.default if v is None else v
    return validate_bsc(BscParams(**kwargs))


def _grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"grid must be comma-separated numbers, got {text!r}") from exc


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_rates(args: argparse.Namespace) -> int:
    params = _build_params(args)
    report = run_rates(params, n_draws=args.n_draws, rng_seed=args.seed)
    width = max(len(k) for k in report.values)
    for key in sorted(report.values):
        line = f"{key:<{width}}  {report.values[key]: .6f}"
        if key in report.stderr:
            line += f"  (+/- {report.stderr[key]:.2e})"
        print(line)
    for note in report.notes:
        print(f"note: {note}")
    if args.json_out:
        Path(args.json_out).write_text(report.to_json(), encoding="utf-8")
        print(f"wrote {args.json_out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.digital:
        base: SystemParams | BscParams = _build_bsc(args)
    else:
        base = _build_params(args)
    spec = SweepSpec(base=base, field_name=args.field, grid=args.grid,
                     n_draws=args.n_draws, rng_seed=args.seed)
    rows = run_sweep(spec, workers=args.workers)
    text = rows_to_csv(rows, path=args.out)
    if args.out:
        print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        print(text, end="")
    failed = [r for r in rows if "status" in r]
    for r in failed:
        print(f"error: {r['field']} = {r['value']!r}: {r['status']}",
              file=sys.stderr)
    if args.plot_metric:
        plot_text = emit_plotdata([r for r in rows if "status" not in r],
                                  args.plot_metric, path=args.plot_out)
        if args.plot_out:
            print(f"wrote {args.plot_out}")
        else:
            print(plot_text, end="")
    return 1 if failed else 0


def _cmd_simulate_analog(args: argparse.Namespace) -> int:
    params = _build_params(args)
    episode = simulate_episode(params, args.seed)
    if args.out:
        episode_to_csv(episode, args.out)
    realization = episode.realization
    p_r, _ = power_budget(params, realization)
    payload = {
        "m_A": params.m_A,
        "h_BA_abs2": abs(realization.h_BA) ** 2,
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
    bsc = _build_bsc(args)
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
    target = args.target_len if args.target_len is not None else plan.max_key_len
    if target >= 1:
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
    params = _build_params(args)
    reports = run_oracle_suite(params, rng_seed=args.seed,
                               n_realizations=args.n_realizations)
    width = max(len(r.name) for r in reports)
    failures = 0
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        print(f"{status}  {r.name:<{width}}  closed={r.closed_form: .9g}  "
              f"oracle={r.oracle: .9g}  |dev|={r.abs_dev:.3g}  "
              f"tol={r.tolerance:.3g}  n={r.n_samples}")
    if args.csv_out:
        rows = [{
            "name": r.name, "closed_form": r.closed_form, "oracle": r.oracle,
            "abs_dev": r.abs_dev, "rel_dev": r.rel_dev,
            "n_samples": str(r.n_samples), "tolerance": r.tolerance,
            "passed": str(r.passed),
        } for r in reports]
        rows_to_csv(rows, path=args.csv_out)
        print(f"wrote {args.csv_out}")
    print(f"{len(reports) - failures}/{len(reports)} oracle checks passed")
    return 0 if failures == 0 else 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="steeplab",
        description="Probe-echo secrecy laboratory: closed-form rates, "
                    "protocol simulation, and oracle verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rates = sub.add_parser("rates", help="closed-form rates at one point")
    _add_param_flags(p_rates)
    p_rates.add_argument("--n-draws", type=int, default=10_000)
    p_rates.add_argument("--seed", type=int, default=0)
    p_rates.add_argument("--json-out", type=Path, default=None)
    p_rates.set_defaults(func=_cmd_rates)

    p_sweep = sub.add_parser("sweep", help="grid sweep over one field")
    _add_param_flags(p_sweep)
    _add_bsc_flags(p_sweep, skip=frozenset({"m_A"}))
    p_sweep.add_argument("--digital", action="store_true",
                         help="sweep the digital model instead of the analog one")
    p_sweep.add_argument("--field", required=True)
    p_sweep.add_argument("--grid", required=True, type=_grid,
                         help="comma-separated values")
    p_sweep.add_argument("--n-draws", type=int, default=4000)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--out", type=Path, default=None)
    p_sweep.add_argument("--plot-metric", default=None)
    p_sweep.add_argument("--plot-out", type=Path, default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sim = sub.add_parser("simulate-analog", help="one probe-echo episode")
    _add_param_flags(p_sim)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", type=Path, default=None,
                       help="write the episode CSV here")
    p_sim.set_defaults(func=_cmd_simulate_analog)

    p_dig = sub.add_parser("simulate-digital", help="one digital episode")
    _add_bsc_flags(p_dig)
    p_dig.add_argument("--seed", type=int, default=0)
    p_dig.add_argument("--target-len", type=int, default=None,
                       help="key length; defaults to the distillable maximum")
    p_dig.add_argument("--efficiency", type=float, default=1.6)
    p_dig.add_argument("--safety-margin", type=float, default=0.2)
    p_dig.add_argument("--transcript-out", type=Path, default=None)
    p_dig.set_defaults(func=_cmd_simulate_digital)

    p_ver = sub.add_parser("verify-bounds", help="run the oracle suite")
    _add_param_flags(p_ver)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--n-realizations", type=int, default=200)
    p_ver.add_argument("--csv-out", type=Path, default=None)
    p_ver.set_defaults(func=_cmd_verify_bounds)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParamError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
