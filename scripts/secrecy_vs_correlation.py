#!/usr/bin/env python3
"""Sweep the channel correlation and plot-ready key-rate curves.

Writes two CSVs next to this script unless --out-dir says otherwise:
rho_sweep.csv holds every rate at each grid point, rho_sweep_ckey.csv
holds x/y/y_err for the one-way key capacity.  Reruns with the same
flags reproduce the files byte for byte.
"""
import argparse
from pathlib import Path

from steeplab import SweepSpec, SystemParams, emit_plotdata, run_sweep
from steeplab.cli import rows_to_csv


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-draws", type=int, default=20_000)
    ap.add_argument("--points", type=int, default=9)
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--out-dir", type=Path,
                    default=Path(__file__).resolve().parent)
    args = ap.parse_args()

    grid = tuple(round(0.1 + 0.8 * i / (args.points - 1), 6)
                 for i in range(args.points))
    spec = SweepSpec(base=SystemParams(m_A=8, m_B=0), field_name="rho",
                     grid=grid, n_draws=args.n_draws, rng_seed=args.seed)
    rows = run_sweep(spec, workers=args.workers)

    sweep_path = args.out_dir / "rho_sweep.csv"
    plot_path = args.out_dir / "rho_sweep_ckey.csv"
    sweep_path.write_bytes(rows_to_csv(rows).encode("utf-8"))
    plot_path.write_bytes(emit_plotdata(rows, "C_key_one_way").encode("utf-8"))

    print(f"wrote {sweep_path} and {plot_path}")
    for row in rows:
        print(f"rho={row['value']:.3f}  alpha={row['alpha']:.4f}  "
              f"C_key={row['C_key_one_way']:.4f}  "
              f"echo lower bound={row['theorem3_lower']:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
