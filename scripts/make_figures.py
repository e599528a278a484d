#!/usr/bin/env python3
"""Regenerate the figure datasets (GHZ curves and dephasing dynamics) as CSV.

Writes into --outdir (default ./figures):
  fig1.csv      n,mu,discord_bits for N = 2..6, mu on a 101-point grid
  fig2.csv      the same quantity on a denser (N, mu) grid for surface plots
  fig3_3q.csv   p,discord_bits,branch for the 3-qubit dephasing sweep
  fig3_4q.csv   p,discord_bits,branch for the 4-qubit sweep (plateau + decay)
  fig3_even.csv n,p,discord_bits,branch for the freezing sweep at N = 4, 8, 12, 16

The 4-qubit and even-N sweep parameters sit in the freezing regime (s=0,
c2=c1*c3 for N divisible by 4, c1=5/6, c3=-0.2); the detected transition
points are written to stderr.
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from discordium import (
    FamilyParams,
    GhzParams,
    detect_freeze_transition,
    discord_ghz,
    dynamics_sweep,
)

C1, C3 = 5 / 6, -0.2


def write_ghz_curve(path: Path, n_range, mu_steps: int) -> None:
    lines = ["n,mu,discord_bits"]
    for n in n_range:
        for mu in np.linspace(0.0, 1.0, mu_steps):
            value = discord_ghz(GhzParams(n, float(mu))).value
            lines.append(f"{n},{mu:.9g},{value:.9g}")
    path.write_text("\n".join(lines) + "\n")


def write_dynamics(path: Path, n: int, p_steps: int) -> None:
    params = FamilyParams(n, C1, C1 * C3, C3, 0.0)
    grid = [float(p) for p in np.linspace(0.0, 0.9, p_steps)]
    series = dynamics_sweep(params, grid)
    path.write_text(series.to_csv())
    report = detect_freeze_transition(params)
    if report.frozen:
        sys.stderr.write(
            f"{path.name}: frozen_value={report.frozen_value:.9g} p_star={report.p_star:.9g}\n"
        )


def write_freezing(path: Path, ns, p_steps: int) -> None:
    grid = [float(p) for p in np.linspace(0.0, 0.9, p_steps)]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "p", "discord_bits", "branch"])
        for n in ns:
            sign = -1.0 if (n // 2) % 2 else 1.0
            params = FamilyParams(n, C1, sign * C1 * C3, C3, 0.0)
            for row in dynamics_sweep(params, grid).rows:
                writer.writerow([n, f"{row.p:.9g}", f"{row.value:.9g}", row.branch])
            report = detect_freeze_transition(params)
            sys.stderr.write(
                f"{path.name} N={n}: frozen_value={report.frozen_value:.9g} p_star={report.p_star:.9g}\n"
            )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", type=Path, default=Path("figures"))
    parser.add_argument("--mu-steps", type=int, default=101)
    parser.add_argument("--p-steps", type=int, default=91)
    args = parser.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    write_ghz_curve(args.outdir / "fig1.csv", range(2, 7), args.mu_steps)
    write_ghz_curve(args.outdir / "fig2.csv", range(2, 11), args.mu_steps)
    write_dynamics(args.outdir / "fig3_3q.csv", 3, args.p_steps)
    write_dynamics(args.outdir / "fig3_4q.csv", 4, args.p_steps)
    write_freezing(args.outdir / "fig3_even.csv", (4, 8, 12, 16), args.p_steps)
    print(f"wrote 5 datasets to {args.outdir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
