#!/usr/bin/env python3
"""Regenerate the figure datasets (GHZ curves and dephasing dynamics) as CSV.

Writes into --outdir (default ./figures):
  fig1.csv      n,mu,discord_bits for N = 2..6, mu on a 101-point grid
  fig2.csv      the same quantity on a denser (N, mu) grid for surface plots
  fig3_3q.csv   p,discord_bits,branch for the 3-qubit dephasing sweep
  fig3_4q.csv   p,discord_bits,branch for the 4-qubit sweep (plateau + decay)
  fig3_even.csv n,p,discord_bits,branch for the freezing sweep at N = 4, 8, 12, 16

The first four are written by the `discordium ghz-curve` and `discordium
dynamics` commands. The 4-qubit and even-N sweep parameters sit in the
freezing regime (s=0, c2=c1*c3 for N divisible by 4, c1=5/6, c3=-0.2); the
detected transition points are written to stderr.
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from discordium import FamilyParams, detect_freeze_transition, dynamics_sweep
from discordium.cli import main as cli_main

C1, C3 = 5 / 6, -0.2


def run_cli(path: Path, argv) -> None:
    """Run one `discordium` command writing to path; a nonzero exit code stops the script."""
    code = cli_main([str(a) for a in argv] + ["--out", str(path)])
    if code != 0:
        raise SystemExit(code)


def dynamics_argv(n: int, p_steps: int) -> list:
    return ["dynamics", "--family", "symmetric", "--n", n, "--c1", repr(C1), "--c2", repr(C1 * C3),
            "--c3", repr(C3), "--p-steps", p_steps]


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
    for name, n_max in (("fig1.csv", 6), ("fig2.csv", 10)):
        argv = ["ghz-curve", "--n-min", 2, "--n-max", n_max, "--mu-steps", args.mu_steps]
        run_cli(args.outdir / name, argv)
    run_cli(args.outdir / "fig3_3q.csv", dynamics_argv(3, args.p_steps))
    run_cli(args.outdir / "fig3_4q.csv", dynamics_argv(4, args.p_steps))
    write_freezing(args.outdir / "fig3_even.csv", (4, 8, 12, 16), args.p_steps)
    print(f"wrote 5 datasets to {args.outdir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
