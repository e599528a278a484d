#!/usr/bin/env python3
"""Arbitrate the two case-1 H-pairing patterns against the measurement oracle.

For random physical 3-qubit draws in the c3-dominant region with s != 0, the
closed form with the parity pattern and the alternative "printed" pairing are
both compared to the full sequential-measurement minimum. Results land in a
JSON report (default ./reports/case1_arbitration.json) with per-draw values
and aggregate error statistics. The sampler, the per-draw row and the report
assembly are importable, so the acceptance suite builds the same report.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from discordium import (
    FamilyParams,
    OracleConfig,
    build_symmetric_family,
    max_w,
    minimize_discord,
    realize,
    symmetric_spectrum,
)
from discordium.spectral import physicality

AGREE_TOL = 5e-3


def sample_case1(rng, n: int = 3, max_tries: int = 10000) -> FamilyParams:
    """Physical symmetric-family draw in the c3-dominant branch with s != 0."""
    for _ in range(max_tries):
        c3 = float(rng.uniform(-0.6, -0.05))
        c1 = float(rng.uniform(-abs(c3), abs(c3)))
        c2 = float(rng.uniform(-abs(c3), abs(c3)))
        s = float(rng.uniform(-0.4, 0.4))
        if abs(s) < 1e-3:
            continue
        params = FamilyParams(n, c1, c2, c3, s)
        if physicality(params)[2]:
            return params
    raise RuntimeError("rejection sampling failed")


def case1_row(params: FamilyParams, cfg: OracleConfig) -> dict:
    """Both patterns' closed forms against the oracle for one draw."""
    base = symmetric_spectrum(params).sum_xlog2() + params.n_qubits
    parity = base - max_w(params, "parity")
    printed = base - max_w(params, "printed")
    oracle = minimize_discord(realize(build_symmetric_family(params)), cfg).value
    return {
        "c1": params.c1,
        "c2": params.c2,
        "c3": params.c3,
        "s": params.s,
        "oracle": oracle,
        "parity": parity,
        "printed": printed,
        "parity_abs_err": abs(parity - oracle),
        "printed_abs_err": abs(printed - oracle),
        "printed_agrees": abs(printed - oracle) <= AGREE_TOL,
    }


def build_report(rows: list[dict], seed: int) -> dict:
    return {
        "draws": len(rows),
        "seed": seed,
        "parity_max_abs_err": max(r["parity_abs_err"] for r in rows),
        "printed_max_abs_err": max(r["printed_abs_err"] for r in rows),
        "printed_agreement_count": sum(r["printed_agrees"] for r in rows),
        "rows": rows,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=30)
    parser.add_argument("--starts", type=int, default=12)
    parser.add_argument("--seed", type=int, default=20240817)
    parser.add_argument("--out", type=Path, default=Path("reports/case1_arbitration.json"))
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    cfg = OracleConfig(starts=args.starts, seed=args.seed)
    rows = []
    for i in range(args.draws):
        rows.append(case1_row(sample_case1(rng), cfg))
        print(
            f"draw {i + 1:2d}: oracle={rows[-1]['oracle']:+.7f} parity_err={rows[-1]['parity_abs_err']:.2e} "
            f"printed_err={rows[-1]['printed_abs_err']:.2e}"
        )

    report = build_report(rows, args.seed)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1))
    print(
        f"\nparity max err {report['parity_max_abs_err']:.2e}; printed pattern agrees on "
        f"{report['printed_agreement_count']}/{args.draws} draws "
        f"(max err {report['printed_max_abs_err']:.2e})"
    )
    print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
