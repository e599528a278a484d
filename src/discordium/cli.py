"""Command-line surface: discord values, spectra, GHZ curves, dynamics sweeps,
state validation, and analytic-vs-oracle comparison.

Exit codes: 0 success, 2 invalid or unphysical parameters, 3 no analytic case
for the requested parameters (use --method oracle or --fallback oracle).
All error messages are single lines prefixed "error:" on stderr. Output is
deterministic for a fixed seed; floats carry 9 significant digits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .analytic import (
    NoAnalyticCase,
    discord_diagonal_field,
    discord_ghz,
    discord_symmetric,
)
from .decoherence import ChannelParams, detect_freeze_transition, dynamics_sweep
from .oracle import OracleConfig, minimize_family, minimize_reduced, oracle_reaches
from .pauli import (
    DENSE_CAP_ENV,
    DenseCapExceeded,
    DiagonalFieldParams,
    FamilyParams,
    GhzParams,
    dense_cap,
)
from .spectral import family_spectrum, physicality, require_physical


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _family_params(args):
    if args.family == "symmetric":
        if args.n is None:
            raise ValueError("--n is required for the symmetric family")
        return FamilyParams(args.n, args.c1, args.c2, args.c3, args.s)
    if args.family == "diagonal":
        if not args.fields:
            raise ValueError("--fields is required for the diagonal family")
        return DiagonalFieldParams(tuple(float(v) for v in args.fields.split(",")))
    if args.mu is None or args.n is None:
        raise ValueError("--n and --mu are required for the ghz family")
    return GhzParams(args.n, args.mu)


def _oracle_config(args) -> OracleConfig:
    cfg = OracleConfig.from_json(args.config) if args.config else OracleConfig()
    return cfg if args.seed is None else dataclasses.replace(cfg, seed=args.seed)


def _analytic_result(params):
    if isinstance(params, FamilyParams):
        return discord_symmetric(params)
    if isinstance(params, DiagonalFieldParams):
        return discord_diagonal_field(params)
    return discord_ghz(params)


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_discord(args) -> int:
    params = _family_params(args)
    require_physical(params)
    cfg = _oracle_config(args)
    if args.method == "analytic":
        try:
            res = _analytic_result(params)
            value, branch = res.value, res.branch
        except NoAnalyticCase:
            if args.fallback == "oracle":
                value, branch = minimize_family(params, cfg).value, "oracle[fallback]"
            else:
                raise
    elif args.method == "oracle":
        value, branch = minimize_family(params, cfg).value, "oracle"
    else:
        if not isinstance(params, FamilyParams):
            raise ValueError("--method reduced applies to the symmetric family only")
        value, branch = minimize_reduced(params, cfg).value, "reduced"
    if args.format == "json":
        _write(json.dumps({"value_bits": value, "branch": branch}) + "\n", args.out)
    else:
        _write(f"value_bits={_fmt(value)} branch={branch}\n", args.out)
    return 0


def _cmd_spectrum(args) -> int:
    params = _family_params(args)
    cap = dense_cap()
    if params.n_qubits > cap:
        raise DenseCapExceeded(
            f"spectrum lists all 2^N eigenvalues; n_qubits={params.n_qubits} exceeds "
            f"dense cap {cap} (set {DENSE_CAP_ENV} to raise it)"
        )
    spectrum = family_spectrum(params)
    payload = {
        "eigenvalues": [float(v) for v in spectrum.eigenvalues],
        "entropy_bits": spectrum.entropy_bits(),
    }
    _write(json.dumps(payload) + "\n", args.out)
    return 0


def _cmd_ghz_curve(args) -> int:
    if args.n_min < 2 or args.n_max < args.n_min:
        raise ValueError("need 2 <= n-min <= n-max")
    if args.mu_steps < 2:
        raise ValueError("need at least 2 mu steps")
    cfg = _oracle_config(args)
    lines = ["n,mu,discord_bits" + (",oracle_bits" if args.oracle_check else "")]
    for n in range(args.n_min, args.n_max + 1):
        for mu in np.linspace(0.0, 1.0, args.mu_steps):
            params = GhzParams(n, float(mu))
            row = f"{n},{_fmt(float(mu))},{_fmt(discord_ghz(params).value)}"
            if args.oracle_check:
                extra = _fmt(minimize_family(params, cfg).value) if oracle_reaches(params) else ""
                row += f",{extra}"
            lines.append(row)
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_dynamics(args) -> int:
    params = _family_params(args)
    if not isinstance(params, FamilyParams):
        raise ValueError("dynamics sweeps apply to the symmetric family")
    require_physical(params)
    if args.gamma is not None:
        if args.t_max is None:
            raise ValueError("--gamma requires --t-max")
        times = np.linspace(0.0, args.t_max, args.p_steps)
        grid = [ChannelParams.from_rate_time(args.gamma, t).p for t in times]
    else:
        grid = [float(p) for p in np.linspace(args.p_min, args.p_max, args.p_steps)]
    series = dynamics_sweep(params, grid, method=args.method, cfg=_oracle_config(args))
    # flags carry ~10 significant digits, so the coupling equality is loosened
    report = detect_freeze_transition(params, coupling_tol=1e-9)
    if report.frozen:
        sys.stderr.write(
            f"freeze: frozen_value={_fmt(report.frozen_value)} p_star={_fmt(report.p_star)}\n"
        )
    _write(series.to_csv(), args.out)
    return 0


def _cmd_validate(args) -> int:
    # real Pauli weights make every family state Hermitian; no dense matrix is built
    dev, low, ok = physicality(_family_params(args))
    payload = {"hermitian": True, "trace_deviation": dev, "min_eigenvalue": low, "is_physical": ok}
    _write(json.dumps(payload) + "\n", args.out)
    return 0 if ok else 2


def _cmd_compare(args) -> int:
    params = _family_params(args)
    require_physical(params)
    cfg = _oracle_config(args)
    analytic = _analytic_result(params).value
    oracle = minimize_family(params, cfg).value
    diff = abs(analytic - oracle)
    _write(
        f"analytic={_fmt(analytic)} oracle={_fmt(oracle)} diff={_fmt(diff)} tol={_fmt(args.tol)}\n",
        args.out,
    )
    return 0 if diff <= args.tol else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discordium",
        description="Multipartite quantum discord: closed forms, oracle, dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=str, default=None)
    common.add_argument("--config", type=str, default=None)
    common.add_argument("--seed", type=int, default=None)
    family = argparse.ArgumentParser(add_help=False, parents=[common])
    family.add_argument("--family", choices=("symmetric", "diagonal", "ghz"), required=True)
    family.add_argument("--n", type=int, help="qubit count (symmetric, ghz)")
    family.add_argument("--c1", type=float, default=0.0)
    family.add_argument("--c2", type=float, default=0.0)
    family.add_argument("--c3", type=float, default=0.0)
    family.add_argument("--s", type=float, default=0.0)
    family.add_argument("--fields", type=str, help="comma-separated s_1,...,s_N (diagonal)")
    family.add_argument("--mu", type=float, help="GHZ mixedness in [0,1]")

    p = sub.add_parser("discord", parents=[family], help="discord of one state")
    p.add_argument("--method", choices=("analytic", "oracle", "reduced"), default="analytic")
    p.add_argument("--fallback", choices=("oracle",), default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_discord)

    p = sub.add_parser("spectrum", parents=[family], help="eigenvalues and entropy as JSON")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("ghz-curve", parents=[common], help="GHZ discord curve dataset")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--mu-steps", type=int, default=101)
    p.add_argument("--oracle-check", action="store_true")
    p.set_defaults(func=_cmd_ghz_curve)

    p = sub.add_parser("dynamics", parents=[family], help="phase-flip dynamics sweep as CSV")
    p.add_argument("--method", choices=("analytic", "oracle"), default="analytic")
    p.add_argument("--p-min", type=float, default=0.0)
    p.add_argument("--p-max", type=float, default=0.9)
    p.add_argument("--p-steps", type=int, default=91)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--t-max", type=float, default=None)
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("validate", parents=[family], help="physicality report as JSON")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("compare", parents=[family], help="analytic vs oracle agreement check")
    p.add_argument("--tol", type=float, default=5e-3)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except NoAnalyticCase as exc:
        sys.stderr.write(f"error: {exc}; rerun with --method oracle or --fallback oracle\n")
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
