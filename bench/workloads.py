"""The benchmark's three workloads: seeded inputs, the ops that time them, and checks.

An op is one request of the size a user sends: a batch of closed-form draws
of one family at one N, one `discordium` command, or one oracle solve. A
workload is a fixed list of ops, one round; the inputs depend only on the
seed, and every check compares against `reference.py` or a property the
method must have. Ops reach discordium through module attributes at call
time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref

# Symmetric batches above this N fail today with DenseCapExceeded; their
# inputs come from a fixed seed so the failed share is the same in every run.
DENSE_FAIL_MIN_N = 9
FIXED_SEED = 20250228
WORKLOAD_IDS = {"closed_form": 1, "figures": 2, "oracle": 3}


@dataclass
class Op:
    """One timed request. `run` is timed; `collect` turns its result into the
    checked output outside the timer; `check` returns a list of problems;
    `warm`, if set, is a cheaper call of the same function that warms up the
    op's class in place of `run`."""

    name: str
    klass: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    collect: Callable[[Any], Any] = lambda result: result
    expect_failure: str | None = None
    warm: Callable[[], Any] | None = None


# --- seeded draws ----------------------------------------------------------


def draw_case1(rng, n: int):
    """Physical symmetric-family draw with c3 < 0 dominant and s != 0 (case 1)."""
    while True:
        c3 = -float(rng.uniform(0.05, 0.6))
        c1, c2 = (float(v) for v in rng.uniform(-abs(c3), abs(c3), 2))
        s = float(rng.uniform(-0.8, 0.8)) / n
        if abs(s) < 1e-3:
            continue
        if ref.symmetric_min_eigenvalue(n, c1, c2, c3, s) >= -1e-10:
            return (c1, c2, c3, s)


def draw_case2(rng, n: int):
    """Physical symmetric-family draw with s = 0 (case 2)."""
    while True:
        c1, c2, c3 = (float(v) for v in rng.uniform(-1.0, 1.0, 3))
        if ref.symmetric_min_eigenvalue(n, c1, c2, c3, 0.0) >= -1e-10:
            return (c1, c2, c3, 0.0)


def draw_fields(rng, n: int) -> tuple[float, ...]:
    """Diagonal-field strengths with sum |s_i| < 1, so the state is physical."""
    u = rng.uniform(-1.0, 1.0, n)
    scale = float(rng.uniform(0.05, 0.95)) / float(np.sum(np.abs(u)))
    return tuple(float(v) * scale for v in u)


def draw_freeze(rng, n: int):
    """Freezing-regime parameters: s = 0, c2 = (-1)^(N/2) c1 c3, |c1| > |c3|."""
    while True:
        c1 = float(rng.uniform(0.6, 0.95))
        c3 = -float(rng.uniform(0.1, 0.3))
        c2 = (-1) ** (n // 2) * c1 * c3
        if ref.symmetric_min_eigenvalue(n, c1, c2, c3, 0.0) >= -1e-10:
            return (c1, c2, c3, 0.0)


# --- closed_form -----------------------------------------------------------

SYM_BATCH = 4
GHZ_BATCH = 8
DIAG_BATCH = 2


def _close(value, want, tol):
    return abs(value - want) <= tol


def _symmetric_op(dc, n, case, draws, expect_failure=None) -> Op:
    refs = [ref.symmetric_discord(n, *c) for c in draws]
    params = [dc.FamilyParams(n, *c) for c in draws]

    def run():
        return [dc.discord_symmetric(p).value for p in params]

    def check(values):
        return [
            f"symmetric N={n} {case} draw {i}: {v!r} vs reference {r!r}"
            for i, (v, r) in enumerate(zip(values, refs))
            if not _close(v, r, 1e-10)
        ]

    return Op(f"symmetric.{case}.n{n}", f"symmetric.n{n}", run, check, expect_failure=expect_failure)


def _ghz_op(dc, n, mus) -> Op:
    refs = [ref.ghz_discord(n, mu) for mu in mus]
    params = [dc.GhzParams(n, mu) for mu in mus]

    def run():
        return [dc.discord_ghz(p).value for p in params]

    def check(values):
        bad = [
            f"ghz N={n} mu={mu!r}: {v!r} vs reference {r!r}"
            for mu, v, r in zip(mus, values, refs)
            if not _close(v, r, 1e-10)
        ]
        if not _close(values[0], 0.0, 1e-10) or not _close(values[-1], 1.0, 1e-10):
            bad.append(f"ghz N={n}: endpoints {values[0]!r}, {values[-1]!r} are not 0 and 1")
        if any(b < a - 1e-12 for a, b in zip(values, values[1:])):
            bad.append(f"ghz N={n}: discord decreases in mu")
        return bad

    return Op(f"ghz.n{n}", f"ghz.n{n}", run, check)


def _diagonal_op(dc, n, fields) -> Op:
    params = [dc.DiagonalFieldParams(f) for f in fields]

    def run():
        return [dc.discord_diagonal_field(p).value for p in params]

    def check(values):
        return [f"diagonal N={n} draw {i}: {v!r} is not 0" for i, v in enumerate(values) if abs(v) > 1e-10]

    return Op(f"diagonal.n{n}", f"diagonal.n{n}", run, check)


def build_closed_form(dc, rng, fixed_rng) -> list[Op]:
    ops = []
    for n in range(2, 9):
        ops.append(_symmetric_op(dc, n, "case1", [draw_case1(rng, n) for _ in range(SYM_BATCH)]))
        ops.append(_symmetric_op(dc, n, "case2", [draw_case2(rng, n) for _ in range(SYM_BATCH)]))
    for n in range(DENSE_FAIL_MIN_N, 13):
        for case, draw in (("case1", draw_case1), ("case2", draw_case2)):
            draws = [draw(fixed_rng, n) for _ in range(SYM_BATCH)]
            ops.append(_symmetric_op(dc, n, case, draws, expect_failure="DenseCapExceeded"))
    for n in range(2, 21):
        mus = [0.0] + sorted(float(m) for m in rng.uniform(0.0, 1.0, GHZ_BATCH)) + [1.0]
        ops.append(_ghz_op(dc, n, mus))
    for n in range(2, 13):
        ops.append(_diagonal_op(dc, n, [draw_fields(rng, n) for _ in range(DIAG_BATCH)]))
    return ops


# --- figures ---------------------------------------------------------------

PAPER_C1, PAPER_C3 = 5 / 6, -0.2
P_STEPS = 91
MU_STEPS = 101


def _parse_csv(text: str, columns: int):
    # the dynamics branch label can itself hold a comma, as in case2[s=0,C=c1]
    lines = text.strip().split("\n")
    return lines[0], [line.split(",", columns - 1) for line in lines[1:]]


def _cli_op(dc, name, klass, argv, out_path: Path, check_output) -> Op:
    argv = [str(a) for a in argv] + ["--out", str(out_path)]

    def run():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = dc.cli.main(argv)
        return code, err.getvalue()

    def collect(result):
        code, err = result
        return code, err, out_path.read_bytes() if code == 0 else b""

    def check(output):
        code, err, data = output
        if code != 0:
            return [f"{name}: exit code {code}: {err.strip()}"]
        return [f"{name}: {msg}" for msg in check_output(data.decode(), err)]

    return Op(name, klass, run, check, collect)


def _check_ghz_csv(n_values):
    def check(text, err):
        header, rows = _parse_csv(text, 3)
        bad = [] if header == "n,mu,discord_bits" else [f"header {header!r}"]
        if len(rows) != len(n_values) * MU_STEPS:
            return bad + [f"{len(rows)} rows"]
        for n in n_values:
            vals = [float(r[2]) for r in rows if int(r[0]) == n]
            mus = [float(r[1]) for r in rows if int(r[0]) == n]
            for mu, v in zip(mus, vals):
                if not _close(v, ref.ghz_discord(n, mu), 1e-8):
                    bad.append(f"N={n} mu={mu}: {v} vs reference {ref.ghz_discord(n, mu)}")
            if vals[0] != 0.0 or not _close(vals[-1], 1.0, 1e-8):
                bad.append(f"N={n}: endpoints {vals[0]}, {vals[-1]}")
            if any(b < a for a, b in zip(vals, vals[1:])):
                bad.append(f"N={n}: discord decreases in mu")
        return bad

    return check


def _evolved_reference(n, c, p):
    """Reference discord at decoherence p, or None outside both regions."""
    damp = (1.0 - p) ** n
    c1, c2, c3, s = c[0] * damp, c[1] * damp, c[2], c[3]
    if ref.region(n, c1, c2, c3, s) == "none":
        return None
    return ref.symmetric_discord(n, c1, c2, c3, s)


def _check_dynamics(n, c, freezing: bool):
    def check(text, err):
        header, rows = _parse_csv(text, 3)
        bad = [] if header == "p,discord_bits,branch" else [f"header {header!r}"]
        if len(rows) != P_STEPS:
            return bad + [f"{len(rows)} rows"]
        for p_txt, v_txt, branch in rows:
            p = float(p_txt)
            want = _evolved_reference(n, c, p)
            if want is None:
                if v_txt != "nan" or branch != "none":
                    bad.append(f"p={p}: {v_txt} {branch} outside both regions")
            elif not _close(float(v_txt), want, 1e-8):
                bad.append(f"p={p}: {v_txt} vs reference {want}")
        if not freezing:
            return bad
        plateau = ref.freeze_plateau(c[2])
        p_star = ref.freeze_p_star(n, c[0], c[2])
        fields = dict(kv.split("=", 1) for kv in err.strip().removeprefix("freeze: ").split() if "=" in kv)
        if not math.isclose(float(fields.get("p_star", "nan")), p_star, rel_tol=1e-8):
            bad.append(f"freeze report {err.strip()!r}, expected p_star={p_star}")
        for p_txt, v_txt, _ in rows:
            p, v = float(p_txt), float(v_txt)
            if p < p_star and not _close(v, plateau, 1e-6):
                bad.append(f"p={p} < p*: {v} is off the plateau {plateau}")
            if p > p_star and not v < plateau:
                bad.append(f"p={p} > p*: {v} is not below the plateau {plateau}")
        return bad

    return check


def _dynamics_argv(n, c):
    c1, c2, c3, s = c
    return [
        "dynamics", "--family", "symmetric", "--n", n, "--c1", repr(c1), "--c2", repr(c2),
        "--c3", repr(c3), "--s", repr(s), "--p-steps", P_STEPS,
    ]


# Seeded dynamics sweeps per N, besides the paper's parameters at each N.
# With these 42 ops the tail (p76) falls on the third-cheapest of the twelve
# N=6 sweeps, inside a group of ops that cost the same whatever the seed, and
# the single N=8 sweep (some 40% of the round) lies beyond it. Every sweep at
# one N makes the same dense calls; only the parameters differ.
FIGURE_SWEEPS = {3: 9, 4: 8, 6: 11, 8: 0}


def build_figures(dc, rng, out_dir: Path) -> list[Op]:
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = []

    def add(name, klass, argv, check_output):
        ops.append(_cli_op(dc, name, klass, argv, out_dir / f"{len(ops):02d}.csv", check_output))

    for n in range(2, 11):
        argv = ["ghz-curve", "--n-min", n, "--n-max", n, "--mu-steps", MU_STEPS]
        add(f"ghz-curve.n{n}", "ghz-curve", argv, _check_ghz_csv([n]))
    argv = ["ghz-curve", "--n-min", 2, "--n-max", 10, "--mu-steps", MU_STEPS]
    add("ghz-curve.n2-10", "ghz-curve.full", argv, _check_ghz_csv(list(range(2, 11))))
    for n, seeded in FIGURE_SWEEPS.items():
        freezing = n % 2 == 0
        sign = (-1) ** (n // 2) if freezing else 1
        paper = (PAPER_C1, sign * PAPER_C1 * PAPER_C3, PAPER_C3, 0.0)
        draws = [paper] + [draw_freeze(rng, n) if freezing else draw_case1(rng, n) for _ in range(seeded)]
        for i, c in enumerate(draws):
            add(f"dynamics.n{n}.{i}", f"dynamics.n{n}", _dynamics_argv(n, c), _check_dynamics(n, c, freezing))
    return ops


# --- oracle ----------------------------------------------------------------

ORACLE_STARTS = 3
# (N, input kind, count); N <= 4 goes to minimize_discord, N >= 5 to
# minimize_reduced. The counts keep each latency percentile inside one group
# of solves, so it does not jump between groups from seed to seed: the median
# falls among the N=2 GHZ solves, and the p91 tail near the middle of the N=3
# case draws, with the N=4, 5 and 6 solves beyond it. The N=2 case draws that
# run to max_iters (about half of case 1) sit between the two and move neither.
ORACLE_MIX = (
    (2, "case1", 3),
    (2, "case2", 3),
    (2, "ghz", 89),
    (3, "case1", 10),
    (3, "case2", 2),
    (3, "ghz", 2),
    (4, "case1", 1),
    (5, "case2", 1),
    (6, "case1", 1),
)


def _oracle_op(dc, n, kind, index, rng) -> Op:
    cfg = dc.OracleConfig(starts=ORACLE_STARTS, seed=int(rng.integers(2**31)))
    if kind == "ghz":
        mu = float(rng.uniform(0.05, 1.0))
        closed = ref.ghz_discord(n, mu)
        rho = dc.DensityMatrix(n, ref.ghz_dense(n, mu))
    else:
        c = draw_case1(rng, n) if kind == "case1" else draw_case2(rng, n)
        closed = ref.symmetric_discord(n, *c)
        if n <= 4:
            rho = dc.DensityMatrix(n, ref.symmetric_dense(n, *c))
        else:
            params = dc.FamilyParams(n, *c)

    # warm-up: the same solver at the same N (N=2 for the reduced one) with
    # one short start, so a heavy class is not solved twice per run
    cheap = dc.OracleConfig(starts=1, max_iters=20)
    if n <= 4:
        def run():
            return dc.minimize_discord(rho, cfg).value

        def warm():
            return dc.minimize_discord(rho, cheap)
    else:
        def run():
            return dc.minimize_reduced(params, cfg).value

        def warm():
            return dc.minimize_reduced(dc.FamilyParams(2, *c), cheap)

    def check(value):
        if closed - 1e-9 <= value <= closed + 5e-3:
            return []
        return [f"oracle N={n} {kind} #{index}: {value!r} outside [{closed - 1e-9!r}, {closed + 5e-3!r}]"]

    solver = "minimize_discord" if n <= 4 else "minimize_reduced"
    return Op(f"{solver}.n{n}.{kind}.{index}", f"{solver}.n{n}", run, check, warm=warm)


def build_oracle(dc, rng) -> list[Op]:
    return [_oracle_op(dc, n, kind, i, rng) for n, kind, count in ORACLE_MIX for i in range(count)]


# --- shared ----------------------------------------------------------------


def _spread(ops: list[Op]) -> list[Op]:
    """The same ops with each class spread evenly over the round, so the ops of
    one class run at different moments of it and a slow stretch of the shared
    machine does not fall on a whole class at once."""
    counts = Counter(op.klass for op in ops)
    seen: Counter = Counter()
    keys = []
    for op in ops:
        keys.append((seen[op.klass] + 0.5) / counts[op.klass])
        seen[op.klass] += 1
    return [op for _, op in sorted(zip(keys, ops), key=lambda pair: pair[0])]


def _smoke(ops: list[Op]) -> list[Op]:
    """First op of each class, for the fast end-to-end smoke run."""
    seen, out = set(), []
    for op in ops:
        if op.klass not in seen:
            seen.add(op.klass)
            out.append(op)
    return out


def build(name: str, dc, seed: int, out_dir: Path, smoke: bool = False) -> list[Op]:
    """The workload's ops (one round) for this seed; inputs and references are made here."""
    wid = WORKLOAD_IDS[name]
    rng = np.random.default_rng([seed, wid])
    if name == "closed_form":
        ops = build_closed_form(dc, rng, np.random.default_rng([FIXED_SEED, wid]))
    elif name == "figures":
        ops = build_figures(dc, rng, out_dir / "figures")
    else:
        ops = build_oracle(dc, rng)
    return _smoke(ops) if smoke else _spread(ops)
