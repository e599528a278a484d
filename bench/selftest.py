#!/usr/bin/env python3
"""Self-test of the benchmark's reference, then a fast smoke run of every workload.

    python3 bench/selftest.py            # reference checks + smoke run
    python3 bench/selftest.py --no-smoke # reference checks only

The reference checks use only numpy and dense matrices built in
reference.py, never discordium: the block spectrum against eigvalsh at
N=2..8, and the closed-form discord against the all-z measurement chain
evaluated on the dense state, where that chain is the minimizing one (case 1,
case 2 with |c3| dominant, and the noisy GHZ state).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference as ref
import workloads

BENCH_DIR = Path(__file__).resolve().parent


def entropy(mat: np.ndarray) -> float:
    return -sum(ref.xlog2(float(v)) for v in np.linalg.eigvalsh(mat))


def keep_first(rho: np.ndarray, n: int, m: int) -> np.ndarray:
    """Reduced state of qubits 1..m."""
    a, b = 2**m, 2 ** (n - m)
    return np.einsum("ajbj->ab", rho.reshape(a, b, a, b))


def all_z_chain(rho: np.ndarray, n: int) -> float:
    """sum_k S(A_{k+1} | z outcomes of A_1..A_k) - [S(rho) - S(rho_A1)], in bits."""
    total = 0.0
    for k in range(1, n):
        red = keep_first(rho, n, k + 1).reshape(2**k, 2, 2**k, 2)
        for b in range(2**k):
            block = red[b, :, b, :]
            p = float(np.trace(block).real)
            if p > 1e-14:
                total += p * entropy(block / p)
    return total - (entropy(rho) - entropy(keep_first(rho, n, 1)))


def check_reference() -> list[str]:
    bad = []
    rng = np.random.default_rng(2025)
    for n in range(2, 9):
        for i in range(24):
            if i % 3 == 0:
                c = workloads.draw_case1(rng, n)
            elif i % 3 == 1:
                c = workloads.draw_case2(rng, n)
            else:
                c = tuple(float(v) for v in rng.uniform(-1.0, 1.0, 4))
            values, mults = ref.symmetric_spectrum(n, *c)
            blocks = np.sort(np.repeat(values, mults))
            dense = np.linalg.eigvalsh(ref.symmetric_dense(n, *c))
            err = float(np.max(np.abs(blocks - dense)))
            if err > 1e-12:
                bad.append(f"block spectrum N={n} c={c}: max deviation {err:.3e}")
        for mu in (0.0, 0.3, 1.0):
            values, mults = ref.ghz_spectrum(n, mu)
            err = float(np.max(np.abs(np.sort(np.repeat(values, np.array(mults, dtype=int))) -
                                      np.linalg.eigvalsh(ref.ghz_dense(n, mu)))))
            if err > 1e-12:
                bad.append(f"GHZ spectrum N={n} mu={mu}: max deviation {err:.3e}")

    for n in range(2, 7):
        draws = [workloads.draw_case1(rng, n) for _ in range(4)]
        while len(draws) < 8:
            c = workloads.draw_case2(rng, n)
            if abs(c[2]) >= max(abs(c[0]), abs(c[1])):
                draws.append(c)
        for c in draws:
            chain = all_z_chain(ref.symmetric_dense(n, *c), n)
            if abs(chain - ref.symmetric_discord(n, *c)) > 1e-10:
                bad.append(f"discord N={n} c={c}: {ref.symmetric_discord(n, *c)} vs z-chain {chain}")
        for mu in (0.0, 0.25, 0.8, 1.0):
            chain = all_z_chain(ref.ghz_dense(n, mu), n)
            if abs(chain - ref.ghz_discord(n, mu)) > 1e-10:
                bad.append(f"GHZ discord N={n} mu={mu}: {ref.ghz_discord(n, mu)} vs z-chain {chain}")

    for n in (4, 6, 8):
        c1, _, c3, _ = workloads.draw_freeze(rng, n)
        p_star = ref.freeze_p_star(n, c1, c3)
        if abs(abs(c1) * (1.0 - p_star) ** n - abs(c3)) > 1e-12:
            bad.append(f"p* N={n} misses |c1|(1-p)^N = |c3|")
    return bad


def smoke() -> list[str]:
    """Every workload end to end, one op per class, untraced and traced."""
    bad = []
    for trace in (0, 1):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "all", "--smoke",
               "--seed", "1", "--trace", str(trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            bad.append(f"smoke --trace {trace}: exit code {out.returncode}\n{out.stderr}")
            continue
        for workload, result in json.loads(out.stdout.strip().splitlines()[-1]).items():
            expected_failed = 4 if workload == "closed_form" else 0
            if not result["correct"] or result["failed"] != expected_failed:
                bad.append(f"smoke --trace {trace} {workload}: {result}\n{out.stderr}")
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--no-smoke", action="store_true")
    args = parser.parse_args()
    bad = check_reference()
    print(f"reference: {'ok' if not bad else 'FAILED'}")
    if not args.no_smoke:
        smoke_bad = smoke()
        print(f"smoke: {'ok' if not smoke_bad else 'FAILED'}")
        bad += smoke_bad
    for line in bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
