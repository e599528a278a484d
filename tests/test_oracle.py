import itertools
import json
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discordium import (
    DensityMatrix,
    DiagonalFieldParams,
    FamilyParams,
    GhzParams,
    MeasurementTree,
    OracleConfig,
    ReducedPoint,
    binary_h,
    build_noisy_ghz_dense,
    build_symmetric_family,
    classify_region,
    conditional_ensemble,
    discord_objective,
    discord_symmetric,
    family_dense,
    measured_conditional_entropy,
    minimize_discord,
    minimize_family,
    minimize_reduced,
    oracle_reaches,
    partial_trace,
    realize,
    reduced_objective,
    von_neumann_entropy,
)
from discordium import oracle
from discordium.oracle import (
    _Chain,
    _branch_terms,
    _pauli_tensor,
    _prefixes,
    _reduced_value_and_grad,
    _tree_directions,
    _tree_levels,
)
from discordium.pauli import PAULI

from conftest import sample_case1_family, sample_physical_family

Z_TREE3 = MeasurementTree.uniform(2, [0, 0, 1])
FAST = OracleConfig(starts=10, seed=7)


def all_ones_point(n):
    prefs = [""]
    for length in range(1, n - 1):
        prefs.extend("".join(b) for b in itertools.product("01", repeat=length))
    return ReducedPoint({p: 1.0 for p in prefs})


def random_full_rank(rng, n):
    g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    m = g @ g.conj().T
    return DensityMatrix(n, m / np.trace(m).real)


def ensemble_entropy(rho, tree, k):
    """Level-k entropy sum through the full-dimension ensemble."""
    total = 0.0
    for b in conditional_ensemble(rho, tree, k):
        if not b.negligible:
            total += b.probability * von_neumann_entropy(partial_trace(b.state, {k + 1}))
    return total


class TestMeasurementTree:
    def test_completeness_enforced(self):
        with pytest.raises(ValueError):
            MeasurementTree(2, {"": np.array([0.0, 0.0, 1.0])})

    def test_unit_norm_enforced(self):
        dirs = {"": np.array([0.0, 0.0, 2.0]),
                "0": np.array([0.0, 0.0, 1.0]),
                "1": np.array([0.0, 0.0, 1.0])}
        with pytest.raises(ValueError):
            MeasurementTree(2, dirs)

    def test_uniform_and_random(self, rng):
        t = MeasurementTree.uniform(3, [1, 0, 0])
        assert len(t.directions) == 7
        t2 = MeasurementTree.random(3, rng)
        for v in t2.directions.values():
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_from_angles_round_trip(self):
        t = MeasurementTree.from_angles(2, np.array([0.0, 0.0, np.pi / 2, 0.0, np.pi / 2, np.pi / 2]))
        assert np.allclose(t.directions[""], [0, 0, 1], atol=1e-12)
        assert np.allclose(t.directions["0"], [1, 0, 0], atol=1e-12)
        assert np.allclose(t.directions["1"], [0, 1, 0], atol=1e-12)


class TestConditionalEnsemble:
    def test_family_first_level_probabilities(self, rng):
        params = sample_physical_family(rng, 3)
        rho = realize(build_symmetric_family(params))
        branches = conditional_ensemble(rho, Z_TREE3, 1)
        probs = sorted(b.probability for b in branches)
        expected = sorted([(1 + params.s) / 2, (1 - params.s) / 2])
        assert np.allclose(probs, expected, atol=1e-12)

    def test_maximally_mixed_uniform(self):
        rho = DensityMatrix(3, np.eye(8) / 8)
        for k in (1, 2):
            branches = conditional_ensemble(rho, Z_TREE3, k)
            assert np.allclose([b.probability for b in branches], 1 / 2**k, atol=1e-12)

    def test_ghz_pure_outcomes(self):
        rho = build_noisy_ghz_dense(GhzParams(2, 1.0))
        tree = MeasurementTree.uniform(1, [0, 0, 1])
        branches = conditional_ensemble(rho, tree, 1)
        assert np.allclose([b.probability for b in branches], 0.5, atol=1e-12)
        ket00 = np.zeros((4, 4))
        ket00[0, 0] = 1.0
        ket11 = np.zeros((4, 4))
        ket11[3, 3] = 1.0
        got = {b.prefix: b.state.entries for b in branches}
        assert np.allclose(got["0"], ket00, atol=1e-12)
        assert np.allclose(got["1"], ket11, atol=1e-12)

    def test_probabilities_sum_to_one(self, rng):
        params = sample_physical_family(rng, 3)
        rho = realize(build_symmetric_family(params))
        tree = MeasurementTree.random(2, rng)
        for k in (1, 2):
            branches = conditional_ensemble(rho, tree, k)
            assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-12)
            for b in branches:
                if not b.negligible:
                    ev = np.linalg.eigvalsh(b.state.entries)
                    assert ev[0] >= -1e-10

    def test_zero_probability_branch_flagged(self):
        # product |00><00| measured along z: the minus outcome never fires
        arr = np.zeros((4, 4), dtype=complex)
        arr[0, 0] = 1.0
        rho = DensityMatrix(2, arr)
        branches = conditional_ensemble(rho, MeasurementTree.uniform(1, [0, 0, 1]), 1)
        flags = {b.prefix: b.negligible for b in branches}
        assert flags == {"0": False, "1": True}
        assert [b for b in branches if b.negligible][0].state is None

    def test_invalid_k(self):
        rho = DensityMatrix(3, np.eye(8) / 8)
        with pytest.raises(ValueError):
            conditional_ensemble(rho, Z_TREE3, 3)


class TestPauliTensor:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rebuilds_state(self, rng, n):
        rho = random_full_rank(rng, n)
        tensor = _pauli_tensor(rho)
        assert tensor.shape == (4**n,) and tensor.dtype == float
        rebuilt = sum(
            t * reduce(np.kron, (PAULI[ch] for ch in word))
            for t, word in zip(tensor, itertools.product("IXYZ", repeat=n))
        ) / 2**n
        assert np.max(np.abs(rebuilt - rho.entries)) <= 1e-14


class TestMeasuredConditionalEntropy:
    def test_matches_ensemble_route(self, rng):
        # random full-rank states, and pure GHZ whose z tree has zero-probability branches
        for n in (2, 3, 4, 5):
            ghz = build_noisy_ghz_dense(GhzParams(n, 1.0))
            cases = [(random_full_rank(rng, n), MeasurementTree.random(n - 1, rng)) for _ in range(3)]
            cases += [
                (ghz, MeasurementTree.random(n - 1, rng)),
                (ghz, MeasurementTree.uniform(n - 1, [0, 0, 1])),
            ]
            for rho, tree in cases:
                for k in range(1, n):
                    fast = measured_conditional_entropy(rho, tree, k)
                    assert fast == pytest.approx(ensemble_entropy(rho, tree, k), abs=1e-12), (n, k)

    def test_family_z_tree_matches_reduced_g(self, rng):
        params = sample_physical_family(rng, 3)
        rho = realize(build_symmetric_family(params))
        got = measured_conditional_entropy(rho, Z_TREE3, 1)
        g_at_one = reduced_objective(params, all_ones_point(3)).G
        assert got == pytest.approx(1.0 - g_at_one, abs=1e-11)

    def test_product_state_tree_independent(self, rng):
        # true product state: conditional entropy is the bare marginal entropy
        s1, s2, s3 = 0.4, -0.3, 0.2
        factors = [0.5 * (np.eye(2) + s * PAULI["Z"]) for s in (s1, s2, s3)]
        arr = np.kron(np.kron(factors[0], factors[1]), factors[2])
        rho = DensityMatrix(3, arr)
        marginal = -sum(p * np.log2(p) for p in ((1 + s2) / 2, (1 - s2) / 2))
        for _ in range(3):
            tree = MeasurementTree.random(2, rng)
            got = measured_conditional_entropy(rho, tree, 1)
            assert got == pytest.approx(marginal, abs=1e-11)

    def test_ghz_pure_branches_zero(self):
        rho = build_noisy_ghz_dense(GhzParams(3, 1.0))
        assert measured_conditional_entropy(rho, Z_TREE3, 2) == pytest.approx(0.0, abs=1e-12)


def lbfgsb_reference(rho, cfg):
    """The full oracle's value with one scipy L-BFGS-B run per start: the same
    starts, offset, tolerances and restart rule, and the unmeasured term from a
    dense partial trace."""
    from scipy.optimize import minimize

    n = rho.n_qubits
    npar = 2 ** (n - 1) - 1
    chain = _Chain(rho, n - 1)
    seed_seq = np.random.SeedSequence(cfg.seed)

    def starts(count, with_axes):
        out = [np.array(pair * npar) for pair in oracle.AXIS_ANGLES[:count]] if with_axes else []
        for child in seed_seq.spawn(count - len(out)):
            rng = np.random.default_rng(child)
            th = np.arccos(rng.uniform(-1.0, 1.0, npar))
            ph = rng.uniform(0.0, 2 * np.pi, npar)
            out.append(np.column_stack((th, ph)).ravel())
        return out

    def solve(x0):
        res = minimize(
            lambda a: tuple(v[0] for v in chain.value_and_grad(a[None])),
            np.where(x0 != 0.0, 1.05 * x0, 0.00025),
            method="L-BFGS-B",
            jac=True,
            options={"ftol": oracle.F_TOL, "gtol": oracle.GRAD_TOL, "maxiter": cfg.max_iters},
        )
        return float(res.fun), bool(res.success)

    results = [solve(x0) for x0 in starts(cfg.starts, True)]
    converged = [f for f, ok in results if ok]
    if converged and max(converged) - min(converged) > oracle.SPREAD_FLAG:
        results += [solve(x0) for x0 in starts(cfg.starts, False)]
    base = von_neumann_entropy(rho) - von_neumann_entropy(partial_trace(rho, {1}))
    return min(f for f, _ in results) - base


class TestChainGradient:
    def test_batch_matches_single_starts(self, rng):
        # pure GHZ has floored branches and eigenvalues; the maximally mixed state has w = 0
        for n in (2, 3, 4):
            npar = 2 ** (n - 1) - 1
            states = [random_full_rank(rng, n), build_noisy_ghz_dense(GhzParams(n, 1.0)),
                      DensityMatrix(n, np.eye(2**n) / 2**n)]
            for rho in states:
                chain = _Chain(rho, n - 1)
                for k in range(1, 7):
                    angles = np.empty((k, 2 * npar))
                    angles[:, 0::2] = np.arccos(rng.uniform(-1.0, 1.0, (k, npar)))
                    angles[:, 1::2] = rng.uniform(0.0, 2 * np.pi, (k, npar))
                    values, grads = chain.value_and_grad(angles)
                    assert values.shape == (k,) and grads.shape == (k, 2 * npar)
                    for row, value, grad in zip(angles, values, grads):
                        one_value, one_grad = chain.value_and_grad(row[None])
                        assert abs(value - one_value[0]) <= 1e-15, (n, k)
                        assert np.max(np.abs(grad - one_grad[0])) <= 1e-15, (n, k)

    def test_matches_central_differences(self, rng):
        # random full-rank states, GHZ mixtures, and pure GHZ, whose final-level
        # branches are pure so their lower eigenvalue sits under the floor
        step = 1e-6
        for n in (2, 3, 4):
            states = [random_full_rank(rng, n) for _ in range(2)]
            states += [build_noisy_ghz_dense(GhzParams(n, mu)) for mu in (0.4, 1.0)]
            npar = 2 ** (n - 1) - 1
            for rho in states:
                chain = _Chain(rho, n - 1)
                for _ in range(3):
                    angles = np.empty(2 * npar)
                    angles[0::2] = np.arccos(rng.uniform(-1.0, 1.0, npar))
                    angles[1::2] = rng.uniform(0.0, 2 * np.pi, npar)
                    value, grad = (a[0] for a in chain.value_and_grad(angles[None]))
                    for i, e in enumerate(np.eye(2 * npar) * step):
                        up = chain.value_and_grad((angles + e)[None])[0][0]
                        down = chain.value_and_grad((angles - e)[None])[0][0]
                        assert grad[i] == pytest.approx((up - down) / (2 * step), abs=1e-7), (n, i)
                    tree = MeasurementTree.from_angles(n - 1, angles)
                    total = chain.at_directions(_tree_directions(tree, n - 1)).sum()
                    assert value == pytest.approx(total, abs=1e-14)

    def test_finite_at_zero_bloch_vector(self):
        # maximally mixed: every branch has w = 0, and the gradient is exactly flat
        chain = _Chain(DensityMatrix(3, np.eye(8) / 8), 2)
        value, grad = (a[0] for a in chain.value_and_grad(np.array([[0.3, 1.0, 2.0, -0.5, 1.2, 0.1]])))
        assert value == pytest.approx(2.0, abs=1e-14)
        assert np.all(np.isfinite(grad))
        assert np.max(np.abs(grad)) <= 1e-14


class TestDiscordObjective:
    def test_maximally_mixed_any_tree(self, rng):
        rho = DensityMatrix(3, np.eye(8) / 8)
        for _ in range(3):
            tree = MeasurementTree.random(2, rng)
            assert discord_objective(rho, tree) == pytest.approx(0.0, abs=1e-11)

    def test_bell_diagonal_z_tree_hand_value(self):
        params = FamilyParams(2, 0.3, 0.2, 0.1, 0.0)
        rho = realize(build_symmetric_family(params))
        tree = MeasurementTree.uniform(1, [0, 0, 1])
        slog = float(np.sum([lam * np.log2(lam) for lam in np.linalg.eigvalsh(rho.entries)]))
        expected = 2 + slog - 0.5 * binary_h(0.1)
        assert discord_objective(rho, tree) == pytest.approx(expected, abs=1e-11)

    def test_family_z_tree_reduced_composition(self, rng):
        params = sample_physical_family(rng, 3)
        rho = realize(build_symmetric_family(params))
        slog = float(np.sum([lam * np.log2(max(lam, 1e-300)) for lam in np.linalg.eigvalsh(rho.entries) if lam > 1e-14]))
        y_ones = reduced_objective(params, all_ones_point(3)).Y
        expected = slog + 3 - 0.5 * binary_h(params.s) - y_ones
        assert discord_objective(rho, Z_TREE3) == pytest.approx(expected, abs=1e-10)

    def test_sign_flip_invariance(self, rng):
        # negating every direction relabels all outcomes, so prefixes complement
        params = sample_physical_family(rng, 3)
        rho = realize(build_symmetric_family(params))

        def relabeled(tree):
            comp = lambda p: "".join("1" if b == "0" else "0" for b in p)
            return MeasurementTree(
                tree.n_measured, {p: -tree.directions[comp(p)] for p in tree.directions}
            )

        for _ in range(5):
            tree = MeasurementTree.random(2, rng)
            assert discord_objective(rho, tree) == pytest.approx(
                discord_objective(rho, relabeled(tree)), abs=1e-9
            )
        out = minimize_discord(rho, FAST)
        assert discord_objective(rho, relabeled(out.best_tree)) == pytest.approx(
            out.value, abs=1e-9
        )

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 4),
        case=st.sampled_from(["case1", "case2"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_tree_beats_closed_form(self, seed, n, case):
        # discord is the minimum over trees, so every tree bounds it from above
        rng = np.random.default_rng(seed)
        if case == "case1":
            params = sample_case1_family(rng, n)
        else:
            params = sample_physical_family(rng, n, s_zero=True)
        rho = family_dense(params)
        closed = discord_symmetric(params).value
        for _ in range(5):
            tree = MeasurementTree.random(n - 1, rng)
            assert discord_objective(rho, tree) >= closed - 1e-9


# minimize_discord at N=2, 3 and 4 in an interpreter where importing scipy fails
NO_SCIPY = """
import importlib.abc, json, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is not importable here")

sys.meta_path.insert(0, NoScipy())
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("scipy imported")
from discordium import FamilyParams, GhzParams, OracleConfig, family_dense, minimize_discord

states = [GhzParams(2, 0.6), FamilyParams(3, 0.1, 0.1, -0.2, 0.3), FamilyParams(4, 0.3, 0.2, 0.25, 0.1)]
cfg = OracleConfig(starts=3, seed=5)
print(json.dumps([minimize_discord(family_dense(p), cfg).value for p in states]))
"""


class TestMinimizeDiscord:
    def test_ghz_closed_form(self):
        rho = build_noisy_ghz_dense(GhzParams(2, 0.5))
        out = minimize_discord(rho, FAST)
        assert out.value == pytest.approx(0.26248318376373436, abs=5e-3)
        assert out.starts_converged >= 1

    def test_bell_diagonal_spot(self):
        rho = realize(build_symmetric_family(FamilyParams(2, 0.3, 0.2, 0.1, 0.0)))
        out = minimize_discord(rho, FAST)
        assert out.value == pytest.approx(0.05068495714647761, abs=5e-3)

    def test_case2_3q_matches_analytic(self):
        params = FamilyParams(3, 0.3, 0.2, 0.1, 0.0)
        out = minimize_discord(realize(build_symmetric_family(params)), FAST)
        assert out.value == pytest.approx(discord_symmetric(params).value, abs=5e-3)

    def test_zero_minimum_reported_as_zero(self):
        # the diagonal-field state has zero discord; roundoff gave -2.2e-16 before the clamp
        out = minimize_discord(family_dense(DiagonalFieldParams((0.2, -0.1, 0.3))), FAST)
        assert out.value == 0.0 and np.copysign(1.0, out.value) == 1.0
        assert oracle._clamp_zero(-1e-12) == 0.0 and oracle._clamp_zero(-1.1e-12) == -1.1e-12

    def test_product_state_zero(self):
        factors = [0.5 * (np.eye(2) + s * PAULI["Z"]) for s in (0.4, -0.3, 0.2)]
        arr = np.kron(np.kron(factors[0], factors[1]), factors[2])
        out = minimize_discord(DensityMatrix(3, arr), OracleConfig(starts=6, seed=3))
        assert abs(out.value) <= 1e-6

    def test_minimizer_property(self, rng):
        params = sample_physical_family(rng, 3)
        rho = realize(build_symmetric_family(params))
        out = minimize_discord(rho, FAST)
        for _ in range(20):
            tree = MeasurementTree.random(2, rng)
            assert discord_objective(rho, tree) >= out.value - 1e-9

    def test_deterministic_given_seed(self):
        rho = realize(build_symmetric_family(FamilyParams(2, 0.25, -0.15, 0.1, 0.2)))
        a = minimize_discord(rho, OracleConfig(starts=8, seed=11))
        b = minimize_discord(rho, OracleConfig(starts=8, seed=11))
        assert a.value == b.value
        assert a.spread == b.spread
        assert a.starts_converged == b.starts_converged

    def test_n2_pole_starts_converge(self, rng):
        # the case-1 optimum is the theta = 0 pole, where phi is free
        for _ in range(20):
            params = sample_case1_family(rng, 2)
            out = minimize_discord(family_dense(params), OracleConfig(starts=3))
            assert out.starts_converged == 3, params
            assert out.value == pytest.approx(discord_symmetric(params).value, abs=1e-9), params

    def test_escapes_z_saddle(self):
        # the only start is the +z tree, a saddle of the objective at 0.4212 bits
        params = FamilyParams(2, 0.6, 0.1, 0.3, 0.0)
        out = minimize_discord(family_dense(params), OracleConfig(starts=1))
        closed = discord_symmetric(params).value
        assert closed == pytest.approx(0.2090404733692019, abs=1e-15)
        assert out.value == pytest.approx(closed, abs=1e-12)

    def test_cap(self):
        rho = DensityMatrix(5, np.eye(32) / 32)
        with pytest.raises(ValueError):
            minimize_discord(rho, FAST)

    def test_best_tree_reproduces_value(self):
        rho = realize(build_symmetric_family(FamilyParams(3, 0.1, 0.1, -0.2, 0.3)))
        out = minimize_discord(rho, FAST)
        assert discord_objective(rho, out.best_tree) == pytest.approx(out.value, abs=1e-8)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_lbfgsb_reference(self, n):
        rng = np.random.default_rng(1000 + n)
        cfg = OracleConfig(starts=3, seed=5)
        for rho in (family_dense(sample_case1_family(rng, n)), random_full_rank(rng, n)):
            assert minimize_discord(rho, cfg).value == pytest.approx(lbfgsb_reference(rho, cfg), abs=1e-12)

    def test_runs_without_scipy(self):
        states = [GhzParams(2, 0.6), FamilyParams(3, 0.1, 0.1, -0.2, 0.3), FamilyParams(4, 0.3, 0.2, 0.25, 0.1)]
        cfg = OracleConfig(starts=3, seed=5)
        proc = subprocess.run(
            [sys.executable, "-c", NO_SCIPY],
            env=dict(os.environ, PYTHONPATH=str(Path(oracle.__file__).resolve().parents[1])),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [minimize_discord(family_dense(p), cfg).value for p in states]

    @pytest.mark.parametrize("rho", [
        build_noisy_ghz_dense(GhzParams(2, 0.6)),
        DensityMatrix(2, np.eye(4) / 4),
        DensityMatrix(3, np.eye(8) / 8),
    ], ids=["ghz2", "mixed2", "mixed3"])
    def test_flat_objective_one_evaluation(self, rho, monkeypatch):
        real, calls = oracle._scipy_minimize, []

        def spy(*args, **kwargs):
            calls.append(real(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(oracle, "_scipy_minimize", spy)
        out = minimize_discord(rho, OracleConfig(starts=4, seed=2))
        [res] = calls
        assert res.nfev == 1 and res.success.all()
        assert out.starts_converged == 4 and out.spread == 0.0


class TestLockstepBfgs:
    @staticmethod
    def bowl(x):
        # f = sum_i (i + 1) (x_i - 1)^2 per row, minimum 0 at x = 1
        w = np.arange(1.0, x.shape[1] + 1.0)
        return (w * (x - 1.0) ** 2).sum(axis=1), 2.0 * w * (x - 1.0)

    def test_converges_per_start(self):
        x0 = np.array([[0.0, 0.0, 0.0], [3.0, -2.0, 0.5], [1.0, 1.0, 1.0]])
        res = oracle._lockstep_minimize(self.bowl, x0, 100)
        assert res.success.tolist() == [True, True, True]
        assert np.allclose(res.x.reshape(3, 3), 1.0, atol=1e-9)
        # the last start sits on the minimum and stops at the first evaluation
        assert res.nit[2] == 0 and res.nfev >= 1 + res.nit.max()

    def test_iteration_limit_not_converged(self):
        res = oracle._lockstep_minimize(self.bowl, np.array([[3.0, -2.0, 0.5]]), 1)
        assert res.success.tolist() == [False] and res.nit.tolist() == [1]

    def test_failed_line_search_keeps_last_point(self):
        # a gradient of the wrong sign: no trial ever decreases f enough
        def uphill(x):
            f, g = self.bowl(x)
            return f, -g

        x0 = np.array([[3.0, -2.0, 0.5]])
        res = oracle._lockstep_minimize(uphill, x0, 100)
        assert res.success.tolist() == [False] and res.nit.tolist() == [0]
        assert res.nfev == 1 + oracle.SEARCH_EVALS
        assert np.array_equal(res.x, x0) and res.fun[0] == self.bowl(x0)[0][0]

    def test_seam_offsets_the_starts(self):
        # the seam moves a start on the minimum off it (0 -> 0.00025, 1 -> 1.05)
        x0 = np.array([[1.0, 0.0, 1.0]])
        res = oracle._scipy_minimize(lambda x: (x[:, 0] * 0.0, x * 0.0), x0, 100)
        assert res.nfev == 1 and res.success.tolist() == [True] and res.nit.tolist() == [0]
        assert res.x.tolist() == [[1.05, 0.00025, 1.05]] and isinstance(res.nfev, int)


class TestMinimizeFamily:
    def test_symmetric_past_full_cap_goes_reduced(self):
        params = FamilyParams(5, 0.1, 0.1, -0.2, 0.05)
        cfg = OracleConfig(starts=4, seed=2)
        out = minimize_family(params, cfg)
        assert isinstance(out.best_tree, ReducedPoint)
        assert out.value == minimize_reduced(params, cfg).value

    def test_other_states_go_full(self):
        cfg = OracleConfig(starts=3, seed=2)
        params = FamilyParams(3, 0.1, 0.1, -0.2, 0.3)
        out = minimize_family(params, cfg)
        assert isinstance(out.best_tree, MeasurementTree)
        assert out.value == minimize_discord(realize(build_symmetric_family(params)), cfg).value
        ghz = GhzParams(2, 0.5)
        assert minimize_family(ghz, cfg).value == minimize_discord(build_noisy_ghz_dense(ghz), cfg).value

    @pytest.mark.parametrize("params", [FamilyParams(5, 0.9, 0.9, 0.9, 0.5), FamilyParams(3, 0.9, 0.9, 0.9)])
    def test_refuses_unphysical(self, params, monkeypatch):
        monkeypatch.setattr(oracle, "family_dense", lambda p: pytest.fail("family_dense called"))
        with pytest.raises(ValueError, match="unphysical"):
            minimize_family(params, FAST)

    def test_past_reach_builds_nothing(self, monkeypatch):
        monkeypatch.setattr(oracle, "family_dense", lambda p: pytest.fail("family_dense called"))
        with pytest.raises(ValueError, match="exceeds oracle cap 4"):
            minimize_family(GhzParams(12, 0.5), FAST)
        with pytest.raises(ValueError, match="exceeds reduced-oracle cap 10"):
            minimize_family(FamilyParams(11, 0.05, 0.05, -0.1, 0.0), FAST)

    def test_reach(self):
        assert oracle_reaches(FamilyParams(10, 0.05, 0.05, -0.1, 0.0))
        assert not oracle_reaches(FamilyParams(11, 0.05, 0.05, -0.1, 0.0))
        assert oracle_reaches(GhzParams(4, 0.5))
        assert not oracle_reaches(GhzParams(5, 0.5))


class TestReducedObjective:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_batch_matches_rows(self, rng, n):
        params = sample_physical_family(rng, n)
        d = len(_prefixes(n - 1))
        zs = rng.uniform(-1.0, 1.0, (40, d))
        zs[::4] = 0.0
        zs[1::4, 0] = 1.0
        zs[2::4, -1] = -1.0
        zs[3::4] = np.sign(zs[3::4])
        batch = _branch_terms(params, zs)
        for i, z in enumerate(zs):
            rows = _branch_terms(params, z)
            for level, terms in enumerate(rows):
                assert terms.shape == (2 ** (level + 1),)
                assert np.max(np.abs(batch[level][i] - terms)) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_tree_levels_match_outcome_strings(self, n):
        # the outcome strings of every branch, read directly
        index = {p: i for i, p in enumerate(_prefixes(n - 1))}
        for m, (anc, sign, parity) in enumerate(_tree_levels(n), start=1):
            branches = ["".join(b) for b in itertools.product("01", repeat=m)]
            np.testing.assert_array_equal(anc, [[index[u[:t]] for t in range(m)] for u in branches])
            np.testing.assert_array_equal(sign, [[1.0 - 2.0 * int(c) for c in u] for u in branches])
            np.testing.assert_array_equal(parity, [(-1.0) ** u.count("1") for u in branches])

    def test_g_values(self):
        params = FamilyParams(3, 0.1, 0.1, -0.2, 0.3)
        point0 = ReducedPoint({"": 0.0, "0": 1.0, "1": 1.0})
        point1 = ReducedPoint({"": 1.0, "0": 1.0, "1": 1.0})
        assert reduced_objective(params, point0).G == pytest.approx(
            0.06593194462450899, abs=1e-12
        )
        assert reduced_objective(params, point1).G == pytest.approx(
            0.07310400793180988, abs=1e-12
        )

    def test_w_all_ones_s_zero(self):
        for n in (2, 3, 4):
            params = FamilyParams(n, 0.1, 0.2, -0.35, 0.0)
            res = reduced_objective(params, all_ones_point(n))
            assert res.W == pytest.approx(0.5 * binary_h(0.35), abs=1e-12)

    def test_y_composition(self):
        p3 = FamilyParams(3, 0.1, 0.1, -0.2, 0.3)
        r3 = reduced_objective(p3, all_ones_point(3))
        assert r3.Y == pytest.approx(r3.G + r3.F, abs=1e-14)
        assert r3.F == r3.W
        p4 = FamilyParams(4, 0.1, 0.1, -0.2, 0.1)
        r4 = reduced_objective(p4, all_ones_point(4))
        assert r4.Y == pytest.approx(r4.G + r4.F + r4.T, abs=1e-14)
        assert r4.T == r4.W

    def test_all_ones_parity_matches_max_w(self, rng):
        # at the all-z reduction, the total equals the closed-form bracket
        from discordium import max_w

        params = sample_case1_family(rng, 3)
        res = reduced_objective(params, all_ones_point(3))
        total = res.Y + 0.5 * binary_h(params.s)
        assert total == pytest.approx(max_w(params, "parity"), abs=1e-11)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_gradient_matches_central_differences(self, rng, n):
        # in the angles z = cos(theta) of the reduced search: interior ones,
        # and ones near 0 and pi/2, where z is near 1 and near 0
        step, d = 1e-6, len(_prefixes(n - 1))
        for s_zero in (False, True):
            params = sample_physical_family(rng, n, s_zero=s_zero)
            for theta in (rng.uniform(0.1, np.pi - 0.1, d), rng.uniform(1e-4, 1e-3, d),
                          np.pi / 2 + rng.uniform(-1e-3, 1e-3, d)):
                value, grad = _reduced_value_and_grad(params, np.cos(theta))
                assert abs(value - sum(t.sum() for t in _branch_terms(params, np.cos(theta)))) <= 1e-15
                shifted = theta + np.concatenate((np.eye(d), -np.eye(d))) * step
                up, down = np.split(_reduced_value_and_grad(params, np.cos(shifted))[0], 2)
                central = (up - down) / (2 * step)
                assert np.max(np.abs(-np.sin(theta) * grad - central)) <= 1e-7, (n, s_zero)

    def test_out_of_range_coordinates(self):
        params = FamilyParams(3, 0.1, 0.1, -0.2, 0.3)
        with pytest.raises(ValueError):
            reduced_objective(params, ReducedPoint({"": 1.5, "0": 1.0, "1": 1.0}))


class TestMinimizeReduced:
    def test_case1_maximizer_at_ones(self):
        params = FamilyParams(3, 0.1, 0.1, -0.2, 0.3)
        out = minimize_reduced(params, OracleConfig(starts=4, seed=2))
        assert out.value == pytest.approx(discord_symmetric(params).value, abs=1e-7)
        assert all(abs(z - 1.0) <= 1e-5 for z in out.best_tree.z3.values())

    def test_s_zero_matches_case2(self, rng):
        params = sample_physical_family(rng, 4, s_zero=True)
        out = minimize_reduced(params, OracleConfig(starts=4, seed=2))
        assert out.value == pytest.approx(discord_symmetric(params).value, abs=1e-7)

    def test_region_none_finite_value(self):
        # this region-none point is marginally unphysical (smallest
        # eigenvalue -0.0486) so only the reduced route is required to be finite
        params = FamilyParams(3, 0.6, 0.6, 0.5, 0.2)
        assert classify_region(params).region == "none"
        red = minimize_reduced(params, OracleConfig(starts=4, seed=2))
        assert np.isfinite(red.value)

    def test_region_none_agrees_with_full_oracle(self):
        params = FamilyParams(3, 0.4, 0.3, 0.2, 0.1)
        assert classify_region(params).region == "none"
        red = minimize_reduced(params, OracleConfig(starts=4, seed=2))
        full = minimize_discord(
            realize(build_symmetric_family(params)), OracleConfig(starts=12, seed=2)
        )
        assert red.value == pytest.approx(full.value, abs=5e-3)

    def test_matches_full_oracle_random(self, rng):
        for n in (3, 4):
            params = sample_physical_family(rng, n)
            red = minimize_reduced(params, OracleConfig(starts=4, seed=5))
            full = minimize_discord(
                realize(build_symmetric_family(params)), OracleConfig(starts=10, seed=5)
            )
            assert red.value == pytest.approx(full.value, abs=5e-3)

    def test_max_iters_bounds_each_start(self, rng):
        out = minimize_reduced(sample_case1_family(rng, 6), OracleConfig(starts=3, max_iters=1))
        assert out.starts_converged < 3

    def test_cap(self):
        with pytest.raises(ValueError):
            minimize_reduced(FamilyParams(11, 0.05, 0.05, -0.1, 0.0), FAST)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6),
        s_zero=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_local_unitary_invariance(self, seed, n, s_zero):
        # Z on qubit 1 negates X..X and Y..Y and keeps every Z word: (c1, c2) -> (-c1, -c2)
        params = sample_physical_family(np.random.default_rng(seed), n, s_zero=s_zero)
        flipped = FamilyParams(n, -params.c1, -params.c2, params.c3, params.s)
        z1 = np.kron(PAULI["Z"], np.eye(2 ** (n - 1)))
        rho = realize(build_symmetric_family(params)).entries
        assert np.max(np.abs(z1 @ rho @ z1 - realize(build_symmetric_family(flipped)).entries)) <= 1e-15
        region = classify_region(params).region
        assert classify_region(flipped).region == region
        if region != "none":
            value = discord_symmetric(params).value
            assert discord_symmetric(flipped).value == pytest.approx(value, abs=1e-12)
        cfg = OracleConfig(starts=3, seed=seed)
        value = minimize_reduced(params, cfg).value
        assert minimize_reduced(flipped, cfg).value == pytest.approx(value, abs=1e-12)

    def test_one_seam_call(self, monkeypatch):
        real, calls = oracle._scipy_minimize, []

        def spy(fun, x0, max_iters):
            calls.append((x0.shape, real(fun, x0, max_iters)))
            return calls[-1][1]

        monkeypatch.setattr(oracle, "_scipy_minimize", spy)
        params = FamilyParams(5, 0.1, 0.1, -0.2, 0.05)
        out = minimize_reduced(params, OracleConfig(starts=3, seed=1))
        [(shape, res)] = calls
        assert shape == (3, 15) and res.success.all()
        assert out.starts_converged == 3

    def test_roundoff_flat_line_search_converges(self):
        # the all-ones start reaches a point flat to roundoff with max|g| = 3.3e-9;
        # a trial within the slack of the bracket's low end no longer fails its search
        params = FamilyParams(2, 0.1453316506496225, 0.5391143119644839, 0.23383147702614804, -0.44096304452516066)
        out = minimize_reduced(params, OracleConfig(starts=3, seed=4))
        assert out.starts_converged == 3
        assert out.value == 0.0879595188743057

    # N = 4n+3, a second 4n, a second 4n+1 and a second 4n+2, where only this
    # oracle reaches
    @pytest.mark.parametrize(
        "n,s_zero",
        [(7, False), (7, True), (8, False), (8, True), (9, False), (9, True), (10, False), (10, True)],
    )
    def test_matches_closed_form_past_six(self, rng, n, s_zero):
        if s_zero:
            params = sample_physical_family(rng, n, s_zero=True)
        else:
            params = sample_case1_family(rng, n)
        closed = discord_symmetric(params)
        assert closed.branch.startswith("case2" if s_zero else "case1")
        out = minimize_reduced(params, OracleConfig(starts=3, seed=1))
        assert out.value == pytest.approx(closed.value, abs=1e-9)

    def test_reduction_matches_full_oracle_at_five(self, rng, monkeypatch):
        # the full oracle optimizes every direction of the tree, so it checks
        # independently that maximizing out the transverse components loses nothing
        monkeypatch.setattr(oracle, "FULL_ORACLE_CAP", 5)
        region_none = FamilyParams(5, 0.3, 0.2, 0.1, 0.05)
        assert classify_region(region_none).region == "none"
        cfg = OracleConfig(starts=4, seed=1)
        for params in (sample_case1_family(rng, 5), region_none):
            full = minimize_discord(family_dense(params), cfg)
            assert full.value == pytest.approx(minimize_reduced(params, cfg).value, abs=1e-9)


class TestOracleConfig:
    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"starts": 16, "max_iters": 500, "seed": 42}))
        cfg = OracleConfig.from_json(path)
        assert cfg == OracleConfig(starts=16, max_iters=500, seed=42)

    def test_from_json_ignores_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"starts": 5, "include_axes_starts": False, "f_tol": 1e-8}))
        assert OracleConfig.from_json(path) == OracleConfig(starts=5)

    @pytest.mark.parametrize("payload", [None, "seed", [1], {"starts": [3]}])
    def test_from_json_rejects_non_scalar_object(self, tmp_path, payload):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="cfg.json"):
            OracleConfig.from_json(path)

    def test_from_json_names_the_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 1, "starts": "many"}))
        with pytest.raises(ValueError, match="starts must be a number"):
            OracleConfig.from_json(path)

    @pytest.mark.parametrize("text, message", [
        ('{"starts": Infinity}', "starts must be a number, got inf"),
        ('{"max_iters": -Infinity}', "max_iters must be a number, got -inf"),
        ('{"seed": NaN}', "seed must be a number, got nan"),
        ('{"starts": 3.7}', "starts must be a whole number, got 3.7"),
        ('{"seed": true}', "seed must be a whole number, got True"),
        ('{"starts": false}', "starts must be a whole number, got False"),
    ])
    def test_from_json_refuses_non_integers(self, tmp_path, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"cfg.json: {message}$"):
            OracleConfig.from_json(path)

    def test_from_json_keeps_integral_values(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"starts": 16.0, "max_iters": "500", "seed": 3}))
        assert OracleConfig.from_json(path) == OracleConfig(starts=16, max_iters=500, seed=3)

    def test_starts_positive(self):
        with pytest.raises(ValueError):
            OracleConfig(starts=0)

    @pytest.mark.parametrize("field, value", [("starts", 0), ("max_iters", 0), ("max_iters", -5), ("seed", -1)])
    def test_out_of_range_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be >= "):
            OracleConfig(**{field: value})

    @pytest.mark.parametrize("payload, message", [
        ({"max_iters": -5}, "max_iters must be >= 1"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"starts": 0, "seed": 3}, "starts must be >= 1"),
    ])
    def test_from_json_out_of_range_names_file_and_field(self, tmp_path, payload, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"cfg.json: {message}"):
            OracleConfig.from_json(path)
