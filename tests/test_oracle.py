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
    DenseCapExceeded,
    DensityMatrix,
    DiagonalFieldParams,
    FamilyParams,
    GhzParams,
    MeasurementTree,
    NoAnalyticCase,
    OracleConfig,
    classify_region,
    discord_ghz,
    discord_symmetric,
    minimize_discord,
    minimize_family,
    minimize_reduced,
    oracle_reaches,
    realize,
    von_neumann_entropy,
)
from discordium import oracle, pauli
from discordium.oracle import _Chain, _pauli_tensor

from conftest import sample_case1_family, sample_case1_second, sample_physical_family
from reference import PAULI, binary_h, conditional_ensemble, partial_trace

FAST = OracleConfig(starts=10, seed=7)


def z_tree(m):
    """The tree that measures every qubit along +z."""
    return MeasurementTree(m, np.tile([0.0, 0.0, 1.0], (2**m - 1, 1)))


def random_tree(m, rng):
    """Directions uniform on the sphere: per row, z on [-1, 1] then phi on [0, 2 pi)."""
    z, phi = rng.uniform((-1.0, 0.0), (1.0, 2 * np.pi), (2**m - 1, 2)).T
    r = np.sqrt(1.0 - z * z)
    return MeasurementTree(m, np.column_stack((r * np.cos(phi), r * np.sin(phi), z)))


def prefix_strings(m):
    """The outcome prefixes of length < m in the tree's row order ("" is the root)."""
    return ["".join(bits) for length in range(m) for bits in itertools.product("01", repeat=length)]


def by_prefix(tree):
    """The tree as the prefix-keyed dict that `reference.conditional_ensemble` reads."""
    return dict(zip(prefix_strings(tree.n_measured), tree.directions))


Z_TREE3 = z_tree(2)


def all_ones(n):
    """The all-z reduced point: z = 1 at every prefix."""
    return np.ones(2 ** (n - 1) - 1)


def level_terms(params, z):
    """Reduced branch terms of the chain in the z-T plane at z vectors of
    shape (..., d): one (..., 2^m) array per level m, each branch's
    probability less its entropy, from the rows of the plane chain.
    Level m sums to 1 less its conditional entropy."""
    chain = _Chain(params)
    chain.value_and_grad(np.arccos(z).reshape(-1, np.shape(z)[-1]))
    lam, _, log_ratio, _, _ = chain._eigen_terms()
    terms = (chain._rows[..., 0] + (lam * log_ratio).sum(axis=-1)).reshape(*np.shape(z)[:-1], -1)
    return [terms[..., 2**m - 2 : 2 ** (m + 1) - 2] for m in range(1, params.n_qubits)]


def level_sums(params, z):
    return [float(t.sum()) for t in level_terms(params, z)]


def reduced_value(params, z):
    """The reduced objective, N - 1 less the plane chain's value (one theta per prefix)."""
    return params.n_qubits - 1 - float(_Chain(params).value_and_grad(np.arccos(z)[None])[0][0])


def tree_angles(tree):
    """A tree's (theta, phi) pairs in prefix order, as one row of `_Chain.value_and_grad`."""
    dirs = tree.directions
    theta = np.arctan2(np.hypot(dirs[:, 0], dirs[:, 1]), dirs[:, 2])
    return np.column_stack((theta, np.arctan2(dirs[:, 1], dirs[:, 0]))).reshape(1, -1)


def chain_levels(rho, tree):
    """One tree through the oracle's chain: the value `_Chain.value_and_grad`
    returns, and the entropy sum of each level 1..N-1 from the branch rows
    that call fills."""
    chain = _Chain(rho)
    value = float(chain.value_and_grad(tree_angles(tree))[0][0])
    lam, _, log_ratio, _, _ = chain._eigen_terms()
    rows = -(lam * log_ratio).sum(axis=-1)[0]
    return value, [float(rows[2**m - 2 : 2 ** (m + 1) - 2].sum()) for m in range(1, rho.n_qubits)]


def objective(rho, tree):
    """The full oracle's objective of one tree: its chain minus S(rho) - S(rho_A1)."""
    return chain_levels(rho, tree)[0] - _Chain(rho).base


def random_full_rank(rng, n):
    g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    m = g @ g.conj().T
    return DensityMatrix(n, m / np.trace(m).real)


def ensemble_entropy(rho, tree, k):
    """Level-k entropy sum through the full-dimension ensemble."""
    total = 0.0
    for b in conditional_ensemble(rho.entries, by_prefix(tree), k):
        if not b.negligible:
            total += b.probability * von_neumann_entropy(DensityMatrix(1, partial_trace(b.state, {k + 1})))
    return total


class TestMeasurementTree:
    def test_completeness_enforced(self):
        for rows in (1, 2, 4, 7):
            with pytest.raises(ValueError, match=rf"^tree of 2 measured qubits needs a \(3, 3\) array, got \({rows}, 3\)$"):
                MeasurementTree(2, np.tile([0.0, 0.0, 1.0], (rows, 1)))

    def test_unit_norm_enforced(self):
        # a component too large to square is refused too, with no overflow warning
        for big in (2.0, 1e200):
            dirs = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, big]])
            with pytest.raises(ValueError, match="^direction row 2 is not unit within 1e-12$"):
                MeasurementTree(2, dirs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_direction_refused(self, bad):
        # NaN fails every comparison, so the unit-norm test alone cannot refuse [nan, 0, 1]
        dirs = np.array([[0.0, 0.0, 1.0], [bad, 0.0, 1.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="^direction row 1 has a non-finite component$"):
            MeasurementTree(2, dirs)

    def test_directions_are_a_read_only_copy(self):
        dirs = np.tile([1.0, 0.0, 0.0], (7, 1))
        tree = MeasurementTree(3, dirs)
        dirs[0] = 0.0
        assert tree.directions.shape == (7, 3) and tree.directions[0].tolist() == [1.0, 0.0, 0.0]
        with pytest.raises(ValueError):
            tree.directions[0, 0] = 0.0

    def test_compares_and_hashes_by_value(self):
        tree = MeasurementTree(2, np.tile([0.0, 0.0, 1.0], (3, 1)))
        # -0.0 equals 0.0, so it hashes alike
        same = MeasurementTree(2, np.tile([-0.0, 0.0, 1.0], (3, 1)))
        assert tree == same and hash(tree) == hash(same)
        assert tree != MeasurementTree(2, np.tile([0.0, 0.0, -1.0], (3, 1)))
        assert tree != MeasurementTree(1, [[0.0, 0.0, 1.0]]) and tree != tree.directions.tolist()

    def test_from_angles_round_trip(self):
        t = MeasurementTree.from_angles(2, np.array([0.0, 0.0, np.pi / 2, 0.0, np.pi / 2, np.pi / 2]))
        assert np.allclose(t.directions, [[0, 0, 1], [1, 0, 0], [0, 1, 0]], atol=1e-12)


class TestConditionalEnsemble:
    def test_family_first_level_probabilities(self, rng):
        params = sample_physical_family(rng, 3)
        rho = realize(params)
        branches = conditional_ensemble(rho.entries, by_prefix(Z_TREE3), 1)
        probs = sorted(b.probability for b in branches)
        expected = sorted([(1 + params.s) / 2, (1 - params.s) / 2])
        assert np.allclose(probs, expected, atol=1e-12)

    def test_maximally_mixed_uniform(self):
        rho = DensityMatrix(3, np.eye(8) / 8)
        for k in (1, 2):
            branches = conditional_ensemble(rho.entries, by_prefix(Z_TREE3), k)
            assert np.allclose([b.probability for b in branches], 1 / 2**k, atol=1e-12)

    def test_ghz_pure_outcomes(self):
        rho = realize(GhzParams(2, 1.0))
        tree = z_tree(1)
        branches = conditional_ensemble(rho.entries, by_prefix(tree), 1)
        assert np.allclose([b.probability for b in branches], 0.5, atol=1e-12)
        ket00 = np.zeros((4, 4))
        ket00[0, 0] = 1.0
        ket11 = np.zeros((4, 4))
        ket11[3, 3] = 1.0
        got = {b.prefix: b.state for b in branches}
        assert np.allclose(got["0"], ket00, atol=1e-12)
        assert np.allclose(got["1"], ket11, atol=1e-12)

    def test_probabilities_sum_to_one(self, rng):
        params = sample_physical_family(rng, 3)
        rho = realize(params)
        tree = random_tree(2, rng)
        for k in (1, 2):
            branches = conditional_ensemble(rho.entries, by_prefix(tree), k)
            assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-12)
            for b in branches:
                if not b.negligible:
                    ev = np.linalg.eigvalsh(b.state)
                    assert ev[0] >= -1e-10

    def test_zero_probability_branch_flagged(self):
        # product |00><00| measured along z: the minus outcome never fires
        arr = np.zeros((4, 4), dtype=complex)
        arr[0, 0] = 1.0
        rho = DensityMatrix(2, arr)
        branches = conditional_ensemble(rho.entries, by_prefix(z_tree(1)), 1)
        flags = {b.prefix: b.negligible for b in branches}
        assert flags == {"0": False, "1": True}
        assert [b for b in branches if b.negligible][0].state is None

    def test_invalid_k(self):
        rho = DensityMatrix(3, np.eye(8) / 8)
        with pytest.raises(ValueError):
            conditional_ensemble(rho.entries, by_prefix(Z_TREE3), 3)


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

    @staticmethod
    def x_layout_on_letters(state, letters):
        """The X layout spread onto all 4^N words, 0 off {I, Z}^N and {X, Y}^N,
        then read on the words over `letters` (indices into I, X, Y, Z)."""
        n = state.n_qubits
        x_layout = _pauli_tensor(state)
        full = np.zeros((4,) * n)
        full[np.ix_(*[[0, 3]] * n)] = x_layout[: 1 << n].reshape((2,) * n)
        full[np.ix_(*[[1, 2]] * n)] = x_layout[1 << n :].reshape((2,) * n)
        return full[np.ix_(*[letters] * n)]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_family_plane_tensor_is_the_dense_one_on_i_t_z(self, rng, n):
        # T is X where |c1| >= |c2| and Y otherwise; the swapped draw takes the other
        params = sample_physical_family(rng, n)
        for c1, c2 in ((params.c1, params.c2), (params.c2, params.c1), (0.3, -0.3)):
            state = FamilyParams(n, c1, c2, params.c3, params.s)
            letters = [0, 1 if abs(c1) >= abs(c2) else 2, 3]
            dense = _pauli_tensor(realize(state)).reshape((4,) * n)[np.ix_(*[letters] * n)]
            plane = self.x_layout_on_letters(state, letters)
            assert plane.shape == (3,) * n and np.max(np.abs(plane - dense)) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_ghz_plane_tensor_is_the_dense_one_on_i_x_z(self, n):
        # T is X for GHZ at every N; at even N, |Y..Y| = mu ties with X..X
        params = GhzParams(n, 0.6)
        dense = _pauli_tensor(realize(params)).reshape((4,) * n)
        plane = self.x_layout_on_letters(params, [0, 1, 3])
        assert plane.shape == (3,) * n
        assert np.max(np.abs(plane - dense[np.ix_(*[[0, 1, 3]] * n)])) <= 1e-15
        assert abs(abs(dense[(2,) * n]) - (0.6 if n % 2 == 0 else 0.0)) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_x_layout_is_the_dense_one_on_iz_and_xy(self, rng, n):
        # D over {I, Z}^N and A over {X, Y}^N, and the dense tensor is 0 on every
        # other word; the swapped symmetric draw takes Y as T
        params = sample_physical_family(rng, n)
        states = [params, FamilyParams(n, params.c2, params.c1, params.c3, params.s), GhzParams(n, 0.6),
                  GhzParams(n, 1.0), DiagonalFieldParams(tuple(rng.uniform(-1.0 / n, 1.0 / n, n)))]
        for state in states:
            dense = _pauli_tensor(realize(state)).reshape((4,) * n)
            d, a = dense[np.ix_(*[[0, 3]] * n)], dense[np.ix_(*[[1, 2]] * n)]
            x_layout = _pauli_tensor(state)
            assert x_layout.shape == (2 ** (n + 1),)
            assert np.max(np.abs(x_layout - np.concatenate((d.ravel(), a.ravel())))) <= 1e-15, state
            dense[np.ix_(*[[0, 3]] * n)] = dense[np.ix_(*[[1, 2]] * n)] = 0.0
            assert np.max(np.abs(dense)) <= 1e-15, state


class TestMeasuredConditionalEntropy:
    def test_matches_ensemble_route(self, rng):
        # random full-rank states, and pure GHZ whose z tree has zero-probability branches
        for n in (2, 3, 4, 5):
            ghz = realize(GhzParams(n, 1.0))
            cases = [(random_full_rank(rng, n), random_tree(n - 1, rng)) for _ in range(3)]
            cases += [
                (ghz, random_tree(n - 1, rng)),
                (ghz, z_tree(n - 1)),
            ]
            for rho, tree in cases:
                value, levels = chain_levels(rho, tree)
                dense = [ensemble_entropy(rho, tree, k) for k in range(1, n)]
                for k in range(1, n):
                    assert levels[k - 1] == pytest.approx(dense[k - 1], abs=1e-12), (n, k)
                assert value == pytest.approx(sum(dense), abs=1e-12), n

    def test_family_z_tree_matches_reduced_g(self, rng):
        params = sample_physical_family(rng, 3)
        rho = realize(params)
        got = chain_levels(rho, Z_TREE3)[1][0]
        g_at_one = level_sums(params, all_ones(3))[0]
        assert got == pytest.approx(1.0 - g_at_one, abs=1e-11)

    def test_product_state_tree_independent(self, rng):
        # true product state: conditional entropy is the bare marginal entropy
        s1, s2, s3 = 0.4, -0.3, 0.2
        factors = [0.5 * (np.eye(2) + s * PAULI["Z"]) for s in (s1, s2, s3)]
        arr = np.kron(np.kron(factors[0], factors[1]), factors[2])
        rho = DensityMatrix(3, arr)
        marginal = -sum(p * np.log2(p) for p in ((1 + s2) / 2, (1 - s2) / 2))
        for _ in range(3):
            tree = random_tree(2, rng)
            got = chain_levels(rho, tree)[1][0]
            assert got == pytest.approx(marginal, abs=1e-11)

    def test_ghz_pure_branches_zero(self):
        rho = realize(GhzParams(3, 1.0))
        assert chain_levels(rho, Z_TREE3)[1][1] == pytest.approx(0.0, abs=1e-12)


def lbfgsb_reference(rho, cfg):
    """The full oracle's value with one scipy L-BFGS-B run per start: the same
    starts, offset and tolerances, every start counted, and the unmeasured
    term from a dense partial trace."""
    from scipy.optimize import minimize

    n = rho.n_qubits
    npar = 2 ** (n - 1) - 1
    chain = _Chain(rho)
    starts = [np.array(pair * npar) for pair in oracle.AXIS_ANGLES[: cfg.starts]]
    rng = np.random.default_rng(cfg.seed)
    while len(starts) < 2 * cfg.starts:
        th = np.arccos(rng.uniform(-1.0, 1.0, npar))
        ph = rng.uniform(0.0, 2 * np.pi, npar)
        starts.append(np.column_stack((th, ph)).ravel())

    def solve(x0):
        res = minimize(
            lambda a: tuple(v[0] for v in chain.value_and_grad(a[None])),
            np.where(x0 != 0.0, 1.05 * x0, 0.00025),
            method="L-BFGS-B",
            jac=True,
            options={"ftol": oracle.F_TOL, "gtol": oracle.GRAD_TOL, "maxiter": cfg.max_iters},
        )
        return float(res.fun)

    base = von_neumann_entropy(rho) - von_neumann_entropy(DensityMatrix(1, partial_trace(rho.entries, {1})))
    return min(solve(x0) for x0 in starts) - base


class TestChainGradient:
    def test_batch_matches_single_starts(self, rng):
        # pure GHZ has floored branches and eigenvalues; the maximally mixed state has w = 0
        for n in (2, 3, 4):
            npar = 2 ** (n - 1) - 1
            states = [random_full_rank(rng, n), realize(GhzParams(n, 1.0)),
                      DensityMatrix(n, np.eye(2**n) / 2**n)]
            for rho in states:
                chain = _Chain(rho)
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
            states += [realize(GhzParams(n, mu)) for mu in (0.4, 1.0)]
            npar = 2 ** (n - 1) - 1
            for rho in states:
                chain = _Chain(rho)
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
                    assert value == pytest.approx(chain_levels(rho, tree)[0], abs=1e-14)

    def test_finite_at_zero_bloch_vector(self):
        # maximally mixed: every branch has w = 0, and the gradient is exactly flat
        chain = _Chain(DensityMatrix(3, np.eye(8) / 8))
        value, grad = (a[0] for a in chain.value_and_grad(np.array([[0.3, 1.0, 2.0, -0.5, 1.2, 0.1]])))
        assert value == pytest.approx(2.0, abs=1e-14)
        assert np.all(np.isfinite(grad))
        assert np.max(np.abs(grad)) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_plane_chain_matches_four_letters(self, rng, n):
        # the X-layout chain of a family state at theta rows is the 4-letter
        # chain of its dense state at (theta, phi) pairs, phi pinned to T's axis
        d = 2 ** (n - 1) - 1
        params = sample_physical_family(rng, n)
        big, small = sorted((params.c1, params.c2), key=abs, reverse=True)
        for c1, c2 in ((big, small), (small, big)):
            state = FamilyParams(n, c1, c2, params.c3, params.s)
            theta = rng.uniform(-2 * np.pi, 2 * np.pi, (8, d))
            pinned = np.zeros((8, 2 * d))
            pinned[:, ::2] = theta
            pinned[:, 1::2] = 0.0 if abs(c1) >= abs(c2) else np.pi / 2
            value, grad = _Chain(state).value_and_grad(theta)
            dense_value, dense_grad = _Chain(realize(state)).value_and_grad(pinned)
            assert grad.shape == (8, d)
            assert np.max(np.abs(value - dense_value)) <= 1e-13, (n, c1, c2)
            assert np.max(np.abs(grad - dense_grad[:, ::2])) <= 1e-13, (n, c1, c2)


    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_family_chain_matches_dense(self, rng, n):
        # the X layout's chain at (theta, phi) rows is the 4-letter chain of the dense state
        npar = 2 ** (n - 1) - 1
        params = sample_physical_family(rng, n)
        states = [params, FamilyParams(n, params.c2, params.c1, params.c3, params.s), GhzParams(n, 0.6),
                  GhzParams(n, 1.0), DiagonalFieldParams(tuple(rng.uniform(-1.0 / n, 1.0 / n, n)))]
        for state in states:
            angles = np.empty((8, 2 * npar))
            angles[:, 0::2] = np.arccos(rng.uniform(-1.0, 1.0, (8, npar)))
            angles[:, 1::2] = rng.uniform(0.0, 2 * np.pi, (8, npar))
            chain, dense = _Chain(state), _Chain(realize(state))
            value, grad = chain.value_and_grad(angles)
            dense_value, dense_grad = dense.value_and_grad(angles)
            assert abs(chain.base - dense.base) <= 1e-13, state
            assert np.max(np.abs(value - dense_value)) <= 1e-13, state
            assert np.max(np.abs(grad - dense_grad)) <= 1e-13, state

    @pytest.mark.parametrize("state", [DensityMatrix(3, np.eye(8) / 8), DiagonalFieldParams((0.1, -0.2, 0.3))],
                             ids=["dense", "diagonal"])
    def test_one_angle_row_needs_a_t_azimuth(self, state):
        with pytest.raises(ValueError, match="^one angle per prefix is theta in the z-T plane"):
            _Chain(state).value_and_grad(np.zeros((1, 3)))


class TestDiscordObjective:
    def test_maximally_mixed_any_tree(self, rng):
        rho = DensityMatrix(3, np.eye(8) / 8)
        for _ in range(3):
            tree = random_tree(2, rng)
            assert objective(rho, tree) == pytest.approx(0.0, abs=1e-11)

    def test_bell_diagonal_z_tree_hand_value(self):
        params = FamilyParams(2, 0.3, 0.2, 0.1, 0.0)
        rho = realize(params)
        tree = z_tree(1)
        slog = float(np.sum([lam * np.log2(lam) for lam in np.linalg.eigvalsh(rho.entries)]))
        expected = 2 + slog - 0.5 * binary_h(0.1)
        assert objective(rho, tree) == pytest.approx(expected, abs=1e-11)

    def test_family_z_tree_reduced_composition(self, rng):
        params = sample_physical_family(rng, 3)
        rho = realize(params)
        slog = float(np.sum([lam * np.log2(max(lam, 1e-300)) for lam in np.linalg.eigvalsh(rho.entries) if lam > 1e-14]))
        y_ones = reduced_value(params, all_ones(3))
        expected = slog + 3 - 0.5 * binary_h(params.s) - y_ones
        assert objective(rho, Z_TREE3) == pytest.approx(expected, abs=1e-10)

    def test_sign_flip_invariance(self, rng):
        # negating every direction relabels all outcomes, so prefixes complement
        params = sample_physical_family(rng, 3)
        rho = realize(params)

        def relabeled(tree):
            # complementing a prefix of length m reverses its level's block of rows
            dirs = tree.directions
            blocks = [dirs[2**m - 1 : 2 ** (m + 1) - 1][::-1] for m in range(tree.n_measured)]
            return MeasurementTree(tree.n_measured, -np.concatenate(blocks))

        for _ in range(5):
            tree = random_tree(2, rng)
            assert objective(rho, tree) == pytest.approx(
                objective(rho, relabeled(tree)), abs=1e-9
            )
        out = minimize_discord(rho, FAST)
        assert objective(rho, relabeled(out.best_tree)) == pytest.approx(
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
        rho = realize(params)
        closed = discord_symmetric(params).value
        for _ in range(5):
            tree = random_tree(n - 1, rng)
            assert objective(rho, tree) >= closed - 1e-9


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
from discordium import FamilyParams, GhzParams, OracleConfig, minimize_discord, realize

states = [GhzParams(2, 0.6), FamilyParams(3, 0.1, 0.1, -0.2, 0.3), FamilyParams(4, 0.3, 0.2, 0.25, 0.1)]
cfg = OracleConfig(starts=3, seed=5)
print(json.dumps([minimize_discord(realize(p), cfg).value for p in states]))
"""


class TestMinimizeDiscord:
    def test_ghz_closed_form(self):
        rho = realize(GhzParams(2, 0.5))
        out = minimize_discord(rho, FAST)
        assert out.value == pytest.approx(0.26248318376373436, abs=5e-3)
        assert out.starts_converged >= 1

    def test_bell_diagonal_spot(self):
        rho = realize(FamilyParams(2, 0.3, 0.2, 0.1, 0.0))
        out = minimize_discord(rho, FAST)
        assert out.value == pytest.approx(0.05068495714647761, abs=5e-3)

    def test_case2_3q_matches_analytic(self):
        params = FamilyParams(3, 0.3, 0.2, 0.1, 0.0)
        out = minimize_discord(realize(params), FAST)
        assert out.value == pytest.approx(discord_symmetric(params).value, abs=5e-3)

    def test_zero_minimum_reported_as_zero(self):
        # the diagonal-field state has zero discord; roundoff gave -2.2e-16 before the clamp
        out = minimize_discord(realize(DiagonalFieldParams((0.2, -0.1, 0.3))), FAST)
        assert out.value == 0.0 and np.copysign(1.0, out.value) == 1.0
        assert oracle._clamp_zero(-1e-12) == 0.0 and oracle._clamp_zero(-1.1e-12) == -1.1e-12

    def test_product_state_zero(self):
        factors = [0.5 * (np.eye(2) + s * PAULI["Z"]) for s in (0.4, -0.3, 0.2)]
        arr = np.kron(np.kron(factors[0], factors[1]), factors[2])
        out = minimize_discord(DensityMatrix(3, arr), OracleConfig(starts=6, seed=3))
        assert abs(out.value) <= 1e-6

    def test_minimizer_property(self, rng):
        params = sample_physical_family(rng, 3)
        rho = realize(params)
        out = minimize_discord(rho, FAST)
        for _ in range(20):
            tree = random_tree(2, rng)
            assert objective(rho, tree) >= out.value - 1e-9

    def test_deterministic_given_seed(self):
        rho = realize(FamilyParams(2, 0.25, -0.15, 0.1, 0.2))
        a = minimize_discord(rho, OracleConfig(starts=8, seed=11))
        b = minimize_discord(rho, OracleConfig(starts=8, seed=11))
        assert a.value == b.value
        assert a.spread == b.spread
        assert a.starts_converged == b.starts_converged

    def test_n2_pole_starts_converge(self, rng):
        # the case-1 optimum is the theta = 0 pole, where phi is free
        for _ in range(20):
            params = sample_case1_family(rng, 2)
            out = minimize_discord(realize(params), OracleConfig(starts=3))
            assert out.starts_converged == 6, params
            assert out.value == pytest.approx(discord_symmetric(params).value, abs=1e-9), params

    def test_escapes_z_saddle(self):
        # the only start is the +z tree, a saddle of the objective at 0.4212 bits
        params = FamilyParams(2, 0.6, 0.1, 0.3, 0.0)
        out = minimize_discord(realize(params), OracleConfig(starts=1))
        closed = discord_symmetric(params).value
        assert closed == pytest.approx(0.2090404733692019, abs=1e-15)
        assert out.value == pytest.approx(closed, abs=1e-12)

    def test_cap(self):
        # the full oracle's one limit is the dense cap: a state built by hand
        # past it meets the rule and message of realize
        rho = DensityMatrix(9, np.eye(512) / 512)
        with pytest.raises(DenseCapExceeded, match="^n_qubits=9 exceeds dense cap 8$"):
            minimize_discord(rho, FAST)

    def test_best_tree_reproduces_value(self):
        rho = realize(FamilyParams(3, 0.1, 0.1, -0.2, 0.3))
        out = minimize_discord(rho, FAST)
        assert objective(rho, out.best_tree) == pytest.approx(out.value, abs=1e-8)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_lbfgsb_reference(self, n):
        rng = np.random.default_rng(1000 + n)
        cfg = OracleConfig(starts=3, seed=5)
        for rho in (realize(sample_case1_family(rng, n)), random_full_rank(rng, n)):
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
        assert json.loads(proc.stdout) == [minimize_discord(realize(p), cfg).value for p in states]

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_family_params_match_dense(self, rng, n):
        # the X layout and the dense tensor run the same starts to the same minima
        cfg = OracleConfig(starts=3, seed=n)
        states = [DiagonalFieldParams(tuple(rng.uniform(-1.0 / n, 1.0 / n, n)))]
        if n <= 4:
            states += [sample_case1_family(rng, n), sample_physical_family(rng, n), GhzParams(n, 0.6)]
        for params in states:
            out, dense = minimize_discord(params, cfg), minimize_discord(realize(params), cfg)
            assert out.oracle == "full" and out.value == pytest.approx(dense.value, abs=1e-12), params
            assert out.starts_converged == dense.starts_converged, params

    @pytest.mark.parametrize("rho", [
        realize(GhzParams(2, 0.6)),
        DensityMatrix(2, np.eye(4) / 4),
        DensityMatrix(3, np.eye(8) / 8),
    ], ids=["ghz2", "mixed2", "mixed3"])
    def test_flat_objective_one_evaluation(self, rho, monkeypatch):
        real, calls = oracle._lockstep_minimize, []

        def spy(*args, **kwargs):
            calls.append(real(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(oracle, "_lockstep_minimize", spy)
        out = minimize_discord(rho, OracleConfig(starts=4, seed=2))
        [res] = calls
        assert res.nfev == 1 and res.success.all()
        assert out.starts_converged == 8 and out.spread == 0.0

    def test_one_start_counts_its_random_start(self):
        # the +z start ends at 0.651918; the random start that runs beside it finds the minimum
        out = minimize_discord(realize(FamilyParams(3, -0.37, 0.78, 0.17, -0.02)), OracleConfig(starts=1, seed=0))
        assert out.value == pytest.approx(0.5717356303188266, abs=1e-12)
        assert out.starts_converged == 2
        assert out.spread == pytest.approx(0.0802, abs=1e-4)

    def test_random_rows_do_not_depend_on_their_count(self, monkeypatch):
        real, starts = oracle._lockstep_minimize, []

        def spy(fun, x0, max_iters):
            starts.append(x0)
            return real(fun, x0, max_iters)

        monkeypatch.setattr(oracle, "_lockstep_minimize", spy)
        rho = realize(FamilyParams(3, 0.1, 0.1, -0.2, 0.3))
        for count in (1, 2, 6, 9):
            minimize_discord(rho, OracleConfig(starts=count, seed=3))
        assert len(starts) == 4
        for count, x0 in zip((1, 2, 6, 9), starts):
            axes = min(count, 6)
            assert x0.shape == (2 * count, 6)
            axis_trees = np.array([pair * 3 for pair in oracle.AXIS_ANGLES[:axes]])
            np.testing.assert_array_equal(x0[:axes], oracle._off_axis(axis_trees))
            np.testing.assert_array_equal(x0[axes:], starts[-1][6 : 6 + 2 * count - axes])


class TestReduction:
    # every start converges at 2000 steps, some at 20, none at 3
    @pytest.mark.parametrize("max_iters", [2000, 20, 3])
    @pytest.mark.parametrize("solver", ["full", "reduced"])
    def test_every_start_counts(self, solver, max_iters, monkeypatch):
        real, calls = oracle._lockstep_minimize, []

        def spy(fun, x0, iters):
            calls.append(real(fun, x0, iters))
            return calls[-1]

        monkeypatch.setattr(oracle, "_lockstep_minimize", spy)
        cfg = OracleConfig(starts=4, max_iters=max_iters, seed=1)
        if solver == "full":
            state = realize(FamilyParams(3, -0.37, 0.78, 0.17, -0.02))
            out = minimize_discord(state, cfg)
        else:
            state = FamilyParams(5, 0.1, 0.1, -0.2, 0.05)
            out = minimize_reduced(state, cfg)
        [res] = calls
        best = oracle._clamp_zero(res.fun.min() - _Chain(state).base)
        assert out.value == best
        assert out.starts_converged == res.success.sum()
        if res.success.any():
            assert out.spread == np.ptp(res.fun[res.success])
        else:
            assert np.isnan(out.spread)

    @pytest.mark.parametrize(
        "solve, state",
        [(minimize_discord, realize(FamilyParams(3, 0.2, 0.1, -0.3, 0.05))),
         (minimize_reduced, FamilyParams(5, 0.2, 0.1, -0.3, 0.05))],
        ids=["full", "reduced"],
    )
    def test_equal_solves_compare_and_hash_equal(self, solve, state):
        cfg = OracleConfig(starts=3, seed=1)
        first, second = solve(state, cfg), solve(state, cfg)
        assert first is not second and first.best_tree.directions is not second.best_tree.directions
        assert first == second and hash(first) == hash(second)
        assert len({first, second}) == 1


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
        # the offset moves a start on the minimum off it (0 -> 0.00025, 1 -> 1.05, -2 -> -2.1)
        x0 = np.array([[1.0, 0.0, -2.0]])
        moved = oracle._off_axis(x0)
        assert moved.tolist() == [[1.05, 0.00025, -2.1]] and x0.tolist() == [[1.0, 0.0, -2.0]]
        res = oracle._lockstep_minimize(lambda x: (x[:, 0] * 0.0, x * 0.0), moved, 100)
        assert res.nfev == 1 and res.success.tolist() == [True] and res.nit.tolist() == [0]
        assert res.x.tolist() == moved.tolist() and isinstance(res.nfev, int)

    def test_traced_name_is_the_minimizer(self):
        # the benchmark's tracer wraps oracle._scipy_minimize; it must stay this very function
        assert oracle._scipy_minimize is oracle._lockstep_minimize


class TestMinimizeFamily:
    def test_symmetric_past_full_cap_goes_reduced(self):
        params = FamilyParams(5, 0.1, 0.1, -0.2, 0.05)
        cfg = OracleConfig(starts=4, seed=2)
        out = minimize_family(params, cfg)
        assert out.oracle == "reduced" and isinstance(out.best_tree, MeasurementTree)
        assert out.value == minimize_reduced(params, cfg).value

    def test_other_states_go_full(self):
        cfg = OracleConfig(starts=3, seed=2)
        params = FamilyParams(3, 0.1, 0.1, -0.2, 0.3)
        out = minimize_family(params, cfg)
        assert out.oracle == "full" and isinstance(out.best_tree, MeasurementTree)
        assert out.value == minimize_discord(realize(params), cfg).value
        ghz = GhzParams(2, 0.5)
        assert minimize_family(ghz, cfg).value == minimize_discord(realize(ghz), cfg).value

    def test_reach_ignores_the_environment(self, monkeypatch):
        # the dense cap is a constant: no environment variable narrows the full oracle
        params, cfg = FamilyParams(4, 0.2, 0.1, -0.3, 0.05), OracleConfig(starts=3)
        expected = minimize_family(params, cfg)
        monkeypatch.setenv("DISCORDIUM_DENSE_CAP", "3")
        assert oracle_reaches(params)
        assert minimize_family(params, cfg) == expected

    # the diagonal state past the dense cap is refused as unphysical, before the cap
    @pytest.mark.parametrize("params", [FamilyParams(5, 0.9, 0.9, 0.9, 0.5), FamilyParams(3, 0.9, 0.9, 0.9),
                                        DiagonalFieldParams((0.2,) * 9)])
    def test_refuses_unphysical(self, params, monkeypatch):
        monkeypatch.setattr(pauli, "realize", lambda p: pytest.fail("realize called"))
        monkeypatch.setattr(oracle, "_pauli_tensor", lambda p: pytest.fail("Pauli weights built"))
        with pytest.raises(ValueError, match="^unphysical parameters"):
            minimize_family(params, FAST)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_solves_without_dense_state(self, n, monkeypatch):
        states = [FamilyParams(n, 0.1, 0.1, -0.2, 0.3 / n), GhzParams(n, 0.5), DiagonalFieldParams((0.1,) * n)]
        expected = [minimize_family(params, FAST).value for params in states]
        monkeypatch.setattr(pauli, "realize", lambda p: pytest.fail("realize called"))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: pytest.fail("eigvalsh called"))
        assert [minimize_family(params, FAST).value for params in states] == expected

    def test_past_reach_builds_nothing(self, monkeypatch):
        monkeypatch.setattr(np, "zeros", lambda *a, **k: pytest.fail("array allocated"))
        with pytest.raises(ValueError, match="exceeds reduced-oracle cap 10"):
            minimize_family(GhzParams(12, 0.5), FAST)
        with pytest.raises(ValueError, match="exceeds reduced-oracle cap 10"):
            minimize_family(FamilyParams(11, 0.05, 0.05, -0.1, 0.0), FAST)
        with pytest.raises(DenseCapExceeded, match="^n_qubits=9 exceeds dense cap 8$"):
            minimize_family(DiagonalFieldParams((0.1,) * 9), FAST)

    def test_reach(self):
        assert oracle_reaches(FamilyParams(10, 0.05, 0.05, -0.1, 0.0))
        assert not oracle_reaches(FamilyParams(11, 0.05, 0.05, -0.1, 0.0))
        assert oracle_reaches(GhzParams(5, 0.5))
        assert not oracle_reaches(GhzParams(11, 0.5))
        assert oracle_reaches(DiagonalFieldParams((0.1,) * 8))
        assert not oracle_reaches(DiagonalFieldParams((0.1,) * 9))

    def test_ghz_past_full_cap_goes_reduced(self):
        out = minimize_family(GhzParams(5, 0.4), OracleConfig(starts=3, seed=1))
        assert (out.oracle, out.branch) == ("reduced", "oracle[reduced]")
        assert out.value == minimize_reduced(GhzParams(5, 0.4), OracleConfig(starts=3, seed=1)).value


class TestReducedObjective:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_batch_matches_rows(self, rng, n):
        params = sample_physical_family(rng, n)
        d = 2 ** (n - 1) - 1
        zs = rng.uniform(-1.0, 1.0, (40, d))
        zs[::4] = 0.0
        zs[1::4, 0] = 1.0
        zs[2::4, -1] = -1.0
        zs[3::4] = np.sign(zs[3::4])
        batch = level_terms(params, zs)
        for i, z in enumerate(zs):
            rows = level_terms(params, z)
            for level, terms in enumerate(rows):
                assert terms.shape == (2 ** (level + 1),)
                assert np.max(np.abs(batch[level][i] - terms)) <= 1e-15

    def test_g_values(self):
        params = FamilyParams(3, 0.1, 0.1, -0.2, 0.3)
        # z at the prefixes "", "0" and "1"
        assert level_sums(params, np.array([0.0, 1.0, 1.0]))[0] == pytest.approx(
            0.06593194462450899, abs=1e-12
        )
        assert level_sums(params, np.array([1.0, 1.0, 1.0]))[0] == pytest.approx(
            0.07310400793180988, abs=1e-12
        )

    def test_w_all_ones_s_zero(self):
        for n in (2, 3, 4):
            params = FamilyParams(n, 0.1, 0.2, -0.35, 0.0)
            # the final level, the only one that reads c1, c2 and c3
            assert level_sums(params, all_ones(n))[-1] == pytest.approx(0.5 * binary_h(0.35), abs=1e-12)

    def test_y_composition(self):
        # the objective is the sum of its N - 1 levels' terms
        p3 = FamilyParams(3, 0.1, 0.1, -0.2, 0.3)
        g, f = level_sums(p3, all_ones(3))
        assert reduced_value(p3, all_ones(3)) == pytest.approx(g + f, abs=1e-14)
        p4 = FamilyParams(4, 0.1, 0.1, -0.2, 0.1)
        g, f, t = level_sums(p4, all_ones(4))
        assert reduced_value(p4, all_ones(4)) == pytest.approx(g + f + t, abs=1e-14)

    def test_all_ones_parity_matches_max_w(self, rng):
        # at the all-z reduction, the total equals the closed-form bracket
        from discordium import max_w

        params = sample_case1_family(rng, 3)
        total = reduced_value(params, all_ones(3)) + 0.5 * binary_h(params.s)
        assert total == pytest.approx(max_w(params), abs=1e-11)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_gradient_matches_central_differences(self, rng, n):
        # in the angles z = cos(theta) of the reduced search: interior ones,
        # and ones near 0 and pi/2, where z is near 1 and near 0
        step, d = 1e-6, 2 ** (n - 1) - 1
        for s_zero in (False, True):
            params = sample_physical_family(rng, n, s_zero=s_zero)
            for theta in (rng.uniform(0.1, np.pi - 0.1, d), rng.uniform(1e-4, 1e-3, d),
                          np.pi / 2 + rng.uniform(-1e-3, 1e-3, d)):
                chain = _Chain(params)
                value, grad = (a[0] for a in chain.value_and_grad(theta[None]))
                # the value, some N - 1 bits, is the sum of the level rows the call fills
                lam, _, log_ratio, _, _ = chain._eigen_terms()
                rows = -(lam * log_ratio).sum(axis=-1)[0]
                levels = [rows[2**m - 2 : 2 ** (m + 1) - 2].sum() for m in range(1, n)]
                assert value == pytest.approx(sum(levels), rel=1e-15, abs=0.0)
                shifted = theta + np.concatenate((np.eye(d), -np.eye(d))) * step
                up, down = np.split(chain.value_and_grad(shifted)[0], 2)
                central = (up - down) / (2 * step)
                assert np.max(np.abs(grad - central)) <= 1e-7, (n, s_zero)


class TestMinimizeReduced:
    def test_case1_maximizer_at_ones(self):
        params = FamilyParams(3, 0.1, 0.1, -0.2, 0.3)
        out = minimize_reduced(params, OracleConfig(starts=4, seed=2))
        assert out.value == pytest.approx(discord_symmetric(params).value, abs=1e-7)
        assert np.all(np.abs(out.best_tree.directions[:, 2] - 1.0) <= 1e-5)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_best_tree_reproduces_value(self, rng, n):
        # the reduced optimum is a tree the full oracle's chain can play: the
        # best z at every prefix, transverse part along x or y
        # two case-1, two case-2 (s = 0) and two region-none draws, two GHZ
        # states, and a case-2 draw with |c2| > |c1|, |c3|, whose best tree
        # leans along y, T's azimuth
        draws = [sample_case1_family(rng, n) for _ in range(2)]
        draws += [sample_physical_family(rng, n, s_zero=True) for _ in range(2)]
        while len(draws) < 6:
            params = sample_physical_family(rng, n)
            if classify_region(params).region == "none":
                draws.append(params)
        draws += [GhzParams(n, mu) for mu in rng.uniform(0.05, 1.0, 2)]
        y_draw = sample_physical_family(rng, n, s_zero=True)
        while abs(y_draw.c2) <= max(abs(y_draw.c1), abs(y_draw.c3)) + 0.1:
            y_draw = sample_physical_family(rng, n, s_zero=True)
        for params in draws + [y_draw]:
            out = minimize_reduced(params, OracleConfig(starts=4, seed=3))
            assert out.oracle == "reduced" and out.best_tree.n_measured == n - 1
            assert objective(realize(params), out.best_tree) == pytest.approx(out.value, abs=1e-12), params
        x_most, y_most = np.abs(out.best_tree.directions[:, :2]).max(axis=0)
        assert y_most >= 0.5 and x_most <= 1e-15

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
            realize(params), OracleConfig(starts=12, seed=2)
        )
        assert red.value == pytest.approx(full.value, abs=5e-3)

    def test_matches_full_oracle_random(self, rng):
        for n in (3, 4):
            params = sample_physical_family(rng, n)
            red = minimize_reduced(params, OracleConfig(starts=4, seed=5))
            full = minimize_discord(
                realize(params), OracleConfig(starts=10, seed=5)
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
        rho = realize(params).entries
        assert np.max(np.abs(z1 @ rho @ z1 - realize(flipped).entries)) <= 1e-15
        region = classify_region(params).region
        assert classify_region(flipped).region == region
        if region != "none":
            value = discord_symmetric(params).value
            assert discord_symmetric(flipped).value == pytest.approx(value, abs=1e-12)
        cfg = OracleConfig(starts=3, seed=seed)
        value = minimize_reduced(params, cfg).value
        assert minimize_reduced(flipped, cfg).value == pytest.approx(value, abs=1e-12)

    def test_one_seam_call(self, monkeypatch):
        real, calls = oracle._lockstep_minimize, []

        def spy(fun, x0, max_iters):
            calls.append((x0.shape, real(fun, x0, max_iters)))
            return calls[-1][1]

        monkeypatch.setattr(oracle, "_lockstep_minimize", spy)
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
        assert out.value == 0.08795951887430564

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

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_ghz_matches_closed_form(self, n):
        # the GHZ class at every residue mod 4, where only this oracle reaches
        for mu in (0.1, 0.4, 0.7, 1.0):
            params = GhzParams(n, mu)
            out = minimize_reduced(params, OracleConfig(starts=3, seed=1))
            assert out.value == pytest.approx(discord_ghz(params).value, abs=1e-12), mu

    def test_ghz_matches_full_oracle_at_five(self):
        # the full oracle optimizes every direction of the dense GHZ state's
        # tree, so it checks independently that the z-T plane loses nothing
        cfg = OracleConfig(starts=4, seed=1)
        for mu in (0.3, 0.8):
            params = GhzParams(5, mu)
            full = minimize_discord(realize(params), cfg)
            assert full.value == pytest.approx(minimize_reduced(params, cfg).value, abs=1e-9)

    def test_reduction_matches_full_oracle_at_five(self, rng):
        # the full oracle optimizes every direction of the tree, so it checks
        # independently that maximizing out the transverse components loses nothing
        region_none = FamilyParams(5, 0.3, 0.2, 0.1, 0.05)
        assert classify_region(region_none).region == "none"
        cfg = OracleConfig(starts=4, seed=1)
        for params in (sample_case1_family(rng, 5), region_none):
            full = minimize_discord(realize(params), cfg)
            assert full.value == pytest.approx(minimize_reduced(params, cfg).value, abs=1e-9)


def vertex_values(params) -> np.ndarray:
    """The discord values `_Chain` gives a symmetric state's all-z and all-T trees."""
    chain = _Chain(params)
    theta = np.zeros((2, 2 ** (params.n_qubits - 1) - 1))
    theta[1] = np.pi / 2
    return chain.value_and_grad(theta)[0] - chain.base


class TestCaseOne:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_closed_form_never_above_either_vertex_tree(self, rng, n):
        # case 1 under both conditions; the second is withheld only where the all-T tree is lower
        for params in [sample_case1_family(rng, n) for _ in range(3)] + [sample_case1_second(rng, n) for _ in range(8)]:
            d_z, d_t = vertex_values(params)
            try:
                value = discord_symmetric(params).value
            except NoAnalyticCase:
                assert classify_region(params).condition_detail.endswith("but D_T < D_z")
                assert d_t < d_z, params
                continue
            assert value <= min(d_z, d_t) + 1e-12, params

    @pytest.mark.parametrize("n", [3, 4])
    def test_second_condition_matches_full_oracle(self, rng, n):
        for _ in range(8):
            params = sample_case1_second(rng, n)
            out = minimize_discord(realize(params), OracleConfig(starts=3, seed=1))
            if classify_region(params).region == "case1":
                assert out.value == pytest.approx(discord_symmetric(params).value, abs=1e-9), params
            else:
                assert out.value <= min(vertex_values(params)) + 1e-12, params


class TestFullOracleReachesDenseCap:
    # one state per residue class of N mod 4 and per closed form: case 1 under
    # each condition, case 2 and GHZ, each a 3-start dense solve
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_matches_closed_forms(self, rng, n):
        second = sample_case1_second(rng, n)
        while classify_region(second).region != "case1":
            second = sample_case1_second(rng, n)
        states = [sample_case1_family(rng, n), second, sample_physical_family(rng, n, s_zero=True), GhzParams(n, 0.6)]
        for params in states:
            closed = discord_ghz(params) if isinstance(params, GhzParams) else discord_symmetric(params)
            out = minimize_discord(realize(params), OracleConfig(starts=3, seed=1))
            assert out.value == pytest.approx(closed.value, abs=1e-9), params


class TestOracleConfig:
    @pytest.mark.parametrize("field, most", [("starts", 256), ("max_iters", 10000)])
    def test_counts_are_bounded(self, field, most):
        assert getattr(OracleConfig(**{field: most}), field) == most
        with pytest.raises(ValueError, match=f"^{field} must be <= {most}, got {most + 1}$"):
            OracleConfig(**{field: most + 1})

    def test_from_json_huge_count_names_file_and_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"starts": 1e300}')
        with pytest.raises(ValueError, match="^.*cfg.json: starts must be <= 256, got 1e\\+300$"):
            OracleConfig.from_json(path)

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
        ('{"starts": "3"}', "starts must be a number, got '3'"),
        ('{"starts": "3.0"}', "starts must be a number, got '3.0'"),
    ])
    def test_from_json_refuses_non_integers(self, tmp_path, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"cfg.json: {message}$"):
            OracleConfig.from_json(path)

    def test_from_json_keeps_integral_values(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"starts": 16.0, "max_iters": 500, "seed": 3}))
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
