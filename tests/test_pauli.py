import numpy as np
import pytest

from discordium import (
    DenseCapExceeded,
    DensityMatrix,
    DiagonalFieldParams,
    FamilyParams,
    GhzParams,
    realize,
)
from discordium.spectral import PHYSICAL_TOL

from conftest import sample_physical_family
from reference import (
    PAULI,
    build_noisy_ghz_pauli,
    diagonal_field_words,
    kron_sum,
    partial_trace,
    symmetric_family_words,
)

FAMILIES = ("symmetric", "diagonal", "ghz")


def _family_draw(rng, family: str, n: int):
    """Seeded parameters of one family at n qubits, with its Pauli expansion."""
    if family == "symmetric":
        params = FamilyParams(n, *(float(v) for v in rng.uniform(-1.0, 1.0, 4)))
        return params, symmetric_family_words(params)
    if family == "diagonal":
        fields = tuple(float(v) for v in rng.uniform(-1.0, 1.0, n))
        return DiagonalFieldParams(fields), diagonal_field_words(fields)
    params = GhzParams(n, float(rng.uniform(0.0, 1.0)))
    return params, build_noisy_ghz_pauli(params)


class TestBuilders:
    def test_symmetric_3q_terms(self):
        expected = {"III": 1.0, "XXX": 0.2, "YYY": 0.2, "ZZZ": 0.2, "ZII": 0.1, "IZI": 0.1, "IIZ": 0.1}
        params = FamilyParams(3, 0.2, 0.2, 0.2, 0.1)
        assert symmetric_family_words(params) == expected
        assert np.max(np.abs(realize(params).entries - kron_sum(expected))) <= 1e-15

    def test_symmetric_identity_case(self):
        assert np.array_equal(realize(FamilyParams(2, 0.0, 0.0, 0.0, 0.0)).entries, np.eye(4) / 4)

    def test_symmetric_4q_has_all_four_s_terms(self):
        params = FamilyParams(4, 0.3, -0.1, -0.2, 0.05)
        words = {"IIII": 1.0, "XXXX": 0.3, "YYYY": -0.1, "ZZZZ": -0.2}
        words.update({w: 0.05 for w in ("ZIII", "IZII", "IIZI", "IIIZ")})
        rho = realize(params).entries
        assert np.max(np.abs(rho - kron_sum(words))) <= 1e-15
        assert np.linalg.eigvalsh(rho).min() >= -PHYSICAL_TOL

    def test_symmetric_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            FamilyParams(3, 1.2, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            FamilyParams(1, 0.0, 0.0, 0.0, 0.0)

    def test_diagonal_field_terms(self):
        # qubit 1 is the most significant bit: diagonal (1 + 0.3 + 0.5, 1 + 0.3 - 0.5, ...)/4
        rho = realize(DiagonalFieldParams((0.3, 0.5))).entries
        assert np.max(np.abs(rho - kron_sum({"II": 1.0, "ZI": 0.3, "IZ": 0.5}))) <= 1e-15
        assert np.allclose(rho, np.diag([1.8, 0.8, 1.2, 0.2]) / 4, rtol=0, atol=1e-15)

    def test_diagonal_field_zeros_maximally_mixed(self):
        assert np.array_equal(realize(DiagonalFieldParams((0.0, 0.0, 0.0))).entries, np.eye(8) / 8)

    def test_diagonal_field_range_violation(self):
        with pytest.raises(ValueError):
            DiagonalFieldParams((1.2,))

    def test_ghz_pauli_2q(self):
        mu = 0.7
        terms = build_noisy_ghz_pauli(GhzParams(2, mu))
        assert terms == {"II": 1.0, "XX": mu, "YY": -mu, "ZZ": mu}

    def test_ghz_pauli_3q(self):
        mu = 0.4
        terms = build_noisy_ghz_pauli(GhzParams(3, mu))
        expected = {"III": 1.0, "XXX": mu}
        for w in ("IZZ", "ZIZ", "ZZI"):
            expected[w] = mu
        for w in ("XYY", "YXY", "YYX"):
            expected[w] = -mu
        assert terms == expected

    def test_ghz_pauli_mu_zero(self):
        assert build_noisy_ghz_pauli(GhzParams(3, 0.0)) == {"III": 1.0}

    def test_ghz_dense_pure_bell(self):
        rho = realize(GhzParams(2, 1.0))
        bell = np.zeros((4, 4))
        bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
        assert np.allclose(rho.entries, bell, atol=1e-15)
        assert np.linalg.matrix_rank(rho.entries) == 1

    def test_ghz_dense_mu_zero(self):
        rho = realize(GhzParams(3, 0.0))
        assert np.allclose(rho.entries, np.eye(8) / 8)

    def test_ghz_dense_eigenvalues(self):
        rho = realize(GhzParams(2, 0.5))
        ev = np.sort(np.linalg.eigvalsh(rho.entries))
        assert np.allclose(ev, [0.125, 0.125, 0.125, 0.625], atol=1e-12)

    def test_ghz_params_range(self):
        with pytest.raises(ValueError):
            GhzParams(2, 1.5)
        with pytest.raises(ValueError):
            GhzParams(1, 0.5)


NINE_QUBITS = [FamilyParams(9, 0.1, 0.1, -0.2, 0.05), DiagonalFieldParams((0.1,) * 9), GhzParams(9, 0.5)]


class TestRealize:
    def test_identity(self):
        for params in (FamilyParams(2, 0.0, 0.0, 0.0), DiagonalFieldParams((0.0, 0.0)), GhzParams(2, 0.0)):
            assert np.array_equal(realize(params).entries, np.eye(4) / 4)

    def test_ghz_pauli_equals_dense(self):
        for n in range(2, 7):
            for mu in (0.0, 0.5, 1.0):
                params = GhzParams(n, mu)
                assert np.max(np.abs(kron_sum(build_noisy_ghz_pauli(params)) - realize(params).entries)) <= 1e-15

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_kronecker_sum(self, rng, family):
        # the by-index fill against one Kronecker product per Pauli word, physical or not
        for n in range(2, 9):
            for _ in range(3 if n < 7 else 1):
                params, words = _family_draw(rng, family, n)
                assert np.max(np.abs(realize(params).entries - kron_sum(words))) <= 1e-15, params

    def test_cap_error(self, monkeypatch):
        # every family is refused at 9 qubits before the matrix is allocated
        def refuse(*args, **kwargs):
            raise AssertionError("dense matrix allocated")

        monkeypatch.setattr(np, "zeros", refuse)
        for params in NINE_QUBITS:
            with pytest.raises(DenseCapExceeded, match="^n_qubits=9 exceeds dense cap 8$"):
                realize(params)

    def test_cap_is_eight_qubits(self):
        for params in (FamilyParams(8, 0.1, 0.1, -0.2, 0.05), DiagonalFieldParams((0.1,) * 8), GhzParams(8, 0.5)):
            assert realize(params).dim == 256

    def test_linearity(self, rng):
        params = sample_physical_family(rng, 3)
        manual = np.zeros((8, 8), dtype=complex)
        for word, w in symmetric_family_words(params).items():
            term = np.array([[1.0 + 0j]])
            for ch in word:
                term = np.kron(term, PAULI[ch])
            manual += w * term
        assert np.max(np.abs(realize(params).entries - manual / 8)) <= 1e-14


class TestPartialTrace:
    def test_family_single_qubit_marginal(self, rng):
        params = sample_physical_family(rng, 3)
        rho = realize(params)
        reduced = partial_trace(rho.entries, {1})
        expected = 0.5 * (np.eye(2) + params.s * PAULI["Z"])
        assert np.max(np.abs(reduced - expected)) <= 1e-12

    def test_diagonal_family_marginal(self):
        rho = realize(DiagonalFieldParams((0.3, 0.5, -0.2)))
        reduced = partial_trace(rho.entries, {2})
        expected = 0.5 * (np.eye(2) + 0.5 * PAULI["Z"])
        assert np.max(np.abs(reduced - expected)) <= 1e-12

    def test_ghz_marginal_maximally_mixed(self):
        rho = realize(GhzParams(2, 1.0))
        assert np.allclose(partial_trace(rho.entries, {1}), np.eye(2) / 2, atol=1e-12)

    def test_keep_two_of_three(self, rng):
        params = sample_physical_family(rng, 3)
        rho = realize(params)
        red = partial_trace(rho.entries, {1, 3})
        assert red.shape == (4, 4)
        assert abs(np.trace(red) - 1.0) <= 1e-12

    def test_trace_and_psd_preserved(self, rng):
        for _ in range(10):
            params = sample_physical_family(rng, 4)
            rho = realize(params)
            red = partial_trace(rho.entries, {2, 4})
            assert abs(np.trace(red) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(red)[0] >= -1e-10

    def test_invalid_keep(self):
        rho = DensityMatrix(2, np.eye(4) / 4)
        with pytest.raises(ValueError):
            partial_trace(rho.entries, set())
        with pytest.raises(ValueError):
            partial_trace(rho.entries, {0})
        with pytest.raises(ValueError):
            partial_trace(rho.entries, {3})


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        arr = np.eye(4, dtype=complex) / 4
        arr[0, 1] = 0.1
        with pytest.raises(ValueError):
            DensityMatrix(2, arr)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(2, np.eye(4, dtype=complex))

    def test_entries_are_a_read_only_copy(self):
        # the checks cannot be undone by a later write, through the state or the caller's array
        arr = np.eye(4, dtype=complex) / 4
        rho = DensityMatrix(2, arr)
        with pytest.raises(ValueError, match="read-only"):
            rho.entries[0, 1] = 0.1
        arr[0, 1] = 0.1
        assert rho.entries[0, 1] == 0.0 and arr.flags.writeable

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            DensityMatrix(2, np.eye(3, dtype=complex) / 3)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("index", [(0, 0), (1, 2), ...], ids=["diagonal", "off-diagonal", "all"])
    def test_rejects_non_finite_entries(self, index, entry):
        # NaN fails every comparison, so the Hermitian and trace tests alone cannot refuse it
        arr = np.eye(4, dtype=complex) / 4
        arr[index] = entry
        with pytest.raises(ValueError, match="^matrix has a non-finite entry$"):
            DensityMatrix(2, arr)
