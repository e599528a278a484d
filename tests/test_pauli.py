import numpy as np
import pytest

from discordium import (
    DenseCapExceeded,
    DensityMatrix,
    DiagonalFieldParams,
    FamilyParams,
    GhzParams,
    PauliSum,
    build_diagonal_field,
    build_noisy_ghz_dense,
    build_symmetric_family,
    realize,
)
from discordium.pauli import PAULI
from discordium.spectral import PHYSICAL_TOL

from conftest import sample_physical_family
from reference import build_noisy_ghz_pauli, partial_trace


class TestPauliSum:
    def test_identity_weight_must_be_one(self):
        with pytest.raises(ValueError):
            PauliSum(2, {"II": 0.5})
        with pytest.raises(ValueError):
            PauliSum(2, {"XX": 0.3})

    def test_zero_weights_pruned(self):
        ps = PauliSum(2, {"II": 1.0, "XX": 0.0, "ZZ": 0.25})
        assert "XX" not in ps.terms
        assert ps.weight("XX") == 0.0
        assert ps.weight("ZZ") == 0.25

    def test_bad_words_rejected(self):
        with pytest.raises(ValueError):
            PauliSum(2, {"II": 1.0, "XYZ": 0.1})
        with pytest.raises(ValueError):
            PauliSum(2, {"II": 1.0, "QQ": 0.1})
        with pytest.raises(ValueError):
            PauliSum(2, {"II": 1.0, "XX": float("inf")})


class TestBuilders:
    def test_symmetric_3q_terms(self):
        ps = build_symmetric_family(FamilyParams(3, 0.2, 0.2, 0.2, 0.1))
        assert ps.terms == {
            "III": 1.0,
            "XXX": 0.2,
            "YYY": 0.2,
            "ZZZ": 0.2,
            "ZII": 0.1,
            "IZI": 0.1,
            "IIZ": 0.1,
        }

    def test_symmetric_identity_case(self):
        ps = build_symmetric_family(FamilyParams(2, 0.0, 0.0, 0.0, 0.0))
        assert ps.terms == {"II": 1.0}
        assert np.allclose(realize(ps).entries, np.eye(4) / 4)

    def test_symmetric_4q_has_all_four_s_terms(self):
        ps = build_symmetric_family(FamilyParams(4, 0.3, -0.1, -0.2, 0.05))
        assert len(ps.terms) == 8
        for word in ("ZIII", "IZII", "IIZI", "IIIZ"):
            assert ps.weight(word) == 0.05
        assert np.linalg.eigvalsh(realize(ps).entries).min() >= -PHYSICAL_TOL

    def test_symmetric_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            FamilyParams(3, 1.2, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            FamilyParams(1, 0.0, 0.0, 0.0, 0.0)

    def test_diagonal_field_terms(self):
        ps = build_diagonal_field(DiagonalFieldParams((0.3, 0.5)))
        assert ps.terms == {"II": 1.0, "ZI": 0.3, "IZ": 0.5}

    def test_diagonal_field_zeros_maximally_mixed(self):
        ps = build_diagonal_field(DiagonalFieldParams((0.0, 0.0, 0.0)))
        assert ps.terms == {"III": 1.0}

    def test_diagonal_field_range_violation(self):
        with pytest.raises(ValueError):
            DiagonalFieldParams((1.2,))

    def test_ghz_pauli_2q(self):
        mu = 0.7
        terms = build_noisy_ghz_pauli(GhzParams(2, mu))
        assert PauliSum(2, terms).terms == terms == {"II": 1.0, "XX": mu, "YY": -mu, "ZZ": mu}

    def test_ghz_pauli_3q(self):
        mu = 0.4
        terms = build_noisy_ghz_pauli(GhzParams(3, mu))
        expected = {"III": 1.0, "XXX": mu}
        for w in ("IZZ", "ZIZ", "ZZI"):
            expected[w] = mu
        for w in ("XYY", "YXY", "YYX"):
            expected[w] = -mu
        assert PauliSum(3, terms).terms == terms == expected

    def test_ghz_pauli_mu_zero(self):
        assert PauliSum(3, build_noisy_ghz_pauli(GhzParams(3, 0.0))).terms == {"III": 1.0}

    def test_ghz_dense_pure_bell(self):
        rho = build_noisy_ghz_dense(GhzParams(2, 1.0))
        bell = np.zeros((4, 4))
        bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
        assert np.allclose(rho.entries, bell, atol=1e-15)
        assert np.linalg.matrix_rank(rho.entries) == 1

    def test_ghz_dense_mu_zero(self):
        rho = build_noisy_ghz_dense(GhzParams(3, 0.0))
        assert np.allclose(rho.entries, np.eye(8) / 8)

    def test_ghz_dense_eigenvalues(self):
        rho = build_noisy_ghz_dense(GhzParams(2, 0.5))
        ev = np.sort(np.linalg.eigvalsh(rho.entries))
        assert np.allclose(ev, [0.125, 0.125, 0.125, 0.625], atol=1e-12)

    def test_ghz_params_range(self):
        with pytest.raises(ValueError):
            GhzParams(2, 1.5)
        with pytest.raises(ValueError):
            GhzParams(1, 0.5)


class TestRealize:
    def test_identity(self):
        assert np.allclose(realize(PauliSum(2, {"II": 1.0})).entries, np.eye(4) / 4)

    def test_ghz_pauli_equals_dense(self):
        for n in range(2, 7):
            for mu in (0.0, 0.5, 1.0):
                params = GhzParams(n, mu)
                a = realize(PauliSum(n, build_noisy_ghz_pauli(params))).entries
                b = build_noisy_ghz_dense(params).entries
                assert np.max(np.abs(a - b)) <= 1e-12

    def test_cap_error(self, monkeypatch):
        # every dense builder refuses 9 qubits before it allocates its matrix
        psum, ghz = PauliSum(9, {"I" * 9: 1.0}), GhzParams(9, 0.5)

        def refuse(*args, **kwargs):
            raise AssertionError("dense matrix allocated")

        monkeypatch.setattr(np, "zeros", refuse)
        for build, arg in ((realize, psum), (build_noisy_ghz_dense, ghz)):
            with pytest.raises(DenseCapExceeded, match="^n_qubits=9 exceeds dense cap 8$"):
                build(arg)

    def test_cap_is_eight_qubits(self):
        assert realize(PauliSum(8, {"I" * 8: 1.0})).dim == 256
        assert build_noisy_ghz_dense(GhzParams(8, 0.5)).dim == 256

    def test_linearity(self, rng):
        params = sample_physical_family(rng, 3)
        ps = build_symmetric_family(params)
        manual = np.zeros((8, 8), dtype=complex)
        for word, w in ps.terms.items():
            term = np.array([[1.0 + 0j]])
            for ch in word:
                term = np.kron(term, PAULI[ch])
            manual += w * term
        assert np.max(np.abs(realize(ps).entries - manual / 8)) <= 1e-14


class TestPartialTrace:
    def test_family_single_qubit_marginal(self, rng):
        params = sample_physical_family(rng, 3)
        rho = realize(build_symmetric_family(params))
        reduced = partial_trace(rho.entries, {1})
        expected = 0.5 * (np.eye(2) + params.s * PAULI["Z"])
        assert np.max(np.abs(reduced - expected)) <= 1e-12

    def test_diagonal_family_marginal(self):
        rho = realize(build_diagonal_field(DiagonalFieldParams((0.3, 0.5, -0.2))))
        reduced = partial_trace(rho.entries, {2})
        expected = 0.5 * (np.eye(2) + 0.5 * PAULI["Z"])
        assert np.max(np.abs(reduced - expected)) <= 1e-12

    def test_ghz_marginal_maximally_mixed(self):
        rho = build_noisy_ghz_dense(GhzParams(2, 1.0))
        assert np.allclose(partial_trace(rho.entries, {1}), np.eye(2) / 2, atol=1e-12)

    def test_keep_two_of_three(self, rng):
        params = sample_physical_family(rng, 3)
        rho = realize(build_symmetric_family(params))
        red = partial_trace(rho.entries, {1, 3})
        assert red.shape == (4, 4)
        assert abs(np.trace(red) - 1.0) <= 1e-12

    def test_trace_and_psd_preserved(self, rng):
        for _ in range(10):
            params = sample_physical_family(rng, 4)
            rho = realize(build_symmetric_family(params))
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
