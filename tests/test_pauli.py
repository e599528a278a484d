import json

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
    PauliSum,
    build_diagonal_field,
    build_noisy_ghz_dense,
    build_noisy_ghz_pauli,
    build_symmetric_family,
    partial_trace,
    realize,
    validate_state,
)
from discordium.pauli import PAULI

from conftest import sample_physical_family


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

    def test_json_round_trip(self):
        ps = build_symmetric_family(FamilyParams(3, 0.2, -0.3, 0.1, 0.05))
        back = PauliSum.from_json(ps.to_json())
        assert back == ps
        payload = json.loads(ps.to_json())
        assert payload["n"] == 3
        assert {"word", "w"} == set(payload["terms"][0])

    @given(
        c=st.tuples(*[st.floats(-1, 1, allow_nan=False)] * 3),
        s=st.floats(-1, 1, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_json_round_trip_property(self, c, s):
        ps = build_symmetric_family(FamilyParams(3, *c, s))
        assert PauliSum.from_json(ps.to_json()) == ps


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
        assert validate_state(realize(ps)).is_physical

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
        ps = build_noisy_ghz_pauli(GhzParams(2, mu))
        assert ps.terms == {"II": 1.0, "XX": mu, "YY": -mu, "ZZ": mu}

    def test_ghz_pauli_3q(self):
        mu = 0.4
        ps = build_noisy_ghz_pauli(GhzParams(3, mu))
        expected = {"III": 1.0, "XXX": mu}
        for w in ("IZZ", "ZIZ", "ZZI"):
            expected[w] = mu
        for w in ("XYY", "YXY", "YYX"):
            expected[w] = -mu
        assert ps.terms == expected

    def test_ghz_pauli_mu_zero(self):
        assert build_noisy_ghz_pauli(GhzParams(3, 0.0)).terms == {"III": 1.0}

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
                a = realize(build_noisy_ghz_pauli(params)).entries
                b = build_noisy_ghz_dense(params).entries
                assert np.max(np.abs(a - b)) <= 1e-12

    def test_cap_error(self, monkeypatch):
        monkeypatch.delenv("DISCORDIUM_DENSE_CAP", raising=False)
        ps = PauliSum(9, {"I" * 9: 1.0})
        with pytest.raises(DenseCapExceeded):
            realize(ps)
        monkeypatch.setenv("DISCORDIUM_DENSE_CAP", "2")
        with pytest.raises(DenseCapExceeded):
            realize(PauliSum(3, {"III": 1.0}))

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("DISCORDIUM_DENSE_CAP", "2")
        with pytest.raises(DenseCapExceeded):
            realize(PauliSum(3, {"III": 1.0}))

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


class TestValidate:
    def test_maximally_mixed_physical(self):
        rho = DensityMatrix(3, np.eye(8) / 8)
        report = validate_state(rho)
        assert report.is_physical
        assert report.hermitian
        assert report.trace_deviation <= 1e-12

    def test_unphysical_family(self):
        rho = realize(build_symmetric_family(FamilyParams(2, 1.0, 1.0, 1.0, 0.0)))
        report = validate_state(rho)
        assert not report.is_physical
        assert report.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)

    def test_pure_ghz_physical(self):
        report = validate_state(build_noisy_ghz_dense(GhzParams(3, 1.0)))
        assert report.is_physical
        assert report.min_eigenvalue >= -1e-12


class TestPartialTrace:
    def test_family_single_qubit_marginal(self, rng):
        params = sample_physical_family(rng, 3)
        rho = realize(build_symmetric_family(params))
        reduced = partial_trace(rho, {1})
        expected = 0.5 * (np.eye(2) + params.s * PAULI["Z"])
        assert np.max(np.abs(reduced.entries - expected)) <= 1e-12

    def test_diagonal_family_marginal(self):
        rho = realize(build_diagonal_field(DiagonalFieldParams((0.3, 0.5, -0.2))))
        reduced = partial_trace(rho, {2})
        expected = 0.5 * (np.eye(2) + 0.5 * PAULI["Z"])
        assert np.max(np.abs(reduced.entries - expected)) <= 1e-12

    def test_ghz_marginal_maximally_mixed(self):
        rho = build_noisy_ghz_dense(GhzParams(2, 1.0))
        assert np.allclose(partial_trace(rho, {1}).entries, np.eye(2) / 2, atol=1e-12)

    def test_keep_two_of_three(self, rng):
        params = sample_physical_family(rng, 3)
        rho = realize(build_symmetric_family(params))
        red = partial_trace(rho, {1, 3})
        assert red.n_qubits == 2
        assert abs(np.trace(red.entries) - 1.0) <= 1e-12

    def test_trace_and_psd_preserved(self, rng):
        for _ in range(10):
            params = sample_physical_family(rng, 4)
            rho = realize(build_symmetric_family(params))
            red = partial_trace(rho, {2, 4})
            assert abs(np.trace(red.entries) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(red.entries)[0] >= -1e-10

    def test_invalid_keep(self):
        rho = DensityMatrix(2, np.eye(4) / 4)
        with pytest.raises(ValueError):
            partial_trace(rho, set())
        with pytest.raises(ValueError):
            partial_trace(rho, {0})
        with pytest.raises(ValueError):
            partial_trace(rho, {3})


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        arr = np.eye(4, dtype=complex) / 4
        arr[0, 1] = 0.1
        with pytest.raises(ValueError):
            DensityMatrix(2, arr)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(2, np.eye(4, dtype=complex))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            DensityMatrix(2, np.eye(3, dtype=complex) / 3)
