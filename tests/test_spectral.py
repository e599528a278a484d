import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discordium import (
    DensityMatrix,
    DiagonalFieldParams,
    FamilyParams,
    GhzParams,
    closed_form_spectrum_3q,
    closed_form_spectrum_4q,
    diagonal_field_spectrum,
    discord_ghz,
    ghz_spectrum,
    hermitian_eigenvalues,
    realize,
    symmetric_spectrum,
    von_neumann_entropy,
    xlog2,
)

from discordium.spectral import sum_xlog2, xlog2_scalar

from conftest import sample_physical_family
from reference import binary_h, spectrum_3q_display, spectrum_4q_display, spectrum_4q_printed


class TestBinaryH:
    def test_zero(self):
        assert binary_h(0.0, 0.0) == 0.0

    def test_edge_one(self):
        # 0*log 0 convention kills the second term
        assert binary_h(1.0, 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_frozen_value(self):
        assert binary_h(0.2) == pytest.approx(0.05809881109066273, abs=1e-13)

    def test_domain_violation(self):
        with pytest.raises(ValueError):
            binary_h(1.5, 0.0)
        with pytest.raises(ValueError):
            binary_h(0.0, -1.5)

    @given(
        y=st.floats(-0.5, 1.0, allow_nan=False),
        t=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_even_in_x(self, y, t):
        x = t * (1.0 + y)
        assert binary_h(x, y) == pytest.approx(binary_h(-x, y), abs=1e-12)

    def test_nondecreasing_in_x(self):
        for y in (0.0, 0.3, -0.4, 1.0):
            xs = np.linspace(0.0, 1.0 + y, 200)
            vals = [binary_h(float(x), y) for x in xs]
            assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))


class TestNumericSpectrum:
    def test_maximally_mixed(self):
        spec = hermitian_eigenvalues(DensityMatrix(3, np.eye(8) / 8))
        assert np.allclose(spec.eigenvalues, 0.125)
        assert spec.source == "numeric"

    def test_ghz_example(self):
        spec = hermitian_eigenvalues(realize(GhzParams(2, 0.5)))
        assert np.allclose(spec.eigenvalues, [0.625, 0.125, 0.125, 0.125], atol=1e-12)

    def test_descending_order(self, rng):
        params = sample_physical_family(rng, 3)
        ev = hermitian_eigenvalues(realize(params)).eigenvalues
        assert np.all(np.diff(ev) <= 0)


class TestEntropy:
    def test_maximally_mixed_is_n(self):
        for n in range(1, 7):
            rho = DensityMatrix(n, np.eye(2**n) / 2**n)
            assert von_neumann_entropy(rho) == pytest.approx(n, abs=1e-12)

    def test_pure_ghz_zero(self):
        assert von_neumann_entropy(realize(GhzParams(3, 1.0))) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_ghz_half_mix(self):
        expected = -(3 * 0.125 * np.log2(0.125) + 0.625 * np.log2(0.625))
        got = von_neumann_entropy(realize(GhzParams(2, 0.5)))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(1.5487949406953985, abs=1e-12)

    def test_rejects_unphysical(self):
        rho = realize(FamilyParams(2, 1.0, 1.0, 1.0, 0.0))
        with pytest.raises(ValueError):
            von_neumann_entropy(rho)


class TestXlog2:
    @staticmethod
    def masked(values):
        """The boolean-mask form: zeros, with v log2 v written where v > 0."""
        arr = np.asarray(values, dtype=float)
        out = np.zeros_like(arr)
        mask = arr > 0.0
        out[mask] = arr[mask] * np.log2(arr[mask])
        return out

    def test_bitwise_equal_to_masked_form(self, rng):
        edge = np.array([0.0, -0.0, -1.0, -5e-324, 5e-324, 1.0, 0.5, 3.0, 1e300, -1e300])
        for arr in (edge, rng.uniform(-1.0, 2.0, (101, 16)), edge.reshape(2, 5)):
            got = xlog2(arr)
            assert got.shape == arr.shape
            assert np.array_equal(got.view(np.int64), self.masked(arr).view(np.int64))

    def test_zero_d_returns_float(self):
        for v in (0.5, -0.0, -2.0, np.float64(0.25), np.array(3.0)):
            got = xlog2(v)
            assert type(got) is float
            assert np.array_equal(np.float64(got).view(np.int64), self.masked(v).view(np.int64))

    def test_nan_propagates(self):
        assert np.isnan(xlog2(np.array([np.nan, 0.5]))[0])

    def test_sum_adds_left_to_right(self):
        # ten terms of -6.3e-18, each under half an ulp of 0.5: adding left to
        # right drops every one, while a compensated sum, as the builtin sum()
        # does from Python 3.12 on, keeps them and ends one ulp lower
        values = (0.5,) + (1e-19,) * 10
        assert sum_xlog2(values, (1,) * 11) == -0.5
        assert math.fsum(xlog2_scalar(v) for v in values) < -0.5


class TestClosedForm3q:
    def test_example_values(self):
        spec = closed_form_spectrum_3q(FamilyParams(3, 0.2, 0.2, 0.2, 0.1))
        r2 = np.sqrt(0.33)
        expected = sorted(
            [0.1625] * 3 + [0.0875] * 3 + [(1 + r2) / 8, (1 - r2) / 8], reverse=True
        )
        assert np.allclose(spec.eigenvalues, expected, atol=1e-12)
        assert spec.eigenvalues.sum() == pytest.approx(1.0, abs=1e-12)
        assert spec.source == "closed_form_3q"

    def test_all_zero(self):
        spec = closed_form_spectrum_3q(FamilyParams(3, 0.0, 0.0, 0.0, 0.0))
        assert np.allclose(spec.eigenvalues, 0.125)

    def test_single_coefficient(self):
        spec = closed_form_spectrum_3q(FamilyParams(3, 0.3, 0.0, 0.0, 0.0))
        assert np.allclose(np.sort(spec.eigenvalues), [0.0875] * 4 + [0.1625] * 4)

    def test_matches_dense_eigensolver(self, rng):
        for _ in range(50):
            params = sample_physical_family(rng, 3)
            cf = np.sort(closed_form_spectrum_3q(params).eigenvalues)
            nv = np.sort(
                hermitian_eigenvalues(realize(params)).eigenvalues
            )
            assert np.max(np.abs(cf - nv)) <= 1e-10

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            closed_form_spectrum_3q(FamilyParams(4, 0.1, 0.1, 0.1, 0.0))


class TestClosedForm4q:
    def test_matches_dense_eigensolver(self, rng):
        for _ in range(50):
            params = sample_physical_family(rng, 4)
            cf = np.sort(closed_form_spectrum_4q(params).eigenvalues)
            nv = np.sort(
                hermitian_eigenvalues(realize(params)).eigenvalues
            )
            assert np.max(np.abs(cf - nv)) <= 1e-10

    def test_all_zero(self):
        spec = closed_form_spectrum_4q(FamilyParams(4, 0.0, 0.0, 0.0, 0.0))
        assert np.allclose(spec.eigenvalues, 1 / 16)

    def test_spot_example(self, rng):
        params = FamilyParams(4, 0.2, 0.1, -0.2, 0.05)
        cf = np.sort(closed_form_spectrum_4q(params).eigenvalues)
        nv = np.sort(hermitian_eigenvalues(realize(params)).eigenvalues)
        assert np.max(np.abs(cf - nv)) <= 1e-10

    def test_printed_variant_trace_deficit(self, rng):
        # the superseded lambda_j makes the printed spectrum sum to 1 - 6 c3/16
        for _ in range(10):
            params = sample_physical_family(rng, 4)
            if abs(params.c3) <= 1e-3:
                continue
            printed = spectrum_4q_printed(params)
            assert printed.sum() == pytest.approx(1.0 - 6 * params.c3 / 16, abs=1e-12)
            # symbolic form of the deficit: 6/16 + 8(1-c3)/16 + 2(1+c3)/16
            symbolic = (6 + 8 * (1 - params.c3) + 2 * (1 + params.c3)) / 16
            assert symbolic == pytest.approx(1.0 - 6 * params.c3 / 16, abs=1e-15)

    def test_printed_variant_fails_numeric_match(self, rng):
        # must disagree with the true spectrum whenever |c3| is not tiny
        found = 0
        for _ in range(20):
            params = sample_physical_family(rng, 4)
            if abs(params.c3) <= 1e-3:
                continue
            printed = np.sort(spectrum_4q_printed(params))
            nv = np.sort(
                hermitian_eigenvalues(realize(params)).eigenvalues
            )
            assert np.max(np.abs(printed - nv)) > 1e-10
            found += 1
        assert found >= 10


class TestPaperDisplays:
    # the paper's displayed spectra, written out independently, as a second reference
    @pytest.mark.parametrize("n, display", [(3, spectrum_3q_display), (4, spectrum_4q_display)], ids=["3q", "4q"])
    def test_symmetric_spectrum_matches_display(self, rng, n, display):
        for _ in range(50):
            params = sample_physical_family(rng, n)
            expanded = np.sort(symmetric_spectrum(params).eigenvalues)
            assert np.max(np.abs(expanded - np.sort(display(params)))) <= 1e-15


def _dense_sorted(params):
    return np.linalg.eigvalsh(realize(params).entries)


class TestBlockSpectrum:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_dense_random(self, rng, n):
        for _ in range(20):
            c1, c2, c3, s = (float(v) for v in rng.uniform(-1.0, 1.0, 4))
            params = FamilyParams(n, c1, c2, c3, s)
            expanded = np.sort(symmetric_spectrum(params).eigenvalues)
            assert np.max(np.abs(expanded - _dense_sorted(params))) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize(
        "coeffs",
        [
            (0.0, 0.0, 0.0, 0.0),
            (0.1, -0.2, -0.3, 1e-12),
            (0.1, -0.2, -0.3, -1e-12),
            (0.3, 0.3, -0.3, 0.0),
            (0.0, 0.0, -0.5, 0.05),
        ],
    )
    def test_matches_dense_edge_cases(self, n, coeffs):
        params = FamilyParams(n, *coeffs)
        expanded = np.sort(symmetric_spectrum(params).eigenvalues)
        assert np.max(np.abs(expanded - _dense_sorted(params))) <= 1e-12

    def test_block_count_and_trace(self):
        for n in range(2, 40):
            spec = symmetric_spectrum(FamilyParams(n, 0.1, 0.2, -0.3, 0.01))
            assert len(spec.values) == 2 * (n // 2 + 1)
            assert sum(spec.multiplicities) == 2**n
            total = sum(m * v for v, m in zip(spec.values, spec.multiplicities))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_sums_match_expanded(self, rng):
        for n in (2, 5, 8, 11):
            params = sample_physical_family(rng, n)
            spec = symmetric_spectrum(params)
            ev = spec.eigenvalues
            assert len(ev) == 2**n
            assert np.all(np.diff(ev) <= 0)
            assert spec.min_eigenvalue == ev[-1]
            assert spec.sum_xlog2() == pytest.approx(float(np.sum(xlog2(ev))), abs=1e-12)
            assert spec.entropy_bits() == -spec.sum_xlog2()

    def test_fixed_size_views(self, rng):
        for n, view in ((3, closed_form_spectrum_3q), (4, closed_form_spectrum_4q)):
            params = sample_physical_family(rng, n)
            spec = view(params)
            assert spec.values == symmetric_spectrum(params).values
            assert spec.multiplicities == symmetric_spectrum(params).multiplicities


class TestFamilySpectra:
    def test_ghz_two_values(self):
        for n in (2, 10, 40):
            spec = ghz_spectrum(GhzParams(n, 0.3))
            assert spec.multiplicities == (1, 2**n - 1)
            assert spec.values == ((1 + (2**n - 1) * 0.3) / 2**n, 0.7 / 2**n)
            assert spec.min_eigenvalue == 0.7 / 2**n

    def test_float_range_limit(self):
        # the closed forms use 2^N as a float, which overflows above 1023 qubits
        symmetric_spectrum(FamilyParams(1023, 0.0, 0.0, -0.1, 1e-4))
        ghz_spectrum(GhzParams(1023, 0.5))
        for fn, params in (
            (symmetric_spectrum, FamilyParams(1024, 0.0, 0.0, -0.1, 1e-4)),
            (ghz_spectrum, GhzParams(1024, 0.5)),
            (discord_ghz, GhzParams(1100, 0.5)),
        ):
            with pytest.raises(ValueError, match="overflows a float"):
                fn(params)

    def test_ghz_spectrum_matches_dense(self):
        for n in (2, 3, 4):
            for mu in (0.0, 0.3, 1.0):
                params = GhzParams(n, mu)
                cf = np.sort(ghz_spectrum(params).eigenvalues)
                nv = np.sort(hermitian_eigenvalues(realize(params)).eigenvalues)
                assert np.max(np.abs(cf - nv)) <= 1e-12

    def test_diagonal_spectrum_matches_dense(self):
        params = DiagonalFieldParams((0.3, -0.2, 0.4))
        cf = np.sort(diagonal_field_spectrum(params).eigenvalues)
        nv = np.sort(hermitian_eigenvalues(realize(params)).eigenvalues)
        assert np.max(np.abs(cf - nv)) <= 1e-12
