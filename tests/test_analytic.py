import math
from fractions import Fraction

import numpy as np
import pytest

import discordium
from discordium import (
    DiagonalFieldParams,
    FamilyParams,
    GhzParams,
    NoAnalyticCase,
    classify_region,
    discord_diagonal_field,
    discord_ghz,
    discord_symmetric,
    dynamics_sweep,
    max_w,
    realize,
    xlog2,
)

from discordium.analytic import _region
from discordium.spectral import symmetric_spectrum

from conftest import arbitration, sample_case1_family, sample_case1_second, sample_physical_family
from reference import binary_h, diagonal_cancellation, max_w_mod4


class TestClassifyRegion:
    def test_case1_dominant_c3(self):
        region = classify_region(FamilyParams(3, 0.1, 0.1, -0.2, 0.3))
        assert region.region == "case1"
        assert region.c == pytest.approx(0.1)
        assert region.C == pytest.approx(0.2)

    def test_case2_s_zero(self):
        region = classify_region(FamilyParams(4, 0.3, 0.2, 0.1, 0.0))
        assert region.region == "case2_s0"

    def test_none(self):
        region = classify_region(FamilyParams(3, 0.6, 0.6, 0.5, 0.2))
        assert region.region == "none"

    def test_s_zero_takes_precedence_over_case1(self):
        region = classify_region(FamilyParams(3, 0.1, 0.1, -0.3, 0.0))
        assert region.region == "case2_s0"

    def test_field_inequality_branch(self):
        # c3 < 0, c3^2 < c^2, but s large enough to satisfy the field branch
        params = FamilyParams(3, 0.09, -0.15, -0.11, 0.3)
        lhs = 0.3**2 / (1 - abs(0.3))
        rhs = (0.11**2 - 0.15**2) / (-0.11)
        assert lhs >= rhs
        assert classify_region(params).region == "case1"

    def test_field_inequality_needs_the_all_z_tree_lowest(self):
        # the second condition holds, but the all-x tree attains 0.233320655 < D_z = 0.246480784
        params = FamilyParams(3, 0.5, 0.0, -0.45, 0.3)
        assert 0.3**2 / (1 - 0.3) >= (0.45**2 - 0.5**2) / (-0.45)
        region = classify_region(params)
        assert (region.region, region.condition_detail) == ("none", "s^2/(1-(N-2)|s|) >= (c3^2-c^2)/c3 but D_T < D_z")
        with pytest.raises(NoAnalyticCase):
            discord_symmetric(params)
        assert math.isnan(dynamics_sweep(params, [0.0]).rows[0].value)
        d_t = symmetric_spectrum(params).sum_xlog2() + 3 - (2 * binary_h(0.3) + binary_h(math.hypot(0.3, 0.5))) / 2
        assert round(d_t, 9) == 0.233320655
        assert round(symmetric_spectrum(params).sum_xlog2() + 3 - max_w(params), 9) == 0.246480784

    @pytest.mark.parametrize("params", [FamilyParams(3, 0.1, 0.1, -0.2, 0.3), FamilyParams(4, 0.3, 0.2, 0.1)])
    def test_only_the_second_condition_reads_max_w(self, params):
        def refuse():
            raise AssertionError("max W computed")

        region, w = _region(params.n_qubits, params.c1, params.c2, params.c3, params.s, refuse)
        assert w is None
        assert region == tuple(getattr(classify_region(params), f) for f in ("region", "c", "C", "condition_detail"))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_every_caller_gives_the_same_region(self, rng, n):
        # classify_region, discord_symmetric and an analytic sweep, on the second condition
        for _ in range(20):
            params = sample_case1_second(rng, n)
            region = classify_region(params).region
            row = dynamics_sweep(params, [0.0]).rows[0]
            assert row.branch == ("none" if region == "none" else "case1[parity]")
            if region == "none":
                with pytest.raises(NoAnalyticCase):
                    discord_symmetric(params)
            else:
                assert discord_symmetric(params).value == row.value


class TestMaxW:
    def test_n4_equals_explicit_bracket(self, rng):
        for _ in range(20):
            s = float(rng.uniform(-0.1, 0.1))
            c3 = float(rng.uniform(-1.0, 1.0)) * (1.0 - 4 * abs(s)) * 0.95
            params = FamilyParams(4, 0.1, 0.1, c3, s)
            bracket = (
                binary_h(abs(s + c3), 3 * s)
                + binary_h(abs(s - c3), -3 * s)
                + 3 * binary_h(abs(s - c3), s)
                + 3 * binary_h(abs(s + c3), -s)
            ) / 16
            assert max_w(params) == pytest.approx(bracket, abs=1e-12)

    def test_s_zero_reduces_to_half_h(self, rng):
        for n in (2, 3, 4, 5, 7):
            c3 = float(rng.uniform(-1, 1))
            params = FamilyParams(n, 0.1, 0.1, c3, 0.0)
            expected = 0.5 * binary_h(abs(c3))
            assert max_w(params) == pytest.approx(expected, abs=1e-12)
            if n == 3:
                assert arbitration.max_w_printed(params) == pytest.approx(expected, abs=1e-12)

    def test_n3_patterns_differ_for_s_nonzero(self):
        params = FamilyParams(3, 0.1, 0.1, -0.3, 0.1)
        parity = (
            binary_h(0.2, 0.2) + 2 * binary_h(0.4) + binary_h(0.2, -0.2)
        ) / 8
        printed = (
            binary_h(0.2, 0.2) + binary_h(0.4, -0.2) + binary_h(0.2) + binary_h(0.4)
        ) / 8
        assert max_w(params) == pytest.approx(parity, abs=1e-14)
        assert arbitration.max_w_printed(params) == pytest.approx(printed, abs=1e-14)
        assert abs(parity - printed) > 1e-4

    def test_printed_restricted_to_3q(self):
        with pytest.raises(ValueError):
            arbitration.max_w_printed(FamilyParams(4, 0.1, 0.1, -0.2, 0.1))

    def test_mod4_dispatch_equals_parity(self, rng):
        for n in range(4, 12):
            for _ in range(20):
                s = float(rng.uniform(-1.0, 1.0)) / (n + 1)
                c3 = float(rng.uniform(-1.0, 1.0)) * (1 - n * abs(s))
                params = FamilyParams(n, 0.05, 0.05, c3, s)
                assert max_w_mod4(params) == pytest.approx(
                    max_w(params), abs=1e-12
                )

    def test_mod4_needs_n4(self):
        with pytest.raises(ValueError):
            max_w_mod4(FamilyParams(3, 0.1, 0.1, -0.2, 0.1))


class TestDiscordSymmetric:
    def test_case2_single_coefficient_vanishes(self):
        res = discord_symmetric(FamilyParams(3, 0.5, 0.0, 0.0, 0.0))
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.branch.startswith("case2")

    def test_case2_3q_example(self):
        res = discord_symmetric(FamilyParams(3, 0.3, 0.2, 0.1, 0.0))
        expected = 0.5 * (binary_h(np.sqrt(0.14)) - binary_h(0.3))
        assert res.value == pytest.approx(expected, abs=1e-12)
        assert res.value == pytest.approx(0.03755591930823013, abs=1e-12)

    def test_case2_4q_frozen_point(self):
        res = discord_symmetric(FamilyParams(4, 5 / 6, -1 / 6, -0.2, 0.0))
        assert res.value == pytest.approx(0.5 * binary_h(0.2), abs=1e-12)
        assert res.value == pytest.approx(0.029049405545331364, abs=1e-12)

    def test_case2_display_matches_general_form(self, rng):
        # the 3- and 4-qubit case-2 displays equal slog + N - H(C)/2
        for n in (3, 4):
            for _ in range(10):
                params = sample_physical_family(rng, n, s_zero=True)
                res = discord_symmetric(params)
                spectrum = res.spectrum_used
                C = max(abs(params.c1), abs(params.c2), abs(params.c3))
                general = (
                    float(np.sum(xlog2(np.clip(spectrum.eigenvalues, 0, None))))
                    + n
                    - 0.5 * binary_h(C)
                )
                assert res.value == pytest.approx(general, abs=1e-11)

    def test_case1_sets_max_w(self):
        res = discord_symmetric(FamilyParams(3, 0.1, 0.1, -0.2, 0.3))
        assert res.branch == "case1[parity]"
        assert res.max_w is not None
        assert res.value >= -1e-8

    def test_case1_5q_uses_block_spectrum(self):
        params = FamilyParams(5, 0.05, 0.05, -0.2, 0.1)
        res = discord_symmetric(params)
        assert res.spectrum_used.source == "closed_form_blocks"
        dense = np.linalg.eigvalsh(realize(params).entries)
        expected = float(np.sum(xlog2(np.clip(dense, 0, None)))) + 5 - max_w(params)
        assert res.value == pytest.approx(expected, abs=1e-12)
        assert res.value >= -1e-8

    def test_region_none_raises(self):
        with pytest.raises(NoAnalyticCase):
            discord_symmetric(FamilyParams(3, 0.6, 0.6, 0.5, 0.2))

    def test_case2_4q_bracket_sanity(self, rng):
        # explicit 4-term bracket against the corrected spectrum assembly
        params = sample_physical_family(rng, 4, s_zero=True)
        c1, c2, c3 = params.c1, params.c2, params.c3
        bracket = (
            xlog2(1 + c1 + c2 + c3)
            + xlog2(1 + c1 - c2 - c3)
            + xlog2(1 - c1 + c2 - c3)
            + xlog2(1 - c1 - c2 + c3)
        ) / 4
        spectrum = symmetric_spectrum(params)
        slog = float(np.sum(xlog2(np.clip(spectrum.eigenvalues, 0, None))))
        assert bracket == pytest.approx(slog + 4, abs=1e-11)


def _xl(v):
    return v * math.log2(v) if v > 0 else 0.0


def _weighted_block_sum(n, c1, c2, c3, s):
    """sum lambda log2 lambda: each 2x2 block on |b>, |b flipped> diagonalised
    by numpy and weighted by C(N, |b|), halved at |b| = N/2."""
    total = 0.0
    for k in range(n // 2 + 1):
        z = c1 + 1j**n * (-1) ** k * c2
        block = np.array(
            [
                [1 + (-1) ** k * c3 + (n - 2 * k) * s, np.conj(z)],
                [z, 1 + (-1) ** (n - k) * c3 - (n - 2 * k) * s],
            ]
        ) / 2**n
        weight = math.comb(n, k) / (2 if 2 * k == n else 1)
        total += weight * sum(_xl(float(lam)) for lam in np.linalg.eigvalsh(block))
    return total


class TestDiscordSymmetricLargeN:
    @pytest.mark.parametrize("n", range(9, 17))
    def test_case1_matches_weighted_block_sum(self, rng, n):
        for _ in range(3):
            p = sample_case1_family(rng, n)
            res = discord_symmetric(p)
            assert res.branch == "case1[parity]"
            expected = _weighted_block_sum(n, p.c1, p.c2, p.c3, p.s) + n - max_w_mod4(p)
            assert res.value == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("n", range(9, 17))
    def test_case2_matches_weighted_block_sum(self, rng, n):
        for _ in range(3):
            p = sample_physical_family(rng, n, s_zero=True)
            res = discord_symmetric(p)
            assert res.branch.startswith("case2")
            C = max(abs(p.c1), abs(p.c2), abs(p.c3))
            expected = _weighted_block_sum(n, p.c1, p.c2, p.c3, 0.0) + n - 0.5 * (_xl(1 + C) + _xl(1 - C))
            assert res.value == pytest.approx(expected, abs=1e-10)

    def test_n64_without_realize(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("realize called for a closed form")

        for module in (discordium, discordium.pauli, discordium.spectral, discordium.analytic):
            if hasattr(module, "realize"):
                monkeypatch.setattr(module, "realize", refuse)
        res = discord_symmetric(FamilyParams(64, 0.01, 0.01, -0.02, 0.001))
        assert res.branch == "case1[parity]"
        assert math.isfinite(res.value)
        assert res.value >= -1e-8

    @pytest.mark.parametrize("fn", [classify_region, max_w, discord_symmetric])
    def test_symmetric_past_float_limit(self, fn):
        # case 1's second condition reads max W, whose C(N-1, j) overflows a float above 1023 qubits
        with pytest.raises(ValueError, match="^n_qubits=1100: 2\\^N overflows a float above 1023 qubits$"):
            fn(FamilyParams(1100, 0.3, 0, -0.2999999, 0.0005))


class TestDiscordGhz:
    def test_mu_zero(self):
        for n in (2, 3, 5):
            assert discord_ghz(GhzParams(n, 0.0)).value == pytest.approx(0.0, abs=1e-15)

    def test_mu_one(self):
        for n in (2, 3, 4, 6):
            assert discord_ghz(GhzParams(n, 1.0)).value == pytest.approx(1.0, abs=1e-12)

    def test_frozen_value(self):
        assert discord_ghz(GhzParams(2, 0.5)).value == pytest.approx(
            0.26248318376373436, abs=1e-12
        )

    def test_monotone_grid(self):
        for n in range(2, 7):
            mus = np.arange(0.0, 1.0 + 1e-12, 0.01)
            vals = [discord_ghz(GhzParams(n, float(m))).value for m in mus]
            assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n", range(1015, 1024))
    def test_below_float_limit(self, n):
        # exact rationals a = x2 / 2^N and b = x3 / 2^(N-1) regroup the value as
        # t1 + a log2(x2 / x3) + (a - b) log2(x3), with no large cancelling terms
        for mu in (0.0, 0.005, 0.13, 0.5, 0.505, 0.9, 1.0):
            m = Fraction(mu)
            x2, x3 = 1 + (2**n - 1) * m, 1 + (2 ** (n - 1) - 1) * m
            a, b = x2 / 2**n, x3 / 2 ** (n - 1)
            t1 = float(1 - m) * math.log2(1 - m) / 2**n if m < 1 else 0.0
            expected = t1 + float(a) * math.log2(x2 / x3) + float(a - b) * math.log2(x3)
            value = discord_ghz(GhzParams(n, mu)).value
            # t2 and t3 are each about N/2 bits, so a few ulps of N
            assert value == pytest.approx(expected, abs=4 * n * 2.0**-52), (n, mu)


class TestDiscordDiagonalField:
    def test_zeros(self):
        assert discord_diagonal_field(DiagonalFieldParams((0.0, 0.0, 0.0))).value == 0.0

    def test_known_zero_points(self):
        for fields in ((0.3, 0.5), (0.2, 0.4, 0.6)):
            assert discord_diagonal_field(DiagonalFieldParams(fields)).value == pytest.approx(0.0, abs=1e-12)
            assert diagonal_cancellation(fields) == pytest.approx(0.0, abs=1e-12)

    def test_hundred_random_draws(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            fields = tuple(float(v) for v in rng.uniform(-1, 1, n))
            res = discord_diagonal_field(DiagonalFieldParams(fields))
            assert abs(res.value) <= 1e-10
            assert abs(diagonal_cancellation(fields)) <= 1e-10
