import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discordium import (
    ChannelParams,
    FamilyParams,
    OracleConfig,
    apply_phase_flip,
    apply_phase_flip_dense,
    binary_h,
    build_symmetric_family,
    detect_freeze_transition,
    discord_symmetric,
    dynamics_sweep,
    evolved_params,
    freeze_changepoint,
    phase_flip_kraus,
    realize,
)
from discordium.spectral import PHYSICAL_TOL

from conftest import sample_physical_family

FIG3_4Q = FamilyParams(4, 5 / 6, (5 / 6) * (-0.2), -0.2, 0.0)
FIG3_3Q = FamilyParams(3, 5 / 6, (5 / 6) * (-0.2), -0.2, 0.0)
P_STAR = 1.0 - 0.24**0.25


class TestChannelParams:
    def test_range(self):
        with pytest.raises(ValueError):
            ChannelParams(-0.1)
        with pytest.raises(ValueError):
            ChannelParams(1.1)

    def test_rate_time_conversion(self):
        cp = ChannelParams.from_rate_time(0.5, 2.0)
        assert cp.p == pytest.approx(1.0 - np.exp(-1.0), abs=1e-12)
        assert ChannelParams.from_rate_time(0.0, 5.0).p == 0.0


class TestKraus:
    def test_completeness(self):
        for n in (1, 2, 3, 4):
            for p in (0.0, 0.3, 1.0):
                assert phase_flip_kraus(n, p).completeness_deviation() <= 1e-12

    def test_p_zero_identity(self, rng):
        params = sample_physical_family(rng, 3)
        rho = realize(build_symmetric_family(params))
        out = apply_phase_flip_dense(rho, 0.0)
        assert np.max(np.abs(out.entries - rho.entries)) <= 1e-14

    def test_p_one_kills_xxx(self):
        ps = build_symmetric_family(FamilyParams(3, 0.4, 0.0, 0.0, 0.0))
        out = apply_phase_flip(ps, 1.0)
        assert out.weight("XXX") == 0.0

    def test_range_violation(self):
        with pytest.raises(ValueError):
            phase_flip_kraus(3, 1.5)
        ps = build_symmetric_family(FamilyParams(3, 0.1, 0.1, 0.1, 0.0))
        with pytest.raises(ValueError):
            apply_phase_flip(ps, -0.2)


class TestWeightRule:
    def test_family_weights_3q(self):
        ps = build_symmetric_family(FamilyParams(3, 0.4, -0.3, 0.2, 0.1))
        out = apply_phase_flip(ps, 0.3)
        q = 0.7**3
        assert out.weight("XXX") == pytest.approx(0.4 * q, abs=1e-15)
        assert out.weight("YYY") == pytest.approx(-0.3 * q, abs=1e-15)
        assert out.weight("ZZZ") == 0.2
        assert out.weight("ZII") == 0.1

    def test_family_weights_4q(self):
        ps = build_symmetric_family(FamilyParams(4, 0.4, -0.3, 0.2, 0.1))
        out = apply_phase_flip(ps, 0.25)
        q = 0.75**4
        assert out.weight("XXXX") == pytest.approx(0.4 * q, abs=1e-15)
        assert out.weight("YYYY") == pytest.approx(-0.3 * q, abs=1e-15)

    def test_dense_kraus_equals_weight_rule(self, rng):
        # channel equivalence across sizes and probabilities
        for n in (2, 3, 4):
            params = sample_physical_family(rng, n)
            ps = build_symmetric_family(params)
            for p in (0.0, 0.3, 0.7, 1.0):
                dense = apply_phase_flip_dense(realize(ps), p)
                ruled = realize(apply_phase_flip(ps, p))
                assert np.max(np.abs(dense.entries - ruled.entries)) <= 1e-12

    @given(p=st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_damping_exponent_counts_xy_letters(self, p):
        ps = build_symmetric_family(FamilyParams(4, 0.4, -0.3, 0.2, 0.1))
        out = apply_phase_flip(ps, p)
        for word, w in ps.terms.items():
            n_xy = sum(ch in "XY" for ch in word)
            assert out.weight(word) == pytest.approx(w * (1 - p) ** n_xy, abs=1e-15)

    def test_channel_preserves_physicality(self, rng):
        params = sample_physical_family(rng, 3)
        rho = realize(build_symmetric_family(params))
        for p in (0.2, 0.8):
            assert np.linalg.eigvalsh(apply_phase_flip_dense(rho, p).entries).min() >= -PHYSICAL_TOL


class TestEvolvedDiscord:
    def test_p_zero_matches_static(self, rng):
        params = sample_physical_family(rng, 3, s_zero=True)
        ev = discord_symmetric(evolved_params(params, 0.0))
        assert ev.value == pytest.approx(discord_symmetric(params).value, abs=1e-12)

    def test_3q_s_zero_closed_form(self):
        # (3/8)H(zeta) + (1/8)H(eta) - H(C)/2 with zeta = eta at s = 0
        params = FIG3_3Q
        p = 0.2
        ev = discord_symmetric(evolved_params(params, p))
        q6 = (1 - p) ** 6
        zeta = np.sqrt((params.c1**2 + params.c2**2) * q6 + params.c3**2)
        C = max(abs(params.c1) * (1 - p) ** 3, abs(params.c2) * (1 - p) ** 3, abs(params.c3))
        expected = (3 / 8) * binary_h(zeta) + (1 / 8) * binary_h(zeta) - 0.5 * binary_h(C)
        assert ev.value == pytest.approx(expected, abs=1e-11)

    def test_4q_frozen_value(self):
        for p in (0.0, 0.1, 0.2, 0.29):
            ev = discord_symmetric(evolved_params(FIG3_4Q, p))
            assert ev.value == pytest.approx(0.5 * binary_h(0.2), abs=1e-9)

    def test_evolved_params_scaling(self):
        ev = evolved_params(FamilyParams(4, 0.4, -0.2, 0.3, 0.1), 0.3)
        q = 0.7**4
        assert ev.c1 == pytest.approx(0.4 * q)
        assert ev.c2 == pytest.approx(-0.2 * q)
        assert ev.c3 == 0.3
        assert ev.s == 0.1


class TestDynamicsSweep:
    def test_3q_strictly_decreasing(self):
        grid = [round(p, 4) for p in np.arange(0.0, 0.9 + 1e-9, 0.01)]
        series = dynamics_sweep(FIG3_3Q, grid)
        vals = [row.value for row in series.rows]
        assert all(np.isfinite(vals))
        diffs = np.diff(vals)
        assert np.all(diffs[1:] < 0) and diffs[0] <= 0

    def test_4q_plateau_then_decay(self):
        grid = [round(p, 4) for p in np.arange(0.0, 0.9 + 1e-9, 0.01)]
        series = dynamics_sweep(FIG3_4Q, grid)
        frozen = 0.5 * binary_h(0.2)
        for row in series.rows:
            if row.p <= P_STAR - 0.01:
                assert abs(row.value - frozen) <= 1e-6
        decay = [row.value for row in series.rows if row.p >= P_STAR + 0.01]
        assert np.all(np.diff(decay) < 0)

    def test_single_point_grid(self):
        series = dynamics_sweep(FIG3_4Q, [0.0])
        assert len(series.rows) == 1
        assert series.rows[0].value == pytest.approx(
            discord_symmetric(FIG3_4Q).value, abs=1e-12
        )

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            dynamics_sweep(FIG3_4Q, [0.2, 0.1])
        with pytest.raises(ValueError):
            dynamics_sweep(FIG3_4Q, [0.0, 1.5])

    def test_region_error_marks_row(self):
        # c3 > 0 with s != 0 never has a closed form; rows marked, not fatal
        params = FamilyParams(3, 0.4, 0.3, 0.2, 0.1)
        series = dynamics_sweep(params, [0.0, 0.5])
        assert [row.branch for row in series.rows] == ["none", "none"]
        assert all(np.isnan(row.value) for row in series.rows)

    def test_oracle_method_agrees(self):
        series_a = dynamics_sweep(FIG3_3Q, [0.0, 0.3])
        series_o = dynamics_sweep(
            FIG3_3Q, [0.0, 0.3], method="oracle", cfg=OracleConfig(starts=8, seed=3)
        )
        for ra, ro in zip(series_a.rows, series_o.rows):
            assert ro.value == pytest.approx(ra.value, abs=5e-3)

    def test_oracle_method_labels_route(self):
        cfg = OracleConfig(starts=3, seed=3)
        full = dynamics_sweep(FIG3_3Q, [0.2], method="oracle", cfg=cfg)
        assert [row.branch for row in full.rows] == ["oracle"]
        params5 = FamilyParams(5, 0.1, 0.1, -0.2, 0.05)
        reduced = dynamics_sweep(params5, [0.0, 0.2], method="oracle", cfg=cfg)
        assert [row.branch for row in reduced.rows] == ["oracle[reduced]"] * 2
        assert reduced.rows[0].value == pytest.approx(discord_symmetric(params5).value, abs=5e-3)

    def test_csv_format(self):
        series = dynamics_sweep(FIG3_4Q, [0.0, 0.1])
        lines = series.to_csv().strip().split("\n")
        assert lines[0] == "p,discord_bits,branch"
        assert len(lines) == 3
        assert lines[1].startswith("0,0.0290494055,")

    def test_csv_rows_have_three_fields(self):
        grid = [round(p, 2) for p in np.arange(0.0, 0.9, 0.05)]
        for params in (FIG3_3Q, FIG3_4Q):
            series = dynamics_sweep(params, grid)
            rows = list(csv.reader(io.StringIO(series.to_csv())))
            assert rows[0] == ["p", "discord_bits", "branch"]
            assert len(rows) == len(grid) + 1
            assert all(len(row) == 3 for row in rows)
            assert [row[2] for row in rows[1:]] == [r.branch for r in series.rows]
            assert any("," in row[2] for row in rows[1:])


class TestFreezeDetection:
    def test_fig3_transition(self):
        report = detect_freeze_transition(FIG3_4Q)
        assert report.frozen
        assert report.frozen_value == pytest.approx(0.5 * binary_h(0.2), abs=1e-12)
        assert report.p_star == pytest.approx(P_STAR, abs=1e-9)
        assert report.p_star == pytest.approx(0.30007289768388334, abs=1e-9)
        assert report.method == "analytic_boundary"

    def test_equal_magnitudes_degenerate(self):
        for n in (4, 6, 8):
            sign = -1.0 if (n // 2) % 2 else 1.0
            for c1, c3 in ((0.2, 0.2), (0.7, -0.7), (-0.35, 0.35)):
                report = detect_freeze_transition(FamilyParams(n, c1, sign * c1 * c3, c3, 0.0))
                assert report.frozen
                assert report.p_star == 0.0
                assert report.frozen_value == pytest.approx(0.5 * binary_h(abs(c3)), abs=1e-15)

    def test_odd_n_not_frozen(self):
        for n in (3, 5, 7, 9):
            for sign in (1.0, -1.0):
                params = FamilyParams(n, 5 / 6, sign * (5 / 6) * (-0.2), -0.2, 0.0)
                report = detect_freeze_transition(params, coupling_tol=1e-9)
                assert not report.frozen
                assert report.p_star is None and report.frozen_value is None

    def test_c1_smaller_not_frozen(self):
        params = FamilyParams(4, 0.1, 0.1 * -0.2, -0.2, 0.0)
        assert not detect_freeze_transition(params).frozen

    def test_s_nonzero_not_frozen(self):
        params = FamilyParams(4, 5 / 6, (5 / 6) * (-0.2), -0.2, 0.1)
        assert not detect_freeze_transition(params).frozen

    def test_wrong_coupling_not_frozen(self):
        params = FamilyParams(4, 0.8, 0.3, -0.2, 0.0)
        assert not detect_freeze_transition(params).frozen

    def test_6q_freezing_with_sign_corrected_coupling(self):
        # N = 4n+2 freezes with c2 = -c1 c3; the plateau is checked on a grid
        params = FamilyParams(6, 0.7, -0.7 * (-0.3), -0.3, 0.0)
        report = detect_freeze_transition(params)
        assert report.frozen
        assert report.p_star == pytest.approx(1 - (0.3 / 0.7) ** (1 / 6), abs=1e-9)
        grid = [round(p, 4) for p in np.arange(0.0, report.p_star - 0.01, 0.01)]
        series = dynamics_sweep(params, grid)
        for row in series.rows:
            assert abs(row.value - report.frozen_value) <= 1e-6

    def test_6q_plain_coupling_does_not_freeze(self):
        params = FamilyParams(6, 0.7, 0.7 * (-0.3), -0.3, 0.0)
        assert not detect_freeze_transition(params).frozen
        series = dynamics_sweep(params, [0.0, 0.05, 0.1])
        vals = [row.value for row in series.rows]
        assert max(vals) - min(vals) > 1e-4

    def test_changepoint_matches_analytic(self):
        grid = [round(p, 4) for p in np.arange(0.0, 0.9 + 1e-9, 0.01)]
        series = dynamics_sweep(FIG3_4Q, grid)
        report = freeze_changepoint(series, 0.5 * binary_h(0.2))
        assert report.method == "series_changepoint"
        assert report.p_star == pytest.approx(P_STAR, abs=0.01)
