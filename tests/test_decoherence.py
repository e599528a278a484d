import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discordium import (
    ChannelParams,
    FamilyParams,
    GhzParams,
    NoAnalyticCase,
    OracleConfig,
    detect_freeze_transition,
    discord_symmetric,
    dynamics_sweep,
    evolved_params,
    minimize_reduced,
    realize,
)
from discordium.analytic import S_ZERO_TOL
from discordium.spectral import PHYSICAL_TOL

from conftest import sample_physical_family
from reference import (
    apply_phase_flip,
    apply_phase_flip_dense,
    binary_h,
    kron_sum,
    phase_flip_kraus,
    symmetric_family_words,
)

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
        rho = realize(params)
        out = apply_phase_flip_dense(rho.entries, 0.0)
        assert np.max(np.abs(out - rho.entries)) <= 1e-14

    def test_p_one_kills_xxx(self):
        ps = symmetric_family_words(FamilyParams(3, 0.4, 0.0, 0.0, 0.0))
        out = apply_phase_flip(ps, 1.0)
        assert out["XXX"] == 0.0

    def test_range_violation(self):
        with pytest.raises(ValueError):
            phase_flip_kraus(3, 1.5)
        ps = symmetric_family_words(FamilyParams(3, 0.1, 0.1, 0.1, 0.0))
        with pytest.raises(ValueError):
            apply_phase_flip(ps, -0.2)


class TestWeightRule:
    def test_family_weights_3q(self):
        ps = symmetric_family_words(FamilyParams(3, 0.4, -0.3, 0.2, 0.1))
        out = apply_phase_flip(ps, 0.3)
        q = 0.7**3
        assert out["XXX"] == pytest.approx(0.4 * q, abs=1e-15)
        assert out["YYY"] == pytest.approx(-0.3 * q, abs=1e-15)
        assert out["ZZZ"] == 0.2
        assert out["ZII"] == 0.1

    def test_family_weights_4q(self):
        ps = symmetric_family_words(FamilyParams(4, 0.4, -0.3, 0.2, 0.1))
        out = apply_phase_flip(ps, 0.25)
        q = 0.75**4
        assert out["XXXX"] == pytest.approx(0.4 * q, abs=1e-15)
        assert out["YYYY"] == pytest.approx(-0.3 * q, abs=1e-15)

    def test_dense_kraus_equals_weight_rule(self, rng):
        # channel equivalence across sizes and probabilities
        for n in (2, 3, 4):
            params = sample_physical_family(rng, n)
            ps = symmetric_family_words(params)
            for p in (0.0, 0.3, 0.7, 1.0):
                dense = apply_phase_flip_dense(realize(params).entries, p)
                ruled = kron_sum(apply_phase_flip(ps, p))
                assert np.max(np.abs(dense - ruled)) <= 1e-12

    @given(p=st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_damping_exponent_counts_xy_letters(self, p):
        ps = symmetric_family_words(FamilyParams(4, 0.4, -0.3, 0.2, 0.1))
        out = apply_phase_flip(ps, p)
        for word, w in ps.items():
            n_xy = sum(ch in "XY" for ch in word)
            assert out[word] == pytest.approx(w * (1 - p) ** n_xy, abs=1e-15)

    def test_channel_preserves_physicality(self, rng):
        params = sample_physical_family(rng, 3)
        rho = realize(params)
        for p in (0.2, 0.8):
            assert np.linalg.eigvalsh(apply_phase_flip_dense(rho.entries, p)).min() >= -PHYSICAL_TOL


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
        with pytest.raises(ValueError, match="unknown method"):
            dynamics_sweep(FIG3_4Q, [], method="bogus")
        with pytest.raises(ValueError, match="symmetric family"):
            dynamics_sweep(GhzParams(3, 0.5), [0.1])

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

    def test_oracle_fills_analytic_none_rows(self):
        params = FamilyParams(3, 0.5, 0.1, -0.3, 0.05)
        grid = np.linspace(0.0, 0.6, 7)
        analytic = dynamics_sweep(params, grid)
        assert [row.branch for row in analytic.rows] == ["none"] * 2 + ["case1[parity]"] * 5
        cfg = OracleConfig(starts=4)
        oracle = dynamics_sweep(params, grid, method="oracle", cfg=cfg)
        for ra, ro in zip(analytic.rows, oracle.rows):
            assert np.isfinite(ro.value) and ro.value >= -1e-12
            if ra.branch != "none":
                assert ro.value == pytest.approx(ra.value, abs=1e-9)
            reduced = minimize_reduced(evolved_params(params, ro.p), cfg)
            assert ro.value == pytest.approx(reduced.value, abs=1e-9)

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


def _assert_rows_are_one_state_results(params, grid):
    """Each analytic row equals discord_symmetric of the evolved state, bit for bit."""
    series = dynamics_sweep(params, grid)
    assert [row.p for row in series.rows] == grid
    for row in series.rows:
        try:
            res = discord_symmetric(evolved_params(params, row.p))
        except NoAnalyticCase:
            assert row.branch == "none" and math.isnan(row.value)
            continue
        assert (row.value, row.branch) == (res.value, res.branch)
    return [row.branch for row in series.rows]


S_NEAR_ZERO = [
    0.0,
    S_ZERO_TOL,
    -S_ZERO_TOL,
    math.nextafter(S_ZERO_TOL, 1.0),
    -math.nextafter(S_ZERO_TOL, 1.0),
    math.nextafter(S_ZERO_TOL, 0.0),
]
coefficient = st.floats(-1.0, 1.0, allow_nan=False)


class TestOneDispatch:
    @given(
        n=st.integers(2, 14),
        c=st.tuples(coefficient, coefficient, coefficient),
        s=st.one_of(st.sampled_from(S_NEAR_ZERO), st.floats(-0.3, 0.3, allow_nan=False)),
        inner=st.lists(st.floats(0.0, 1.0, allow_nan=False), max_size=12),
    )
    @example(n=3, c=(0.5, 0.1, -0.3), s=0.05, inner=[0.05, 0.1, 0.2])
    @example(n=4, c=(0.8, -0.16, -0.2), s=0.0, inner=[0.2, 0.3, 0.5])
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_one_state_results(self, n, c, s, inner):
        grid = sorted({0.0, 1.0, *inner})
        _assert_rows_are_one_state_results(FamilyParams(n, *c, s), grid)

    @pytest.mark.parametrize(
        "params, crossing",
        [
            (FamilyParams(3, 0.5, 0.1, -0.3, 0.05), ["none", "case1[parity]"]),
            (FamilyParams(5, 0.4, 0.3, -0.3, 0.02), ["none", "case1[parity]"]),
            (FIG3_4Q, ["case2[s=0,C=c1]", "case2[s=0,C=c3]"]),
            (FamilyParams(7, 0.1, -0.6, 0.3, 0.0), ["case2[s=0,C=c2]", "case2[s=0,C=c3]"]),
        ],
    )
    def test_rows_across_a_branch_change(self, params, crossing):
        branches = _assert_rows_are_one_state_results(params, np.linspace(0.0, 1.0, 91).tolist())
        assert list(dict.fromkeys(branches)) == crossing


class TestFreezeContinuity:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_value_is_continuous_at_p_star(self, n):
        # a kink, not a jump: the difference across p* shrinks as fast as h does
        sign = -1.0 if (n // 2) % 2 else 1.0
        params = FamilyParams(n, 0.8, sign * 0.8 * -0.2, -0.2, 0.0)
        p_star = detect_freeze_transition(params).p_star
        diffs = []
        for h in (1e-4, 1e-6):
            below, above = dynamics_sweep(params, [p_star - h, p_star + h]).rows
            assert (below.branch, above.branch) == ("case2[s=0,C=c1]", "case2[s=0,C=c3]")
            diffs.append(above.value - below.value)
        assert 50.0 <= diffs[0] / diffs[1] <= 200.0


class TestFreezeDetection:
    def test_fig3_transition(self):
        report = detect_freeze_transition(FIG3_4Q)
        assert report.frozen
        assert report.frozen_value == pytest.approx(0.5 * binary_h(0.2), abs=1e-12)
        assert report.p_star == pytest.approx(P_STAR, abs=1e-9)
        assert report.p_star == pytest.approx(0.30007289768388334, abs=1e-9)

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

    @pytest.mark.parametrize("s", S_NEAR_ZERO + [1e-13, -1e-13])
    def test_frozen_report_means_a_plateau_row(self, s):
        # the freeze test and the closed forms read s as 0 by one tolerance, so a
        # frozen report's p = 0 row is a case-2 row on the plateau
        params = FamilyParams(4, 0.8, 0.8 * -0.2, -0.2, s)
        report = detect_freeze_transition(params)
        [row] = dynamics_sweep(params, [0.0]).rows
        assert report.frozen == (abs(s) <= S_ZERO_TOL)
        if report.frozen:
            assert row.branch.startswith("case2[") and abs(row.value - report.frozen_value) <= 1e-12

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
        # the first grid point whose value leaves the plateau by more than 1e-6
        grid = [round(p, 4) for p in np.arange(0.0, 0.9 + 1e-9, 0.01)]
        series = dynamics_sweep(FIG3_4Q, grid)
        frozen = 0.5 * binary_h(0.2)
        leaves = next(r.p for r in series.rows if not np.isfinite(r.value) or abs(r.value - frozen) > 1e-6)
        assert leaves == pytest.approx(P_STAR, abs=0.01)
        assert detect_freeze_transition(FIG3_4Q).p_star == pytest.approx(leaves, abs=0.01)
