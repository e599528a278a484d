import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import discordium
from discordium import (
    DiagonalFieldParams,
    FamilyParams,
    GhzParams,
    build_symmetric_family,
    discord_ghz,
    discord_symmetric,
    family_dense,
    minimize_family,
    realize,
)
from discordium.cli import main

FIG3_ARGS = [
    "--family", "symmetric", "--n", "4",
    "--c1", "0.8333333333", "--c2", "-0.1666666667", "--c3", "-0.2", "--s", "0",
]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refuse_dense(monkeypatch):
    """Make each dense builder raise in every module that binds it."""

    def refuse(*args, **kwargs):
        raise AssertionError("dense builder called")

    modules = [discordium] + [getattr(discordium, m) for m in
                              ("analytic", "cli", "decoherence", "oracle", "pauli", "spectral")]
    for module in modules:
        for name in ("realize", "build_noisy_ghz_dense", "family_dense"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


class TestDiscordCommand:
    def test_analytic_case1(self, capsys):
        code, out, _ = run(
            ["discord", "--family", "symmetric", "--n", "3",
             "--c1", "0.1", "--c2", "0.1", "--c3", "-0.2", "--s", "0.3",
             "--method", "analytic"],
            capsys,
        )
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        expected = discord_symmetric(FamilyParams(3, 0.1, 0.1, -0.2, 0.3))
        assert float(fields["value_bits"]) == pytest.approx(expected.value, abs=1e-9)
        assert fields["branch"] == "case1[parity]"

    def test_json_format(self, capsys):
        code, out, _ = run(
            ["discord", "--family", "ghz", "--n", "3", "--mu", "0.5", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value_bits"] == pytest.approx(
            discord_ghz(GhzParams(3, 0.5)).value, abs=1e-12
        )
        assert payload["branch"] == "ghz"

    def test_no_analytic_case_exit_3(self, capsys):
        code, _, err = run(
            ["discord", "--family", "symmetric", "--n", "3",
             "--c1", "0.4", "--c2", "0.3", "--c3", "0.2", "--s", "0.1"],
            capsys,
        )
        assert code == 3
        assert err.startswith("error:")
        assert "--method oracle" in err

    def test_fallback_oracle(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"starts": 6, "seed": 3}')
        code, out, _ = run(
            ["discord", "--family", "symmetric", "--n", "3",
             "--c1", "0.4", "--c2", "0.3", "--c3", "0.2", "--s", "0.1",
             "--fallback", "oracle", "--config", str(cfg)],
            capsys,
        )
        assert code == 0
        assert "branch=oracle[fallback]" in out

    def test_config_not_an_object_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1]")
        code, out, err = run(
            ["discord", "--family", "ghz", "--n", "2", "--mu", "0.5",
             "--method", "oracle", "--config", str(cfg)],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == f"error: {cfg}: oracle config must be a JSON object, got list\n"

    def test_config_infinity_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"starts": Infinity}')
        code, out, err = run(
            ["discord", "--family", "ghz", "--n", "2", "--mu", "0.5",
             "--method", "oracle", "--config", str(cfg)],
            capsys,
        )
        assert (code, out, err) == (2, "", f"error: {cfg}: starts must be a number, got inf\n")

    def test_unphysical_exit_2(self, capsys):
        code, _, err = run(
            ["discord", "--family", "symmetric", "--n", "2",
             "--c1", "1", "--c2", "1", "--c3", "1"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:")
        assert "\n" not in err.strip()

    def test_closed_form_past_dense_cap(self, capsys, monkeypatch):
        # the closed form and its physicality gate need no dense matrix
        monkeypatch.setenv("DISCORDIUM_DENSE_CAP", "2")
        argv = ["discord", "--family", "symmetric", "--c1", "0.1", "--c2", "0.1", "--c3", "-0.3",
                "--s", "0.01", "--format", "json"]
        for n in ("3", "12", "40"):
            code, out, _ = run(argv + ["--n", n], capsys)
            assert code == 0
            payload = json.loads(out)
            assert payload["branch"] == "case1[parity]"
            expected = discord_symmetric(FamilyParams(int(n), 0.1, 0.1, -0.3, 0.01)).value
            assert payload["value_bits"] == expected

    def test_unphysical_large_n_exit_2(self, capsys):
        code, _, err = run(
            ["discord", "--family", "symmetric", "--n", "12",
             "--c1", "0.1", "--c2", "0.1", "--c3", "-0.3", "--s", "0.2"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: unphysical parameters")
        assert "\n" not in err.strip()

    def test_oracle_past_reach_builds_nothing(self, capsys, monkeypatch):
        refuse_dense(monkeypatch)
        code, out, err = run(
            ["discord", "--family", "ghz", "--n", "12", "--mu", "0.5", "--method", "oracle"], capsys
        )
        assert (code, out, err) == (2, "", "error: n_qubits=12 exceeds oracle cap 4\n")

    @pytest.mark.parametrize(
        "family_args",
        [
            ["--family", "symmetric", "--n", "1100", "--c3", "-0.1", "--s", "0.0001"],
            ["--family", "ghz", "--n", "1100", "--mu", "0.5"],
        ],
        ids=["symmetric", "ghz"],
    )
    def test_past_float_range_exit_2(self, capsys, family_args):
        # 2^N overflows a float above 1023 qubits
        code, out, err = run(["discord"] + family_args, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: n_qubits=1100")
        assert "\n" not in err.strip()

    def test_ghz_below_float_limit_finite(self, capsys):
        code, out, _ = run(["discord", "--family", "ghz", "--n", "1020", "--mu", "0.5"], capsys)
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert np.isfinite(float(fields["value_bits"]))

    def test_bad_range_exit_2(self, capsys):
        code, _, err = run(
            ["discord", "--family", "ghz", "--n", "2", "--mu", "1.5"], capsys
        )
        assert code == 2
        assert err.startswith("error:")

    def test_diagonal_family(self, capsys):
        code, out, _ = run(
            ["discord", "--family", "diagonal", "--fields", "0.3,0.5"], capsys
        )
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert abs(float(fields["value_bits"])) <= 1e-10

    def test_diagonal_family_in_linear_time(self, capsys):
        # 2^30 branches would not fit in memory
        code, out, _ = run(["discord", "--family", "diagonal", "--fields", ",".join(["0.01"] * 30)], capsys)
        assert (code, out) == (0, "value_bits=0 branch=diagonal-field\n")

    def test_reduced_method(self, capsys):
        code, out, _ = run(
            ["discord", "--family", "symmetric", "--n", "3",
             "--c1", "0.1", "--c2", "0.1", "--c3", "-0.2", "--s", "0.3",
             "--method", "reduced", "--seed", "4"],
            capsys,
        )
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        expected = discord_symmetric(FamilyParams(3, 0.1, 0.1, -0.2, 0.3)).value
        assert float(fields["value_bits"]) == pytest.approx(expected, abs=1e-6)


class TestSpectrumCommand:
    def test_json_schema(self, capsys):
        code, out, _ = run(
            ["spectrum", "--family", "ghz", "--n", "2", "--mu", "0.5"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"eigenvalues", "entropy_bits"}
        assert np.allclose(sorted(payload["eigenvalues"]), [0.125, 0.125, 0.125, 0.625])
        assert payload["entropy_bits"] == pytest.approx(1.5487949406953985, abs=1e-12)

    def test_symmetric_matches_dense(self, capsys):
        params = FamilyParams(5, 0.2, -0.1, -0.3, 0.05)
        code, out, _ = run(
            ["spectrum", "--family", "symmetric", "--n", "5",
             "--c1", "0.2", "--c2", "-0.1", "--c3", "-0.3", "--s", "0.05"],
            capsys,
        )
        assert code == 0
        got = np.array(json.loads(out)["eigenvalues"])
        dense = np.linalg.eigvalsh(realize(build_symmetric_family(params)).entries)[::-1]
        assert np.all(np.diff(got) <= 0)
        assert np.max(np.abs(got - dense)) <= 1e-12

    def test_past_dense_cap_exit_2(self, capsys, monkeypatch):
        monkeypatch.delenv("DISCORDIUM_DENSE_CAP", raising=False)
        code, out, err = run(
            ["spectrum", "--family", "symmetric", "--n", "20", "--c3", "0.1"], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "dense cap 8" in err
        assert err.count("\n") == 1

    def test_raised_cap_lists_every_eigenvalue(self, capsys, monkeypatch):
        monkeypatch.setenv("DISCORDIUM_DENSE_CAP", "10")
        code, out, _ = run(
            ["spectrum", "--family", "symmetric", "--n", "10", "--c3", "0.1", "--s", "0.02"],
            capsys,
        )
        assert code == 0
        assert len(json.loads(out)["eigenvalues"]) == 1024


class TestGhzCurveCommand:
    def test_row_count_and_endpoints(self, capsys, tmp_path):
        out_path = tmp_path / "fig1.csv"
        code, _, _ = run(
            ["ghz-curve", "--n-min", "2", "--n-max", "6", "--mu-steps", "101",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "n,mu,discord_bits"
        assert len(lines) == 1 + 5 * 101
        first = lines[1].split(",")
        assert first[0] == "2" and float(first[1]) == 0.0 and float(first[2]) == 0.0
        last = lines[-1].split(",")
        assert last[0] == "6" and float(last[1]) == 1.0
        assert float(last[2]) == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["ghz-curve", "--n-min", "2", "--n-max", "3", "--mu-steps", "11",
             "--out", str(a)], capsys)
        run(["ghz-curve", "--n-min", "2", "--n-max", "3", "--mu-steps", "11",
             "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_oracle_check_column(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"starts": 6, "seed": 1}')
        out_path = tmp_path / "c.csv"
        code, _, _ = run(
            ["ghz-curve", "--n-min", "2", "--n-max", "2", "--mu-steps", "3",
             "--oracle-check", "--config", str(cfg), "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "n,mu,discord_bits,oracle_bits"
        for line in lines[1:]:
            _, _, closed, oracle = line.split(",")
            assert float(oracle) == pytest.approx(float(closed), abs=5e-3)

    def test_oracle_check_follows_oracle_reach(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"starts": 4}')
        out_path = tmp_path / "c.csv"
        code, _, _ = run(
            ["ghz-curve", "--n-min", "4", "--n-max", "5", "--mu-steps", "2",
             "--oracle-check", "--config", str(cfg), "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in out_path.read_text().strip().split("\n")[1:]]
        assert [r[0] for r in rows] == ["4", "4", "5", "5"]
        for n, mu, _, oracle in rows:
            if n == "4":
                closed = discord_ghz(GhzParams(4, float(mu))).value
                assert float(oracle) == pytest.approx(closed, abs=1e-9)
            else:
                assert oracle == ""


class TestDynamicsCommand:
    def test_fig3_csv_and_freeze_stderr(self, capsys, tmp_path):
        out_path = tmp_path / "fig3.csv"
        code, _, err = run(
            ["dynamics"] + FIG3_ARGS + ["--p-steps", "91", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        assert "p_star=0.300072898" in err
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "p,discord_bits,branch"
        assert len(lines) == 92
        vals = [float(line.split(",")[1]) for line in lines[1:]]
        plateau = [v for p, v in zip(np.linspace(0, 0.9, 91), vals) if p <= 0.29]
        assert all(abs(v - 0.029049405545331364) <= 1e-6 for v in plateau)

    def test_gamma_time_grid(self, capsys, tmp_path):
        out_path = tmp_path / "g.csv"
        code, _, _ = run(
            ["dynamics"] + FIG3_ARGS
            + ["--gamma", "0.5", "--t-max", "2.0", "--p-steps", "5", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")[1:]
        times = np.linspace(0.0, 2.0, 5)
        for line, t in zip(lines, times):
            p = float(line.split(",")[0])
            assert p == pytest.approx(1.0 - np.exp(-0.5 * t), abs=1e-9)

    def test_negative_rate_exit_2(self, capsys):
        code, out, err = run(["dynamics"] + FIG3_ARGS + ["--gamma", "-1", "--t-max", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run(["dynamics"] + FIG3_ARGS + ["--p-steps", "2"], capsys)
        assert code == 0
        assert out.startswith("p,discord_bits,branch\n")


class TestValidateCommand:
    def test_physical(self, capsys):
        code, out, _ = run(
            ["validate", "--family", "ghz", "--n", "3", "--mu", "1"], capsys
        )
        assert code == 0
        assert json.loads(out)["is_physical"] is True

    def test_unphysical_exit_2(self, capsys):
        code, out, _ = run(
            ["validate", "--family", "symmetric", "--n", "2",
             "--c1", "1", "--c2", "1", "--c3", "1"],
            capsys,
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["is_physical"] is False
        assert payload["min_eigenvalue"] == pytest.approx(-0.5, abs=1e-10)

    @pytest.mark.parametrize(
        "family_args",
        [
            ["--family", "symmetric", "--n", "9", "--c3", "0.1"],
            ["--family", "ghz", "--n", "16", "--mu", "0.5"],
            ["--family", "diagonal", "--fields", ",".join(["0.05"] * 12)],
        ],
        ids=["symmetric", "ghz", "diagonal"],
    )
    def test_past_dense_cap(self, capsys, family_args):
        code, out, err = run(["validate", *family_args], capsys)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["is_physical"] is True
        assert payload["trace_deviation"] <= 1e-12

    def test_builds_no_dense_matrix(self, capsys, monkeypatch):
        refuse_dense(monkeypatch)
        for family_args in (
            ["--family", "symmetric", "--n", "5", "--c1", "0.3", "--c2", "0.2", "--c3", "0.25",
             "--s", "0.1"],
            ["--family", "diagonal", "--fields", "0.2,-0.1,0.3"],
            ["--family", "ghz", "--n", "3", "--mu", "1"],
        ):
            code, out, _ = run(["validate", *family_args], capsys)
            assert code == 0
            assert json.loads(out)["is_physical"] is True
        pinned = next(case for case in PINNED if case[0][0] == "validate")
        assert run(pinned[0], capsys) == pinned[1:]

    @pytest.mark.parametrize("command", ["validate", "discord"])
    def test_unphysical_past_float_precision(self, capsys, command):
        # the block value 1 - 0.9*sqrt(3) is -6.5e-11 once divided by 2^33
        code, out, err = run([command, "--family", "symmetric", "--n", "33",
                              "--c1", "0.9", "--c2", "0.9", "--c3", "0.9"], capsys)
        assert code == 2
        if command == "validate":
            payload = json.loads(out)
            assert payload["is_physical"] is False
            assert payload["min_eigenvalue"] == pytest.approx((1 - 0.9 * np.sqrt(3)) / 2**33, rel=1e-12)
        else:
            assert err.startswith("error: unphysical parameters") and err.count("\n") == 1

    @pytest.mark.parametrize("n_fields", [2, 40])
    def test_diagonal_lists_no_spectrum(self, capsys, monkeypatch, n_fields):
        def refuse(*args, **kwargs):
            raise AssertionError("2^N diagonal spectrum listed")

        for name in ("diagonal_field_spectrum", "signed_field_sums"):
            monkeypatch.setattr(discordium.spectral, name, refuse)
        physical = ",".join([repr(0.9 / n_fields)] * n_fields)
        code, out, _ = run(["validate", "--family", "diagonal", "--fields", physical], capsys)
        assert code == 0
        assert json.loads(out)["min_eigenvalue"] == pytest.approx(0.1 / 2**n_fields, rel=1e-12)
        # a total field strength 2e-10 past 1 is unphysical at every N
        over = ",".join(["0.5", repr(0.5 + 2e-10)] + ["0"] * (n_fields - 2))
        code, out, _ = run(["validate", "--family", "diagonal", "--fields", over], capsys)
        assert code == 2
        assert json.loads(out)["is_physical"] is False

    @pytest.mark.parametrize(
        "params, family_args",
        [
            (FamilyParams(3, 0.9, 0.9, 0.9),
             ["--family", "symmetric", "--n", "3", "--c1", "0.9", "--c2", "0.9", "--c3", "0.9"]),
            (FamilyParams(4, 0.3, -0.2, 0.1, 0.2),
             ["--family", "symmetric", "--n", "4", "--c1", "0.3", "--c2", "-0.2", "--c3", "0.1",
              "--s", "0.2"]),
            (DiagonalFieldParams((0.7, -0.5, 0.4)), ["--family", "diagonal", "--fields", "0.7,-0.5,0.4"]),
            (GhzParams(4, 0.3), ["--family", "ghz", "--n", "4", "--mu", "0.3"]),
        ],
        ids=["symmetric-unphysical", "symmetric", "diagonal-unphysical", "ghz"],
    )
    def test_matches_dense_spectrum(self, params, family_args, capsys):
        code, out, _ = run(["validate", *family_args], capsys)
        payload = json.loads(out)
        min_eig = np.linalg.eigvalsh(family_dense(params).entries).min()
        assert payload["min_eigenvalue"] == pytest.approx(min_eig, abs=1e-12)
        assert payload["trace_deviation"] <= 1e-12
        assert payload["is_physical"] is bool(min_eig >= -1e-10)
        assert code == (0 if payload["is_physical"] else 2)


class TestCompareCommand:
    def test_within_tolerance(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"starts": 6, "seed": 9}')
        code, out, _ = run(
            ["compare", "--family", "ghz", "--n", "2", "--mu", "0.5",
             "--config", str(cfg)],
            capsys,
        )
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert float(fields["diff"]) <= 5e-3

    def test_exceeding_tolerance_nonzero_exit(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"starts": 6, "seed": 9}')
        code, _, _ = run(
            ["compare", "--family", "ghz", "--n", "2", "--mu", "0.5",
             "--config", str(cfg), "--tol", "-1"],
            capsys,
        )
        assert code == 1


class TestArgumentParsing:
    def test_negative_exponent_value(self, capsys):
        head, tail = ["discord", "--family", "symmetric", "--n", "3"], ["--c3", "-0.3", "--s", "0.01"]
        spaced = run([*head, "--c1", "-5e-05", *tail], capsys)
        attached = run([*head, "--c1=-5e-05", *tail], capsys)
        assert spaced == attached
        assert spaced[0] == 0 and spaced[1].startswith("value_bits=")

    def test_usage_error_returns_2(self, capsys):
        code, out, err = run(["discord", "--bogus"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("argv", [
        [],
        ["nope"],
        ["discord", "--family", "ghz", "--n", "2", "--mu", "0.5", "--bogus"],
        ["discord", "--family", "ghz", "--n", "two", "--mu", "0.5"],
    ])
    def test_usage_errors_are_one_line(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("argv", [["--help"], ["discord", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        assert out.startswith("usage: discordium")

    @pytest.mark.parametrize("payload, message", [
        ({"max_iters": -5}, "max_iters must be >= 1, got -5"),
        ({"max_iters": 0}, "max_iters must be >= 1, got 0"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ])
    def test_config_out_of_range_exit_2(self, payload, message, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        code, out, err = run(
            ["discord", "--family", "symmetric", "--n", "3", "--c1", "0.4", "--c2", "0.3",
             "--c3", "0.2", "--s", "0.1", "--fallback", "oracle", "--config", str(cfg)],
            capsys,
        )
        assert (code, out, err) == (2, "", f"error: {cfg}: {message}\n")

    def test_negative_seed_flag_exit_2(self, capsys):
        code, out, err = run(
            ["discord", "--family", "ghz", "--n", "2", "--mu", "0.5", "--method", "oracle", "--seed", "-1"],
            capsys,
        )
        assert (code, out, err) == (2, "", "error: seed must be >= 0, got -1\n")

    def test_seed_does_not_leak(self, capsys, monkeypatch):
        seeds = []

        def spy(params, cfg=None):
            seeds.append(cfg.seed)
            return minimize_family(params, cfg)

        monkeypatch.setattr(discordium.cli, "minimize_family", spy)
        argv = ["discord", "--family", "ghz", "--n", "2", "--mu", "0.5", "--method", "oracle",
                "--format", "json"]
        default = run(argv, capsys)
        seeded = run([*argv, "--seed", "7"], capsys)
        assert run(argv, capsys) == default
        assert seeded[0] == 0
        assert seeds == [0, 7, 0]


ANALYTIC_COMMANDS = [
    ["discord", "--family", "symmetric", "--n", "3", "--c1", "0.1", "--c2", "0.1", "--c3", "-0.2",
     "--s", "0.3"],
    ["discord", "--family", "ghz", "--n", "5", "--mu", "0.4"],
    ["discord", "--family", "diagonal", "--fields", "0.2,-0.1,0.3"],
    ["dynamics", *FIG3_ARGS, "--p-steps", "5"],
    ["ghz-curve", "--n-min", "2", "--n-max", "3", "--mu-steps", "3"],
    ["validate", "--family", "ghz", "--n", "3", "--mu", "0.5"],
    ["spectrum", "--family", "ghz", "--n", "3", "--mu", "0.5"],
]
ORACLE_COMMANDS = [
    ["discord", "--family", "ghz", "--n", "2", "--mu", "0.5", "--method", "oracle"],
    ["compare", "--family", "symmetric", "--n", "3", "--c1", "0.2", "--c2", "0.1", "--c3", "-0.3",
     "--s", "0.05", "--seed", "1"],
    ["ghz-curve", "--n-min", "2", "--n-max", "3", "--mu-steps", "3", "--oracle-check"],
]
REDUCED_COMMANDS = [
    ["discord", "--family", "symmetric", "--n", "5", "--c1", "0.3", "--c2", "0.2", "--c3", "0.25",
     "--s", "0.1", "--method", "reduced", "--seed", "3"],
    ["dynamics", "--family", "symmetric", "--n", "5", "--c1", "0.3", "--c2", "0.2", "--c3", "0.25",
     "--s", "0.1", "--method", "oracle", "--p-steps", "2", "--p-max", "0.5"],
]
COLD_START = """
import contextlib, io, json, sys
from discordium.cli import main

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, out.getvalue(), err.getvalue(), "scipy" in sys.modules]

print(json.dumps([run(argv) for argv in json.loads(sys.argv[1])]))
"""


def cold_start(commands):
    """Run the commands one after another in a fresh interpreter; each one's
    (code, out, err), and whether scipy was loaded once it had run."""
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps(commands)],
        env=dict(os.environ, PYTHONPATH=str(Path(discordium.__file__).resolve().parents[1])),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_scipy_never_loads(capsys):
    commands = ANALYTIC_COMMANDS + ORACLE_COMMANDS
    results = cold_start(commands)
    assert [r[:3] for r in results] == [list(run(argv, capsys)) for argv in commands]
    assert all(code == 0 for code, _, _, _ in results)
    assert not any(scipy_loaded for _, _, _, scipy_loaded in results)
    assert results[len(ANALYTIC_COMMANDS)][:3] == [0, "value_bits=0.262483184 branch=oracle\n", ""]


def test_reduced_oracle_loads_no_scipy(capsys):
    results = cold_start(REDUCED_COMMANDS)
    assert [r[:3] for r in results] == [list(run(argv, capsys)) for argv in REDUCED_COMMANDS]
    assert all(code == 0 for code, _, _, _ in results)
    assert not any(scipy_loaded for _, _, _, scipy_loaded in results)


# Output of the README commands and of seeded oracle runs, byte for byte. "{out}"
# becomes a file in tmp_path whose text is appended to stdout, and "{cfg}" an
# oracle config of 4 starts; text of 400 characters or more is pinned by digest.
PINNED = [
    (["discord", "--family", "symmetric", "--n", "3", "--c1", "0.1", "--c2", "0.1",
      "--c3", "-0.2", "--s", "0.3", "--method", "analytic"],
     0, "value_bits=0.0164342785 branch=case1[parity]\n", ""),
    (["discord", "--family", "symmetric", "--n", "3", "--c1", "0.4", "--c2", "0.3",
      "--c3", "0.2", "--s", "0.1", "--fallback", "oracle"],
     0, "value_bits=0.106463752 branch=oracle[fallback]\n", ""),
    (["spectrum", "--family", "ghz", "--n", "3", "--mu", "0.5"],
     0, '{"eigenvalues": [0.5625, 0.0625, 0.0625, 0.0625, 0.0625, 0.0625, 0.0625, 0.0625], '
        '"entropy_bits": 2.216917186688699}\n', ""),
    (["ghz-curve", "--n-min", "2", "--n-max", "6", "--mu-steps", "101", "--out", "{out}"],
     0, "sha256:818cc0faa0890898fa7b10a82648055a20d057150355c23eac7d29eb37f4b12a", ""),
    (["dynamics", *FIG3_ARGS, "--p-steps", "91", "--out", "{out}"],
     0, "sha256:627cef1b8d81bd2a6b023af13cf2f6ab3bc28bb8875550b07e0ca6337d167820",
     "freeze: frozen_value=0.0290494055 p_star=0.300072898\n"),
    (["validate", "--family", "symmetric", "--n", "2", "--c1", "1", "--c2", "1", "--c3", "1"],
     2, '{"hermitian": true, "trace_deviation": 0.0, "min_eigenvalue": -0.5, "is_physical": false}\n', ""),
    (["compare", "--family", "ghz", "--n", "2", "--mu", "0.5", "--tol", "5e-3"],
     0, "analytic=0.262483184 oracle=0.262483184 diff=0 tol=0.005\n", ""),
    (["discord", "--family", "symmetric", "--n", "6", "--c1", "0.1", "--c2", "-0.05",
      "--c3", "0.2", "--s", "0.1", "--method", "oracle", "--seed", "7"],
     0, "value_bits=0.00805239874 branch=oracle\n", ""),
    (["discord", "--family", "symmetric", "--n", "5", "--c1", "0.3", "--c2", "0.2",
      "--c3", "0.25", "--s", "0.1", "--method", "reduced", "--seed", "3", "--format", "json"],
     0, '{"value_bits": 0.08397605242656099, "branch": "reduced"}\n', ""),
    (["dynamics", "--family", "symmetric", "--n", "3", "--c1", "0.3", "--c2", "0.2",
      "--c3", "-0.1", "--s", "0.1", "--method", "oracle", "--p-steps", "3", "--seed", "2",
      "--config", "{cfg}"],
     0, "p,discord_bits,branch\n0,0.0385250005,oracle\n0.45,0.00263285954,oracle\n"
        "0.9,9.50564074e-08,oracle\n", ""),
    (["dynamics", "--family", "symmetric", "--n", "5", "--c1", "0.3", "--c2", "0.2",
      "--c3", "0.25", "--s", "0.1", "--method", "oracle", "--p-steps", "2", "--p-max", "0.5",
      "--config", "{cfg}"],
     0, "p,discord_bits,branch\n0,0.0839760524,oracle[reduced]\n"
        "0.5,9.58305491e-05,oracle[reduced]\n", ""),
    (["compare", "--family", "symmetric", "--n", "5", "--c1", "0.2", "--c2", "0.1",
      "--c3", "-0.3", "--s", "0.05", "--seed", "1"],
     0, "analytic=0.0377792352 oracle=0.0377792352 diff=2.63677968e-16 tol=0.005\n", ""),
    (["discord", "--family", "symmetric", "--n", "3", "--c1", "0.4", "--c2", "0.3",
      "--c3", "0.2", "--s", "0.1"],
     3, "", "error: no closed form for c=(0.4,0.3,0.2) s=0.1; "
            "rerun with --method oracle or --fallback oracle\n"),
    (["discord", "--family", "symmetric", "--n", "2", "--c1", "1", "--c2", "1", "--c3", "1"],
     2, "", "error: unphysical parameters: min eigenvalue -5.000e-01\n"),
    (["discord", "--family", "diagonal", "--fields", "0.2,-0.1,0.3", "--method", "oracle"],
     0, "value_bits=0 branch=oracle\n", ""),
]


@pytest.mark.parametrize(
    "argv, code, out, err", PINNED, ids=[f"{i:02d}-{case[0][0]}" for i, case in enumerate(PINNED)]
)
def test_pinned_output(argv, code, out, err, capsys, tmp_path):
    out_path, cfg_path = tmp_path / "out.txt", tmp_path / "cfg.json"
    cfg_path.write_text('{"starts": 4}')
    argv = [a.replace("{out}", str(out_path)).replace("{cfg}", str(cfg_path)) for a in argv]
    got_code, got_out, got_err = run(argv, capsys)
    if out_path.exists():
        got_out += out_path.read_text()
    if len(got_out) >= 400:
        got_out = "sha256:" + hashlib.sha256(got_out.encode()).hexdigest()
    assert (got_code, got_out, got_err) == (code, out, err)
