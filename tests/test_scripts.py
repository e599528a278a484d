import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import discordium

from reference import binary_h

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
ENV = dict(os.environ, PYTHONPATH=str(Path(discordium.__file__).resolve().parents[1]))


def test_make_figures_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "make_figures.py"), "--outdir", str(tmp_path), "--p-steps", "5"],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("fig1.csv", "fig2.csv", "fig3_3q.csv", "fig3_4q.csv", "fig3_even.csv"):
        assert (tmp_path / name).is_file()

    with (tmp_path / "fig3_even.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "p", "discord_bits", "branch"]
    assert all(len(row) == 4 for row in rows)
    plateau = 0.5 * binary_h(0.2)
    for n in (4, 8, 12, 16):
        series = [(float(p), float(v)) for m, p, v, _ in rows[1:] if int(m) == n]
        assert len(series) == 5
        p_star = 1.0 - (0.2 / (5 / 6)) ** (1.0 / n)
        before = [v for p, v in series if p < p_star]
        assert before
        assert all(abs(v - plateau) <= 1e-8 for v in before)
        assert all(v < plateau for p, v in series if p > p_star)
        assert f"N={n}: frozen_value=" in proc.stderr


def test_arbitration_report_smoke(tmp_path):
    out = tmp_path / "reports" / "case1.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "arbitration_report.py"),
         "--draws", "2", "--starts", "3", "--out", str(out)],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"report written to {out}" in proc.stdout
    report = json.loads(out.read_text())
    assert set(report) == {
        "draws", "seed", "parity_max_abs_err", "printed_max_abs_err",
        "printed_agreement_count", "rows",
    }
    assert report["draws"] == 2 and len(report["rows"]) == 2
    assert set(report["rows"][0]) == {
        "c1", "c2", "c3", "s", "oracle", "parity", "printed",
        "parity_abs_err", "printed_abs_err", "printed_agrees",
    }
    assert report["parity_max_abs_err"] <= 5e-3
