"""Every input error the package names, in one table: a command line exits 2
with one `error:` line, a library call raises ValueError with the message."""

import re

import numpy as np
import pytest

from discordium import (
    ChannelParams,
    DensityMatrix,
    DiagonalFieldParams,
    FamilyParams,
    MeasurementTree,
    PauliSum,
    closed_form_spectrum_4q,
    discord_diagonal_field,
    minimize_discord,
)
from discordium.cli import main
from discordium.pauli import DENSE_CAP_ENV, dense_cap

# (id, environment, argv or callable, message)
CASES = [
    ("cli-symmetric-without-n", {}, ["discord", "--family", "symmetric"],
     "--n is required for the symmetric family"),
    ("cli-diagonal-without-fields", {}, ["discord", "--family", "diagonal"],
     "--fields is required for the diagonal family"),
    ("cli-ghz-without-mu", {}, ["discord", "--family", "ghz", "--n", "3"],
     "--n and --mu are required for the ghz family"),
    ("cli-ghz-curve-n-range", {}, ["ghz-curve", "--n-min", "3", "--n-max", "2"],
     "need 2 <= n-min <= n-max"),
    ("cli-ghz-curve-one-mu-step", {}, ["ghz-curve", "--mu-steps", "1"],
     "need at least 2 mu steps"),
    ("cli-dynamics-ghz", {}, ["dynamics", "--family", "ghz", "--n", "3", "--mu", "0.5"],
     "dynamics sweeps apply to the symmetric family"),
    ("cli-gamma-without-t-max", {}, ["dynamics", "--family", "symmetric", "--n", "3", "--gamma", "0.5"],
     "--gamma requires --t-max"),
    ("channel-negative-rate", {}, lambda: ChannelParams.from_rate_time(-1, 1),
     "gamma and t must be nonnegative"),
    ("dense-cap-zero", {DENSE_CAP_ENV: "0"}, dense_cap,
     f"{DENSE_CAP_ENV} must be >= 1, got 0"),
    ("pauli-sum-no-qubits", {}, lambda: PauliSum(0, {"": 1.0}),
     "n_qubits must be >= 1"),
    ("diagonal-no-fields", {}, lambda: DiagonalFieldParams(()),
     "need at least one field strength"),
    ("tree-no-measured-qubit", {}, lambda: MeasurementTree(0, np.zeros((0, 3))),
     "need at least one measured qubit"),
    ("oracle-one-qubit", {}, lambda: minimize_discord(DensityMatrix(1, np.eye(2) / 2)),
     "discord needs at least 2 qubits"),
    ("diagonal-discord-one-qubit", {}, lambda: discord_diagonal_field(DiagonalFieldParams((0.1,))),
     "discord needs at least 2 qubits"),
    ("spectrum-4q-at-three", {}, lambda: closed_form_spectrum_4q(FamilyParams(3, 0.1, 0.1, 0.1)),
     "closed_form_spectrum_4q needs n_qubits == 4"),
]


@pytest.mark.parametrize("env, target, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_input_error(env, target, message, capsys, monkeypatch):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if callable(target):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            target()
    else:
        assert main(target) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
