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
    GhzParams,
    MeasurementTree,
    OracleConfig,
    discord_diagonal_field,
    evolved_params,
    minimize_discord,
    minimize_family,
    realize,
)
from discordium.cli import main

# (id, argv or callable, message)
CASES = [
    ("cli-symmetric-without-n", ["discord", "--family", "symmetric"],
     "--n is required for the symmetric family"),
    ("cli-diagonal-without-fields", ["discord", "--family", "diagonal"],
     "--fields is required for the diagonal family"),
    ("cli-ghz-without-mu", ["discord", "--family", "ghz", "--n", "3"],
     "--n and --mu are required for the ghz family"),
    ("cli-ghz-curve-n-range", ["ghz-curve", "--n-min", "3", "--n-max", "2"],
     "need 2 <= n-min <= n-max"),
    ("cli-ghz-curve-one-mu-step", ["ghz-curve", "--mu-steps", "1"],
     "need at least 2 mu steps"),
    ("cli-dynamics-ghz", ["dynamics", "--family", "ghz", "--n", "3", "--mu", "0.5"],
     "dynamics sweeps apply to the symmetric family"),
    ("cli-gamma-without-t-max", ["dynamics", "--family", "symmetric", "--n", "3", "--gamma", "0.5"],
     "--gamma requires --t-max"),
    ("channel-negative-rate", lambda: ChannelParams.from_rate_time(-1, 1),
     "gamma and t must be nonnegative"),
    ("family-fractional-qubits", lambda: FamilyParams(3.5, 0.1, 0.1, 0.1),
     "n_qubits must be a whole number, got 3.5"),
    ("ghz-fractional-qubits", lambda: GhzParams(2.5, 0.5),
     "n_qubits must be a whole number, got 2.5"),
    ("density-matrix-no-qubits", lambda: DensityMatrix(0, [[1]]),
     "n_qubits must be >= 1, got 0"),
    ("diagonal-no-fields", lambda: DiagonalFieldParams(()),
     "need at least one field strength"),
    ("tree-no-measured-qubit", lambda: MeasurementTree(0, np.zeros((0, 3))),
     "n_measured must be >= 1, got 0"),
    ("tree-fractional-measured", lambda: MeasurementTree(1.5, np.array([[0.0, 0.0, 1.0]])),
     "n_measured must be a whole number, got 1.5"),
    ("oracle-config-fractional-starts", lambda: OracleConfig(starts=2.5),
     "starts must be a whole number, got 2.5"),
    ("oracle-config-fractional-seed", lambda: OracleConfig(seed=1.5),
     "seed must be a whole number, got 1.5"),
    ("oracle-config-boolean-starts", lambda: OracleConfig(starts=True),
     "starts must be a whole number, got True"),
    ("oracle-config-string-starts", lambda: OracleConfig(starts="3"),
     "starts must be a number, got '3'"),
    ("oracle-one-qubit", lambda: minimize_discord(DensityMatrix(1, np.eye(2) / 2)),
     "discord needs at least 2 qubits"),
    ("diagonal-discord-one-qubit", lambda: discord_diagonal_field(DiagonalFieldParams((0.1,))),
     "discord needs at least 2 qubits"),
    ("evolved-params-p-above-one", lambda: evolved_params(FamilyParams(4, 0.5, 0.1, -0.2, 0), 1.5),
     "p=1.5 outside [0, 1]"),
    ("evolved-params-p-far-above-one", lambda: evolved_params(FamilyParams(4, 0.5, 0.1, -0.2, 0), 3),
     "p=3 outside [0, 1]"),
    # 2^N times the minimum eigenvalue, -1e-7, is below -1e-10 on both oracle routes
    ("oracle-unphysical-dense", lambda: minimize_discord(realize(FamilyParams(4, 0.5000001, 0, 0.5, 0))),
     "unphysical state: min eigenvalue -6.250e-09"),
    ("oracle-unphysical-family", lambda: minimize_family(FamilyParams(4, 0.5000001, 0, 0.5, 0)),
     "unphysical parameters: min eigenvalue -6.250e-09"),
]


@pytest.mark.parametrize("target, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_input_error(target, message, capsys):
    if callable(target):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            target()
    else:
        assert main(target) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
