import importlib.util
from pathlib import Path

import numpy as np
import pytest

from discordium import FamilyParams, symmetric_spectrum

RNG_SEED = 20240817
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


arbitration = _load_script("arbitration_report")
sample_case1_family = arbitration.sample_case1


@pytest.fixture
def rng():
    return np.random.default_rng(RNG_SEED)


def sample_physical_family(rng, n, s_zero=False, max_tries=10000) -> FamilyParams:
    """Rejection-sample symmetric-family parameters with a physical spectrum."""
    for _ in range(max_tries):
        c1, c2, c3 = rng.uniform(-1.0, 1.0, 3)
        s = 0.0 if s_zero else float(rng.uniform(-1.0, 1.0))
        params = FamilyParams(n, float(c1), float(c2), float(c3), s)
        if symmetric_spectrum(params).min_eigenvalue >= -1e-10:
            return params
    raise RuntimeError("rejection sampling failed")
