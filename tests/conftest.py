import importlib.util
from pathlib import Path

import numpy as np
import pytest

from discordium import FamilyParams
from discordium.spectral import physicality

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
        if physicality(params)[2]:
            return params
    raise RuntimeError("rejection sampling failed")


def sample_case1_second(rng, n, max_tries=10000) -> FamilyParams:
    """Rejection-sample a physical state that meets case 1's second condition
    alone: c3 < 0, c3^2 < c^2 and s^2/(1-(N-2)|s|) >= (c3^2-c^2)/c3, with
    c = max(|c1|, |c2|). c^2 - c3^2 is drawn below the condition's bound."""
    for _ in range(max_tries):
        s = float(rng.uniform(-1.0, 1.0)) / n
        c3 = float(rng.uniform(-0.6, -0.02))
        bound = abs(c3) * s * s / (1.0 - (n - 2) * abs(s))
        c = (c3 * c3 + float(rng.uniform(0.0, bound))) ** 0.5
        if not abs(c3) < c <= 1.0:
            continue
        other = float(rng.uniform(-c, c))
        c1, c2 = (c, other) if rng.random() < 0.5 else (other, c)
        signs = np.where(rng.random(2) < 0.5, -1.0, 1.0)
        params = FamilyParams(n, c1 * float(signs[0]), c2 * float(signs[1]), c3, s)
        if physicality(params)[2]:
            return params
    raise RuntimeError("rejection sampling failed")
