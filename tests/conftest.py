import numpy as np
import pytest

from discordium import FamilyParams, symmetric_spectrum


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def sample_physical_family(rng, n, s_zero=False, max_tries=10000) -> FamilyParams:
    """Rejection-sample symmetric-family parameters with a physical spectrum."""
    for _ in range(max_tries):
        c1, c2, c3 = rng.uniform(-1.0, 1.0, 3)
        s = 0.0 if s_zero else float(rng.uniform(-1.0, 1.0))
        params = FamilyParams(n, float(c1), float(c2), float(c3), s)
        if symmetric_spectrum(params).min_eigenvalue >= -1e-10:
            return params
    raise RuntimeError("rejection sampling failed")


def sample_case1_family(rng, n, max_tries=10000) -> FamilyParams:
    """Physical draw in the c3-dominant branch with s != 0."""
    for _ in range(max_tries):
        c3 = float(rng.uniform(-0.6, -0.05))
        c1 = float(rng.uniform(-abs(c3), abs(c3)))
        c2 = float(rng.uniform(-abs(c3), abs(c3)))
        s = float(rng.uniform(-0.4, 0.4))
        if abs(s) < 1e-3:
            continue
        params = FamilyParams(n, c1, c2, c3, s)
        if symmetric_spectrum(params).min_eigenvalue >= -1e-10:
            return params
    raise RuntimeError("rejection sampling failed")
