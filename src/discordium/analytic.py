"""Closed-form multipartite discord with explicit case-region dispatch.

For the symmetric family the minimum over sequential conditional measurements
is known in two parameter regions:

* case 1 (roughly: c3 dominant and nonpositive, or a field-strength
  inequality involving s where the all-z tree is not above the
  all-transverse one): the minimizing chain measures every qubit along
  z, and the discord is sum_i lambda_i log2 lambda_i + N - max W with the
  parity-pattern closed form

      max W = (1/2^N) sum_{j=0}^{N-1} C(N-1, j) H_{(N-1-2j)s}(|s + (-1)^j c3|).

  An alternative three-qubit pairing of the same H terms ("printed") differs
  numerically for s != 0; it lives in scripts/arbitration_report.py, which
  arbitrates both against the measurement oracle.

* case 2 (s = 0): discord = sum_i lambda_i log2 lambda_i + N - H(C)/2 with
  C = max{|c1|, |c2|, |c3|}.

Everything is evaluated in bits. `symmetric_row` holds the dispatch once, on
floats: the region test, the block-spectrum sum and the case assembly.
`discord_symmetric`, `classify_region` and `symmetric_spectrum` wrap it or
its parts and attach the provenance records.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, log2, nan, sqrt

from .pauli import DiagonalFieldParams, FamilyParams, GhzParams
from .spectral import (
    SOURCE_BLOCKS,
    SpectrumResult,
    _float_dim,
    ghz_spectrum,
    h_scalar,
    sum_xlog2,
    symmetric_blocks,
    xlog2_scalar,
)

REGION_CASE1 = "case1"
REGION_CASE2_S0 = "case2_s0"
REGION_NONE = "none"

S_ZERO_TOL = 1e-14


class NoAnalyticCase(ValueError):
    """No closed form applies to these parameters; use the oracle instead."""


@dataclass(frozen=True, slots=True)
class CaseRegion:
    region: str
    c: float
    C: float
    condition_detail: str


@dataclass(frozen=True, slots=True)
class DiscordResult:
    """Discord value in bits plus provenance of the branch that produced it."""

    value: float
    branch: str
    region: CaseRegion | None = None
    max_w: float | None = None
    spectrum_used: SpectrumResult | None = None


def classify_region(params: FamilyParams) -> CaseRegion:
    """Decide which closed form applies; s = 0 takes precedence over case 1."""
    n, c1, c2, c3, s = params.n_qubits, params.c1, params.c2, params.c3, params.s
    return CaseRegion(*_region(n, c1, c2, c3, s, lambda: max_w(params))[0])


def _region(n: int, c1: float, c2: float, c3: float, s: float, w_of) -> tuple[tuple, float | None]:
    """CaseRegion's fields for (N, c1, c2, c3, s), and max W where the test read it
    (None elsewhere); w_of() returns max W.

    Case 1 reports the all-z tree's value D_z = sum lambda log2 lambda + N - max W.
    The paper's second condition, s^2/(1-(N-2)|s|) >= (c3^2-c^2)/c3, is
    necessary here but not sufficient: the all-T tree (every direction along
    the transverse letter) attains D_T = sum lambda log2 lambda + N
    - ((N-1) H(|s|) + H(sqrt(s^2+c^2)))/2, which is lower on part of that
    condition from 3 qubits up. So a state enters case 1 by it only where
    D_z <= D_T, and w_of is called on that branch alone.
    """
    c = max(abs(c1), abs(c2))
    C = max(c, abs(c3))
    if abs(s) <= S_ZERO_TOL:
        return (REGION_CASE2_S0, c, C, "s=0"), None
    if c3 <= 0.0 and c3 * c3 >= c * c:
        return (REGION_CASE1, c, C, "c3<=0 and c3^2>=c^2"), None
    denom = 1.0 - (n - 2) * abs(s)
    if c3 < 0.0 and denom > 0.0 and s * s / denom >= (c3 * c3 - c * c) / c3:
        w = w_of()
        if w >= ((n - 1) * h_scalar(abs(s)) + h_scalar(sqrt(s * s + c * c))) / 2:
            return (REGION_CASE1, c, C, "s^2/(1-(N-2)|s|) >= (c3^2-c^2)/c3 and D_z <= D_T"), w
        return (REGION_NONE, c, C, "s^2/(1-(N-2)|s|) >= (c3^2-c^2)/c3 but D_T < D_z"), w
    return (REGION_NONE, c, C, "no analytic case"), None


def max_w(params: FamilyParams) -> float:
    """Minimized conditional-entropy chain term for the all-z measurement tree.

    The parity pattern pairs H_{(N-1-2j)s} with |s + (-1)^j c3| across the
    2^{N-1} outcome branches grouped by their number of minus signs j.
    Meaningful as the discord term in case 1.
    """
    n, c3, s = params.n_qubits, params.c3, params.s
    # above 1023 qubits this raises ValueError before C(N-1, j) overflows a float
    dim = _float_dim(n)
    total = 0.0
    for j in range(n):
        total += comb(n - 1, j) * h_scalar(abs(s + (-1) ** j * c3), (n - 1 - 2 * j) * s)
    return total / dim


def symmetric_row(n: int, c1: float, c2: float, c3: float, s: float, w_of):
    """Closed-form discord of the symmetric state (N, c1, c2, c3, s), from floats.

    Returns (value, branch, region, max W, blocks): region holds CaseRegion's
    fields and blocks `symmetric_blocks`' values and multiplicities. w_of()
    returns max W of (N, c3, s); it is called once, in case 1 or where case 1's
    second condition is tested. Outside both regions the value is NaN, the
    branch "none" and the blocks None.
    """
    region, w = _region(n, c1, c2, c3, s, w_of)
    if region[0] == REGION_NONE:
        return nan, REGION_NONE, region, None, None
    blocks = symmetric_blocks(n, c1, c2, c3, s)
    base = sum_xlog2(*blocks) + n
    if region[0] == REGION_CASE2_S0:
        C = region[2]
        name = "c1" if abs(c1) == C else "c2" if abs(c2) == C else "c3"
        return base - 0.5 * h_scalar(C), f"case2[s=0,C={name}]", region, None, blocks
    w = w_of() if w is None else w
    return base - w, "case1[parity]", region, w, blocks


def discord_symmetric(params: FamilyParams) -> DiscordResult:
    """Closed-form discord of the symmetric family; raises NoAnalyticCase
    when neither region applies (callers fall back to the oracle)."""
    n, c1, c2, c3, s = params.n_qubits, params.c1, params.c2, params.c3, params.s
    value, branch, region, w, blocks = symmetric_row(n, c1, c2, c3, s, lambda: max_w(params))
    if blocks is None:
        raise NoAnalyticCase(f"no closed form for c=({c1},{c2},{c3}) s={s}")
    return DiscordResult(value, branch, CaseRegion(*region), w, SpectrumResult(*blocks, SOURCE_BLOCKS))


def discord_diagonal_field(params: DiagonalFieldParams) -> DiscordResult:
    """Discord of the diagonal-field family: 0 for every field vector, in O(1).

    The state is diagonal in the computational basis. Measuring every qubit
    along z leaves it unchanged, so the measured conditional-entropy chain
    equals S(rho) - S(rho_A1) and the discord, a minimum over measurements
    that is never negative, is 0. Term by term, the 2^N spectrum sum and the
    all-z chain's H sum are the same sum (the tests keep it as a reference).
    """
    if params.n_qubits < 2:
        raise ValueError("discord needs at least 2 qubits")
    return DiscordResult(0.0, "diagonal-field")


def discord_ghz(params: GhzParams) -> DiscordResult:
    """Closed-form discord of the noisy GHZ state."""
    spectrum = ghz_spectrum(params)
    dim = 2**params.n_qubits
    mu = params.mu
    x2 = 1.0 + (dim - 1) * mu
    x3 = 1.0 + (dim // 2 - 1) * mu
    # dividing by the power of two first is exact, and keeps x log2 x finite
    # where x itself is near the float limit (up to 1023 qubits)
    t1 = xlog2_scalar(1.0 - mu) / dim
    t2 = x2 / dim * log2(x2)
    t3 = x3 / (dim // 2) * log2(x3)
    return DiscordResult(t1 + t2 - t3, "ghz", None, None, spectrum)
