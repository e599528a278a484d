"""Closed-form multipartite discord with explicit case-region dispatch.

For the symmetric family the minimum over sequential conditional measurements
is known in two parameter regions:

* case 1 (roughly: c3 dominant and nonpositive, or a field-strength
  inequality involving s): the minimizing chain measures every qubit along
  z, and the discord is sum_i lambda_i log2 lambda_i + N - max W with the
  parity-pattern closed form

      max W = (1/2^N) sum_{j=0}^{N-1} C(N-1, j) H_{(N-1-2j)s}(|s + (-1)^j c3|).

  An alternative three-qubit pairing of the same H terms ("printed") differs
  numerically for s != 0; it is retained only for the discrepancy report and
  is arbitrated against the measurement oracle in the test suite.

* case 2 (s = 0): discord = sum_i lambda_i log2 lambda_i + N - H(C)/2 with
  C = max{|c1|, |c2|, |c3|}.

Everything is evaluated in bits. Values carry region and branch provenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, log2

from .pauli import DiagonalFieldParams, FamilyParams, GhzParams
from .spectral import SpectrumResult, ghz_spectrum, h_scalar, symmetric_spectrum, xlog2_scalar

REGION_CASE1 = "case1"
REGION_CASE2_S0 = "case2_s0"
REGION_NONE = "none"

S_ZERO_TOL = 1e-14


class NoAnalyticCase(ValueError):
    """No closed form applies to these parameters; use the oracle instead."""


@dataclass(frozen=True)
class CaseRegion:
    region: str
    c: float
    C: float
    condition_detail: str


@dataclass(frozen=True)
class DiscordResult:
    """Discord value in bits plus provenance of the branch that produced it."""

    value: float
    branch: str
    region: CaseRegion | None = None
    max_w: float | None = None
    spectrum_used: SpectrumResult | None = None


def classify_region(params: FamilyParams) -> CaseRegion:
    """Decide which closed form applies; s = 0 takes precedence over case 1."""
    c = max(abs(params.c1), abs(params.c2))
    C = max(c, abs(params.c3))
    c3, s, n = params.c3, params.s, params.n_qubits
    if abs(s) <= S_ZERO_TOL:
        return CaseRegion(REGION_CASE2_S0, c, C, "s=0")
    if c3 <= 0.0 and c3 * c3 >= c * c:
        return CaseRegion(REGION_CASE1, c, C, "c3<=0 and c3^2>=c^2")
    denom = 1.0 - (n - 2) * abs(s)
    if c3 < 0.0 and denom > 0.0 and s * s / denom >= (c3 * c3 - c * c) / c3:
        return CaseRegion(REGION_CASE1, c, C, "s^2/(1-(N-2)|s|) >= (c3^2-c^2)/c3")
    return CaseRegion(REGION_NONE, c, C, "no analytic case")


def max_w(params: FamilyParams, pattern: str = "parity") -> float:
    """Minimized conditional-entropy chain term for the all-z measurement tree.

    The parity pattern pairs H_{(N-1-2j)s} with |s + (-1)^j c3| across the
    2^{N-1} outcome branches grouped by their number of minus signs j. The
    "printed" pattern is the alternative three-qubit pairing kept for
    discrepancy reporting only. Meaningful as the discord term in case 1.
    """
    n, c3, s = params.n_qubits, params.c3, params.s
    if pattern == "parity":
        total = 0.0
        for j in range(n):
            total += comb(n - 1, j) * h_scalar(abs(s + (-1) ** j * c3), (n - 1 - 2 * j) * s)
        return total / 2**n
    if pattern == "printed":
        if n != 3:
            raise ValueError("printed pattern is defined for n_qubits == 3 only")
        return (
            h_scalar(abs(s + c3), 2 * s)
            + h_scalar(abs(s - c3), -2 * s)
            + h_scalar(abs(s + c3))
            + h_scalar(abs(s - c3))
        ) / 8
    raise ValueError(f"unknown pattern {pattern!r}")


def _argmax_c_name(params: FamilyParams) -> str:
    vals = {"c1": abs(params.c1), "c2": abs(params.c2), "c3": abs(params.c3)}
    return max(vals, key=vals.get)


def discord_symmetric(params: FamilyParams) -> DiscordResult:
    """Closed-form discord of the symmetric family; raises NoAnalyticCase
    when neither region applies (callers fall back to the oracle)."""
    region = classify_region(params)
    if region.region == REGION_NONE:
        raise NoAnalyticCase(
            f"no closed form for c=({params.c1},{params.c2},{params.c3}) s={params.s}"
        )
    spectrum = symmetric_spectrum(params)
    base = spectrum.sum_xlog2() + params.n_qubits
    if region.region == REGION_CASE2_S0:
        branch = f"case2[s=0,C={_argmax_c_name(params)}]"
        return DiscordResult(base - 0.5 * h_scalar(region.C), branch, region, None, spectrum)
    w = max_w(params, "parity")
    return DiscordResult(base - w, "case1[parity]", region, w, spectrum)


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
