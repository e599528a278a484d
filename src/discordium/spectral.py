"""Eigenvalue spectra, von Neumann entropy (bits), and the H_y helper.

H_y(x) = (1+y+x)log2(1+y+x) + (1+y-x)log2(1+y-x) with 0*log2(0) = 0.
It is even in x and nondecreasing in |x| on the valid domain; H(x) denotes
the y = 0 case. All entropies use log base 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pauli import DensityMatrix, DiagonalFieldParams, FamilyParams, GhzParams, signed_field_sums

SOURCE_NUMERIC = "numeric"
SOURCE_BLOCKS = "closed_form_blocks"
SOURCE_GHZ = "closed_form_ghz"
SOURCE_DIAGONAL = "closed_form_diagonal"


MAX_FLOAT_QUBITS = 1023
# unphysical: 2^N times the minimum eigenvalue below -PHYSICAL_TOL, or a trace off 1 by more
PHYSICAL_TOL = 1e-10


def _float_dim(n: int) -> float:
    """2^N as a float; above 1023 qubits it overflows, which raises ValueError."""
    if n > MAX_FLOAT_QUBITS:
        raise ValueError(f"n_qubits={n}: 2^N overflows a float above {MAX_FLOAT_QUBITS} qubits")
    return 2.0**n


def xlog2(values):
    """Elementwise v*log2(v) with finite v <= 0 mapped to 0; NaN and -inf give NaN."""
    arr = np.asarray(values, dtype=float)
    out = np.zeros_like(arr)
    np.log2(arr, out=out, where=arr > 0.0)
    # |v| keeps the product +0.0 where v <= 0, as the masked form gave
    out *= np.abs(arr)
    return float(out) if out.ndim == 0 else out


def xlog2_scalar(v: float) -> float:
    """v*log2(v) for one float, 0 for v <= 0; the scalar form of xlog2."""
    return v * math.log2(v) if v > 0.0 else 0.0


def h_scalar(x: float, y: float = 0.0) -> float:
    """H_y(x) for floats; an argument 1+y+-x below 0 contributes 0."""
    return xlog2_scalar(1.0 + y + x) + xlog2_scalar(1.0 + y - x)


def sum_xlog2(values, multiplicities) -> float:
    """sum_i m_i v_i log2 v_i over values v_i listed m_i times; v <= 0 gives 0.

    Added left to right: the builtin sum() compensates float rounding from
    Python 3.12 on, which would make the digits depend on the interpreter.
    """
    total = 0.0
    for v, m in zip(values, multiplicities):
        total += m * xlog2_scalar(v)
    return total


@dataclass(frozen=True)
class SpectrumResult:
    """A spectrum as values with multiplicities, plus the source that produced it.

    Closed forms list one pair of values per 2x2 block, so the entropy sum and
    the minimum eigenvalue cost O(len(values)). `eigenvalues`, the full
    descending array, is expanded on first access only.
    """

    values: tuple[float, ...]
    multiplicities: tuple[int, ...]
    source: str

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        ev = np.repeat(np.array(self.values, dtype=float), self.multiplicities)
        return np.sort(ev)[::-1]

    @property
    def min_eigenvalue(self) -> float:
        return min(self.values)

    def sum_xlog2(self) -> float:
        """sum_i lambda_i log2 lambda_i over the full spectrum; lambda <= 0 gives 0."""
        return sum_xlog2(self.values, self.multiplicities)

    def entropy_bits(self) -> float:
        return -self.sum_xlog2()


def _listed(eigenvalues: np.ndarray, source: str) -> SpectrumResult:
    return SpectrumResult(tuple(eigenvalues.tolist()), (1,) * len(eigenvalues), source)


def hermitian_eigenvalues(rho: DensityMatrix) -> SpectrumResult:
    """Full numeric spectrum, descending; `DensityMatrix` vouches that rho is Hermitian."""
    return _listed(np.linalg.eigvalsh(rho.entries)[::-1], SOURCE_NUMERIC)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum lambda log2 lambda in bits; negative eigenvalues contribute 0. A state
    unphysical by `physicality`'s rule (2^N lambda_min < -PHYSICAL_TOL) raises ValueError."""
    spectrum = hermitian_eigenvalues(rho)
    if spectrum.min_eigenvalue * rho.dim < -PHYSICAL_TOL:
        raise ValueError(f"unphysical state: min eigenvalue {spectrum.min_eigenvalue:.3e}")
    return spectrum.entropy_bits()


def symmetric_spectrum(params: FamilyParams) -> SpectrumResult:
    """Symmetric-family spectrum from its 2x2 blocks, in O(N)."""
    values, mults = symmetric_blocks(params.n_qubits, params.c1, params.c2, params.c3, params.s)
    return SpectrumResult(values, mults, SOURCE_BLOCKS)


def symmetric_blocks(n: int, c1: float, c2: float, c3: float, s: float) -> tuple[tuple, tuple]:
    """(values, multiplicities) of the symmetric-family spectrum, in O(N).

    X..X and Y..Y flip every bit while Z..Z and the single-site Z are
    diagonal, so the state splits into blocks on |b>, |b with every bit
    flipped>. With k = |b| the block is

        [[1 + (-1)^k c3 + (N-2k) s,  conj(z)],
         [z,  1 + (-1)^(N-k) c3 - (N-2k) s]] / 2^N,   z = c1 + i^N (-1)^k c2,

    and it appears C(N, k) times for k < N/2 and C(N, k)/2 times for k = N/2.
    |z| is hypot(c1, c2) for odd N and |c1 + (-1)^(N/2+k) c2| for even N.

    The paper's two displays are its N = 3 and N = 4 cases. Three qubits: six
    eigenvalues (1 +- r1)/8 with r1^2 = c1^2+c2^2+(c3-s)^2 (three of each
    sign) and two (1 +- r2)/8 with r2^2 = c1^2+c2^2+(c3+3s)^2. Four qubits
    (trace-correct form): six (1 + c3 +- (c1+c2))/16, eight (1 - c3 +- rk)/16
    with rk^2 = (c1-c2)^2 + 4 s^2, and two (1 + c3 +- rl)/16 with
    rl^2 = (c1+c2)^2 + 16 s^2.
    """
    dim = _float_dim(n)
    values, mults = [], []
    for k in range(n // 2 + 1):
        e = c3 if k % 2 == 0 else -c3
        f = (n - 2 * k) * s
        if n % 2:
            mid, r = 1.0, math.hypot(e + f, c1, c2)
        else:
            mid, r = 1.0 + e, math.hypot(f, c1 + c2 if (n // 2 + k) % 2 == 0 else c1 - c2)
        mult = math.comb(n, k) // 2 if 2 * k == n else math.comb(n, k)
        values += [(mid + r) / dim, (mid - r) / dim]
        mults += [mult, mult]
    return tuple(values), tuple(mults)


# bench/tracing.py binds these names, and CI's traced smoke run fails without them
closed_form_spectrum_3q = closed_form_spectrum_4q = symmetric_spectrum


def ghz_spectrum(params: GhzParams) -> SpectrumResult:
    """Noisy GHZ spectrum: (1 + (2^N - 1) mu)/2^N once and (1-mu)/2^N with
    multiplicity 2^N - 1."""
    dim = _float_dim(params.n_qubits)
    mu = params.mu
    return SpectrumResult(
        ((1.0 + (dim - 1) * mu) / dim, (1.0 - mu) / dim), (1, 2**params.n_qubits - 1), SOURCE_GHZ
    )


def diagonal_field_spectrum(params: DiagonalFieldParams) -> SpectrumResult:
    """Diagonal-family spectrum: (1 + sum_i (-1)^{b_i} s_i)/2^N over bitstrings b."""
    return _listed((1.0 + signed_field_sums(params.fields)) / 2**params.n_qubits, SOURCE_DIAGONAL)


def family_spectrum(params) -> SpectrumResult:
    """Closed-form spectrum of any supported family's parameters."""
    if isinstance(params, FamilyParams):
        return symmetric_spectrum(params)
    if isinstance(params, DiagonalFieldParams):
        return diagonal_field_spectrum(params)
    return ghz_spectrum(params)


def physicality(params) -> tuple[float, float, bool]:
    """(trace deviation, minimum eigenvalue, physical) of a family state in O(N).

    The verdict reads 2^N times the minimum, the unscaled block value, so it
    does not shift with N. Diagonal states list nothing: trace 1, minimum (1 - sum|s_i|)/2^N.
    """
    dim = _float_dim(params.n_qubits)
    if isinstance(params, DiagonalFieldParams):
        trace, min_eig = 1.0, (1.0 - math.fsum(abs(s) for s in params.fields)) / dim
    else:
        spectrum = family_spectrum(params)
        trace = math.fsum(m * v for v, m in zip(spectrum.values, spectrum.multiplicities))
        min_eig = spectrum.min_eigenvalue
    trace_dev = abs(trace - 1.0)
    return trace_dev, min_eig, trace_dev <= PHYSICAL_TOL and min_eig * dim >= -PHYSICAL_TOL


def require_physical(params) -> None:
    """Raise ValueError when `physicality` judges the family state unphysical."""
    _, min_eig, physical = physicality(params)
    if not physical:
        raise ValueError(f"unphysical parameters: min eigenvalue {min_eig:.3e}")
