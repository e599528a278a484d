"""Family parameters, dense states, and the one dense builder.

Each family is fixed by a few coefficients, with the convention
rho = (1/2^N) * sum_P w(P) * P over N-letter Pauli words, the all-identity
word carrying weight 1 (unit trace):

* the symmetric family: identity, the three uniform words X..X / Y..Y / Z..Z
  with weights c1, c2, c3, plus a single-site Z on every qubit with weight s;
* the diagonal-field family: identity plus one single-site Z per qubit with
  its own weight s_i (diagonal in the computational basis);
* the noisy GHZ family: mu * |GHZ><GHZ| + (1-mu)/2^N * identity.

`realize` fills the dense 2^N x 2^N matrix of any family's parameters entry
by entry. It costs 4^N memory, so it refuses more than DENSE_CAP = 8 qubits
before it allocates anything. Every count (qubits, oracle starts) is a
whole number by one rule, `require_count`. Qubit indices are 1-based in
all public interfaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DENSE_CAP = 8


class DenseCapExceeded(ValueError):
    """Raised when a dense 2^N x 2^N realization would exceed the qubit cap."""


def _dense_dim(n: int) -> int:
    """2^n for a dense builder, refused above DENSE_CAP qubits before any allocation."""
    if n > DENSE_CAP:
        raise DenseCapExceeded(f"n_qubits={n} exceeds dense cap {DENSE_CAP}")
    return 2**n


def require_count(name: str, value, least: int, most: int | None = None) -> None:
    """The one count rule: an int or numpy integer, never a bool, at least `least`
    and at most `most` when given; anything else raises ValueError naming the
    field, "must be a whole number" for a finite float or a bool and "must be a
    number" for a string, None, inf or nan."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
        if most is not None and value > most:
            raise ValueError(f"{name} must be <= {most}, got {value:.15g}")
        return
    kind = "a whole number" if isinstance(value, (bool, float)) and np.isfinite(value) else "a number"
    raise ValueError(f"{name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class FamilyParams:
    """Symmetric family parameters (c1, c2, c3 on the uniform words, s on single-site Z)."""

    n_qubits: int
    c1: float
    c2: float
    c3: float
    s: float = 0.0

    def __post_init__(self):
        require_count("n_qubits", self.n_qubits, 2)
        for name in ("c1", "c2", "c3", "s"):
            v = getattr(self, name)
            if not -1.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [-1, 1]")


@dataclass(frozen=True)
class DiagonalFieldParams:
    """Per-qubit longitudinal field strengths s_1..s_N."""

    fields: tuple[float, ...]

    def __post_init__(self):
        fields = tuple(float(v) for v in self.fields)
        if len(fields) < 1:
            raise ValueError("need at least one field strength")
        for i, v in enumerate(fields, start=1):
            if not -1.0 <= v <= 1.0:
                raise ValueError(f"s_{i}={v} outside [-1, 1]")
        object.__setattr__(self, "fields", fields)

    @property
    def n_qubits(self) -> int:
        return len(self.fields)


@dataclass(frozen=True)
class GhzParams:
    """Noisy GHZ parameters: qubit count and mixedness mu in [0, 1]."""

    n_qubits: int
    mu: float

    def __post_init__(self):
        require_count("n_qubits", self.n_qubits, 2)
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu={self.mu} outside [0, 1]")


@dataclass(frozen=True)
class DensityMatrix:
    """Dense complex 2^N x 2^N state (Hermitian, unit trace), kept as a read-only copy."""

    n_qubits: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        require_count("n_qubits", self.n_qubits, 1)
        arr = np.array(self.entries, dtype=complex)
        dim = 2**self.n_qubits
        if arr.shape != (dim, dim):
            raise ValueError(f"expected shape {(dim, dim)}, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("matrix has a non-finite entry")
        if np.max(np.abs(arr - arr.conj().T)) > 1e-12:
            raise ValueError("matrix is not Hermitian within 1e-12")
        if abs(np.trace(arr).real - 1.0) > 1e-12 or abs(np.trace(arr).imag) > 1e-12:
            raise ValueError("trace differs from 1 by more than 1e-12")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


def signed_field_sums(fields) -> np.ndarray:
    """y_b = sum_i (-1)^{b_i} s_i for all 2^N bitstrings b, the last field least significant."""
    y = np.zeros(1)
    for s in fields:
        y = (y[:, None] + np.array((s, -s))).ravel()
    return y


def realize(params) -> DensityMatrix:
    """Dense state of `FamilyParams`, `DiagonalFieldParams` or `GhzParams`, filled
    by basis index b (qubit 1 the most significant bit), up to DENSE_CAP qubits.

    Z on a qubit is diagonal and X, Y flip its bit, with Y|0> = i|1> and
    Y|1> = -i|0>. So, all over 2^N, the symmetric family has diagonal entry
    1 + c3 (-1)^|b| + s (N - 2|b|) and entry (b with every bit flipped, b)
    c1 + c2 i^N (-1)^|b|; the diagonal-field family has diagonal entry
    1 + sum_i (-1)^{b_i} s_i; the noisy GHZ state has 1 - mu on the diagonal
    and 2^(N-1) mu added on the four corners of |0..0>, |1..1>.
    """
    n = params.n_qubits
    dim = _dense_dim(n)
    arr = np.zeros((dim, dim), dtype=complex)
    index = np.arange(dim)
    if isinstance(params, GhzParams):
        arr[index, index] = (1.0 - params.mu) / dim
        arr[np.ix_((0, -1), (0, -1))] += params.mu / 2
        return DensityMatrix(n, arr)
    if isinstance(params, DiagonalFieldParams):
        arr[index, index] = 1.0 + signed_field_sums(params.fields)
    else:
        weight = sum((index >> i) & 1 for i in range(n))
        parity = 1 - 2 * (weight & 1)
        arr[index, index] = 1.0 + params.c3 * parity + params.s * (n - 2 * weight)
        arr[index[::-1], index] = params.c1 + params.c2 * 1j ** (n % 4) * parity
    arr /= dim
    return DensityMatrix(n, arr)
