"""Sparse Pauli-sum states, dense realization, and subsystem utilities.

States are kept as real-weighted sums of N-letter Pauli words with the
convention rho = (1/2^N) * sum_P w(P) * P, where the all-identity word
always carries weight 1 (unit trace). The three supported families are

* the symmetric family: identity, the three uniform words X..X / Y..Y / Z..Z
  with weights c1, c2, c3, plus a single-site Z on every qubit with weight s;
* the diagonal-field family: identity plus one single-site Z per qubit with
  its own weight s_i (diagonal in the computational basis);
* the noisy GHZ family: mu * |GHZ><GHZ| + (1-mu)/2^N * identity.

Dense matrices are realized on demand and capped at a configurable qubit
count since they cost 4^N memory. Qubit indices are 1-based in all public
interfaces.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations

import numpy as np

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# a Pauli word is an uppercase letter string over IXYZ, one letter per qubit
PauliWord = str

DENSE_CAP_DEFAULT = 8
DENSE_CAP_ENV = "DISCORDIUM_DENSE_CAP"


class DenseCapExceeded(ValueError):
    """Raised when a dense 2^N x 2^N realization would exceed the qubit cap."""


def dense_cap() -> int:
    """Current dense-realization qubit cap (env DISCORDIUM_DENSE_CAP or 8)."""
    cap = int(os.environ.get(DENSE_CAP_ENV, DENSE_CAP_DEFAULT))
    if cap < 1:
        raise ValueError(f"{DENSE_CAP_ENV} must be >= 1, got {cap}")
    return cap


def _check_word(word: str, n_qubits: int) -> None:
    if len(word) != n_qubits:
        raise ValueError(f"word {word!r} has length {len(word)}, expected {n_qubits}")
    bad = set(word) - set("IXYZ")
    if bad:
        raise ValueError(f"word {word!r} contains invalid letters {sorted(bad)}")


@dataclass(frozen=True)
class PauliSum:
    """Real-weighted sum of Pauli words; rho = (1/2^N) sum_P w(P) P."""

    n_qubits: int
    terms: dict[PauliWord, float]

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        identity = "I" * self.n_qubits
        pruned = {}
        for word, w in self.terms.items():
            _check_word(word, self.n_qubits)
            w = float(w)
            if not np.isfinite(w):
                raise ValueError(f"non-finite weight for word {word!r}")
            if w != 0.0:
                pruned[word] = w
        if pruned.get(identity) != 1.0:
            raise ValueError("identity word must carry weight exactly 1")
        object.__setattr__(self, "terms", pruned)

    def weight(self, word: PauliWord) -> float:
        return self.terms.get(word, 0.0)

    def to_json(self) -> str:
        payload = {
            "n": self.n_qubits,
            "terms": [{"word": w, "w": wt} for w, wt in sorted(self.terms.items())],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "PauliSum":
        payload = json.loads(text)
        return cls(int(payload["n"]), {t["word"]: float(t["w"]) for t in payload["terms"]})


@dataclass(frozen=True)
class FamilyParams:
    """Symmetric family parameters (c1, c2, c3 on the uniform words, s on single-site Z)."""

    n_qubits: int
    c1: float
    c2: float
    c3: float
    s: float = 0.0

    def __post_init__(self):
        if self.n_qubits < 2:
            raise ValueError("symmetric family needs n_qubits >= 2")
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
        if self.n_qubits < 2:
            raise ValueError("GHZ family needs n_qubits >= 2")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu={self.mu} outside [0, 1]")


@dataclass(frozen=True)
class DensityMatrix:
    """Dense complex 2^N x 2^N state (Hermitian, unit trace)."""

    n_qubits: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        dim = 2**self.n_qubits
        if arr.shape != (dim, dim):
            raise ValueError(f"expected shape {(dim, dim)}, got {arr.shape}")
        if np.max(np.abs(arr - arr.conj().T)) > 1e-12:
            raise ValueError("matrix is not Hermitian within 1e-12")
        if abs(np.trace(arr).real - 1.0) > 1e-12 or abs(np.trace(arr).imag) > 1e-12:
            raise ValueError("trace differs from 1 by more than 1e-12")
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


def _single_site_word(n: int, site: int, letter: str) -> str:
    # site is 0-based here
    return "I" * site + letter + "I" * (n - site - 1)


def build_symmetric_family(params: FamilyParams) -> PauliSum:
    """Pauli-sum form of the symmetric family state."""
    n = params.n_qubits
    terms = {"I" * n: 1.0}
    for letter, c in zip("XYZ", (params.c1, params.c2, params.c3)):
        if c != 0.0:
            terms[letter * n] = c
    if params.s != 0.0:
        for site in range(n):
            terms[_single_site_word(n, site, "Z")] = params.s
    return PauliSum(n, terms)


def build_diagonal_field(params: DiagonalFieldParams) -> PauliSum:
    """Pauli-sum form of the diagonal-field family state."""
    n = params.n_qubits
    terms = {"I" * n: 1.0}
    for site, s_i in enumerate(params.fields):
        if s_i != 0.0:
            terms[_single_site_word(n, site, "Z")] = s_i
    return PauliSum(n, terms)


def build_noisy_ghz_pauli(params: GhzParams) -> PauliSum:
    """Pauli expansion of the noisy GHZ state.

    Besides the identity, the X..X word carries weight mu, and for each
    t = 1..floor(N/2) every distinct placement of 2t Z's among identities
    carries weight mu while every distinct placement of 2t Y's among X's
    carries weight (-1)^t mu.
    """
    n, mu = params.n_qubits, params.mu
    terms = {"I" * n: 1.0}
    if mu != 0.0:
        terms["X" * n] = mu
        for t in range(1, n // 2 + 1):
            sign = mu if t % 2 == 0 else -mu
            for positions in combinations(range(n), 2 * t):
                z_word = ["I"] * n
                y_word = ["X"] * n
                for q in positions:
                    z_word[q] = "Z"
                    y_word[q] = "Y"
                terms["".join(z_word)] = mu
                terms["".join(y_word)] = sign
    return PauliSum(n, terms)


def build_noisy_ghz_dense(params: GhzParams) -> DensityMatrix:
    """Dense noisy GHZ state: mu|GHZ><GHZ| + (1-mu)/2^N identity."""
    n, mu = params.n_qubits, params.mu
    dim = 2**n
    arr = np.zeros((dim, dim), dtype=complex)
    np.fill_diagonal(arr, (1.0 - mu) / dim)
    # mu/2 on the four corners: mu |GHZ><GHZ|
    arr[np.ix_((0, -1), (0, -1))] += mu / 2
    return DensityMatrix(n, arr)


def family_dense(params) -> DensityMatrix:
    """Dense state of any supported family's parameters."""
    if isinstance(params, FamilyParams):
        return realize(build_symmetric_family(params))
    if isinstance(params, DiagonalFieldParams):
        return realize(build_diagonal_field(params))
    return build_noisy_ghz_dense(params)


def realize(psum: PauliSum) -> DensityMatrix:
    """Dense realization (1/2^N) sum_P w(P) P via Kronecker products, up to `dense_cap()` qubits."""
    cap = dense_cap()
    n = psum.n_qubits
    if n > cap:
        raise DenseCapExceeded(f"n_qubits={n} exceeds dense cap {cap}")
    dim = 2**n
    arr = np.zeros((dim, dim), dtype=complex)
    for word, w in psum.terms.items():
        arr += w * reduce(np.kron, (PAULI[ch] for ch in word))
    return DensityMatrix(n, arr / dim)


def partial_trace(rho: DensityMatrix, keep: set[int] | list[int] | tuple[int, ...]) -> DensityMatrix:
    """Reduced state on the kept qubits (1-based indices, original order)."""
    n = rho.n_qubits
    keep_sorted = sorted(set(int(q) for q in keep))
    if not keep_sorted:
        raise ValueError("keep must be nonempty")
    if keep_sorted[0] < 1 or keep_sorted[-1] > n:
        raise ValueError(f"keep indices must lie in 1..{n}, got {keep_sorted}")
    traced = [q - 1 for q in range(1, n + 1) if q not in keep_sorted]
    tensor = rho.entries.reshape([2] * (2 * n))
    remaining = n
    for q in sorted(traced, reverse=True):
        tensor = np.trace(tensor, axis1=q, axis2=remaining + q)
        remaining -= 1
    dim = 2**remaining
    return DensityMatrix(remaining, tensor.reshape(dim, dim))
