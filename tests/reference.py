"""Independent references that the tests check discordium against.

Each one is written from its definition with numpy and the standard library
only, so no reference runs the code it checks: the full-dimension
conditional ensemble and partial trace, the dense phase-flip Kraus channel
and its per-word weight rule, the Kronecker sum of a Pauli expansion and
the three families' expansions (noisy GHZ among them), the paper's
three- and four-qubit spectrum displays (the four-qubit one also as
printed), the paper's parity pattern of max W and its N mod 4 displays,
the diagonal family's term-by-term cancellation, and H_y. Family parameters
are read by attribute (n_qubits, c1, c2, c3, s, mu); states are complex
arrays and Pauli sums dicts from word to weight.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
PROB_FLOOR = 1e-14


def _xlog2(v: float) -> float:
    return v * math.log2(v) if v > 0.0 else 0.0


def _h(x: float, y: float = 0.0) -> float:
    return _xlog2(1.0 + y + x) + _xlog2(1.0 + y - x)


def binary_h(x: float, y: float = 0.0) -> float:
    """H_y(x) = (1+y+x)log2(1+y+x) + (1+y-x)log2(1+y-x), with 0 log2 0 = 0;
    an argument 1+y+-x below -1e-12 raises ValueError."""
    a, b = 1.0 + y + x, 1.0 + y - x
    if a < -1e-12 or b < -1e-12:
        raise ValueError(f"binary_h domain violation: 1+y+x={a}, 1+y-x={b}")
    return _h(x, y)


def max_w_parity(params) -> float:
    """max W as the paper's parity pattern: H_{(N-1-2j)s}(|s + (-1)^j c3|) over the
    2^(N-1) outcome branches with j minus signs, C(N-1, j) of each, over 2^N."""
    n, c3, s = params.n_qubits, params.c3, params.s
    total = 0.0
    for j in range(n):
        total += math.comb(n - 1, j) * _h(abs(s + (-1) ** j * c3), (n - 1 - 2 * j) * s)
    return total / 2**n


def max_w_mod4(params) -> float:
    """max W via the four N mod 4 branch displays (N >= 4), as literal binomial sums."""
    n, c3, s = params.n_qubits, params.c3, params.s
    if n < 4:
        raise ValueError("mod-4 branch displays need n_qubits >= 4")
    m = n % 4
    nn = n // 4
    plus, minus = abs(s + c3), abs(s - c3)
    total = 0.0
    if m == 0:
        for k in range(2 * nn):
            total += math.comb(4 * nn - 1, 2 * k) * _h(plus, (4 * nn - 4 * k - 1) * s)
            total += math.comb(4 * nn - 1, 2 * k + 1) * _h(minus, (4 * nn - 4 * k - 3) * s)
    elif m == 1:
        for k in range(2 * nn + 1):
            total += math.comb(4 * nn, 2 * k) * _h(plus, (4 * nn - 4 * k) * s)
        for k in range(2 * nn):
            total += math.comb(4 * nn, 2 * k + 1) * _h(minus, (4 * nn - 4 * k - 2) * s)
    elif m == 2:
        for k in range(2 * nn + 1):
            total += math.comb(4 * nn + 1, 2 * k) * _h(plus, (4 * nn - 4 * k + 1) * s)
            total += math.comb(4 * nn + 1, 2 * k + 1) * _h(minus, (4 * nn - 4 * k - 1) * s)
    else:
        for k in range(2 * nn + 2):
            total += math.comb(4 * nn + 2, 2 * k) * _h(plus, (4 * nn - 4 * k + 2) * s)
        for k in range(2 * nn + 1):
            total += math.comb(4 * nn + 2, 2 * k + 1) * _h(minus, (4 * nn - 4 * k) * s)
    return total / 2**n


def spectrum_3q_display(params) -> np.ndarray:
    """The paper's three-qubit spectrum display: (1 +- r1)/8 three times each,
    r1^2 = c1^2 + c2^2 + (c3 - s)^2, and (1 +- r2)/8 once each,
    r2^2 = c1^2 + c2^2 + (c3 + 3s)^2."""
    if params.n_qubits != 3:
        raise ValueError("spectrum_3q_display needs n_qubits == 3")
    c1, c2, c3, s = params.c1, params.c2, params.c3, params.s
    r1 = np.sqrt(c1**2 + c2**2 + (c3 - s) ** 2)
    r2 = np.sqrt(c1**2 + c2**2 + (c3 + 3 * s) ** 2)
    return np.array([(1 + r1) / 8] * 3 + [(1 - r1) / 8] * 3 + [(1 + r2) / 8, (1 - r2) / 8])


def _spectrum_4q(params, lam_j: tuple[float, float], name: str) -> np.ndarray:
    """The four-qubit display with lambda_j = lam_j three times each, then
    (1 - c3 +- rk)/16 four times each, rk^2 = (c1-c2)^2 + 4 s^2, and
    (1 + c3 +- rl)/16 once each, rl^2 = (c1+c2)^2 + 16 s^2."""
    if params.n_qubits != 4:
        raise ValueError(f"{name} needs n_qubits == 4")
    c1, c2, c3, s = params.c1, params.c2, params.c3, params.s
    rk = np.sqrt((c1 - c2) ** 2 + 4 * s**2)
    rl = np.sqrt((c1 + c2) ** 2 + 16 * s**2)
    ev = (
        [lam_j[0]] * 3
        + [lam_j[1]] * 3
        + [(1 - c3 + rk) / 16] * 4
        + [(1 - c3 - rk) / 16] * 4
        + [(1 + c3 + rl) / 16, (1 + c3 - rl) / 16]
    )
    return np.array(ev)


def spectrum_4q_display(params) -> np.ndarray:
    """The paper's four-qubit display in its trace-correct form, with
    lambda_j = (1 + c3 +- (c1+c2))/16."""
    c = params.c1 + params.c2
    return _spectrum_4q(params, ((1 + params.c3 + c) / 16, (1 + params.c3 - c) / 16), "spectrum_4q_display")


def spectrum_4q_printed(params) -> np.ndarray:
    """The paper's printed four-qubit spectrum, with lambda_j = (1 +- (c1+c2+c3))/16.

    It violates unit trace by 6 c3/16 whenever c3 != 0, so the tests can
    assert the deficit against the true spectrum.
    """
    c = params.c1 + params.c2 + params.c3
    return _spectrum_4q(params, ((1 + c) / 16, (1 - c) / 16), "spectrum_4q_printed")


def diagonal_cancellation(fields) -> float:
    """The diagonal family's closed-form 2^N sum, term by term: sum_b lambda_b
    log2 lambda_b + N minus the all-z chain's H sum, both written over the
    signed field sums y_b = sum_i (+-s_i), with 2^N lambda_b = 1 + y_b."""
    n, s = len(fields), np.array(fields)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    entropy_side = sum(_xlog2(v) for v in 1.0 + signs @ s)
    y, x = signs[:, :-1] @ s[:-1], abs(s[-1])
    hsum = sum(_h(x, v) for v in y[::2])
    return float(entropy_side - hsum) / 2**n


def kron_sum(terms: dict[str, float]) -> np.ndarray:
    """(1/2^N) sum_P w(P) P over a word -> weight dict, one Kronecker product per word."""
    n = len(next(iter(terms)))
    return sum(w * reduce(np.kron, [PAULI[ch] for ch in word]) for word, w in terms.items()) / 2**n


def _single_z(n: int, q: int) -> str:
    return "I" * q + "Z" + "I" * (n - q - 1)


def symmetric_family_words(params) -> dict[str, float]:
    """Pauli expansion of the symmetric family: identity, X..X, Y..Y and Z..Z with
    weights c1, c2, c3, and a Z on each qubit with weight s; zero weights kept."""
    n = params.n_qubits
    terms = {"I" * n: 1.0, "X" * n: params.c1, "Y" * n: params.c2, "Z" * n: params.c3}
    terms.update((_single_z(n, q), params.s) for q in range(n))
    return terms


def diagonal_field_words(fields) -> dict[str, float]:
    """Pauli expansion of the diagonal-field family: identity and s_i on a Z at qubit i."""
    n = len(fields)
    return {"I" * n: 1.0, **{_single_z(n, q): float(s) for q, s in enumerate(fields)}}


def build_noisy_ghz_pauli(params) -> dict[str, float]:
    """Pauli expansion of the noisy GHZ state, as word -> weight.

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
            for positions in itertools.combinations(range(n), 2 * t):
                z_word = ["I"] * n
                y_word = ["X"] * n
                for q in positions:
                    z_word[q] = "Z"
                    y_word[q] = "Y"
                terms["".join(z_word)] = mu
                terms["".join(y_word)] = sign
    return terms


def _n_qubits(entries: np.ndarray) -> int:
    return len(entries).bit_length() - 1


def partial_trace(entries: np.ndarray, keep) -> np.ndarray:
    """Reduced state on the kept qubits (1-based indices, original order)."""
    n = _n_qubits(entries)
    keep_sorted = sorted(set(int(q) for q in keep))
    if not keep_sorted:
        raise ValueError("keep must be nonempty")
    if keep_sorted[0] < 1 or keep_sorted[-1] > n:
        raise ValueError(f"keep indices must lie in 1..{n}, got {keep_sorted}")
    traced = [q - 1 for q in range(1, n + 1) if q not in keep_sorted]
    tensor = entries.reshape([2] * (2 * n))
    remaining = n
    for q in sorted(traced, reverse=True):
        tensor = np.trace(tensor, axis1=q, axis2=remaining + q)
        remaining -= 1
    dim = 2**remaining
    return tensor.reshape(dim, dim)


@dataclass(frozen=True)
class EnsembleBranch:
    prefix: str
    probability: float
    state: np.ndarray | None
    negligible: bool


def conditional_ensemble(entries: np.ndarray, directions: dict, k: int) -> list[EnsembleBranch]:
    """Exact post-measurement ensemble after measuring qubits 1..k.

    directions maps each outcome prefix of the N-1 measured qubits to its
    unit Bloch vector. Projectors are built at full dimension ((I +- r.s)/2
    on each measured qubit, identity elsewhere); branches with probability
    below 1e-14 are carried with state None and flagged negligible.
    """
    n = _n_qubits(entries)
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must lie in 1..{n - 1}")
    if len(directions) != 2 ** (n - 1) - 1:
        raise ValueError("tree size does not match the state")
    eye_rest = np.eye(2 ** (n - k), dtype=complex)
    out = []
    for bits in itertools.product("01", repeat=k):
        proj = np.array([[1.0 + 0j]])
        for i, bit in enumerate(bits):
            r = directions["".join(bits[:i])]
            r_dot_s = r[0] * PAULI["X"] + r[1] * PAULI["Y"] + r[2] * PAULI["Z"]
            sign = 1.0 if bit == "0" else -1.0
            proj = np.kron(proj, 0.5 * (PAULI["I"] + sign * r_dot_s))
        proj = np.kron(proj, eye_rest)
        sandwich = proj @ entries @ proj
        p = float(np.trace(sandwich).real)
        prefix = "".join(bits)
        if p < PROB_FLOOR:
            out.append(EnsembleBranch(prefix, max(p, 0.0), None, True))
        else:
            out.append(EnsembleBranch(prefix, p, sandwich / p, False))
    return out


@dataclass(frozen=True)
class KrausSet:
    operators: list[np.ndarray]

    def completeness_deviation(self) -> float:
        dim = self.operators[0].shape[0]
        acc = sum(k.conj().T @ k for k in self.operators)
        return float(np.max(np.abs(acc - np.eye(dim))))


def phase_flip_kraus(n: int, p: float) -> KrausSet:
    """Full-channel Kraus set: all 2^N tensor products of the per-site pair
    {sqrt(1-p/2) I, sqrt(p/2) Z}."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    g0 = np.sqrt(1.0 - p / 2.0) * np.eye(2)
    g1 = np.sqrt(p / 2.0) * np.diag([1.0, -1.0])
    ops = [np.array([[1.0]])]
    for _ in range(n):
        ops = [np.kron(op, g) for op in ops for g in (g0, g1)]
    return KrausSet([op.astype(complex) for op in ops])


def apply_phase_flip_dense(entries: np.ndarray, p: float) -> np.ndarray:
    """The phase-flip channel on every qubit, applied through its dense Kraus set."""
    kraus = phase_flip_kraus(_n_qubits(entries), p)
    return reduce(lambda acc, k: acc + k @ entries @ k.conj().T, kraus.operators, np.zeros_like(entries))


def apply_phase_flip(terms: dict[str, float], p: float) -> dict[str, float]:
    """Weight rule: each word picks up (1-p)^(number of X or Y letters)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    return {word: w * (1.0 - p) ** sum(ch in "XY" for ch in word) for word, w in terms.items()}
