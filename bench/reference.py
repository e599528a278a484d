"""Reference formulas the benchmark checks discordium against.

Nothing here imports discordium. The symmetric-family spectrum comes from the
2x2 blocks on each pair |b>, |b with every bit flipped>: X..X and Y..Y flip
every bit, Z..Z and the single-site Z are diagonal. With k the Hamming weight
of b the block is

    [[1 + (-1)^k c3 + (N-2k) s,  conj(z)],
     [z,  1 + (-1)^(N-k) c3 - (N-2k) s]] / 2^N,   z = c1 + i^N (-1)^k c2,

so there are O(N) distinct eigenvalues with binomial multiplicities. The
self-test (selftest.py) compares them with numpy's eigvalsh of dense matrices
built here from Kronecker products of Pauli matrices.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

S_ZERO_TOL = 1e-14

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def xlog2(x: float) -> float:
    """x log2 x with 0 for x <= 0."""
    return x * math.log2(x) if x > 0.0 else 0.0


def h(x: float, y: float = 0.0) -> float:
    """H_y(x) = (1+y+x) log2(1+y+x) + (1+y-x) log2(1+y-x)."""
    return xlog2(1.0 + y + x) + xlog2(1.0 + y - x)


def symmetric_spectrum(n: int, c1: float, c2: float, c3: float, s: float):
    """Distinct eigenvalues and their multiplicities, as two lists."""
    dim = 2.0**n
    values, mults = [], []
    for k in range(n // 2 + 1):
        mult = math.comb(n, k) if 2 * k < n else math.comb(n, k) // 2
        a = 1.0 + (-1) ** k * c3 + (n - 2 * k) * s
        d = 1.0 + (-1) ** (n - k) * c3 - (n - 2 * k) * s
        if n % 2:
            off2 = c1 * c1 + c2 * c2
        else:
            off2 = (c1 + (-1) ** (n // 2 + k) * c2) ** 2
        r = math.sqrt(((a - d) / 2.0) ** 2 + off2)
        for lam in ((a + d) / 2.0 + r, (a + d) / 2.0 - r):
            values.append(lam / dim)
            mults.append(mult)
    return values, mults


def symmetric_min_eigenvalue(n, c1, c2, c3, s) -> float:
    return min(symmetric_spectrum(n, c1, c2, c3, s)[0])


def _slog(values, mults) -> float:
    return sum(m * xlog2(v) for v, m in zip(values, mults))


def region(n, c1, c2, c3, s) -> str:
    """'case2' (s = 0), 'case1' or 'none', as the paper states the regions."""
    c = max(abs(c1), abs(c2))
    if abs(s) <= S_ZERO_TOL:
        return "case2"
    if c3 <= 0.0 and c3 * c3 >= c * c:
        return "case1"
    denom = 1.0 - (n - 2) * abs(s)
    if c3 < 0.0 and denom > 0.0 and s * s / denom >= (c3 * c3 - c * c) / c3:
        return "case1"
    return "none"


def max_w_parity(n: int, c3: float, s: float) -> float:
    """(1/2^N) sum_j C(N-1, j) H_{(N-1-2j)s}(|s + (-1)^j c3|)."""
    total = sum(
        math.comb(n - 1, j) * h(abs(s + (-1) ** j * c3), (n - 1 - 2 * j) * s) for j in range(n)
    )
    return total / 2.0**n


def symmetric_discord(n, c1, c2, c3, s) -> float:
    """Closed-form discord in bits; raises ValueError outside both regions."""
    reg = region(n, c1, c2, c3, s)
    if reg == "none":
        raise ValueError("no closed form outside case 1 and case 2")
    slog = _slog(*symmetric_spectrum(n, c1, c2, c3, s))
    if reg == "case2":
        return slog + n - h(max(abs(c1), abs(c2), abs(c3))) / 2.0
    return slog + n - max_w_parity(n, c3, s)


def ghz_spectrum(n: int, mu: float):
    """(1 + (2^N - 1) mu)/2^N once and (1 - mu)/2^N with multiplicity 2^N - 1."""
    dim = 2.0**n
    return [(1.0 + (dim - 1.0) * mu) / dim, (1.0 - mu) / dim], [1.0, dim - 1.0]


def ghz_discord(n: int, mu: float) -> float:
    """sum lambda log2 lambda + N - W for the all-z chain on the noisy GHZ state,
    with W = [(2^N - 2) H1(1 - mu) + 2 H1(1 + (2^(N-1) - 1) mu)]/2^N and
    H1(x) = x log2 x."""
    dim = 2.0**n
    w = ((dim - 2.0) * xlog2(1.0 - mu) + 2.0 * xlog2(1.0 + (dim / 2.0 - 1.0) * mu)) / dim
    return _slog(*ghz_spectrum(n, mu)) + n - w


def freeze_plateau(c3: float) -> float:
    """Frozen discord H(|c3|)/2."""
    return h(abs(c3)) / 2.0


def freeze_p_star(n: int, c1: float, c3: float) -> float:
    """Transition p* = 1 - (|c3|/|c1|)^(1/N) where |c1|(1-p)^N meets |c3|."""
    return 1.0 - (abs(c3) / abs(c1)) ** (1.0 / n)


def symmetric_dense(n, c1, c2, c3, s) -> np.ndarray:
    """(1/2^N)(I + c1 X..X + c2 Y..Y + c3 Z..Z + s sum_i Z_i) from Kronecker products."""
    terms = [("I" * n, 1.0), ("X" * n, c1), ("Y" * n, c2), ("Z" * n, c3)]
    terms += [("I" * i + "Z" + "I" * (n - i - 1), s) for i in range(n)]
    dim = 2**n
    arr = np.zeros((dim, dim), dtype=complex)
    for word, w in terms:
        if w != 0.0:
            arr += w * reduce(np.kron, (_PAULI[ch] for ch in word))
    return arr / dim


def ghz_dense(n: int, mu: float) -> np.ndarray:
    """mu |GHZ><GHZ| + (1 - mu)/2^N I."""
    dim = 2**n
    ket = np.zeros(dim, dtype=complex)
    ket[0] = ket[-1] = 1.0 / math.sqrt(2.0)
    return mu * np.outer(ket, ket.conj()) + (1.0 - mu) / dim * np.eye(dim, dtype=complex)
