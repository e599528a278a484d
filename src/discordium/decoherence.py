"""Phase-flip evolution of the symmetric family, sweeps, and freezing detection.

The per-site channel has Kraus pair {sqrt(1-p/2) I, sqrt(p/2) Z}; composing
it over all N sites multiplies every Pauli word's weight by (1-p)^w where w
counts the X and Y letters (I and Z letters pass through). The symmetric
family is closed under the channel: c1, c2 pick up (1-p)^N while c3 and s
are untouched. So an analytic sweep runs the one-state row function,
`symmetric_row`, with c1 and c2 damped, and calls `max_w`, which reads only
N, c3 and s, at most once; each row is bit-identical to
`discord_symmetric(evolved_params(params, p))`.

With s = 0 and c2 = +-c1*c3 (sign (-1)^{N/2} for even N) the discord stays
pinned at H(c3)/2 as long as |c1|(1-p)^N >= |c3|, then decays; the boundary
p* = 1 - (|c3|/|c1|)^{1/N} is where the dominant coefficient switches.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass

from .analytic import S_ZERO_TOL, max_w, symmetric_row
from .oracle import OracleConfig, minimize_family
from .pauli import FamilyParams
from .spectral import h_scalar


@dataclass(frozen=True)
class ChannelParams:
    """Decoherence probability p, optionally derived from a rate and a time."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p={self.p} outside [0, 1]")

    @classmethod
    def from_rate_time(cls, gamma: float, t: float) -> "ChannelParams":
        if gamma < 0 or t < 0:
            raise ValueError("gamma and t must be nonnegative")
        return cls(p=1.0 - math.exp(-gamma * t))


@dataclass(frozen=True, slots=True)
class SeriesRow:
    p: float
    value: float
    branch: str


@dataclass(frozen=True)
class DynamicsSeries:
    rows: list[SeriesRow]

    def to_csv(self) -> str:
        """Header p,discord_bits,branch; a branch label holding a comma is quoted."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["p", "discord_bits", "branch"])
        for row in self.rows:
            val = f"{row.value:.9g}" if math.isfinite(row.value) else "nan"
            writer.writerow([f"{row.p:.9g}", val, row.branch])
        return out.getvalue()


@dataclass(frozen=True)
class FreezeReport:
    frozen: bool
    frozen_value: float | None
    p_star: float | None


def evolved_params(params: FamilyParams, p: float) -> FamilyParams:
    """Coefficients of the evolved state; `discord_symmetric` of them is its discord.
    A p outside [0, 1] raises `ChannelParams`' ValueError."""
    damp = (1.0 - ChannelParams(p).p) ** params.n_qubits
    return FamilyParams(params.n_qubits, params.c1 * damp, params.c2 * damp, params.c3, params.s)


def dynamics_sweep(
    params: FamilyParams,
    p_grid,
    method: str = "analytic",
    cfg: OracleConfig | None = None,
) -> DynamicsSeries:
    """Discord along a decoherence-probability grid.

    The analytic rows are `symmetric_row` of the damped c1 and c2, the same
    function and floats as `discord_symmetric(evolved_params(params, p))`,
    with max W, which the channel leaves alone, computed at most once. Rows
    that fall outside both closed-form regions are marked with branch "none"
    and a NaN value instead of aborting the sweep.
    """
    if method not in ("analytic", "oracle"):
        raise ValueError(f"unknown method {method!r}")
    if not isinstance(params, FamilyParams):
        raise ValueError("dynamics sweeps apply to the symmetric family")
    grid = [float(p) for p in p_grid]
    if any(not 0.0 <= p <= 1.0 for p in grid):
        raise ValueError("p grid must lie in [0, 1]")
    if sorted(grid) != grid or len(set(grid)) != len(grid):
        raise ValueError("p grid must be strictly increasing")
    rows = []
    if method == "oracle":
        for p in grid:
            out = minimize_family(evolved_params(params, p), cfg)
            rows.append(SeriesRow(p, out.value, out.branch))
        return DynamicsSeries(rows)
    n, c1, c2, c3, s = params.n_qubits, params.c1, params.c2, params.c3, params.s
    w_of = functools.cache(lambda: max_w(params))
    for p in grid:
        damp = (1.0 - p) ** n
        row = symmetric_row(n, c1 * damp, c2 * damp, c3, s, w_of)
        rows.append(SeriesRow(p, row[0], row[1]))
    return DynamicsSeries(rows)


def detect_freeze_transition(params: FamilyParams, coupling_tol: float = 1e-12) -> FreezeReport:
    """Freezing predicate and transition point for the symmetric family.

    Frozen iff s = 0, N even, c2 = (-1)^{N/2} c1 c3 (i.e. c2 = c1 c3 when N
    is divisible by 4) and |c1| >= |c3|. On the plateau the value is
    H(|c3|)/2, and the transition p* = 1 - (|c3|/|c1|)^{1/N} is the dominance
    boundary |c1|(1-p)^N = |c3|; |c1| = |c3| gives p* = 0 (no plateau).
    coupling_tol loosens the c2 = c1 c3 equality for truncated-decimal inputs.
    """
    n = params.n_qubits
    not_frozen = FreezeReport(False, None, None)
    if abs(params.s) > S_ZERO_TOL or n % 2 == 1:
        return not_frozen
    sign = -1.0 if (n // 2) % 2 else 1.0
    if abs(params.c2 - sign * params.c1 * params.c3) > coupling_tol:
        return not_frozen
    if abs(params.c1) < abs(params.c3) or params.c1 == 0.0:
        return not_frozen
    p_star = 1.0 - (abs(params.c3) / abs(params.c1)) ** (1.0 / n)
    return FreezeReport(True, 0.5 * h_scalar(abs(params.c3)), p_star)
