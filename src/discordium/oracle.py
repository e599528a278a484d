"""Ground-truth discord via minimization over sequential conditional measurements.

A measurement tree assigns one Bloch direction to every outcome prefix: the
root direction measures qubit 1, the two length-1 prefixes condition the
qubit-2 direction on the first outcome, and so on through qubit N-1. The
objective is the measured conditional-entropy chain

    sum_{k=1}^{N-1} S(A_{k+1} | outcomes of A_1..A_k)  -  [S(rho) - S(rho_{A1})]

minimized over all trees.

The chain is evaluated on the real Pauli tensor T[a1..aN] = Tr[rho s_a1 x .. x
s_aN] (s_0 = I, s_1..3 = X, Y, Z), 4^N reals built once per state. Measuring
the next qubit along the unit vector r with outcome +/- maps a branch tensor
W to (W[0, ...] +/- sum_k r_k W[k, ...]) / 2, so one batched contraction
propagates all 2^m branches of a level. A branch's next qubit has the
unnormalized state (p I + w.s)/2, read off the branch tensor with the identity
index on every later qubit, so its eigenvalues are (p +/- |w|)/2. The number
of numpy calls per evaluation grows with the level count, not the branch
count.

Each level is a linear map followed by 2x2 entropies, so one backward pass
through the same contractions gives the exact gradient of the chain in the
tree's (theta, phi) angles. Every evaluation takes a leading start axis, so
`minimize_discord` runs all its starts in lockstep: a dense BFGS per start,
each with its own strong-Wolfe line search, and one batched chain
evaluation per step for every start still running. Both oracles hand their
starts to one optimizer seam, `_scipy_minimize`, which moves them slightly
off the axis trees (stationary points by symmetry) and runs
`_lockstep_minimize`; the module needs only numpy.

A reduced objective specialized to the symmetric family works in the z
components of the tree directions only. For that family the transverse
components enter solely through the final-level radicand, where they are
maximized out exactly (the discord objective is monotone in that radicand),
so the reduction loses nothing while extending tractable sizes to 10 qubits.
One per-level kernel gives each branch's term and its exact z gradient, and
`minimize_reduced` maximizes the objective through the same seam, in
one angle per prefix with z = cos(theta): a 3-start solve takes about
0.08 s at 8 qubits and 0.7 s at 10.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import product
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .pauli import PAULI, DensityMatrix, FamilyParams, family_dense
from .spectral import h_scalar, require_physical, symmetric_spectrum, von_neumann_entropy, xlog2

PROB_FLOOR = 1e-14
# the full oracle's stopping tests: relative decrease of f and largest gradient
# component, as L-BFGS-B's ftol and pgtol
F_TOL = 1e-15
GRAD_TOL = 1e-10
# strong-Wolfe constants of L-BFGS-B's line search, and its trials per search
WOLFE_C1 = 1e-3
WOLFE_C2 = 0.9
SEARCH_EVALS = 20
SPREAD_FLAG = 1e-4
# a minimum within ZERO_CLAMP of 0 is reported as 0.0; one further below stays visible
ZERO_CLAMP = 1e-12
FULL_ORACLE_CAP = 4
REDUCED_ORACLE_CAP = 10

# (theta, phi) of the +z, +x, +y, -z, -x and -y directions
AXIS_ANGLES = (
    (0.0, 0.0), (np.pi / 2, 0.0), (np.pi / 2, np.pi / 2),
    (np.pi, 0.0), (np.pi / 2, np.pi), (np.pi / 2, -np.pi / 2),
)


def _prefixes(n_measured: int) -> list[str]:
    out = [""]
    for length in range(1, n_measured):
        out.extend("".join(bits) for bits in product("01", repeat=length))
    return out


@dataclass(frozen=True)
class MeasurementTree:
    """Conditional Bloch directions indexed by outcome prefix ('' is the root)."""

    n_measured: int
    directions: dict[str, np.ndarray]

    def __post_init__(self):
        if self.n_measured < 1:
            raise ValueError("need at least one measured qubit")
        expected = _prefixes(self.n_measured)
        if set(self.directions) != set(expected):
            raise ValueError(
                f"tree needs exactly the {len(expected)} outcome prefixes of "
                f"length < {self.n_measured}"
            )
        dirs = {}
        for pref, vec in self.directions.items():
            v = np.asarray(vec, dtype=float)
            if v.shape != (3,):
                raise ValueError(f"direction at {pref!r} is not a 3-vector")
            if abs(np.linalg.norm(v) - 1.0) > 1e-12:
                raise ValueError(f"direction at {pref!r} is not unit within 1e-12")
            dirs[pref] = v
        object.__setattr__(self, "directions", dirs)

    @classmethod
    def uniform(cls, n_measured: int, direction) -> "MeasurementTree":
        v = np.asarray(direction, dtype=float)
        v = v / np.linalg.norm(v)
        return cls(n_measured, {p: v.copy() for p in _prefixes(n_measured)})

    @classmethod
    def from_angles(cls, n_measured: int, angles: np.ndarray) -> "MeasurementTree":
        """Directions from a flat (theta, phi) vector in prefix order."""
        prefs = _prefixes(n_measured)
        angles = np.asarray(angles, dtype=float)
        if angles.shape != (2 * len(prefs),):
            raise ValueError(f"expected {2 * len(prefs)} angles, got {angles.shape}")
        dirs = {}
        for i, pref in enumerate(prefs):
            th, ph = angles[2 * i], angles[2 * i + 1]
            dirs[pref] = np.array(
                [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)]
            )
        return cls(n_measured, dirs)

    @classmethod
    def random(cls, n_measured: int, rng: np.random.Generator) -> "MeasurementTree":
        dirs = {}
        for pref in _prefixes(n_measured):
            z = rng.uniform(-1.0, 1.0)
            ph = rng.uniform(0.0, 2 * np.pi)
            r = np.sqrt(1.0 - z * z)
            dirs[pref] = np.array([r * np.cos(ph), r * np.sin(ph), z])
        return cls(n_measured, dirs)


@dataclass(frozen=True)
class OracleConfig:
    starts: int = 64
    max_iters: int = 2000
    seed: int = 0

    def __post_init__(self):
        for name, least in (("starts", 1), ("max_iters", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")

    @classmethod
    def from_json(cls, path: str | Path) -> "OracleConfig":
        """Keys named like a field, cast to that field's type; other keys are ignored.
        A payload that is not an object, a value that does not cast (an infinite
        one included), a boolean or fractional one, or one out of its field's
        range raises ValueError naming the file."""
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: oracle config must be a JSON object, got {type(payload).__name__}")
        kwargs = {}
        for f in fields(cls):
            if f.name in payload:
                value = payload[f.name]
                try:
                    kwargs[f.name] = type(f.default)(value)
                except (TypeError, ValueError, OverflowError):
                    raise ValueError(f"{path}: {f.name} must be a number, got {value!r}") from None
                if isinstance(value, bool) or (isinstance(value, float) and value != kwargs[f.name]):
                    raise ValueError(f"{path}: {f.name} must be a whole number, got {value!r}")
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class ReducedPoint:
    """z components of a tree, keyed by outcome prefix."""

    z3: dict[str, float]


@dataclass(frozen=True)
class ReducedObjective:
    G: float | None
    F: float | None
    T: float | None
    W: float
    Y: float


@dataclass(frozen=True)
class OracleResult:
    value: float
    best_tree: MeasurementTree | ReducedPoint | None
    starts_converged: int
    spread: float


def _clamp_zero(value: float) -> float:
    return 0.0 if abs(value) <= ZERO_CLAMP else value


@dataclass(frozen=True)
class EnsembleBranch:
    prefix: str
    probability: float
    state: DensityMatrix | None
    negligible: bool


# row 2i + j, column a: s_a[j, i], so a (.., 4) block of rho[i, j] entries times it gives Tr[. s_a]
_PAULI_COLUMNS = np.array([PAULI[c].T.ravel() for c in "IXYZ"]).T
_PLUS_MINUS = np.array([1.0, -1.0])
_BLOCH_NORM = np.array([0.0, 1.0, 1.0, 1.0])
_LN2 = np.log(2.0)
# (1, r) times these gives the +- outcome projector rows (1, +-r)/2
_HALF_SIGNS = 0.5 * np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, -1.0, -1.0]])
# From E = (1, cos theta, cos phi, sin theta, sin phi, 0) of a prefix,
# E[A] * E[B] * SIGN gives (1, r), dr/dtheta and dr/dphi as (0, .) rows.
_TRIG_A = np.array([[0, 3, 3, 1], [5, 1, 1, 3], [5, 3, 3, 5]])
_TRIG_B = np.array([[0, 2, 4, 0], [0, 2, 4, 0], [0, 4, 2, 0]])
_TRIG_SIGN = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, -1.0], [1.0, -1.0, 1.0, 1.0]])
# (K (L + 1/ln 2), K lam/p) of a row's two eigenvalues, times this, gives (de/dp, de/d|w|)
_ROW_GRAD = np.array([[-0.5, -0.5], [-0.5, 0.5], [1.0 / _LN2, 0.0], [1.0 / _LN2, 0.0]])


def _pauli_tensor(rho: DensityMatrix) -> np.ndarray:
    """Flat T[a1..aN] = Tr[rho s_a1 x .. x s_aN], a1 most significant; 4^N reals."""
    acc = rho.entries.reshape(1, rho.dim, rho.dim)
    for _ in range(rho.n_qubits):
        a, d = acc.shape[0], acc.shape[1] // 2
        # sum_{i,j} rho[(i, .), (j, .)] s_a[j, i] over the leading qubit
        acc = acc.reshape(a, 2, d, 2, d).transpose(0, 2, 4, 1, 3).reshape(a, d * d, 4) @ _PAULI_COLUMNS
        acc = acc.transpose(0, 2, 1).reshape(4 * a, d, d)
    return np.ascontiguousarray(acc.reshape(-1).real)


class _Chain:
    """The measured conditional-entropy chain of one state, levels 1..levels.

    Built once per state and evaluated for many trees at once: every
    evaluation takes a leading start axis of k trees, and all of them share
    the Pauli tensor. Row o of a prefix's projector block is the outcome-o
    projector (I +- r.s)/2 in Pauli coordinates, (1, +-r_x, +-r_y, +-r_z)/2;
    `_inputs` keeps each level's branch tensors for the backward pass of
    `value_and_grad`.
    """

    def __init__(self, rho: DensityMatrix, levels: int):
        self.tensor = _pauli_tensor(rho)
        self._levels = levels
        self._halves = self._rows = None
        self._inputs = [None] * levels

    def at_directions(self, directions: np.ndarray) -> np.ndarray:
        """Branch entropies of one tree of unit Bloch vectors, one row per prefix
        in prefix order: the one-start case of the evaluation."""
        directions = np.asarray(directions, dtype=float)
        self._propagate(np.column_stack((np.ones(len(directions)), directions))[None])
        lam, _, log_ratio, _, _ = self._eigen_terms()
        return -(lam * log_ratio).sum(axis=-1)[0]

    def value_and_grad(self, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Chain sums and their exact gradients for k trees of (theta, phi) pairs.

        angles has shape (k, 2P), each row one tree's pairs in prefix order;
        the values have shape (k,) and the gradients (k, 2P). A row (p, w)
        has entropy e = -sum_+- lam log2(lam/p) with lam = (p +- |w|)/2.
        With K_+- = 1 for a kept eigenvalue and 0 otherwise, and
        L = log2(lam/p), de/dp = sum_+- K (lam/(p ln 2) - (L + 1/ln 2)/2) and
        de/dw = -sum_+- (+-K) (L + 1/ln 2)/2 w/|w|; with both kept these are
        -(L_+ + L_-)/2 and -(atanh(x)/x) w/(p ln 2), x = |w|/p, and the w
        term is 0 at w = 0. A floored branch or eigenvalue adds 0 to the
        value and the gradient. The row gradients are then carried back
        through each level's contraction W' = H W into the projector rows
        (1, +-r)/2, and from r to the angles.
        """
        k, npar = angles.shape[0], angles.shape[1] // 2
        trig = np.empty((k, npar, 6))
        trig[..., ::5] = (1.0, 0.0)
        np.cos(angles.reshape(k, npar, 2), out=trig[..., 1:3])
        np.sin(angles.reshape(k, npar, 2), out=trig[..., 3:5])
        # (1, r), dr/dtheta and dr/dphi of every prefix
        rows_and_jac = trig[..., _TRIG_A] * trig[..., _TRIG_B] * _TRIG_SIGN
        self._propagate(rows_and_jac[:, :, 0])
        lam, ratio, log_ratio, keep, norm = self._eigen_terms()
        value = -(lam * log_ratio).sum(axis=(1, 2))

        q = self._rows
        d_row = np.concatenate((keep * (log_ratio + 1.0 / _LN2), keep * ratio), axis=-1) @ _ROW_GRAD
        # where |w| = 0 so is w, and the row's w gradient is 0
        grad_rows = q * (d_row[..., 1] / np.maximum(norm, 1e-300))[..., None]
        grad_rows[..., 0] = d_row[..., 0]

        halves = self._halves
        grad_halves = np.empty_like(halves)
        g_out = grad_rows[:, (1 << self._levels) - 2 :]
        for level in range(self._levels - 1, -1, -1):
            b = 1 << level
            w_in = self._inputs[level]
            width = w_in.shape[-1]
            if level < self._levels - 1:
                g_out[..., :: width // 4] += grad_rows[:, 2 * b - 2 : 4 * b - 2]
            g_out = g_out.reshape(k, b, 2, width)
            np.matmul(g_out, w_in.swapaxes(-1, -2), out=grad_halves[:, b - 1 : 2 * b - 1])
            if level:
                g_out = np.matmul(halves[:, b - 1 : 2 * b - 1].swapaxes(-1, -2), g_out).reshape(k, b, -1)

        grad_plus = (grad_halves * _HALF_SIGNS).sum(axis=-2)
        grad = rows_and_jac[:, :, 1:] @ grad_plus[..., None]
        return value, grad.reshape(k, 2 * npar)

    def _propagate(self, plus: np.ndarray) -> None:
        """Fill every level's rows for k trees given as (1, r) rows, shape (k, P, 4).

        Level m holds 2^m branches per tree (rows 2^m - 2 .. 2^(m+1) - 3).
        Measuring with outcome +- maps a branch tensor W to (W[0] +- r.W[1:])/2,
        one batched contraction per level for all trees.
        """
        k = plus.shape[0]
        halves = self._halves = plus[:, :, None, :] * _HALF_SIGNS
        rows = self._rows = np.empty((k, (2 << self._levels) - 2, 4))
        w = self.tensor.reshape(1, 1, -1)
        for m in range(self._levels):
            b = 1 << m
            w = self._inputs[m] = w.reshape(w.shape[0], b, 4, -1)
            w = np.matmul(halves[:, b - 1 : 2 * b - 1], w).reshape(k, 2 * b, -1)
            # next qubit's (p, w_x, w_y, w_z), identity on every later qubit
            rows[:, 2 * b - 2 : 4 * b - 2] = w[..., :: w.shape[-1] // 4]

    def _eigen_terms(self):
        """Each row's eigenvalues (p +- |w|)/2, lam/p, log2(lam/p), the keep mask and |w|.

        Branches with p < 1e-14 and eigenvalues at or below 1e-14 are not
        kept; their ratio is 1 and their log ratio 0.
        """
        q = self._rows
        p = q[..., :1]
        norm = np.sqrt((q * q) @ _BLOCH_NORM)
        lam = 0.5 * (p + norm[..., None] * _PLUS_MINUS)
        keep = (lam > PROB_FLOOR) & (p >= PROB_FLOOR)
        ratio = np.divide(lam, p, out=np.ones_like(lam), where=keep)
        return lam, ratio, np.log2(ratio), keep, norm


def _tree_directions(tree: MeasurementTree, levels: int) -> np.ndarray:
    """Tree directions of the prefixes shorter than levels, in prefix order."""
    return np.array([tree.directions[p] for p in _prefixes(levels)])


def _unmeasured_term(rho: DensityMatrix, chain: _Chain) -> float:
    """S(rho) - S(rho_A1), with rho_A1 = (T0 I + t.s)/2 read off the chain's
    Pauli tensor (identity on every later qubit), so its eigenvalues are
    (T0 +- |t|)/2."""
    first = chain.tensor[:: chain.tensor.size // 4]
    lam = 0.5 * (first[0] + np.sqrt(first[1:] @ first[1:]) * _PLUS_MINUS)
    return von_neumann_entropy(rho) + float(xlog2(lam).sum())


def conditional_ensemble(rho: DensityMatrix, tree: MeasurementTree, k: int) -> list[EnsembleBranch]:
    """Exact post-measurement ensemble after measuring qubits 1..k.

    Projectors are built at full dimension ((I +- r.s)/2 on each measured
    qubit, identity elsewhere); branches with probability below 1e-14 are
    carried with state None and flagged negligible.
    """
    n = rho.n_qubits
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must lie in 1..{n - 1}")
    if tree.n_measured != n - 1:
        raise ValueError("tree size does not match the state")
    eye_rest = np.eye(2 ** (n - k), dtype=complex)
    out = []
    for bits in product("01", repeat=k):
        proj = np.array([[1.0 + 0j]])
        for i, bit in enumerate(bits):
            r = tree.directions["".join(bits[:i])]
            r_dot_s = r[0] * PAULI["X"] + r[1] * PAULI["Y"] + r[2] * PAULI["Z"]
            sign = 1.0 if bit == "0" else -1.0
            proj = np.kron(proj, 0.5 * (PAULI["I"] + sign * r_dot_s))
        proj = np.kron(proj, eye_rest)
        sandwich = proj @ rho.entries @ proj
        p = float(np.trace(sandwich).real)
        prefix = "".join(bits)
        if p < PROB_FLOOR:
            out.append(EnsembleBranch(prefix, max(p, 0.0), None, True))
        else:
            out.append(EnsembleBranch(prefix, p, DensityMatrix(n, sandwich / p), False))
    return out


def measured_conditional_entropy(rho: DensityMatrix, tree: MeasurementTree, k: int) -> float:
    """sum over length-k outcome prefixes of p * S(qubit k+1 in that branch), in bits."""
    n = rho.n_qubits
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must lie in 1..{n - 1}")
    if tree.n_measured != n - 1:
        raise ValueError("tree size does not match the state")
    entropies = _Chain(rho, k).at_directions(_tree_directions(tree, k))
    return float(entropies[2**k - 2 :].sum())


def discord_objective(rho: DensityMatrix, tree: MeasurementTree) -> float:
    """Conditional-entropy chain for one tree minus the unmeasured term."""
    n = rho.n_qubits
    if tree.n_measured != n - 1:
        raise ValueError("tree size does not match the state")
    chain = _Chain(rho, n - 1)
    return float(chain.at_directions(_tree_directions(tree, n - 1)).sum()) - _unmeasured_term(rho, chain)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a * b).sum(axis=-1)


class _SearchStarts:
    """Per-start state of `_lockstep_minimize`, one row per start still running.

    Each start has its point x, value f, the roundoff allowance
    slack = F_TOL * max(|f|, 1), gradient g, dense inverse-Hessian estimate
    (the identity until its first update, `fresh`), accepted steps,
    direction p with slope0 = g.p, and trial step. A start whose line search
    has made tries > 0 trials without accepting one also has the bracket ends
    lo and hi as (step, value, slope) rows; hi's step is inf until the
    minimum is bracketed.
    """

    def __init__(self, ids, x, f, g):
        k, d = x.shape
        self.ids, self.x, self.f, self.g = ids, x, f, g
        self.slack = F_TOL * np.maximum(np.abs(f), 1.0)
        self.hess = np.tile(np.eye(d), (k, 1, 1))
        self.fresh = np.ones(k, dtype=bool)
        self.iters = np.zeros(k, dtype=int)
        self.p, self.slope0 = -g, -_rowdot(g, g)
        self.step = 1.0 / np.sqrt(-self.slope0)
        self.lo, self.hi, self.tries = np.empty((k, 3)), np.empty((k, 3)), np.zeros(k, dtype=int)

    def sufficient(self, ft: np.ndarray) -> np.ndarray:
        """The sufficient-decrease test, passed also by a rise within the slack."""
        return ft <= self.f + self.slack + WOLFE_C1 * self.step * self.slope0

    def search(self, ft: np.ndarray, slope: np.ndarray, sufficient: np.ndarray, curvature: np.ndarray):
        """Line-search update of the rows that reject their trial or are inside a search.

        Returns the accepted rows as a mask, and the rows whose search failed.
        A trial inside a search is also rejected when it is not below the
        bracket's low end plus the slack. A rejected trial becomes the high end
        if it fails sufficient decrease or that test; otherwise it becomes the
        low end, and the old low end the high one where the new
        slope points back to it (Nocedal and Wright, algorithms 3.5 and 3.6).
        """
        accept = sufficient & curvature
        failed = np.zeros_like(accept)
        inside = self.tries > 0
        for i in np.flatnonzero(~accept | inside).tolist():
            if inside[i]:
                lo, hi = self.lo[i].tolist(), self.hi[i].tolist()
            else:
                lo, hi = [0.0, float(self.f[i]), float(self.slope0[i])], [math.inf, 0.0, 0.0]
            trial = [float(self.step[i]), float(ft[i]), float(slope[i])]
            if not sufficient[i] or (inside[i] and trial[1] >= lo[1] + self.slack[i]):
                hi = trial
            elif curvature[i]:
                continue
            else:
                if (trial[2] > 0.0) == (hi[0] > lo[0]):
                    hi = lo
                lo = trial
            accept[i] = False
            self.lo[i], self.hi[i], self.step[i] = lo, hi, _next_step(lo, hi)
            self.tries[i] += 1
            failed[i] = self.tries[i] >= SEARCH_EVALS
        return accept, failed

    def advance(self, rows, trial, ft, gt, max_iters: int):
        """Move the rows to their accepted trial points, update their BFGS
        estimates and start their next line search. Returns whether each row
        converged, and whether it stops."""
        s, y = trial[rows] - self.x[rows], gt[rows] - self.g[rows]
        sy = _rowdot(s, y)
        h, fresh = self.hess[rows], self.fresh[rows]
        if fresh.any():
            # the first update scales the identity by s.y / y.y (Nocedal and Wright, eq. 6.20)
            h = h * np.where(fresh, sy / _rowdot(y, y), 1.0)[:, None, None]
            self.fresh[rows] = False
        hy = (h @ y[:, :, None])[:, :, 0]
        rho = 1.0 / sy
        # H' = H + v s^T + s v^T is the BFGS inverse update; s.y > 0 after a strong-Wolfe step
        v = (0.5 * rho * (1.0 + rho * _rowdot(y, hy)))[:, None] * s - rho[:, None] * hy
        vs = v[:, :, None] * s[:, None, :]
        h = self.hess[rows] = h + vs + vs.transpose(0, 2, 1)

        f_old, f_new, g_new = self.f[rows], ft[rows], gt[rows]
        slack = F_TOL * np.maximum(np.abs(f_new), 1.0)
        # f_old - f_new <= F_TOL * max(|f_old|, |f_new|, 1)
        converged = (np.abs(g_new).max(axis=1) <= GRAD_TOL) | (f_old - f_new <= np.maximum(self.slack[rows], slack))
        self.x[rows], self.f[rows], self.g[rows], self.slack[rows] = trial[rows], f_new, g_new, slack
        self.iters[rows] += 1
        p = self.p[rows] = -(h @ g_new[:, :, None])[:, :, 0]
        self.slope0[rows] = _rowdot(p, g_new)
        self.step[rows] = 1.0
        self.tries[rows] = 0
        return converged, converged | (self.iters[rows] >= max_iters)

    def keep(self, mask) -> None:
        for name, value in vars(self).items():
            setattr(self, name, value[mask])


def _next_step(lo: list[float], hi: list[float]) -> float:
    """Next trial step of a line search from its bracket ends (step, value, slope).

    A bracketed search takes the minimizer of the cubic through both ends'
    values and slopes (Nocedal and Wright, eq. 3.59) where it lies inside the
    bracket, at least 1e-4 of its width from either end, and the midpoint
    otherwise; an unbracketed one takes four times its last step.
    """
    a, fa, da = lo
    b, fb, db = hi
    if math.isinf(b):
        return 4.0 * a
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    rad = d1 * d1 - da * db
    if rad >= 0.0:
        d2 = math.copysign(math.sqrt(rad), b - a)
        denom = db - da + 2.0 * d2
        if denom != 0.0:
            cubic = b - (b - a) * (db + d2 - d1) / denom
            margin = 1e-4 * abs(b - a)
            if min(a, b) + margin <= cubic <= max(a, b) - margin:
                return cubic
    return 0.5 * (a + b)


class MinimizeResult(NamedTuple):
    """Final points (k, d), their values, and success and accepted steps per
    start; nfev is the number of batched calls to the objective."""

    x: np.ndarray
    fun: np.ndarray
    success: np.ndarray
    nit: np.ndarray
    nfev: int


def _scipy_minimize(fun, x0: np.ndarray, max_iters: int) -> MinimizeResult:
    """The optimizer seam of both oracles: `_lockstep_minimize` from the raw starts x0.

    Each start is first moved by 5% of every nonzero angle and to 0.00025
    where an angle is 0, since the axis trees are stationary points by
    symmetry and a gradient method would stop on them. No scipy is involved;
    the name is the one the benchmark's tracer wraps (it reads the result's
    nfev), and it stays until that tracer binds `_lockstep_minimize` itself.
    Callers look it up by module name, so a test or tracer can replace it.
    """
    return _lockstep_minimize(fun, np.where(x0 != 0.0, 1.05 * x0, 0.00025), max_iters)


def _lockstep_minimize(fun, x0: np.ndarray, max_iters: int) -> MinimizeResult:
    """BFGS from the k rows of x0 at once; the minimizer of both oracles,
    which reach it through `_scipy_minimize`.

    fun maps a (k, d) array of points to their k values and (k, d)
    gradients. Each start runs its own dense BFGS with a strong-Wolfe line
    search (c1 = 1e-3 and c2 = 0.9, as in L-BFGS-B's; first trial step 1/|g|,
    later ones 1), and every step evaluates the trial points of all running
    starts in one call. A start succeeds when max|g| <= GRAD_TOL, or when an
    accepted step lowers f by at most F_TOL * max(|f_old|, |f|, 1) (L-BFGS-B's
    two tests); it fails after max_iters accepted steps, or after
    SEARCH_EVALS trials without one, keeping its last accepted point.
    """
    x = np.array(x0, dtype=float)
    n_starts = len(x)
    f, g = fun(x)
    nfev = 1
    out_x, out_f, nit = x.copy(), f.copy(), np.zeros(n_starts, dtype=int)
    success = np.abs(g).max(axis=1) <= GRAD_TOL
    run = None if success.all() else _SearchStarts(*(a[~success] for a in (np.arange(n_starts), x, f, g)))
    searching = False
    while run is not None and run.ids.size:
        trial = run.x + run.step[:, None] * run.p
        ft, gt = fun(trial)
        nfev += 1
        slope = _rowdot(gt, run.p)
        sufficient, curvature = run.sufficient(ft), np.abs(slope) <= -WOLFE_C2 * run.slope0
        if searching or not (sufficient & curvature).all():
            # some start rejects its trial, or is inside a line search
            accept, finished = run.search(ft, slope, sufficient, curvature)
            rows = np.flatnonzero(accept)
            converged = np.zeros_like(accept)
            converged[rows], finished[rows] = run.advance(rows, trial, ft, gt, max_iters)
            searching = bool(run.tries.any())
        else:
            converged, finished = run.advance(slice(None), trial, ft, gt, max_iters)
        if finished.any():
            success[run.ids[converged]] = True
            ids = run.ids[finished]
            out_x[ids], out_f[ids], nit[ids] = run.x[finished], run.f[finished], run.iters[finished]
            run.keep(~finished)
    return MinimizeResult(out_x, out_f, success, nit, nfev)


def minimize_discord(rho: DensityMatrix, cfg: OracleConfig | None = None) -> OracleResult:
    """Multi-start lockstep BFGS over measurement-tree angles, with the exact gradient.

    The cfg.starts starts and the cfg.starts restart starts run together in
    one `_scipy_minimize` call, which moves them off the axis trees (by 5% of
    every nonzero angle, and to 0.00025 where an angle is 0), each step one
    batched chain evaluation: a start converges when
    max|g| <= 1e-10 or a step lowers the value by at most 1e-15 relative, and
    stops unconverged after cfg.max_iters steps or a failed line search. The
    restart starts count only if the converged first starts spread by more
    than 1e-4; no start's path depends on another's, so this equals running
    them after the first ones. Deterministic given cfg.seed: every random
    start has its own spawned substream, and the reduction takes the minimum
    with ties broken by start index.
    """
    cfg = cfg or OracleConfig()
    n = rho.n_qubits
    if n < 2:
        raise ValueError("discord needs at least 2 qubits")
    if n > FULL_ORACLE_CAP:
        raise ValueError(f"n_qubits={n} exceeds oracle cap {FULL_ORACLE_CAP}")
    npar = len(_prefixes(n - 1))
    chain = _Chain(rho, n - 1)
    base = _unmeasured_term(rho, chain)
    seed_seq = np.random.SeedSequence(cfg.seed)

    def make_starts(count: int, with_axes: bool) -> np.ndarray:
        axes = [pair * npar for pair in AXIS_ANGLES[:count]] if with_axes else []
        # per start, npar draws of uniform(-1, 1) for cos(theta), then npar of uniform(0, 2 pi) for phi
        u = np.array([np.random.default_rng(child).random(2 * npar) for child in seed_seq.spawn(count - len(axes))])
        u = u.reshape(-1, 2 * npar)
        drawn = np.empty_like(u)
        drawn[:, 0::2] = np.arccos(-1.0 + 2.0 * u[:, :npar])
        drawn[:, 1::2] = 2 * np.pi * u[:, npar:]
        return np.concatenate((np.array(axes).reshape(-1, 2 * npar), drawn))

    x0 = np.concatenate((make_starts(cfg.starts, True), make_starts(cfg.starts, False)))
    res = _scipy_minimize(chain.value_and_grad, x0, cfg.max_iters)
    results = list(zip(res.fun.tolist(), res.x, res.success.tolist()))
    first = results[: cfg.starts]
    converged = [f for f, _, ok in first if ok]
    spread = float(max(converged) - min(converged)) if converged else float("nan")
    if converged and spread > SPREAD_FLAG:
        converged = [f for f, _, ok in results if ok]
        spread = float(max(converged) - min(converged))
    else:
        results = first

    best_fun, best_x, _ = min(results, key=lambda t: t[0])
    tree = MeasurementTree.from_angles(n - 1, best_x)
    return OracleResult(_clamp_zero(best_fun - base), tree, sum(1 for _, _, ok in results if ok), spread)


# --- reduced optimizer for the symmetric family ---------------------------


@lru_cache(maxsize=None)
def _tree_levels(n: int) -> list:
    """(ancestors, signs, parity) of the branches of each level m = 1..n-1.

    Branch b of level m has the outcomes of the m bits of b, first outcome
    most significant. Its length-t ancestor is prefix (1 << t) - 1 + (b >> (m - t))
    in prefix order, with outcome sign 1 - 2 * bit (m - 1 - t) of b there; the
    arrays have shape (2^m, m), (2^m, m) and (2^m,).
    """
    levels = []
    for m in range(1, n):
        b, t = np.arange(1 << m)[:, None], np.arange(m)
        sign = 1.0 - 2.0 * ((b >> (m - 1 - t)) & 1)
        levels.append(((1 << t) - 1 + (b >> (m - t)), sign, sign.prod(axis=1)))
    return levels


def _leave_one_out(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Product over the last axis, and the products of all entries but each one."""
    ones = np.ones_like(v[..., :1])
    before = np.cumprod(np.concatenate((ones, v[..., :-1]), axis=-1), axis=-1)
    after = np.cumprod(np.concatenate((ones, v[..., :0:-1]), axis=-1), axis=-1)[..., ::-1]
    return before[..., -1] * v[..., -1], before * after


def _branch_gains(params: FamilyParams, zm, sign, eps) -> tuple[np.ndarray, np.ndarray]:
    """H_y(x) - H_y(0) of branches of one level, one per branch, and its gradient in zm.

    zm holds each branch's ancestor z values, shape (..., B, m) with column t
    the z of its length-t prefix, and sign their outcome signs, shape (B, m);
    y = s sum_t sign_t z_t. x = s below the final level; there it is the
    square root of the radicand s^2 + 2 eps s c3 P3 + c^2 prod(1 - z^2) +
    (c3 P3)^2, with P3 = prod z and eps the branch's cross-term sign: the
    attainable maximum over the transverse components. With h(v) = v log2 v
    and h' = log2 v + 1/ln 2 (0 for v <= 0, where h is 0), the gain's y
    derivative is h'(1+y+x) + h'(1+y-x) - 2 h'(1+y), and its radicand
    derivative (h'(1+y+x) - h'(1+y-x)) / 2x, taken as 0 at x = 0, where the
    radicand (s + eps c3 P3)^2 + c^2 prod(1 - z^2) sits at its minimum 0 in
    the angles; the radicand's z derivatives come from the products of all
    but one z and all but one 1 - z^2.
    """
    n, s, c3 = params.n_qubits, params.s, params.c3
    y = (sign * (s * zm)).sum(axis=-1)
    final = zm.shape[-1] == n - 1
    if not final:
        x = s
    else:
        c = max(abs(params.c1), abs(params.c2))
        p3, p3_without = _leave_one_out(zm)
        transverse, transverse_without = _leave_one_out(1.0 - zm * zm)
        rad = s * s + 2.0 * eps * s * c3 * p3 + c * c * transverse + (c3 * p3) ** 2
        x = np.sqrt(np.maximum(rad, 0.0))
    one_y = 1.0 + y
    v = np.stack((one_y + x, one_y - x, one_y))
    h = xlog2(v)
    gains = h[0] + h[1] - 2.0 * h[2]
    dh = np.log2(v, out=np.zeros_like(v), where=v > 0.0) + (v > 0.0) / _LN2
    grad = (dh[0] + dh[1] - 2.0 * dh[2])[..., None] * (s * sign)
    if final:
        d_rad = np.divide(dh[0] - dh[1], 2.0 * x, out=np.zeros_like(x), where=x > 0.0)
        cross = (eps * s * c3 + c3 * c3 * p3)[..., None] * p3_without
        grad += 2.0 * d_rad[..., None] * (cross - c * c * zm * transverse_without)
    return gains, grad


def _branch_terms(params: FamilyParams, zvec) -> list:
    """Weighted terms of every branch for z vectors of shape (..., d), one (..., 2^m) array per level m."""
    return [
        _branch_gains(params, zvec[..., anc], sign, parity)[0] / 2 ** (m + 1)
        for m, (anc, sign, parity) in enumerate(_tree_levels(params.n_qubits), start=1)
    ]


def _reduced_value_and_grad(params: FamilyParams, zvec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The reduced objective of z vectors of shape (..., d), and its exact z gradient.

    The z of a length-t prefix is column t of the branches of every later
    level m that start with that prefix, one contiguous block of 2^(m-t)
    branches each, so each column's branch gradients are summed by block.
    """
    value, grad = np.zeros(zvec.shape[:-1]), np.zeros_like(zvec)
    for m, (anc, sign, parity) in enumerate(_tree_levels(params.n_qubits), start=1):
        gains, d_zm = _branch_gains(params, zvec[..., anc], sign, parity)
        value += gains.sum(axis=-1) / 2 ** (m + 1)
        for t in range(m):
            block = d_zm[..., t].reshape(*zvec.shape[:-1], 1 << t, -1).sum(axis=-1)
            grad[..., (1 << t) - 1 : (2 << t) - 1] += block / 2 ** (m + 1)
    return value, grad


def reduced_objective(params: FamilyParams, point: ReducedPoint) -> ReducedObjective:
    """Per-level conditional-entropy gains for a z-component tree.

    G, F, T name the first, second, and third levels where they exist for the
    given size; W is always the final level (the only one involving c1, c2,
    c3 through the radicand, at its attainable maximum
    c^2 prod(1 - z^2) + (c3 P3)^2 over the transverse components); Y is the
    total.
    """
    n = params.n_qubits
    prefs = _prefixes(n - 1)
    if set(point.z3) != set(prefs):
        raise ValueError(f"point must supply z values for exactly the prefixes {prefs}")
    zvec = np.array([float(point.z3[p]) for p in prefs])
    if np.any(np.abs(zvec) > 1.0 + 1e-12):
        raise ValueError("z coordinates must lie in [-1, 1]")
    terms = [float(t.sum(axis=-1)) for t in _branch_terms(params, zvec)]
    total = float(sum(terms))
    g = terms[0] if n >= 3 else None
    f = terms[1] if n >= 3 else None
    t = terms[2] if n == 4 else None
    return ReducedObjective(g, f, t, terms[-1], total)


def minimize_reduced(params: FamilyParams, cfg: OracleConfig | None = None) -> OracleResult:
    """Symmetric-family discord by maximizing the reduced z-coordinate objective.

    The objective is maximized over one angle theta per outcome prefix, with
    z = cos(theta), so every z stays in [-1, 1] without bounds; negating the
    z of a prefix and swapping the subtrees of its two outcomes leaves the
    objective unchanged, so its maximum there is the one over [0, 1]^d. The
    starts are all-ones, all-zeros and all-0.5 z, then seeded random ones on
    [0, 1]^d up to min(cfg.starts, 12) in all: at least 3 and at most 12
    whatever cfg.starts says. They run in one `_scipy_minimize` call, whose
    start offset is needed here too (theta = 0, where z = 1, is a stationary
    point in theta), with the full oracle's stopping tests and cfg.max_iters,
    each step one batched evaluation of `_reduced_value_and_grad`. A 3-start
    solve takes about 0.08 s at 8 qubits and 0.7 s at 10; the cap is 10
    qubits.
    """
    cfg = cfg or OracleConfig()
    n = params.n_qubits
    if n < 2:
        raise ValueError("discord needs at least 2 qubits")
    if n > REDUCED_ORACLE_CAP:
        raise ValueError(f"n_qubits={n} exceeds reduced-oracle cap {REDUCED_ORACLE_CAP}")
    prefs = _prefixes(n - 1)
    d = len(prefs)

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    starts = [np.ones(d), np.zeros(d), np.full(d, 0.5)]
    starts += list(rng.uniform(0.0, 1.0, (max(0, min(cfg.starts, 12) - 3), d)))
    theta0 = np.arccos(np.array(starts))

    def negated(theta):
        value, grad = _reduced_value_and_grad(params, np.cos(theta))
        return -value, np.sin(theta) * grad

    theta, f, success, _, _ = _scipy_minimize(negated, theta0, cfg.max_iters)
    spread = float(np.ptp(f[success])) if success.any() else float("nan")
    best = int(np.argmin(f))
    y_max = -float(f[best])

    value = symmetric_spectrum(params).sum_xlog2() + n - 0.5 * h_scalar(params.s) - y_max
    point = ReducedPoint(dict(zip(prefs, np.cos(theta[best]).tolist())))
    return OracleResult(_clamp_zero(value), point, int(success.sum()), spread)


def minimize_family(params, cfg: OracleConfig | None = None) -> OracleResult:
    """Oracle discord of a family state, the one place that picks the oracle.

    Unphysical states raise ValueError first. A symmetric-family state above
    the full oracle's 4-qubit cap goes to `minimize_reduced` (its best_tree is
    a ReducedPoint); any other state past that cap is refused before it is
    realized, and the rest go densely to `minimize_discord`.
    """
    require_physical(params)
    if isinstance(params, FamilyParams) and params.n_qubits > FULL_ORACLE_CAP:
        return minimize_reduced(params, cfg)
    if params.n_qubits > FULL_ORACLE_CAP:
        raise ValueError(f"n_qubits={params.n_qubits} exceeds oracle cap {FULL_ORACLE_CAP}")
    return minimize_discord(family_dense(params), cfg)


def oracle_reaches(params) -> bool:
    """Whether `minimize_family` can solve this family state: up to 10 qubits
    for the symmetric family (reduced oracle), up to 4 for the others."""
    cap = REDUCED_ORACLE_CAP if isinstance(params, FamilyParams) else FULL_ORACLE_CAP
    return params.n_qubits <= cap
