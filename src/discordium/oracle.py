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
evaluation per step for every start still running. Both oracles move their
starts slightly off the axis trees (stationary points by symmetry) with
`_off_axis` and run them in one `_lockstep_minimize` call; both reduce every
start that ran with `MinimizeResult.reduce`, with no restart rule, and both
return the `MeasurementTree` that attains their value. The module needs only
numpy.

For the symmetric and GHZ families the transverse components of a tree enter
the chain only through the final level's Bloch norms, with a weight of at most
c^2 prod(1 - z^2), c the larger of |c1| and |c2| (mu for GHZ). Trees in the
plane of z and T, the letter `_transverse` picks, attain it, and the chain
falls as those norms grow, so the reduced oracle searches that plane alone:
`_Chain` on the state's 3^N (I, T, Z) Pauli tensor, built without a dense
state, is the chain in the z-T plane, and `minimize_reduced` minimizes it
with the same minimizer in one angle per prefix, up to 10 qubits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import reduce
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .pauli import DENSE_CAP, DensityMatrix, FamilyParams, GhzParams, _dense_dim, realize, require_count
from .spectral import family_spectrum, require_physical, von_neumann_entropy, xlog2

PROB_FLOOR = 1e-14
# the full oracle's stopping tests: relative decrease of f and largest gradient
# component, as L-BFGS-B's ftol and pgtol
F_TOL = 1e-15
GRAD_TOL = 1e-10
# strong-Wolfe constants of L-BFGS-B's line search, and its trials per search
WOLFE_C1 = 1e-3
WOLFE_C2 = 0.9
SEARCH_EVALS = 20
# a minimum within ZERO_CLAMP of 0 is reported as 0.0; one further below stays visible
ZERO_CLAMP = 1e-12
# symmetric and GHZ states above REDUCED_ABOVE qubits go to the reduced oracle, up to its cap
REDUCED_ABOVE, REDUCED_ORACLE_CAP = 4, 10

# (theta, phi) of the +z, +x, +y, -z, -x and -y directions
AXIS_ANGLES = (
    (0.0, 0.0), (np.pi / 2, 0.0), (np.pi / 2, np.pi / 2),
    (np.pi, 0.0), (np.pi / 2, np.pi), (np.pi / 2, -np.pi / 2),
)


@dataclass(frozen=True)
class MeasurementTree:
    """Conditional Bloch directions, one unit row per outcome prefix in prefix order.

    directions has shape (2^n_measured - 1, 3). Row 0 is the root, measuring
    qubit 1; rows 2^m - 1 .. 2^(m+1) - 2 are the 2^m prefixes of length m, as
    binary numbers with the first outcome most significant (0 for +, 1 for -),
    and each measures qubit m + 1. This is the order of `_Chain`. Trees
    compare and hash by value, so results that hold them do too.
    """

    n_measured: int
    directions: np.ndarray

    def __post_init__(self):
        require_count("n_measured", self.n_measured, 1)
        dirs = np.array(self.directions, dtype=float)
        rows = 2**self.n_measured - 1
        if dirs.shape != (rows, 3):
            raise ValueError(f"tree of {self.n_measured} measured qubits needs a ({rows}, 3) array, got {dirs.shape}")
        # a NaN or infinite component fails the unit test too; einsum sets no overflow flag
        unit = np.abs(np.sqrt(np.einsum("ij,ij->i", dirs, dirs)) - 1.0) <= 1e-12
        if not unit.all():
            row = int(unit.argmin())
            problem = "is not unit within 1e-12" if np.isfinite(dirs[row]).all() else "has a non-finite component"
            raise ValueError(f"direction row {row} {problem}")
        dirs.setflags(write=False)
        object.__setattr__(self, "directions", dirs)

    def __eq__(self, other):
        if not isinstance(other, MeasurementTree):
            return NotImplemented
        return self.n_measured == other.n_measured and np.array_equal(self.directions, other.directions)

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash((self.n_measured, (self.directions + 0.0).tobytes()))

    @classmethod
    def from_angles(cls, n_measured: int, angles: np.ndarray) -> "MeasurementTree":
        """Directions from a flat (theta, phi) vector in prefix order."""
        angles = np.asarray(angles, dtype=float).reshape(-1, 2)
        sin, cos = np.sin(angles), np.cos(angles)
        return cls(n_measured, np.column_stack((sin[:, 0] * cos[:, 1], sin[:, 0] * sin[:, 1], cos[:, 0])))


@dataclass(frozen=True)
class OracleConfig:
    """Both oracles' start count, steps per start and seed: `minimize_discord`
    runs 2 * starts starts, `minimize_reduced` max(3, min(starts, 12)). Each is a
    whole number by `pauli.require_count`: starts in 1..256 (2 * 256 full-oracle
    starts at 8 qubits hold 0.26 GB of BFGS estimates), max_iters in 1..10000, seed >= 0."""

    starts: int = 64
    max_iters: int = 2000
    seed: int = 0

    def __post_init__(self):
        for name, least, most in (("starts", 1, 256), ("max_iters", 1, 10000), ("seed", 0, None)):
            require_count(name, getattr(self, name), least, most)

    @classmethod
    def from_json(cls, path: str | Path) -> "OracleConfig":
        """Keys named like a field, other keys ignored; a finite integral float
        (16.0) counts as that int. A payload that is not an object, or a value
        the constructor refuses, raises ValueError naming the file."""
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: oracle config must be a JSON object, got {type(payload).__name__}")
        kwargs = {f.name: payload[f.name] for f in fields(cls) if f.name in payload}
        kwargs = {k: int(v) if isinstance(v, float) and v.is_integer() else v for k, v in kwargs.items()}
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class OracleResult:
    """The discord value, the tree that attains it, the converged count and
    spread over every start, and the oracle that ran ("full" or "reduced")."""

    value: float
    best_tree: MeasurementTree
    starts_converged: int
    spread: float
    oracle: str

    @property
    def branch(self) -> str:
        """The output label: "oracle" for the full oracle, "oracle[reduced]" for the reduced one."""
        return "oracle" if self.oracle == "full" else f"oracle[{self.oracle}]"


def _clamp_zero(value: float) -> float:
    return 0.0 if abs(value) <= ZERO_CLAMP else value


# row 2i + j, column a: s_a[j, i], so a (.., 4) block of rho[i, j] entries times it gives Tr[. s_a]
_PAULI_COLUMNS = np.array([[1, 0, 0, 1], [0, 1, 1j, 0], [0, 1, -1j, 0], [1, 0, 0, -1]])
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


def _transverse(params) -> tuple[float, float]:
    """T..T's weight and T's azimuth for a symmetric or GHZ state: T is X (phi = 0)
    unless |Y..Y| > |X..X|, then Y (phi = pi/2). GHZ has X..X = mu and Y..Y = mu Re(i^N)."""
    if isinstance(params, GhzParams):
        x, y = params.mu, (0.0 if params.n_qubits % 2 else (-1) ** (params.n_qubits // 2) * params.mu)
    else:
        x, y = params.c1, params.c2
    return (x, 0.0) if abs(x) >= abs(y) else (y, np.pi / 2)


def _pauli_tensor(rho) -> np.ndarray:
    """Flat T[a1..aN] = Tr[rho s_a1 x .. x s_aN], a1 most significant: 4^N reals
    over (I, X, Y, Z) for a dense state, and 3^N over (I, T, Z) for symmetric-
    family or GHZ parameters, T as `_transverse` picks it. Those weight I..I,
    T..T and either Z..Z and the single Z's, or every {I, Z}^N word (GHZ)."""
    if not isinstance(rho, DensityMatrix):
        # T..T sits at sum_i 3^i, Z..Z at twice that, and the Z on qubit N - i at 2 3^i
        n, uniform = rho.n_qubits, (3**rho.n_qubits - 1) // 2
        if isinstance(rho, GhzParams):
            # mu/2 (1 + (-1)^#Z) on every {I, Z}^N word: the product words of (1, 0, 1) and (1, 0, -1)
            tensor = 0.5 * rho.mu * sum(reduce(np.kron, [np.array([1.0, 0.0, z])] * n) for z in (1.0, -1.0))
        else:
            tensor = np.zeros(3**n)
            tensor[2 * uniform] = rho.c3
            tensor[2 * 3 ** np.arange(n)] = rho.s
        tensor[[0, uniform]] = 1.0, _transverse(rho)[0]
        return tensor
    acc = rho.entries.reshape(1, rho.dim, rho.dim)
    for _ in range(rho.n_qubits):
        a, d = acc.shape[0], acc.shape[1] // 2
        # sum_{i,j} rho[(i, .), (j, .)] s_a[j, i] over the leading qubit
        acc = acc.reshape(a, 2, d, 2, d).transpose(0, 2, 4, 1, 3).reshape(a, d * d, 4) @ _PAULI_COLUMNS
        acc = acc.transpose(0, 2, 1).reshape(4 * a, d, d)
    return np.ascontiguousarray(acc.reshape(-1).real)


class _Chain:
    """The measured conditional-entropy chain of one state, levels 1..N-1.

    Built once per state and evaluated for many trees at once: every
    evaluation takes a leading start axis of k trees, and all of them share
    the Pauli tensor. Row o of a prefix's projector block is the outcome-o
    projector (I +- r.s)/2 in Pauli coordinates, (1, +-r_x, +-r_y, +-r_z)/2;
    `_inputs` keeps each level's branch tensors for the backward pass of
    `value_and_grad`.

    The tensor's length tells its letters: a dense state's 4^N tensor takes
    every direction, the symmetric family's 3^N (I, T, Z) one the chain in
    the z-T plane, each direction (sin theta cos phi, cos theta) in (T, Z).
    The gather columns and the projector and Bloch-norm weights of those
    letters are chosen here, once.
    """

    def __init__(self, rho):
        self.tensor = _pauli_tensor(rho)
        self._levels = rho.n_qubits - 1
        self.letters = 4 if self.tensor.size == 4**rho.n_qubits else 3
        # every column of the letter-indexed constants, or those of I, T and Z, T in x's place
        cols = slice(None) if self.letters == 4 else [0, 1, 3]
        self._trig = _TRIG_A[:, cols], _TRIG_B[:, cols], _TRIG_SIGN[:, cols]
        self._half_signs, self._bloch_norm = _HALF_SIGNS[:, cols], _BLOCH_NORM[cols]
        self._halves = self._rows = None
        self._inputs = [None] * self._levels

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
        trig_a, trig_b, trig_sign = self._trig
        rows_and_jac = trig[..., trig_a] * trig[..., trig_b] * trig_sign
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
                g_out[..., :: width // self.letters] += grad_rows[:, 2 * b - 2 : 4 * b - 2]
            g_out = g_out.reshape(k, b, 2, width)
            np.matmul(g_out, w_in.swapaxes(-1, -2), out=grad_halves[:, b - 1 : 2 * b - 1])
            if level:
                g_out = np.matmul(halves[:, b - 1 : 2 * b - 1].swapaxes(-1, -2), g_out).reshape(k, b, -1)

        grad_plus = (grad_halves * self._half_signs).sum(axis=-2)
        grad = rows_and_jac[:, :, 1:] @ grad_plus[..., None]
        return value, grad.reshape(k, 2 * npar)

    def _propagate(self, plus: np.ndarray) -> None:
        """Fill every level's rows for k trees given as (1, r) rows, shape (k, P, letters).

        Level m holds 2^m branches per tree (rows 2^m - 2 .. 2^(m+1) - 3).
        Measuring with outcome +- maps a branch tensor W to (W[0] +- r.W[1:])/2,
        one batched contraction per level for all trees.
        """
        k = plus.shape[0]
        letters = self.letters
        halves = self._halves = plus[:, :, None, :] * self._half_signs
        rows = self._rows = np.empty((k, (2 << self._levels) - 2, letters))
        w = self.tensor.reshape(1, 1, -1)
        for m in range(self._levels):
            b = 1 << m
            w = self._inputs[m] = w.reshape(w.shape[0], b, letters, -1)
            w = np.matmul(halves[:, b - 1 : 2 * b - 1], w).reshape(k, 2 * b, -1)
            # next qubit's (p, w) in the tensor's letters, identity on every later qubit
            rows[:, 2 * b - 2 : 4 * b - 2] = w[..., :: w.shape[-1] // letters]

    def _eigen_terms(self):
        """Each row's eigenvalues (p +- |w|)/2, lam/p, log2(lam/p), the keep mask and |w|.

        Branches with p < 1e-14 and eigenvalues at or below 1e-14 are not
        kept; their ratio is 1 and their log ratio 0.
        """
        q = self._rows
        p = q[..., :1]
        norm = np.sqrt((q * q) @ self._bloch_norm)
        lam = 0.5 * (p + norm[..., None] * _PLUS_MINUS)
        keep = (lam > PROB_FLOOR) & (p >= PROB_FLOOR)
        ratio = np.divide(lam, p, out=np.ones_like(lam), where=keep)
        return lam, ratio, np.log2(ratio), keep, norm


def _unmeasured_term(rho, chain: _Chain) -> float:
    """S(rho) - S(rho_A1), S(rho) from a dense state's eigenvalues or a family
    state's closed-form spectrum; rho_A1 = (T0 I + t.s)/2 is read off the chain's
    tensor (identity on every later qubit), so its eigenvalues are (T0 +- |t|)/2."""
    entropy = von_neumann_entropy(rho) if isinstance(rho, DensityMatrix) else family_spectrum(rho).entropy_bits()
    first = chain.tensor[:: chain.tensor.size // chain.letters]
    lam = 0.5 * (first[0] + np.sqrt(first[1:] @ first[1:]) * _PLUS_MINUS)
    return entropy + float(xlog2(lam).sum())


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a * b).sum(axis=-1)


class _SearchStarts:
    """Per-start state of `_lockstep_minimize`, one row per start still running.

    Each start has its point x, value f, the roundoff allowance
    slack = F_TOL * max(|f|, 1), gradient g, dense inverse-Hessian estimate
    (the identity until its first update, while iters is 0), accepted steps,
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
        h, fresh = self.hess[rows], self.iters[rows] == 0
        if fresh.any():
            # the first update scales the identity by s.y / y.y (Nocedal and Wright, eq. 6.20)
            h *= np.where(fresh, sy / _rowdot(y, y), 1.0)[:, None, None]
        hy = (h @ y[:, :, None])[:, :, 0]
        rho = 1.0 / sy
        # H' = H + v s^T + s v^T is the BFGS inverse update; s.y > 0 after a strong-Wolfe step
        v = (0.5 * rho * (1.0 + rho * _rowdot(y, hy)))[:, None] * s - rho[:, None] * hy
        vs = v[:, :, None] * s[:, None, :]
        # in place: for rows = slice(None), h is a view of self.hess and the store is free
        h += vs
        h += vs.transpose(0, 2, 1)
        self.hess[rows] = h

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

    def reduce(self) -> tuple[int, int, float]:
        """Over every start: the lowest value's index (the first on ties), the
        converged count, and the converged values' spread (NaN if none)."""
        done = self.fun[self.success]
        spread = float(np.ptp(done)) if done.size else float("nan")
        return int(np.argmin(self.fun)), int(self.success.sum()), spread


def _off_axis(x0: np.ndarray) -> np.ndarray:
    """Starts moved by 5% of every nonzero angle and to 0.00025 where an angle
    is 0: the axis trees are stationary points by symmetry, and a gradient
    method would stop on them."""
    return np.where(x0 != 0.0, 1.05 * x0, 0.00025)


def _lockstep_minimize(fun, x0: np.ndarray, max_iters: int) -> MinimizeResult:
    """BFGS from the k rows of x0 at once; the minimizer of both oracles.

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
    while run is not None and run.ids.size:
        trial = run.x + run.step[:, None] * run.p
        ft, gt = fun(trial)
        nfev += 1
        slope = _rowdot(gt, run.p)
        sufficient, curvature = run.sufficient(ft), np.abs(slope) <= -WOLFE_C2 * run.slope0
        accept, finished = run.search(ft, slope, sufficient, curvature)
        # a slice when every row accepts keeps advance's in-place update of the estimates
        rows = slice(None) if accept.all() else np.flatnonzero(accept)
        converged = np.zeros_like(accept)
        converged[rows], finished[rows] = run.advance(rows, trial, ft, gt, max_iters)
        if finished.any():
            success[run.ids[converged]] = True
            ids = run.ids[finished]
            out_x[ids], out_f[ids], nit[ids] = run.x[finished], run.f[finished], run.iters[finished]
            run.keep(~finished)
    return MinimizeResult(out_x, out_f, success, nit, nfev)


# bench/tracing.py wraps this name and reads the result's nfev; being the same
# object, its wrapper replaces `_lockstep_minimize` too, so the oracles' calls are seen
_scipy_minimize = _lockstep_minimize


def minimize_discord(rho: DensityMatrix, cfg: OracleConfig | None = None) -> OracleResult:
    """Multi-start lockstep BFGS over measurement-tree angles, with the exact gradient.

    The 2 cfg.starts starts are the first min(cfg.starts, 6) axis trees
    (+z, +x, +y, -z, -x, -y at every prefix), then seeded random trees, tree
    i from row i of one generator's draws. `_off_axis` moves them off the axis
    trees (by 5% of every nonzero angle, and to 0.00025 where an angle is 0),
    and they run in one `_lockstep_minimize` call, each step one batched chain
    evaluation: a start converges when max|g| <= 1e-10 or a step lowers the
    value by at most 1e-15 relative, and stops unconverged after
    cfg.max_iters steps or a failed line search. Every start counts in the
    value, starts_converged and spread; best_tree is the lowest start's tree.
    Up to the dense cap, 8 qubits, where 3 starts take about 0.5 s.
    """
    cfg = cfg or OracleConfig()
    n = rho.n_qubits
    if n < 2:
        raise ValueError("discord needs at least 2 qubits")
    npar = _dense_dim(n) // 2 - 1
    chain = _Chain(rho)
    base = _unmeasured_term(rho, chain)
    axes = np.array([pair * npar for pair in AXIS_ANGLES[: cfg.starts]])
    # per row, npar draws of uniform(0, 1) for cos(theta), then npar for phi
    u = np.random.default_rng(cfg.seed).random((2 * cfg.starts - len(axes), 2 * npar))
    drawn = np.stack((np.arccos(-1.0 + 2.0 * u[:, :npar]), 2 * np.pi * u[:, npar:]), axis=-1)
    x0 = np.concatenate((axes, drawn.reshape(len(u), 2 * npar)))
    res = _lockstep_minimize(chain.value_and_grad, _off_axis(x0), cfg.max_iters)
    best, converged, spread = res.reduce()
    tree = MeasurementTree.from_angles(n - 1, res.x[best])
    return OracleResult(_clamp_zero(float(res.fun[best]) - base), tree, converged, spread, "full")


# --- reduced optimizer for the permutation-symmetric families --------------


def minimize_reduced(params, cfg: OracleConfig | None = None) -> OracleResult:
    """Discord of a symmetric-family or GHZ state by minimizing the chain in the z-T plane.

    `_Chain` on the state's (I, T, Z) Pauli tensor is minimized over one
    angle theta per outcome prefix with phi = 0, each direction (sin theta,
    cos theta) in (T, Z). Negating the z of a prefix and swapping the
    subtrees of its two outcomes leaves the chain unchanged, so the starts
    need z in [0, 1] only: all-ones, all-zeros and all-0.5 z, then seeded
    random ones on [0, 1]^d up to min(cfg.starts, 12) in all, at least 3
    whatever cfg.starts says. `_off_axis` moves them too (theta = 0 is a
    stationary point), and they run in one `_lockstep_minimize` call with
    the full oracle's stopping tests and cfg.max_iters, each step one batched
    chain evaluation. A 3-start solve takes about 0.03 s at 8 qubits and
    0.4 s at 10; the cap is 10 qubits. Physicality is not checked here.

    best_tree attains the value: the best start's theta at every prefix,
    with T's azimuth from `_transverse` (phi = 0 for X, pi/2 for Y).
    """
    cfg = cfg or OracleConfig()
    n = params.n_qubits
    if n > REDUCED_ORACLE_CAP:
        raise ValueError(f"n_qubits={n} exceeds reduced-oracle cap {REDUCED_ORACLE_CAP}")
    d = 2 ** (n - 1) - 1
    chain = _Chain(params)
    base = _unmeasured_term(params, chain)
    drawn = np.random.default_rng(cfg.seed).random((max(0, min(cfg.starts, 12) - 3), d))
    theta0 = np.arccos(np.concatenate((np.array([np.ones(d), np.zeros(d), np.full(d, 0.5)]), drawn)))

    def in_plane(theta):
        angles = np.zeros((len(theta), 2 * d))
        angles[:, ::2] = theta
        value, grad = chain.value_and_grad(angles)
        return value, grad[:, ::2]

    res = _lockstep_minimize(in_plane, _off_axis(theta0), cfg.max_iters)
    best, converged, spread = res.reduce()
    phi = _transverse(params)[1]
    tree = MeasurementTree.from_angles(n - 1, np.column_stack((res.x[best], np.full(d, phi))))
    return OracleResult(_clamp_zero(float(res.fun[best]) - base), tree, converged, spread, "reduced")


def _family_oracle(params) -> tuple[str, int]:
    """The one routing rule: the oracle that solves a family state, named as in
    `OracleResult.oracle`, and its qubit cap: the reduced one for a symmetric or
    GHZ state above REDUCED_ABOVE qubits, else the full one, up to the dense cap."""
    if isinstance(params, (FamilyParams, GhzParams)) and params.n_qubits > REDUCED_ABOVE:
        return "reduced", REDUCED_ORACLE_CAP
    return "full", DENSE_CAP


def minimize_family(params, cfg: OracleConfig | None = None) -> OracleResult:
    """Oracle discord of a family state, the one place that picks the oracle.

    Unphysical states raise ValueError first. A symmetric or GHZ state above
    4 qubits goes to `minimize_reduced`, up to 10 qubits; the rest go to
    `minimize_discord` through `realize`, up to the dense cap. Either way best_tree
    is a `MeasurementTree` that attains the value, and the result's oracle
    field and branch label say which oracle ran.
    """
    require_physical(params)
    if _family_oracle(params)[0] == "reduced":
        return minimize_reduced(params, cfg)
    return minimize_discord(realize(params), cfg)


def oracle_reaches(params) -> bool:
    """Whether `minimize_family` can solve this family state: up to 10 qubits for
    the symmetric and GHZ families (reduced oracle), up to 8 for the diagonal one."""
    return params.n_qubits <= _family_oracle(params)[1]
