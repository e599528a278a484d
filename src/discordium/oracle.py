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
tree's (theta, phi) angles. `minimize_discord` runs L-BFGS-B on it from
several starts, each moved slightly off the axis trees, which are stationary
points by symmetry.

A reduced optimizer specialized to the symmetric family works in the z
components of the tree directions only. For that family the transverse
components enter solely through the final-level radicand, where they are
maximized out exactly (the discord objective is monotone in that radicand),
so the reduction loses nothing while extending tractable sizes to 10 qubits.
It is maximized by coordinate line sweeps on narrowing windows, stopped early
once a narrowed pass leaves a vertex of [0, 1]^d unmoved. The z of the prefix
u enters only the branches that start with u, so each line re-evaluates those
branches alone and adds the cached terms of the rest: a 3-start solve takes
about 0.26 s at 8 qubits and 1.3 s at 10.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import product
from pathlib import Path

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from .pauli import PAULI, DensityMatrix, FamilyParams, family_dense, partial_trace
from .spectral import h_scalar, require_physical, symmetric_spectrum, von_neumann_entropy, xlog2

PROB_FLOOR = 1e-14
# L-BFGS-B's ftol and projected-gradient tolerance in the full oracle
F_TOL = 1e-15
GRAD_TOL = 1e-10
SPREAD_FLAG = 1e-4
# a minimum within ZERO_CLAMP of 0 is reported as 0.0; one further below stays visible
ZERO_CLAMP = 1e-12
FULL_ORACLE_CAP = 4
REDUCED_ORACLE_CAP = 10

# reduced search: points per line, sweeps per pass, least gain taken,
# window shrink per pass, and the half-width that ends it
GRID_POINTS = 101
MAX_SWEEPS = 40
SWEEP_GAIN = 1e-13
WINDOW_SHRINK = 0.04
WINDOW_MIN = 1e-10

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
        if self.starts < 1:
            raise ValueError("starts must be >= 1")

    @classmethod
    def from_json(cls, path: str | Path) -> "OracleConfig":
        """Keys named like a field, cast to that field's type; other keys are ignored.
        A payload that is not an object, or a value that does not cast, raises ValueError."""
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: oracle config must be a JSON object, got {type(payload).__name__}")
        kwargs = {}
        for f in fields(cls):
            if f.name in payload:
                try:
                    kwargs[f.name] = type(f.default)(payload[f.name])
                except (TypeError, ValueError):
                    raise ValueError(f"{path}: {f.name} must be a number, got {payload[f.name]!r}") from None
        return cls(**kwargs)


@dataclass(frozen=True)
class ReducedPoint:
    """z components of a tree, keyed by outcome prefix; optional explicit
    final-level radicand auxiliaries keyed by the parent prefix."""

    z3: dict[str, float]
    phi: dict[str, float] | None = None


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


_PAULI_STACK = np.array([PAULI[c] for c in "IXYZ"])
_PLUS_MINUS = np.array([1.0, -1.0])
_BLOCH_NORM = np.array([0.0, 1.0, 1.0, 1.0])
_LN2 = np.log(2.0)


def _pauli_tensor(rho: DensityMatrix) -> np.ndarray:
    """Flat T[a1..aN] = Tr[rho s_a1 x .. x s_aN], a1 most significant; 4^N reals."""
    acc = rho.entries.reshape(1, rho.dim, rho.dim)
    for _ in range(rho.n_qubits):
        a, d = acc.shape[0], acc.shape[1] // 2
        # sum_{i,j} rho[(i, .), (j, .)] s_a[j, i] over the leading qubit
        acc = np.tensordot(acc.reshape(a, 2, d, 2, d), _PAULI_STACK, axes=([1, 3], [2, 1]))
        acc = np.moveaxis(acc, 3, 1).reshape(4 * a, d, d)
    return np.ascontiguousarray(acc.reshape(-1).real)


class _Chain:
    """The measured conditional-entropy chain of one state, levels 1..levels.

    Built once per state and evaluated for many trees. Row o of `_halves[j]`
    holds the outcome-o projector (I +- r.s)/2 of prefix j in Pauli
    coordinates, (1, +-r_x, +-r_y, +-r_z)/2; the buffers are reused by every
    evaluation, and `_inputs` keeps each level's branch tensor for the
    backward pass of `value_and_grad`.
    """

    def __init__(self, rho: DensityMatrix, levels: int):
        self._tensor = _pauli_tensor(rho)
        self._halves = np.full((2**levels - 1, 2, 4), 0.5)
        self._plus = self._halves[:, 0, 1:]
        self._minus = self._halves[:, 1, 1:]
        self._rows = np.empty((2 ** (levels + 1) - 2, 4))
        self._steps = [
            (self._halves[(1 << m) - 1 : (2 << m) - 1], 1 << m, self._rows[(2 << m) - 2 : (4 << m) - 2])
            for m in range(levels)
        ]
        self._inputs = [None] * levels

    def at_directions(self, directions: np.ndarray) -> np.ndarray:
        """Branch entropies for unit Bloch vectors, one row per prefix in prefix order."""
        self._plus[:] = directions
        self._propagate()
        lam, log_ratio, _, _ = self._eigen_terms()
        return -(lam * log_ratio).sum(axis=1)

    def value_and_grad(self, angles: np.ndarray) -> tuple[float, np.ndarray]:
        """Chain sum and its exact gradient for (theta, phi) pairs in prefix order.

        A row (p, w) has entropy e = -sum_+- lam log2(lam/p) with
        lam = (p +- |w|)/2, so de/dp = log2 p - (log2 lam+ + log2 lam-)/2 and
        de/dw = -(atanh(x)/x) w / (p ln 2) with x = |w|/p, finite at w = 0.
        A floored branch or eigenvalue adds 0 to the value and the gradient;
        with only lam+ kept, its own term's derivatives are used. The row
        gradients are then carried back through each level's contraction
        W' = H W into the projector rows (1, +-r)/2, and from r to the angles.
        """
        ct, st = np.cos(angles[0::2]), np.sin(angles[0::2])
        cp, sp = np.cos(angles[1::2]), np.sin(angles[1::2])
        np.multiply(st, cp, out=self._plus[:, 0])
        np.multiply(st, sp, out=self._plus[:, 1])
        self._plus[:, 2] = ct
        self._propagate()
        lam, log_ratio, keep, norm = self._eigen_terms()
        value = -float((lam * log_ratio).sum())

        q = self._rows
        p = q[:, 0]
        both = keep[:, 1]
        # rows with both eigenvalues kept: de/dp, and coef = -(de/d|w|)/|w|
        x = np.divide(norm, p, out=np.zeros_like(norm), where=both)
        atanh_ratio = np.divide(np.arctanh(x), x, out=np.ones_like(x), where=x > 0.0)
        coef = np.divide(atanh_ratio, p * _LN2, out=np.zeros_like(x), where=both)
        dp = np.where(both, -0.5 * (log_ratio[:, 0] + log_ratio[:, 1]), 0.0)
        upper = np.flatnonzero(keep[:, 0] & ~both)
        if upper.size:
            # only lam+ = (p + |w|)/2 kept, which needs |w| > 0
            half = 0.5 * (log_ratio[upper, 0] + 1.0 / _LN2)
            dp[upper] = lam[upper, 0] / (p[upper] * _LN2) - half
            coef[upper] = half / norm[upper]
        grad_rows = q * -coef[:, None]
        grad_rows[:, 0] = dp

        grad_halves = np.empty_like(self._halves)
        g_out = np.zeros((2 * self._steps[-1][1], self._inputs[-1].shape[2]))
        for m in range(len(self._steps) - 1, -1, -1):
            halves, b, _ = self._steps[m]
            w_in = self._inputs[m]
            width = w_in.shape[2]
            g_out[:, :: width // 4] += grad_rows[(2 << m) - 2 : (4 << m) - 2]
            g_out = g_out.reshape(b, 2, width)
            np.matmul(g_out, w_in.transpose(0, 2, 1), out=grad_halves[(1 << m) - 1 : (2 << m) - 1])
            if m:
                g_out = np.matmul(halves.transpose(0, 2, 1), g_out).reshape(b, -1)

        grad_r = 0.5 * (grad_halves[:, 0, 1:] - grad_halves[:, 1, 1:])
        grad = np.empty_like(angles)
        grad[0::2] = (grad_r[:, 0] * cp + grad_r[:, 1] * sp) * ct - grad_r[:, 2] * st
        grad[1::2] = (grad_r[:, 1] * cp - grad_r[:, 0] * sp) * st
        return value, grad

    def _propagate(self) -> None:
        """Fill every level's rows from the tree in `_plus`, keeping the branch tensors.

        Level m holds 2^m branches (rows 2^m - 2 .. 2^(m+1) - 3). Measuring
        with outcome +- maps a branch tensor W to (W[0] +- r.W[1:])/2, one
        batched contraction per level.
        """
        np.multiply(self._plus, 0.5, out=self._plus)
        np.negative(self._plus, out=self._minus)
        w = self._tensor
        for m, (halves, b, rows) in enumerate(self._steps):
            w = self._inputs[m] = w.reshape(b, 4, -1)
            w = np.matmul(halves, w).reshape(2 * b, -1)
            # next qubit's (p, w_x, w_y, w_z), identity on every later qubit
            rows[:] = w[:, :: w.shape[1] // 4]

    def _eigen_terms(self):
        """Each row's eigenvalues (p +- |w|)/2, log2(lam/p), the keep mask and |w|.

        Branches with p < 1e-14 and eigenvalues at or below 1e-14 are not
        kept; their log ratio is 0.
        """
        q = self._rows
        p = q[:, :1]
        norm = np.sqrt((q * q) @ _BLOCH_NORM)
        lam = 0.5 * (p + norm[:, None] * _PLUS_MINUS)
        keep = (lam > PROB_FLOOR) & (p >= PROB_FLOOR)
        ratio = np.divide(lam, p, out=np.ones_like(lam), where=keep)
        return lam, np.log2(ratio), keep, norm


def _tree_directions(tree: MeasurementTree, levels: int) -> np.ndarray:
    """Tree directions of the prefixes shorter than levels, in prefix order."""
    return np.array([tree.directions[p] for p in _prefixes(levels)])


def _unmeasured_term(rho: DensityMatrix) -> float:
    return von_neumann_entropy(rho) - von_neumann_entropy(partial_trace(rho, {1}))


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
    chain = _Chain(rho, n - 1).at_directions(_tree_directions(tree, n - 1))
    return float(chain.sum()) - _unmeasured_term(rho)


def minimize_discord(rho: DensityMatrix, cfg: OracleConfig | None = None) -> OracleResult:
    """Multi-start L-BFGS-B over measurement-tree angles, with the exact gradient.

    Each start is first moved by 5% of every nonzero angle and by 0.00025
    where an angle is 0, since the axis trees are stationary points by
    symmetry and a gradient method would stop on them. L-BFGS-B runs with
    ftol=1e-15, a projected-gradient tolerance of 1e-10 and at most
    cfg.max_iters iterations; a start converges when it reports success.
    Deterministic given cfg.seed: every start has its own spawned substream
    and the reduction takes the minimum with ties broken by start index.
    A spread above 1e-4 across converged starts doubles the start count once.
    """
    cfg = cfg or OracleConfig()
    n = rho.n_qubits
    if n < 2:
        raise ValueError("discord needs at least 2 qubits")
    if n > FULL_ORACLE_CAP:
        raise ValueError(f"n_qubits={n} exceeds oracle cap {FULL_ORACLE_CAP}")
    npar = len(_prefixes(n - 1))
    chain = _Chain(rho, n - 1)
    base = _unmeasured_term(rho)
    seed_seq = np.random.SeedSequence(cfg.seed)

    def make_starts(count: int, with_axes: bool) -> list[np.ndarray]:
        starts = [np.array(pair * npar) for pair in AXIS_ANGLES[:count]] if with_axes else []
        for child in seed_seq.spawn(count - len(starts)):
            rng = np.random.default_rng(child)
            th = np.arccos(rng.uniform(-1.0, 1.0, npar))
            ph = rng.uniform(0.0, 2 * np.pi, npar)
            starts.append(np.column_stack((th, ph)).ravel())
        return starts

    def run_batch(starts: list[np.ndarray]):
        outs = []
        for x0 in starts:
            res = _scipy_minimize(
                chain.value_and_grad,
                np.where(x0 != 0.0, 1.05 * x0, 0.00025),
                method="L-BFGS-B",
                jac=True,
                options={"ftol": F_TOL, "gtol": GRAD_TOL, "maxiter": cfg.max_iters},
            )
            outs.append((float(res.fun), res.x.copy(), bool(res.success)))
        return outs

    results = run_batch(make_starts(cfg.starts, True))
    converged = [f for f, _, ok in results if ok]
    spread = float(max(converged) - min(converged)) if converged else float("nan")
    if converged and spread > SPREAD_FLAG:
        results += run_batch(make_starts(cfg.starts, False))
        converged = [f for f, _, ok in results if ok]
        spread = float(max(converged) - min(converged))

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


def _branch_gains(params: FamilyParams, zm, sign, eps, phi=None, envelope: bool = False) -> np.ndarray:
    """H_y(x) - H_y(0) of branches of one level, one per branch.

    zm holds each branch's ancestor z values, shape (..., B, m) with column t
    the z of its length-t prefix, and sign their outcome signs, shape (B, m);
    y = s sum_t sign_t z_t. x = s below the final level; there it is the
    square root of the radicand s^2 + 2 eps s c3 P3 + phi, with eps the
    branch's cross-term sign and phi, unless given, the envelope or the
    attainable maximum (see `reduced_objective`).
    """
    n, s, c3 = params.n_qubits, params.s, params.c3
    y = (sign * (s * zm)).sum(axis=-1)
    if zm.shape[-1] < n - 1:
        x = s
    else:
        c = max(abs(params.c1), abs(params.c2))
        p3 = zm.prod(axis=-1)
        if phi is None:
            transverse = 1.0 - p3 * p3 if envelope else (1.0 - zm * zm).prod(axis=-1)
            phi = c * c * transverse + (c3 * p3) ** 2
        rad = s * s + 2.0 * eps * s * c3 * p3 + phi
        x = np.sqrt(np.maximum(rad, 0.0))
    one_y = 1.0 + y
    h = xlog2(np.stack((one_y + x, one_y - x, one_y)))
    return h[0] + h[1] - 2.0 * h[2]


def _branch_terms(params: FamilyParams, zvec, envelope=False, cross_sign="parity", phi=None) -> list:
    """Weighted terms of every branch for z vectors of shape (..., d), one (..., 2^m) array per level m.

    The final level's cross-term sign is the branch's outcome parity, or its
    last outcome for the printed pattern.
    """
    terms = []
    for m, (anc, sign, parity) in enumerate(_tree_levels(params.n_qubits), start=1):
        eps = parity if cross_sign == "parity" else sign[:, -1]
        terms.append(_branch_gains(params, zvec[..., anc], sign, eps, phi, envelope) / 2 ** (m + 1))
    return terms


def reduced_objective(
    params: FamilyParams,
    point: ReducedPoint,
    envelope: bool = False,
    cross_sign: str = "parity",
) -> ReducedObjective:
    """Per-level conditional-entropy gains for a z-component tree.

    G, F, T name the first, second, and third levels where they exist for the
    given size; W is always the final level (the only one involving c1, c2,
    c3 through the radicand); Y is the total. The final-level radicand uses,
    in order of precedence: explicit point.phi values, the loose product
    envelope c^2 (1 - P3^2) + (c3 P3)^2 when envelope=True, or the tight
    attainable maximum c^2 prod(1 - z^2) + (c3 P3)^2.
    """
    if cross_sign not in ("parity", "printed"):
        raise ValueError(f"unknown cross_sign {cross_sign!r}")
    n = params.n_qubits
    prefs = _prefixes(n - 1)
    if set(point.z3) != set(prefs):
        raise ValueError(f"point must supply z values for exactly the prefixes {prefs}")
    zvec = np.array([float(point.z3[p]) for p in prefs])
    if np.any(np.abs(zvec) > 1.0 + 1e-12):
        raise ValueError("z coordinates must lie in [-1, 1]")
    phi = point.phi
    if phi is not None:
        for w, val in phi.items():
            if len(w) != n - 2:
                raise ValueError("phi keys must be final-level parent prefixes")
            if val < -1e-12:
                raise ValueError("phi values must be nonnegative")
        missing = [w for w in prefs if len(w) == n - 2 and w not in phi]
        if missing:
            raise ValueError(f"phi lacks the final-level parent prefix {missing[0]!r}")
        # each final-level branch reads the value at its parent prefix
        phi = np.array([phi[prefs[j]] for j in _tree_levels(n)[-1][0][:, -1]])
    terms = [float(t.sum(axis=-1)) for t in _branch_terms(params, zvec, envelope, cross_sign, phi)]
    total = float(sum(terms))
    g = terms[0] if n >= 3 else None
    f = terms[1] if n >= 3 else None
    t = terms[2] if n == 4 else None
    return ReducedObjective(g, f, t, terms[-1], total)


@lru_cache(maxsize=None)
def _coordinate_reach(n: int):
    """For each coordinate, the branches it enters and the flat cache slots of the rest.

    The coordinate at prefix u (length t) enters only levels m > t, and there
    only the 2^(m-t) branches that start with u: one contiguous block per
    level, whose ancestor column t holds that coordinate. Entry i is
    ([(m, t, ancestors, signs, parity) of each block], block slots, other
    slots), with level m's branches at flat slots 2^m - 2 .. 2^(m+1) - 3.
    """
    levels = _tree_levels(n)
    out = []
    for i in range(2 ** (n - 1) - 1):
        t = (i + 1).bit_length() - 1
        k = i + 1 - (1 << t)
        blocks, slots = [], []
        for m in range(t + 1, n):
            block = slice(k << (m - t), (k + 1) << (m - t))
            blocks.append((m, t, *(a[block] for a in levels[m - 1])))
            slots.append(np.arange(block.start, block.stop) + (1 << m) - 2)
        slots = np.concatenate(slots)
        out.append((blocks, slots, np.setdiff1d(np.arange(2**n - 2), slots)))
    return out


class _ReducedLine:
    """The reduced objective along coordinate lines, from branch terms cached at a point.

    A line call evaluates `_branch_gains` only on the blocks that the swept
    coordinate enters and adds the cached terms of every other branch;
    `take(j)` writes grid point j's block terms of the last line into the
    cache, as the search moves there.
    """

    def __init__(self, params: FamilyParams, z: np.ndarray):
        self._params = params
        self._reach = _coordinate_reach(params.n_qubits)
        self._terms = np.concatenate(_branch_terms(params, z))
        self._last = None

    def __call__(self, z: np.ndarray, i: int, grid: np.ndarray) -> np.ndarray:
        blocks, slots, rest = self._reach[i]
        parts = []
        for m, t, anc, sign, parity in blocks:
            zm = np.empty((grid.size, *anc.shape))
            zm[:] = z[anc]
            zm[:, :, t] = grid[:, None]
            parts.append(_branch_gains(self._params, zm, sign, parity) / 2 ** (m + 1))
        self._last = (slots, np.concatenate(parts, axis=-1))
        return self._terms[rest].sum() + self._last[1].sum(axis=-1)

    def take(self, j: int) -> None:
        slots, terms = self._last
        self._terms[slots] = terms[j]


def _narrowing_search(line, z0: np.ndarray) -> tuple[float, np.ndarray, bool]:
    """Maximize on [0, 1]^d from z0 by coordinate line sweeps.

    `line(z, i, grid)` gives the objective at z with coordinate i set to each
    grid value, and `line.take(j)` tells it that z moved to grid point j of
    its last line. Sweeps use 101 points: the first pass on [0, 1], each later
    one on a window re-centred on the current coordinate, clipped to [0, 1]
    and 0.04 times as wide as the last, until its half-width is below 1e-10.
    A point is taken if it gains more than 1e-13; a pass ends after a sweep
    without a gain, or after 40 sweeps. The search also ends after a narrowed
    pass that takes no point while every coordinate is exactly 0 or 1: each
    later window is nested inside the one just swept and clipped to the same
    side of it, so only a finer grid could find a point there that this
    one missed. Returns the best value, its point, and whether no pass hit
    the sweep limit.
    """
    z = np.array(z0, dtype=float)
    best = float(line(z, 0, z[:1])[0])
    centre, half, converged = np.full(z.size, 0.5), 0.5, True
    while half >= WINDOW_MIN:
        for sweep in range(MAX_SWEEPS):
            improved = False
            for i in range(z.size):
                grid = np.linspace(max(centre[i] - half, 0.0), min(centre[i] + half, 1.0), GRID_POINTS)
                vals = line(z, i, grid)
                j = int(np.argmax(vals))
                if vals[j] > best + SWEEP_GAIN:
                    best = float(vals[j])
                    z[i] = grid[j]
                    line.take(j)
                    improved = True
            if not improved:
                break
        else:
            converged = False
        # a pass whose first sweep gains nothing took no point
        if sweep == 0 and half < 0.5 and np.all((z == 0.0) | (z == 1.0)):
            break
        # later windows are centred on z itself, so they follow it as it moves
        centre, half = z, half * WINDOW_SHRINK
    return best, z, converged


def minimize_reduced(params: FamilyParams, cfg: OracleConfig | None = None) -> OracleResult:
    """Symmetric-family discord by maximizing the reduced z-coordinate objective.

    `_narrowing_search` (on [0, 1] by evenness in each coordinate) runs from
    three deterministic and min(cfg.starts, 12) - 3 seeded random starts: at
    most 12 whatever cfg.starts says. Each line re-evaluates only the branches
    that the swept coordinate enters, against branch terms cached at the
    current point, and a start's search stops after a narrowed pass that
    takes no point at a vertex (every z exactly 0 or 1); a 3-start solve
    takes about 0.26 s at 8 qubits and the cap is 10 qubits. cfg.max_iters
    is not used. A start converges when its search hits no sweep limit.
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

    finals = [(*_narrowing_search(_ReducedLine(params, z0), z0), idx) for idx, z0 in enumerate(starts)]
    converged_vals = [v for v, _, ok, _ in finals if ok]
    spread = float(max(converged_vals) - min(converged_vals)) if converged_vals else float("nan")
    y_max, z_max, _, _ = max(finals, key=lambda t: (t[0], -t[3]))

    value = symmetric_spectrum(params).sum_xlog2() + n - 0.5 * h_scalar(params.s) - y_max
    point = ReducedPoint({p: float(z_max[i]) for i, p in enumerate(prefs)})
    return OracleResult(_clamp_zero(value), point, sum(1 for _, _, ok, _ in finals if ok), spread)


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
