"""Per-layer tracing for the benchmark: spans around discordium's public functions.

`install` replaces each traced function in every discordium module that binds
it (for example `discordium.analytic.realize` as well as
`discordium.pauli.realize`), so calls between modules are seen too. The
call from `oracle` into `scipy.optimize.minimize` is wrapped as
`oracle.nm` or `oracle.powell` by its method. Spans stay in memory; `dump`
writes them out once the run is over. A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from dataclasses import dataclass

LAYER_METRICS = (
    ("pauli.realize.calls", "count", "lower"),
    ("pauli.realize.ms", "ms", "lower"),
    ("pauli.realize.max_dim", "count", "lower"),
    ("spectral.eigvalsh.calls", "count", "lower"),
    ("spectral.eigvalsh.ms", "ms", "lower"),
    ("spectral.closed_form.calls", "count", "lower"),
    ("spectral.closed_form.ms", "ms", "lower"),
    ("spectral.eigenvalues_built", "count", "lower"),
    ("analytic.discord_symmetric.calls", "count", "lower"),
    ("analytic.discord_symmetric.ms", "ms", "lower"),
    ("analytic.max_w.ms", "ms", "lower"),
    ("analytic.discord_ghz.ms", "ms", "lower"),
    ("analytic.discord_diagonal_field.ms", "ms", "lower"),
    ("oracle.minimize_discord.calls", "count", "lower"),
    ("oracle.minimize_discord.ms", "ms", "lower"),
    ("oracle.nm.starts", "count", "lower"),
    ("oracle.nm.nfev", "count", "lower"),
    ("oracle.nm.ms", "ms", "lower"),
    ("oracle.nm.us_per_eval", "us", "lower"),
    ("oracle.restarts", "count", "lower"),
    ("oracle.minimize_reduced.calls", "count", "lower"),
    ("oracle.minimize_reduced.ms", "ms", "lower"),
    ("oracle.powell.nfev", "count", "lower"),
    ("oracle.powell.ms", "ms", "lower"),
    ("decoherence.dynamics_sweep.rows", "count", "higher"),
    ("decoherence.dynamics_sweep.ms", "ms", "lower"),
    ("decoherence.detect_freeze_transition.ms", "ms", "lower"),
    ("cli.main.calls", "count", "higher"),
    ("cli.main.ms", "ms", "lower"),
    ("cli.out_bytes", "bytes", "higher"),
    ("traced.wall_s", "s", "lower"),
)


@dataclass
class Span:
    id: int
    parent: int | None
    request: tuple[int, int] | None
    name: str
    start: float
    end: float
    self_s: float
    info: dict | None
    error: str | None


def _spectrum_size(args, kwargs, result):
    return {"eigenvalues": len(result.eigenvalues)}


def _oracle_cfg_starts(args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    return {"starts": cfg.starts if cfg is not None else None}


def _traced_functions(dc):
    """(span name, function, info hook) for every traced public function."""
    from discordium import analytic, cli, decoherence, oracle, pauli, spectral

    out = [
        ("pauli.realize", pauli.realize, lambda a, k, r: {"dim": r.dim}),
        ("spectral.eigvalsh", spectral.hermitian_eigenvalues, _spectrum_size),
    ]
    for fn in (
        spectral.closed_form_spectrum_3q,
        spectral.closed_form_spectrum_4q,
        spectral.ghz_spectrum,
        spectral.diagonal_field_spectrum,
    ):
        out.append(("spectral.closed_form", fn, _spectrum_size))
    out += [
        ("analytic.discord_symmetric", analytic.discord_symmetric, None),
        ("analytic.max_w", analytic.max_w, None),
        ("analytic.discord_ghz", analytic.discord_ghz, None),
        ("analytic.discord_diagonal_field", analytic.discord_diagonal_field, None),
        ("oracle.minimize_discord", oracle.minimize_discord, _oracle_cfg_starts),
        ("oracle.minimize_reduced", oracle.minimize_reduced, None),
        (
            lambda a, k: "oracle.nm" if k.get("method") == "Nelder-Mead" else "oracle.powell",
            oracle._scipy_minimize,
            lambda a, k, r: {"nfev": int(r.nfev)},
        ),
        ("decoherence.dynamics_sweep", decoherence.dynamics_sweep, lambda a, k, r: {"rows": len(r.rows)}),
        ("decoherence.detect_freeze_transition", decoherence.detect_freeze_transition, None),
        ("cli.main", cli.main, None),
    ]
    return out, (dc, pauli, spectral, analytic, oracle, decoherence, cli)


class Tracer:
    """Collects spans from wrapped discordium functions, grouped by request."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request: tuple[int, int] | None = None
        self._stack: list[list] = []
        self._ids = itertools.count()

    def _wrap(self, name, fn, info):
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            sid = next(self._ids)
            parent = self._stack[-1][0] if self._stack else None
            frame = [sid, 0.0]
            self._stack.append(frame)
            result, error = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                extra = info(args, kwargs, result) if info and error is None else None
                self.spans.append(
                    Span(sid, parent, self.request, span_name, start, end, end - start - frame[1], extra, error)
                )

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, dc) -> None:
        """Wrap every traced function wherever a discordium module binds it."""
        functions, modules = _traced_functions(dc)
        for name, fn, info in functions:
            wrapper = self._wrap(name, fn, info)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

    def round_metrics(self, round_index: int) -> dict[str, float]:
        """Per-layer totals of one timed round."""
        spans = [sp for sp in self.spans if sp.request is not None and sp.request[0] == round_index]
        by_name: dict[str, list[Span]] = {}
        for sp in spans:
            by_name.setdefault(sp.name, []).append(sp)

        def calls(name):
            return len(by_name.get(name, []))

        def ms(name):
            return 1e3 * sum(sp.self_s for sp in by_name.get(name, []))

        def info_sum(names, key):
            return sum(sp.info[key] for n in names for sp in by_name.get(n, []) if sp.info)

        nm_children: dict[int, int] = {}
        for sp in by_name.get("oracle.nm", []):
            nm_children[sp.parent] = nm_children.get(sp.parent, 0) + 1
        restarts = sum(
            1
            for sp in by_name.get("oracle.minimize_discord", [])
            if sp.info and sp.info["starts"] is not None and nm_children.get(sp.id, 0) > sp.info["starts"]
        )
        nm_nfev = info_sum(["oracle.nm"], "nfev")
        dims = [sp.info["dim"] for sp in by_name.get("pauli.realize", []) if sp.info]
        return {
            "pauli.realize.calls": calls("pauli.realize"),
            "pauli.realize.ms": ms("pauli.realize"),
            "pauli.realize.max_dim": max(dims, default=0),
            "spectral.eigvalsh.calls": calls("spectral.eigvalsh"),
            "spectral.eigvalsh.ms": ms("spectral.eigvalsh"),
            "spectral.closed_form.calls": calls("spectral.closed_form"),
            "spectral.closed_form.ms": ms("spectral.closed_form"),
            "spectral.eigenvalues_built": info_sum(["spectral.eigvalsh", "spectral.closed_form"], "eigenvalues"),
            "analytic.discord_symmetric.calls": calls("analytic.discord_symmetric"),
            "analytic.discord_symmetric.ms": ms("analytic.discord_symmetric"),
            "analytic.max_w.ms": ms("analytic.max_w"),
            "analytic.discord_ghz.ms": ms("analytic.discord_ghz"),
            "analytic.discord_diagonal_field.ms": ms("analytic.discord_diagonal_field"),
            "oracle.minimize_discord.calls": calls("oracle.minimize_discord"),
            "oracle.minimize_discord.ms": ms("oracle.minimize_discord"),
            "oracle.nm.starts": calls("oracle.nm"),
            "oracle.nm.nfev": nm_nfev,
            "oracle.nm.ms": ms("oracle.nm"),
            "oracle.nm.us_per_eval": 1e3 * ms("oracle.nm") / nm_nfev if nm_nfev else 0.0,
            "oracle.restarts": restarts,
            "oracle.minimize_reduced.calls": calls("oracle.minimize_reduced"),
            "oracle.minimize_reduced.ms": ms("oracle.minimize_reduced"),
            "oracle.powell.nfev": info_sum(["oracle.powell"], "nfev"),
            "oracle.powell.ms": ms("oracle.powell"),
            "decoherence.dynamics_sweep.rows": info_sum(["decoherence.dynamics_sweep"], "rows"),
            "decoherence.dynamics_sweep.ms": ms("decoherence.dynamics_sweep"),
            "decoherence.detect_freeze_transition.ms": ms("decoherence.detect_freeze_transition"),
            "cli.main.calls": calls("cli.main"),
            "cli.main.ms": ms("cli.main"),
        }

    def dump(self, path) -> None:
        """Write every span as one JSON line, times relative to the first span."""
        t0 = min((sp.start for sp in self.spans), default=0.0)
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sp.id,
                            "parent": sp.parent,
                            "request": list(sp.request) if sp.request else None,
                            "name": sp.name,
                            "start_us": round(1e6 * (sp.start - t0), 1),
                            "end_us": round(1e6 * (sp.end - t0), 1),
                            "self_us": round(1e6 * sp.self_s, 1),
                            "info": sp.info,
                            "error": sp.error,
                        }
                    )
                    + "\n"
                )


def median_rounds(per_round: list[dict[str, float]]) -> dict[str, float]:
    """Median over rounds of each per-round layer total."""
    return {key: statistics.median(r[key] for r in per_round) for key in per_round[0]}
