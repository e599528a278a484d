"""The test references stay independent, and the package keeps none of them."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import discordium

REFERENCE = Path(__file__).with_name("reference.py")

# references that live in tests/reference.py, and test-only paths that are gone
MOVED = [
    "conditional_ensemble", "EnsembleBranch", "partial_trace", "phase_flip_kraus", "KrausSet",
    "apply_phase_flip_dense", "apply_phase_flip", "build_noisy_ghz_pauli", "spectrum_4q_printed",
    "spectrum_3q_display", "spectrum_4q_display", "max_w_parity", "max_w_mod4", "binary_h",
]
DELETED = [
    "_tree_directions", "measured_conditional_entropy", "discord_objective", "reduced_objective",
    "ReducedObjective", "_branch_terms", "freeze_changepoint", "ReducedPoint", "_prefixes",
    "_tree_levels", "_leave_one_out", "_branch_gains", "_reduced_value_and_grad",
    "PauliSum", "PauliWord", "PAULI", "_check_word", "_single_site_word", "build_symmetric_family",
    "build_diagonal_field", "build_noisy_ghz_dense", "family_dense", "FULL_ORACLE_CAP",
    "_unmeasured_term",
]


def _imported_modules(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
    return names


def test_reference_imports_only_numpy_and_the_standard_library():
    modules = _imported_modules(ast.parse(REFERENCE.read_text()))
    assert modules
    for name in modules:
        top = name.split(".")[0]
        assert top != "discordium", name
        assert top in sys.stdlib_module_names or top == "numpy", name


def test_package_keeps_no_moved_or_deleted_name():
    submodules = [
        importlib.import_module(f"discordium.{info.name}")
        for info in pkgutil.iter_modules(discordium.__path__)
        if info.name != "__main__"
    ]
    assert {m.__name__ for m in submodules} >= {f"discordium.{m}" for m in ("analytic", "cli", "oracle", "pauli")}
    for module in [discordium, *submodules]:
        for name in MOVED + DELETED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(discordium.oracle._Chain, "at_directions")
    assert not hasattr(discordium.MeasurementTree, "uniform") and not hasattr(discordium.MeasurementTree, "random")
    assert list(inspect.signature(discordium.oracle._Chain).parameters) == ["rho"]
    # one max W formula, the dephased-state sum; the paper's parity pattern lives in
    # tests/reference.py and the printed pairing in scripts/arbitration_report.py
    assert list(inspect.signature(discordium.max_w).parameters) == ["params"]
    assert [f.name for f in dataclasses.fields(discordium.FreezeReport)] == ["frozen", "frozen_value", "p_star"]
