"""Structural guards: the names the benchmark tracer wraps, and the
oracle's independence from the fast path.

Neither is behaviour a result would show.  A traced name that no longer
resolves makes ``bench/run.py --trace 1`` drop its metrics silently, and an
oracle that imports the fast path would check the fast path against itself.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

from petrie import modular_schur, oracle

ROOT = Path(__file__).resolve().parents[1]


def _tracer_targets():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import tracer
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return tracer.TARGETS


@pytest.mark.parametrize("module_name, attr", _tracer_targets())
def test_tracer_target_resolves(module_name, attr):
    # The lookup Tracer.install makes: a function is a module attribute, a
    # method must sit in its class's own __dict__ (an inherited one is skipped).
    module = importlib.import_module(f"petrie.{module_name}")
    owner_name, _, method = attr.partition(".")
    owner = getattr(module, owner_name, None)
    if method:
        assert inspect.isclass(owner)
        assert callable(vars(owner).get(method))
    else:
        assert callable(owner)


def test_tracer_module_counters_exist():
    assert callable(oracle.kostka_number.cache_info)
    assert isinstance(modular_schur._PRODUCT_CACHE, dict)


FAST_PATH = {"abacus", "petrie_numbers"}


def test_oracle_imports_nothing_from_the_fast_path():
    source = Path(oracle.__file__).read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rsplit(".", 1)[-1]
            names = {alias.name for alias in node.names}
            assert module not in FAST_PATH and not names & FAST_PATH, module
            if module == "schur_ring":
                assert names <= {"SchurExpansion", "_HomogeneousVector"}, names
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert not set(alias.name.split(".")) & FAST_PATH, alias.name
    for name in ("_signed_rim_hooks", "grinberg_support", "multiply_power_sum"):
        assert name not in source
