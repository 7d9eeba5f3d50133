"""Structural guards: the names the benchmark tracer wraps, the oracle's
independence from the fast path and from ``modular_schur``, the one bead
rule's home in ``partitions``, unused imports (in the package and in the
tests) and exports, and what importing the command line loads.

None of these is behaviour a result would show.  A traced name that no
longer resolves makes ``bench/run.py --trace 1`` drop its metrics silently,
a path that imports the one checking it would be checked against itself,
a second copy of the bead rule is one the rim-hook tests do not check,
an unused import or export is a leftover of deleted code (or code only the
tests need), and a module loaded at import time or by a well-formed command
line is paid for by every command.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from petrie import modular_schur, oracle, schur_ring

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
    for name in ("_signed_rim_hooks", "grinberg_support", "grinberg_masks", "multiply_power_sum"):
        assert name not in source


def test_schur_ring_indexes_no_bead_list():
    # the one rim-hook height rule, with both of its accumulator keys
    # (_signed_rim_hooks by parts, _signed_hook_masks by bead mask),
    # lives in partitions; schur_ring only calls it
    assert "beads[" not in Path(schur_ring.__file__).read_text()


def test_modular_schur_imports_nothing_from_the_oracle():
    tree = ast.parse(Path(modular_schur.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert (node.module or "").rsplit(".", 1)[-1] != "oracle"
            assert "oracle" not in {alias.name for alias in node.names}


@pytest.mark.parametrize(
    "path",
    sorted(p for p in (ROOT / "src" / "petrie").glob("*.py") if p.name != "__init__.py")
    + sorted((ROOT / "tests").glob("*.py")),
    ids=lambda p: p.stem if p.parent.name == "petrie" else f"tests/{p.stem}",
)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, sorted(imported - used)


# Exported for library callers although no module of the package calls it.
ENTRY_POINTS = {"modular_schur_expansion"}


def test_every_export_has_a_caller():
    package = ROOT / "src" / "petrie"
    init = ast.parse((package / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in ast.walk(init)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    traced = {attr.partition(".")[0] for _, attr in _tracer_targets()}
    uncalled = exported - used - traced - ENTRY_POINTS
    assert not uncalled, sorted(uncalled)


def test_importing_the_cli_does_not_load_the_process_pool():
    # Neither importing the CLI nor a sweep with forked workers loads the
    # standard library's process pools, or ``dataclasses`` and the
    # ``inspect`` its code generator brings: the result records are
    # NamedTuples.
    names = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect")
    loaded = f"[name in sys.modules for name in {names!r}]"
    code = (
        f"import sys, petrie.cli; print({loaded}); "
        f"petrie.cli.main(['sweep', '3', '4', '3', '--jobs', '2']); print({loaded})"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    lines = out.stdout.splitlines()
    assert lines[0] == lines[-1] == str([False] * len(names))
    assert "0 disagreements" in out.stdout


def test_a_well_formed_command_line_loads_no_argparse():
    # The verb table reads these; argparse, and the gettext and locale its
    # messages load, are imported only for help and errors.
    names = ("argparse", "gettext", "locale")
    code = (
        "import sys, petrie.cli; main = petrie.cli.main; "
        "main(['multiply', '3', '5', '2', '--json']); "
        "main(['sweep', '3', '4', '3', '--jobs', '2']); "
        "main(['pet', '3,3,1', '4', '--method=all']); "
        f"print([name in sys.modules for name in {names!r}])"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == str([False] * len(names))
    assert "0 disagreements" in out.stdout
    helped = subprocess.run(
        [sys.executable, "-m", "petrie", "multiply", "--help"],
        env=env, capture_output=True, text=True,
    )
    assert helped.returncode == 0
    assert helped.stdout.startswith("usage: petrie multiply [-h] [--verify] [--json | --text]")
