#!/usr/bin/env python3
"""Print one SHA-256 per CLI verb and output format over a fixed grid of runs.

Usage: PYTHONPATH=src python3 scripts/cli_digest.py

Every run calls ``petrie.cli.main`` in-process, so no run pays for a fresh
interpreter.  Each digest covers, for every run in its group, the argument
list, the exit code (or the name of an exception that escaped ``main``),
stdout, stderr and the contents of the ``--out`` file.  The grid holds good
and bad operands, every flag, the ``PETRIE_FORMAT`` default and faults
injected into the library, so a refactor that keeps these lines keeps what a
user sees.  ``tests/golden/cli_digests.txt`` holds the expected lines.
argparse's usage and error messages are part of what is hashed, so the lines
can differ between Python versions.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from unittest import mock

from petrie import InternalInvariantFailure, SchurExpansion, cli, oracle, schur_ring

OUT = "<tmp>"

# verb: operand lists, each run once with --json and once with --text.
GRID = {
    "expand": [
        ["4", "8"], ["5", "8"], ["2", "3"], ["1", "5"], ["4", "0"],
        ["4", "8", "--verify"], ["3", "7", "--verify"],
        ["0", "3"], ["3", "-1"], ["4"], ["4", "x"],
    ],
    "multiply": [
        ["3", "5", "2"], ["3", "5", "3"], ["5", "8", "3"], ["1", "4", "2"],
        ["3", "5", "3", "--verify"], ["4", "6", "2", "--verify"],
        ["3", "-1", "2"], ["3", "5", "0"], ["0", "5", "2"], ["3", "5"],
    ],
    "pet": [
        ["3,3,1", "4"], ["3,3,1", "3"], ["", "7"], ["[3,3,1]", "4"],
        ["4,2,2,1", "3", "--method=det"], ["4,2,2,1", "3", "--method=grinberg"],
        ["4,2,2,1", "3", "--method=rimhook"], ["4,2,2,1", "3", "--method=all"],
        ["1,3", "4"], ["3,3,1", "0"], ["1,3", "x"], ["3,3,1", "4", "--method=bogus"],
        ["3,2,2,1,1", "4", "--method=all"], ["2,1", "1", "--method=all"],
    ],
    "core": [
        ["7,4,2,1", "6"], ["3,3,1", "3"], ["4", "3"], ["", "3", "--chain"],
        ["3,3,2", "4", "--chain"], ["7,4,2,1", "3", "--chain"],
        ["2,1", "1", "--chain"], ["2,1", "0"], ["1,3", "2"],
        ["4,4,3,2,2,1", "3", "--chain"], ["1,1,1,1,1,1,1,1", "4", "--chain"],
    ],
    "classify": [
        ["3", "5", "3"], ["3", "5", "2"], ["2", "100", "6"],
        ["3", "5", "3", "--witness"], ["3", "5", "3", "--witness", "--check"],
        ["4", "12", "4", "--witness", "--check"], ["3", "5", "2", "--check"],
        ["3", "5", "2", "--witness"], ["0", "5", "3"], ["3", "5", "-1"],
    ],
    "sweep": [
        ["3", "5", "3"], ["1", "1", "1"], ["5", "9", "6"],
        ["4", "8", "4", "--jobs", "2"], ["3", "4", "3", "--jobs", "0"],
        ["0", "5", "3"], ["3", "5", "3", "--out", f"{OUT}/report"],
        ["3", "5", "3", "--out", f"{OUT}/missing/report"],
        ["0", "5", "3", "--out", f"{OUT}/missing/report"],
    ],
    "transition": [["2", "3"], ["3", "4"], ["4", "6"], ["1", "3"], ["3", "0"], ["0", "3"]],
    "verify-liu-polo": [["2", "6"], ["3", "3"], ["1", "4"], ["5", "4"]],
}


def _raise_invariant(*args, **kwargs):
    raise InternalInvariantFailure("witness contributions do not reinforce")


# verb: (operands, patches) runs with a fault injected into the library.
FAULTS = {
    "expand": [
        (["4", "8", "--verify"],
         [(oracle, "monomial_to_schur", lambda v: SchurExpansion(v.degree, {}))]),
    ],
    "multiply": [
        (["3", "5", "3", "--verify"],
         [(oracle, "monomial_to_schur", lambda v: SchurExpansion(v.degree, {}))]),
    ],
    "pet": [(["3,3,1", "4", "--method=all"], [(cli, "pet_grinberg", lambda lam, k: 0)])],
    "classify": [
        (["3", "5", "3", "--witness"], [(schur_ring, "verify_witness", _raise_invariant)]),
        (["3", "5", "3", "--check"], [(schur_ring, "classify_smf", lambda k, m, n: True)]),
    ],
    "sweep": [
        (["3", "5", "3"], [(schur_ring, "classify_smf", lambda k, m, n: True)]),
        (["3", "5", "3", "--out", f"{OUT}/report"],
         [(schur_ring, "classify_smf", lambda k, m, n: True)]),
    ],
    "verify-liu-polo": [
        (["2", "4"],
         [(schur_ring, "petrie_schur_expansion", lambda k, m: SchurExpansion(m, {}))]),
    ],
}


def run(argv: list[str], tmp: str, env_format: str = "", patches=()) -> list:
    """One in-process run: [argv, PETRIE_FORMAT, exit, stdout, stderr, --out file]."""
    os.environ["PETRIE_FORMAT"] = env_format
    real = [arg.replace(OUT, tmp) for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with ExitStack() as stack:
        for owner, name, fake in patches:
            stack.enter_context(mock.patch.object(owner, name, fake))
        stack.enter_context(redirect_stdout(stdout))
        stack.enter_context(redirect_stderr(stderr))
        try:
            code = cli.main(real)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaped exception is an outcome to record
            code = f"raised {type(exc).__name__}"
    written = None
    if "--out" in real:
        path = real[real.index("--out") + 1]
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as stream:
                written = stream.read()
            os.remove(path)
    return [argv, env_format, code, stdout.getvalue().replace(tmp, OUT),
            stderr.getvalue().replace(tmp, OUT), written]


def main() -> None:
    os.environ["COLUMNS"] = "80"  # argparse wraps usage lines to the terminal width
    with tempfile.TemporaryDirectory() as tmp:
        groups: dict[str, list] = {}
        for verb, operand_lists in GRID.items():
            for fmt in ("json", "text"):
                runs = groups.setdefault(f"{verb} {fmt}", [])
                runs.append(run([verb] + operand_lists[0], tmp, env_format=fmt))
                for operands in operand_lists:
                    runs.append(run([verb] + operands + [f"--{fmt}"], tmp))
                for operands, patches in FAULTS.get(verb, []):
                    runs.append(run([verb] + operands + [f"--{fmt}"], tmp, patches=patches))
        groups["sweep --out <directory>"] = [
            run(["sweep", "3", "4", "3", "--out", OUT, f"--{fmt}"], tmp)
            for fmt in ("json", "text")
        ]
        for label, runs in groups.items():
            digest = hashlib.sha256(json.dumps(runs).encode()).hexdigest()
            print(f"{digest}  {label}")


if __name__ == "__main__":
    main()
