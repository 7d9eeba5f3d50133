"""Batch command-line surface: every computation, JSON or plain text.

Verbs: expand, multiply, pet, core, classify, sweep, transition,
verify-liu-polo.  JSON output wraps each result in an envelope
{command, params, result, format_version}.  The PETRIE_FORMAT environment
variable ("json" or "text") picks the default rendering.

Each verb is a handler ``_cmd_*(args)`` that checks its operands, computes and
returns an ``_Outcome``: the JSON ``result``, a zero-argument callable that
renders the text, and an optional failure ``(message, exit code)`` reported
after the output.  A handler refuses before any output by raising
``_Refusal``.  Only ``main`` picks the format, builds ``params`` from the
verb's operands, writes the envelope or the text to stdout or ``--out`` and
maps exceptions to exit codes.  ``main`` reads a well-formed argv straight
from ``_VERBS`` into the namespace argparse would build: a verb, exactly its
operands, each read by ``int`` (a partition stays a string), and each of its
flags at most once as ``--flag``, ``--flag=value`` or ``--flag value``, but
not ``--json`` with ``--text``.  Anything else (help, ``--``, an abbreviated
flag, a negative operand, an error) goes to argparse, imported only then, so
usage, help and error text stay argparse's.  argparse then builds the parser
of every verb.

JSON output is byte for byte ``json.dumps(envelope, indent=2)`` plus a
newline, where a ``SchurExpansion`` in a ``result`` stands for its
``to_json_dict()["terms"]``.  On every Python ``main`` renders it with
``_render_json``, which writes a non-empty expansion of positive degree from
its own terms, one f-string per term whose parts are joined from a table of
decimal strings.  The renderer appends chunks to one list and joins it
once.  A list of exact ints, of non-empty lists or tuples of exact ints, or
of records is rendered a column at a time: ints by ``int.__repr__``, int
lists by one ``%d`` format per length.
Records are dicts with one shared order of ``str`` keys, each field of which,
taken across the records, is again such a list.  Only exact types qualify,
since ``"%d" % True`` is ``1`` where JSON says ``true``: bools, ``IntEnum``,
``NamedTuple`` and empty containers take the generic path, and whatever the
renderer does not know goes to ``json.dumps``.

Exit codes: 0 ok, 1 stdout closed before the output was written (as by
``| head``), 2 bad arguments, 3 verification mismatch, evaluator
disagreement or a failed internal invariant (a defect), 4 witness requested
in the signed-multiplicity-free region, 5 sweep/classify disagreement with
the closed form.
"""

from __future__ import annotations

import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from itertools import chain, repeat
from operator import itemgetter
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Iterator, NamedTuple

if TYPE_CHECKING:
    import argparse

from . import abacus, modular_schur, oracle, schur_ring
from .errors import InternalInvariantFailure, PetrieError
from .partitions import format_partition, parse_partition
from .petrie_numbers import pet_det, pet_grinberg, pet_rimhook

FORMAT_VERSION = "1.0.0"

EXIT_OK = 0
EXIT_CLOSED_PIPE = 1
EXIT_BAD_ARGS = 2
EXIT_VERIFY_MISMATCH = 3
EXIT_WITNESS_IN_SMF_REGION = 4
EXIT_SWEEP_DISAGREEMENT = 5


class _Refusal(Exception):
    """A verb declines its operands or result; only the ``error:`` line is printed."""

    def __init__(self, message: str, code: int = EXIT_BAD_ARGS):
        super().__init__(message)
        self.code = code


class _Outcome(NamedTuple):
    """A handler's JSON ``result``, text renderer and optional failure.  An
    expansion in ``result`` is rendered from its own terms, so text mode
    builds no JSON records for it."""

    result: dict[str, Any]
    text: Callable[[], str]
    failure: tuple[str, int] | None = None


def _render_json(value: Any) -> str:
    """Exactly ``json.dumps(value, indent=2)``, with each ``SchurExpansion``
    standing for its ``to_json_dict()["terms"]``, from chunks joined once."""
    chunks: list[str] = []
    _emit(value, "\n", chunks)
    return "".join(chunks)


def _emit(value: Any, pad: str, chunks: list[str]) -> None:
    """Append ``value`` to ``chunks``; ``pad`` is a newline and the enclosing indent."""
    kind, inner = type(value), pad + "  "
    if kind is int:
        chunks.append(int.__repr__(value))
    elif kind is str:
        chunks.append(_quote(value))
    elif kind is dict and value and all(type(key) is str for key in value):
        for sep, (key, item) in zip(_seps("{", inner), value.items()):
            chunks.append(sep + _quote(key) + ": ")
            _emit(item, inner, chunks)
        chunks.append(pad + "}")
    elif (kind is list or kind is tuple) and value:
        rows = _rows(value, inner)
        if rows is not None:
            chunks.extend(chain.from_iterable(zip(_seps("[", inner), rows)))
        else:
            for sep, item in zip(_seps("[", inner), value):
                chunks.append(sep)
                _emit(item, inner, chunks)
        chunks.append(pad + "]")
    elif kind is schur_ring.SchurExpansion:
        if value.degree and value:
            _emit_terms(value, pad, chunks)
        else:
            _emit(value.to_json_dict()["terms"], pad, chunks)
    else:  # JSON text holds no raw newline inside a string, so re-padding is safe
        chunks.append(json.dumps(value, indent=2).replace("\n", pad))


def _emit_terms(expansion: schur_ring.SchurExpansion, pad: str, chunks: list[str]) -> None:
    """Append ``expansion.to_json_dict()["terms"]`` as ``_emit`` would, for a
    non-empty expansion of positive degree.  Each row joins its parts from a
    table of decimal strings, sized by the first term's first part: in
    canonical order that is the largest part of all."""
    terms = expansion.items()
    inner, field, part = pad + "  ", pad + "    ", pad + "      "
    digit = list(map(int.__repr__, range(terms[0][0][0] + 1))).__getitem__
    join = ("," + part).join
    head = "," + inner + "{" + field + '"partition": [' + part
    mid, tail = field + "]," + field + '"coeff": ', inner + "}"
    rows = [f"{head}{join(map(digit, lam))}{mid}{coeff}{tail}" for lam, coeff in terms]
    rows[0] = "[" + rows[0][1:]  # the first row opens the list where the others have ","
    chunks += rows
    chunks.append(pad + "]")


def _seps(opener: str, pad: str) -> Iterator[str]:
    """What goes before each item: ``opener + pad``, then ``"," + pad``."""
    return chain((opener + pad,), repeat("," + pad))


def _rows(items: list | tuple, pad: str) -> Iterator[str] | None:
    """Each of ``items`` rendered at ``pad`` if they are all exact ints, all
    int lists or all records (see the module docstring), else ``None``."""
    kinds = set(map(type, items))
    if kinds == {int}:
        return map(int.__repr__, items)
    inner = pad + "  "
    if kinds <= {list, tuple}:
        if not all(items) or set(map(type, chain.from_iterable(items))) != {int}:
            return None
        formats = {n: "[" + inner + ("," + inner).join(["%d"] * n) + pad + "]"
                   for n in set(map(len, items))}
        return map(str.__mod__, map(formats.__getitem__, map(len, items)), map(tuple, items))
    if kinds != {dict} or len(keys := set(map(tuple, items))) != 1:
        return None
    (fields,) = keys
    if set(map(type, fields)) != {str}:  # also refuses empty dicts
        return None
    parts: list[Iterator[str]] = []
    for sep, field in zip(_seps("{", inner), fields):
        column = _rows(list(map(itemgetter(field), items)), inner)
        if column is None:
            return None
        parts += [repeat(sep + _quote(field) + ": "), column]
    return map("".join, zip(*parts, repeat(pad + "}")))


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _resolve_format(args: argparse.Namespace) -> str:
    if args.json:
        return "json"
    if args.text:
        return "text"
    env = os.environ.get("PETRIE_FORMAT", "").strip().lower()
    return env if env in ("json", "text") else "text"


def _liu_polo_expected(k: int) -> tuple[schur_ring.SchurExpansion, schur_ring.SchurExpansion]:
    """The two hook-shaped alternating expansions predicted for G(k, k) and
    G(k, 2k-1)."""
    low = {
        (k - 1 - i,) + (1,) * (i + 1): (-1) ** i
        for i in range(k - 1)
    }
    high = {
        (k - 1, k - 1 - i) + (1,) * (i + 1): (-1) ** i
        for i in range(k - 1)
    }
    return (
        schur_ring.SchurExpansion(k, low),
        schur_ring.SchurExpansion(2 * k - 1, high),
    )


def _cmd_expand(args: argparse.Namespace) -> _Outcome:
    """``expand k m`` and ``multiply k m n``: G(k, m), times p_n when n is given."""
    k, m, n = args.k, args.m, getattr(args, "n", None)
    if k < 1 or m < 0 or (n is not None and n < 1):
        needs = "k >= 1 and m >= 0" if n is None else "k >= 1, m >= 0, n >= 1"
        raise _Refusal(f"{args.command} needs {needs}")
    expansion = schur_ring.petrie_schur_expansion(k, m)
    if n is not None:
        expansion = schur_ring.multiply_power_sum(expansion, n)
    result: dict[str, Any] = {"degree": expansion.degree, "terms": expansion}
    if args.verify:
        check = oracle.monomial_to_schur(oracle.petrie_monomial_vector(k, m))
        if n is not None:
            check = oracle.pieri_times_power_sum(check, n)
        if check != expansion:
            operands = " ".join(str(getattr(args, name)) for name in args.params)
            raise _Refusal(
                f"oracle disagrees with fast path for {args.command} {operands}",
                EXIT_VERIFY_MISMATCH,
            )
        result["verified"] = True
    return _Outcome(result, expansion.to_text)


def _cmd_pet(args: argparse.Namespace) -> _Outcome:
    lam, k = args.partition, args.k
    if k < 1:
        raise _Refusal("pet needs k >= 1")
    evaluators = {"det": pet_det, "grinberg": pet_grinberg, "rimhook": pet_rimhook}
    if args.method != "all":
        value = evaluators[args.method](lam, k)
        return _Outcome({"value": value}, lambda: str(value))
    values = {name: fn(lam, k) for name, fn in evaluators.items()}
    agree = len(set(values.values())) == 1
    return _Outcome(
        {"values": values, "agree": agree},
        lambda: " ".join(f"{name}={value}" for name, value in values.items()),
        None if agree else ("Petrie evaluators disagree (defect)", EXIT_VERIFY_MISMATCH),
    )


def _cmd_core(args: argparse.Namespace) -> _Outcome:
    lam, k = args.partition, args.k
    if k < 1:
        raise _Refusal("core needs k >= 1")
    if args.chain and k < 2:
        raise _Refusal("--chain needs k >= 2")
    core = abacus.k_core(lam, k)
    prof = abacus.profile(lam, k).to_json_dict() if k >= 2 and len(lam) < k else None
    result: dict[str, Any] = {
        "partition": list(lam),
        "k": k,
        "core": list(core),
        "profile": prof,
    }
    chain = abacus.rim_hook_sequence(lam, k) if args.chain else None
    if chain is not None:
        result["chain"] = {
            "partitions": [list(step) for step in chain.chain],
            "heights": list(chain.heights()),
            "sign": chain.sign(),
        }

    def text() -> str:
        lines = [format_partition(core)]
        if chain is not None:
            lines += [
                "chain: " + " < ".join(format_partition(step) for step in chain.chain),
                "heights: " + ",".join(str(h) for h in chain.heights()),
                f"sign: {chain.sign()}",
            ]
        return "\n".join(lines)

    return _Outcome(result, text)


def _cmd_classify(args: argparse.Namespace) -> _Outcome:
    k, m, n = args.k, args.m, args.n
    if k < 1 or m < 0 or n < 1:
        raise _Refusal("classify needs k >= 1, m >= 0, n >= 1")
    smf = schur_ring.classify_smf(k, m, n)
    verdict = "SMF" if smf else "non-SMF"
    result: dict[str, Any] = {"signed_multiplicity_free": smf, "witness": None}
    if args.witness:
        if smf:
            raise _Refusal(
                f"G({k},{m})*p_{n} is signed multiplicity free; no witness exists",
                EXIT_WITNESS_IN_SMF_REGION,
            )
        witness = schur_ring.witness_non_smf(k, m, n)
        result["witness"] = dict(zip(("lambda", "mu", "lambda_plus"), map(list, witness)))
    if args.check:
        expansion = schur_ring.petrie_times_power_sum(k, m, n)
        if schur_ring.is_signed_multiplicity_free(expansion).signed_multiplicity_free != smf:
            raise _Refusal(
                f"computed expansion contradicts the closed form at ({k},{m},{n})",
                EXIT_SWEEP_DISAGREEMENT,
            )
        result["checked"] = smf

    def text() -> str:
        lines = [verdict]
        witness = result["witness"]
        if witness is not None:
            shapes = (f"{key}={format_partition(lam)}" for key, lam in witness.items())
            lines.append("witness: " + " ".join(shapes))
        if args.check:
            lines.append(f"checked: expansion agrees ({verdict})")
        return "\n".join(lines)

    return _Outcome(result, text)


def _cmd_sweep(args: argparse.Namespace) -> _Outcome:
    if args.k_max < 1 or args.m_max < 1 or args.n_max < 1:
        raise _Refusal("sweep bounds must be >= 1")
    if args.jobs < 1:
        raise _Refusal("--jobs must be >= 1")
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise _Refusal(f"--out directory does not exist: {args.out}")
    if args.out and os.path.isdir(args.out):
        raise _Refusal(f"--out is a directory: {args.out}")
    report = schur_ring.sweep_smf(args.k_max, args.m_max, args.n_max, jobs=args.jobs)
    failure = None
    if report.disagreements:
        failure = (
            "sweep found disagreements with the classification",
            EXIT_SWEEP_DISAGREEMENT,
        )
    return _Outcome(report.to_json_dict(), report.to_text, failure)


def _cmd_transition(args: argparse.Namespace) -> _Outcome:
    if args.k < 1 or args.m < 0:
        raise _Refusal("transition needs k >= 1 and m >= 0")
    matrix = modular_schur.transition_matrix(args.k, args.m)
    return _Outcome(matrix.to_json_dict(), matrix.to_text)


def _cmd_verify_liu_polo(args: argparse.Namespace) -> _Outcome:
    if args.k_min < 2 or args.k_max < args.k_min:
        raise _Refusal("verify-liu-polo needs 2 <= k_min <= k_max")
    rows = []
    for k in range(args.k_min, args.k_max + 1):
        expected_low, expected_high = _liu_polo_expected(k)
        rows.append({
            "k": k,
            "degree_k_ok": schur_ring.petrie_schur_expansion(k, k) == expected_low,
            "degree_2k_minus_1_ok":
                schur_ring.petrie_schur_expansion(k, 2 * k - 1) == expected_high,
        })
    ok = [row["degree_k_ok"] and row["degree_2k_minus_1_ok"] for row in rows]
    all_ok = all(ok)

    def text() -> str:
        lines = [
            f"k={row['k']}: {'ok' if row_ok else 'FAIL'}" for row, row_ok in zip(rows, ok)
        ]
        lines.append("all identities hold" if all_ok else "identities FAILED")
        return "\n".join(lines)

    failure = None if all_ok else ("hook-expansion identities failed", EXIT_VERIFY_MISMATCH)
    return _Outcome({"results": rows, "all_ok": all_ok}, text, failure)


_VERIFY = ("--verify", {"action": "store_true", "help": "cross-check via the oracle"})
_METHODS = ("det", "grinberg", "rimhook", "all")


def _method(text: str) -> str:
    """``pet --method``'s value.  A type check, not ``choices``, so the error
    reads the same on every Python: 3.13 stopped quoting the choices."""
    if text not in _METHODS:
        import argparse
        choices = ", ".join(map(repr, _METHODS))
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {choices})")
    return text


# name, handler, help, operands (ints, except a partition), flags as
# (flag, add_argument keywords) pairs, extra params.
_VERBS = (
    ("expand", _cmd_expand, "Schur expansion of G(k, m)", ("k", "m"), (_VERIFY,), ()),
    (
        "multiply", _cmd_expand, "Schur expansion of G(k, m) * p_n", ("k", "m", "n"),
        (_VERIFY,), (),
    ),
    (
        "pet", _cmd_pet, "k-Petrie coefficient of a partition", ("partition", "k"),
        (("--method", {"type": _method, "default": "det",
                       "metavar": "{" + ",".join(_METHODS) + "}"}),),
        ("method",),
    ),
    (
        "core", _cmd_core, "k-core, optionally with a rim-hook chain", ("partition", "k"),
        (("--chain", {"action": "store_true", "help": "print the removal chain"}),), (),
    ),
    (
        "classify", _cmd_classify, "signed-multiplicity-free verdict for G(k,m)*p_n",
        ("k", "m", "n"),
        (
            ("--witness", {"action": "store_true", "help": "construct a verified collision"}),
            ("--check", {"action": "store_true", "help": "also compute the full expansion"}),
        ),
        (),
    ),
    (
        "sweep", _cmd_sweep, "compare verdicts against the closed form on a grid",
        ("k_max", "m_max", "n_max"),
        (
            ("--jobs", {"type": int, "default": 1, "help": "worker processes"}),
            ("--out", {"help": "write the report to this file"}),
        ),
        ("jobs",),
    ),
    (
        "transition", _cmd_transition, "modular Schur transition matrix at degree m",
        ("k", "m"), (), (),
    ),
    (
        "verify-liu-polo", _cmd_verify_liu_polo,
        "check the alternating hook expansions of G(k,k) and G(k,2k-1)", ("k_min", "k_max"),
        (), (),
    ),
)
_VERB_TABLE = {verb[0]: verb for verb in _VERBS}
_FORMATS = (("--json", {"action": "store_true", "help": "machine-readable output"}),
            ("--text", {"action": "store_true", "help": "plain text output"}))


def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb.  ``main`` builds it only for help and
    errors; ``_read_argv`` reads every well-formed argv without it."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="petrie",
        description="Exact Schur expansions of Petrie symmetric functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, operands, flags, params in _VERBS:
        # The envelope's params are the operands, then ``params``.
        p = sub.add_parser(name, help=help_text)
        for operand in operands:
            p.add_argument(operand, type=str if operand == "partition" else int)
        for flag, flag_options in flags:
            p.add_argument(flag, **flag_options)
        group = p.add_mutually_exclusive_group()
        for flag, flag_options in _FORMATS:
            group.add_argument(flag, **flag_options)
        p.set_defaults(func=handler, params=operands + params)
    return parser


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns, if ``argv`` is well
    formed (see the module docstring), else ``None``."""
    verb = _VERB_TABLE.get(argv[0]) if argv else None
    if verb is None:
        return None
    name, handler, _, operands, flags, params = verb
    specs = dict(flags + _FORMATS)
    given: dict[str, Any] = {}
    words: list[str] = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            words.append(token)
            continue
        flag, eq, value = token.partition("=")
        spec = specs.get(flag, {})
        switch = spec.get("action") == "store_true"
        if not spec or flag in given or (switch and eq):
            return None
        if switch:
            given[flag] = True
            continue
        if not eq:
            value = next(tokens, "-")  # a missing value reads as a flag
            if value.startswith("-"):
                return None
        try:
            given[flag] = spec.get("type", str)(value)
        except Exception:  # argparse converts the value again and reports what is wrong
            return None
    if len(words) != len(operands) or all(flag in given for flag, _ in _FORMATS):
        return None
    try:
        values = {op: word if op == "partition" else int(word)
                  for op, word in zip(operands, words)}
    except ValueError:
        return None
    for flag, spec in specs.items():
        default = False if spec.get("action") == "store_true" else spec.get("default")
        values[flag[2:].replace("-", "_")] = given.get(flag, default)
    return SimpleNamespace(command=name, **values, func=handler, params=operands + params)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The verb table reads a well-formed argv; argparse reads the rest.
    args = _read_argv(argv) or build_parser().parse_args(argv)
    try:
        if "partition" in args.params:
            args.partition = parse_partition(args.partition)
        outcome = args.func(args)
        if _resolve_format(args) == "json":
            envelope = {
                "command": args.command,
                "params": {name: getattr(args, name) for name in args.params},
                "result": outcome.result,
                "format_version": FORMAT_VERSION,
            }
            rendered = _render_json(envelope)
        else:
            rendered = outcome.text()
    except _Refusal as exc:
        return _fail(str(exc), exc.code)
    except InternalInvariantFailure as exc:
        return _fail(f"{exc} (defect)", EXIT_VERIFY_MISMATCH)
    except PetrieError as exc:
        return _fail(str(exc), EXIT_BAD_ARGS)
    out = getattr(args, "out", None)  # only sweep has --out
    if out:
        try:
            with open(out, "w", encoding="utf-8") as stream:
                print(rendered, file=stream)
        except OSError as exc:
            return _fail(f"cannot write --out file {out}: {exc.strerror}", EXIT_BAD_ARGS)
        result = outcome.result
        rendered = (
            f"report written to {out}: {len(result['non_smf'])} non-SMF triples,"
            f" {len(result['disagreements'])} disagreements"
        )
    try:  # flushed here, so a reader that is gone shows up here and not at exit
        print(rendered, flush=True)
    except BrokenPipeError:
        # Whatever is still buffered goes to devnull, so the flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    if outcome.failure:
        return _fail(*outcome.failure)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
