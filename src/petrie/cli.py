"""Batch command-line surface: every computation, JSON or plain text.

Verbs: expand, multiply, pet, core, classify, sweep, transition,
verify-liu-polo.  JSON output wraps each result in an envelope
{command, params, result, format_version}.  The PETRIE_FORMAT environment
variable ("json" or "text") picks the default rendering.

Exit codes: 0 ok, 2 bad arguments, 3 verification mismatch, evaluator
disagreement or a failed internal invariant (a defect), 4 witness requested
in the signed-multiplicity-free region, 5 sweep/classify disagreement with
the closed form.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from typing import Any, TextIO

from . import abacus, modular_schur, oracle, schur_ring
from .errors import InternalInvariantFailure, PetrieError
from .partitions import format_partition, parse_partition
from .petrie_numbers import pet_det, pet_grinberg, pet_rimhook

FORMAT_VERSION = "1.0.0"

EXIT_OK = 0
EXIT_BAD_ARGS = 2
EXIT_VERIFY_MISMATCH = 3
EXIT_WITNESS_IN_SMF_REGION = 4
EXIT_SWEEP_DISAGREEMENT = 5


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _resolve_format(args: argparse.Namespace) -> str:
    if getattr(args, "json", False):
        return "json"
    if getattr(args, "text", False):
        return "text"
    env = os.environ.get("PETRIE_FORMAT", "").strip().lower()
    return env if env in ("json", "text") else "text"


def _emit_json(
    command: str,
    params: dict[str, Any],
    result: dict[str, Any],
    stream: TextIO | None = None,
) -> None:
    """Write the JSON envelope of one result to ``stream`` (stdout by default)."""
    envelope = {
        "command": command,
        "params": params,
        "result": result,
        "format_version": FORMAT_VERSION,
    }
    print(json.dumps(envelope, indent=2), file=stream)


def _add_format_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="machine-readable output")
    group.add_argument("--text", action="store_true", help="plain text output")


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


def _cmd_expand(args: argparse.Namespace) -> int:
    if args.k < 1 or args.m < 0:
        return _fail("expand needs k >= 1 and m >= 0", EXIT_BAD_ARGS)
    expansion = schur_ring.petrie_schur_expansion(args.k, args.m)
    verified = None
    if args.verify:
        check = oracle.monomial_to_schur(oracle.petrie_monomial_vector(args.k, args.m))
        if check != expansion:
            return _fail(
                f"oracle disagrees with fast path for expand {args.k} {args.m}",
                EXIT_VERIFY_MISMATCH,
            )
        verified = True
    if _resolve_format(args) == "json":
        result = expansion.to_json_dict()
        if verified is not None:
            result["verified"] = verified
        _emit_json("expand", {"k": args.k, "m": args.m}, result)
    else:
        print(expansion.to_text())
    return EXIT_OK


def _cmd_multiply(args: argparse.Namespace) -> int:
    if args.k < 1 or args.m < 0 or args.n < 1:
        return _fail("multiply needs k >= 1, m >= 0, n >= 1", EXIT_BAD_ARGS)
    expansion = schur_ring.petrie_times_power_sum(args.k, args.m, args.n)
    verified = None
    if args.verify:
        product = oracle.poly_multiply_extract(
            oracle.power_sum_monomial_vector(args.n),
            oracle.petrie_monomial_vector(args.k, args.m),
        )
        if oracle.monomial_to_schur(product) != expansion:
            return _fail(
                f"oracle disagrees with fast path for multiply {args.k} {args.m} {args.n}",
                EXIT_VERIFY_MISMATCH,
            )
        verified = True
    if _resolve_format(args) == "json":
        result = expansion.to_json_dict()
        if verified is not None:
            result["verified"] = verified
        _emit_json("multiply", {"k": args.k, "m": args.m, "n": args.n}, result)
    else:
        print(expansion.to_text())
    return EXIT_OK


def _cmd_pet(args: argparse.Namespace) -> int:
    lam = parse_partition(args.partition)
    if args.k < 1:
        return _fail("pet needs k >= 1", EXIT_BAD_ARGS)
    evaluators = {"det": pet_det, "grinberg": pet_grinberg, "rimhook": pet_rimhook}
    params = {"partition": list(lam), "k": args.k, "method": args.method}
    if args.method == "all":
        values = {name: fn(lam, args.k) for name, fn in evaluators.items()}
        agree = len(set(values.values())) == 1
        if _resolve_format(args) == "json":
            _emit_json("pet", params, {"values": values, "agree": agree})
        else:
            print(" ".join(f"{name}={value}" for name, value in values.items()))
        if not agree:
            return _fail("Petrie evaluators disagree (defect)", EXIT_VERIFY_MISMATCH)
        return EXIT_OK
    value = evaluators[args.method](lam, args.k)
    if _resolve_format(args) == "json":
        _emit_json("pet", params, {"value": value})
    else:
        print(value)
    return EXIT_OK


def _cmd_core(args: argparse.Namespace) -> int:
    lam = parse_partition(args.partition)
    if args.k < 1:
        return _fail("core needs k >= 1", EXIT_BAD_ARGS)
    if args.chain and args.k < 2:
        return _fail("--chain needs k >= 2", EXIT_BAD_ARGS)
    core = abacus.k_core(lam, args.k)
    chain = abacus.rim_hook_sequence(lam, args.k) if args.chain else None
    if _resolve_format(args) == "json":
        prof = None
        if args.k >= 2 and len(lam) < args.k:
            prof = abacus.profile(lam, args.k).to_json_dict()
        result: dict[str, Any] = {
            "partition": list(lam),
            "k": args.k,
            "core": list(core),
            "profile": prof,
        }
        if chain is not None:
            result["chain"] = {
                "partitions": [list(step) for step in chain.chain],
                "heights": list(chain.heights()),
                "sign": chain.sign(),
            }
        _emit_json("core", {"partition": list(lam), "k": args.k}, result)
    else:
        print(format_partition(core))
        if chain is not None:
            print("chain: " + " < ".join(format_partition(step) for step in chain.chain))
            print("heights: " + ",".join(str(h) for h in chain.heights()))
            print(f"sign: {chain.sign()}")
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    if args.k < 1 or args.m < 0 or args.n < 1:
        return _fail("classify needs k >= 1, m >= 0, n >= 1", EXIT_BAD_ARGS)
    smf = schur_ring.classify_smf(args.k, args.m, args.n)
    witness = None
    if args.witness:
        if smf:
            return _fail(
                f"G({args.k},{args.m})*p_{args.n} is signed multiplicity free;"
                " no witness exists",
                EXIT_WITNESS_IN_SMF_REGION,
            )
        witness = schur_ring.witness_non_smf(args.k, args.m, args.n)
    checked = None
    if args.check:
        verdict = schur_ring.is_signed_multiplicity_free(
            schur_ring.petrie_times_power_sum(args.k, args.m, args.n)
        )
        checked = verdict.signed_multiplicity_free
        if checked != smf:
            return _fail(
                f"computed expansion contradicts the closed form at"
                f" ({args.k},{args.m},{args.n})",
                EXIT_SWEEP_DISAGREEMENT,
            )
    params = {"k": args.k, "m": args.m, "n": args.n}
    if _resolve_format(args) == "json":
        result: dict[str, Any] = {"signed_multiplicity_free": smf, "witness": None}
        if witness is not None:
            lam, mu, lam_plus = witness
            result["witness"] = {
                "lambda": list(lam),
                "mu": list(mu),
                "lambda_plus": list(lam_plus),
            }
        if checked is not None:
            result["checked"] = checked
        _emit_json("classify", params, result)
    else:
        print("SMF" if smf else "non-SMF")
        if witness is not None:
            lam, mu, lam_plus = witness
            print(
                f"witness: lambda={format_partition(lam)}"
                f" mu={format_partition(mu)}"
                f" lambda_plus={format_partition(lam_plus)}"
            )
        if checked is not None:
            print(f"checked: expansion agrees ({'SMF' if checked else 'non-SMF'})")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.k_max < 1 or args.m_max < 1 or args.n_max < 1:
        return _fail("sweep bounds must be >= 1", EXIT_BAD_ARGS)
    if args.jobs < 1:
        return _fail("--jobs must be >= 1", EXIT_BAD_ARGS)
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        return _fail(f"--out directory does not exist: {args.out}", EXIT_BAD_ARGS)
    report = schur_ring.sweep_smf(args.k_max, args.m_max, args.n_max, jobs=args.jobs)
    params = {
        "k_max": args.k_max,
        "m_max": args.m_max,
        "n_max": args.n_max,
        "jobs": args.jobs,
    }
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext() as stream:
        if _resolve_format(args) == "json":
            _emit_json("sweep", params, report.to_json_dict(), stream)
        else:
            print(report.to_text(), file=stream)
    if args.out:
        print(
            f"report written to {args.out}:"
            f" {len(report.non_smf)} non-SMF triples,"
            f" {len(report.disagreements)} disagreements"
        )
    if report.disagreements:
        return _fail(
            "sweep found disagreements with the classification",
            EXIT_SWEEP_DISAGREEMENT,
        )
    return EXIT_OK


def _cmd_transition(args: argparse.Namespace) -> int:
    if args.k < 1 or args.m < 0:
        return _fail("transition needs k >= 1 and m >= 0", EXIT_BAD_ARGS)
    matrix = modular_schur.transition_matrix(args.k, args.m)
    if _resolve_format(args) == "json":
        _emit_json("transition", {"k": args.k, "m": args.m}, matrix.to_json_dict())
    else:
        print(matrix.to_text())
    return EXIT_OK


def _cmd_verify_liu_polo(args: argparse.Namespace) -> int:
    if args.k_min < 2 or args.k_max < args.k_min:
        return _fail("verify-liu-polo needs 2 <= k_min <= k_max", EXIT_BAD_ARGS)
    rows = []
    all_ok = True
    for k in range(args.k_min, args.k_max + 1):
        expected_low, expected_high = _liu_polo_expected(k)
        ok_low = schur_ring.petrie_schur_expansion(k, k) == expected_low
        ok_high = schur_ring.petrie_schur_expansion(k, 2 * k - 1) == expected_high
        rows.append({"k": k, "degree_k_ok": ok_low, "degree_2k_minus_1_ok": ok_high})
        all_ok = all_ok and ok_low and ok_high
    params = {"k_min": args.k_min, "k_max": args.k_max}
    if _resolve_format(args) == "json":
        _emit_json("verify-liu-polo", params, {"results": rows, "all_ok": all_ok})
    else:
        for row in rows:
            status = "ok" if row["degree_k_ok"] and row["degree_2k_minus_1_ok"] else "FAIL"
            print(f"k={row['k']}: {status}")
        print("all identities hold" if all_ok else "identities FAILED")
    if not all_ok:
        return _fail("hook-expansion identities failed", EXIT_VERIFY_MISMATCH)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="petrie",
        description="Exact Schur expansions of Petrie symmetric functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="Schur expansion of G(k, m)")
    p.add_argument("k", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--verify", action="store_true", help="cross-check via the oracle")
    _add_format_flags(p)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("multiply", help="Schur expansion of G(k, m) * p_n")
    p.add_argument("k", type=int)
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--verify", action="store_true", help="cross-check via the oracle")
    _add_format_flags(p)
    p.set_defaults(func=_cmd_multiply)

    p = sub.add_parser("pet", help="k-Petrie coefficient of a partition")
    p.add_argument("partition")
    p.add_argument("k", type=int)
    p.add_argument(
        "--method",
        choices=["det", "grinberg", "rimhook", "all"],
        default="det",
    )
    _add_format_flags(p)
    p.set_defaults(func=_cmd_pet)

    p = sub.add_parser("core", help="k-core, optionally with a rim-hook chain")
    p.add_argument("partition")
    p.add_argument("k", type=int)
    p.add_argument("--chain", action="store_true", help="print the removal chain")
    _add_format_flags(p)
    p.set_defaults(func=_cmd_core)

    p = sub.add_parser("classify", help="signed-multiplicity-free verdict for G(k,m)*p_n")
    p.add_argument("k", type=int)
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--witness", action="store_true", help="construct a verified collision")
    p.add_argument("--check", action="store_true", help="also compute the full expansion")
    _add_format_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("sweep", help="compare verdicts against the closed form on a grid")
    p.add_argument("k_max", type=int)
    p.add_argument("m_max", type=int)
    p.add_argument("n_max", type=int)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--out", help="write the report to this file")
    _add_format_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("transition", help="modular Schur transition matrix at degree m")
    p.add_argument("k", type=int)
    p.add_argument("m", type=int)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_transition)

    p = sub.add_parser(
        "verify-liu-polo",
        help="check the alternating hook expansions of G(k,k) and G(k,2k-1)",
    )
    p.add_argument("k_min", type=int)
    p.add_argument("k_max", type=int)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_verify_liu_polo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariantFailure as exc:
        return _fail(f"{exc} (defect)", EXIT_VERIFY_MISMATCH)
    except PetrieError as exc:
        return _fail(str(exc), EXIT_BAD_ARGS)


if __name__ == "__main__":
    sys.exit(main())
