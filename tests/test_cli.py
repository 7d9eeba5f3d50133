import enum
import hashlib
import json
import os
import runpy
import subprocess
import sys
import tracemalloc
from collections import OrderedDict
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import expansion_from_json, run_cli
from petrie import (
    InternalInvariantFailure,
    SchurExpansion,
    petrie_schur_expansion,
    petrie_times_power_sum,
    profile,
    sweep_smf,
    transition_matrix,
)
from petrie import cli as cli_mod

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_COMMANDS = [
    ("expand_4_8.txt", ["expand", "4", "8", "--text"]),
    ("expand_5_8.txt", ["expand", "5", "8", "--text"]),
    ("multiply_3_5_2.txt", ["multiply", "3", "5", "2", "--text"]),
    ("multiply_3_5_3.txt", ["multiply", "3", "5", "3", "--text"]),
    ("multiply_5_8_3.txt", ["multiply", "5", "8", "3", "--text"]),
]


class TestGoldenText:
    @pytest.mark.parametrize("filename,argv", GOLDEN_COMMANDS)
    def test_byte_match(self, filename, argv):
        code, out, err = run_cli(argv)
        assert code == 0, err
        assert out == (GOLDEN / filename).read_text()

    def test_elementary_expand(self):
        code, out, _ = run_cli(["expand", "2", "3", "--text"])
        assert code == 0 and out == "s[1,1,1]\n"

    def test_multiply_contains_double_term(self):
        _, out, _ = run_cli(["multiply", "3", "5", "3", "--text"])
        assert "- 2*s[2,2,2,2]" in out

    def test_transition_grid_byte_match(self):
        code, out, _ = run_cli(["transition", "3", "4", "--text"])
        assert code == 0
        assert out == (GOLDEN / "transition_3_4.txt").read_text()

    def test_degenerate_expansions(self):
        assert run_cli(["expand", "1", "5", "--text"])[1] == "0\n"
        assert run_cli(["expand", "4", "0", "--text"])[1] == "s[]\n"

    def test_worked_examples_byte_match(self):
        script = Path(__file__).parents[1] / "scripts" / "worked_examples.py"
        out = StringIO()
        with redirect_stdout(out):
            runpy.run_path(str(script), run_name="__main__")
        assert out.getvalue() == (GOLDEN / "worked_examples.txt").read_text()


ENVELOPES = [
    (["expand", "2", "3"], {"k": 2, "m": 3}, "s[1,1,1]\n"),
    (
        ["multiply", "2", "3", "2"],
        {"k": 2, "m": 3, "n": 2},
        "s[3,1,1] - s[2,2,1] - s[1,1,1,1,1]\n",
    ),
    (
        ["pet", "3,3,1", "4", "--method=all"],
        {"partition": [3, 3, 1], "k": 4, "method": "all"},
        "det=1 grinberg=1 rimhook=1\n",
    ),
    (
        ["core", "3,3,2", "4", "--chain"],
        {"partition": [3, 3, 2], "k": 4},
        "[]\nchain: [] < [2,1,1] < [3,3,2]\nheights: 2,2\nsign: 1\n",
    ),
    (
        ["classify", "3", "5", "3", "--witness"],
        {"k": 3, "m": 5, "n": 3},
        "non-SMF\nwitness: lambda=[2,1,1,1] mu=[2,2,1] lambda_plus=[2,2,2,2]\n",
    ),
    (
        ["sweep", "3", "3", "3", "--jobs", "2"],
        {"k_max": 3, "m_max": 3, "n_max": 3, "jobs": 2},
        "smf sweep: k<=3 m<=3 n<=3 (36 triples)\n"
        "non-smf k=3 m=3 n=3 offending=[2,2,2] coeff=-2"
        " witness [1,1,1] [2,1] -> [2,2,2]\n"
        "non-smf triples: 1\nlargest |coefficient| observed: 2\n0 disagreements\n",
    ),
    (
        ["transition", "2", "3"],
        {"k": 2, "m": 3},
        "transition matrix k=2 m=3 (rows and columns grouped by 2-core)\n"
        "index: [3] [1,1,1] [2,1]\n"
        "[ 0 1 | 0 ]\n[ 1 0 | 0 ]\n-----------\n[ 0 0 | 1 ]\n",
    ),
    (
        ["verify-liu-polo", "2", "3"],
        {"k_min": 2, "k_max": 3},
        "k=2: ok\nk=3: ok\nall identities hold\n",
    ),
]


@pytest.mark.parametrize(
    "argv, params, text", ENVELOPES, ids=[argv[0] for argv, _, _ in ENVELOPES]
)
def test_envelope_and_text_of_every_verb(argv, params, text):
    code, out, err = run_cli(argv + ["--json"])
    assert code == 0, err
    envelope = json.loads(out)
    assert list(envelope) == ["command", "params", "result", "format_version"]
    assert envelope["command"] == argv[0]
    assert list(envelope["params"].items()) == list(params.items())
    assert envelope["format_version"] == "1.0.0"
    assert run_cli(argv + ["--text"]) == (0, text, "")


def test_cli_digests_match_golden():
    # A subprocess: the script sets PETRIE_FORMAT and COLUMNS in its own environment.
    root = Path(__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "cli_digest.py")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "cli_digests.txt").read_text()


def test_expand_and_multiply_build_no_json_records(monkeypatch):
    """``result`` holds the expansion itself, so neither ``--text`` nor
    ``--json`` calls ``to_json_dict``; the digests pin the JSON bytes, which
    equal those of the records envelope."""

    def refuse(self):
        raise AssertionError("to_json_dict called")

    monkeypatch.setattr(SchurExpansion, "to_json_dict", refuse)
    code, out, err = run_cli(["multiply", "5", "8", "3", "--text"])
    assert (code, out, err) == (0, (GOLDEN / "multiply_5_8_3.txt").read_text(), "")
    for flags, digest in [
        (["--json"], "4a08f05659b0908003031e09e8d56350314c76b99a0a374d09bbde7c019ae4c3"),
        (["--verify", "--json"],
         "cdf02c99d69b2ca7bcbcffcbe1c6de3240d18a35ac737818dcee500cdd7200b7"),
    ]:
        code, out, err = run_cli(["multiply", "5", "8", "3", *flags])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestJson:
    def _payload(self, argv):
        code, out, err = run_cli(argv)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["format_version"] == "1.0.0"
        # printing and re-parsing is lossless
        assert json.loads(json.dumps(payload)) == payload
        return payload

    def test_expand_round_trip(self):
        payload = self._payload(["expand", "5", "8", "--json"])
        assert payload["command"] == "expand"
        assert payload["params"] == {"k": 5, "m": 8}
        assert len(payload["result"]["terms"]) == 4
        assert expansion_from_json(payload["result"]) == petrie_schur_expansion(5, 8)

    def test_multiply_absent_term(self):
        payload = self._payload(["multiply", "5", "8", "3", "--json"])
        parts = [tuple(t["partition"]) for t in payload["result"]["terms"]]
        assert (4, 4, 1, 1, 1) not in parts
        assert len(parts) == 16
        assert expansion_from_json(payload["result"]) == petrie_times_power_sum(5, 8, 3)

    def test_pet_values(self):
        payload = self._payload(["pet", "3,3,1", "4", "--method=all", "--json"])
        assert payload["result"]["values"] == {"det": 1, "grinberg": 1, "rimhook": 1}
        assert payload["result"]["agree"] is True

    def test_core_includes_abacus_record(self):
        payload = self._payload(["core", "7,4,2,1", "6", "--json"])
        prof = payload["result"]["profile"]
        assert prof == {
            "k": 6,
            "beta": [6, 2, -1, -3, -5],
            "gamma": [6, 2, 5, 3, 1],
            "beta_numbers": [11, 7, 4, 2, 0],
            "runners": [[2, 5], [2, 1], [1, 4], [1, 2], [1, 0]],
        }

    def test_core_profile_null_when_too_long(self):
        payload = self._payload(["core", "3,3,1", "3", "--json"])
        assert payload["result"]["profile"] is None
        assert payload["result"]["core"] == [2, 1, 1]

    def test_classify_witness(self):
        payload = self._payload(["classify", "3", "5", "3", "--witness", "--json"])
        assert payload["result"]["signed_multiplicity_free"] is False
        assert payload["result"]["witness"]["lambda_plus"] == [2, 2, 2, 2]

    def test_transition_blocks(self):
        payload = self._payload(["transition", "2", "3", "--json"])
        matrix = transition_matrix(2, 3)
        assert payload["result"]["entries"] == [list(r) for r in matrix.entries]
        assert payload["result"]["blocks"] == {"[1]": [0, 2], "[2,1]": [1]}

    def test_sweep_report(self):
        payload = self._payload(["sweep", "3", "5", "3", "--json"])
        assert payload["result"]["disagreements"] == []
        triples = {(e["k"], e["m"], e["n"]) for e in payload["result"]["non_smf"]}
        assert (3, 5, 3) in triples

    def test_sweep_result_independent_of_jobs(self):
        sequential = self._payload(["sweep", "6", "12", "8", "--json", "--jobs", "1"])
        pooled = self._payload(["sweep", "6", "12", "8", "--json", "--jobs", "2"])
        assert pooled["result"] == sequential["result"]
        assert pooled["params"]["jobs"] == 2

    def test_jobs_without_fork_are_refused(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        code, out, err = run_cli(["sweep", "3", "4", "3", "--jobs", "2"])
        assert (code, out) == (2, "")
        assert err == "error: jobs > 1 needs os.fork, which this platform lacks\n"
        assert run_cli(["sweep", "3", "4", "3", "--jobs", "1"])[0] == 0


class _Level(enum.IntEnum):
    LOW = 1


class _Pair(NamedTuple):
    first: int
    rest: list


_ODD_TEXT = 'q"uote\\back\x00\x1f\n\t\u00e9\u20ac\U0001f600\ud800'

_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.floats(),
    st.text(max_size=6),
)


@st.composite
def _records(draw, inner):
    """Lists of dicts that share one key order, each field drawn from one kind;
    random dicts rarely share their keys."""
    kinds = [
        st.integers(),
        st.one_of(st.integers(), st.booleans()),
        st.lists(st.integers(), max_size=3),
        st.lists(st.integers(), min_size=1, max_size=3).map(tuple),
        st.lists(st.one_of(st.integers(), st.booleans()), min_size=1, max_size=3),
        inner,
    ]
    fields = draw(st.dictionaries(st.text(max_size=3), st.sampled_from(kinds), max_size=3))
    record = st.tuples(*fields.values()).map(lambda values: dict(zip(fields, values)))
    return draw(st.lists(record, min_size=1, max_size=4))


_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        _records(inner),
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(st.integers(), max_size=5),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.dictionaries(
            st.one_of(st.text(max_size=2), st.integers(), st.none(), st.booleans(),
                      st.floats(allow_nan=False)),
            inner,
            max_size=3,
        ),
    ),
    max_leaves=24,
)


class TestRenderJson:
    """``_render_json`` renders every JSON envelope ``main`` writes; these
    call it directly."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_JSON_VALUES)
    def test_equals_json_dumps_indent_2(self, value):
        assert cli_mod._render_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        [1, True],
        _Level.LOW,
        [_Level.LOW, 2],
        {"level": _Level.LOW},
        _Pair(1, [2, 3]),
        [_Pair(0, [])],
        {1: "a", None: 2, 2.5: 0},
        {"outer": {1: "a", None: 2, 2.5: 0}},
        OrderedDict([("b", 1), ("a", [1, 2])]),
        [OrderedDict(b=1)],
        [float("nan"), float("inf"), -float("inf"), 0.5],
        {"x": float("nan")},
        [2**64, -(2**64) - 1, 2**200],
        {"big": 2**100},
        _ODD_TEXT,
        [_ODD_TEXT, '"', "\\", "\x07", "\u00fc"],
        {_ODD_TEXT: _ODD_TEXT},
        {},
        [],
        (),
        [[[[{}]]]],
        {"a": {"b": {"c": {"d": []}}}},
        [{}, [], {"e": {}}, ()],
        # Lists of records, rendered a column at a time when every field qualifies.
        [{"partition": [3, 1], "coeff": 2}],
        [{"partition": [], "coeff": 1}, {"partition": [2], "coeff": -1}],
        [{"p": [1], "c": 1}, {"p": [1, True], "c": 2}],
        [{"p": [1], "c": True}, {"p": [2], "c": 1}],
        [{"p": [1], "c": _Level.LOW}],
        [{"p": [_Level.LOW, 2], "c": 1}],
        [{"k": 1, "witness": {"lambda": [2, 1], "mu": [1], "lambda_plus": [3, 1]}},
         {"k": 2, "witness": {"lambda": [4], "mu": [], "lambda_plus": [5]}}],
        [{"k": 1, "witness": {"lambda": [2, 1], "mu": [1]}},
         {"k": 2, "witness": {"lambda": [4], "mu": [2, 2]}}],
        [{"a": 1, "b": [2]}, {"b": [2], "a": 1}],
        [{1: 2}, {1: 3}],
        [{"a": 1, None: [1]}],
        [{"p": [2**70, -3], "c": -(2**70)}, {"p": [-1, -(2**70)], "c": 0}],
        [{"p": (3, 1), "c": 1}, {"p": [2], "c": 1}],
        [{"p": _Pair(1, [2]), "c": 1}],
        [{"p": [1], "c": 1}, {"p": [3, 2, 1], "c": 2}, {"p": [5, 5], "c": -1}],
        [{"%d": [1], "a%s": 2}, {"%d": [7, 7], "a%s": 3}],
        [{}, {}],
        [[3, 1], (2,), [1, 1, 1]],
        [[3, 1], []],
    ])
    def test_edge_cases(self, value):
        assert cli_mod._render_json(value) == json.dumps(value, indent=2)

    def test_expansion_renders_as_its_json_records(self):
        """An expansion renders as its ``to_json_dict()["terms"]``: a
        non-empty one of positive degree from its own terms, the others
        through those records; both keep the schema of ``to_json_dict``."""
        expansions = [
            petrie_times_power_sum(k, m, n)
            for k in range(2, 6) for m in range(9) for n in range(1, 5)
        ] + [
            SchurExpansion(3, {}),
            SchurExpansion(0, {(): 1}),
            SchurExpansion(4, {(4,): 1}),
            SchurExpansion(7, {(7,): -2, (4, 3): 2**70, (3, 3, 1): -1, (2,) * 3 + (1,): 2}),
            # Parts of three and four digits, and a degree-0 term: the digit
            # table must reach the largest part, and () has no first part.
            petrie_times_power_sum(2, 5, 150),
            SchurExpansion(1000, {(1000,): 1, (999, 1): -1}),
            SchurExpansion(0, {(): -3}),
        ]
        nestings = [lambda v: {"result": v}, lambda v: [{"params": {}, "result": v}, 1]]
        for f in expansions:
            for nest in nestings:
                value = nest({"degree": f.degree, "terms": f})
                expected = json.dumps(nest(f.to_json_dict()), indent=2)
                assert cli_mod._render_json(value) == expected

    def test_rendering_memory_is_bounded(self):
        """The fastpath anchor envelope renders with a peak of at most 2.5
        times its output, whether its result holds the JSON records or the
        expansion itself; a renderer that copies each level's string into its
        parent's peaks above 3."""
        f = petrie_times_power_sum(7, 43, 11)
        envelope = {
            "command": "multiply",
            "params": {"k": 7, "m": 43, "n": 11, "verify": False},
            "result": f.to_json_dict(),
            "format_version": cli_mod.FORMAT_VERSION,
        }
        expected = json.dumps(envelope, indent=2)
        for result in [envelope["result"], {"degree": f.degree, "terms": f}]:
            envelope["result"] = result
            tracemalloc.start()
            try:
                out = cli_mod._render_json(envelope)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out == expected
            assert peak <= 2.5 * len(out)

    def test_large_envelope_is_indent_2(self):
        code, out, err = run_cli(["multiply", "7", "43", "11", "--json"])
        assert code == 0, err
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2) + "\n"
        assert len(payload["result"]["terms"]) == 5208


class TestJsonNativePayloads:
    """Every ``to_json_dict`` payload equals its own JSON round trip: lists,
    never tuples, so a parsed envelope compares equal to a fresh payload."""

    @pytest.mark.parametrize("build", [
        lambda: petrie_times_power_sum(4, 9, 3),
        lambda: sweep_smf(4, 8, 4),
        lambda: transition_matrix(3, 5),
        lambda: profile((4, 2), 3),
    ], ids=["SchurExpansion", "SweepReport", "TransitionMatrix", "Profile"])
    def test_round_trip(self, build):
        payload = build().to_json_dict()
        assert json.loads(json.dumps(payload)) == payload


class TestTextCommands:
    def test_pet_values(self):
        assert run_cli(["pet", "3,3,1", "3"]) == (0, "0\n", "")
        assert run_cli(["pet", "3,3,1", "4"]) == (0, "1\n", "")
        assert run_cli(["pet", "", "7"]) == (0, "1\n", "")

    def test_core_values(self):
        assert run_cli(["core", "3,3,2", "4"])[1] == "[]\n"
        assert run_cli(["core", "2,1,1", "3"])[1] == "[2,1,1]\n"
        assert run_cli(["core", "4", "3"])[1] == "[1]\n"

    def test_core_chain(self):
        code, out, _ = run_cli(["core", "3,3,2", "4", "--chain"])
        assert code == 0
        assert out.splitlines()[0] == "[]"
        assert "sign: 1" in out

    def test_classify_text(self):
        code, out, _ = run_cli(["classify", "3", "5", "3", "--witness"])
        assert code == 0
        assert out.splitlines()[0] == "non-SMF"
        assert "lambda_plus=[2,2,2,2]" in out
        code, out, _ = run_cli(["classify", "3", "5", "2"])
        assert code == 0 and out == "SMF\n"
        code, out, _ = run_cli(["classify", "2", "100", "6"])
        assert code == 0 and out == "SMF\n"

    def test_classify_check(self):
        code, out, _ = run_cli(["classify", "3", "5", "3", "--check"])
        assert code == 0
        assert "checked: expansion agrees" in out

    def test_sweep_text(self):
        code, out, _ = run_cli(["sweep", "6", "10", "6"])
        assert code == 0
        assert "0 disagreements" in out
        code, out, _ = run_cli(["sweep", "1", "1", "1"])
        assert code == 0
        assert "0 disagreements" in out

    def test_sweep_out_file(self, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = run_cli(["sweep", "3", "5", "3", "--out", str(target)])
        assert code == 0
        assert "report written" in out
        assert "0 disagreements" in target.read_text()

    def test_sweep_out_file_matches_stdout(self, tmp_path):
        target = tmp_path / "report"
        for fmt in ("--json", "--text"):
            _, printed, _ = run_cli(["sweep", "3", "5", "3", fmt])
            code, _, _ = run_cli(["sweep", "3", "5", "3", fmt, "--out", str(target)])
            assert code == 0
            assert target.read_text(encoding="utf-8") == printed

    def test_verify_liu_polo(self):
        code, out, _ = run_cli(["verify-liu-polo", "2", "10"])
        assert code == 0
        assert "all identities hold" in out

    def test_expand_verify(self):
        assert run_cli(["expand", "4", "8", "--verify", "--text"])[0] == 0
        assert run_cli(["multiply", "3", "5", "3", "--verify", "--text"])[0] == 0


class TestExitCodes:
    def test_bad_arguments(self):
        assert run_cli(["expand", "0", "3"])[0] == 2
        assert run_cli(["multiply", "3", "-1", "2"])[0] == 2
        assert run_cli(["pet", "1,3", "4"])[0] == 2  # malformed partition
        assert run_cli(["sweep", "0", "5", "3"])[0] == 2
        assert run_cli(["core", "2,1", "1", "--chain"])[0] == 2
        assert run_cli(["expand", "4"])[0] == 2  # argparse: missing operand

    def test_witness_in_smf_region(self):
        code, _, err = run_cli(["classify", "3", "5", "2", "--witness"])
        assert code == 4
        assert "no witness" in err

    def test_pet_disagreement_exits_3(self, monkeypatch):
        monkeypatch.setitem(
            cli_mod.__dict__, "pet_grinberg", lambda lam, k: 0
        )
        code, out, _ = run_cli(["pet", "3,3,1", "4", "--method=all"])
        assert code == 3

    def test_verify_mismatch_exits_3(self, monkeypatch):
        monkeypatch.setattr(
            cli_mod.oracle,
            "monomial_to_schur",
            lambda v: SchurExpansion(v.degree, {}),
        )
        code, _, err = run_cli(["expand", "4", "8", "--verify"])
        assert code == 3
        assert "disagrees" in err

    def test_strip_product_mismatch_exits_3(self, monkeypatch):
        monkeypatch.setattr(
            cli_mod.oracle,
            "pieri_times_power_sum",
            lambda f, n: SchurExpansion(f.degree + n, {}),
        )
        code, out, err = run_cli(["multiply", "3", "5", "3", "--verify"])
        assert code == 3 and not out
        assert "oracle disagrees with fast path for multiply 3 5 3" in err

    def test_internal_invariant_failure_exits_3(self, monkeypatch):
        import petrie.schur_ring as sr

        def broken(*args):
            raise InternalInvariantFailure("witness contributions do not reinforce")

        monkeypatch.setattr(sr, "verify_witness", broken)
        code, _, err = run_cli(["classify", "3", "5", "3", "--witness"])
        assert code == 3
        assert "defect" in err

    def test_sweep_out_missing_directory_exits_2(self, tmp_path, monkeypatch):
        import petrie.schur_ring as sr

        def never(*args, **kwargs):
            raise AssertionError("sweep ran before the output path was checked")

        monkeypatch.setattr(sr, "sweep_smf", never)
        target = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(["sweep", "3", "4", "3", "--out", str(target)])
        assert code == 2
        assert err.startswith("error:") and "does not exist" in err
        assert out == ""
        assert not target.parent.exists()

    def test_sweep_out_directory_exits_2(self, tmp_path, monkeypatch):
        import petrie.schur_ring as sr

        def never(*args, **kwargs):
            raise AssertionError("sweep ran before the output path was checked")

        monkeypatch.setattr(sr, "sweep_smf", never)
        code, out, err = run_cli(["sweep", "3", "4", "3", "--out", str(tmp_path)])
        assert code == 2
        assert err.startswith("error:") and "is a directory" in err
        assert out == ""

    def test_sweep_out_unopenable_file_exits_2(self, tmp_path):
        # A file name longer than the file system allows: open() raises OSError.
        target = tmp_path / ("r" * 300)
        code, out, err = run_cli(["sweep", "3", "4", "3", "--out", str(target)])
        assert code == 2
        assert err.startswith("error: cannot write --out file")
        assert out == ""

    def test_sweep_disagreement_exits_5(self, monkeypatch):
        import petrie.schur_ring as sr

        monkeypatch.setattr(sr, "classify_smf", lambda k, m, n: True)
        code, _, err = run_cli(["sweep", "3", "5", "3"])
        assert code == 5

    def test_witness_shape_not_a_partition_exits_5(self, monkeypatch):
        # a library-built shape that is not a partition is a defect that the
        # sweep reports as a disagreement, not bad arguments (exit 2)
        import petrie.schur_ring as sr

        stack = sr._stack
        for bad in range(3):  # lam_plus, lam, mu in the order they are stacked
            calls = []

            def broken(*args):
                calls.append(args)
                return (1, 2, 2) if (len(calls) - 1) % 3 == bad else stack(*args)

            monkeypatch.setattr(sr, "_stack", broken)
            code, out, _ = run_cli(["sweep", "3", "5", "3"])
            assert code == 5, bad
            assert "DISAGREEMENT at k=3 m=5 n=3" in out, bad


class TestFormatSelection:
    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("PETRIE_FORMAT", "json")
        _, out, _ = run_cli(["expand", "2", "3"])
        assert json.loads(out)["command"] == "expand"

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("PETRIE_FORMAT", "json")
        _, out, _ = run_cli(["expand", "2", "3", "--text"])
        assert out == "s[1,1,1]\n"

    def test_default_is_text(self, monkeypatch):
        monkeypatch.delenv("PETRIE_FORMAT", raising=False)
        _, out, _ = run_cli(["expand", "2", "3"])
        assert out == "s[1,1,1]\n"


# Operand tokens int() reads (or not) in ways a hand-written check might miss.
_OPERAND_TOKENS = ["7", "-1", "+3", " 4", "1_0", "x", "", "3,3,1"]
# Forms only argparse reads: abbreviations, a switch given a value, a
# rejected method, a negative value, both formats, help and "--".
_ARGPARSE_FORMS = [
    ["--js"], ["--ver"], ["--verify=1"], ["--method=bogus"], ["--jobs", "-1"],
    ["--json", "--text"], ["-h"], ["--"],
]


def _flag_forms(flags):
    """Each flag as ``--f``, ``--f=v`` and ``--f v`` for a few values."""
    values = ["2", "-1", "all", "bogus", "x", ""]
    return [[flag] for flag in flags] + [
        form for flag in flags for value in values for form in ([f"{flag}={value}"], [flag, value])
    ]


_ALL_FLAGS = sorted({flag for verb in cli_mod._VERBS for flag, _ in verb[4] + cli_mod._FORMATS})


@st.composite
def _argvs(draw):
    """A verb, one operand too few, too many or just enough, and up to three
    flag forms (repeats included), the verb's own ones most often, shuffled."""
    verb = draw(st.sampled_from(cli_mod._VERBS))
    count = len(verb[3]) + draw(st.sampled_from([-1, 0, 0, 1]))
    operand = st.one_of(st.integers(0, 12).map(str), st.sampled_from(_OPERAND_TOKENS))
    own = _flag_forms([flag for flag, _ in verb[4] + cli_mod._FORMATS])
    form = st.one_of(
        st.sampled_from(own), st.sampled_from(_flag_forms(_ALL_FLAGS) + _ARGPARSE_FORMS)
    )
    chunks = [[word] for word in draw(st.lists(operand, min_size=count, max_size=count))]
    chunks += draw(st.lists(form, max_size=3))
    return [verb[0], *chain.from_iterable(draw(st.permutations(chunks)))]


def _argparse_vars(argv):
    """``vars(build_parser().parse_args(argv))``, or ``None`` where argparse exits."""
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        try:
            return vars(cli_mod.build_parser().parse_args(argv))
        except SystemExit:
            return None


class TestVerbTable:
    """``main`` reads a well-formed argv from the verb table and leaves the
    rest to argparse; whatever the table reads, argparse reads the same."""

    @settings(derandomize=True, max_examples=800, deadline=None)
    @given(_argvs())
    @example(["multiply", "3", "5", "2", "--json", "--text"])
    @example(["pet", "3,3,1", "4", "--method=bogus"])
    @example(["pet", "3,3,1", "4", "--method", "bogus"])
    @example(["multiply", "3", "5"])
    @example(["multiply", "3", "5", "2", "--verify=1"])
    @example(["sweep", "3", "5", "2", "--jobs"])
    def test_agrees_with_argparse(self, argv):
        table = cli_mod._read_argv(argv)
        assert table is None or vars(table) == _argparse_vars(argv)

    @pytest.mark.parametrize("argv", [
        ["multiply", "7", "43", "11", "--json"],
        ["multiply", "5", "6", "5", "--verify", "--json"],
        ["sweep", "8", "20", "10", "--jobs", "2", "--json"],
        ["transition", "4", "9", "--json"],
    ], ids=["multiply", "multiply-verify", "sweep", "transition"])
    def test_reads_every_benchmark_op_shape(self, argv):
        table = cli_mod._read_argv(argv)
        assert table is not None
        assert vars(table) == _argparse_vars(argv)


class TestSubprocess:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "petrie", "expand", "2", "3", "--text"],
            capture_output=True,
            text=True,
            env={**os.environ, "PETRIE_FORMAT": ""},
        )
        assert proc.returncode == 0
        assert proc.stdout == "s[1,1,1]\n"

    def test_closed_stdout_exits_quietly(self):
        # About 400 KB of JSON, far more than the pipe holds once the reader is gone.
        proc = subprocess.Popen(
            [sys.executable, "-m", "petrie", "multiply", "7", "43", "11", "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert err == b""
        assert proc.returncode == cli_mod.EXIT_CLOSED_PIPE == 1

    def test_sweep_with_jobs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "petrie", "sweep", "3", "4", "3", "--jobs", "2", "--text"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "0 disagreements" in proc.stdout
