import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import run_cli
from petrie import (
    InternalInvariantFailure,
    SchurExpansion,
    petrie_schur_expansion,
    petrie_times_power_sum,
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
        assert SchurExpansion.from_json_dict(payload["result"]) == petrie_schur_expansion(5, 8)

    def test_multiply_absent_term(self):
        payload = self._payload(["multiply", "5", "8", "3", "--json"])
        parts = [tuple(t["partition"]) for t in payload["result"]["terms"]]
        assert (4, 4, 1, 1, 1) not in parts
        assert len(parts) == 16
        assert SchurExpansion.from_json_dict(payload["result"]) == petrie_times_power_sum(5, 8, 3)

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

    def test_sweep_disagreement_exits_5(self, monkeypatch):
        import petrie.schur_ring as sr

        monkeypatch.setattr(sr, "classify_smf", lambda k, m, n: True)
        code, _, err = run_cli(["sweep", "3", "5", "3"])
        assert code == 5


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

    def test_sweep_with_jobs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "petrie", "sweep", "3", "4", "3", "--jobs", "2", "--text"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "0 disagreements" in proc.stdout
