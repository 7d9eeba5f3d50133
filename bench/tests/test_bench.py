"""Tests of the benchmark's own arithmetic, generator, checks and failure path.

Run with: python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import petrie.cli  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
from combinat import k_core, k_core_length, partitions, petrie_support, remove_hooks  # noqa: E402
from stats import quartile_spread, self_times, tail_percentile  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


class TestSelfTimes:
    def test_nested_spans(self):
        spans = [
            (0, None, "root", 0, 100),
            (1, 0, "a", 10, 40),
            (2, 1, "b", 15, 25),
            (3, 0, "c", 50, 60),
        ]
        assert self_times(spans) == {0: 60, 1: 20, 2: 10, 3: 10}

    def test_overlapping_children_counted_once(self):
        spans = [(0, None, "root", 0, 100), (1, 0, "a", 10, 50), (2, 0, "b", 30, 70)]
        assert self_times(spans)[0] == 40

    def test_child_outside_parent_is_clipped(self):
        spans = [(0, None, "root", 10, 20), (1, 0, "a", 5, 15)]
        assert self_times(spans)[0] == 5

    def test_self_times_sum_to_root_duration(self):
        spans = [(0, None, "r", 0, 1000)] + [(i, 0, "x", 100 * i, 100 * i + 50) for i in range(1, 9)]
        assert sum(self_times(spans).values()) == 1000


class TestPercentileRule:
    def test_too_few_samples_have_no_tail(self):
        assert tail_percentile([1.0] * 10) is None

    @pytest.mark.parametrize("n", [11, 20, 37, 100, 1000])
    def test_ten_samples_beyond(self, n):
        values = [float(v) for v in range(n, 0, -1)]
        percentile, value = tail_percentile(values)
        assert sum(1 for v in values if v > value) == 10
        assert percentile == pytest.approx(100 * (n - 10) / n)

    def test_known_values(self):
        assert tail_percentile([float(v) for v in range(1, 101)]) == (90.0, 90.0)
        assert tail_percentile([float(v) for v in range(1, 21)]) == (50.0, 10.0)

    def test_quartile_spread(self):
        # quantiles of 1..9 (exclusive method): 2.5, 5, 7.5
        assert quartile_spread([float(v) for v in range(1, 10)]) == pytest.approx(1.0)
        assert quartile_spread([2.0] * 5) == 0.0


class TestGenerator:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_same_seed_same_argv(self, workload):
        assert generate(workload, 7) == generate(workload, 7)

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_seeds_change_the_inputs(self, workload):
        assert len({json.dumps(generate(workload, seed)) for seed in range(6)}) > 1

    def test_ops_are_valid_cli_calls(self):
        parser = petrie.cli.build_parser()
        for workload in WORKLOADS:
            for op in generate(workload, 3):
                if "cli" in op:
                    parser.parse_args(op["cli"])
                else:
                    assert op["lib"] == "schur_times_power_sum"

    def test_unknown_workload(self):
        with pytest.raises(ValueError):
            generate("nope", 0)


class TestChecks:
    def test_remove_hooks_matches_library(self):
        for lam in petrie.partitions_of(9):
            for n in range(1, 6):
                mine = dict(remove_hooks(lam, n))
                theirs = {
                    mu: -1 if petrie.rim_hook_height(petrie.SkewShape(lam, mu)) % 2 else 1
                    for mu in petrie.remove_rim_hooks(lam, n)
                }
                assert mine == theirs, (lam, n)

    def test_k_core_matches_library(self):
        for lam in petrie.partitions_of(10):
            for k in range(2, 5):
                assert k_core(lam, k) == petrie.k_core(lam, k)
                assert k_core_length(lam, k) == len(petrie.k_core(lam, k))

    def test_partitions_match_library(self):
        for m in range(14):
            for cap in range(m + 2):
                assert list(partitions(m, cap)) == petrie.partitions_of(m, cap)

    def test_support_matches_petrie_expansion(self):
        for k, m in [(3, 7), (5, 12), (7, 15)]:
            assert list(petrie_support(k, m)) == sorted(petrie.petrie_schur_expansion(k, m).support(), reverse=True)

    def test_product_check_accepts_and_rejects(self):
        result = petrie.petrie_times_power_sum(4, 9, 4).to_json_dict()
        assert verify.check_product(4, 9, 4, result) is None
        wrong = json.loads(json.dumps(result))
        wrong["terms"][3]["coeff"] += 1
        assert "coefficient" in verify.check_product(4, 9, 4, wrong)
        dropped = json.loads(json.dumps(result))
        del dropped["terms"][5]
        assert "specialisation" in verify.check_product(4, 9, 4, dropped)

    def test_sweep_check(self):
        report = petrie.sweep_smf(5, 8, 6).to_json_dict()
        params = {"k_max": 5, "m_max": 8, "n_max": 6}
        assert verify.check_sweep(params, report) is None
        report["non_smf"][0]["witness"]["mu"] = report["non_smf"][0]["witness"]["lambda"]
        assert verify.check_sweep(params, report) is not None

    def test_transition_check(self):
        result = petrie.transition_matrix(3, 5).to_json_dict()
        assert verify.check_transition(3, 5, result) is None
        first, second = list(result["blocks"])[:2]
        result["entries"][result["blocks"][first][0]][result["blocks"][second][0]] = 1
        assert "crosses" in verify.check_transition(3, 5, result)


class TestTracing:
    def test_traced_op_counts_and_self_times(self, tmp_path):
        spans = tmp_path / "spans.jsonl.gz"
        report = run.spawn({"cli": ["multiply", "4", "8", "3", "--json"]}, True, str(spans))
        summary = report["trace"]
        counters = summary["counters"]
        assert counters["cli.main.calls"] == 1
        assert counters["schur_ring.petrie_schur_expansion.calls"] == 1
        assert counters["petrie_numbers.pet_grinberg.calls"] == len(petrie.partitions_of(8, 3))
        assert sum(summary["self_s"].values()) == pytest.approx(summary["root_s"])
        assert summary["root_s"] <= report["wall_s"]
        assert spans.stat().st_size > 0

    def test_missing_module_counters_stay_absent(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "petrie.oracle", SimpleNamespace())
        monkeypatch.setitem(sys.modules, "petrie.modular_schur", SimpleNamespace())
        tracer = Tracer()
        tracer.read_module_counters()
        assert "oracle.kostka_number.hits" not in tracer.counters
        assert "modular_schur.product_cache.entries" not in tracer.counters
        rep = {"wall_s": 1.0, "reports": [{"trace": tracer.summary(), "calibration_s": [0.02, 0.03]}]}
        values = run.layer_metrics([rep], [{"wall_s": 0.9}])
        assert "oracle.kostka_number.hits" not in values
        assert values["bench.calibration_s"] == (pytest.approx(0.025), 1)
        assert values["bench.trace.overhead_s"][0] == pytest.approx(0.1)


class TestCommand:
    TINY = [{"cli": ["multiply", "3", "6", "3", "--json"]}, {"cli": ["multiply", "4", "7", "2", "--json"]}]

    def _run(self, monkeypatch, corrupt: bool):
        monkeypatch.setattr(run, "generate", lambda workload, seed: self.TINY)
        real = run.reference

        def reference(ops, check):
            expected = real(ops, check)
            if corrupt:
                expected[1] = "0" * 64
            return expected

        monkeypatch.setattr(run, "reference", reference)
        out = io.StringIO()
        with redirect_stdout(out):
            code = run.main(["--workload", "fastpath", "--seed", "1", "--seconds", "0.1"])
        return code, json.loads(out.getvalue().strip().splitlines()[-1])

    def test_clean_run_passes(self, monkeypatch):
        code, result = self._run(monkeypatch, corrupt=False)
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}

    def test_corrupted_digest_fails_the_command(self, monkeypatch):
        code, result = self._run(monkeypatch, corrupt=True)
        assert code == 1
        assert not result["correct"]
        assert result["failed"] == result["attempted"] // 2

    def test_benchmark_file_matches_the_runner(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
        assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in run.PER_LAYER]
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
