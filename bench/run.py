"""The petrie benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload fastpath|sweep|oracle --seed N --seconds S --trace 0|1

Run it from anywhere; it measures the checkout it lives in (``src/petrie``).
One client sends the workload's ops in a closed loop: each op starts when the
previous one has returned.  Every op runs in a fresh interpreter, as a CLI
call does, so module caches start cold for each op and work moved into import
time shows in ``setup_s``.  Before measuring, the ops run once and their
results are checked by an independent route (verify.py); the SHA-256 of each
checked result is then compared with every measured op's result.

Repetitions of the whole op list run until ``--seconds`` would be exceeded.
With ``--trace 0`` the last line reports the end-to-end metrics, each the
median over repetitions (``setup_s``: over every op process started):

- setup_s: from spawning an op's interpreter until ``petrie`` and
  ``petrie.cli`` are imported.
- wall_s: the op list's wall time, the ops' own time without set-up.
- cpu_s: user plus system CPU of the op list, pool workers included,
  without set-up.
- peak_rss_mb: the largest resident set of any process in the op list.
- failed_ops: ops with a nonzero exit code or a result whose digest differs
  from the checked one, out of the ops attempted.  It is printed as a line
  and carried by the last line's ``failed`` and ``attempted``, not listed in
  BENCHMARK.json, whose metrics must never read 0.  Any failure makes the
  exit code 1.

The times are reported in reference seconds.  Shared machines change speed
by up to half in phases that outlast a run, which moves every time of a run
by the same factor.  So each op process also times a fixed pure-Python loop
that shares no code with petrie (stats.calibrate) before and after its op,
and each op's times are scaled by CALIBRATION_REF_S over that loop's mean
time (set-up time by the loop timed right after set-up): they read as if the
loop took CALIBRATION_REF_S.  A change to petrie moves them as much as it
moves the raw times, which are printed beside them.

With ``--trace 1``, every op runs untraced and then traced, and the last
line reports the per-layer metrics: tracer.py's spans and counters, summed
over the ops of a repetition, and the traced and untraced wall times and
their difference, the tracing overhead.  A layer the workload does not reach
reads 0; a metric whose function or module global is gone from the program
is printed as absent and left out.  Per-layer times are unscaled;
``bench.calibration_s`` is the loop's median time in the traced ops.  The
spans of the first traced repetition are written to
``bench/out/trace-<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
OP_TIMEOUT_S = 150
# Reference time of stats.calibrate(); time metrics are reported as if the
# machine ran that loop in exactly this long.
CALIBRATION_REF_S = 0.016

sys.path.insert(0, str(BENCH))

from launcher import launch  # noqa: E402
from stats import tail_percentile  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics: (name, unit, source).  A source is a span statistic
# ("calls", "self_s"), a counter name, or a ratio of two counters; a metric
# whose span or counter is missing from the program is reported absent.
PER_LAYER = (
    ("partitions.partitions_of.calls", "count", "calls"),
    ("partitions.partitions_of.self_s", "s", "self_s"),
    ("partitions.partitions_of.yielded", "count", "partitions.partitions_of.yielded"),
    ("partitions.add_rim_hooks.calls", "count", "calls"),
    ("partitions.add_rim_hooks.self_s", "s", "self_s"),
    ("partitions.add_rim_hooks.yielded", "count", "partitions.add_rim_hooks.yielded"),
    ("abacus.profile.calls", "count", "calls"),
    ("abacus.profile.self_s", "s", "self_s"),
    ("abacus.k_core.calls", "count", "calls"),
    ("abacus.k_core.self_s", "s", "self_s"),
    ("petrie_numbers.pet_grinberg.calls", "count", "calls"),
    ("petrie_numbers.pet_grinberg.self_s", "s", "self_s"),
    ("petrie_numbers.pet_grinberg.nonzero_ratio", "ratio",
     ("petrie_numbers.pet_grinberg.nonzero", "petrie_numbers.pet_grinberg.calls")),
    ("petrie_numbers.pet_det.calls", "count", "calls"),
    ("petrie_numbers.pet_det.self_s", "s", "self_s"),
    ("schur_ring.petrie_schur_expansion.calls", "count", "calls"),
    ("schur_ring.petrie_schur_expansion.self_s", "s", "self_s"),
    ("schur_ring.petrie_schur_expansion.distinct_ratio", "ratio",
     ("schur_ring.petrie_schur_expansion.distinct", "schur_ring.petrie_schur_expansion.calls")),
    ("schur_ring.multiply_power_sum.calls", "count", "calls"),
    ("schur_ring.multiply_power_sum.self_s", "s", "self_s"),
    ("schur_ring.multiply_power_sum.combine_ratio", "ratio",
     ("schur_ring.multiply_power_sum.out_terms", "schur_ring.multiply_power_sum.hooks_added")),
    ("schur_ring.SchurExpansion.calls", "count", "calls"),
    ("schur_ring.SchurExpansion.self_s", "s", "self_s"),
    ("schur_ring.witness_non_smf.calls", "count", "calls"),
    ("schur_ring.witness_non_smf.self_s", "s", "self_s"),
    ("schur_ring.sweep_smf.calls", "count", "calls"),
    ("schur_ring.sweep_smf.self_s", "s", "self_s"),
    ("schur_ring.sweep_smf.triples", "count", "schur_ring.sweep_smf.triples"),
    ("schur_ring.sweep_smf.worker_cpu_s", "s", "schur_ring.sweep_smf.worker_cpu_s"),
    ("schur_ring.sweep_smf.pool_idle_s", "s", "schur_ring.sweep_smf.pool_idle_s"),
    ("oracle.poly_multiply_extract.calls", "count", "calls"),
    ("oracle.poly_multiply_extract.self_s", "s", "self_s"),
    ("oracle.poly_multiply_extract.out_terms", "count", "oracle.poly_multiply_extract.out_terms"),
    ("oracle.poly_multiply_extract.pairs_computed", "count",
     "oracle.poly_multiply_extract.pairs_computed"),
    ("oracle.monomial_to_schur.calls", "count", "calls"),
    ("oracle.monomial_to_schur.self_s", "s", "self_s"),
    ("oracle.schur_monomial_vector.calls", "count", "calls"),
    ("oracle.schur_monomial_vector.self_s", "s", "self_s"),
    ("oracle.kostka_number.hits", "count", "oracle.kostka_number.hits"),
    ("oracle.kostka_number.misses", "count", "oracle.kostka_number.misses"),
    ("oracle.kostka_number.currsize", "count", "oracle.kostka_number.currsize"),
    ("modular_schur.transition_matrix.calls", "count", "calls"),
    ("modular_schur.transition_matrix.self_s", "s", "self_s"),
    ("modular_schur.product_cache.entries", "count", "modular_schur.product_cache.entries"),
    ("cli.main.calls", "count", "calls"),
    ("cli.main.self_s", "s", "self_s"),
    ("cli.main.output_bytes", "bytes", "cli.main.output_bytes"),
    ("bench.trace.wall_s", "s", "trace"),
    ("bench.trace.untraced_wall_s", "s", "trace"),
    ("bench.trace.overhead_s", "s", "trace"),
    ("bench.trace.self_sum_s", "s", "trace"),
    ("bench.calibration_s", "s", "trace"),
)


class Launcher:
    """A small process that starts the measured ops (see launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __call__(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def spawn(op: dict, trace: bool = False, spans: str | None = None,
          keep_output: bool = False, start=launch) -> dict:
    """Run one op in a fresh interpreter; its report, or {"error": ...}.

    ``start`` runs the request: launcher.launch in this process, or a
    Launcher for measured ops.
    """
    env = {key: value for key, value in os.environ.items() if key != "PETRIE_FORMAT"}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    spec = {"op": op, "trace": trace, "spans": spans, "keep_output": keep_output}
    reply = start({
        "argv": [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
        "env": env,
        "cwd": str(ROOT),
        "timeout": OP_TIMEOUT_S,
    })
    if reply["returncode"] is None:
        return {"error": f"timed out after {OP_TIMEOUT_S} s"}
    lines = reply["stdout"].strip().splitlines()
    if reply["returncode"] != 0 or not lines:
        return {"error": f"worker exited {reply['returncode']}: {reply['stderr'].strip()[-500:]}"}
    report = json.loads(lines[-1])
    report["setup_s"] = (report["ready_ns"] - reply["spawned_ns"]) / 1e9
    return report


def parse_result(report: dict):
    """The op's parsed JSON output, or None when it failed."""
    if "error" in report or report["exit_code"] != 0:
        return None
    try:
        return json.loads(report["stdout"])
    except json.JSONDecodeError:
        return None


def _jobs_one(op: dict) -> dict | None:
    """The same sweep at --jobs 1, for ops that ask for more jobs."""
    argv = op.get("cli", [])
    if argv[:1] != ["sweep"] or "--jobs" not in argv:
        return None
    at = argv.index("--jobs") + 1
    if argv[at] == "1":
        return None
    return {"cli": argv[:at] + ["1"] + argv[at + 1:]}


def reference(ops: list[dict], check) -> list[str | None]:
    """Run every op once, check its result, and return the verified digests.

    An op whose result fails its check, or a pooled sweep whose report is
    not identical to the --jobs 1 report, gets None: every measured run of
    it then counts as failed.
    """
    expected = []
    for i, op in enumerate(ops):
        report = spawn(op, keep_output=True)
        envelope = parse_result(report)
        problem = "op failed" if envelope is None else check(op, envelope)
        alone = _jobs_one(op)
        if problem is None and alone is not None:
            if spawn(alone).get("digest") != report["digest"]:
                problem = "report differs from the --jobs 1 report"
        if problem is not None:
            print(f"op {i} {op}: {problem}", file=sys.stderr)
        expected.append(None if problem else report["digest"])
    return expected


def run_list(ops, expected, start, traces=(False,), spans_dir=None) -> list[dict]:
    """One repetition of the op list for each entry of ``traces`` (traced or
    not), interleaved op by op so that they share the machine's conditions.
    Each has its totals and every op's report; ``spans_dir`` takes the spans
    of the traced ops."""
    reports = [[] for _ in traces]
    for i, op in enumerate(ops):
        for rep, trace in zip(reports, traces):
            spans = str(spans_dir / f"op{i:02d}.jsonl.gz") if trace and spans_dir else None
            report = spawn(op, trace, spans, start=start)
            report["failed"] = report.get("digest") is None or report["digest"] != expected[i]
            if report["failed"]:
                print(f"op {i} {op} failed: {report.get('error') or report['stderr'][-300:]}", file=sys.stderr)
            rep.append(report)
    totals = []
    for rep in reports:
        ok = [r for r in rep if "error" not in r]
        totals.append({
            "reports": rep,
            "wall_s": sum(r["wall_s"] for r in ok),
            "cpu_s": sum(r["cpu_s"] for r in ok),
            "peak_rss_mb": max((r["maxrss_kb"] for r in ok), default=0) / 1024,
        })
    return totals


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, tuple[float, int]]:
    """Per-layer values as (median over traced repetitions, samples)."""
    per_rep = []
    for rep in traced:
        summaries = [r["trace"] for r in rep["reports"] if r.get("trace")]
        present = set().union(*(s["present"] for s in summaries)) if summaries else set()
        counters: dict[str, float] = {}
        self_s: dict[str, float] = {}
        distinct = set()
        for s in summaries:
            for key, value in s["counters"].items():
                counters[key] = counters.get(key, 0) + value
            for key, value in s["self_s"].items():
                self_s[key] = self_s.get(key, 0.0) + value
            distinct.update(map(tuple, s["distinct_km"]))
        counters["schur_ring.petrie_schur_expansion.distinct"] = len(distinct)
        values = {
            "bench.trace.wall_s": rep["wall_s"],
            "bench.trace.self_sum_s": sum(self_s.values()),
            "bench.calibration_s": median([c for r in rep["reports"] if "error" not in r for c in r["calibration_s"]]),
        }
        for name, _, source in PER_LAYER:
            span = name.rpartition(".")[0]
            if source in ("calls", "self_s"):
                if span in present:
                    values[name] = counters.get(name, 0) if source == "calls" else self_s.get(span, 0.0)
            elif isinstance(source, tuple):
                if span in present:
                    num, den = (counters.get(key, 0) for key in source)
                    values[name] = num / den if den else 0.0
            elif source != "trace" and (source in counters or span in present):
                values[name] = counters.get(source, 0)
        per_rep.append(values)
    out = {}
    for name in {key for values in per_rep for key in values}:
        samples = [values[name] for values in per_rep if name in values]
        out[name] = (median(samples), len(samples))
    untraced_wall = median([rep["wall_s"] for rep in untraced])
    out["bench.trace.untraced_wall_s"] = (untraced_wall, len(untraced))
    out["bench.trace.overhead_s"] = (out["bench.trace.wall_s"][0] - untraced_wall, len(traced))
    return out


def _line(name: str, unit: str, samples: list[float], note: str = "") -> str:
    tail = tail_percentile(samples)
    tail_text = f"p{tail[0]:.0f} {tail[1]:.6g}" if tail else "no tail (n <= 10)"
    return f"{name:<48} median {median(samples):<12.6g} {unit:<6} {tail_text:<20} n={len(samples)}{note}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "petrie" / "__init__.py").is_file():
        print(f"error: no petrie package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from verify import check

    ops = generate(args.workload, args.seed)
    expected = reference(ops, check)

    spans_dir = None
    if args.trace:
        spans_dir = OUT / f"trace-{args.workload}"
        spans_dir.mkdir(parents=True, exist_ok=True)
        for old in spans_dir.glob("*.jsonl.gz"):
            old.unlink()

    untraced: list[dict] = []
    traced: list[dict] = []
    launcher = Launcher()
    try:
        start = time.perf_counter()
        longest = 0.0
        while True:
            rep_start = time.perf_counter()
            if args.trace:
                plain, with_spans = run_list(ops, expected, launcher, (False, True), None if traced else spans_dir)
                untraced.append(plain)
                traced.append(with_spans)
            else:
                untraced += run_list(ops, expected, launcher)
            longest = max(longest, time.perf_counter() - rep_start)
            if time.perf_counter() - start + longest > args.seconds:
                break
    finally:
        launcher.close()

    reps = untraced + traced
    attempted = sum(len(rep["reports"]) for rep in reps)
    failed = sum(r["failed"] for rep in reps for r in rep["reports"])
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per list,"
          f" {len(untraced)} untraced and {len(traced)} traced repetitions")
    print(f"{'failed_ops':<48} {failed} of {attempted} ops")

    metrics = {}
    if args.trace:
        values = layer_metrics(traced, untraced)
        for name, unit, _ in PER_LAYER:
            if name in values:
                value, samples = values[name]
                metrics[name] = {"value": value, "unit": unit}
                print(f"{name:<48} median {value:<12.6g} {unit:<6} n={samples}")
            else:
                print(f"{name:<48} absent")
        wall, self_sum = values["bench.trace.wall_s"][0], values["bench.trace.self_sum_s"][0]
        overhead = values["bench.trace.overhead_s"][0]
        print(f"traced wall_s - sum of self_s = {wall - self_sum:.6g} s;"
              f" tracing overhead = {overhead:.6g} s")
    else:
        def scale(report, before_only=False):
            loops = report["calibration_s"][:1] if before_only else report["calibration_s"]
            return CALIBRATION_REF_S * len(loops) / sum(loops)

        measured = [[r for r in rep["reports"] if "error" not in r] for rep in untraced]
        ops = [r for rep in measured for r in rep]
        print(_line("calibration_s", "s", [c for r in ops for c in r["calibration_s"]]))
        raw = {
            "setup_s": [r["setup_s"] for r in ops],
            "wall_s": [rep["wall_s"] for rep in untraced],
            "cpu_s": [rep["cpu_s"] for rep in untraced],
        }
        samples = {
            "setup_s": [r["setup_s"] * scale(r, before_only=True) for r in ops],
            "wall_s": [sum(r["wall_s"] * scale(r) for r in rep) for rep in measured],
            "cpu_s": [sum(r["cpu_s"] * scale(r) for r in rep) for rep in measured],
            "peak_rss_mb": [rep["peak_rss_mb"] for rep in untraced],
        }
        for name, unit in END_TO_END:
            note = f"; unscaled median {median(raw[name]):.6g} s" if name in raw else ""
            print(_line(name, unit, samples[name], note))
            metrics[name] = {"value": median(samples[name]), "unit": unit}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
