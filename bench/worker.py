"""Run one op in a fresh interpreter and report how it went.

Usage: python3 bench/worker.py '<json spec>', with petrie importable (the
runner puts the checkout's ``src`` on PYTHONPATH).  The spec holds ``op``
(see workloads.py), ``trace``, ``spans`` (a path for the span file, or null)
and ``keep_output``.  The last line of standard output is one JSON object
with the op's timings, resource use, exit code and the SHA-256 of its JSON
``result``; the op's own output is included only when ``keep_output`` is set.

``ready_ns`` is read from CLOCK_MONOTONIC, which every process shares, right
after ``petrie`` and ``petrie.cli`` are imported, so the runner can take
set-up time from its own spawn timestamp.
"""

import time

import petrie
import petrie.cli

READY_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

from stats import calibrate, digest  # noqa: E402


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def run_op(op: dict) -> tuple[int, str, str]:
    """Exit code, standard output and standard error of one op.

    Functions are looked up through their modules at call time, so traced
    wrappers installed in those namespaces are the ones called.
    """
    if "cli" in op:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = petrie.cli.main(list(op["cli"]))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue(), err.getvalue()
    if op.get("lib") == "schur_times_power_sum":
        oracle = petrie.oracle
        product = oracle.poly_multiply_extract(
            oracle.power_sum_monomial_vector(op["n"]),
            oracle.schur_monomial_vector(tuple(op["lam"])),
        )
        result = oracle.monomial_to_schur(product).to_json_dict()
        return 0, json.dumps({"result": result}), ""
    raise ValueError(f"unknown op {op!r}")


def result_digest(code: int, out: str) -> str | None:
    if code != 0:
        return None
    try:
        return digest(json.loads(out)["result"])
    except (json.JSONDecodeError, KeyError, TypeError):
        return None


def main() -> None:
    spec = json.loads(sys.argv[1])
    calibration_s = [calibrate()]
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cpu_before = _cpu(resource.RUSAGE_SELF)
    start = time.perf_counter_ns()
    code, out, err = run_op(spec["op"])
    wall_ns = time.perf_counter_ns() - start
    own, kids = (resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    calibration_s.append(calibrate())
    report = {
        "ready_ns": READY_NS,
        "calibration_s": calibration_s,
        "wall_s": wall_ns / 1e9,
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime - cpu_before,
        "maxrss_kb": max(own.ru_maxrss, kids.ru_maxrss),
        "exit_code": code,
        "digest": result_digest(code, out),
        "stdout": out if spec.get("keep_output") else None,
        "stderr": err[-2000:],
        "trace": None,
    }
    if tracer is not None:
        tracer.enabled = False
        tracer.read_module_counters()
        if "cli" in spec["op"]:
            tracer.counters["cli.main.output_bytes"] += len(out.encode())
        report["trace"] = tracer.summary()
        if spec.get("spans"):
            tracer.write_spans(spec["spans"])
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
