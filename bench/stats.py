"""Summary arithmetic shared by the benchmark runner and its helper scripts."""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from typing import Iterable, Sequence

TAIL_MIN_BEYOND = 10
CALIBRATION_LOOPS = 200_000


def digest(result) -> str:
    """SHA-256 of a result payload in canonical JSON."""
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def calibrate() -> float:
    """Seconds this process takes for a fixed pure-Python loop.

    It shares no code with petrie, so it gauges only how fast the machine
    runs Python at the moment.
    """
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return time.perf_counter() - start


def tail_percentile(values: Sequence[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it.

    With n sorted samples, the sample of rank r (1-based) has n - r samples
    above it, so the highest qualifying rank is n - 10 and the percentile is
    100 * (n - 10) / n.  Returns (percentile, value), or None when fewer than
    eleven samples exist.
    """
    n = len(values)
    if n <= TAIL_MIN_BEYOND:
        return None
    rank = n - TAIL_MIN_BEYOND
    return 100.0 * rank / n, sorted(values)[rank - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartiles as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def self_times(spans: Iterable[tuple[int, int | None, str, int, int]]) -> dict[int, int]:
    """Self time of every span: its duration minus the part its children cover.

    Each span is (id, parent_id, name, start, end).  Children of one parent
    may overlap each other; the covered part is the union of their
    intervals clipped to the parent's interval.
    """
    spans = list(spans)
    by_id = {sid: (start, end) for sid, _, _, start, end in spans}
    children: dict[int, list[tuple[int, int]]] = {}
    for _, parent, _, start, end in spans:
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, (start, end) in by_id.items():
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out
