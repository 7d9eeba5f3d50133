"""Partition combinatorics the benchmark computes for itself, without petrie.

The generator uses it to price ops, the checks use it to recompute results
by routes the program does not take, and the tracer to count term pairs.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import Iterator

Partition = tuple[int, ...]


def partitions(m: int, cap: int) -> Iterator[Partition]:
    """Partitions of m with parts at most cap, largest first.

    Each next partition lowers the last part above 1 by one and refills
    what follows greedily with parts no larger than it.
    """
    cap = min(cap, m)
    if m == 0:
        yield ()
    if cap < 1:
        return
    parts = [cap] * (m // cap) + ([m % cap] if m % cap else [])
    while True:
        yield tuple(parts)
        spare = 0
        while parts and parts[-1] == 1:
            parts.pop()
            spare += 1
        if not parts:
            return
        top = parts.pop() - 1
        whole, rest = divmod(spare + 1, top)
        parts += [top] * (whole + 1) + ([rest] if rest else [])


@lru_cache(maxsize=None)
def partition_count(m: int, cap: int) -> int:
    """Number of partitions of m with every part at most cap."""
    if m == 0:
        return 1
    return sum(partition_count(m - first, first) for first in range(1, min(cap, m) + 1))


def orbit_size(lam: Partition, nvars: int) -> int:
    """Distinct monomials x^alpha with sort(alpha) = lam in nvars variables."""
    if len(lam) > nvars:
        return 0
    out = math.factorial(nvars) // math.factorial(nvars - len(lam))
    for mult in Counter(lam).values():
        out //= math.factorial(mult)
    return out


def dominates(lam: Partition, mu: Partition) -> bool:
    """Every prefix sum of lam is at least the one of mu."""
    total_l = total_m = 0
    for i in range(max(len(lam), len(mu))):
        total_l += lam[i] if i < len(lam) else 0
        total_m += mu[i] if i < len(mu) else 0
        if total_m > total_l:
            return False
    return True


def _beads(lam: Partition, count: int) -> list[int]:
    padded = lam + (0,) * (count - len(lam))
    return [padded[i] + count - 1 - i for i in range(count)]


def _from_beads(beads) -> Partition:
    ordered = sorted(beads, reverse=True)
    count = len(ordered)
    return tuple(p for p in (ordered[i] - (count - 1 - i) for i in range(count)) if p)


def k_core(lam: Partition, k: int) -> Partition:
    """Slide every bead to the top of its runner on a k-runner abacus."""
    per_runner = [0] * k
    for b in _beads(lam, len(lam)):
        per_runner[b % k] += 1
    return _from_beads(r + j * k for r in range(k) for j in range(per_runner[r]))


def k_core_length(lam: Partition, k: int) -> int:
    """Number of parts of the k-core: the packed beads fill positions
    0, 1, ... up to the first free slot, min over runners r of r + k * count_r,
    and those leading beads are the zero parts."""
    per_runner = [0] * k
    for b in _beads(lam, len(lam)):
        per_runner[b % k] += 1
    return len(lam) - min(r + k * count for r, count in enumerate(per_runner))


def remove_hooks(mu: Partition, n: int) -> list[tuple[Partition, int]]:
    """(lam, (-1)^height) for every lam with mu/lam a rim hook of size n.

    Removing a size-n hook moves one bead from b to a free b - n; the
    height is the number of beads in between.
    """
    beads = set(_beads(mu, len(mu)))
    return [
        (_from_beads((beads - {b}) | {b - n}), -1 if sum(b - n < c < b for c in beads) % 2 else 1)
        for b in beads
        if b >= n and b - n not in beads
    ]


def addable_hooks(lam: Partition, n: int) -> int:
    """Number of rim hooks of size n that can be added to lam."""
    beads = set(_beads(lam, len(lam) + n))
    return sum(1 for b in beads if b + n not in beads)


@lru_cache(maxsize=None)
def petrie_support(k: int, m: int) -> tuple[Partition, ...]:
    """Partitions of m with parts below k whose k-core has at most one part:
    the Schur support of G(k, m)."""
    return tuple(lam for lam in partitions(m, k - 1) if k_core_length(lam, k) <= 1)
