"""Seeded op lists for the three workloads.

An op is a dict.  ``{"cli": [...]}`` runs ``petrie.cli.main(argv)``;
``{"lib": "schur_times_power_sum", "lam": [...], "n": n}`` runs the oracle
product ``p_n * s_lam`` through the public library functions.  The same
(workload, seed) always gives the same list.

Every list is drawn against a fixed budget of estimated work, so that its
total cost barely depends on the seed.  The estimates are computed here from
the inputs alone (combinat.py), without running the program:

- ``fastpath``: ``multiply k m n --json`` with k in 6..12, m in 24..44 and
  n in 2..2k, a third of them multiples of k.  Only (k, m) whose candidate
  scan (partitions of m with parts below k) is 3,000 to 8,000 partitions are
  drawn.  An op costs its scan plus 1.4 times the rim hooks the
  Murnaghan-Nakayama product adds to the support of G(k, m); the weight was
  fitted to op times measured at commit cef4651.  An op's peak memory follows the
  size of its output, which follows those hooks, so every list has one
  anchor op ``multiply 7 m 11`` with m in 42..44 (the support of G(7, m)
  has 462 terms for each, and the product adds 5,792 hooks) and no other op
  adds more than ``FASTPATH_HOOK_CAP``: the anchor sets the peak.  Building G(k, m) and
  the product do the work; the oracle is idle.
- ``sweep``: the fixed grid ``sweep 8 20 10`` at ``--jobs 1``, plus one
  smaller grid at ``--jobs 2`` whose scan total is within 10% of the one of
  ``sweep 6 12 8``.  Thousands of tiny triples, a rebuild of G for every n,
  witness checks and pool dispatch.
- ``oracle``: ``transition 4 9``; one ``multiply k 8 4 --verify`` (degree
  12, k in 5..9), which sets the peak memory; then ``multiply --verify`` and
  ``p_n * s_lam`` library products at degree 11, alternately, until the
  oracle's polynomial products have multiplied about ``ORACLE_PAIRS`` term
  pairs.  The oracle's product and Kostka back-substitution do the work; the
  fast path is idle.
"""

from __future__ import annotations

import math
import random

from combinat import (
    addable_hooks,
    dominates,
    orbit_size,
    partition_count,
    partitions,
    petrie_support,
)

WORKLOADS = ("fastpath", "sweep", "oracle")

FASTPATH_BUDGET = 100_000
FASTPATH_SCAN = (3_000, 8_000)
FASTPATH_ANCHORS = ((7, 42, 11), (7, 43, 11), (7, 44, 11))
FASTPATH_HOOK_CAP = 4_000
HOOK_WEIGHT = 1.4
SWEEP_MAIN = (8, 20, 10)
SWEEP_POOLED = (6, 12, 8)
ORACLE_PAIRS = 1_200_000
ORACLE_OP_PAIRS = (150_000, 500_000)


def mn_hooks(k: int, m: int, n: int) -> int:
    """Rim hooks the product G(k, m) * p_n adds to the support of G(k, m)."""
    return sum(addable_hooks(lam, n) for lam in petrie_support(k, m))


def fastpath_cost(k: int, m: int, n: int) -> float:
    """Estimated cost of ``multiply k m n``, in scanned-candidate units."""
    return partition_count(m, k - 1) + HOOK_WEIGHT * mn_hooks(k, m, n)


def petrie_pairs(k: int, m: int, n: int) -> int:
    """Term pairs the oracle multiplies for p_n * G(k, m) in m + n variables."""
    d = m + n
    return d * sum(orbit_size(lam, d) for lam in partitions(m, k - 1))


def schur_pairs(lam: tuple[int, ...], n: int) -> int:
    """Term pairs the oracle multiplies for p_n * s_lam; the monomial support
    of s_lam is every partition that lam dominates."""
    size = sum(lam)
    d = size + n
    return d * sum(orbit_size(mu, d) for mu in partitions(size, size) if dominates(lam, mu))


def sweep_cost(k_max: int, m_max: int, n_max: int) -> int:
    """Candidate partitions a sweep scans: G(k, m) is built once per triple."""
    return n_max * sum(
        partition_count(m, k - 1) for k in range(2, k_max + 1) for m in range(m_max + 1)
    )


def _draw_until(rng: random.Random, pools: list[list], cost, budget: float) -> list:
    """Draw from the pools in turn, skipping draws that would overrun the
    budget, until nothing drawn in 100 tries fits."""
    picked = []
    remaining = budget
    while True:
        pool = pools[len(picked) % len(pools)]
        for _ in range(100):
            item = rng.choice(pool)
            if cost(item) <= remaining:
                break
        else:
            return picked
        remaining -= cost(item)
        picked.append(item)


def _fastpath(rng: random.Random) -> list[dict]:
    low, high = FASTPATH_SCAN
    pairs = [(k, m) for k in range(6, 13) for m in range(24, 45) if low <= partition_count(m, k - 1) <= high]
    triples = [(k, m, n) for k, m in pairs for n in range(2, 2 * k + 1)]
    multiples = [(k, m, n) for k, m, n in triples if n % k == 0]

    def cost(triple):
        return fastpath_cost(*triple) if mn_hooks(*triple) <= FASTPATH_HOOK_CAP else math.inf

    anchor = rng.choice(FASTPATH_ANCHORS)
    budget = FASTPATH_BUDGET - fastpath_cost(*anchor)
    picked = [anchor] + _draw_until(rng, [triples, triples, multiples], cost, budget)
    return [{"cli": ["multiply", str(k), str(m), str(n), "--json"]} for k, m, n in picked]


def _sweep(rng: random.Random) -> list[dict]:
    target = sweep_cost(*SWEEP_POOLED)
    grids = [
        (k, m, n)
        for k in range(5, 8)
        for m in range(9, 16)
        for n in range(5, 11)
        if abs(sweep_cost(k, m, n) - target) <= 0.1 * target
    ]
    k, m, n = rng.choice(grids)
    return [
        {"cli": ["sweep", *map(str, SWEEP_MAIN), "--jobs", "1", "--json"]},
        {"cli": ["sweep", str(k), str(m), str(n), "--jobs", "2", "--json"]},
    ]


def _oracle(rng: random.Random) -> list[dict]:
    low, high = ORACLE_OP_PAIRS
    products = [
        {"cli": ["multiply", str(k), str(11 - n), str(n), "--verify", "--json"], "pairs": pairs}
        for n in range(1, 11)
        for k in range(3, 13 - n)
        if low <= (pairs := petrie_pairs(k, 11 - n, n)) <= high
    ]
    shapes = [
        {"lib": "schur_times_power_sum", "lam": list(lam), "n": n, "pairs": pairs}
        for n in range(2, 6)
        for lam in partitions(11 - n, 11 - n)
        if low <= (pairs := schur_pairs(lam, n)) <= high
    ]
    light = _draw_until(rng, [products, shapes], lambda op: op["pairs"], ORACLE_PAIRS)
    return [
        {"cli": ["transition", "4", "9", "--json"]},
        {"cli": ["multiply", str(rng.randint(5, 9)), "8", "4", "--verify", "--json"]},
    ] + [{key: value for key, value in op.items() if key != "pairs"} for op in light]


def generate(workload: str, seed: int) -> list[dict]:
    """The op list of ``workload`` for ``seed``."""
    makers = {"fastpath": _fastpath, "sweep": _sweep, "oracle": _oracle}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return makers[workload](random.Random(f"{workload}:{seed}"))
