#!/usr/bin/env python3
"""Check the character identities on the Schur expansions of the power sums.

Usage: PYTHONPATH=src python3 scripts/character_identities.py M

The Schur expansion v_mu of p_mu is column mu of the character table of the
symmetric group S_M.  For every class mu of M this checks, with no oracle:

- ``<v_mu, v_mu> = z_mu`` (the centralizer order), and ``<v_mu, v_nu> = 0``
  for ``PAIRS`` pairs mu != nu drawn from a seeded generator;
- ``[s_(M)] v_mu = 1`` (the trivial character) and
  ``[s_(1^M)] v_mu = (-1)^(M - len(mu))`` (the sign character).  These two
  catch a height parity flipped for every hook, which only multiplies v_mu
  by ``(-1)^len(mu)`` and so keeps every inner product.

Each identity is checked on two sets of columns: ``_power_sum_vector``,
built by the tuple kernel one part at a time, and the same columns built by
the sweep's bead-mask kernel and decoded here.  Prints the class count and
the time taken; exits 1 at the first identity that fails.
"""

from __future__ import annotations

import random
import sys
import time
from collections import Counter
from math import factorial, prod

from petrie import partitions_of
from petrie.modular_schur import _power_sum_vector
from petrie.partitions import _bead_masks, _mask_partition, _signed_hook_masks

PAIRS = 2000
SEED = 0


def _mask_column(mu: tuple[int, ...], cache: dict) -> dict[tuple[int, ...], int]:
    """Column mu built through the mask kernel, one part at a time, each
    product's nonzero masks decoded back into partitions."""
    column = cache.get(mu)
    if column is None:
        if mu:
            views, floor = _bead_masks(_mask_column(mu[:-1], cache).items(), mu[-1])
            masks = _signed_hook_masks(views, mu[-1])
            column = {_mask_partition(key, floor): c for key, c in masks.items() if c}
        else:
            column = {(): 1}
        cache[mu] = column
    return column


def _inner(u: dict, v: dict) -> int:
    return sum(c * v.get(lam, 0) for lam, c in u.items())


def _failure(m: int, columns: dict[tuple[int, ...], dict], pairs: int) -> str | None:
    """The first identity that fails on ``columns``, described, or None."""
    top, ones = (m,) if m else (), (1,) * m
    for mu, v in columns.items():
        z = prod(p**mult * factorial(mult) for p, mult in Counter(mu).items())
        if _inner(v, v) != z:
            return f"<v_{mu}, v_{mu}> = {_inner(v, v)}, not z = {z}"
        if v.get(top, 0) != 1:
            return f"[s_{top}] v_{mu} = {v.get(top, 0)}, not 1"
        sign = (-1) ** (m - len(mu))
        if v.get(ones, 0) != sign:
            return f"[s_{ones}] v_{mu} = {v.get(ones, 0)}, not {sign}"
    rng, classes = random.Random(SEED), list(columns)
    for mu, nu in (rng.sample(classes, 2) for _ in range(pairs)):
        if _inner(columns[mu], columns[nu]):
            return f"<v_{mu}, v_{nu}> = {_inner(columns[mu], columns[nu])}, not 0"
    return None


def main(argv: list[str]) -> int:
    (m,) = map(int, argv)
    start = time.perf_counter()
    classes = partitions_of(m)
    cache: dict = {}
    kernels = {
        "tuple": {mu: _power_sum_vector(mu)._terms for mu in classes},
        "mask": {mu: _mask_column(mu, cache) for mu in classes},
    }
    pairs = PAIRS if len(classes) > 1 else 0
    for name, columns in kernels.items():
        failure = _failure(m, columns, pairs)
        if failure:
            print(f"{name} kernel, m={m}: {failure}")
            return 1
    elapsed = time.perf_counter() - start
    print(
        f"{len(classes)} classes of {m}, both kernels: every norm, both linear"
        f" characters and {pairs} sampled orthogonal pairs hold in {elapsed:.1f} s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
