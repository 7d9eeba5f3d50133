#!/usr/bin/env python3
"""Construct and verify the collision witness of every non-SMF triple on a grid.

Usage: PYTHONPATH=src python3 scripts/witness_grid.py K M N

Covers 1 <= k <= K, 0 <= m <= M and 1 <= n <= N.  ``witness_non_smf``
checks each witness before returning it: both partitions have nonzero
k-Petrie numbers by the 0/1 determinant ``pet_det``, both grow to the
target by a rim hook of size n, and the two signed contributions agree.
Prints the triple count and the time taken; exits 1 at the first triple
whose witness fails.
"""

from __future__ import annotations

import sys
import time

from petrie import InternalInvariantFailure, classify_smf, witness_non_smf


def main(argv: list[str]) -> int:
    k_max, m_max, n_max = map(int, argv)
    start = time.perf_counter()
    count = 0
    for k in range(1, k_max + 1):
        for m in range(m_max + 1):
            for n in range(1, n_max + 1):
                if classify_smf(k, m, n):
                    continue
                try:
                    witness_non_smf(k, m, n)
                except InternalInvariantFailure as exc:
                    print(f"witness fails at k={k} m={m} n={n}: {exc}")
                    return 1
                count += 1
    elapsed = time.perf_counter() - start
    print(
        f"{count} non-SMF triples with k <= {k_max}, m <= {m_max}, n <= {n_max}:"
        f" every witness verified in {elapsed:.1f} s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
