"""Four independent evaluators of k-Petrie coefficients.

Each returns an exact integer in {-1, 0, 1}: the coefficient of the Schur
function s_lam in the Petrie symmetric function of matching degree.
``grinberg_support`` lists the nonzero ones of one degree straight off the
abacus, ``grinberg_masks`` their bead masks.  ``pet_det`` is the mu = ()
case of ``pet_generalized``.
"""

from __future__ import annotations

from itertools import combinations, starmap
from operator import gt, sub
from typing import Iterator, Sequence

from .abacus import gammas_distinct, k_core, ninv, profile, rim_hook_sequence
from .partitions import Partition, _mask_view, _MaskView, as_partition, conjugate


def _interval_det(spans: Sequence[tuple[int, int]]) -> int:
    """Determinant of the 0/1 matrix whose row i has its ones exactly in
    columns lo_i..hi_i, given as ``spans[i] = (lo_i, hi_i)``; lo_i > hi_i is
    a zero row.

    Column by column: the remaining rows that start at the column are the
    only ones with a nonzero there.  With none the determinant is 0;
    otherwise the one with the smallest end is the pivot, and subtracting
    it from each other such row leaves the span (hi_pivot + 1, hi), or two
    equal rows when the ends agree.  The pivots, put in column order, form
    a unitriangular matrix, so the determinant is the sign of the
    permutation that puts them there.  Integers only, O(n^2) at worst.
    """
    n = len(spans)
    starts: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for row, (lo, hi) in enumerate(spans):
        if lo > hi:
            return 0
        starts[lo].append((hi, row))
    order = []
    for rows in starts:
        if not rows:
            return 0
        pivot_hi, pivot = min(rows)
        order.append(pivot)
        for hi, row in rows:
            if row != pivot:
                if hi == pivot_hi:
                    return 0
                starts[pivot_hi + 1].append((hi, row))
    parity = n  # n minus the number of cycles of the pivot order
    for start in range(n):
        if order[start] >= 0:
            parity -= 1
            at = start
            while order[at] >= 0:
                order[at], at = -1, order[at]
    return -1 if parity % 2 else 1


def pet_det(lam: Partition, k: int) -> int:
    """0/1 determinant definition: det[chi(0 <= lam_i - i + j < k)]."""
    return pet_generalized(lam, (), k)


def _grinberg_sign(beta: Sequence[int], gamma: Sequence[int]) -> int:
    exponent = sum(beta) + ninv(gamma) + sum(gamma)
    return -1 if exponent % 2 else 1


def pet_grinberg(lam: Partition, k: int) -> int:
    """Grinberg's closed form from the gamma sequence of the conjugate.

    Zero when lam_1 >= k or the gamma values collide, otherwise
    (-1)^(sum beta + ninv(gamma) + sum gamma).
    """
    lam = as_partition(lam)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return pet_det(lam, k)
    if lam and lam[0] >= k:
        return 0
    prof = profile(conjugate(lam), k)
    if not gammas_distinct(prof):
        return 0
    return _grinberg_sign(prof.beta, prof.gamma)


def _placements(k: int, m: int) -> Iterator[tuple[list[int], int]]:
    """Each term of G(k, m), k >= 2, as the unsorted beads of lam' and its sign."""
    empty = (k - 1 - m) % k
    levels = (m - (k - 1) + empty) // k
    runners = [r for r in range(k) if r != empty]
    width = levels + k - 2
    for bars in combinations(range(width), k - 2):
        split = [b - a - 1 for a, b in zip((-1,) + bars, bars + (width,))]
        sign = (-1) ** sum(starmap(gt, combinations(split, 2)), k * levels)  # kL + inversions
        yield [level * k + r for level, r in zip(split, runners)], sign


def grinberg_support(k: int, m: int) -> Iterator[tuple[Partition, int]]:
    """Every partition of m with a nonzero k-Petrie number, with that number.

    Needs k >= 2.  Instead of scoring each partition with
    :func:`pet_grinberg`, this builds the nonzero ones from the abacus: lam
    is in the support iff lam_1 < k and the k-1 beads mu_i + k-2-i of
    mu = lam' lie on distinct runners, so exactly one runner is empty.  The
    bead positions sum to m + (k-1)(k-2)/2, which fixes the empty runner
    e = (k-1-m) mod k and the number L = (m-(k-1)+e)/k of levels the beads
    sit below the top row in total.  Each split of L over the other k-1
    runners is one lam, C(L+k-2, k-2) in all, enumerated in lexicographic
    order by stars and bars (:func:`_placements`).

    With the beads level_r * k + r in ascending order c_0 < ... < c_{k-2}
    and c_{-1} = -1, the part k-1-i of lam repeats c_i - c_{i-1} - 1 times,
    so lam is built run by run in O(k) steps.  The sign is the one of
    :func:`pet_grinberg` in closed form:
    sum(beta) + sum(gamma) = kL + 2 sum(runners) - (k-1)^2 + (k-1) has the
    parity of kL for every split; and as gamma lists runner + 1 by falling
    bead, ninv(gamma) counts the runners r < s with
    level_r * k + r > level_s * k + s, which for 0 < s - r < k holds iff
    level_r > level_s.  So the sign is (-1)^(kL + inversions of the split).

    Masks (:func:`grinberg_masks`): walked through an F x (k-1) box, F >=
    len(lam), lam's boundary has the up step of row j at step lam_j + F-1-j
    and, from the far end, the right step of column i at step c_i, so the
    beads of lam are 0 .. F+k-2 but the F+k-2-c_i.  The runs give lam
    c_{k-2} - (k-2) parts, most when all L levels sit on the highest runner
    in use, r_max (k-1, or k-2 if that is empty): F = Lk + r_max - (k-2).
    """
    if k < 2:
        raise ValueError("grinberg_support needs k >= 2")
    if m < 0:
        raise ValueError("m must be >= 0")
    rows = [(part,) * m for part in range(k - 1, 0, -1)]
    for beads, sign in _placements(k, m):
        beads.sort()
        lam: Partition = ()
        for row, run in zip(rows, map(sub, beads, [-1] + beads)):
            lam += row[: run - 1]
        yield lam, sign


def grinberg_masks(k: int, m: int, reach: int) -> tuple[list[_MaskView], int]:
    """:func:`~petrie.partitions._bead_masks` of G(k, m)'s terms, no partition
    built: bits 1 .. floor+k-1 but the floor+k-1-c (:func:`grinberg_support`)."""
    if k == 1:  # G(1, m) is 1 at m = 0 and 0 above
        return ([_mask_view((1 << (reach + 1)) - 2, 1)] if m == 0 else []), reach
    empty = (k - 1 - m) % k
    r_max = k - 2 if empty == k - 1 else k - 1  # the highest runner in use
    floor = m - (k - 1) + empty + r_max - (k - 2) + reach  # Lk = m - (k-1) + e
    full = (1 << (floor + k)) - 2
    return [
        _mask_view(full ^ sum([1 << (floor + k - 1 - c) for c in beads]), sign)
        for beads, sign in _placements(k, m)
    ], floor


def pet_rimhook(lam: Partition, k: int) -> int:
    """Rim-hook product rule: sign of any chain of size-k hook removals.

    Zero when lam_1 >= k or the k-core has more than one part; 1 when lam is
    its own core; otherwise the product of (-1)^(height+1) along the
    deterministic chain.
    """
    lam = as_partition(lam)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return pet_det(lam, k)
    if lam and lam[0] >= k:
        return 0
    core = k_core(lam, k)
    if len(core) > 1:
        return 0
    if lam == core:
        return 1
    return rim_hook_sequence(lam, k).sign()


def pet_generalized(lam: Partition, mu: Partition, k: int) -> int:
    """Two-partition determinant det[chi(0 <= lam_i - mu_j - i + j < k)].

    Reduces to :func:`pet_det` when mu is empty.  No containment or size
    relation between lam and mu is required; incompatible pairs just give 0.
    Both lam_i - i and mu_j - j strictly decrease, so the ones of row i are
    the columns j with lam_i - i - k < mu_j - j <= lam_i - i, one run whose
    ends never move left down the rows: an interval matrix, handed to
    :func:`_interval_det` as its spans.  Two pointers walk the run's ends.

    The value is ``[s_lam] G(k, |lam| - |mu|) * s_mu``, so every coefficient
    of ``G(k, m) * s_mu`` is in {-1, 0, 1}.  Pairing with ``prod_i (1 + x_i
    + ... + x_i^(k-1))`` sends ``h_r`` to ``chi(0 <= r < k)`` multiplicatively,
    so Jacobi-Trudi for ``s_(lam/mu)`` gives this determinant.  Its matrix
    has consecutive ones in each row, an interval matrix, and interval
    matrices are totally unimodular.
    """
    lam, mu = as_partition(lam), as_partition(mu)
    if k < 1:
        raise ValueError("k must be >= 1")
    n = max(len(lam), len(mu))
    lam_p = lam + (0,) * (n - len(lam))
    shifted = [part - j for j, part in enumerate(mu + (0,) * (n - len(mu)))]
    spans = []
    lo = end = 0  # the first column with mu_j - j <= lam_i - i, and <= lam_i - i - k
    for i, part in enumerate(lam_p):
        top = part - i
        while lo < n and shifted[lo] > top:
            lo += 1
        while end < n and shifted[end] > top - k:
            end += 1
        spans.append((lo, end - 1))
    return _interval_det(spans)
