"""Four independent evaluators of k-Petrie coefficients.

Each returns an exact integer in {-1, 0, 1}: the coefficient of the Schur
function s_lam in the Petrie symmetric function of matching degree.
``grinberg_support`` lists the nonzero ones of one degree straight off the
abacus.  ``pet_det`` is the mu = () case of ``pet_generalized``.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .abacus import gammas_distinct, k_core, ninv, profile, rim_hook_sequence
from .errors import InternalInvariantFailure
from .partitions import Partition, _conjugate, as_partition, conjugate


def _as_sign_or_zero(value: int) -> int:
    if value not in (-1, 0, 1):
        raise InternalInvariantFailure(f"Petrie coefficient out of range: {value}")
    return value


def _int_det(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if n == 0:
        return 1
    a = [row[:] for row in rows]
    sign = 1
    prev = 1
    for col in range(n - 1):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                a[r][c] = (a[r][c] * a[col][col] - a[r][col] * a[col][c]) // prev
            a[r][col] = 0
        prev = a[col][col]
    return sign * a[n - 1][n - 1]


def pet_det(lam: Partition, k: int) -> int:
    """0/1 determinant definition: det[chi(0 <= lam_i - i + j < k)]."""
    return pet_generalized(lam, (), k)


def _grinberg_sign(beta: Sequence[int], gamma: Sequence[int]) -> int:
    exponent = sum(beta) + ninv(gamma) + sum(gamma)
    return _as_sign_or_zero(-1 if exponent % 2 else 1)


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


def _level_splits(total: int, runners: int) -> Iterator[tuple[int, ...]]:
    """Every way to write ``total`` as an ordered sum of ``runners`` parts >= 0."""
    if runners == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _level_splits(total - first, runners - 1):
            yield (first,) + rest


def grinberg_support(k: int, m: int) -> Iterator[tuple[Partition, int]]:
    """Every partition of m with a nonzero k-Petrie number, with that number.

    Needs k >= 2.  Instead of scoring each partition with
    :func:`pet_grinberg`, this builds the nonzero ones from the abacus: lam
    is in the support iff lam_1 < k and the k-1 beads mu_i + k-2-i of
    mu = lam' lie on distinct runners, so exactly one runner is empty.  The
    bead positions sum to m + (k-1)(k-2)/2, which fixes the empty runner
    e = (k-1-m) mod k and the number L = (m-(k-1)+e)/k of levels the beads
    sit below the top row in total.  Each split of L over the other k-1
    runners is one lam, C(L+k-2, k-2) in all.  The sign is the one of
    :func:`pet_grinberg`; gamma_i is one more than the runner of the i-th
    largest bead.
    """
    if k < 2:
        raise ValueError("grinberg_support needs k >= 2")
    if m < 0:
        raise ValueError("m must be >= 0")
    empty = (k - 1 - m) % k
    levels = (m - (k - 1) + empty) // k
    runners = [r for r in range(k) if r != empty]
    for split in _level_splits(levels, k - 1):
        beads = sorted(
            ((level * k + r, r) for level, r in zip(split, runners)), reverse=True
        )
        mu = tuple(b - (k - 2 - i) for i, (b, _) in enumerate(beads))
        beta = [b - (k - 1) for b, _ in beads]
        gamma = [r + 1 for _, r in beads]
        yield _conjugate(mu), _grinberg_sign(beta, gamma)


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
    return _as_sign_or_zero(rim_hook_sequence(lam, k).sign())


def pet_generalized(lam: Partition, mu: Partition, k: int) -> int:
    """Two-partition determinant det[chi(0 <= lam_i - mu_j - i + j < k)].

    Reduces to :func:`pet_det` when mu is empty.  No containment or size
    relation between lam and mu is required; incompatible pairs just give 0.
    """
    lam, mu = as_partition(lam), as_partition(mu)
    if k < 1:
        raise ValueError("k must be >= 1")
    n = max(len(lam), len(mu))
    lam_p = lam + (0,) * (n - len(lam))
    mu_p = mu + (0,) * (n - len(mu))
    rows = [
        [1 if 0 <= lam_p[i] - mu_p[j] - (i + 1) + (j + 1) < k else 0 for j in range(n)]
        for i in range(n)
    ]
    return _as_sign_or_zero(_int_det(rows))
