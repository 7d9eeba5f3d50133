"""Fixed-k abacus encodings: beta/gamma sequences, k-cores, hook chains.

For k >= 2 a partition mu with fewer than k parts is identified with the
(k-1)-tuple (mu_1, ..., mu_{k-1}) padded by zeros and encoded by k-1 beads
at positions mu_i + (k-1) - i on an abacus with k runners.  Removing a rim
hook of size k is moving one bead up one row on its runner; pushing every
bead to the top of its runner yields the k-core.  The hook chain is the
removal walk of :func:`~petrie.partitions.remove_rim_hooks`.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import InternalInvariantFailure, TooManyParts
from .partitions import (
    Partition,
    SkewShape,
    as_partition,
    beta_set,
    partition_from_beta_set,
    remove_rim_hooks,
    rim_hook_height,
)


class AbacusProfile(NamedTuple):
    """Beta/gamma data of a partition with fewer than k parts.

    beta[i] = base_i - (i+1)        (base zero-padded to k-1 entries)
    gamma[i] = beta[i] mod k, representative chosen in {1, ..., k}
    beta_numbers[i] = base_i + k - 2 - i, strictly decreasing bead positions
    """

    k: int
    base: Partition
    beta: tuple[int, ...]
    gamma: tuple[int, ...]
    beta_numbers: tuple[int, ...]

    def runners(self) -> tuple[tuple[int, int], ...]:
        """Bead positions as (row, col): bead value = k*(row-1) + col."""
        return tuple((b // self.k + 1, b % self.k) for b in self.beta_numbers)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "beta": list(self.beta),
            "gamma": list(self.gamma),
            "beta_numbers": list(self.beta_numbers),
            "runners": [list(rc) for rc in self.runners()],
        }


class RimHookSequence(NamedTuple):
    """A chain core = lam^0 < lam^1 < ... < lam^q = lam of size-k hook additions."""

    k: int
    chain: tuple[Partition, ...]

    @property
    def steps(self) -> int:
        return len(self.chain) - 1

    def heights(self) -> tuple[int, ...]:
        return tuple(
            rim_hook_height(SkewShape(self.chain[j + 1], self.chain[j]))
            for j in range(self.steps)
        )

    def sign(self) -> int:
        """Product of (-1)^(height+1) over the chain; 1 for a singleton chain."""
        sign = 1
        for h in self.heights():
            sign *= -1 if h % 2 == 0 else 1
        return sign


def profile(mu: Partition, k: int) -> AbacusProfile:
    """Beta/gamma profile of ``mu`` for modulus ``k``; requires len(mu) < k."""
    mu = as_partition(mu)
    if k < 2:
        raise ValueError("profile needs k >= 2")
    if len(mu) >= k:
        raise TooManyParts(f"{mu} has {len(mu)} parts, needs fewer than {k}")
    padded = mu + (0,) * (k - 1 - len(mu))
    beta = tuple(padded[i] - (i + 1) for i in range(k - 1))
    gamma = tuple((b % k) or k for b in beta)
    beta_numbers = beta_set(mu, k - 1)
    return AbacusProfile(k=k, base=mu, beta=beta, gamma=gamma, beta_numbers=beta_numbers)


def ninv(gamma: Sequence[int]) -> int:
    """Number of non-inversions: pairs i < j with gamma[i] < gamma[j]."""
    return sum(
        1
        for i in range(len(gamma))
        for j in range(i + 1, len(gamma))
        if gamma[i] < gamma[j]
    )


def gammas_distinct(prof: AbacusProfile) -> bool:
    """True iff the k-1 gamma values are pairwise distinct.

    Equivalently, the k-core of the conjugate of ``prof.base`` has at most
    one part.
    """
    return len(set(prof.gamma)) == len(prof.gamma)


def k_core(lam: Partition, k: int) -> Partition:
    """The k-core: push every bead to the top of its runner.

    Works for any partition length and any k >= 1 (every cell is a size-1
    rim hook, so the 1-core is empty).  Independent of removal order.
    """
    lam = as_partition(lam)
    if k < 1:
        raise ValueError("k must be >= 1")
    beads = beta_set(lam, len(lam))
    per_runner = [0] * k
    for b in beads:
        per_runner[b % k] += 1
    packed = [c + j * k for c in range(k) for j in range(per_runner[c])]
    return partition_from_beta_set(packed)


def rim_hook_sequence(lam: Partition, k: int) -> RimHookSequence:
    """Deterministic chain of size-k hook removals from ``lam`` down to its core.

    Each step keeps the smallest :func:`remove_rim_hooks` result, the move of
    the largest movable bead; the sign does not depend on this choice.
    """
    lam = as_partition(lam)
    if k < 2:
        raise ValueError("rim_hook_sequence needs k >= 2")
    chain = [lam]
    while smaller := remove_rim_hooks(chain[-1], k):
        chain.append(smaller[-1])
    chain.reverse()
    if chain[0] != k_core(lam, k):
        raise InternalInvariantFailure("hook chain did not terminate at the core")
    return RimHookSequence(k=k, chain=tuple(chain))
