"""Modular Schur functions and their k-core-blocked transition matrix.

The modular Schur function attached to a partition lam is the
Jacobi-Trudi-style determinant det[G(k, lam_i - i + j)] over the Petrie
functions, with G(k, r) = 0 for r < 0 and G(k, 0) = 1.  The generating
product of G(k, .) is prod_i (1 - x_i^k z^k) / (1 - x_i z), so G(k, m) is the
image of h_m under the ring map p_r -> c_r p_r with c_r = 1 - k when k
divides r and c_r = 1 otherwise, and by Jacobi-Trudi the determinant is the
image of s_lam.  Column orthogonality of the characters then gives the
transition matrix from the Schur vectors v_mu of the power sums p_mu:

    T = I + sum_mu ((1 - k)^j(mu) - 1) / z_mu * v_mu v_mu^T,

summed over the classes mu of m with j(mu) > 0 parts divisible by k.  The
v_mu come from the Murnaghan-Nakayama product, one power sum at a time, and
m! * T is accumulated in integers and divided exactly by m!.  The
tests check every row against the determinant expanded over the polynomial
oracle (``tests/helpers.det_over_oracle``).
"""

from __future__ import annotations

from collections import Counter
from math import factorial, prod
from typing import NamedTuple

from .abacus import k_core
from .errors import BlockViolation, InternalInvariantFailure
from .partitions import Partition, as_partition, format_partition, partitions_of
from .schur_ring import SchurExpansion, multiply_power_sum

# Schur vectors of the power sums p_mu, keyed by mu; shared by every k.
_PRODUCT_CACHE: dict[Partition, SchurExpansion] = {}


def _power_sum_vector(mu: Partition) -> SchurExpansion:
    """Schur expansion of p_mu; its entry at lam is the character chi^lam_mu."""
    cached = _PRODUCT_CACHE.get(mu)
    if cached is None:
        if mu:
            cached = multiply_power_sum(_power_sum_vector(mu[:-1]), mu[-1])
        else:
            cached = SchurExpansion._from_canonical(0, [((), 1)])
        _PRODUCT_CACHE[mu] = cached
    return cached


def _weighted_classes(k: int, m: int) -> list[tuple[int, dict[Partition, int]]]:
    """``(m!/z_mu * ((1-k)^j - 1), v_mu)`` for each class mu of m whose
    weight is nonzero, j being the number of parts of mu divisible by k."""
    classes = []
    for mu in partitions_of(m):
        weight = (1 - k) ** sum(1 for part in mu if part % k == 0) - 1
        if weight:
            z = prod(p**mult * factorial(mult) for p, mult in Counter(mu).items())
            classes.append((factorial(m) // z * weight, _power_sum_vector(mu)._terms))
    return classes


def _row(
    lam: Partition, classes: list[tuple[int, dict[Partition, int]]]
) -> SchurExpansion:
    """Row lam of the transition matrix from :func:`_weighted_classes`."""
    m = sum(lam)
    scale = factorial(m)
    acc = {lam: scale}
    for weight, v in classes:
        w = weight * v.get(lam, 0)
        if w:
            for nu, c in v.items():
                acc[nu] = acc.get(nu, 0) + w * c
    row = {}
    for nu, c in acc.items():
        row[nu], rest = divmod(c, scale)
        if rest:
            raise InternalInvariantFailure(f"entry ({lam}, {nu}) is not an integer")
    return SchurExpansion._from_canonical(m, row.items())


def modular_schur_expansion(k: int, lam: Partition) -> SchurExpansion:
    """Schur expansion of det[G(k, lam_i - i + j)] over i, j = 1..len(lam)."""
    lam = as_partition(lam)
    if k < 1:
        raise ValueError("k must be >= 1")
    return _row(lam, _weighted_classes(k, sum(lam)))


class TransitionMatrix(NamedTuple):
    """Rows expand modular Schur functions in the Schur basis.

    ``order`` indexes both rows and columns (canonical partition order);
    ``blocks`` groups row indices by k-core, in print order: by core size,
    then largest core first.  No nonzero entry ever crosses two blocks.
    """

    k: int
    m: int
    order: tuple[Partition, ...]
    entries: tuple[tuple[int, ...], ...]
    blocks: dict

    def entry(self, lam: Partition, mu: Partition) -> int:
        i = self.order.index(as_partition(lam))
        j = self.order.index(as_partition(mu))
        return self.entries[i][j]

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "m": self.m,
            "order": [list(lam) for lam in self.order],
            "entries": [list(row) for row in self.entries],
            "blocks": {
                format_partition(core): list(rows) for core, rows in self.blocks.items()
            },
        }

    def to_text(self) -> str:
        """Grid with rows and columns grouped into k-core blocks."""
        groups = list(self.blocks.values())
        width = max(len(str(c)) for row in self.entries for c in row)
        labels = (format_partition(self.order[i]) for rows in groups for i in rows)
        lines = [
            f"transition matrix k={self.k} m={self.m}"
            f" (rows and columns grouped by {self.k}-core)",
            "index: " + " ".join(labels),
        ]
        for b, rows in enumerate(groups):
            if b:
                lines.append("-" * len(lines[-1]))
            for i in rows:
                row = self.entries[i]
                cells = (" ".join(str(row[j]).rjust(width) for j in cols) for cols in groups)
                lines.append("[ " + " | ".join(cells) + " ]")
        return "\n".join(lines)


def transition_matrix(k: int, m: int) -> TransitionMatrix:
    """Every modular Schur function of degree m expanded in the Schur basis.

    The block property (entries vanish across different k-cores) is verified
    entry by entry before the matrix is returned.
    """
    if k < 1 or m < 0:
        raise ValueError("need k >= 1 and m >= 0")
    order = tuple(partitions_of(m))
    classes = _weighted_classes(k, m)
    rows = []
    for lam in order:
        terms = _row(lam, classes)._terms
        rows.append(tuple(terms.get(mu, 0) for mu in order))
    cores = [k_core(lam, k) for lam in order]
    for i, lam in enumerate(order):
        for j, mu in enumerate(order):
            if rows[i][j] and cores[i] != cores[j]:
                raise BlockViolation(
                    f"entry ({lam}, {mu}) = {rows[i][j]} crosses cores"
                    f" {cores[i]} and {cores[j]} at k={k}"
                )
    # A stable sort puts the blocks in print order, each block's rows ascending.
    by_core = sorted(range(len(order)), key=lambda i: (sum(cores[i]), [-p for p in cores[i]]))
    blocks: dict[Partition, tuple[int, ...]] = {}
    for i in by_core:
        blocks[cores[i]] = blocks.get(cores[i], ()) + (i,)
    return TransitionMatrix(k=k, m=m, order=order, entries=tuple(rows), blocks=blocks)
