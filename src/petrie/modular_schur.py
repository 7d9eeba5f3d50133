"""Modular Schur functions and their k-core-blocked transition matrix.

The modular Schur function attached to a partition lam is the
Jacobi-Trudi-style determinant det[G(k, lam_i - i + j)] over the Petrie
functions, with G(k, r) = 0 for r < 0 and G(k, 0) = 1.  The determinant is
expanded symbolically into products of Petrie functions, each product is
evaluated exactly through the polynomial oracle, and the total is converted
to the Schur basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .abacus import k_core
from .errors import BlockViolation
from .oracle import (
    MonomialVector,
    monomial_to_schur,
    petrie_monomial_vector,
    poly_multiply_extract,
)
from .partitions import Partition, as_partition, format_partition, partitions_of
from .schur_ring import SchurExpansion

# Cached products of Petrie functions, keyed by (k, descending degree tuple).
_PRODUCT_CACHE: dict[tuple[int, tuple[int, ...]], MonomialVector] = {}


def _petrie_product(k: int, degrees: tuple[int, ...]) -> MonomialVector:
    """Monomial vector of the product of G(k, d) over ``degrees`` (sorted desc)."""
    if not degrees:
        return MonomialVector._from_canonical(0, [((), 1)])
    cached = _PRODUCT_CACHE.get((k, degrees))
    if cached is None:
        prefix = _petrie_product(k, degrees[:-1])
        cached = poly_multiply_extract(prefix, petrie_monomial_vector(k, degrees[-1]))
        _PRODUCT_CACHE[(k, degrees)] = cached
    return cached


def _degree_matrix(lam: Partition) -> list[list[int | None]]:
    """Entry (i, j) holds the Petrie degree lam_i - i + j, or None when negative."""
    size = len(lam)
    return [
        [lam[i] - i + j if lam[i] - i + j >= 0 else None for j in range(size)]
        for i in range(size)
    ]


def _symbolic_det(matrix: list[list[int | None]]) -> dict[tuple[int, ...], int]:
    """Expand the determinant over commuting symbols g_d.

    Returns a sparse polynomial keyed by descending tuples of degrees >= 1
    (g_0 is the constant 1 and never appears in a key).
    """
    n = len(matrix)

    @lru_cache(maxsize=None)
    def expand(i: int, mask: int) -> tuple[tuple[tuple[int, ...], int], ...]:
        if i == n:
            return (((), 1),)
        acc: dict[tuple[int, ...], int] = {}
        sign = 1
        for j in range(n):
            if not mask & (1 << j):
                continue
            deg = matrix[i][j]
            if deg is not None:
                for mono, coeff in expand(i + 1, mask & ~(1 << j)):
                    if deg:
                        mono = tuple(sorted(mono + (deg,), reverse=True))
                    acc[mono] = acc.get(mono, 0) + sign * coeff
            sign = -sign
        return tuple(sorted(acc.items()))

    return {mono: coeff for mono, coeff in expand(0, (1 << n) - 1) if coeff}


def _det_monomial_vector(k: int, lam: Partition) -> MonomialVector:
    acc: dict[Partition, int] = {}
    for mono, coeff in _symbolic_det(_degree_matrix(lam)).items():
        for part, c in _petrie_product(k, mono)._terms.items():
            acc[part] = acc.get(part, 0) + coeff * c
    return MonomialVector._from_canonical(sum(lam), acc.items())


def modular_schur_expansion(k: int, lam: Partition) -> SchurExpansion:
    """Schur expansion of det[G(k, lam_i - i + j)] over i, j = 1..len(lam)."""
    lam = as_partition(lam)
    if k < 1:
        raise ValueError("k must be >= 1")
    return monomial_to_schur(_det_monomial_vector(k, lam))


@dataclass(frozen=True)
class TransitionMatrix:
    """Rows expand modular Schur functions in the Schur basis.

    ``order`` indexes both rows and columns (canonical partition order);
    ``blocks`` groups row indices by k-core, and no nonzero entry ever
    crosses two blocks.
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

    def row(self, lam: Partition) -> tuple[int, ...]:
        return self.entries[self.order.index(as_partition(lam))]

    def _block_order(self) -> list[Partition]:
        return sorted(self.blocks, key=lambda core: (sum(core), tuple(-p for p in core)))

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "m": self.m,
            "order": [list(lam) for lam in self.order],
            "entries": [list(row) for row in self.entries],
            "blocks": {
                format_partition(core): list(self.blocks[core])
                for core in self._block_order()
            },
        }

    def to_text(self) -> str:
        """Grid with rows and columns grouped into k-core blocks."""
        grouped: list[int] = []
        boundaries: list[int] = []
        for core in self._block_order():
            grouped.extend(self.blocks[core])
            boundaries.append(len(grouped))
        labels = [format_partition(self.order[i]) for i in grouped]
        width = max(
            (len(str(self.entries[i][j])) for i in grouped for j in grouped),
            default=1,
        )
        lines = [f"transition matrix k={self.k} m={self.m} (rows and columns grouped by {self.k}-core)"]
        lines.append("index: " + " ".join(labels))
        for pos, i in enumerate(grouped):
            cells = []
            for qos, j in enumerate(grouped):
                cells.append(str(self.entries[i][j]).rjust(width))
                if qos + 1 in boundaries[:-1]:
                    cells.append("|")
            lines.append("[ " + " ".join(cells) + " ]")
            if pos + 1 in boundaries[:-1]:
                lines.append("-" * len(lines[-1]))
        return "\n".join(lines)


def transition_matrix(k: int, m: int) -> TransitionMatrix:
    """Every modular Schur function of degree m expanded in the Schur basis.

    The block property (entries vanish across different k-cores) is verified
    entry by entry before the matrix is returned.
    """
    if k < 1 or m < 0:
        raise ValueError("need k >= 1 and m >= 0")
    order = tuple(partitions_of(m))
    rows = []
    for lam in order:
        expansion = modular_schur_expansion(k, lam)
        rows.append(tuple(expansion.coefficient(mu) for mu in order))
    cores = [k_core(lam, k) for lam in order]
    for i, lam in enumerate(order):
        for j, mu in enumerate(order):
            if rows[i][j] and cores[i] != cores[j]:
                raise BlockViolation(
                    f"entry ({lam}, {mu}) = {rows[i][j]} crosses cores"
                    f" {cores[i]} and {cores[j]} at k={k}"
                )
    blocks: dict[Partition, tuple[int, ...]] = {}
    for i, core in enumerate(cores):
        blocks[core] = blocks.get(core, ()) + (i,)
    return TransitionMatrix(k=k, m=m, order=order, entries=tuple(rows), blocks=blocks)
