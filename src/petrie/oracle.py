"""Brute-force verification path through exact polynomial arithmetic.

Symmetric functions are held by their monomial-basis coefficients.  A
product is read off monomial by monomial: the coefficient of x^mu in f * g
is the sum, over every way to split the exponent vector mu into alpha plus
mu - alpha, of f's coefficient on x^alpha times g's on x^(mu - alpha).
Only the partition-shaped monomials x^mu are computed, since they determine
the symmetric product.  Monomial vectors are converted to the Schur basis
by back-substitution against Kostka numbers, which come from one route:
the horizontal-strip recursion of ``kostka_number``.  ``MonomialVector``
shares its base with ``SchurExpansion``; the public constructor validates
every key, and the vectors built here use the trusted one.  None of the
algorithms here touch the determinant, gamma, or rim-hook evaluators they
are used to check: being plain and independent is the point.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from math import factorial, prod
from typing import Iterator, Mapping

from .partitions import Partition, as_partition, dominates, partitions_of
from .schur_ring import SchurExpansion, _HomogeneousVector


class MonomialVector(_HomogeneousVector):
    """A symmetric function recorded by its monomial-basis coefficients."""

    __slots__ = ()

    def __init__(self, degree: int, coeffs: Mapping[Partition, int]):
        # Own __init__, as in SchurExpansion: bench/tracer.py wraps own methods only.
        self._validate(degree, coeffs)

    def __repr__(self) -> str:
        return f"MonomialVector(degree={self._degree}, coeffs={self._terms!r})"


def petrie_monomial_vector(k: int, m: int) -> MonomialVector:
    """Coefficient 1 on every partition of m with all parts below k."""
    if k < 1 or m < 0:
        raise ValueError("need k >= 1 and m >= 0")
    support = partitions_of(m, k - 1)
    return MonomialVector._from_canonical(m, ((lam, 1) for lam in support))


def power_sum_monomial_vector(n: int) -> MonomialVector:
    """The n-th power sum, which is the single monomial function m_(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return MonomialVector._from_canonical(n, [((n,), 1)])


def _inner_shapes_after_strip(shape: Partition, size: int) -> Iterator[Partition]:
    """All nu contained in ``shape`` with shape/nu a horizontal strip of ``size``."""

    def rec(i: int, remaining: int, prefix: Partition) -> Iterator[Partition]:
        if i == len(shape):
            if remaining == 0:
                yield prefix
            return
        low = shape[i + 1] if i + 1 < len(shape) else 0
        for part in range(shape[i], low - 1, -1):
            removed = shape[i] - part
            if removed > remaining:
                break
            # Parts never increase, so dropping a zero part strips trailing zeros.
            yield from rec(i + 1, remaining - removed, prefix + (part,) if part else prefix)

    yield from rec(0, size, ())


@lru_cache(maxsize=None)
def kostka_number(shape: Partition, content: Partition) -> int:
    """Number of semistandard tableaux of ``shape`` with exact ``content``.

    Counted by peeling the largest letter off as a horizontal strip; the
    recursion is memoized but the values still come from tableau
    combinatorics alone.
    """
    if sum(shape) != sum(content):
        return 0
    if not content:
        return 1
    if content and not dominates(shape, content):
        return 0
    return sum(
        kostka_number(inner, content[:-1])
        for inner in _inner_shapes_after_strip(shape, content[-1])
    )


def schur_monomial_vector(lam: Partition) -> MonomialVector:
    """Monomial expansion of a Schur function: the coefficient of m_mu is
    the Kostka number K(lam, mu)."""
    lam = as_partition(lam)
    degree = sum(lam)
    return MonomialVector._from_canonical(
        degree, ((mu, kostka_number(lam, mu)) for mu in partitions_of(degree))
    )


def monomial_to_schur(v: MonomialVector) -> SchurExpansion:
    """Invert the unitriangular monomial expansion of Schur functions.

    Walks the partitions of the degree in canonical order (a linear
    extension of dominance) and back-substitutes Kostka numbers, producing
    the unique integer Schur combination with monomial vector ``v``.
    """
    degree = v.degree
    out: dict[Partition, int] = {}
    for lam in partitions_of(degree):
        coeff = v._terms.get(lam, 0)
        for nu, c in out.items():
            coeff -= c * kostka_number(nu, lam)
        if coeff:
            out[lam] = coeff
    return SchurExpansion._from_canonical(degree, out.items())


def _run_lengths(seq) -> list[int]:
    return [len(list(run)) for _, run in groupby(seq)]


def _splits(mu: Partition, size: int) -> Iterator[tuple[Partition, Partition, int]]:
    """Split the monomial x^mu as x^alpha * x^(mu - alpha) with |alpha| = size.

    Yields (sort(alpha), sort(mu - alpha), count) over the exponent vectors
    0 <= alpha <= mu.  Vectors that differ only by permuting positions where
    mu has equal parts give the same pair, so only the one weakly decreasing
    on each run of equal parts is visited, and ``count`` is the number of
    vectors it stands for.
    """
    room = [0] * (len(mu) + 1)
    for i in range(len(mu) - 1, -1, -1):
        room[i] = room[i + 1] + mu[i]
    orderings = prod(map(factorial, _run_lengths(mu)))

    def rec(i: int, left: int, alpha: list[int]):
        if i == len(mu):
            beta = [part - e for part, e in zip(mu, alpha)]
            yield (
                tuple(sorted((e for e in alpha if e), reverse=True)),
                tuple(sorted((e for e in beta if e), reverse=True)),
                orderings // prod(map(factorial, _run_lengths(zip(mu, alpha)))),
            )
            return
        top = min(mu[i], left)
        if i and mu[i] == mu[i - 1]:
            top = min(top, alpha[-1])
        for e in range(top, max(0, left - room[i + 1]) - 1, -1):
            yield from rec(i + 1, left - e, alpha + [e])

    yield from rec(0, size, [])


def poly_multiply_extract(f: MonomialVector, g: MonomialVector) -> MonomialVector:
    """Monomial-basis coefficients of the product f * g.

    The product is symmetric, so it is determined by its coefficients on the
    monomials x^mu with mu a partition of d = deg(f) + deg(g).  Each one is
    read off directly: [x^mu](f g) is the sum of f[sort(alpha)] *
    g[sort(mu - alpha)] over the exponent vectors 0 <= alpha <= mu with
    |alpha| = deg(f), where f[nu] is f's coefficient on m_nu.  Coefficients
    are exact Python integers throughout, so the arithmetic cannot overflow.
    """
    degree = f.degree + g.degree
    f_coeffs, g_coeffs = f._terms, g._terms
    coeffs: dict[Partition, int] = {}
    if f_coeffs and g_coeffs:
        for mu in partitions_of(degree):
            coeffs[mu] = sum(
                count * f_coeffs.get(alpha, 0) * g_coeffs.get(beta, 0)
                for alpha, beta, count in _splits(mu, f.degree)
            )
    return MonomialVector._from_canonical(degree, coeffs.items())
