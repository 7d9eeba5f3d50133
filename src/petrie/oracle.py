"""Brute-force verification path through exact polynomial arithmetic.

Symmetric functions are held by their monomial-basis coefficients.  A
product is read off monomial by monomial: the coefficient of x^mu in f * g
sums, over each term c * m_nu of the factor with fewer terms and each way
to take an exponent vector alpha with sorted parts nu out of mu, c times the
other factor's coefficient on x^(mu - alpha).  Only the partition-shaped
monomials x^mu are computed, since they determine the symmetric product.
Monomial vectors are converted to the Schur basis by back-substitution
against Kostka numbers, which come from one route: the recursion of
``kostka_number``, peeling the largest content part off as a horizontal
strip.  The inner shapes a strip can leave are enumerated once per
``(shape, size)`` and kept as an immutable tuple shared by every content.
``MonomialVector`` shares its base with ``SchurExpansion``; vectors
built here skip its key validation.

A product by the power sum p_n is checked in the Schur basis without a
rim hook: Newton's identity p_n = sum_{a=1..n} a (-1)^(n-a) h_a e_(n-a),
read off P(t) = H'(t) E(-t), turns it into Pieri strips.  Multiplying by
h_a adds every horizontal strip of size a, and multiplying by e_b every
vertical strip of size b, which is a horizontal strip added to the
conjugate.  So ``G(k, m) * p_n`` is checked by converting only ``G(k, m)``,
at degree m, and costs no conversion at degree m + n.  The strips use the
diagram's rows and ``conjugate`` alone: no bead, rim-hook height or sign
rule of the Murnaghan-Nakayama product they check.  None of the
algorithms here touch the determinant, gamma, or rim-hook evaluators they
are used to check: the oracle shares no algorithm with the fast path, and
that is the point.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from math import factorial, prod
from typing import Iterator

from .partitions import Partition, _dominates, as_partition, conjugate, partitions_of
from .schur_ring import SchurExpansion, _HomogeneousVector


class MonomialVector(_HomogeneousVector):
    """A symmetric function recorded by its monomial-basis coefficients."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"MonomialVector(degree={self._degree}, coeffs={self._terms!r})"


def petrie_monomial_vector(k: int, m: int) -> MonomialVector:
    """Coefficient 1 on every partition of m with all parts below k."""
    if k < 1 or m < 0:
        raise ValueError("need k >= 1 and m >= 0")
    support = partitions_of(m, k - 1)
    return MonomialVector._from_canonical(m, dict.fromkeys(support, 1))


def power_sum_monomial_vector(n: int) -> MonomialVector:
    """The n-th power sum, which is the single monomial function m_(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return MonomialVector._from_canonical(n, {(n,): 1})


@lru_cache(maxsize=None)
def _inner_shapes_after_strip(shape: Partition, size: int) -> tuple[Partition, ...]:
    """All nu contained in ``shape`` with shape/nu a horizontal strip of ``size``.

    The strips depend on ``(shape, size)`` alone, so each pair is enumerated
    once and the tuple is shared by every content whose first part is
    ``size``; it is immutable, since a caller that changed it would change
    every later Kostka number.
    """

    def rec(i: int, remaining: int, prefix: Partition) -> Iterator[Partition]:
        if i == len(shape):
            if remaining == 0:
                yield prefix
            return
        # Row j gives up at most shape[j] - shape[j+1] cells: shape[i] in all from i on.
        if remaining > shape[i]:
            return
        low = shape[i + 1] if i + 1 < len(shape) else 0
        for part in range(shape[i], low - 1, -1):
            removed = shape[i] - part
            if removed > remaining:
                break
            # Parts never increase, so dropping a zero part strips trailing zeros.
            yield from rec(i + 1, remaining - removed, prefix + (part,) if part else prefix)

    return tuple(rec(0, size, ()))


@lru_cache(maxsize=None)
def kostka_number(shape: Partition, content: Partition) -> int:
    """Number of semistandard tableaux of ``shape`` with exact ``content``.

    Both must be canonical partitions (weakly decreasing positive parts, as
    ``as_partition`` returns them); they are not checked.  The count does
    not depend on the order of the content (Bender-Knuth involutions), so
    the largest letter is given multiplicity ``content[0]`` and peeled off
    first as a horizontal strip, leaving the partition ``content[1:]``.  The
    recursion is memoized but the values come from tableau combinatorics.
    The strips come from ``_inner_shapes_after_strip``, whose immutable
    tuples are computed once per ``(shape, content[0])`` and shared by every
    content with that first part.
    """
    if sum(shape) != sum(content):
        return 0
    if not content:
        return 1
    if not _dominates(shape, content):
        return 0
    return sum(
        kostka_number(inner, content[1:])
        for inner in _inner_shapes_after_strip(shape, content[0])
    )


def schur_monomial_vector(lam: Partition) -> MonomialVector:
    """Monomial expansion of a Schur function: the coefficient of m_mu is
    the Kostka number K(lam, mu)."""
    lam = as_partition(lam)
    degree = sum(lam)
    return MonomialVector._from_canonical(
        degree, {mu: c for mu in partitions_of(degree) if (c := kostka_number(lam, mu))}
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
    return SchurExpansion._from_canonical(degree, out)


def _run_lengths(seq) -> list[int]:
    return [len(list(run)) for _, run in groupby(seq)]


def _splits(mu: Partition, nu: Partition) -> list[tuple[Partition, int]]:
    """The pairs (sort(mu - alpha), count) over exponent vectors 0 <= alpha <= mu
    whose nonzero entries are the parts of ``nu``.

    The parts still to place are a multiset in a plain dict; each position of
    mu tries 0 and every distinct unused part that fits.  Permuting positions
    where mu has equal parts gives the same pair, so only the alpha weakly
    decreasing on each run is visited; ``count`` is how many it stands for.
    """
    orderings = prod(map(factorial, _run_lengths(mu)))
    unused = {part: len(list(run)) for part, run in groupby(nu)}
    out: list[tuple[Partition, int]] = []

    def rec(i: int, left: int, alpha: tuple[int, ...]) -> None:
        if not left:
            alpha += (0,) * (len(mu) - i)
            beta = sorted((p - e for p, e in zip(mu, alpha) if p != e), reverse=True)
            count = orderings // prod(map(factorial, _run_lengths(zip(mu, alpha))))
            out.append((tuple(beta), count))
        # mu only decreases, so an unused part larger than mu[i] fits nowhere.
        elif len(mu) - i >= left and max(unused) <= mu[i]:
            top = alpha[-1] if i and mu[i] == mu[i - 1] else mu[i]
            for e in [v for v in unused if v <= top] + [0]:
                if e and (rest := unused.pop(e) - 1):
                    unused[e] = rest
                rec(i + 1, left - (e > 0), alpha + (e,))
                if e:
                    unused[e] = unused.get(e, 0) + 1

    rec(0, len(nu), ())
    return out


def poly_multiply_extract(f: MonomialVector, g: MonomialVector) -> MonomialVector:
    """Monomial-basis coefficients of the product f * g.

    The product is symmetric, so it is determined by its coefficients on the
    monomials x^mu with mu a partition of d = deg(f) + deg(g).  The product
    commutes, so f is made the factor with fewer terms, and [x^mu](f g) is
    the sum, over f's terms c * m_nu and the exponent vectors alpha <= mu
    with sort(alpha) = nu, of c * g[sort(mu - alpha)]: for f = p_n, one alpha
    per distinct part >= n of mu.  Coefficients are exact Python integers.
    """
    if len(f) > len(g):
        f, g = g, f
    degree, g_coeffs = f.degree + g.degree, g._terms
    coeffs = {
        mu: sum(
            c * sum(count * g_coeffs.get(beta, 0) for beta, count in _splits(mu, nu))
            for nu, c in f._terms.items()
        )
        for mu in (partitions_of(degree) if f._terms else ())
    }
    return MonomialVector._from_canonical(degree, coeffs)


def _outer_shapes_after_strip(shape: Partition, size: int) -> list[Partition]:
    """All nu containing ``shape`` with nu/shape a horizontal strip of ``size``.

    Row i of nu lies between shape[i] and shape[i-1], and the new last row
    between 0 and shape[-1]; only the first row is unbounded.  The rows are
    fixed from the bottom up, and the first row takes the cells left over,
    so every branch yields one shape.
    """
    out: list[Partition] = []

    def rec(i: int, remaining: int, suffix: Partition) -> None:
        if i == 0:
            top = (shape[0] if shape else 0) + remaining
            out.append((top,) + suffix if top else suffix)
            return
        low = shape[i] if i < len(shape) else 0
        for part in range(low, min(shape[i - 1], low + remaining) + 1):
            # Only the new row can stay at 0, and a zero part is dropped.
            rec(i - 1, remaining - part + low, (part,) + suffix if part else suffix)

    rec(len(shape), size, ())
    return out


def pieri_times_power_sum(f: SchurExpansion, n: int) -> SchurExpansion:
    """The Schur expansion of ``f * p_n`` by Pieri strips.

    By Newton's identity p_n = sum_{a=1..n} a (-1)^(n-a) h_a e_(n-a), each
    term s_lam of ``f`` gains a vertical strip of size n - a (a horizontal
    strip on the conjugate) and then a horizontal strip of size a, with
    weight a (-1)^(n-a).  The two strip products commute; the vertical one
    comes first so that each partition is conjugated back only once, before
    its horizontal strips, and the output keys come straight from them.
    Zero coefficients are dropped.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    transposed = [(conjugate(lam), c) for lam, c in f._terms.items()]
    out: dict[Partition, int] = {}
    for a in range(1, n + 1):
        tall: dict[Partition, int] = {}
        for lam_t, c in transposed:
            for nu_t in _outer_shapes_after_strip(lam_t, n - a):
                tall[nu_t] = tall.get(nu_t, 0) + c
        weight = a if (n - a) % 2 == 0 else -a
        for nu_t, c in tall.items():
            if c:
                for rho in _outer_shapes_after_strip(conjugate(nu_t), a):
                    out[rho] = out.get(rho, 0) + weight * c
    return SchurExpansion._from_canonical(f.degree + n, out)
