"""Shared test utilities: brute-force oracles and an in-process CLI runner.

The oracles here deliberately recompute everything from first principles
(filtering, exhaustive removal, independent recurrences) so the library's
optimized paths are checked against something they share no code with.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from itertools import accumulate, permutations
from operator import le

from hypothesis import strategies as st

from petrie import (
    MalformedPartition,
    MonomialVector,
    SchurExpansion,
    SkewShape,
    conjugate,
    monomial_to_schur,
    ninv,
    partitions_of,
    pet_grinberg,
    petrie_monomial_vector,
    poly_multiply_extract,
    profile,
    remove_rim_hooks,
)
from petrie.cli import main as cli_main
from petrie.partitions import beta_set, contains, partition_from_beta_set


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in-process, returning (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 0
    return code, out.getvalue(), err.getvalue()


def expansion_from_json(payload: dict) -> SchurExpansion:
    """Read a ``SchurExpansion.to_json_dict`` payload back, validated."""
    return SchurExpansion(
        payload["degree"], {tuple(t["partition"]): t["coeff"] for t in payload["terms"]}
    )


def partitions_strategy(max_size: int = 8, max_part: int = 8):
    return st.lists(
        st.integers(min_value=1, max_value=max_part), max_size=max_size
    ).map(lambda parts: tuple(sorted(parts, reverse=True)))


def cell_is_rim_hook(shape: SkewShape) -> bool:
    """The definition on cells: the skew diagram's cells are nonempty,
    hold no 2x2 block, and a search from one cell reaches all of them."""
    cells = set(shape.cells())
    if not cells:
        return False
    for r, c in cells:
        if (r, c + 1) in cells and (r + 1, c) in cells and (r + 1, c + 1) in cells:
            return False
    seen = set()
    stack = [next(iter(cells))]
    while stack:
        cell = stack.pop()
        if cell in seen:
            continue
        seen.add(cell)
        r, c = cell
        for nbr in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if nbr in cells and nbr not in seen:
                stack.append(nbr)
    return len(seen) == len(cells)


def cell_rim_hook_height(shape: SkewShape) -> int:
    """The distinct rows among a rim hook's cells, minus one."""
    assert cell_is_rim_hook(shape), shape
    return len({r for r, _ in shape.cells()}) - 1


@st.composite
def skew_shapes_strategy(draw):
    """Skew shapes of size up to 42: at most three parts of 2 to 8 over
    columns of 2s and 1s, as in the collision witnesses.  Half of the inner
    partitions remove a rim hook, then move one row's end by one when the
    result is still a contained partition; the rest cut each row at random."""
    head = sorted(draw(st.lists(st.integers(2, 8), max_size=3)), reverse=True)
    outer = tuple(head) + (2,) * draw(st.integers(0, 6)) + (1,) * draw(st.integers(0, 6))
    removals = remove_rim_hooks(outer, draw(st.integers(1, max(sum(outer), 1))))
    if removals and draw(st.booleans()):
        inner = list(draw(st.sampled_from(removals)))
        inner += [0] * (len(outer) - len(inner))
        moved = inner[:]
        moved[draw(st.integers(0, len(outer) - 1))] += draw(st.sampled_from((-1, 1)))
        if min(moved) >= 0 and all(map(le, moved, outer)) and moved == sorted(moved, reverse=True):
            inner = moved
    else:
        cuts = draw(st.lists(st.integers(0, 8), min_size=len(outer), max_size=len(outer)))
        inner = accumulate(map(min, cuts, outer), min)
    return SkewShape(outer, inner)


def filter_add_rim_hooks(lam, n):
    """Rim-hook additions found by filtering containing partitions.

    Only containing partitions whose n new cells could form a rim hook are
    filtered: the new cells sit in consecutive rows (an edge-connected shape
    has no empty row between two occupied ones), and a row below another
    new row ends exactly one column past that row's old end (the two rows
    must share a column to be connected, and only one, or they hold a 2x2
    square).  ``cell_is_rim_hook`` decides each candidate.
    """
    inner = tuple(lam) + (0,) * n
    candidates = []

    def walk(i, rows, left, started):
        if left == 0:
            candidates.append(tuple(rows) + tuple(lam[i:]))
            return
        if i == len(inner):
            return
        if started:
            parts = [inner[i - 1] + 1]
        else:
            cap = rows[-1] if rows else inner[0] + left
            parts = range(min(cap, inner[i] + left), inner[i] - 1, -1)
        for part in parts:
            grow = part - inner[i]
            if grow <= left:
                walk(i + 1, rows + [part], left - grow, grow > 0)

    walk(0, [], n, False)
    return sorted(
        (big for big in candidates if cell_is_rim_hook(SkewShape(big, lam))), reverse=True
    )


@lru_cache(maxsize=None)
def _reference_signed_hooks(lam, n):
    return tuple(
        (big, -1 if cell_rim_hook_height(SkewShape(big, lam)) % 2 else 1)
        for big in filter_add_rim_hooks(lam, n)
    )


def reference_mn_product(f: SchurExpansion, n: int) -> SchurExpansion:
    """f * p_n by the Murnaghan-Nakayama rule on cells: filtered rim-hook
    additions, each signed by (-1)^height with the height counted in rows."""
    acc = {}
    for lam, coeff in f.items():
        for big, sign in _reference_signed_hooks(lam, n):
            acc[big] = acc.get(big, 0) + sign * coeff
    return SchurExpansion(f.degree + n, acc)


def filter_remove_rim_hooks(lam, n):
    """Rim-hook removals found by filtering every contained partition."""
    total = sum(lam) - n
    if total < 0:
        return []
    return [
        small
        for small in partitions_of(total)
        if contains(small, lam) and cell_is_rim_hook(SkewShape(lam, small))
    ]


def bareiss_det(rows: list[list[int]]) -> int:
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


def dense_pet_det(lam, mu, k) -> int:
    """det[chi(0 <= lam_i - mu_j - i + j < k)] from the dense matrix, by Bareiss."""
    n = max(len(lam), len(mu))
    lam_p = tuple(lam) + (0,) * (n - len(lam))
    mu_p = tuple(mu) + (0,) * (n - len(mu))
    return bareiss_det(
        [[1 if 0 <= lam_p[i] - mu_p[j] - i + j < k else 0 for j in range(n)] for i in range(n)]
    )


def reference_as_partition(parts):
    """``as_partition`` as a generator-expression scan, part by part: the
    same checks and messages, written without builtins that loop in C."""
    seq = tuple(int(p) for p in parts)
    if any(p < 0 for p in seq):
        raise MalformedPartition(f"negative part in {seq!r}")
    seq = tuple(p for p in seq if p)
    if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
        raise MalformedPartition(f"parts must be weakly decreasing, got {seq!r}")
    return seq


def dominates(lam, mu) -> bool:
    """Dominance order by explicit prefix sums over the longer length."""
    return all(sum(lam[:i]) >= sum(mu[:i]) for i in range(1, max(len(lam), len(mu)) + 1))


def rim_hook_columns(shape: SkewShape) -> int:
    """Occupied columns; for a rim hook, columns + height = size."""
    return len({c for _, c in shape.cells()})


def removal_shift(lam, mu, k):
    """The gamma-shift lemma for removing the size-k rim hook lam/mu, lam_1 < k.

    Asserts that the beta sequence of mu's conjugate is the one of lam's with
    the block at the first changed index i, of length k - height, cyclically
    shifted and its leading entry dropped by k, and that the mod-2 sum of the
    two gamma non-inversion counts is (k + height + 1) mod 2.  Returns
    ``(position, cycle_length, parity, height)``, position 1-based.
    """
    p_lam, p_mu = profile(conjugate(lam), k), profile(conjugate(mu), k)
    height = cell_rim_hook_height(SkewShape(lam, mu))
    b = k - height
    beta, beta_new = p_lam.beta, p_mu.beta
    i = next(i for i in range(k - 1) if beta[i] != beta_new[i])
    expected = beta[:i] + beta[i + 1 : i + b] + (beta[i] - k,) + beta[i + b :]
    assert beta_new == expected, (lam, mu, k)
    parity = (ninv(p_lam.gamma) + ninv(p_mu.gamma)) % 2
    assert parity == (k + height + 1) % 2, (lam, mu, k)
    return i + 1, b, parity, height


def addition_shift(lam, big, k, n):
    """The addition side for the size-n rim hook big/lam, big_1 < k.

    Asserts that the beta sequence of big's conjugate is the one of lam's
    with beta[j+a-1] + n inserted at some slot j, a the hook's column count,
    that the new gamma entry, at the first such slot, is the old
    gamma[j+a-1] + n mod k, and so the old one when k | n.
    """
    a = rim_hook_columns(SkewShape(big, lam))
    p_lam, p_big = profile(conjugate(lam), k), profile(conjugate(big), k)
    beta = p_lam.beta
    slots = [
        j
        for j in range(k - a)
        if p_big.beta == beta[:j] + (beta[j + a - 1] + n,) + beta[j : j + a - 1] + beta[j + a :]
    ]
    assert slots, (lam, big, k, n)
    j = slots[0]
    gamma_star = p_big.gamma[j]
    assert gamma_star == ((p_lam.gamma[j + a - 1] + n) % k or k), (lam, big, k, n)
    if n % k == 0:
        assert gamma_star == p_lam.gamma[j + a - 1], (lam, big, k, n)


@lru_cache(maxsize=None)
def exhaustive_removal_ends(lam, k) -> frozenset:
    """Every partition reachable from lam by maximal size-k hook removal."""
    options = remove_rim_hooks(lam, k)
    if not options:
        return frozenset({lam})
    ends = set()
    for smaller in options:
        ends |= exhaustive_removal_ends(smaller, k)
    return frozenset(ends)


def largest_bead_chain(lam, k) -> tuple:
    """The chain core < ... < lam that repeatedly moves the movable bead with
    the largest position up one row, walked on a bead set of its own."""
    beads = set(beta_set(lam, max(len(lam), 1)))
    chain = [lam]
    while True:
        movable = [b for b in beads if b >= k and b - k not in beads]
        if not movable:
            break
        b = max(movable)
        beads = beads - {b} | {b - k}
        chain.append(partition_from_beta_set(beads))
    return tuple(reversed(chain))


def random_chain_sign(lam, k, rng: random.Random):
    """Sign of one uniformly random maximal size-k removal chain."""
    sign = 1
    current = lam
    while True:
        options = remove_rim_hooks(current, k)
        if not options:
            return sign, current
        nxt = rng.choice(options)
        height = cell_rim_hook_height(SkewShape(current, nxt))
        sign *= -1 if height % 2 == 0 else 1
        current = nxt


def scanned_petrie_expansion(k: int, m: int) -> SchurExpansion:
    """G(k, m) by scoring every partition of m with parts below k with
    Grinberg's formula and keeping the nonzero ones."""
    return SchurExpansion(
        m, {lam: pet_grinberg(lam, k) for lam in partitions_of(m, k - 1)}
    )


def partition_count(n: int) -> int:
    """p(n) by the pentagonal-number recurrence (independent of enumeration)."""
    table = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            g2 = j * (3 * j + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if j % 2 else -1
            if g1 <= m:
                total += sign * table[m - g1]
            if g2 <= m:
                total += sign * table[m - g2]
            j += 1
        table[m] = total
    return table[n]


def count_ssyt(shape, content) -> int:
    """Count semistandard tableaux of ``shape`` and exact ``content`` by
    filling cells one at a time (weakly increasing rows, strictly increasing
    columns)."""
    remaining = list(content)
    values = len(remaining)
    cells = [(r, c) for r, width in enumerate(shape) for c in range(width)]
    grid = [[0] * width for width in shape]

    def fill(idx: int) -> int:
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        low = grid[r][c - 1] if c else 1
        if r:
            low = max(low, grid[r - 1][c] + 1)
        total = 0
        for v in range(low, values + 1):
            if remaining[v - 1]:
                remaining[v - 1] -= 1
                grid[r][c] = v
                total += fill(idx + 1)
                remaining[v - 1] += 1
        return total

    return fill(0)


@lru_cache(maxsize=None)
def _literal_polynomial(terms: tuple, nvars: int) -> dict[tuple[int, ...], int]:
    """A symmetric function given by its (partition, coefficient) terms,
    written out as a polynomial in ``nvars`` variables."""
    poly = {}
    for lam, coeff in terms:
        if len(lam) <= nvars:
            for exponents in set(permutations(lam + (0,) * (nvars - len(lam)))):
                poly[exponents] = coeff
    return poly


def literal_product(f: MonomialVector, g: MonomialVector) -> MonomialVector:
    """f * g by writing both factors out as polynomials in d = deg f + deg g
    variables, multiplying term by term and keeping the weakly decreasing
    exponent vectors."""
    nvars = f.degree + g.degree
    poly_g = _literal_polynomial(tuple(g.items()), nvars)
    product: dict[tuple[int, ...], int] = {}
    for ka, ca in _literal_polynomial(tuple(f.items()), nvars).items():
        for kb, cb in poly_g.items():
            key = tuple(a + b for a, b in zip(ka, kb))
            product[key] = product.get(key, 0) + ca * cb
    return MonomialVector(
        nvars,
        {
            tuple(e for e in key if e): coeff
            for key, coeff in product.items()
            if list(key) == sorted(key, reverse=True)
        },
    )


def power_sum_product_reference(n: int, g: MonomialVector) -> MonomialVector:
    """p_n * g by the power-sum rule: [x^mu](p_n g) is the sum, over the
    distinct parts v >= n of mu, of mult_mu(v) times g's coefficient on mu
    with one part v lowered by n (and re-sorted)."""
    degree = n + g.degree
    g_coeffs = dict(g.items())
    coeffs = {}
    for mu in partitions_of(degree):
        coeffs[mu] = 0
        for v in set(mu):
            if v >= n:
                rest = list(mu)
                rest[rest.index(v)] = v - n
                lowered = tuple(sorted((e for e in rest if e), reverse=True))
                coeffs[mu] += mu.count(v) * g_coeffs.get(lowered, 0)
    return MonomialVector(degree, coeffs)


@lru_cache(maxsize=None)
def _petrie_product(k: int, degrees: tuple[int, ...]) -> MonomialVector:
    """The product of G(k, d) over ``degrees`` by the polynomial oracle."""
    if not degrees:
        return MonomialVector(0, {(): 1})
    return poly_multiply_extract(
        _petrie_product(k, degrees[:-1]), petrie_monomial_vector(k, degrees[-1])
    )


def det_over_oracle(k: int, lam) -> SchurExpansion:
    """det[G(k, lam_i - i + j)] with G(k, r) = 0 for r < 0 and G(k, 0) = 1.

    The determinant is expanded by Laplace along the rows over commuting
    symbols g_d = G(k, d), memoized on the columns left; each product of
    Petrie functions is evaluated by the polynomial oracle and the total is
    converted to the Schur basis.  ``lam`` may carry trailing zeros.
    """
    n = len(lam)

    @lru_cache(maxsize=None)
    def minor(i: int, columns: int) -> tuple:
        """(descending degrees, coefficient) terms of rows i.. on ``columns``."""
        if i == n:
            return (((), 1),)
        acc: dict[tuple[int, ...], int] = {}
        sign = 1
        for j in range(n):
            if columns & (1 << j):
                degree = lam[i] - i + j
                if degree >= 0:
                    for degrees, coeff in minor(i + 1, columns & ~(1 << j)):
                        if degree:
                            degrees = tuple(sorted(degrees + (degree,), reverse=True))
                        acc[degrees] = acc.get(degrees, 0) + sign * coeff
                sign = -sign
        return tuple(acc.items())

    total: dict[tuple[int, ...], int] = {}
    for degrees, coeff in minor(0, (1 << n) - 1):
        for mu, c in _petrie_product(k, degrees).items():
            total[mu] = total.get(mu, 0) + coeff * c
    return monomial_to_schur(MonomialVector(sum(lam), total))
