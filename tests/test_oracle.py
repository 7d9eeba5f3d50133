import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import count_ssyt, dominates, literal_product, power_sum_product_reference
from petrie import (
    MonomialVector,
    SchurExpansion,
    kostka_number,
    monomial_to_schur,
    partitions_of,
    petrie_monomial_vector,
    petrie_schur_expansion,
    petrie_times_power_sum,
    pieri_times_power_sum,
    poly_multiply_extract,
    schur_monomial_vector,
)
from petrie.oracle import (
    _inner_shapes_after_strip,
    _outer_shapes_after_strip,
    power_sum_monomial_vector,
)


class TestMonomialVector:
    def test_rejects_mixed_degree(self):
        with pytest.raises(ValueError):
            MonomialVector(3, {(2,): 1})

    def test_drops_zeros(self):
        assert len(MonomialVector(2, {(2,): 0, (1, 1): 3})) == 1

    def test_trusted_constructor_drops_zeros(self):
        for cls in (MonomialVector, SchurExpansion):
            terms = {(2,): 0, (1, 1): 3}
            vec = cls._from_canonical(2, terms)
            assert vec.items() == [((1, 1), 3)]
            assert vec == cls(2, {(1, 1): 3})
            assert vec._terms is terms  # adopted, not copied

    def test_never_equals_schur_expansion(self):
        terms = {(2, 1): 1, (1, 1, 1): 2}
        assert MonomialVector(3, terms) != SchurExpansion(3, terms)
        assert SchurExpansion(3, terms) != MonomialVector(3, terms)
        assert MonomialVector(0, {}) != SchurExpansion(0, {})


class TestPetrieMonomialVector:
    def test_support_is_dominance_interval(self):
        # partitions of k with parts < k are exactly those below the hook (k-1,1)
        k = 4
        vec = petrie_monomial_vector(k, k)
        assert vec.support() == [(3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        for lam in partitions_of(k):
            expected = 1 if dominates((k - 1, 1), lam) else 0
            assert vec.coefficient(lam) == expected

    def test_elementary_support(self):
        assert petrie_monomial_vector(2, 3).support() == [(1, 1, 1)]

    def test_full_support_when_k_large(self):
        assert len(petrie_monomial_vector(9, 4)) == 5

    def test_k_equals_one(self):
        assert petrie_monomial_vector(1, 0).support() == [()]
        assert len(petrie_monomial_vector(1, 3)) == 0


class TestSchurMonomialVector:
    def test_hand_enumerated_shape(self):
        vec = schur_monomial_vector((2, 1))
        assert vec.items() == [((2, 1), 1), ((1, 1, 1), 2)]

    def test_single_row_is_complete_homogeneous(self):
        vec = schur_monomial_vector((3,))
        assert vec.support() == partitions_of(3)
        assert all(coeff == 1 for _, coeff in vec.items())

    def test_single_column_is_elementary(self):
        assert schur_monomial_vector((1, 1, 1)).items() == [((1, 1, 1), 1)]


class TestKostka:
    def test_counting_matches_explicit_enumeration(self):
        for degree in range(9):
            for shape in partitions_of(degree):
                for content in partitions_of(degree):
                    assert kostka_number(shape, content) == count_ssyt(shape, content)

    def test_content_order_does_not_matter(self):
        # kostka_number peels content[0] first, which relies on this symmetry;
        # count_ssyt fills cells by brute force and does not assume it.
        for degree in range(9):
            for shape in partitions_of(degree):
                for content in partitions_of(degree):
                    assert kostka_number(shape, content) == count_ssyt(shape, content[::-1])

    def test_strip_removal_matches_filtering(self):
        # Every nu inside the shape whose complement is a horizontal strip
        # (no two removed cells in one column: nu_i >= shape_(i+1)).
        for degree in range(13):
            for shape in partitions_of(degree):
                below = shape[1:] + (0,)
                for size in range(degree + 1):
                    expected = [
                        nu
                        for nu in partitions_of(degree - size)
                        if len(nu) <= len(shape)
                        and all(low <= part <= top for part, top, low in zip(
                            nu + (0,) * (len(shape) - len(nu)), shape, below
                        ))
                    ]
                    found = list(_inner_shapes_after_strip(shape, size))
                    assert sorted(found, reverse=True) == expected, (shape, size)

    def test_strip_lists_are_shared_and_immutable(self):
        # A mutable list in the cache would let one caller change every later
        # Kostka number; one enumeration per (shape, size) is the saving.
        strips = _inner_shapes_after_strip((4, 2, 1), 3)
        assert isinstance(strips, tuple)
        assert _inner_shapes_after_strip((4, 2, 1), 3) is strips
        kostka_number.cache_clear()
        _inner_shapes_after_strip.cache_clear()
        monomial_to_schur(petrie_monomial_vector(6, 14))
        info = _inner_shapes_after_strip.cache_info()
        assert info.hits > 0
        assert info.misses == info.currsize

    def test_unitriangular(self):
        for degree in range(11):
            for shape in partitions_of(degree):
                assert kostka_number(shape, shape) == 1
                for content in partitions_of(degree):
                    if kostka_number(shape, content):
                        assert dominates(shape, content)

    def test_row_sums_single_row_shape(self):
        for n in range(1, 9):
            vec = schur_monomial_vector((n,))
            assert len(vec) == len(partitions_of(n))


class TestMonomialToSchur:
    def test_round_trip_single_schur(self):
        for m in range(8):
            for lam in partitions_of(m):
                out = monomial_to_schur(schur_monomial_vector(lam))
                assert out.items() == [(lam, 1)]

    def test_transition_row_for_degree_four(self):
        out = monomial_to_schur(petrie_monomial_vector(3, 4))
        assert out.items() == [((2, 2), 1), ((1, 1, 1, 1), -1)]

    def test_matches_fast_expansion(self):
        assert monomial_to_schur(petrie_monomial_vector(4, 8)) == petrie_schur_expansion(4, 8)

    def test_reconstruction_identity(self):
        # v = sum of c_lam * schur_monomial_vector(lam) term by term
        vec = petrie_monomial_vector(3, 6)
        expansion = monomial_to_schur(vec)
        rebuilt = {}
        for lam, coeff in expansion.items():
            for mu, kk in schur_monomial_vector(lam).items():
                rebuilt[mu] = rebuilt.get(mu, 0) + coeff * kk
        assert MonomialVector(6, rebuilt) == vec


class TestPolyMultiplyExtract:
    def test_square_of_first_power_sum(self):
        e1 = MonomialVector(1, {(1,): 1})
        assert poly_multiply_extract(e1, e1).items() == [((2,), 1), ((1, 1), 2)]

    def test_unit_is_identity(self):
        unit = MonomialVector(0, {(): 1})
        vec = petrie_monomial_vector(4, 5)
        assert poly_multiply_extract(vec, unit) == vec
        assert poly_multiply_extract(unit, unit) == unit

    def test_product_reproduces_double_coefficient(self):
        product = poly_multiply_extract(
            power_sum_monomial_vector(3), petrie_monomial_vector(3, 5)
        )
        expansion = monomial_to_schur(product)
        assert expansion.coefficient((2, 2, 2, 2)) == -2
        assert expansion == petrie_times_power_sum(3, 5, 3)

    def test_zero_factor(self):
        zero = MonomialVector(3, {})
        out = poly_multiply_extract(zero, petrie_monomial_vector(3, 2))
        assert out.degree == 5 and len(out) == 0

    def test_commutative(self):
        f = petrie_monomial_vector(3, 4)
        g = schur_monomial_vector((2, 1))
        assert poly_multiply_extract(f, g) == poly_multiply_extract(g, f)


def _small_vectors(degree):
    """The distinct Petrie, Schur and power-sum monomial vectors of one
    degree, and the zero vector."""
    candidates = [petrie_monomial_vector(k, degree) for k in range(1, degree + 2)]
    candidates += [schur_monomial_vector(lam) for lam in partitions_of(degree)]
    if degree:
        candidates.append(power_sum_monomial_vector(degree))
    candidates.append(MonomialVector(degree, {}))
    vectors = []
    for vec in candidates:
        if vec not in vectors:
            vectors.append(vec)
    return vectors


class TestAgainstLiteralProduct:
    @pytest.mark.parametrize("total", range(8))
    def test_every_pair_up_to_degree_seven(self, total):
        for deg_f in range(total + 1):
            for f in _small_vectors(deg_f):
                for g in _small_vectors(total - deg_f):
                    assert poly_multiply_extract(f, g) == literal_product(f, g)

    def test_reference_multiplies_literally(self):
        e1 = MonomialVector(1, {(1,): 1})
        assert literal_product(e1, e1) == MonomialVector(2, {(2,): 1, (1, 1): 2})


class TestAgainstPowerSumReference:
    """p_n times every Petrie vector at product degrees 8-12 and every Schur
    vector at 8-10, beyond the literal product's reach, in both argument
    orders so that the swap to the factor with fewer terms is exercised."""

    @pytest.mark.parametrize("total", range(8, 13))
    def test_power_sum_times_petrie_and_schur(self, total):
        for n in range(1, total + 1):
            m = total - n
            factors = [petrie_monomial_vector(k, m) for k in range(1, m + 2)]
            if total <= 10:
                factors += [schur_monomial_vector(lam) for lam in partitions_of(m)]
            p_n = power_sum_monomial_vector(n)
            for g in factors:
                expected = power_sum_product_reference(n, g)
                assert poly_multiply_extract(p_n, g) == expected
                assert poly_multiply_extract(g, p_n) == expected

    def test_reference_matches_literal_product(self):
        for total in range(1, 7):
            for n in range(1, total + 1):
                for g in _small_vectors(total - n):
                    expected = literal_product(power_sum_monomial_vector(n), g)
                    assert power_sum_product_reference(n, g) == expected


class TestOracleEquivalence:
    def test_expansion_equivalence_small(self):
        for k in range(1, 6):
            for m in range(9):
                assert monomial_to_schur(petrie_monomial_vector(k, m)) == petrie_schur_expansion(k, m)

    def test_product_equivalence_small(self):
        for k in range(1, 5):
            for m in range(7):
                vec = petrie_monomial_vector(k, m)
                for n in range(1, 4):
                    product = poly_multiply_extract(power_sum_monomial_vector(n), vec)
                    assert monomial_to_schur(product) == petrie_times_power_sum(k, m, n)


class TestPieriStrips:
    """The strip product p_n * f of Newton's identity against the monomial
    route, which converts the whole degree-(m+n) product."""

    def test_outer_strips_invert_inner_strips(self):
        # nu/shape is a horizontal strip of size s from either side
        for degree in range(8):
            for shape in partitions_of(degree):
                for size in range(5):
                    outer = _outer_shapes_after_strip(shape, size)
                    assert len(set(outer)) == len(outer)
                    expected = [
                        nu for nu in partitions_of(degree + size)
                        if shape in _inner_shapes_after_strip(nu, size)
                    ]
                    assert sorted(outer) == sorted(expected), (shape, size)

    @pytest.mark.parametrize("degree", range(8))
    def test_every_schur_function(self, degree):
        # degree 0 is s_() = 1, so the product is p_n itself
        for mu in partitions_of(degree):
            for n in range(1, 5):
                s_mu = SchurExpansion(degree, {mu: 1})
                expected = monomial_to_schur(
                    poly_multiply_extract(power_sum_monomial_vector(n), schur_monomial_vector(mu))
                )
                assert pieri_times_power_sum(s_mu, n) == expected, (mu, n)

    def test_petrie_expansions(self):
        for total in range(1, 11):
            for n in range(1, total + 1):
                m = total - n
                for k in range(1, m + 2):
                    vec = petrie_monomial_vector(k, m)
                    expected = monomial_to_schur(
                        poly_multiply_extract(power_sum_monomial_vector(n), vec)
                    )
                    assert pieri_times_power_sum(monomial_to_schur(vec), n) == expected, (k, m, n)

    def test_mixed_signs_and_multiplicities(self):
        terms = {(3, 1): 2, (2, 2): -1, (1, 1, 1, 1): 3}
        vec = {}
        for lam, coeff in terms.items():
            for mu, c in schur_monomial_vector(lam).items():
                vec[mu] = vec.get(mu, 0) + coeff * c
        for n in range(1, 5):
            expected = monomial_to_schur(
                poly_multiply_extract(power_sum_monomial_vector(n), MonomialVector(4, vec))
            )
            assert pieri_times_power_sum(SchurExpansion(4, terms), n) == expected

    def test_empty_expansion(self):
        for n in range(1, 5):
            assert pieri_times_power_sum(SchurExpansion(4, {}), n) == SchurExpansion(4 + n, {})

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            pieri_times_power_sum(SchurExpansion(0, {(): 1}), 0)

    @settings(derandomize=True, deadline=None)
    @given(
        st.integers(0, 15).flatmap(
            lambda m: st.tuples(st.integers(2, 9), st.just(m), st.integers(1, 16 - m))
        )
    )
    def test_fast_path_at_random_points(self, triple):
        k, m, n = triple
        check = pieri_times_power_sum(monomial_to_schur(petrie_monomial_vector(k, m)), n)
        assert check == petrie_times_power_sum(k, m, n)
