import pytest

from helpers import count_ssyt, dominates, literal_product
from petrie import (
    MonomialVector,
    SchurExpansion,
    kostka_number,
    monomial_to_schur,
    partitions_of,
    petrie_monomial_vector,
    petrie_schur_expansion,
    petrie_times_power_sum,
    poly_multiply_extract,
    power_sum_monomial_vector,
    schur_monomial_vector,
)


class TestMonomialVector:
    def test_rejects_mixed_degree(self):
        with pytest.raises(ValueError):
            MonomialVector(3, {(2,): 1})

    def test_drops_zeros(self):
        assert len(MonomialVector(2, {(2,): 0, (1, 1): 3})) == 1

    def test_trusted_constructor_drops_zeros(self):
        for cls in (MonomialVector, SchurExpansion):
            vec = cls._from_canonical(2, [((2,), 0), ((1, 1), 3)])
            assert vec.items() == [((1, 1), 3)]
            assert vec == cls(2, {(1, 1): 3})

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
