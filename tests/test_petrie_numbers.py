import random
from itertools import combinations_with_replacement, product
from math import comb

from helpers import bareiss_det, dense_pet_det, random_chain_sign
from petrie import (
    k_core,
    monomial_to_schur,
    partitions_of,
    pet_det,
    pet_generalized,
    pet_grinberg,
    pet_rimhook,
    petrie_monomial_vector,
    petrie_schur_expansion,
    poly_multiply_extract,
    schur_monomial_vector,
)
from petrie.partitions import _bead_masks
from petrie.petrie_numbers import _interval_det, grinberg_masks, grinberg_support


class TestPetDet:
    def test_three_row_values(self):
        assert pet_det((3, 3, 1), 3) == 0
        assert pet_det((3, 3, 1), 4) == 1

    def test_empty(self):
        for k in (1, 2, 5, 9):
            assert pet_det((), k) == 1

    def test_alternating_term(self):
        assert pet_det((3, 2, 2, 1), 4) == -1

    def test_k_equals_one(self):
        # degree-m piece of the constant product is zero for m >= 1
        assert pet_det((), 1) == 1
        for m in range(1, 8):
            for lam in partitions_of(m):
                assert pet_det(lam, 1) == 0


class TestPetGrinberg:
    def test_small_values_against_det(self):
        assert pet_grinberg((2, 2, 1), 3) == pet_det((2, 2, 1), 3) == 1

    def test_alternating_term(self):
        assert pet_grinberg((3, 1, 1, 1, 1, 1), 4) == 1

    def test_first_part_at_k(self):
        assert pet_grinberg((4,), 4) == 0


class TestGrinbergSupport:
    def test_distinct_terms_counted_by_bead_placements_with_grinberg_signs(self):
        # the signs go through pet_grinberg's profile and ninv route; checking
        # them for m > 40 as well would take about 8 s
        for k in range(2, 14):
            for m in range(61):
                terms = list(grinberg_support(k, m))
                empty = (k - 1 - m) % k
                levels = (m - (k - 1) + empty) // k
                assert len(terms) == comb(levels + k - 2, k - 2), (k, m)
                assert len({lam for lam, _ in terms}) == len(terms), (k, m)
                assert all(sum(lam) == m for lam, _ in terms), (k, m)
                if m <= 40:
                    for lam, sign in terms:
                        assert sign == pet_grinberg(lam, k), (k, m, lam)

    def test_masks_are_the_bead_masks_of_the_terms(self):
        # same views in the same order, and a floor reach above the longest
        # term; k = 1 and m < k-1 included.  Every reach up to m = 12, then
        # one of them in turn, where the terms are many
        for k in range(1, 14):
            for m in range(61):
                terms = petrie_schur_expansion(k, m)._terms
                longest = max(map(len, terms), default=0)
                for reach in (1, 5, 12) if m <= 12 else ((1, 5, 12)[m % 3],):
                    views, floor = grinberg_masks(k, m, reach)
                    assert (views, floor) == _bead_masks(terms.items(), reach), (k, m, reach)
                    assert floor == longest + reach, (k, m, reach)


class TestPetRimhook:
    def test_fig1_signs(self):
        assert pet_rimhook((2, 2, 2, 2), 4) == 1
        assert pet_rimhook((2, 1, 1, 1, 1, 1, 1), 4) == -1

    def test_core_is_identity(self):
        assert pet_rimhook((1,), 3) == 1


class TestPetGeneralized:
    def test_reduces_to_single_partition_form(self):
        for k in range(1, 7):
            for m in range(9):
                for lam in partitions_of(m):
                    assert pet_generalized(lam, (), k) == pet_det(lam, k)

    def test_two_cell_products_against_oracle(self):
        # coefficient of s_lam in G(2,1)*s_(1) = e_1*s_1 = s_(2) + s_(1,1)
        product = monomial_to_schur(
            poly_multiply_extract(petrie_monomial_vector(2, 1), schur_monomial_vector((1,)))
        )
        assert product.coefficient((2,)) == 1 == pet_generalized((2,), (1,), 2)
        assert product.coefficient((1, 1)) == 1 == pet_generalized((1, 1), (1,), 2)

    def test_schur_product_coefficients_small_scale(self):
        # every coefficient of G(k,m)*s_mu is the two-partition determinant
        # and lies in {-1,0,1}
        for k in range(1, 5):
            for m in range(7):
                vec = petrie_monomial_vector(k, m)
                for mu_size in range(4):
                    for mu in partitions_of(mu_size):
                        product = monomial_to_schur(
                            poly_multiply_extract(vec, schur_monomial_vector(mu))
                        )
                        for lam in partitions_of(m + mu_size):
                            coeff = product.coefficient(lam)
                            assert coeff in (-1, 0, 1)
                            assert coeff == pet_generalized(lam, mu, k)


class TestIntervalDeterminant:
    def test_single_partition_matches_bareiss(self):
        for k in range(1, 8):
            for size in range(13):
                for lam in partitions_of(size):
                    assert pet_generalized(lam, (), k) == dense_pet_det(lam, (), k), (lam, k)

    def test_two_partitions_match_bareiss(self):
        for k in range(1, 5):
            for size in range(8):
                for lam in partitions_of(size):
                    for mu_size in range(6):
                        for mu in partitions_of(mu_size):
                            assert pet_generalized(lam, mu, k) == dense_pet_det(lam, mu, k), (
                                lam, mu, k,
                            )

    @staticmethod
    def _spans(n):
        """Every span of n columns, the empty one (0, -1) included."""
        return [(lo, hi) for lo in range(n) for hi in range(lo, n)] + [(0, -1)]

    @staticmethod
    def _dense(spans):
        n = len(spans)
        return [[1 if lo <= j <= hi else 0 for j in range(n)] for lo, hi in spans]

    def test_every_span_tuple_up_to_four_rows(self):
        for n in range(5):
            for spans in product(self._spans(n), repeat=n):
                assert _interval_det(spans) == bareiss_det(self._dense(spans)), spans

    def test_every_span_multiset_of_five_rows(self):
        # Row order is covered exhaustively above; here each multiset of five
        # spans is tried in sorted order and in one shuffled order.
        rng = random.Random(5)
        for spans in combinations_with_replacement(self._spans(5), 5):
            shuffled = rng.sample(spans, 5)
            for rows in (spans, shuffled):
                assert _interval_det(rows) == bareiss_det(self._dense(rows)), rows


class TestAgreement:
    def test_four_way_small(self):
        for k in range(1, 6):
            for m in range(10):
                for lam in partitions_of(m):
                    values = {
                        pet_det(lam, k),
                        pet_grinberg(lam, k),
                        pet_rimhook(lam, k),
                        pet_generalized(lam, (), k),
                    }
                    assert len(values) == 1, (lam, k, values)

    def test_zero_criterion(self):
        for k in range(2, 7):
            for m in range(11):
                for lam in partitions_of(m):
                    vanished = pet_det(lam, k) == 0
                    structural = bool(lam) and lam[0] >= k or len(k_core(lam, k)) > 1
                    assert vanished == structural


class TestChainIndependence:
    def test_random_chains_agree(self):
        rng = random.Random(20260809)
        found = 0
        while found < 200:
            k = rng.randint(2, 7)
            m = rng.randint(0, 12)
            pool = [lam for lam in partitions_of(m, k - 1) if pet_det(lam, k) != 0]
            if not pool:
                continue
            lam = rng.choice(pool)
            expected = pet_rimhook(lam, k)
            for _ in range(20):
                sign, end = random_chain_sign(lam, k, rng)
                assert end == k_core(lam, k)
                assert sign == expected, (lam, k)
            found += 1
