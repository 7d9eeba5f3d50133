import pickle
from itertools import product

import pytest
from hypothesis import given, settings

from helpers import (
    dominates,
    filter_add_rim_hooks,
    filter_remove_rim_hooks,
    partition_count,
    partitions_strategy,
    reference_as_partition,
    rim_hook_columns,
)
from petrie import (
    MalformedPartition,
    NotARimHook,
    SkewShape,
    add_rim_hooks,
    as_partition,
    conjugate,
    contains,
    format_partition,
    is_rim_hook,
    parse_partition,
    partitions_of,
    remove_rim_hooks,
    rim_hook_height,
)
from petrie.partitions import (
    _bead_masks,
    _dominates,
    _mask_partition,
    _signed_hook_masks,
    _signed_rim_hooks,
)


def _outcome(canonicalize, parts):
    try:
        return canonicalize(parts)
    except Exception as exc:
        return type(exc), str(exc)


class TestAsPartition:
    def test_matches_reference_on_every_small_tuple(self):
        for length in range(6):
            for parts in product(range(-1, 4), repeat=length):
                expected = _outcome(reference_as_partition, parts)
                assert _outcome(as_partition, parts) == expected, parts

    def test_matches_reference_on_other_part_types(self):
        for parts in [
            (True, False, True),
            (False, True),
            [2.5, 1.0, 0.0],
            (1.5, 2.9),
            (-0.5, 1),
            (-1.5,),
            "3210",
            "123",
            "3a",
            "",
            (None,),
            5,
        ]:
            expected = _outcome(reference_as_partition, parts)
            assert _outcome(as_partition, parts) == expected, parts


class TestParse:
    def test_plain(self):
        assert parse_partition("3,3,1") == (3, 3, 1)

    def test_empty_forms(self):
        assert parse_partition("") == ()
        assert parse_partition("[]") == ()
        assert parse_partition("  ") == ()

    def test_brackets(self):
        assert parse_partition("[7,4,2,1]") == (7, 4, 2, 1)

    def test_zeros_stripped(self):
        assert parse_partition("3,1,0,0") == (3, 1)

    def test_increasing_rejected(self):
        with pytest.raises(MalformedPartition):
            parse_partition("1,3")

    def test_non_numeric_rejected(self):
        with pytest.raises(MalformedPartition):
            parse_partition("2,x")

    def test_negative_rejected(self):
        with pytest.raises(MalformedPartition):
            parse_partition("3,-1")

    def test_exponent_shorthand_rejected(self):
        with pytest.raises(MalformedPartition):
            parse_partition("1^4")

    @given(partitions_strategy())
    @settings(derandomize=True)
    def test_round_trip(self, lam):
        assert parse_partition(format_partition(lam)) == lam


class TestConjugate:
    def test_known_transpose_pair(self):
        assert conjugate((7, 4, 2, 1)) == (4, 3, 2, 2, 1, 1, 1)
        assert conjugate((4, 3, 2, 2, 1, 1, 1)) == (7, 4, 2, 1)

    def test_empty(self):
        assert conjugate(()) == ()

    def test_column_count_oracle(self):
        # independent transpose: count cells per column of the Young diagram
        for m in range(9):
            for lam in partitions_of(m):
                cells = {(r, c) for r, width in enumerate(lam) for c in range(width)}
                by_col = tuple(
                    sum(1 for r, c in cells if c == col)
                    for col in range(lam[0] if lam else 0)
                )
                assert conjugate(lam) == by_col
        assert conjugate((3, 3, 1)) == (3, 2, 2)

    @given(partitions_strategy())
    @settings(derandomize=True)
    def test_involution(self, lam):
        assert conjugate(conjugate(lam)) == lam


class TestDominance:
    def test_examples(self):
        assert _dominates((2, 1, 1), (1, 1, 1, 1))
        assert not _dominates((2, 2), (3, 1))
        assert _dominates((4, 1), (2, 2, 1))

    def test_reflexive(self):
        for lam in partitions_of(6):
            assert _dominates(lam, lam)

    def test_matches_prefix_sum_reference(self):
        # pairs of unequal length check that stopping at the shorter is exact
        for n in range(9):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    assert _dominates(lam, mu) == dominates(lam, mu), (lam, mu)


class TestContains:
    def test_examples(self):
        assert contains((1,), (2, 2))
        assert not contains((3,), (2, 2))
        assert contains((2, 1), (2, 1))


class TestSkewShape:
    def test_parts_are_canonicalized(self):
        shape = SkewShape([3, 2, 0], [1])
        assert shape == SkewShape((3, 2), (1,))
        assert hash(shape) == hash(SkewShape((3, 2), (1,)))
        assert (shape.outer, shape.inner) == ((3, 2), (1,))

    def test_inner_must_be_contained(self):
        with pytest.raises(ValueError):
            SkewShape((1,), (2,))
        with pytest.raises(MalformedPartition):
            SkewShape((1, 2), ())

    def test_immutable(self):
        shape = SkewShape((2, 1), (1,))
        with pytest.raises(AttributeError):
            shape.outer = (3,)
        with pytest.raises(AttributeError):
            shape.extra = 1

    def test_pickle_round_trip(self):
        shape = SkewShape((4, 2, 1), (2, 1))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(shape, protocol))
            assert copy == shape and type(copy) is SkewShape


class TestRimHooks:
    def test_is_rim_hook_examples(self):
        assert is_rim_hook(SkewShape((2, 2), (1,)))
        assert not is_rim_hook(SkewShape((2, 1, 1), (1,)))  # disconnected
        assert not is_rim_hook(SkewShape((2, 2), ()))  # contains a 2x2 square
        assert not is_rim_hook(SkewShape((2, 1), (2, 1)))  # empty shape

    def test_heights_from_worked_example(self):
        assert rim_hook_height(SkewShape((4, 3, 2, 2, 1, 1, 1), (2, 1, 1, 1, 1, 1, 1))) == 3
        assert rim_hook_height(SkewShape((4, 3, 2, 2, 1, 1, 1), (4, 3, 1))) == 4
        assert rim_hook_height(SkewShape((5,), ())) == 0

    def test_columns_from_worked_example(self):
        assert rim_hook_columns(SkewShape((4, 3, 2, 2, 1, 1, 1), (2, 1, 1, 1, 1, 1, 1))) == 3
        assert rim_hook_columns(SkewShape((4, 3, 2, 2, 1, 1, 1), (4, 3, 1))) == 2
        assert rim_hook_columns(SkewShape((4,), ())) == 4

    def test_not_a_rim_hook_error(self):
        with pytest.raises(NotARimHook):
            rim_hook_height(SkewShape((2, 2), ()))

    def test_height_plus_columns_is_size(self):
        for m in range(1, 11):
            for lam in partitions_of(m):
                for n in range(1, m + 1):
                    for mu in remove_rim_hooks(lam, n):
                        shape = SkewShape(lam, mu)
                        assert rim_hook_height(shape) + rim_hook_columns(shape) == n

    def test_conjugation_duality(self):
        for m in range(1, 11):
            for lam in partitions_of(m):
                for n in range(1, m + 1):
                    for mu in remove_rim_hooks(lam, n):
                        shape = SkewShape(lam, mu)
                        dual = SkewShape(conjugate(lam), conjugate(mu))
                        assert is_rim_hook(dual)
                        assert rim_hook_height(dual) == rim_hook_columns(shape) - 1


class TestAddRemove:
    def test_add_worked_example(self):
        assert add_rim_hooks((4, 4), 3) == [
            (7, 4),
            (6, 5),
            (4, 4, 3),
            (4, 4, 2, 1),
            (4, 4, 1, 1, 1),
        ]

    def test_add_to_empty(self):
        # hooks of size 4; (2,2) is excluded by the 2x2 rule
        assert add_rim_hooks((), 4) == [(4,), (3, 1), (2, 1, 1), (1, 1, 1, 1)]
        assert add_rim_hooks((1,), 1) == [(2,), (1, 1)]

    def test_remove_worked_example(self):
        assert remove_rim_hooks((4, 3, 2, 2, 1, 1, 1), 6) == [
            (4, 3, 1),
            (2, 1, 1, 1, 1, 1, 1),
        ]

    def test_remove_disconnected_candidate(self):
        assert remove_rim_hooks((2, 1, 1), 3) == []
        assert remove_rim_hooks((3,), 3) == [()]

    def test_matches_filter_oracle(self):
        for m in range(0, 9):
            for lam in partitions_of(m):
                for n in range(1, 6):
                    assert add_rim_hooks(lam, n) == filter_add_rim_hooks(lam, n)
                    assert remove_rim_hooks(lam, n) == filter_remove_rim_hooks(lam, n)

    def test_adjointness_exhaustive(self):
        for m in range(0, 13):
            for lam in partitions_of(m):
                for n in range(1, 7):
                    for mu in remove_rim_hooks(lam, n):
                        assert lam in add_rim_hooks(mu, n)
                    if m + n <= 12:
                        for big in add_rim_hooks(lam, n):
                            assert lam in remove_rim_hooks(big, n)

    def test_empty_partition_hook_count(self):
        for n in range(1, 13):
            assert len(add_rim_hooks((), n)) == n

    def test_bead_rule_matches_cell_heights(self):
        # beads strictly between b and b+n against occupied rows minus one
        for m in range(11):
            for lam in partitions_of(m):
                for n in range(1, 7):
                    signed = _signed_rim_hooks([(lam, 1)], n)
                    assert sorted(signed, reverse=True) == filter_add_rim_hooks(lam, n)
                    for lam_plus, sign in signed.items():
                        height = rim_hook_height(SkewShape(lam_plus, lam))
                        assert sign == (-1) ** height, (lam, n, lam_plus)

    def test_views_padded_past_n_match_cell_heights(self):
        # a mask view built for hooks up to `reach` serves every smaller n,
        # as the sweep shares it; decoded, its hooks and signs are the cells'
        for m in range(10):
            for lam in partitions_of(m):
                for n in range(1, 9):
                    expected = {
                        big: (-1) ** rim_hook_height(SkewShape(big, lam))
                        for big in filter_add_rim_hooks(lam, n)
                    }
                    for reach in range(n, 9):
                        views, floor = _bead_masks([(lam, 1)], reach)
                        signed = {
                            _mask_partition(key, floor): sign
                            for key, sign in _signed_hook_masks(views, n).items()
                        }
                        assert signed == expected, (lam, n, reach)


def _reference_mask(lam, floor):
    # bead i of the first `floor` at lam_i - i + floor, missing parts read as 0
    pad = lam + (0,) * (floor - len(lam))
    return sum(1 << (p - i + floor) for i, p in enumerate(pad))


class TestBeadMasks:
    def test_every_floor_decodes_back(self):
        # floor == len(lam) leaves no zero-part bead: the bits run out first
        for m in range(13):
            for lam in partitions_of(m):
                for reach in range(4):
                    (view,), floor = _bead_masks([(lam, 1)], reach)
                    assert floor == len(lam) + reach
                    assert view[0] == _reference_mask(lam, floor)
                    assert _mask_partition(view[0], floor) == lam, (lam, floor)

    def test_masks_of_one_size_sort_canonically(self):
        # _smf_verdict takes the largest key as the first term in canonical order
        for m in range(13):
            lams = partitions_of(m)
            for reach in range(3):
                views, floor = _bead_masks([(lam, 1) for lam in lams], reach)
                masks = [view[0] for view in views]
                assert sorted(masks, reverse=True) == masks, (m, reach)
                assert [_mask_partition(mask, floor) for mask in masks] == lams

    def test_odd_is_the_parity_of_the_beads_at_and_above(self):
        for m in range(13):
            for lam in partitions_of(m):
                for reach in range(4):
                    (view,), floor = _bead_masks([(lam, 1)], reach)
                    mask, odd = _reference_mask(lam, floor), view[2]
                    for j in range(mask.bit_length() + 2):
                        parity = bin(mask >> j).count("1") % 2
                        assert (odd >> j) & 1 == parity, (lam, reach, j)

    def test_kernel_matches_the_tuple_kernel_on_signed_sums(self):
        # +-1 and +-2 over every partition of m: hooks from different terms
        # meet, add up, and some cancel to zeros, which both kernels keep;
        # reach 70 makes every mask span several digits of a Python int
        coeffs, zeros = (1, -2, -1, 2), 0
        for m in range(9):
            terms = [(lam, coeffs[i % 4]) for i, lam in enumerate(partitions_of(m))]
            for reach, sizes in ((6, range(1, 7)), (70, (1, 2, 5, 31, 70))):
                views, floor = _bead_masks(terms, reach)
                for n in sizes:
                    by_mask = _signed_hook_masks(views, n)
                    decoded = {_mask_partition(key, floor): c for key, c in by_mask.items()}
                    assert len(decoded) == len(by_mask), (m, reach, n)
                    assert decoded == _signed_rim_hooks(terms, n), (m, reach, n)
                    zeros += list(decoded.values()).count(0)
        assert zeros


class TestPartitionsOf:
    def test_counts_against_recurrence(self):
        expected = [partition_count(n) for n in range(16)]
        assert expected == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176]
        for n in range(16):
            assert len(partitions_of(n)) == expected[n]

    def test_trivial_cases(self):
        assert partitions_of(0) == [()]
        assert len(partitions_of(4)) == 5

    def test_bounded_parts(self):
        for lam in partitions_of(8, max_part=3):
            assert all(p <= 3 for p in lam)
        assert len(partitions_of(8, max_part=3)) == 10

    def test_bounded_parts_with_empty_four_core(self):
        from petrie import k_core

        survivors = [lam for lam in partitions_of(8, max_part=3) if k_core(lam, 4) == ()]
        assert survivors == [
            (3, 3, 2),
            (3, 2, 2, 1),
            (3, 1, 1, 1, 1, 1),
            (2, 2, 2, 2),
            (2, 1, 1, 1, 1, 1, 1),
            (1, 1, 1, 1, 1, 1, 1, 1),
        ]

    def test_canonical_order(self):
        for m in range(12):
            lams = partitions_of(m)
            assert lams == sorted(lams, reverse=True)
            assert len(set(lams)) == len(lams)
