import pytest
from hypothesis import given, settings

from helpers import (
    addition_shift,
    exhaustive_removal_ends,
    largest_bead_chain,
    partitions_strategy,
    removal_shift,
)
from petrie import (
    SkewShape,
    TooManyParts,
    add_rim_hooks,
    conjugate,
    gammas_distinct,
    is_rim_hook,
    k_core,
    ninv,
    partitions_of,
    profile,
    remove_rim_hooks,
    rim_hook_sequence,
)


class TestProfile:
    def test_worked_example_k6(self):
        p = profile((7, 4, 2, 1), 6)
        assert p.beta == (6, 2, -1, -3, -5)
        assert p.gamma == (6, 2, 5, 3, 1)
        assert p.beta_numbers == (11, 7, 4, 2, 0)
        # bead layout of the six-runner abacus figure
        assert p.runners() == ((2, 5), (2, 1), (1, 4), (1, 2), (1, 0))

    def test_empty_partition(self):
        p = profile((), 4)
        assert p.beta == (-1, -2, -3)
        assert p.gamma == (3, 2, 1)
        assert p.beta_numbers == (2, 1, 0)

    def test_two_row_example(self):
        p = profile((7, 1), 6)
        assert p.beta == (6, -1, -3, -4, -5)
        assert p.gamma == (6, 5, 3, 2, 1)

    def test_too_many_parts(self):
        with pytest.raises(TooManyParts):
            profile((3, 2, 2), 3)
        with pytest.raises(TooManyParts):
            profile((1, 1, 1, 1), 4)

    def test_gamma_matches_runner_label(self):
        for m in range(9):
            for k in range(2, 7):
                for lam in partitions_of(m):
                    if len(lam) >= k:
                        continue
                    p = profile(lam, k)
                    for g, (row, col) in zip(p.gamma, p.runners()):
                        assert col == g - 1

    @given(partitions_strategy(max_size=6, max_part=9))
    @settings(derandomize=True)
    def test_bead_count_law(self, lam):
        k = len(lam) + 2
        p = profile(lam, k)
        beads = p.beta_numbers
        assert len(beads) == k - 1
        assert len(set(beads)) == k - 1
        top = k - 2 + (lam[0] if lam else 0)
        assert all(0 <= b <= top for b in beads)


class TestNinv:
    def test_worked_values(self):
        assert ninv((6, 2, 5, 3, 1)) == 2
        assert ninv((6, 5, 3, 2, 1)) == 0
        assert ninv((5, 4, 3, 2, 1)) == 0
        assert ninv((2, 6, 5, 3, 1)) == 3


class TestGammasDistinct:
    def test_distinct_case(self):
        assert gammas_distinct(profile((7, 4, 2, 1), 6))

    def test_colliding_case(self):
        # (2,2,1,1) is its own 3-core (no size-3 hook is removable), so the
        # gamma values of its conjugate (4,2) must collide
        lam = (2, 2, 1, 1)
        assert remove_rim_hooks(lam, 3) == []
        assert not gammas_distinct(profile(conjugate(lam), 3))

    def test_empty(self):
        assert gammas_distinct(profile((), 5))

    def test_characterizes_small_core(self):
        # distinct gammas <=> the k-core has at most one part
        for k in range(2, 8):
            for m in range(13):
                for lam in partitions_of(m, max_part=k - 1):
                    distinct = gammas_distinct(profile(conjugate(lam), k))
                    assert distinct == (len(k_core(lam, k)) <= 1)

    def test_underlying_set_law(self):
        for k in range(2, 7):
            for m in range(11):
                for lam in partitions_of(m, max_part=k - 1):
                    p = profile(conjugate(lam), k)
                    if gammas_distinct(p):
                        d = m % k
                        assert set(p.gamma) == set(range(1, k + 1)) - {k - d}


class TestKCore:
    def test_worked_examples(self):
        assert k_core((3, 3, 2), 4) == ()
        assert k_core((4,), 3) == (1,)
        assert k_core((2, 1, 1), 3) == (2, 1, 1)

    def test_k_equals_one(self):
        assert k_core((5, 3, 1), 1) == ()
        assert k_core((), 1) == ()

    def test_size_congruence(self):
        for k in range(1, 7):
            for m in range(12):
                for lam in partitions_of(m):
                    assert (m - sum(k_core(lam, k))) % k == 0

    def test_order_independence_exhaustive(self):
        # every maximal removal order ends at the same abacus-computed core
        for k in range(1, 7):
            for m in range(13):
                for lam in partitions_of(m):
                    ends = exhaustive_removal_ends(lam, k)
                    assert ends == frozenset({k_core(lam, k)})

    def test_no_removable_hook_left(self):
        for k in range(2, 6):
            for m in range(11):
                for lam in partitions_of(m):
                    assert remove_rim_hooks(k_core(lam, k), k) == []


class TestRimHookSequence:
    def test_chain_for_fig1_partition(self):
        seq = rim_hook_sequence((3, 3, 2), 4)
        assert seq.chain[0] == ()
        assert seq.chain[-1] == (3, 3, 2)
        assert seq.steps == 2
        assert seq.sign() == 1  # matches the +1 coefficient on s[3,3,2]

    def test_singleton_chain_on_core(self):
        seq = rim_hook_sequence((2, 1, 1), 3)
        assert seq.chain == ((2, 1, 1),)
        assert seq.sign() == 1

    def test_column_partition_heights(self):
        seq = rim_hook_sequence((1,) * 8, 4)
        assert len(seq.chain) == 3
        assert sum(seq.heights()) + 2 == 8

    def test_chain_is_valid_everywhere(self):
        for k in range(2, 6):
            for m in range(11):
                for lam in partitions_of(m):
                    seq = rim_hook_sequence(lam, k)
                    core = k_core(lam, k)
                    assert seq.chain[0] == core
                    assert seq.chain[-1] == lam
                    assert seq.steps == (m - sum(core)) // k
                    for j in range(seq.steps):
                        shape = SkewShape(seq.chain[j + 1], seq.chain[j])
                        assert shape.size == k
                        assert is_rim_hook(shape)

    def test_chain_moves_the_largest_movable_bead(self):
        for k in range(2, 8):
            for m in range(13):
                for lam in partitions_of(m):
                    assert rim_hook_sequence(lam, k).chain == largest_bead_chain(lam, k)


class TestGammaShift:
    def test_three_column_removal(self):
        position, cycle_length, parity, height = removal_shift(
            (4, 3, 2, 2, 1, 1, 1), (2, 1, 1, 1, 1, 1, 1), 6
        )
        assert cycle_length == 3
        assert height == 3
        assert position == 2
        assert parity == (6 + 3 + 1) % 2 == 0

    def test_two_column_removal(self):
        position, cycle_length, parity, height = removal_shift(
            (4, 3, 2, 2, 1, 1, 1), (4, 3, 1), 6
        )
        assert cycle_length == 2
        assert height == 4
        assert position == 1
        assert parity == (6 + 4 + 1) % 2 == 1

    def test_whole_partition_hooks(self):
        # smallest shapes where the hook is the entire diagram
        _, _, parity, height = removal_shift((1, 1), (), 2)
        assert height == 1
        assert parity == (2 + 1 + 1) % 2 == 0
        _, _, parity, height = removal_shift((2, 1), (), 3)
        assert height == 1
        assert parity == (3 + 1 + 1) % 2 == 1

    def test_ninv_deltas_from_worked_example(self):
        lam = (4, 3, 2, 2, 1, 1, 1)
        base = ninv(profile(conjugate(lam), 6).gamma)
        assert base == 2
        assert ninv(profile(conjugate((2, 1, 1, 1, 1, 1, 1)), 6).gamma) == base - 2
        assert ninv(profile(conjugate((4, 3, 1)), 6).gamma) == base + 1

    def test_parity_law_exhaustive(self):
        # removal_shift asserts the beta pattern and the parity law itself
        for k in range(2, 6):
            for m in range(k, 10):
                for lam in partitions_of(m, max_part=k - 1):
                    for mu in remove_rim_hooks(lam, k):
                        _, _, parity, height = removal_shift(lam, mu, k)
                        assert parity == (k + height + 1) % 2


class TestAdditionShift:
    def test_cycle_pattern_exhaustive(self):
        # growing by a size-n hook inserts beta[j+a-1]+n at slot j and keeps
        # everything else; the new gamma entry is the mod-k shift of the old
        # (addition_shift asserts both)
        for k in range(2, 6):
            for m in range(0, 9):
                for n in range(1, 7):
                    for lam in partitions_of(m, max_part=k - 1):
                        for big in add_rim_hooks(lam, n):
                            if big[0] < k:
                                addition_shift(lam, big, k, n)
