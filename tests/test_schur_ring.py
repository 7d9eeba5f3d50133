import hashlib
import os
from math import comb

import pytest

from helpers import expansion_from_json, reference_mn_product, scanned_petrie_expansion
from petrie import (
    InternalInvariantFailure,
    MalformedPartition,
    PreconditionViolated,
    SchurExpansion,
    SkewShape,
    SmfVerdict,
    add_rim_hooks,
    classify_smf,
    is_signed_multiplicity_free,
    monomial_to_schur,
    multiply_power_sum,
    partitions_of,
    pet_det,
    petrie_schur_expansion,
    petrie_times_power_sum,
    poly_multiply_extract,
    rim_hook_height,
    schur_monomial_vector,
    sweep_smf,
    witness_non_smf,
)
from petrie.oracle import power_sum_monomial_vector
from petrie.partitions import (
    _bead_masks,
    _mask_partition,
    _signed_hook_masks,
    _signed_rim_hooks,
)
from petrie.schur_ring import _forked_map, verify_witness


class TestSchurExpansion:
    def test_drops_zero_coefficients(self):
        f = SchurExpansion(3, {(3,): 1, (2, 1): 0})
        assert len(f) == 1
        assert f.coefficient((2, 1)) == 0

    def test_rejects_mixed_degrees(self):
        with pytest.raises(ValueError):
            SchurExpansion(3, {(3,): 1, (2,): 1})

    def test_rejects_non_partition_keys(self):
        with pytest.raises(MalformedPartition):
            SchurExpansion(3, {(1, 2): 1})

    def test_canonical_item_order(self):
        f = SchurExpansion(4, {(1, 1, 1, 1): 1, (4,): 1, (2, 2): -1})
        assert [lam for lam, _ in f.items()] == [(4,), (2, 2), (1, 1, 1, 1)]

    def test_text_rendering(self):
        f = SchurExpansion(4, {(4,): -1, (2, 2): 2, (2, 1, 1): 1})
        assert f.to_text() == "-s[4] + 2*s[2,2] + s[2,1,1]"
        assert SchurExpansion(5, {}).to_text() == "0"
        assert SchurExpansion(0, {(): 1}).to_text() == "s[]"

    def test_json_round_trip(self):
        f = petrie_schur_expansion(4, 8)
        assert expansion_from_json(f.to_json_dict()) == f


class TestPetrieExpansion:
    def test_degree_8_examples(self):
        assert petrie_schur_expansion(4, 8) == SchurExpansion(
            8,
            {
                (3, 3, 2): 1,
                (3, 2, 2, 1): -1,
                (3, 1, 1, 1, 1, 1): 1,
                (2, 2, 2, 2): 1,
                (2, 1, 1, 1, 1, 1, 1): -1,
                (1, 1, 1, 1, 1, 1, 1, 1): 1,
            },
        )
        assert petrie_schur_expansion(5, 8) == SchurExpansion(
            8,
            {
                (4, 4): 1,
                (3, 3, 1, 1): -1,
                (3, 2, 1, 1, 1): 1,
                (3, 1, 1, 1, 1, 1): -1,
            },
        )

    def test_degree_zero(self):
        for k in (1, 2, 7):
            assert petrie_schur_expansion(k, 0) == SchurExpansion(0, {(): 1})

    def test_elementary_case(self):
        assert petrie_schur_expansion(2, 5) == SchurExpansion(5, {(1, 1, 1, 1, 1): 1})

    def test_complete_homogeneous_case(self):
        assert petrie_schur_expansion(9, 4) == SchurExpansion(4, {(4,): 1})

    def test_k_equals_one_follows_generating_product(self):
        # the k=1 factor is the constant polynomial 1
        assert petrie_schur_expansion(1, 0) == SchurExpansion(0, {(): 1})
        for m in (1, 2, 5):
            assert petrie_schur_expansion(1, m) == SchurExpansion(m, {})

    def test_coefficients_are_petrie_numbers(self):
        for k in range(2, 6):
            for m in range(9):
                f = petrie_schur_expansion(k, m)
                for lam in partitions_of(m):
                    assert f.coefficient(lam) == pet_det(lam, k)

    def test_equals_partition_scan(self):
        # covers k = 1, m = 0 and m < k-1 (a single term s[m])
        for k in range(1, 11):
            for m in range(31):
                assert petrie_schur_expansion(k, m) == scanned_petrie_expansion(k, m), (k, m)

    def test_generated_coefficients_match_determinant(self):
        for k in range(2, 9):
            for m in range(21):
                for lam, coeff in petrie_schur_expansion(k, m).items():
                    assert coeff == pet_det(lam, k), (k, m, lam)

    def test_support_size_is_bead_placement_count(self):
        for k in range(2, 11):
            for m in range(31):
                empty = (k - 1 - m) % k
                levels = (m - (k - 1) + empty) // k
                assert len(petrie_schur_expansion(k, m)) == comb(levels + k - 2, k - 2), (k, m)
        assert len(petrie_schur_expansion(10, 40)) == 495
        assert len(petrie_schur_expansion(12, 60)) == 3003


class TestMultiplyPowerSum:
    def test_two_row_times_p3(self):
        f = SchurExpansion(8, {(4, 4): 1})
        assert multiply_power_sum(f, 3) == SchurExpansion(
            11,
            {
                (7, 4): 1,
                (6, 5): -1,
                (4, 4, 3): 1,
                (4, 4, 2, 1): -1,
                (4, 4, 1, 1, 1): 1,
            },
        )

    def test_unit_times_power_sum_matches_oracle(self):
        for n in range(1, 7):
            product = multiply_power_sum(SchurExpansion(0, {(): 1}), n)
            assert product == monomial_to_schur(power_sum_monomial_vector(n))

    def test_empty_expansion(self):
        assert multiply_power_sum(SchurExpansion(4, {}), 3) == SchurExpansion(7, {})

    def test_degree_shift(self):
        f = petrie_schur_expansion(3, 4)
        assert multiply_power_sum(f, 5).degree == 9

    def test_single_schur_against_oracle(self):
        # Murnaghan-Nakayama signs for every shape of size <= 8, n <= 5
        for m in range(9):
            for lam in partitions_of(m):
                vec = schur_monomial_vector(lam)
                for n in range(1, 6):
                    fast = multiply_power_sum(SchurExpansion(m, {lam: 1}), n)
                    slow = monomial_to_schur(
                        poly_multiply_extract(power_sum_monomial_vector(n), vec)
                    )
                    assert fast == slow, (lam, n)

    def test_petrie_products_match_cell_reference(self):
        for k in range(1, 9):
            for m in range(21):
                f = petrie_schur_expansion(k, m)
                for n in range(1, 11):
                    product = multiply_power_sum(f, n)
                    reference = reference_mn_product(f, n)
                    assert product.items() == reference.items(), (k, m, n)
                    assert all(coeff for _, coeff in product.items())

    def test_single_schur_matches_cell_reference(self):
        for m in range(9):
            for lam in partitions_of(m):
                f = SchurExpansion(m, {lam: 1})
                for n in range(1, 7):
                    reference = reference_mn_product(f, n)
                    assert multiply_power_sum(f, n).items() == reference.items(), (lam, n)

    def test_mask_keys_decode_to_the_tuple_accumulator(self):
        # the sweep's map, keyed by bead masks shared for n <= 8, against the
        # tuple kernel's built for each n alone: every key, cancelled zeros too
        for k in range(2, 8):
            for m in range(15):
                terms = petrie_schur_expansion(k, m).items()
                masks, floor = _bead_masks(terms, 8)
                for n in range(1, 9):
                    by_mask = _signed_hook_masks(masks, n)
                    decoded = {_mask_partition(key, floor): c for key, c in by_mask.items()}
                    assert len(decoded) == len(by_mask), (k, m, n)
                    assert decoded == _signed_rim_hooks(terms, n), (k, m, n)
        # G(3,3)*p_1: both hooks onto [2,1,1] cancel, and the zero stays
        masks, floor = _bead_masks(petrie_schur_expansion(3, 3).items(), 1)
        by_mask = _signed_hook_masks(masks, 1)
        decoded = {_mask_partition(key, floor): c for key, c in by_mask.items()}
        assert decoded == {(3, 1): 1, (2, 2): 1, (2, 1, 1): 0, (1, 1, 1, 1): -1}

    def test_cancelled_terms_are_not_stored(self):
        # s[2]*p_2 = s[4] + s[2,2] - s[2,1,1]; s[1,1]*p_2 = s[3,1] - s[2,2] - s[1,1,1,1]
        product = multiply_power_sum(SchurExpansion(2, {(2,): 1, (1, 1): 1}), 2)
        assert product.items() == [
            ((4,), 1),
            ((3, 1), 1),
            ((2, 1, 1), -1),
            ((1, 1, 1, 1), -1),
        ]
        # G(3,3)*p_1 = (s[2,1] - s[1,1,1])*p_1: both terms reach [2,1,1] and cancel
        f = petrie_times_power_sum(3, 3, 1)
        assert (2, 1, 1) not in f.support()
        assert f.items() == [((3, 1), 1), ((2, 2), 1), ((1, 1, 1, 1), -1)]


class TestPetrieTimesPowerSum:
    def test_degree_five_products(self):
        assert petrie_times_power_sum(3, 5, 2) == SchurExpansion(
            7,
            {
                (4, 2, 1): 1,
                (4, 1, 1, 1): -1,
                (3, 3, 1): -1,
                (2, 2, 2, 1): 1,
                (2, 2, 1, 1, 1): -1,
                (2, 1, 1, 1, 1, 1): 1,
            },
        )
        f = petrie_times_power_sum(3, 5, 3)
        assert f.coefficient((2, 2, 2, 2)) == -2
        assert f == SchurExpansion(
            8,
            {
                (5, 2, 1): 1,
                (5, 1, 1, 1): -1,
                (4, 3, 1): -1,
                (3, 3, 1, 1): 1,
                (2, 2, 2, 2): -2,
                (2, 2, 1, 1, 1, 1): 1,
                (2, 1, 1, 1, 1, 1, 1): -1,
            },
        )

    def test_cancellation_in_degree_11(self):
        f = petrie_times_power_sum(5, 8, 3)
        assert len(f) == 16
        assert f.coefficient((4, 4, 1, 1, 1)) == 0


class TestSmfVerdict:
    def test_flagged_expansion(self):
        verdict = is_signed_multiplicity_free(petrie_times_power_sum(3, 5, 3))
        assert not verdict.signed_multiplicity_free
        assert verdict.offending == ((2, 2, 2, 2), -2)

    def test_clean_expansion(self):
        assert is_signed_multiplicity_free(petrie_times_power_sum(3, 5, 2)).signed_multiplicity_free

    def test_empty_expansion(self):
        assert is_signed_multiplicity_free(SchurExpansion(3, {})).signed_multiplicity_free

    def test_offending_is_first_large_term_in_canonical_order(self):
        # the sweep reads its verdicts from accumulators, which keep cancelled
        # terms: in G(3,3) * p_1 the two hooks onto [2,1,1] cancel
        acc = _signed_rim_hooks(petrie_schur_expansion(3, 3).items(), 1)
        assert acc[(2, 1, 1)] == 0
        report = sweep_smf(6, 12, 8)
        entries = {(e.k, e.m, e.n): (e.offending, e.coeff) for e in report.non_smf}
        assert entries
        for k in range(1, 7):
            for m in range(13):
                for n in range(1, 9):
                    product = petrie_times_power_sum(k, m, n)
                    large = [(lam, c) for lam, c in product.items() if abs(c) >= 2]
                    first = large[0] if large else None
                    assert is_signed_multiplicity_free(product).offending == first
                    assert entries.get((k, m, n)) == first, (k, m, n)


class TestClassify:
    @pytest.mark.parametrize(
        "k,m,n,expected",
        [
            (3, 5, 3, False),
            (3, 5, 2, True),
            (2, 9, 4, True),
            (2, 100, 6, True),
            (4, 3, 4, True),
            (3, 3, 3, False),
            (4, 8, 4, False),
            (1, 10, 7, True),
        ],
    )
    def test_closed_form(self, k, m, n, expected):
        assert classify_smf(k, m, n) is expected

    def test_matches_expansion_on_grid(self):
        for k in range(1, 5):
            for m in range(9):
                for n in range(1, 7):
                    observed = is_signed_multiplicity_free(
                        petrie_times_power_sum(k, m, n)
                    ).signed_multiplicity_free
                    assert observed == classify_smf(k, m, n)


class TestWitness:
    def test_worked_collision(self):
        lam, mu, lam_plus = witness_non_smf(3, 5, 3)
        assert {lam, mu} == {(2, 2, 1), (2, 1, 1, 1)}
        assert lam_plus == (2, 2, 2, 2)

    def test_zero_remainder_even_case(self):
        lam, mu, lam_plus = witness_non_smf(3, 3, 3)
        assert lam_plus == (2, 2, 2)
        coeff = petrie_times_power_sum(3, 3, 3).coefficient(lam_plus)
        assert abs(coeff) >= 2

    def test_odd_case_with_zero_remainder(self):
        lam, mu, lam_plus = witness_non_smf(4, 8, 4)
        assert lam == (1, 1, 1, 1, 1, 1, 1, 1)
        assert mu == (2, 2, 2, 2)
        assert lam_plus == (2, 2, 2, 2, 1, 1, 1, 1)
        assert pet_det(lam, 4) != 0 and pet_det(mu, 4) != 0

    def test_rejected_in_smf_region(self):
        with pytest.raises(PreconditionViolated):
            witness_non_smf(3, 5, 2)
        with pytest.raises(PreconditionViolated):
            witness_non_smf(2, 9, 4)

    def test_every_non_smf_triple_up_to_bounds(self):
        for k in range(3, 6):
            for m in range(11):
                for n in range(1, 9):
                    if classify_smf(k, m, n):
                        continue
                    lam, mu, lam_plus = witness_non_smf(k, m, n)
                    coeff = petrie_times_power_sum(k, m, n).coefficient(lam_plus)
                    assert abs(coeff) >= 2, (k, m, n)

    def test_every_witness_on_the_witness_grid_verifies(self):
        # witness_non_smf verifies each witness (pet_det of both partitions,
        # both rim hooks, reinforcing signs) and raises if one fails.
        triples = [
            (k, m, n)
            for k in range(1, 13)
            for m in range(61)
            for n in range(1, 25)
            if not classify_smf(k, m, n)
        ]
        assert len(triples) == 1678
        for triple in triples:
            witness_non_smf(*triple)

    def test_witnesses_pinned_on_a_grid(self):
        # Every witness for k <= 10, m <= 40, n <= 16, hashed; the grid hits
        # each case of the table, with d = 1 and without, at least 21 times.
        triples = [
            (k, m, n)
            for k in range(1, 11)
            for m in range(41)
            for n in range(1, 17)
            if not classify_smf(k, m, n)
        ]
        listing = repr([(triple, witness_non_smf(*triple)) for triple in triples])
        assert len(triples) == 623
        assert hashlib.sha256(listing.encode()).hexdigest() == (
            "08b9111ca82f1f605781a832adb6160eae50e54180acc76e17a06eceff169b9f"
        )

    def test_verify_rejects_bad_triples(self):
        with pytest.raises(InternalInvariantFailure):
            verify_witness(3, 3, (2, 2, 1), (2, 2, 1), (2, 2, 2, 2))
        with pytest.raises(InternalInvariantFailure):
            verify_witness(3, 3, (3, 1, 1), (2, 2, 1), (2, 2, 2, 2))
        lam, mu, lam_plus = witness_non_smf(3, 5, 3)
        assert (lam, mu, lam_plus) == ((2, 1, 1, 1), (2, 2, 1), (2, 2, 2, 2))
        with pytest.raises(InternalInvariantFailure, match=r"^\(2, 1, 1, 1\) not contained in \(2, 2, 1\)$"):
            verify_witness(3, 3, lam, mu, mu)
        for size, big in ((6, lam_plus), (3, (3, 2, 1, 1, 1))):
            with pytest.raises(InternalInvariantFailure, match=f"is not a rim hook of size {size}$"):
                verify_witness(3, size, lam, mu, big)


class TestSweep:
    def test_small_grid_is_clean(self):
        report = sweep_smf(2, 10, 6)
        assert report.disagreements == ()
        assert report.non_smf == ()

    def test_flagged_triple_present(self):
        report = sweep_smf(3, 5, 3)
        assert report.disagreements == ()
        flagged = {(e.k, e.m, e.n) for e in report.non_smf}
        assert (3, 5, 3) in flagged

    def test_trivial_bounds(self):
        report = sweep_smf(1, 1, 1)
        assert report.triples == 2  # m in {0, 1}
        assert report.disagreements == ()

    def test_parallel_equals_sequential(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert sweep_smf(4, 6, 4, jobs=2) == sweep_smf(4, 6, 4)

    @staticmethod
    def _count_forks(monkeypatch, cpus):
        """Pretend the machine has ``cpus`` CPUs; the list gains one entry
        per ``os.fork``."""
        forks = []
        fork = os.fork

        def counted():
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(os, "fork", counted)
        return forks

    def test_pool_never_outnumbers_the_pairs(self, monkeypatch):
        forks = self._count_forks(monkeypatch, 64)
        assert sweep_smf(1, 1, 1, jobs=64) == sweep_smf(1, 1, 1)
        assert len(forks) == 1  # two pairs: the caller and one child

    def test_pool_never_outnumbers_the_cpus(self, monkeypatch):
        forks = self._count_forks(monkeypatch, 3)
        assert sweep_smf(2, 5, 1, jobs=64) == sweep_smf(2, 5, 1, jobs=1)
        assert len(forks) == 2  # three CPUs: the caller and two children
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one CPU, no fork
        assert sweep_smf(2, 5, 1, jobs=64) == sweep_smf(2, 5, 1, jobs=1)
        assert len(forks) == 2

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        import petrie.schur_ring as sr

        build = sr.grinberg_masks

        def failing(k, m, reach):
            if (k, m) == (2, 3):
                raise InternalInvariantFailure("injected")
            return build(k, m, reach)

        monkeypatch.setattr(sr, "grinberg_masks", failing)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.raises(InternalInvariantFailure, match="injected"):
            sweep_smf(3, 4, 2, jobs=2)
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_worker_that_dies_is_reported(self, monkeypatch):
        import petrie.schur_ring as sr

        caller, build = os.getpid(), sr.grinberg_masks

        def dying(k, m, reach):
            if os.getpid() != caller:  # the caller's own share must not end the run
                os._exit(3)
            return build(k, m, reach)

        monkeypatch.setattr(sr, "grinberg_masks", dying)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)  # else a lone CPU runs it here
        with pytest.raises(ChildProcessError, match="status 3"):
            sweep_smf(2, 3, 2, jobs=3)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_caller_share_exception_waits_for_every_child(self):
        caller = os.getpid()

        def task(item):
            if os.getpid() == caller:
                raise InternalInvariantFailure("caller share")
            return item

        with pytest.raises(InternalInvariantFailure, match="caller share"):
            _forked_map(task, list(range(7)), 3)
        with pytest.raises(ChildProcessError):  # every child was reaped first
            os.waitpid(-1, os.WNOHANG)

    def test_unmarshallable_child_result_is_raised_after_every_child_is_reaped(self):
        # a child's results go back as marshal bytes, which refuse a NamedTuple;
        # the caller's own share is returned as built and is not the one refused
        with pytest.raises(ValueError, match="unmarshallable"):
            _forked_map(lambda item: SmfVerdict(True, (item,)), list(range(7)), 3)
        with pytest.raises(ChildProcessError):  # every child was reaped first
            os.waitpid(-1, os.WNOHANG)

    def test_pool_returns_items_in_order(self):
        # worker i takes items i, i+3, ...; the caller is worker 0
        results = _forked_map(lambda item: (item, os.getpid()), list(range(7)), 3)
        assert [item for item, _ in results] == list(range(7))
        pids = [pid for _, pid in results]
        assert pids[0::3] == [os.getpid()] * 3
        assert pids[1] == pids[4] and pids[2] == pids[5]
        assert len(set(pids)) == 3

    def test_jobs_need_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        with pytest.raises(PreconditionViolated):
            sweep_smf(2, 3, 2, jobs=2)
        assert sweep_smf(2, 3, 2, jobs=1).disagreements == ()

    def test_expansion_built_once_per_k_and_m(self, monkeypatch):
        import petrie.schur_ring as sr

        calls = []
        build = sr.grinberg_masks

        def counted(k, m, reach):
            calls.append((k, m))
            return build(k, m, reach)

        monkeypatch.setattr(sr, "grinberg_masks", counted)
        report = sweep_smf(4, 6, 5)
        assert report.triples == 4 * 7 * 5
        assert len(calls) == 4 * (6 + 1)
        assert len(set(calls)) == len(calls)

    def test_wide_grid_is_clean(self):
        report = sweep_smf(7, 12, 8)
        assert report.disagreements == ()
        assert report.max_abs_coeff >= 2

    def test_report_renders(self):
        report = sweep_smf(3, 5, 3)
        text = report.to_text()
        assert "0 disagreements" in text
        assert "non-smf k=3 m=5 n=3" in text
        payload = report.to_json_dict()
        assert payload["disagreements"] == []


class TestSameTargetContributions:
    def _sources(self, k, m, n):
        """Group the expansion's hook additions by target partition."""
        support = {
            lam: pet_det(lam, k)
            for lam in partitions_of(m, max_part=k - 1)
            if pet_det(lam, k) != 0
        }
        targets = {}
        for lam, pet in support.items():
            for big in add_rim_hooks(lam, n):
                targets.setdefault(big, []).append((lam, pet))
        return targets

    def test_tall_first_part_has_unique_source(self):
        for k in range(2, 6):
            for m in range(9):
                for n in range(1, 6):
                    for big, sources in self._sources(k, m, n).items():
                        if big[0] >= k:
                            assert len(sources) == 1, (k, m, n, big)

    def test_pair_ratio_depends_on_divisibility(self):
        for k in range(3, 6):
            for m in range(9):
                for n in range(1, 7):
                    for big, sources in self._sources(k, m, n).items():
                        if big[0] >= k or len(sources) < 2:
                            continue
                        signed = [
                            (-1 if rim_hook_height(SkewShape(big, lam)) % 2 else 1) * pet
                            for lam, pet in sources
                        ]
                        if n % k == 0:
                            assert len(set(signed)) == 1, (k, m, n, big)
                        else:
                            assert sum(signed) == 0 and len(sources) == 2, (k, m, n, big)
