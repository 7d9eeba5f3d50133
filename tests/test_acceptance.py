"""Acceptance suite: one test per criterion, each timed against its budget.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines.
"""

import time
from contextlib import contextmanager
from pathlib import Path

from helpers import addition_shift, removal_shift, run_cli
from petrie import (
    SchurExpansion,
    SkewShape,
    add_rim_hooks,
    monomial_to_schur,
    partitions_of,
    pet_det,
    pet_generalized,
    pet_grinberg,
    pet_rimhook,
    petrie_monomial_vector,
    petrie_schur_expansion,
    petrie_times_power_sum,
    poly_multiply_extract,
    remove_rim_hooks,
    rim_hook_height,
    transition_matrix,
)
from petrie.oracle import power_sum_monomial_vector

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget_seconds else "FAIL (over budget)"
    print(f"[criterion {number}] {name}: {status} ({elapsed:.2f}s < {budget_seconds:.0f}s)")
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s"


def test_criterion_1_golden_expansions():
    cases = [
        ("expand_4_8.txt", ["expand", "4", "8", "--text"]),
        ("expand_5_8.txt", ["expand", "5", "8", "--text"]),
        ("multiply_3_5_2.txt", ["multiply", "3", "5", "2", "--text"]),
        ("multiply_3_5_3.txt", ["multiply", "3", "5", "3", "--text"]),
        ("multiply_5_8_3.txt", ["multiply", "5", "8", "3", "--text"]),
    ]
    with criterion(1, "golden expansions byte-match", 1.0):
        for filename, argv in cases:
            code, out, err = run_cli(argv)
            assert code == 0, err
            assert out == (GOLDEN / filename).read_text(), filename


def test_criterion_2_evaluator_agreement():
    with criterion(2, "four Petrie evaluators agree (m<=12, k<=7)", 30.0):
        for k in range(1, 8):
            for m in range(13):
                for lam in partitions_of(m):
                    a = pet_det(lam, k)
                    assert a == pet_grinberg(lam, k), (lam, k)
                    assert a == pet_rimhook(lam, k), (lam, k)
                    assert a == pet_generalized(lam, (), k), (lam, k)


def test_criterion_3_smf_sweep():
    with criterion(3, "classification sweep 6/12/8 with verified witnesses", 300.0):
        code, out, err = run_cli(["sweep", "6", "12", "8", "--text"])
        assert code == 0, err
        assert "0 disagreements" in out
        # witnesses were verified inside sweep_smf; spot-check the count
        assert "non-smf triples:" in out


def test_criterion_4_oracle_equivalence():
    with criterion(4, "oracle reproduces expansions and products", 180.0):
        for k in range(1, 7):
            for m in range(11):
                assert monomial_to_schur(
                    petrie_monomial_vector(k, m)
                ) == petrie_schur_expansion(k, m), (k, m)
        for k in range(1, 6):
            for m in range(9):
                vec = petrie_monomial_vector(k, m)
                for n in range(1, 6):
                    product = poly_multiply_extract(power_sum_monomial_vector(n), vec)
                    assert monomial_to_schur(product) == petrie_times_power_sum(
                        k, m, n
                    ), (k, m, n)


def test_criterion_5_liu_polo_identities():
    with criterion(5, "alternating hook expansions for k in 2..10", 5.0):
        for k in range(2, 11):
            expected_low = SchurExpansion(
                k,
                {(k - 1 - i,) + (1,) * (i + 1): (-1) ** i for i in range(k - 1)},
            )
            expected_high = SchurExpansion(
                2 * k - 1,
                {(k - 1, k - 1 - i) + (1,) * (i + 1): (-1) ** i for i in range(k - 1)},
            )
            assert petrie_schur_expansion(k, k) == expected_low, k
            assert petrie_schur_expansion(k, 2 * k - 1) == expected_high, k


BLOCK_ORDER = [(4,), (2, 2), (1, 1, 1, 1), (3, 1), (2, 1, 1)]
BLOCK_ENTRIES = [
    [0, 1, -1, 0, 0],
    [1, 0, 1, 0, 0],
    [-1, 1, 0, 0, 0],
    [0, 0, 0, 1, 0],
    [0, 0, 0, 0, 1],
]


def test_criterion_6_transition_matrices():
    with criterion(6, "degree-4 matrix entries and block property k<=5 m<=9", 120.0):
        matrix = transition_matrix(3, 4)
        for i, lam in enumerate(BLOCK_ORDER):
            for j, mu in enumerate(BLOCK_ORDER):
                assert matrix.entry(lam, mu) == BLOCK_ENTRIES[i][j], (lam, mu)
        # BlockViolation is raised inside transition_matrix if any entry
        # crosses cores, so building every matrix is the check
        for k in range(1, 6):
            for m in range(10):
                transition_matrix(k, m)


def test_criterion_7_gamma_shift_laws():
    with criterion(7, "removal parity and addition cycle laws (k<=5, |lam|<=8, n<=6)", 60.0):
        for k in range(2, 6):
            for m in range(9):
                for lam in partitions_of(m, max_part=k - 1):
                    # removal side: the beta pattern and the parity law
                    for mu in remove_rim_hooks(lam, k):
                        _, _, parity, height = removal_shift(lam, mu, k)
                        assert parity == (k + height + 1) % 2
                    # addition side: inserted beta entry and new gamma value
                    for n in range(1, 7):
                        for big in add_rim_hooks(lam, n):
                            if big[0] < k:
                                addition_shift(lam, big, k, n)


def test_criterion_8_collision_structure():
    with criterion(8, "unique tall targets and paired short targets (k<=6, m<=10, n<=6)", 120.0):
        for k in range(1, 7):
            for m in range(11):
                support = {
                    lam: pet_det(lam, k)
                    for lam in partitions_of(m, max_part=k - 1)
                    if pet_det(lam, k) != 0
                }
                for n in range(1, 7):
                    targets: dict = {}
                    for lam, pet in support.items():
                        for big in add_rim_hooks(lam, n):
                            targets.setdefault(big, []).append((lam, pet))
                    for big, sources in targets.items():
                        if big[0] >= k:
                            assert len(sources) == 1, (k, m, n, big)
                        elif k >= 3 and len(sources) >= 2:
                            signed = [
                                (-1 if rim_hook_height(SkewShape(big, lam)) % 2 else 1) * pet
                                for lam, pet in sources
                            ]
                            if n % k == 0:
                                assert len(set(signed)) == 1, (k, m, n, big)
                            else:
                                assert len(sources) == 2 and sum(signed) == 0, (
                                    k,
                                    m,
                                    n,
                                    big,
                                )
