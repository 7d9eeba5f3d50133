import random

from helpers import det_over_oracle

from petrie import (
    SchurExpansion,
    k_core,
    modular_schur_expansion,
    partitions_of,
    petrie_schur_expansion,
    transition_matrix,
)

# degree-4 matrix in block-grouped index order {(4),(2,2),(1^4),(3,1),(2,1,1)}
BLOCK_ORDER = [(4,), (2, 2), (1, 1, 1, 1), (3, 1), (2, 1, 1)]
BLOCK_ENTRIES = [
    [0, 1, -1, 0, 0],
    [1, 0, 1, 0, 0],
    [-1, 1, 0, 0, 0],
    [0, 0, 0, 1, 0],
    [0, 0, 0, 0, 1],
]


class TestModularSchurExpansion:
    def test_degree_four_rows(self):
        assert modular_schur_expansion(3, (4,)) == SchurExpansion(
            4, {(2, 2): 1, (1, 1, 1, 1): -1}
        )
        assert modular_schur_expansion(3, (2, 2)) == SchurExpansion(
            4, {(4,): 1, (1, 1, 1, 1): 1}
        )
        assert modular_schur_expansion(3, (3, 1)) == SchurExpansion(4, {(3, 1): 1})

    def test_empty_partition(self):
        assert modular_schur_expansion(3, ()) == SchurExpansion(0, {(): 1})

    def test_single_row_is_petrie_expansion(self):
        # The power-sum route never uses Grinberg's sign, so this row is an
        # independent check of G(k, m).
        for k in range(1, 9):
            for m in range(17):
                assert modular_schur_expansion(k, (m,)) == petrie_schur_expansion(k, m)

    def test_single_row_coefficients_are_signs(self):
        for k in range(1, 6):
            for m in range(9):
                for _, coeff in modular_schur_expansion(k, (m,) if m else ()).items():
                    assert coeff in (-1, 1)

    def test_padding_with_zero_parts_is_invariant(self):
        rng = random.Random(97)
        cases = 0
        while cases < 30:
            m = rng.randint(0, 7)
            k = rng.randint(1, 5)
            lam = rng.choice(partitions_of(m))
            pad = rng.randint(1, 3)
            base = det_over_oracle(k, lam)
            padded = det_over_oracle(k, lam + (0,) * pad)
            assert base == padded, (k, lam, pad)
            cases += 1


class TestTransitionMatrix:
    def test_degree_four_block_grid(self):
        matrix = transition_matrix(3, 4)
        for i, lam in enumerate(BLOCK_ORDER):
            for j, mu in enumerate(BLOCK_ORDER):
                assert matrix.entry(lam, mu) == BLOCK_ENTRIES[i][j]
        assert matrix.blocks == {
            (1,): (0, 2, 4),
            (3, 1): (1,),
            (2, 1, 1): (3,),
        }

    def test_degree_zero_identity(self):
        matrix = transition_matrix(4, 0)
        assert matrix.order == ((),)
        assert matrix.entries == ((1,),)

    def test_degree_three_blocks_by_two_core(self):
        matrix = transition_matrix(2, 3)
        assert matrix.order == ((3,), (2, 1), (1, 1, 1))
        assert matrix.blocks == {(1,): (0, 2), (2, 1): (1,)}
        for lam in matrix.order:
            row = det_over_oracle(2, lam)
            for mu in matrix.order:
                assert matrix.entry(lam, mu) == row.coefficient(mu)

    def test_rows_match_determinant_over_oracle(self):
        for k in range(1, 6):
            for m in range(10):
                matrix = transition_matrix(k, m)
                for lam, row in zip(matrix.order, matrix.entries):
                    expected = det_over_oracle(k, lam)
                    assert row == tuple(expected.coefficient(mu) for mu in matrix.order)

    def test_first_row_consistency(self):
        for k in range(1, 5):
            for m in range(8):
                matrix = transition_matrix(k, m)
                expansion = petrie_schur_expansion(k, m)
                row_lam = (m,) if m else ()
                for mu in matrix.order:
                    assert matrix.entry(row_lam, mu) == expansion.coefficient(mu)

    def test_block_property_small(self):
        for k in range(1, 5):
            for m in range(8):
                matrix = transition_matrix(k, m)
                cores = {lam: k_core(lam, k) for lam in matrix.order}
                for i, lam in enumerate(matrix.order):
                    for j, mu in enumerate(matrix.order):
                        if matrix.entries[i][j]:
                            assert cores[lam] == cores[mu]

    def test_json_round_trip(self):
        import json

        matrix = transition_matrix(3, 4)
        payload = json.loads(json.dumps(matrix.to_json_dict()))
        assert payload["entries"] == [list(row) for row in matrix.entries]
        assert payload["blocks"]["[1]"] == [0, 2, 4]

    def test_text_groups_blocks(self):
        text = transition_matrix(3, 4).to_text()
        assert "index: [4] [2,2] [1,1,1,1] [3,1] [2,1,1]" in text
        assert text.count("|") > 0
