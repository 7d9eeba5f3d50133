"""Independent checks of op results, run once per seed outside the timed region.

Each check recomputes the result, or properties that pin it down, by a route
other than the one the op took:

- ``multiply`` (fast path): every coefficient of G(k, m) * p_n is recomputed
  by removing size-n rim hooks from its partition (bead moves on beta-sets,
  combinat.py) and summing ``pet_det`` over what is left.  Terms missing
  from the output are caught by the principal specialisation
  sum_mu c_mu s_mu(1^N) = N * [t^m] (1 + t + ... + t^(k-1))^N at three N.
- ``multiply --verify``: the oracle agreed (the CLI exits 3 when it does not).
- ``sweep``: no disagreements; the non-SMF triples are exactly the ones of
  the closed form; every witness is two partitions with nonzero ``pet_det``
  that both grow to ``lambda_plus`` by a size-n rim hook with reinforcing
  signs.
- ``transition``: the CLI returned (``transition_matrix`` raises
  ``BlockViolation`` otherwise); the index set is every partition of m; the
  blocks are the k-cores (combinat.py) and no nonzero entry crosses two.
- ``p_n * s_lam`` through the oracle: equal to the fast-path
  Murnaghan-Nakayama product.

``petrie`` must be importable.  Every check returns None or a message.
"""

from __future__ import annotations

from functools import lru_cache

import petrie
from combinat import k_core, partitions, remove_hooks


def schur_at_ones(mu: tuple[int, ...], nvars: int) -> int:
    """s_mu(1, ..., 1) with nvars ones, by the hook-content formula."""
    conj = [sum(1 for p in mu if p > j) for j in range(mu[0])] if mu else []
    num = den = 1
    for i, row in enumerate(mu):
        for j in range(row):
            num *= nvars + j - i
            den *= (row - j) + (conj[j] - i) - 1
    return num // den


def petrie_at_ones(k: int, m: int, nvars: int) -> int:
    """G(k, m)(1, ..., 1): the coefficient of t^m in (1 + ... + t^(k-1))^nvars."""
    poly = [1] + [0] * m
    for _ in range(nvars):
        poly = [sum(poly[d - e] for e in range(min(k - 1, d) + 1)) for d in range(m + 1)]
    return poly[m]


def _terms(result) -> dict[tuple[int, ...], int]:
    return {tuple(t["partition"]): t["coeff"] for t in result["terms"]}


def check_product(k: int, m: int, n: int, result) -> str | None:
    """G(k, m) * p_n, recomputed term by term and specialised at three N."""
    if result["degree"] != m + n:
        return f"degree {result['degree']} != {m + n}"
    terms = _terms(result)

    @lru_cache(maxsize=None)
    def pet(lam):
        # The first row of the 0/1 matrix is zero when lam_1 >= k.
        return 0 if lam and lam[0] >= k else petrie.pet_det(lam, k)

    for mu, coeff in terms.items():
        expected = sum(sign * pet(lam) for lam, sign in remove_hooks(mu, n))
        if expected != coeff:
            return f"coefficient of {list(mu)} is {coeff}, rim-hook removal gives {expected}"
    for nvars in (m + n, m + n + 1, m + n + 2):
        total = sum(coeff * schur_at_ones(mu, nvars) for mu, coeff in terms.items())
        if total != nvars * petrie_at_ones(k, m, nvars):
            return f"specialisation at {nvars} ones disagrees: a term is missing or extra"
    return None


def check_witness(k: int, n: int, witness) -> str | None:
    lam, mu, lam_plus = (tuple(witness[key]) for key in ("lambda", "mu", "lambda_plus"))
    if lam == mu:
        return f"witness partitions coincide: {list(lam)}"
    signs = dict(remove_hooks(lam_plus, n))
    if lam not in signs or mu not in signs:
        return f"{list(lam_plus)} is not {list(lam)} and {list(mu)} plus a size-{n} rim hook"
    pet_lam, pet_mu = petrie.pet_det(lam, k), petrie.pet_det(mu, k)
    if not pet_lam or signs[lam] * pet_lam != signs[mu] * pet_mu:
        return f"witness {list(lam)}, {list(mu)} does not reinforce at k={k}"
    return None


def check_sweep(params, result) -> str | None:
    k_max, m_max, n_max = params["k_max"], params["m_max"], params["n_max"]
    if result["triples"] != k_max * (m_max + 1) * n_max:
        return f"{result['triples']} triples reported"
    if result["disagreements"]:
        return f"disagreements {result['disagreements']}"
    expected = {
        (k, m, n)
        for k in range(3, k_max + 1)
        for n in range(k, n_max + 1, k)
        for m in range(n, m_max + 1)
    }
    entries = result["non_smf"]
    if {(e["k"], e["m"], e["n"]) for e in entries} != expected or len(entries) != len(expected):
        return "non-SMF triples differ from the closed form"
    largest = 1
    for e in entries:
        if abs(e["coeff"]) < 2 or sum(e["offending"]) != e["m"] + e["n"]:
            return f"offending term {e['offending']} = {e['coeff']} at {e['k'], e['m'], e['n']}"
        problem = check_witness(e["k"], e["n"], e["witness"])
        if problem:
            return problem
        largest = max(largest, abs(e["coeff"]))
    if result["max_abs_coeff"] != largest:
        return f"max_abs_coeff {result['max_abs_coeff']} != {largest}"
    return None


def check_transition(k: int, m: int, result) -> str | None:
    order = [tuple(lam) for lam in result["order"]]
    if order != list(partitions(m, m)):
        return "index set is not every partition of m in canonical order"
    size = len(order)
    if len(result["entries"]) != size or any(len(row) != size for row in result["entries"]):
        return "matrix is not square over the index set"
    block_of = {}
    for core, rows in result["blocks"].items():
        for i in rows:
            if i in block_of or core != petrie.format_partition(k_core(order[i], k)):
                return f"row {i} is misplaced in block {core}"
            block_of[i] = core
    if len(block_of) != size:
        return "blocks do not cover the index set"
    for i, row in enumerate(result["entries"]):
        for j, value in enumerate(row):
            if value and block_of[i] != block_of[j]:
                return f"entry ({i}, {j}) crosses k-cores"
    return None


def check_schur_product(lam: list[int], n: int, result) -> str | None:
    fast = petrie.multiply_power_sum(petrie.SchurExpansion(sum(lam), {tuple(lam): 1}), n)
    if result != fast.to_json_dict():
        return f"oracle p_{n} * s{lam} differs from the Murnaghan-Nakayama product"
    return None


def check(op: dict, envelope) -> str | None:
    """Check one op's parsed output; None when it is right."""
    if "lib" in op:
        return check_schur_product(op["lam"], op["n"], envelope["result"])
    params, result = envelope["params"], envelope["result"]
    command = op["cli"][0]
    if command == "multiply" and "--verify" in op["cli"]:
        return None if result.get("verified") is True else "oracle verification missing"
    if command == "multiply":
        return check_product(params["k"], params["m"], params["n"], result)
    if command == "sweep":
        return check_sweep(params, result)
    if command == "transition":
        return check_transition(params["k"], params["m"], result)
    return f"no check for {command}"
