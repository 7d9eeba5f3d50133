"""Sparse integer Schur-basis expansions and the signed-multiplicity story.

Holds the homogeneous sparse-vector base that ``SchurExpansion`` and the
oracle's ``MonomialVector`` share, with its one key-validation rule and its
trusted constructor for keys the library built itself.  Builds Petrie
expansions G(k, m), multiplies them by power sums via the
Murnaghan-Nakayama rule, classifies when the product stays signed
multiplicity free (all coefficients in {-1, 0, 1}), and constructs verified
witnesses in the region where it does not.
"""

from __future__ import annotations

import marshal
import os
from functools import partial
from typing import Mapping, NamedTuple

from .errors import InternalInvariantFailure, MalformedPartition, NotARimHook, PreconditionViolated
from .partitions import (
    Partition,
    SkewShape,
    _mask_partition,
    _signed_hook_masks,
    _signed_rim_hooks,
    as_partition,
    format_partition,
    rim_hook_height,
)
from .petrie_numbers import grinberg_masks, grinberg_support, pet_det


class _HomogeneousVector:
    """A homogeneous integer vector in a basis indexed by partitions.

    Keys are partitions of ``degree``; zero coefficients are never stored;
    iteration is in canonical (reverse-lexicographic, largest-first) order.
    Vectors are equal only when they have the same type, so a Schur-basis
    and a monomial-basis vector with the same terms differ.
    """

    __slots__ = ("_degree", "_terms")

    def __init__(self, degree: int, terms: Mapping[Partition, int]):
        """Store ``terms`` after checking that every key is a partition of
        ``degree``; the one key rule of every public constructor."""
        if degree < 0:
            raise ValueError("degree must be >= 0")
        clean: dict[Partition, int] = {}
        for lam, coeff in terms.items():
            lam = as_partition(lam)
            if sum(lam) != degree:
                raise ValueError(f"{lam} is not a partition of {degree}")
            if coeff:
                clean[lam] = int(coeff)
        self._degree = degree
        self._terms = clean

    @classmethod
    def _from_canonical(cls, degree: int, terms: dict[Partition, int]):
        """Adopt ``terms``, whose keys are canonical partitions of ``degree``,
        without copying it: the caller gives the dict up.  Its zero
        coefficients are deleted in place and nothing is validated."""
        for lam in [lam for lam, coeff in terms.items() if not coeff]:
            del terms[lam]
        self = cls.__new__(cls)
        self._degree = degree
        self._terms = terms
        return self

    @property
    def degree(self) -> int:
        return self._degree

    def coefficient(self, lam: Partition) -> int:
        return self._terms.get(as_partition(lam), 0)

    def items(self) -> list[tuple[Partition, int]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0], reverse=True)

    def support(self) -> list[Partition]:
        return sorted(self._terms, reverse=True)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self._degree == other._degree
            and self._terms == other._terms
        )


class SchurExpansion(_HomogeneousVector):
    """A homogeneous integer combination of Schur functions."""

    __slots__ = ()

    def __init__(self, degree: int, terms: Mapping[Partition, int]):
        # Own __init__, not the base's: bench/tracer.py wraps own methods only.
        super().__init__(degree, terms)

    def __repr__(self) -> str:
        return f"SchurExpansion(degree={self._degree}, terms={self.to_text()!r})"

    def to_text(self) -> str:
        """One-line signed rendering, e.g. ``s[2,1] - 2*s[1,1,1]``."""
        entries = self.items()
        if not entries:
            return "0"
        chunks = []
        for idx, (lam, coeff) in enumerate(entries):
            magnitude = "" if abs(coeff) == 1 else f"{abs(coeff)}*"
            term = f"{magnitude}s{format_partition(lam)}"
            if idx == 0:
                chunks.append(term if coeff > 0 else "-" + term)
            else:
                chunks.append((" + " if coeff > 0 else " - ") + term)
        return "".join(chunks)

    def to_json_dict(self) -> dict:
        """Partitions are copied into lists, not passed as tuples: a payload
        must equal its own JSON round trip, since ``bench/verify.py`` compares
        ``to_json_dict()`` with parsed output, where ``[2, 1] != (2, 1)``."""
        return {
            "degree": self._degree,
            "terms": [
                {"partition": list(lam), "coeff": coeff}
                for lam, coeff in self.items()
            ],
        }


class SmfVerdict(NamedTuple):
    """Outcome of a signed-multiplicity-freeness check.

    ``offending`` is the first term (canonical order) with |coefficient| >= 2
    and is present exactly when the verdict is negative.
    """

    signed_multiplicity_free: bool
    offending: tuple[Partition, int] | None = None


_SMF = SmfVerdict(signed_multiplicity_free=True)


def petrie_schur_expansion(k: int, m: int) -> SchurExpansion:
    """Schur expansion of the degree-m Petrie symmetric function G(k, m).

    The support is exactly the partitions of m with first part below k whose
    conjugate's k-1 beads lie on distinct runners of a k-runner abacus; the
    coefficient is the k-Petrie number.  Both are generated bead placement
    by bead placement (:func:`~petrie.petrie_numbers.grinberg_support`),
    each term in O(k) steps from its runs of equal parts and a closed-form
    sign, so the cost is proportional to the support, C(L+k-2, k-2) terms
    with L = (m-(k-1)+e)/k and e = (k-1-m) mod k, not to the number of
    partitions of m.  At k = 1 the generating product is the constant 1, so
    the expansion is empty for every m >= 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    if k == 1:
        return SchurExpansion(m, {(): 1} if m == 0 else {})
    return SchurExpansion._from_canonical(m, dict(grinberg_support(k, m)))


def multiply_power_sum(f: SchurExpansion, n: int) -> SchurExpansion:
    """Murnaghan-Nakayama product: for each term add every size-n rim hook,
    signed by (-1)^height, and combine like terms.

    Hooks and signs come from the bead rule
    (:func:`~petrie.partitions._signed_rim_hooks`): the height is the number
    of beads strictly between b and b+n.  Each term's beads are built for
    this ``n`` alone, and the kernel's map is adopted as the product, its
    cancelled zeros dropped there.  The keys of ``f`` were validated when
    ``f`` was built, so neither they nor the product's keys are validated
    again.
    """
    if n < 1:
        raise ValueError("power sum index must be >= 1")
    return SchurExpansion._from_canonical(f.degree + n, _signed_rim_hooks(f._terms.items(), n))


def petrie_times_power_sum(k: int, m: int, n: int) -> SchurExpansion:
    """Schur expansion of G(k, m) times the n-th power sum."""
    return multiply_power_sum(petrie_schur_expansion(k, m), n)


def is_signed_multiplicity_free(f: SchurExpansion) -> SmfVerdict:
    """True iff every stored coefficient is -1 or 1 (vacuously true if empty)."""
    return _smf_verdict(f._terms)


def _smf_verdict(terms: Mapping[Partition | int, int]) -> SmfVerdict:
    """The verdict on a coefficient map, which may hold cancelled zeros.

    Keys are either partitions of one size or the bead masks of such
    partitions in one ``floor`` (:func:`~petrie.partitions._bead_masks`),
    and an offending mask is returned undecoded.  The offending term is the
    largest key with |coefficient| >= 2, which is the first such term in
    canonical order; no full sort is needed.  Masks order terms as the
    partitions do: at the first part where two partitions differ, the
    larger part's bead is the highest bit set in one mask and not in the
    other.  Every positive verdict is the one shared ``_SMF``.
    """
    values = terms.values()
    if max(values, default=0) < 2 and min(values, default=0) > -2:
        return _SMF
    worst = max(lam for lam, coeff in terms.items() if coeff > 1 or coeff < -1)
    return SmfVerdict(signed_multiplicity_free=False, offending=(worst, terms[worst]))


def classify_smf(k: int, m: int, n: int) -> bool:
    """Closed-form verdict: the product expansion keeps unit coefficients
    unless k >= 3, k divides n, and m >= n."""
    if k < 1 or m < 0 or n < 1:
        raise ValueError("need k >= 1, m >= 0, n >= 1")
    return not (k >= 3 and n % k == 0 and m >= n)


def verify_witness(
    k: int,
    n: int,
    lam: Partition,
    mu: Partition,
    lam_plus: Partition,
) -> None:
    """Check every structural requirement on a collision witness.

    Both lam and mu must carry nonzero k-Petrie numbers, both must grow to
    lam_plus by a rim hook of size n, and their two signed contributions to
    s_(lam_plus) must be equal, so that they reinforce each other.  The other
    n-hooks removable from lam_plus are not summed, so this does not prove
    that the coefficient of s_(lam_plus) has absolute value >= 2.  Each
    hook's sign (-1)^height comes from the row rule of
    :func:`~petrie.partitions.rim_hook_height`, which the tests check
    against a cell reference, and not from either Murnaghan-Nakayama
    kernel, whose products the witnesses are checked against.
    """
    if lam == mu:
        raise InternalInvariantFailure("witness partitions coincide")
    try:  # a shape that is not a partition is the library's defect, not bad input
        pet_lam, pet_mu = pet_det(lam, k), pet_det(mu, k)
        if pet_lam == 0 or pet_mu == 0:
            raise InternalInvariantFailure("witness partition has zero Petrie number")
        signs = []
        for small in (lam, mu):
            try:
                shape = SkewShape(lam_plus, small)
            except ValueError:
                raise InternalInvariantFailure(f"{small} not contained in {lam_plus}") from None
            try:
                if shape.size != n:
                    raise NotARimHook
                height = rim_hook_height(shape)
            except NotARimHook:
                raise InternalInvariantFailure(
                    f"{lam_plus}/{small} is not a rim hook of size {n}"
                ) from None
            signs.append((-1) ** height)
    except MalformedPartition as exc:
        raise InternalInvariantFailure(f"witness shape is not a partition: {exc}") from None
    sign_lam, sign_mu = signs
    if sign_lam * pet_lam != sign_mu * pet_mu:
        raise InternalInvariantFailure("witness contributions do not reinforce")


def _stack(d: int, twos: int, ones: int) -> Partition:
    if twos < 0 or ones < 0:
        raise InternalInvariantFailure(f"negative multiplicity in ({d},{twos},{ones})")
    return (d,) * (d > 0) + (2,) * twos + (1,) * ones  # canonical: d is never 1


def witness_non_smf(
    k: int, m: int, n: int
) -> tuple[Partition, Partition, Partition]:
    """Construct a verified (lam, mu, lam_plus) collision for a non-SMF triple.

    Each shape is one part d = m mod k over a stack of twos and ones, given
    by its ``(twos, ones)`` pair.  With q = 1 + (m-d)//n, r = (m-d) mod n
    and t = q // 2 there are three cases, one table row each:

        case            lam_plus      lam               mu
        q even          (nt, r)       (n(t-1), n+r)     (n(t-1)+r+1+e, n-r-2-2e)
        q odd, r = 0    (nt, n)       (n(t-1), 2n)      (nt, 0)
        q odd, r > 0    (nt+r, n-r)   (n(t-1)+r, 2n-r)  (nt+1+e, r-2-2e)

    The offset e is 1 when d = 1 and 0 otherwise: the lone part 1 joins the
    ones, and in the first and third rows two of mu's ones merge into one
    more two.  The triple is verified before being returned.
    """
    if classify_smf(k, m, n):
        raise PreconditionViolated(
            f"G({k},{m})*p_{n} is signed multiplicity free; no witness exists"
        )
    d = m % k
    r = (m - d) % n
    q = 1 + (m - d) // n
    t = q // 2
    e = int(d == 1)
    if q % 2 == 0:
        shapes = [(n * t, r), (n * (t - 1), n + r), (n * (t - 1) + r + 1 + e, n - r - 2 - 2 * e)]
    elif r == 0:
        shapes = [(n * t, n), (n * (t - 1), 2 * n), (n * t, 0)]
    else:
        shapes = [(n * t + r, n - r), (n * (t - 1) + r, 2 * n - r), (n * t + 1 + e, r - 2 - 2 * e)]
    lam_plus, lam, mu = (_stack(d - e, twos, ones + e) for twos, ones in shapes)
    verify_witness(k, n, lam, mu, lam_plus)
    return lam, mu, lam_plus


class NonSmfEntry(NamedTuple):
    k: int
    m: int
    n: int
    offending: Partition
    coeff: int
    witness: tuple[Partition, Partition, Partition]

    def to_json_dict(self) -> dict:
        lam, mu, lam_plus = self.witness
        return {
            "k": self.k,
            "m": self.m,
            "n": self.n,
            "offending": list(self.offending),
            "coeff": self.coeff,
            "witness": {
                "lambda": list(lam),
                "mu": list(mu),
                "lambda_plus": list(lam_plus),
            },
        }


class SweepReport(NamedTuple):
    """Deterministic comparison of observed verdicts against the closed form.

    ``max_abs_coeff`` is the largest |coefficient| among the non-SMF
    products' *first* offending terms in canonical order (1 if there are
    none), not the largest coefficient of any product: for (5, 20, 10) the
    first offending coefficient is -2 while the product's largest
    |coefficient| is 3.
    """

    k_max: int
    m_max: int
    n_max: int
    triples: int
    non_smf: tuple[NonSmfEntry, ...]
    disagreements: tuple[tuple[int, int, int], ...]
    max_abs_coeff: int

    def to_json_dict(self) -> dict:
        return {
            "k_max": self.k_max,
            "m_max": self.m_max,
            "n_max": self.n_max,
            "triples": self.triples,
            "non_smf": [entry.to_json_dict() for entry in self.non_smf],
            "disagreements": [list(t) for t in self.disagreements],
            "max_abs_coeff": self.max_abs_coeff,
        }

    def to_text(self) -> str:
        lines = [
            f"smf sweep: k<={self.k_max} m<={self.m_max} n<={self.n_max}"
            f" ({self.triples} triples)"
        ]
        for entry in self.non_smf:
            lam, mu, lam_plus = entry.witness
            lines.append(
                f"non-smf k={entry.k} m={entry.m} n={entry.n}"
                f" offending={format_partition(entry.offending)}"
                f" coeff={entry.coeff}"
                f" witness {format_partition(lam)} {format_partition(mu)}"
                f" -> {format_partition(lam_plus)}"
            )
        lines.append(f"non-smf triples: {len(self.non_smf)}")
        lines.append(f"largest |coefficient| observed: {self.max_abs_coeff}")
        for k, m, n in self.disagreements:
            lines.append(f"DISAGREEMENT at k={k} m={m} n={n}")
        lines.append(f"{len(self.disagreements)} disagreements")
        return "\n".join(lines)


def _sweep_pair(km: tuple[int, int], n_max: int) -> tuple[list[tuple], list[tuple]]:
    """The non-SMF entries as :class:`NonSmfEntry` field tuples and the
    disagreements for (k, m, n), n = 1..n_max, from one set of bead-mask views
    of G(k, m), read off its abacus placements
    (:func:`~petrie.petrie_numbers.grinberg_masks`) with no partition built,
    padded for hooks up to ``n_max`` and reused for every p_n; these are the
    only bead views shared across hook sizes.  Each product's map is keyed
    by the bead mask of ``lam_plus``, not by its parts, and each verdict is
    read straight from it, cancelled zeros and all; no expansion is built
    for it.  The largest offending mask is the first offending term in
    canonical order (:func:`_smf_verdict`), and it is the only mask decoded."""
    k, m = km
    views, floor = grinberg_masks(k, m, n_max)
    entries: list[tuple] = []
    disagreements: list[tuple[int, int, int]] = []
    for n in range(1, n_max + 1):
        verdict = _smf_verdict(_signed_hook_masks(views, n))
        predicted = classify_smf(k, m, n)
        if verdict.signed_multiplicity_free != predicted:
            disagreements.append((k, m, n))
        elif not predicted:
            try:
                witness = witness_non_smf(k, m, n)
            except InternalInvariantFailure:
                disagreements.append((k, m, n))
                continue
            mask, coeff = verdict.offending
            entries.append((k, m, n, _mask_partition(mask, floor), coeff, witness))
    return entries, disagreements


def _forked_map(task, items: list, workers: int) -> list:
    """``[task(item) for item in items]``, computed by ``workers`` workers:
    the caller is worker 0 and forks ``workers - 1`` children.

    Worker i evaluates ``items[i::workers]``.  A child writes to its pipe
    ``m`` and its results as ``marshal`` bytes, so only tuples, lists and
    ints (a ``NamedTuple`` raises ``ValueError``), or ``p`` and its
    exception pickled, the only use of ``pickle``, and leaves by
    ``os._exit``.  The caller runs its share after the forks, reads every
    pipe to EOF, and reaps every child before it raises any exception (its
    own or a child's) or reports a child that exited without a result
    (``ChildProcessError``), so no child outlives the call.
    """
    children: list[tuple[int, int]] = []
    try:
        for i in range(1, workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(read_end)
                    try:
                        blob = b"m" + marshal.dumps([task(item) for item in items[i::workers]])
                    except Exception as exc:
                        import pickle
                        blob = b"p" + pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
                    with open(write_end, "wb") as stream:
                        stream.write(blob)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_end)
            children.append((pid, read_end))
        per_worker = [[task(item) for item in items[0::workers]]]
        blobs = []
        for _, read_end in children:
            with open(read_end, "rb", closefd=False) as stream:
                blobs.append(stream.read())
    finally:
        # Closing first unblocks a child still writing to an unread pipe.
        for _, read_end in children:
            os.close(read_end)
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    for blob, status in zip(blobs, statuses):
        if not blob or status:
            raise ChildProcessError(
                f"a sweep worker exited with status {os.waitstatus_to_exitcode(status)}"
                " without a result"
            )
        if blob[:1] == b"p":
            import pickle
            raise pickle.loads(blob[1:])
        per_worker.append(marshal.loads(blob[1:]))
    return [per_worker[j % workers][j // workers] for j in range(len(items))]


def sweep_smf(k_max: int, m_max: int, n_max: int, jobs: int = 1) -> SweepReport:
    """Compare observed and predicted SMF verdicts over a whole grid.

    Covers k in 1..k_max, m in 0..m_max, n in 1..n_max.  Every non-SMF
    triple also gets a constructed-and-verified witness.  The bead views of
    G(k, m) are read off its abacus placements, no partition built, once per
    (k, m), padded for hooks of size n_max, and reused for every p_n.  With
    jobs > 1 the (k, m) pairs are split, strided, over w = min(jobs, pairs,
    CPUs) workers: the caller and w - 1 forked children (:func:`_forked_map`),
    or run here when w is 1; the report is identical to the sequential one.
    The children are forked copies of the caller, so a caller that runs
    other threads should sweep with jobs = 1.  Platforms without ``os.fork``
    refuse jobs > 1.
    """
    if k_max < 1 or m_max < 1 or n_max < 1:
        raise ValueError("sweep bounds must be >= 1")
    if jobs > 1 and not hasattr(os, "fork"):
        raise PreconditionViolated("jobs > 1 needs os.fork, which this platform lacks")
    pairs = [(k, m) for k in range(1, k_max + 1) for m in range(0, m_max + 1)]
    task = partial(_sweep_pair, n_max=n_max)
    workers = min(jobs, len(pairs), os.cpu_count() or 1)
    if workers > 1:
        per_pair = _forked_map(task, pairs, workers)
    else:
        per_pair = [task(km) for km in pairs]
    non_smf = tuple(NonSmfEntry._make(entry) for entries, _ in per_pair for entry in entries)
    return SweepReport(
        k_max=k_max,
        m_max=m_max,
        n_max=n_max,
        triples=len(pairs) * n_max,
        non_smf=non_smf,
        disagreements=tuple(triple for _, found in per_pair for triple in found),
        max_abs_coeff=max((abs(entry.coeff) for entry in non_smf), default=1),
    )
