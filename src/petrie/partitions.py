"""Integer partitions, skew shapes, and rim hooks.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple is the unique partition of 0.  Every public function here is
pure, and every returned list of partitions is in canonical order: graded
reverse-lexicographic, largest first (for equal sizes this is plain
descending tuple comparison).

Rim hooks are added by one bead rule: moving bead b to an empty b + n adds
a hook whose height is the number of beads strictly between.  The rule has
two kernels with one call shape, terms (or their views) and a hook size in,
the signed coefficient map out, cancelled zeros kept.
:func:`_signed_rim_hooks` builds each term's beads for one ``n``, finds the
empty targets with a scan pointer and keys each ``lam_plus`` by its parts,
cut with slices; every product that is printed uses it.
:func:`_signed_hook_masks` keys it by an integer with one bit per bead, two
bits flipped from the term's own, on views (:func:`_bead_masks`) built once
for every hook size up to a ``reach``: a shift finds every bead with an
empty target, a parity view of the beads gives every sign, and each loop
runs once per hook.  The sweep uses it, since it reads only the verdict
and decodes one key (:func:`_mask_partition`); it reads the views of G(k, m)
off the abacus, no partition built (:func:`~petrie.petrie_numbers.grinberg_masks`).
For partitions of one size, masks in one ``floor`` sort as the partitions do.
"""

from __future__ import annotations

from itertools import accumulate
from operator import ge, le, lt
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import MalformedPartition, NotARimHook

Partition = tuple[int, ...]


def as_partition(parts: Iterable[int]) -> Partition:
    """Canonicalize ``parts``: drop zeros, reject increasing or negative input."""
    seq = tuple(map(int, parts))
    if seq and min(seq) < 0:
        raise MalformedPartition(f"negative part in {seq!r}")
    if 0 in seq:
        seq = tuple(filter(None, seq))
    if any(map(lt, seq, seq[1:])):
        raise MalformedPartition(f"parts must be weakly decreasing, got {seq!r}")
    return seq


def parse_partition(text: str) -> Partition:
    """Parse ``"3,3,1"``, ``"[3,3,1]"``, ``""`` or ``"[]"`` into a partition."""
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1].strip()
    if not body:
        return ()
    try:
        parts = [int(tok) for tok in body.split(",")]
    except ValueError as exc:
        raise MalformedPartition(f"bad partition literal {text!r}") from exc
    return as_partition(parts)


def format_partition(lam: Sequence[int]) -> str:
    """Render a partition in the bracketed text form, ``[]`` when empty."""
    return "[" + ",".join(map(str, lam)) + "]"


def conjugate(lam: Partition) -> Partition:
    """Transpose the Young diagram: part i of the result counts rows >= i."""
    lam = as_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))


def _dominates(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """Dominance order on two partitions of one size, unchecked: every prefix
    sum of ``lam`` is >= the one of ``mu``.  ``map`` stops at the shorter: past
    it, a shorter ``lam`` has every prefix sum at the full size, and a longer
    one has already fallen below ``mu``."""
    return all(map(ge, accumulate(lam), accumulate(mu)))


def contains(inner: Partition, outer: Partition) -> bool:
    """Componentwise containment, missing parts reading as 0."""
    inner, outer = as_partition(inner), as_partition(outer)
    return len(inner) <= len(outer) and all(map(le, inner, outer))


class _SkewShapeFields(NamedTuple):
    outer: Partition
    inner: Partition


class SkewShape(_SkewShapeFields):
    """The diagram of ``outer`` with ``inner`` removed from the top-left.

    Both partitions are canonicalized, and ``inner`` must be contained in
    ``outer``; a ``NamedTuple`` body cannot define ``__new__``, so the check
    sits in this subclass of the fields.
    """

    __slots__ = ()

    def __new__(cls, outer: Iterable[int], inner: Iterable[int]) -> SkewShape:
        outer, inner = as_partition(outer), as_partition(inner)
        if not contains(inner, outer):
            raise ValueError(f"{inner} is not contained in {outer}")
        return super().__new__(cls, outer, inner)

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    def cells(self) -> tuple[tuple[int, int], ...]:
        """Occupied cells as (row, col) pairs, 0-based, row-major."""
        out = []
        for r, width in enumerate(self.outer):
            low = self.inner[r] if r < len(self.inner) else 0
            out.extend((r, c) for c in range(low, width))
        return tuple(out)


def is_rim_hook(shape: SkewShape) -> bool:
    """True iff the skew diagram is nonempty, edge-connected and 2x2-free,
    read from its rows: each occupied row r (inner[r] < outer[r]) but the
    last shares exactly one column with the row below, outer[r+1] ==
    inner[r] + 1.  No shared column disconnects them, two hold a 2x2 block,
    and one makes row r+1 occupied, so the occupied rows are consecutive."""
    outer, inner = shape
    inner += (0,) * (len(outer) - len(inner))
    rows = [r for r, (low, high) in enumerate(zip(inner, outer)) if low < high]
    return bool(rows) and all(outer[r + 1] == inner[r] + 1 for r in rows[:-1])


def rim_hook_height(shape: SkewShape) -> int:
    """Number of occupied rows minus one.  Row r is occupied when
    outer[r] > inner[r]; every row past the inner partition's last is."""
    if not is_rim_hook(shape):
        raise NotARimHook(f"{shape.outer}/{shape.inner} is not a rim hook")
    outer, inner = shape
    return len(outer) - len(inner) + sum(map(lt, inner, outer)) - 1


def beta_set(lam: Partition, n_beads: int) -> tuple[int, ...]:
    """First-column hook lengths with ``n_beads`` beads, strictly decreasing.

    These are the shifted parts lam_i + n_beads - i; bead moves by +-n on
    this set are exactly rim-hook additions/removals of size n.
    """
    if n_beads < len(lam):
        raise ValueError(f"need at least {len(lam)} beads for {lam}")
    padded = lam + (0,) * (n_beads - len(lam))
    return tuple(padded[i] + n_beads - 1 - i for i in range(n_beads))


def partition_from_beta_set(beads: Iterable[int]) -> Partition:
    """Inverse of :func:`beta_set`; the bead count is implicit in the input."""
    ordered = sorted(beads, reverse=True)
    n = len(ordered)
    return as_partition(ordered[i] - (n - 1 - i) for i in range(n))


def add_rim_hooks(lam: Partition, n: int) -> list[Partition]:
    """All partitions obtained from ``lam`` by adding one rim hook of size n.

    ``lam`` is validated once here; the additions come from the bead rule
    of :func:`_signed_rim_hooks`, one per legal bead move b -> b+n.
    """
    lam = as_partition(lam)
    if n < 1:
        raise ValueError("hook size must be >= 1")
    return sorted(_signed_rim_hooks([(lam, 1)], n), reverse=True)


def _signed_rim_hooks(terms: Iterable[tuple[Partition, int]], n: int) -> dict[Partition, int]:
    """``{lam_plus: sum of coeff * (-1)^height}`` over every rim hook of size
    ``n >= 1`` added to every term's canonical ``lam``; sums that cancel stay
    as zeros, and nothing is validated.

    With ``pad`` the parts of ``lam`` followed by ``n`` zeros, bead i sits at
    pad_i - i (the first-column hook lengths of :func:`beta_set` lowered by
    len(pad) - 1, which moves no bead relative to another), and ``plus1``
    holds pad_i + 1.  A hook moves only one of the first len(lam) + n beads:
    every later bead b has b+n among the consecutive beads of the zero parts.

    A bead b may move to t = b+n iff t is free.  A scan pointer j0 walks to
    the first bead at or below t; it only moves forward as b falls, and t is
    occupied exactly when beads[j0] == t.  Otherwise the moved bead takes
    slot j0 (part t + j0), and the beads from j0 down to the one above b
    each slide one slot down, so their parts grow by one; j0 <= len(lam),
    so the parts above it are those of ``lam``.  The hook's height is the
    number of sliding beads: the beads strictly between b and b+n.  This is
    the one height rule of the fast path; :func:`rim_hook_height` counts
    rows instead, and the tests' cell reference is the checked definition
    of both.  One partition never yields two equal hooks.
    """
    acc: dict[Partition, int] = {}
    for lam, coeff in terms:
        pad = lam + (0,) * n
        beads = [p - i for i, p in enumerate(pad)]
        plus1 = tuple(p + 1 for p in pad)
        j0 = 0
        for idx in range(len(lam) + n):
            t = beads[idx] + n
            while beads[j0] > t:
                j0 += 1
            if beads[j0] == t:
                continue
            lam_plus = lam[:j0] + (t + j0,) + plus1[j0:idx] + lam[idx + 1 :]
            acc[lam_plus] = acc.get(lam_plus, 0) + (-coeff if (idx - j0) % 2 else coeff)
    return acc


_MaskView = tuple[int, int, int]


def _bead_masks(
    terms: Iterable[tuple[Partition, int]], reach: int
) -> tuple[list[_MaskView], int]:
    """One ``(mask, coeff, odd)`` view per term, for rim hooks of every size
    ``n <= reach``, and the ``floor`` their masks share; nothing is validated.

    With floor = max len(lam) + reach, bead i sits at pad_i - i + floor for
    i < floor (``pad``: ``lam`` followed by zeros), so every bead is at 1 or
    above, and ``mask`` has one bit per bead.  Every ``lam_plus`` of a hook
    of size n <= reach has at most ``floor`` parts, so its mask in the same
    ``floor`` is that of ``lam`` with one bead moved.  The zero parts' beads
    are bits 1 .. floor - len(lam), set as one block.  Bit j of ``odd`` is
    the parity of the beads at j and above: a suffix XOR of ``mask``.
    """
    terms = list(terms)
    floor = max((len(lam) for lam, _ in terms), default=0) + reach
    views = []
    for lam, coeff in terms:
        mask = (1 << (floor - len(lam) + 1)) - 2  # the zero parts' beads
        mask |= sum(1 << (p - i + floor) for i, p in enumerate(lam))
        views.append(_mask_view(mask, coeff))
    return views, floor


def _mask_view(mask: int, coeff: int) -> _MaskView:
    """``(mask, coeff, odd)``: bit j of ``odd`` is the parity of the beads at j and above."""
    odd, s = mask, 1
    while s < mask.bit_length():
        odd, s = odd ^ (odd >> s), s << 1
    return mask, coeff, odd


def _signed_hook_masks(views: list[_MaskView], n: int) -> dict[int, int]:
    """:func:`_signed_rim_hooks` keyed by bead masks: ``{mask of lam_plus:
    sum of coeff * (-1)^height}`` over every rim hook of size ``n`` added to
    every view (views from :func:`_bead_masks` with ``reach >= n``).

    The bead rule of the tuple kernel, on whole words: ``free`` holds every
    bead b whose target b+n is empty, and ``down`` those of them with an odd
    count of beads strictly between, read from ``odd`` at b+1 and b+n.
    Moving b flips two bits of the key.  No bead is tested alone: each loop
    takes the lowest set bit, so it runs once per hook.
    """
    acc: dict[int, int] = {}
    for mask, coeff, odd in views:
        free = mask & ~(mask >> n)
        down = free & ((odd >> 1) ^ (odd >> n))
        for bits, sign in ((free ^ down, coeff), (down, -coeff)):
            while bits:
                low = bits & -bits
                bits ^= low
                key = mask ^ low ^ (low << n)
                acc[key] = acc.get(key, 0) + sign
    return acc


def _mask_partition(mask: int, floor: int) -> Partition:
    """The partition whose beads, placed as in :func:`_bead_masks`, are the
    set bits of ``mask``: the i-th highest bit p gives part p + i - floor,
    and the first zero part (or the last bit) ends it."""
    parts = []
    while mask:
        top = mask.bit_length() - 1
        part = top + len(parts) - floor
        if not part:
            break
        parts.append(part)
        mask ^= 1 << top
    return tuple(parts)


def remove_rim_hooks(lam: Partition, n: int) -> list[Partition]:
    """All partitions obtained from ``lam`` by removing one rim hook of size n."""
    lam = as_partition(lam)
    if n < 1:
        raise ValueError("hook size must be >= 1")
    beads = set(beta_set(lam, len(lam)))
    out = []
    for b in beads:
        if b >= n and b - n not in beads:
            out.append(partition_from_beta_set(beads - {b} | {b - n}))
    return sorted(out, reverse=True)


def partitions_of(m: int, max_part: int | None = None) -> list[Partition]:
    """All partitions of ``m`` (parts <= ``max_part`` when given), canonical order."""
    if m < 0:
        raise ValueError("cannot partition a negative integer")
    if max_part is not None and max_part < 0:
        raise ValueError("max_part must be >= 0")
    cap = m if max_part is None else min(max_part, m)
    return list(_gen_partitions(m, cap))


def _gen_partitions(remaining: int, cap: int) -> Iterator[Partition]:
    if remaining == 0:
        yield ()
        return
    for first in range(min(cap, remaining), 0, -1):
        for rest in _gen_partitions(remaining - first, first):
            yield (first,) + rest
