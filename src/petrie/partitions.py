"""Integer partitions, skew shapes, and rim hooks.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple is the unique partition of 0.  Every public function here is
pure, and every returned list of partitions is in canonical order: graded
reverse-lexicographic, largest first (for equal sizes this is plain
descending tuple comparison).

Rim hooks are added by one bead rule on bead views built once per term for
every hook size up to a ``reach``: a scan pointer to the first bead at or
below the target decides whether the target is occupied, and the beads it
passes give the height.  The rule has two accumulator keys.
:func:`_add_signed_rim_hooks` (views from :func:`_bead_views`) keys each
``lam_plus`` by its parts, cut from the view with slices; every product
that is printed uses it.  :func:`_add_signed_hook_masks` (views from
:func:`_bead_masks`) keys it by an integer with one bit per bead, two bits
flipped from the term's own; the sweep uses it, since it reads only the
verdict and decodes one key (:func:`_mask_partition`).  For partitions of
one size, masks in one ``floor`` sort as the partitions do.
"""

from __future__ import annotations

from itertools import accumulate
from operator import ge, lt
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
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


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
    """True iff the skew diagram is edge-connected, nonempty, and 2x2-free."""
    cells = set(shape.cells())
    if not cells:
        return False
    for r, c in cells:
        if (r, c + 1) in cells and (r + 1, c) in cells and (r + 1, c + 1) in cells:
            return False
    seen = set()
    stack = [next(iter(cells))]
    while stack:
        cell = stack.pop()
        if cell in seen:
            continue
        seen.add(cell)
        r, c = cell
        for nbr in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if nbr in cells and nbr not in seen:
                stack.append(nbr)
    return len(seen) == len(cells)


def rim_hook_height(shape: SkewShape) -> int:
    """Number of occupied rows minus one."""
    if not is_rim_hook(shape):
        raise NotARimHook(f"{shape.outer}/{shape.inner} is not a rim hook")
    return len({r for r, _ in shape.cells()}) - 1


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
    of :func:`_add_signed_rim_hooks`, one per legal bead move b -> b+n.
    """
    lam = as_partition(lam)
    if n < 1:
        raise ValueError("hook size must be >= 1")
    return sorted(_signed_rim_hooks(lam, n), reverse=True)


_BeadView = tuple[Partition, int, list[int], tuple[int, ...]]


def _bead_views(terms: Iterable[tuple[Partition, int]], reach: int) -> list[_BeadView]:
    """One ``(lam, coeff, beads, plus1)`` view per term, ready for rim hooks
    of every size ``n <= reach``; nothing is validated.

    With ``pad`` the parts of ``lam`` followed by ``reach`` zeros, bead i
    sits at pad_i - i (the first-column hook lengths of :func:`beta_set`
    lowered by len(pad) - 1, which moves no bead relative to another), and
    ``plus1`` holds pad_i + 1.  A hook of size n moves only one of the
    first len(lam) + n beads: every later bead b has b+n among the
    consecutive beads of the zero parts.
    """
    views = []
    for lam, coeff in terms:
        pad = lam + (0,) * reach
        beads = [p - i for i, p in enumerate(pad)]
        views.append((lam, coeff, beads, tuple(p + 1 for p in pad)))
    return views


def _add_signed_rim_hooks(acc: dict[Partition, int], views: list[_BeadView], n: int) -> None:
    """Add ``coeff * (-1)^height`` into ``acc`` at ``lam_plus`` for every rim
    hook of size ``n`` added to every view's ``lam`` (views built with
    ``reach >= n``).

    A bead b may move to t = b+n iff t is free.  A scan pointer j0 walks to
    the first bead at or below t; it only moves forward as b falls, and t is
    occupied exactly when beads[j0] == t.  Otherwise the moved bead takes
    slot j0 (part t + j0), and the beads from j0 down to the one above b
    each slide one slot down, so their parts grow by one; j0 <= len(lam),
    so the parts above it are those of ``lam``.  The hook's height is the
    number of sliding beads: the beads strictly between b and b+n.  This is
    the one height rule of the fast path; the cell count of
    :func:`rim_hook_height` is its checked definition.  One partition never
    yields two equal hooks.
    """
    for lam, coeff, beads, plus1 in views:
        j0 = 0
        for idx in range(len(lam) + n):
            t = beads[idx] + n
            while beads[j0] > t:
                j0 += 1
            if beads[j0] == t:
                continue
            lam_plus = lam[:j0] + (t + j0,) + plus1[j0:idx] + lam[idx + 1 :]
            acc[lam_plus] = acc.get(lam_plus, 0) + (-coeff if (idx - j0) % 2 else coeff)


_MaskView = tuple[int, int, int, list[int]]


def _bead_masks(
    terms: Iterable[tuple[Partition, int]], reach: int
) -> tuple[list[_MaskView], int]:
    """One ``(mask, coeff, len(lam), beads)`` view per term, for rim hooks
    of every size ``n <= reach``, and the ``floor`` their masks share;
    nothing is validated.

    With floor = max len(lam) + reach, bead i sits at pad_i - i + floor for
    i < floor (``pad``: ``lam`` followed by zeros), so every bead is at 1 or
    above, and ``mask`` has one bit per bead.  Every ``lam_plus`` of a hook
    of size n <= reach has at most ``floor`` parts, so its mask in the same
    ``floor`` is that of ``lam`` with one bead moved.
    """
    terms = list(terms)
    floor = max((len(lam) for lam, _ in terms), default=0) + reach
    views = []
    for lam, coeff in terms:
        pad = lam + (0,) * (floor - len(lam))
        beads = [p - i + floor for i, p in enumerate(pad)]
        views.append((sum(1 << b for b in beads), coeff, len(lam), beads))
    return views, floor


def _add_signed_hook_masks(acc: dict[int, int], views: list[_MaskView], n: int) -> None:
    """:func:`_add_signed_rim_hooks` keyed by bead masks: add ``coeff *
    (-1)^height`` into ``acc`` at the mask of ``lam_plus`` for every rim
    hook of size ``n`` (views from :func:`_bead_masks` with ``reach >= n``).

    The scan pointer and the height parity are those of the tuple kernel;
    only the key differs: moving bead b to the free t = b+n flips two bits.
    """
    for mask, coeff, length, beads in views:
        j0 = 0
        for idx in range(length + n):
            b = beads[idx]
            t = b + n
            while beads[j0] > t:
                j0 += 1
            if beads[j0] == t:
                continue
            key = mask ^ (1 << b) ^ (1 << t)
            acc[key] = acc.get(key, 0) + (-coeff if (idx - j0) % 2 else coeff)


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


def _signed_rim_hooks(lam: Partition, n: int) -> dict[Partition, int]:
    """``{lam_plus: (-1)^height}`` for the rim hooks of size ``n >= 1`` added
    to the canonical partition ``lam``; nothing is validated."""
    acc: dict[Partition, int] = {}
    _add_signed_rim_hooks(acc, _bead_views([(lam, 1)], n), n)
    return acc


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
