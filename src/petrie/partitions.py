"""Integer partitions, skew shapes, and rim hooks.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple is the unique partition of 0.  Every function here is pure, and
every returned list of partitions is in canonical order: graded
reverse-lexicographic, largest first (for equal sizes this is plain
descending tuple comparison).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import MalformedPartition, NotARimHook, SizeMismatch

Partition = tuple[int, ...]


def as_partition(parts: Iterable[int]) -> Partition:
    """Canonicalize ``parts``: drop zeros, reject increasing or negative input."""
    seq = tuple(int(p) for p in parts)
    if any(p < 0 for p in seq):
        raise MalformedPartition(f"negative part in {seq!r}")
    seq = tuple(p for p in seq if p)
    if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
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
    return "[" + ",".join(str(p) for p in lam) + "]"


def conjugate(lam: Partition) -> Partition:
    """Transpose the Young diagram: part i of the result counts rows >= i."""
    return _conjugate(as_partition(lam))


def _conjugate(lam: Sequence[int]) -> Partition:
    """:func:`conjugate` of weakly decreasing nonnegative parts, unchecked."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))


def dominates(lam: Partition, mu: Partition) -> bool:
    """Dominance order: every prefix sum of ``lam`` >= the one of ``mu``."""
    lam, mu = as_partition(lam), as_partition(mu)
    if sum(lam) != sum(mu):
        raise SizeMismatch(f"|{lam}| != |{mu}|")
    total_l = total_m = 0
    for i in range(max(len(lam), len(mu))):
        total_l += lam[i] if i < len(lam) else 0
        total_m += mu[i] if i < len(mu) else 0
        if total_l < total_m:
            return False
    return True


def contains(inner: Partition, outer: Partition) -> bool:
    """Componentwise containment, missing parts reading as 0."""
    inner, outer = as_partition(inner), as_partition(outer)
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


@dataclass(frozen=True)
class SkewShape:
    """The diagram of ``outer`` with ``inner`` removed from the top-left."""

    outer: Partition
    inner: Partition

    def __post_init__(self) -> None:
        object.__setattr__(self, "outer", as_partition(self.outer))
        object.__setattr__(self, "inner", as_partition(self.inner))
        if not contains(self.inner, self.outer):
            raise ValueError(f"{self.inner} is not contained in {self.outer}")

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


def rim_hook_columns(shape: SkewShape) -> int:
    """Number of occupied columns; for a rim hook, columns + height = size."""
    if not is_rim_hook(shape):
        raise NotARimHook(f"{shape.outer}/{shape.inner} is not a rim hook")
    return len({c for _, c in shape.cells()})


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
    return sorted((big for big, _ in _signed_rim_hooks(lam, n)), reverse=True)


def _signed_rim_hooks(lam: Partition, n: int) -> Iterator[tuple[Partition, int]]:
    """Each ``(lam_plus, (-1)^height)`` for a rim hook of size ``n >= 1``
    added to the canonical partition ``lam``; nothing is validated.

    With L = len(lam) + n beads at lam_i + L-1-i, a bead b may move to
    t = b+n iff t is free.  The beads from the first one below t down to
    the one above b each slide one place down the list, so their parts
    grow by one, and the hook's height is their number: the beads strictly
    between b and b+n.  This is the one height rule of the fast path; the
    cell count of :func:`rim_hook_height` is its checked definition.
    """
    size = len(lam) + n
    pad = lam + (0,) * n
    beads = [pad[i] + size - 1 - i for i in range(size)]
    occupied = set(beads)
    j0 = 0
    for idx, b in enumerate(beads):
        t = b + n
        if t in occupied:
            continue
        while beads[j0] > t:
            j0 += 1
        lam_plus = (
            pad[:j0]
            + (t - (size - 1 - j0),)
            + tuple(p + 1 for p in pad[j0:idx])
            + lam[idx + 1 :]
        )
        yield lam_plus, -1 if (idx - j0) % 2 else 1


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
