"""The reference packing world: sizes, regions, the two orders on sizes, the cuts and the naive packer.

A block, a rectangle of regular size that still awaits a location, is its
Size.  Blocks are packed largest first under the total order total_key.  A
size that covers another (the componentwise partial order) comes first in
that order, which makes the processing order sound.  Coordinates are plain
Python ints: container widths reach q1**l1max (q=10, l=30 needs 100 bits).

``cut_sigma`` maps a container and a regular size bound to the unique
smallest partition into regular aligned pieces no larger than the bound, each
an explicit region (their number can be exponential in the exponents).
``corner_cut_regions`` lists the pieces left when a block is removed from the
lower-left corner of a regular aligned container.  ``solve_naive``, the
reference for the bank in ``packer``, re-cuts every container at hand to the
componentwise maximum of the remaining block sizes per block, then packs the
largest block into the lower-left corner of a smallest adequate container.

No command loads this module: only the tests and ``oracle.brute_sigma_min``
do.  Values are immutable, functions pure.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .model import Arities, _set, _Value


def ilog_exact(n: int, base: int) -> int | None:
    """Exponent e with base**e == n, or None if n is not a power of base."""
    if n < 1:
        return None
    e = 0
    while n % base == 0:
        n //= base
        e += 1
    return e if n == 1 else None


class Size(_Value):
    """Width/height pair of a rectangle; both dimensions are >= 1."""

    __slots__ = ("w", "h")

    def __init__(self, w: int, h: int) -> None:
        if w < 1 or h < 1:
            raise ValueError(f"size dimensions must be >= 1, got [{w}, {h}]")
        _set(self, "w", w)
        _set(self, "h", h)

    @property
    def area(self) -> int:
        return self.w * self.h


class Region(_Value):
    """Half-open rectangle [x, x+w) x [y, y+h); left/bottom borders closed.

    w and h repeat the size's dimensions, so the overlap tests read one slot.
    """

    __slots__ = ("x", "y", "size", "w", "h")
    _fields = ("x", "y", "size")

    def __init__(self, x: int, y: int, size: Size) -> None:
        if x < 0 or y < 0:
            raise ValueError(f"region location must be non-negative, got ({x}, {y})")
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "size", size)
        _set(self, "w", size.w)
        _set(self, "h", size.h)

    @property
    def area(self) -> int:
        return self.w * self.h


def reg(x: int, y: int, w: int, h: int) -> Region:
    """Shorthand constructor for a region."""
    return Region(x, y, Size(w, h))


def total_key(s: Size) -> tuple[int, int, int]:
    """Sort key realizing the total order: longest side, then width, then height."""
    return (max(s.w, s.h), s.w, s.h)


def covers(s1: Size, s2: Size) -> bool:
    """True when s1 dominates s2 componentwise (width and height both >=)."""
    return s1.w >= s2.w and s1.h >= s2.h


def is_regular(s: Size, q: Arities) -> bool:
    """True when the width is a power of q1 and the height a power of q2."""
    return ilog_exact(s.w, q.q1) is not None and ilog_exact(s.h, q.q2) is not None


def is_aligned(r: Region) -> bool:
    """True when the location is a multiple of the region's own size."""
    return r.x % r.w == 0 and r.y % r.h == 0


def sort_blocks_desc(blocks: Iterable[Size]) -> list[Size]:
    """Stable descending sort under the total order; equal sizes keep input order."""
    return sorted(blocks, key=total_key, reverse=True)


def is_sorted_desc(blocks: Sequence[Size]) -> bool:
    return all(total_key(a) >= total_key(b) for a, b in zip(blocks, blocks[1:]))


def overlap(r1: Region, r2: Region) -> bool:
    """True when the half-open rectangles share at least one point."""
    return (
        r1.x < r2.x + r2.w
        and r2.x < r1.x + r1.w
        and r1.y < r2.y + r2.h
        and r2.y < r1.y + r1.h
    )


def contains(outer: Region, inner: Region) -> bool:
    """True when inner lies entirely inside outer."""
    return (
        outer.x <= inner.x
        and outer.y <= inner.y
        and inner.x + inner.w <= outer.x + outer.w
        and inner.y + inner.h <= outer.y + outer.h
    )


def _cut1d(lo: int, length: int, q: int, bound: int) -> list[tuple[int, int]]:
    """Greedy tiling of [lo, lo + length) by (start, length) intervals, left to right.

    Each step takes the longest q-power interval that starts at the current
    point, is aligned to its own length, fits, and is at most bound.
    """
    out, end = [], lo + length
    while lo < end:
        w = 1
        while w * q <= bound and lo % (w * q) == 0 and lo + w * q <= end:
            w *= q
        out.append((lo, w))
        lo += w
    return out


def cut_sigma(c: Region, s: Size, q: Arities) -> tuple[Region, ...]:
    """Cut a container into the smallest set of regular aligned pieces bounded by s.

    The cut is the product of one greedy 1-D cut per axis, x-major.  It is
    the unique minimum because aligned q-power intervals are nested or
    disjoint, so the greedy intervals are exactly the maximal aligned
    intervals inside each range.  Every piece of any valid partition
    therefore lies inside one product cell, and each cell is itself a valid
    piece: n1 * n2 pieces is the minimum, and the product is the only
    partition that reaches it.
    """
    if not is_regular(s, q):
        raise ValueError(f"cut bound must be regular, got [{s.w}, {s.h}]")
    ys = _cut1d(c.y, c.h, q.q2, s.h)
    return tuple(reg(x, y, w, h) for x, w in _cut1d(c.x, c.w, q.q1, s.w) for y, h in ys)


def corner_cut_regions(c: Region, block_size: Size, q: Arities) -> list[Region]:
    """Explicit regions of the corner cut, for the reference packer ``solve_naive``.

    Requires c regular and aligned with the block at least as small in both
    dimensions; the block is removed from the container's lower-left corner.
    The pieces are the x-cut right of the block at full height, then the
    y-cut above the block at its width.
    """
    if not (is_regular(c.size, q) and is_regular(block_size, q)):
        raise ValueError("corner cut needs regular container and block sizes")
    if not covers(c.size, block_size):
        raise ValueError(f"block {block_size} exceeds container {c.size}")
    bw, bh = block_size.w, block_size.h
    xs = _cut1d(c.x + bw, c.w - bw, q.q1, c.w)
    ys = _cut1d(c.y + bh, c.h - bh, q.q2, c.h)
    return [reg(x, c.y, w, c.h) for x, w in xs] + [reg(c.x, y, bw, h) for y, h in ys]


def _validate_containers(containers: Sequence[Region]) -> None:
    for i in range(len(containers)):
        for j in range(i + 1, len(containers)):
            if overlap(containers[i], containers[j]):
                raise ValueError(f"containers must not overlap: {containers[i]} vs {containers[j]}")


def solve_naive(
    blocks: Sequence[Size], containers: Sequence[Region], q: Arities
) -> tuple[tuple[int, int], ...] | None:
    """Greedy packer: the origin of each block, given as its size, in the
    given order, or None when no packing exists.

    Expects blocks pre-sorted descending under the total order (rejected
    otherwise, as are overlapping containers and non-regular block sizes).
    Ties among equally small candidate containers are broken by
    lexicographically smallest (x, y) so outputs are reproducible.
    """
    if not is_sorted_desc(blocks):
        raise ValueError("blocks must be sorted descending under the total order")
    for b in blocks:
        if not is_regular(b, q):
            raise ValueError(f"block size [{b.w}, {b.h}] is not regular")
    _validate_containers(containers)

    n = len(blocks)
    if n == 0:
        return ()
    # Suffix componentwise maxima: s*[i] bounds every block from i on.
    smax: list[Size] = [Size(1, 1)] * n
    w, h = blocks[n - 1].w, blocks[n - 1].h
    smax[n - 1] = Size(w, h)
    for i in range(n - 2, -1, -1):
        w = max(w, blocks[i].w)
        h = max(h, blocks[i].h)
        smax[i] = Size(w, h)

    pool: list[Region] = list(containers)
    locations: list[tuple[int, int]] = []
    for i, blk in enumerate(blocks):
        cut_pool: list[Region] = []
        for r in pool:
            cut_pool.extend(cut_sigma(r, smax[i], q))
        pool = cut_pool
        adequate = [r for r in pool if covers(r.size, blk)]
        if not adequate:
            return None
        target = min(adequate, key=lambda r: (total_key(r.size), r.x, r.y))
        locations.append((target.x, target.y))
        pool.remove(target)
        if target.size != blk:
            pool.extend(corner_cut_regions(target, blk, q))
    return tuple(locations)
