"""Region algebra: overlap, containment, and the σ-cut and corner cut, built from greedy 1-D cuts.

The cutting function ``cut_sigma`` maps a container and a regular size bound
to the unique smallest partition into regular aligned containers, each no
larger than the bound in either dimension.  It materializes every piece as an
explicit region; the number of pieces can be exponential in the exponents
involved, so it serves the reference packer ``solve_naive`` and tests only.
``corner_cut_regions`` lists the pieces left when a block is removed from the
lower-left corner of a regular aligned container.

All functions are pure and operate on immutable values.
"""

from __future__ import annotations

from .model import Arities, Region, Size, covers, is_regular, reg


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
