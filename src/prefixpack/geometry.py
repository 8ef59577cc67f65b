"""The reference packing world: the two orders on sizes, the cuts and the naive packer, on bare tuples.

A size is a bare (w, h) pair and a box a bare (x, y, w, h) tuple, the
half-open rectangle [x, x+w) x [y, y+h), as codes.lengths_to_instance builds
them.  A block, a rectangle of regular size that still awaits a location, is
its size.  Blocks are packed largest first under the total order total_key.
A size that covers another (the componentwise partial order) comes first in
that order, which makes the processing order sound.  Coordinates are plain
Python ints: container widths reach q1**l1max (q=10, l=30 needs 100 bits).

``cut_sigma`` maps a container and a regular size bound to the unique
smallest partition into regular aligned pieces no larger than the bound, each
an explicit box (their number can be exponential in the exponents).
``corner_cut_regions`` lists the pieces left when a block is removed from the
lower-left corner of a regular aligned container.  ``solve_naive``, the
reference for the bank in ``packer``, re-cuts every container at hand to the
componentwise maximum of the remaining block sizes per block, then packs the
largest block into the lower-left corner of a smallest adequate container.

No command loads this module: only the tests do.  Functions are pure.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .model import Arities

Box = tuple[int, int, int, int]  # (x, y, w, h); a size is a bare (w, h) pair


def ilog_exact(n: int, base: int) -> int | None:
    """Exponent e with base**e == n, or None if n is not a power of base."""
    if n < 1:
        return None
    e = 0
    while n % base == 0:
        n //= base
        e += 1
    return e if n == 1 else None


def total_key(s: tuple[int, int]) -> tuple[int, int, int]:
    """Sort key realizing the total order: longest side, then width, then height."""
    w, h = s
    return (max(w, h), w, h)


def covers(s1: tuple[int, int], s2: tuple[int, int]) -> bool:
    """True when s1 dominates s2 componentwise (width and height both >=)."""
    return s1[0] >= s2[0] and s1[1] >= s2[1]


def is_regular(s: tuple[int, int], q: Arities) -> bool:
    """True when the width is a power of q1 and the height a power of q2."""
    return ilog_exact(s[0], q.q1) is not None and ilog_exact(s[1], q.q2) is not None


def is_aligned(r: Box) -> bool:
    """True when the location is a multiple of the box's own size."""
    x, y, w, h = r
    return x % w == 0 and y % h == 0


def sort_blocks_desc(blocks: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Stable descending sort under the total order; equal sizes keep input order."""
    return sorted(blocks, key=total_key, reverse=True)


def is_sorted_desc(blocks: Sequence[tuple[int, int]]) -> bool:
    return all(total_key(a) >= total_key(b) for a, b in zip(blocks, blocks[1:]))


def overlap(r1: Box, r2: Box) -> bool:
    """True when the half-open rectangles share at least one point."""
    (x1, y1, w1, h1), (x2, y2, w2, h2) = r1, r2
    return x1 < x2 + w2 and x2 < x1 + w1 and y1 < y2 + h2 and y2 < y1 + h1


def contains(outer: Box, inner: Box) -> bool:
    """True when inner lies entirely inside outer."""
    (ox, oy, ow, oh), (ix, iy, iw, ih) = outer, inner
    return ox <= ix and oy <= iy and ix + iw <= ox + ow and iy + ih <= oy + oh


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


def cut_sigma(c: Box, s: tuple[int, int], q: Arities) -> tuple[Box, ...]:
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
        raise ValueError(f"cut bound must be regular, got [{s[0]}, {s[1]}]")
    x, y, w, h = c
    ys = _cut1d(y, h, q.q2, s[1])
    return tuple((px, py, pw, ph) for px, pw in _cut1d(x, w, q.q1, s[0]) for py, ph in ys)


def corner_cut_regions(c: Box, block: tuple[int, int], q: Arities) -> list[Box]:
    """Explicit boxes of the corner cut, for the reference packer ``solve_naive``.

    Requires c regular and aligned with the block at least as small in both
    dimensions; the block is removed from the container's lower-left corner.
    The pieces are the x-cut right of the block at full height, then the
    y-cut above the block at its width.
    """
    x, y, w, h = c
    bw, bh = block
    if not (is_regular((w, h), q) and is_regular(block, q)):
        raise ValueError("corner cut needs regular container and block sizes")
    if not covers((w, h), block):
        raise ValueError(f"block [{bw}, {bh}] exceeds container [{w}, {h}]")
    xs = _cut1d(x + bw, w - bw, q.q1, w)
    ys = _cut1d(y + bh, h - bh, q.q2, h)
    return [(px, y, pw, h) for px, pw in xs] + [(x, py, bw, ph) for py, ph in ys]


def _validate_containers(containers: Sequence[Box]) -> None:
    for x, y, w, h in containers:
        if min(x, y) < 0 or min(w, h) < 1:
            raise ValueError(f"container {(x, y, w, h)} needs a corner >= 0 and sides >= 1")
    for i in range(len(containers)):
        for j in range(i + 1, len(containers)):
            if overlap(containers[i], containers[j]):
                raise ValueError(f"containers must not overlap: {containers[i]} vs {containers[j]}")


def solve_naive(
    blocks: Sequence[tuple[int, int]], containers: Sequence[Box], q: Arities
) -> tuple[tuple[int, int], ...] | None:
    """Greedy packer: the origin of each block, given as its (w, h) size, in
    the given order, into the (x, y, w, h) containers, or None when no
    packing exists.

    Expects blocks pre-sorted descending under the total order (rejected
    otherwise, as are non-regular block sizes and containers that overlap,
    have a corner below 0 or a side below 1).  Ties among equally small
    candidate containers are broken by lexicographically smallest (x, y) so
    outputs are reproducible.
    """
    if not is_sorted_desc(blocks):
        raise ValueError("blocks must be sorted descending under the total order")
    for w, h in blocks:
        if not is_regular((w, h), q):
            raise ValueError(f"block size [{w}, {h}] is not regular")
    _validate_containers(containers)

    # Suffix componentwise maxima: bounds[i] bounds every block from i on.
    bounds, w, h = [], 1, 1
    for bw, bh in reversed(blocks):
        w, h = max(w, bw), max(h, bh)
        bounds.append((w, h))
    bounds.reverse()

    pool: list[Box] = list(containers)
    locations: list[tuple[int, int]] = []
    for (bw, bh), bound in zip(blocks, bounds):
        pool = [piece for r in pool for piece in cut_sigma(r, bound, q)]
        adequate = [r for r in pool if covers(r[2:], (bw, bh))]
        if not adequate:
            return None
        target = min(adequate, key=lambda r: (total_key(r[2:]), r[0], r[1]))
        locations.append(target[:2])
        pool.remove(target)
        if target[2:] != (bw, bh):
            pool.extend(corner_cut_regions(target, (bw, bh), q))
    return tuple(locations)
