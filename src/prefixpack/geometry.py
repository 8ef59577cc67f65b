"""Region algebra: overlap, quotient containers, remainder frames, container cutting.

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

from .model import (
    Arities,
    Region,
    Size,
    covers,
    ilog_exact,
    is_aligned,
    is_regular,
    reg,
    total_key,
)

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


def _ceil_to(value: int, step: int) -> int:
    return -(-value // step) * step


def quotient_bound(c: Region, s: Size) -> Region | None:
    """Bounding region of all aligned sub-containers of size s inside c.

    The aligned candidates of a fixed size form a grid, so their union is a
    rectangle: it starts at the least multiples of (w, h) at or past the
    container's corner and extends by as many whole steps as fit.  Returns
    None when no aligned candidate fits.  Only this bounding rectangle is ever
    materialized; the grid cells themselves may be astronomically many.
    """
    xq = _ceil_to(c.x, s.w)
    yq = _ceil_to(c.y, s.h)
    nx = (c.x + c.w - xq) // s.w
    ny = (c.y + c.h - yq) // s.h
    if nx <= 0 or ny <= 0:
        return None
    return reg(xq, yq, nx * s.w, ny * s.h)


def remainder_regions(c: Region, s: Size) -> tuple[Region, ...]:
    """The at-most-8 frame pieces of c left around the quotient bound of s.

    When no aligned sub-container of size s fits, the remainder is c itself.
    Empty frame pieces are dropped.  The returned regions are pairwise
    disjoint, disjoint from the quotient bound, and together with it tile c.
    """
    qb = quotient_bound(c, s)
    if qb is None:
        return (c,)
    xs = (c.x, qb.x, qb.x + qb.w)
    ws = (qb.x - c.x, qb.w, (c.x + c.w) - (qb.x + qb.w))
    ys = (c.y, qb.y, qb.y + qb.h)
    hs = (qb.y - c.y, qb.h, (c.y + c.h) - (qb.y + qb.h))
    out = []
    for col in range(3):
        for row in range(3):
            if col == 1 and row == 1:
                continue  # the quotient bound itself
            if ws[col] > 0 and hs[row] > 0:
                out.append(reg(xs[col], ys[row], ws[col], hs[row]))
    return tuple(out)


def _largest_feasible(c: Region, s: Size, q: Arities) -> Size:
    """Largest regular size (total order) bounded by s with a nonempty quotient in c.

    Exists for every nonempty integer container: the unit size always fits.
    """
    amax = ilog_exact(s.w, q.q1)
    bmax = ilog_exact(s.h, q.q2)
    if amax is None or bmax is None:
        raise ValueError(f"cut bound must be regular, got [{s.w}, {s.h}]")
    best: Size | None = None
    pw = 1
    for _ in range(amax + 1):
        ph = 1
        for _ in range(bmax + 1):
            cand = Size(pw, ph)
            if (best is None or total_key(cand) > total_key(best)) and quotient_bound(
                c, cand
            ) is not None:
                best = cand
            ph *= q.q2
        pw *= q.q1
    if best is None:
        raise AssertionError("unit size always yields a quotient")
    return best


def cut_sigma(c: Region, s: Size, q: Arities) -> tuple[Region, ...]:
    """Cut a container into the smallest set of regular aligned pieces bounded by s.

    Recursive construction: take the largest feasible regular size, emit its
    whole grid of aligned sub-containers, then recurse into the frame pieces.
    Every output is regular, aligned, no larger than s in either dimension;
    outputs are pairwise disjoint and tile c exactly.

    Piece counts grow with the container area, so this explicit form is for
    small instances; decide_fast's count array serves the scalable path.
    """
    out: list[Region] = []
    stack = [c]
    while stack:
        r = stack.pop()
        if covers(s, r.size) and is_regular(r.size, q) and is_aligned(r):
            out.append(r)  # already a conforming piece; minimal cut is itself
            continue
        best = _largest_feasible(r, s, q)
        qb = quotient_bound(r, best)
        assert qb is not None
        for i in range(qb.w // best.w):
            for j in range(qb.h // best.h):
                out.append(reg(qb.x + i * best.w, qb.y + j * best.h, best.w, best.h))
        stack.extend(remainder_regions(r, best))
    return tuple(out)


def corner_cut_regions(c: Region, block_size: Size, q: Arities) -> list[Region]:
    """Explicit regions of the corner cut, for the reference packer ``solve_naive``.

    Requires c regular and aligned with the block at least as small in both
    dimensions; the block is removed from the container's lower-left corner.
    """
    ca, cb = ilog_exact(c.w, q.q1), ilog_exact(c.h, q.q2)
    ba, bb = ilog_exact(block_size.w, q.q1), ilog_exact(block_size.h, q.q2)
    if None in (ca, cb, ba, bb):
        raise ValueError("corner cut needs regular container and block sizes")
    if not covers(c.size, block_size):
        raise ValueError(f"block {block_size} exceeds container {c.size}")
    out: list[Region] = []
    pw = block_size.w
    for k in range(ba, ca):
        for t in range(1, q.q1):
            out.append(reg(c.x + t * pw, c.y, pw, c.h))
        pw *= q.q1
    ph = block_size.h
    for t in range(bb, cb):
        for u in range(1, q.q2):
            out.append(reg(c.x, c.y + u * ph, block_size.w, ph))
        ph *= q.q2
    return out
