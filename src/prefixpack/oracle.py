"""Independent brute-force references for desk-scale verification.

Nothing here shares logic with the packers: the packing oracle is a plain
exhaustive backtracking search over aligned candidate locations, and the
cutting oracle enumerates partitions outright.  Both are hopeless beyond toy
sizes, which is the point - they answer small instances by sheer enumeration
so the real algorithms have something honest to be checked against.

Both search on integer bitmasks, one bit per cell.  The packing oracle
numbers the cells its containers cover column by column, so a block at a
spot is its mask at the origin shifted by the spot's offset, and offsets
order spots as their (x, y) do; one array serves as both the spots and
their sort keys.  Each (size, containers) pair has its mask and its offsets
listed once and kept in a bounded cache, which the selftest sweep hits on
nearly every call.  The offsets are an array of machine words, not one
tuple or one shifted mask per spot: a unit block in a 512 x 512 container
has 262,144 spots, which take 2 MiB as words, about 40 MiB as (x, y)
tuples, and gigabytes as masks as wide as the container.

Budgets are explicit: exceeding one is reported as its own outcome (or raised),
never silently turned into a wrong answer.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from array import array
from typing import Iterator, Literal, Sequence

from .geometry import Region, Size, ilog_exact, reg
from .model import Arities, ProblemSpec, _set, _Value

BruteOutcome = Literal["yes", "no", "budget_exceeded"]

# A container as a bare (x, y, w, h) tuple, the cache key's half that is not the size
Box = tuple[int, int, int, int]


class BudgetExceeded(Exception):
    """Search-node budget hit before the question was settled."""


class OracleLimits(_Value):
    __slots__ = ("max_m", "max_dim", "max_nodes")

    def __init__(self, max_m: int = 12, max_dim: int = 64, max_nodes: int = 2_000_000) -> None:
        if max_m <= 0 or max_dim <= 0 or max_nodes <= 0:
            raise ValueError("oracle limits must be positive")
        _set(self, "max_m", max_m)
        _set(self, "max_dim", max_dim)
        _set(self, "max_nodes", max_nodes)


def _starts(lo: int, extent: int, step: int) -> range:
    """Aligned starts of a step-long interval inside [lo, lo + extent)."""
    return range(-(-lo // step) * step, lo + extent - step + 1, step)


def _size_key(wh: tuple[int, int]) -> tuple[int, int, int]:
    """geometry.total_key on a bare (w, h) pair."""
    return (max(wh), wh[0], wh[1])


def _spot_count(size: tuple[int, int], boxes: tuple[Box, ...]) -> int:
    """Number of aligned spots of a size in the containers, counted without listing them."""
    w, h = size
    return sum(len(_starts(x, cw, w)) * len(_starts(y, ch, h)) for x, y, cw, ch in boxes)


def _packed_axis(spans: list[tuple[int, int]]) -> tuple[list[int], int]:
    """Each [lo, hi) span's shift onto the axis with its uncovered stretches
    removed, and that axis' length.

    Far-apart containers thus cost no bits for the gaps between them, and
    the shifted axis keeps both the order and the adjacency of covered points.
    """
    merged: list[list[int]] = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    los, shifts, length = [], [], 0
    for lo, hi in merged:
        los.append(lo)
        shifts.append(length - lo)
        length += hi - lo
    return [shifts[bisect.bisect_right(los, lo) - 1] for lo, _ in spans], length


@functools.lru_cache(maxsize=256)
def _layout(size: tuple[int, int], boxes: tuple[Box, ...]) -> tuple[int, array]:
    """A size's cell mask at the origin and the bit offsets of its aligned
    spots in the containers, in the containers' order, x-major.

    Cells are numbered column by column over the covered columns and rows
    only, so the offset of (x, y) is x' * height + y' for the shifted x' and
    y', and offsets compare as their (x, y) do.
    """
    w, h = size
    xshift, _ = _packed_axis([(x, x + cw) for x, _, cw, _ in boxes])
    yshift, height = _packed_axis([(y, y + ch) for _, y, _, ch in boxes])
    column = (1 << h) - 1
    block = 0
    for dx in range(w):
        block |= column << dx * height
    offsets = array("q")
    for (x, y, cw, ch), sx, sy in zip(boxes, xshift, yshift):
        ys = _starts(y, ch, h)
        for x0 in _starts(x, cw, w):
            first = (x0 + sx) * height + ys.start + sy
            offsets.extend(range(first, first + len(ys) * h, h))
    return block, offsets


def brute_decide(
    blocks: Sequence[Size],
    containers: Sequence[Region],
    limits: OracleLimits = OracleLimits(),
) -> BruteOutcome:
    """Exhaustive backtracking over all aligned placements of the blocks, given
    as their sizes, into the containers; yes/no/budget.

    Blocks are normalized into descending size order internally, so the
    verdict cannot depend on input order.  Runs of identical sizes only try
    placements in increasing location order (identical blocks are
    interchangeable, so any solution can be rewritten that way).  The cells
    taken so far are one int, and a candidate, its size's mask shifted to
    the spot, is tested against it with one bitwise and; masks and spots
    come from _layout's cache.  More aligned candidates, over all distinct
    sizes, than max_nodes is over budget too; they are counted before any
    is listed.
    """
    if len(blocks) > limits.max_m:
        raise ValueError(f"{len(blocks)} blocks exceed the oracle limit {limits.max_m}")
    for b in blocks:
        if b.w > limits.max_dim or b.h > limits.max_dim:
            raise ValueError(f"block {b} exceeds the dimension limit {limits.max_dim}")
    for c in containers:
        if c.w > limits.max_dim or c.h > limits.max_dim:
            raise ValueError(f"container {c} exceeds the dimension limit {limits.max_dim}")

    order = sorted(((b.w, b.h) for b in blocks), key=_size_key, reverse=True)
    if sum(w * h for w, h in order) > sum(c.area for c in containers):
        return "no"

    boxes = tuple((c.x, c.y, c.w, c.h) for c in containers)
    sizes = set(order)
    if sum(_spot_count(s, boxes) for s in sizes) > limits.max_nodes:
        return "budget_exceeded"
    layouts = {s: _layout(s, boxes) for s in sizes}
    # per block: its mask, its spots, and whether it repeats the block before it
    plan = [(*layouts[s], k > 0 and order[k - 1] == s) for k, s in enumerate(order)]
    nodes = 0

    def search(k: int, taken: int, last: int) -> bool:
        """Place blocks k.. around the taken cells; last is block k - 1's offset."""
        nonlocal nodes
        if k == len(plan):
            return True
        nodes += 1
        if nodes > limits.max_nodes:
            raise BudgetExceeded
        block, offsets, repeat = plan[k]
        floor = last if repeat else -1
        for off in offsets:
            if off > floor and not (cell := block << off) & taken and search(k + 1, taken | cell, off):
                return True
        return False

    try:
        return "yes" if search(0, 0, -1) else "no"
    except BudgetExceeded:
        return "budget_exceeded"
    finally:  # search holds itself through its cell; unlinked, each call is freed by reference count
        del search


def brute_sigma_min(
    c: Region, s: Size, q: Arities, limits: OracleLimits = OracleLimits()
) -> tuple[int, tuple[Region, ...]]:
    """Minimum-cardinality partition of c into regular aligned pieces bounded by s.

    Exhaustive: every partition covers the lowest-leftmost uncovered cell with
    exactly one piece, and an aligned piece of a given size containing a given
    cell is unique, so recursing on the piece size at that cell considers all
    partitions.  Subproblems are keyed by the uncovered-cell bitmask and
    memoized; the count per mask is the exact optimum.  A partition always
    exists for integer-coordinate containers (unit pieces always fit).
    Raises BudgetExceeded when the subproblem budget runs out.
    """
    if c.w > limits.max_dim or c.h > limits.max_dim:
        raise ValueError(f"container {c} exceeds the dimension limit {limits.max_dim}")
    amax = ilog_exact(s.w, q.q1)
    bmax = ilog_exact(s.h, q.q2)
    if amax is None or bmax is None:
        raise ValueError(f"cut bound must be regular, got [{s.w}, {s.h}]")

    sizes = [
        (q.q1**a, q.q2**b) for a in range(amax + 1) for b in range(bmax + 1)
    ]
    sizes.sort(key=lambda wh: wh[0] * wh[1], reverse=True)

    cw, ch = c.w, c.h
    full = (1 << (cw * ch)) - 1

    # For each cell, the pieces that may cover it: (bitmask, (x, y, w, h)), biggest
    # first; a Region is built only for the pieces of the answer.
    options: list[list[tuple[int, tuple[int, int, int, int]]]] = []
    for idx in range(cw * ch):
        cy, cx = divmod(idx, cw)
        ax, ay = c.x + cx, c.y + cy
        cell_opts = []
        for w, h in sizes:
            px = ax - ax % w
            py = ay - ay % h
            if px < c.x or px + w > c.x + cw or py < c.y or py + h > c.y + ch:
                continue
            row = ((1 << w) - 1) << (px - c.x)
            mask = 0
            for dy in range(py - c.y, py - c.y + h):
                mask |= row << (dy * cw)
            cell_opts.append((mask, (px, py, w, h)))
        options.append(cell_opts)

    # dp[mask] = (optimal piece count for the uncovered set, option at its anchor)
    dp: dict[int, tuple[int, tuple]] = {}
    max_piece = sizes[0][0] * sizes[0][1]

    def solve(uncovered: int) -> int:
        if uncovered == 0:
            return 0
        hit = dp.get(uncovered)
        if hit is not None:
            return hit[0]
        if len(dp) >= limits.max_nodes:
            raise BudgetExceeded
        idx = (uncovered & -uncovered).bit_length() - 1
        floor = -(-uncovered.bit_count() // max_piece)  # every piece covers <= max_piece cells
        best = cw * ch + 1
        best_option = None
        for option in options[idx]:
            mask = option[0]
            if mask & uncovered != mask:
                continue
            sub = 1 + solve(uncovered & ~mask)
            if sub < best:
                best = sub
                best_option = option
                if best <= floor:
                    break
        assert best_option is not None  # the unit piece always applies
        dp[uncovered] = (best, best_option)
        return best

    count = solve(full)
    parts = []
    uncovered = full
    while uncovered:
        _, (mask, piece) = dp[uncovered]
        parts.append(reg(*piece))
        uncovered &= ~mask
    return count, tuple(parts)


def enumerate_instances(
    q_choices: Sequence[tuple[int, int]], max_m: int, max_len: int
) -> Iterator[ProblemSpec]:
    """Every length multiset up to the bounds, once per multiset, in a fixed order.

    max_m = 0 lists no length pairs: the empty multiset needs none."""
    domain = [(l1, l2) for l1 in range(max_len + 1) for l2 in range(max_len + 1)] if max_m >= 1 else []
    for q1, q2 in q_choices:
        ar = Arities(q1, q2)
        for m in range(max_m + 1):
            for combo in itertools.combinations_with_replacement(domain, m):
                yield ProblemSpec(ar, combo)
