"""Independent brute-force references for desk-scale verification.

Nothing here shares logic with the packers: the packing oracle is a plain
exhaustive backtracking search over aligned candidate locations, and the
cutting oracle enumerates partitions outright.  Both are hopeless beyond toy
sizes, which is the point - they answer small instances by sheer enumeration
so the real algorithms have something honest to be checked against.

Budgets are explicit: exceeding one is reported as its own outcome (or raised),
never silently turned into a wrong answer.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Literal, Sequence

from .geometry import Region, Size, ilog_exact, reg, total_key
from .model import Arities, ProblemSpec, _set, _Value

BruteOutcome = Literal["yes", "no", "budget_exceeded"]


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
    interchangeable, so any solution can be rewritten that way).  Placed
    blocks are kept as bare (x, y, x + w, y + h) tuples, and a candidate
    is tested against them with the half-open interval overlap test.  More
    aligned candidates, over all distinct sizes, than max_nodes is over
    budget too; they are counted before any is listed.
    """
    if len(blocks) > limits.max_m:
        raise ValueError(f"{len(blocks)} blocks exceed the oracle limit {limits.max_m}")
    for b in blocks:
        if b.w > limits.max_dim or b.h > limits.max_dim:
            raise ValueError(f"block {b} exceeds the dimension limit {limits.max_dim}")
    for c in containers:
        if c.w > limits.max_dim or c.h > limits.max_dim:
            raise ValueError(f"container {c} exceeds the dimension limit {limits.max_dim}")

    order = sorted(blocks, key=total_key, reverse=True)
    if sum(b.area for b in order) > sum(c.area for c in containers):
        return "no"

    # Each size's aligned starts per container, as ranges: the candidates are
    # counted, arithmetically, before any is listed.
    grids = {s: [(_starts(c.x, c.w, s.w), _starts(c.y, c.h, s.h)) for c in containers] for s in set(order)}
    if sum(len(xs) * len(ys) for grid in grids.values() for xs, ys in grid) > limits.max_nodes:
        return "budget_exceeded"
    spots = {s: [(x, y) for xs, ys in grid for x in xs for y in ys] for s, grid in grids.items()}
    placed: list[tuple[int, int, int, int]] = []
    nodes = 0

    def search(k: int) -> bool:
        nonlocal nodes
        if k == len(order):
            return True
        nodes += 1
        if nodes > limits.max_nodes:
            raise BudgetExceeded
        s = order[k]
        w, h = s.w, s.h
        repeat = k > 0 and order[k - 1] == s
        for x, y in spots[s]:
            if repeat and (x, y) <= placed[-1][:2]:
                continue
            x2, y2 = x + w, y + h
            if any(x < px2 and px < x2 and y < py2 and py < y2 for px, py, px2, py2 in placed):
                continue
            placed.append((x, y, x2, y2))
            if search(k + 1):
                return True
            placed.pop()
        return False

    try:
        return "yes" if search(0) else "no"
    except BudgetExceeded:
        return "budget_exceeded"


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
    """Every length multiset up to the bounds, once per multiset, in a fixed order."""
    domain = [
        (l1, l2) for l1 in range(max_len + 1) for l2 in range(max_len + 1)
    ]
    for q1, q2 in q_choices:
        ar = Arities(q1, q2)
        for m in range(max_m + 1):
            for combo in itertools.combinations_with_replacement(domain, m):
                yield ProblemSpec(ar, combo)
