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
from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

from .model import (
    Arities,
    Block,
    ProblemSpec,
    Region,
    Size,
    ilog_exact,
    reg,
    total_key,
)
from .geometry import overlap

BruteOutcome = Literal["yes", "no", "budget_exceeded"]


class BudgetExceeded(Exception):
    """Search-node budget hit before the question was settled."""


@dataclass(frozen=True)
class OracleLimits:
    max_m: int = 12
    max_dim: int = 64
    max_nodes: int = 2_000_000

    def __post_init__(self) -> None:
        if self.max_m <= 0 or self.max_dim <= 0 or self.max_nodes <= 0:
            raise ValueError("oracle limits must be positive")


def _ceil_to(value: int, step: int) -> int:
    return -(-value // step) * step


def brute_decide(
    blocks: Sequence[Block],
    containers: Sequence[Region],
    limits: OracleLimits = OracleLimits(),
) -> BruteOutcome:
    """Exhaustive backtracking over all aligned placements; yes/no/budget.

    Blocks are normalized into descending size order internally, so the
    verdict cannot depend on input order.  Runs of identical sizes only try
    placements in increasing location order (identical blocks are
    interchangeable, so any solution can be rewritten that way).
    """
    if len(blocks) > limits.max_m:
        raise ValueError(f"{len(blocks)} blocks exceed the oracle limit {limits.max_m}")
    for b in blocks:
        if b.size.w > limits.max_dim or b.size.h > limits.max_dim:
            raise ValueError(f"block {b.size} exceeds the dimension limit {limits.max_dim}")
    for c in containers:
        if c.w > limits.max_dim or c.h > limits.max_dim:
            raise ValueError(f"container {c} exceeds the dimension limit {limits.max_dim}")

    order = sorted(blocks, key=lambda b: total_key(b.size), reverse=True)
    if sum(b.size.area for b in order) > sum(c.area for c in containers):
        return "no"

    def candidates(s: Size) -> list[tuple[int, int]]:
        out = []
        for c in containers:
            x = _ceil_to(c.x, s.w)
            while x + s.w <= c.x + c.w:
                y = _ceil_to(c.y, s.h)
                while y + s.h <= c.y + c.h:
                    out.append((x, y))
                    y += s.h
                x += s.w
        return out

    spots = {s: candidates(s) for s in {b.size for b in order}}
    placed: list[Region] = []
    nodes = 0

    def search(k: int) -> bool:
        nonlocal nodes
        if k == len(order):
            return True
        nodes += 1
        if nodes > limits.max_nodes:
            raise BudgetExceeded
        s = order[k].size
        repeat = k > 0 and order[k - 1].size == s
        for x, y in spots[s]:
            if repeat and (x, y) <= (placed[-1].x, placed[-1].y):
                continue
            r = Region(x, y, s)
            if any(overlap(r, p) for p in placed):
                continue
            placed.append(r)
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
