"""The σ oracle: an exhaustive minimal partition of a box into regular aligned
pieces, kept as a test reference for geometry.cut_sigma.

It shares no logic with the cut: it enumerates partitions outright, on an
integer bitmask of the box's cells, and finds the bound's exponents itself,
so it imports nothing from geometry.  It is hopeless beyond toy sizes, and
its budget is explicit: running out raises BudgetExceeded.
"""

from __future__ import annotations

from prefixpack.model import Arities
from prefixpack.oracle import Box, BudgetExceeded, OracleLimits


def brute_sigma_min(
    c: Box, s: tuple[int, int], q: Arities, limits: OracleLimits = OracleLimits()
) -> tuple[int, tuple[Box, ...]]:
    """Minimum-cardinality partition of the (x, y, w, h) box c into regular
    aligned pieces, (x, y, w, h) boxes, bounded by the (w, h) size s.

    Exhaustive: every partition covers the lowest-leftmost uncovered cell with
    exactly one piece, and an aligned piece of a given size containing a given
    cell is unique, so recursing on the piece size at that cell considers all
    partitions.  Subproblems are keyed by the uncovered-cell bitmask and
    memoized; the count per mask is the exact optimum.  A partition always
    exists for integer-coordinate containers (unit pieces always fit).
    Raises BudgetExceeded when the subproblem budget runs out.
    """
    x0, y0, cw, ch = c
    if min(x0, y0) < 0 or not 1 <= min(cw, ch) <= max(cw, ch) <= limits.max_dim:
        raise ValueError(f"container {c} needs a corner >= 0 and sides in [1, {limits.max_dim}]")
    # the bound's exponents: the smallest a, b with q1**a >= s[0] and q2**b >= s[1]
    a = b = 0
    while q.q1**a < s[0]:
        a += 1
    while q.q2**b < s[1]:
        b += 1
    if (q.q1**a, q.q2**b) != tuple(s):
        raise ValueError(f"cut bound must be regular, got [{s[0]}, {s[1]}]")

    sizes = [(q.q1**i, q.q2**j) for i in range(a + 1) for j in range(b + 1)]
    sizes.sort(key=lambda wh: wh[0] * wh[1], reverse=True)

    full = (1 << (cw * ch)) - 1

    # For each cell, the pieces that may cover it: (bitmask, (x, y, w, h)), biggest first.
    options: list[list[tuple[int, Box]]] = []
    for idx in range(cw * ch):
        cy, cx = divmod(idx, cw)
        ax, ay = x0 + cx, y0 + cy
        cell_opts = []
        for w, h in sizes:
            px = ax - ax % w
            py = ay - ay % h
            if px < x0 or px + w > x0 + cw or py < y0 or py + h > y0 + ch:
                continue
            row = ((1 << w) - 1) << (px - x0)
            mask = 0
            for dy in range(py - y0, py - y0 + h):
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
        parts.append(piece)
        uncovered &= ~mask
    return count, tuple(parts)
