"""The tuple-overlap brute-force packer, kept as a test reference for oracle.brute_decide.

It takes the same bare (w, h) sizes and (x, y, w, h) boxes, lists every
aligned spot of every size as an (x, y) pair, keeps the placed blocks as
bare (x, y, x + w, y + h) tuples, and tests a candidate against each of
them with the half-open interval overlap test.  Its limit
checks, area check, budget count, candidate order, repeat rule and node
count are the ones brute_decide keeps, so the two give the same outcome,
budget included, on every input.
"""

from prefixpack.geometry import total_key
from prefixpack.oracle import BudgetExceeded, OracleLimits, _starts


def brute_decide_reference(blocks, containers, limits=OracleLimits()):
    if len(blocks) > limits.max_m:
        raise ValueError(f"{len(blocks)} blocks exceed the oracle limit {limits.max_m}")
    for b in blocks:
        if max(b) > limits.max_dim:
            raise ValueError(f"block {b} exceeds the dimension limit {limits.max_dim}")
    for c in containers:
        if max(c[2:]) > limits.max_dim:
            raise ValueError(f"container {c} exceeds the dimension limit {limits.max_dim}")

    order = sorted(blocks, key=total_key, reverse=True)
    if sum(w * h for w, h in order) > sum(w * h for _, _, w, h in containers):
        return "no"

    grids = {s: [(_starts(x, w, s[0]), _starts(y, h, s[1])) for x, y, w, h in containers] for s in set(order)}
    if sum(len(xs) * len(ys) for grid in grids.values() for xs, ys in grid) > limits.max_nodes:
        return "budget_exceeded"
    spots = {s: [(x, y) for xs, ys in grid for x in xs for y in ys] for s, grid in grids.items()}
    placed = []
    nodes = 0

    def search(k):
        nonlocal nodes
        if k == len(order):
            return True
        nodes += 1
        if nodes > limits.max_nodes:
            raise BudgetExceeded
        s = order[k]
        w, h = s
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
