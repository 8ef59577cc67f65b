"""The greedy container bank behind decide and construct.

``ContainerBank`` counts the free containers of each size [q1**i, q2**j]
on the only two lines that hold any, one cap column and one cap row.  Blocks
are processed grouped by size in descending order; the occupied cells of a
cap line split one exponent step at a time when the layer descends, and each
group is packed by one walk up a cap line.  Counts are plain Python ints on
purpose: they reach q1**l1max * q2**l2max, far beyond 64 bits for inputs
this path must handle.  The tables of powers q**k are shared by every bank,
one per arity, as long as the longest any bank has needed: a bank costs no
power products once a bank as deep has run, and a table grows only by a
longer copy replacing it, so the table a bank holds never changes.
``decide`` and ``construct`` share one group loop (one branch walks either
cap line); ``construct``'s bank also keeps the (x, y) origin of every free
container, which yields the locations, while the verdict stays the counts'.
The free-area ledger, an independent check on the counts, is kept only by
audited banks: its update multiplies two powers per group, about a fifth of
decide's time on codes whose block sides have over a thousand bits.

The bank is tested against the reference packer ``geometry.solve_naive`` on
the canonical instance of ``codes.lengths_to_instance``; no command runs it.

Kept only for benchmarks/tracer.py, which looks these names up (ROADMAP
item 1 deletes them): ``decide_fast``, ``ContainerBank.counts``,
``cap_i``/``cap_j``, ``__getattr__("solve_naive")``, and ProblemSpec's
``m``/``l1max``/``l2max`` as properties, whose getters it wraps.
"""

from __future__ import annotations

from itertools import accumulate, islice, repeat
from operator import mul

from .model import Arities, ProblemSpec


# A packing: one (x, y) origin per block, in block order.
Locations = tuple[tuple[int, int], ...]


def __getattr__(name: str):
    if name != "solve_naive":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .geometry import solve_naive

    return solve_naive


# One table of q**k per arity, shared by every bank: the longest any bank has needed.
_POWERS: dict[int, list[int]] = {}


def _power_table(q: int, top: int) -> list[int]:
    """The shared table [q**0, q**1, ...] of arity q, at least top + 1 long.

    A table too short is replaced by a longer copy, never extended in place,
    so a table a bank already holds never changes under it."""
    table = _POWERS.get(q, [1])
    if len(table) <= top:
        more = accumulate(repeat(q, top + 1 - len(table)), mul, initial=table[-1])
        table = _POWERS[q] = table + list(islice(more, 1, None))
    return table


def _tile(origins: list, a: int, lo: int, hi: int, step: int) -> list:
    """Each origin moved by lo, lo + step, ... below hi along axis a; origin-major, offsets ascending."""
    offsets = range(lo, hi, step)
    if a:
        return [(x, y + s) for x, y in origins for s in offsets]
    return [(x + s, y) for x, y in origins for s in offsets]


class ContainerBank:
    """Counts of free containers on the two cap lines, with the successive-assignment run.

    Caps only descend, one exponent step at a time, and every free container
    of size [q1**i, q2**j] lies on the cap row (j = cap_j) or the cap column
    (i = cap_i).  lines[0][i] counts the cap row and lines[1][j] the cap
    column; both hold the corner (cap_i, cap_j), kept equal, and cells past
    a cap are zero.  Line a runs along axis a, so a cap step on axis a
    splits every container q ways along it: the other line's cells multiply
    by q in place, and the corner folds into the next cell of line a.

    A group of equal blocks is packed by one walk up a cap line: the column
    for blocks as wide as its containers (consume_column), the row for
    blocks as high as its containers (consume_row).  Below the corner, each
    nonzero cell of line a is at a level in live[a]: a walk adds each level
    it deposits at, and a cap step drops the emptied levels, so it costs the
    occupied cells of the line that moves, not the line's length.

    With located=True the bank also keeps origins[a][k], the (x, y) origins
    of the containers lines[a][k] counts (the corner's list is shared),
    moved by every split, take and deposit of the counts, and appends each
    placed block's origin to `placed` in walk order.

    With audit=True the bank also keeps the free-area ledger, the initial
    area minus the area of the blocks placed, updated once per consume call,
    and checks after every descend_caps and consume call that the area the
    lines hold equals the ledger (which shares no arithmetic with the walk),
    that no count lies past a cap and the corner's copies agree, and that
    each cell holds as many origins as its count.  Unaudited banks keep no
    ledger.
    """

    def __init__(self, q: Arities, l1max: int, l2max: int, *, audit: bool = False, located: bool = False):
        self.qs = (q.q1, q.q2)
        # the shared tables of q**k, which may run past the caps; equal arities share one
        self.pow1 = _power_table(q.q1, max(l1max, l2max) if q.q1 == q.q2 else l1max)
        self.pow2 = self.pow1 if q.q1 == q.q2 else _power_table(q.q2, l2max)
        self.pows = (self.pow1, self.pow2)
        self.caps = [l1max, l2max]
        self.lines = ([0] * l1max + [1], [0] * l2max + [1])
        self.live: list[set[int]] = [set(), set()]  # levels below the corner where lines[a] may be nonzero
        self.audit = audit
        self._free = self.pow1[l1max] * self.pow2[l2max] if audit else None
        self.placed: list[tuple[int, int]] = []
        corner = [(0, 0)]
        self.origins = tuple([[] for _ in line[1:]] + [corner] for line in self.lines) if located else None

    @property
    def cap_i(self) -> int:
        return self.caps[0]

    @property
    def cap_j(self) -> int:
        return self.caps[1]

    @property
    def counts(self) -> list:
        """Rows counts[i][j] of the full table for i <= cap_i: row cap_i is the cap
        column, and each row below it holds only its cap_j cell, on the cap row."""
        (ci, cj), (row, col) = self.caps, self.lines
        return [{cj: row[i]} for i in range(ci)] + [col]

    def free_area(self) -> int | None:
        """The audited ledger: the initial area minus the area placed; None unless audit=True."""
        return self._free

    def counted_area(self) -> int:
        (ci, cj), (row, col) = self.caps, self.lines
        return (sum(row[i] * self.pow1[i] for i in range(ci + 1)) * self.pow2[cj]
                + sum(col[j] * self.pow2[j] for j in range(cj)) * self.pow1[ci])

    def _check(self) -> None:
        (ci, cj), (row, col) = self.caps, self.lines
        if self.counted_area() != self._free:
            raise AssertionError("bank area accounting out of balance")
        if any(row[ci + 1:]) or any(col[cj + 1:]) or row[ci] != col[cj]:
            raise AssertionError("free container past a cap, or the cap lines disagree at the corner")
        if self.origins is not None and [list(map(len, o)) for o in self.origins] != list(self.lines):
            raise AssertionError("origin ledger out of step with the counts")

    def descend_caps(self, ci: int, cj: int) -> None:
        """Split every free container so no dimension exceeds the new caps."""
        if not (0 <= ci <= self.caps[0] and 0 <= cj <= self.caps[1]):
            raise ValueError("caps may only descend, and not below 0")
        for a, cap in enumerate((ci, cj)):
            while self.caps[a] > cap:
                self._step(a)
        if self.audit:
            self._check()

    def _step(self, a: int) -> None:
        """Lower cap a by one exponent: every free container splits q ways along axis a."""
        d, c = self.caps[a], self.caps[1 - a]
        q = self.qs[a]
        along, across = self.lines[a], self.lines[1 - a]
        live = self.live[1 - a] = {t for t in self.live[1 - a] if across[t]}  # drop levels the walks emptied
        for t in live:
            across[t] *= q
        across[c] = along[d - 1] = along[d - 1] + along[d] * q
        along[d] = 0
        if self.origins is not None:
            step = self.pows[a][d - 1]
            along_o, across_o = self.origins[a], self.origins[1 - a]
            for t in live:
                across_o[t] = _tile(across_o[t], a, 0, q * step, step)
            along_o[d - 1] += _tile(along_o[d], a, 0, q * step, step)
            across_o[c], along_o[d] = along_o[d - 1], []
        self.caps[a] = d - 1
        self.live[a].discard(d - 1)  # now the corner

    def consume_column(self, i: int, b: int, need: int) -> bool:
        """Pack `need` blocks of size [q1**i, q2**b] into column i, from row b up."""
        return self._consume(1, i, b, need)

    def consume_row(self, j: int, a: int, need: int) -> bool:
        """Pack `need` blocks of size [q1**a, q2**j] into row j, from column a up."""
        return self._consume(0, j, a, need)

    def _consume(self, a: int, at: int, start: int, need: int) -> bool:
        """Pack `need` blocks up cap line a, which lies at level `at` of the other axis."""
        if at != self.caps[1 - a]:
            raise ValueError("blocks are packed on the cap lines only")
        left = self._walk(a, start, need)
        self.lines[1 - a][at] = self.lines[a][self.caps[a]]  # the corner's copy on the other line
        if self.audit:
            self._free -= (need - left) * self.pows[a][start] * self.pows[1 - a][at]
            self._check()
        return left == 0

    def _walk(self, a: int, start: int, need: int) -> int:
        """Greedy walk up cap line a; returns how many blocks did not fit.

        A container at level k of the line holds per = powers[k - start]
        blocks stacked along the line's axis a (arity q).  Cells
        from `start` up to the cap are emptied whole by integer division.  At
        most one container is used in part, by the part < per blocks left;
        its room for per - part more returns as slabs at levels start..k-1,
        which join live[a].  On a located bank, spots holds the line's origin lists.
        """
        line, live, powers = self.lines[a], self.live[a], self.pows[a]
        q, cap = self.qs[a], self.caps[a]
        spots = self.origins[a] if self.origins is not None else None
        step = powers[start]
        k = start
        while need:
            while k <= cap and not line[k]:
                k += 1
            if k > cap:
                return need
            per = powers[k - start]
            used = min(line[k], -(-need // per))  # containers this level gives
            line[k] -= used
            filled = min(need, used * per)
            need -= filled
            if spots is not None:
                taken = spots[k][-used:]
                del spots[k][-used:]
                self.placed += _tile(taken, a, 0, powers[k], step)[:filled]
            part = filled - (used - 1) * per  # blocks in the last container taken
            if part < per:
                # per - 1 has every base-q digit q - 1, so the digits of
                # per - part are q - 1 minus those of part - 1, with no borrow.
                rest, off = part - 1, part * step
                live.update(range(start, k))
                for t in range(start, k):
                    rest, d = divmod(rest, q)
                    line[t] += q - 1 - d
                    if spots is not None:
                        spots[t] += _tile(taken[-1:], a, off, off + (q - 1 - d) * powers[t], powers[t])
                        off += (q - 1 - d) * powers[t]
        return 0


def _pack(bank: ContainerBank, groups: dict[tuple[int, int], int]) -> list[tuple] | None:
    """Successive assignment of groups {(l1, l2): count} of [q1**(l1max-l1), q2**(l2max-l2)]
    blocks, largest first; returns the groups as (max(w, h), w, h, (l1, l2)) in the order
    used, or None at the first that does not fit."""
    pow1, pow2 = bank.pow1, bank.pow2
    top1, top2 = bank.caps  # a fresh bank: l1max, l2max (a shared power table may be longer)
    blocks = []
    for ll in groups:
        w, h = pow1[top1 - ll[0]], pow2[top2 - ll[1]]
        blocks.append((max(w, h), w, h, ll))
    # the total order on sizes; distinct pairs have distinct sizes, so the pair never decides
    blocks.sort(reverse=True)
    caps, pows = bank.caps, bank.pows  # descend_caps lowers caps in place
    for layer, w, h, ll in blocks:
        # The caps descend to the layer, so the walk, up the column (axis t = 1)
        # for w >= h and along the row (t = 0) otherwise, is on a cap line.  For
        # a square block the `=` is a free choice: either walk starts at the
        # corner and takes the same containers, whose origin list both share.
        t = 1 if w >= h else 0
        target = [top1 - ll[0], top2 - ll[1]]  # the block's exponents, then the caps to descend to
        start, powers, cap = target[t], pows[t], caps[t]
        while powers[cap] > layer:  # down to the largest exponent whose power fits the layer
            cap -= 1
        target[t] = cap
        if target != caps:
            bank.descend_caps(*target)
        if not (bank.consume_column if t else bank.consume_row)(target[1 - t], start, groups[ll]):
            return None
    return blocks


def decide(spec: ProblemSpec, *, audit: bool = False) -> bool:
    """True iff a two-channel prefix code with exactly these lengths exists.

    Matches the reference geometry.solve_naive's verdict on the single
    initial container [q1**l1max, q2**l2max] while never materializing
    locations.  It reads only the spec's histogram of g distinct pairs (which
    ProblemSpec.from_groups builds in O(g)) and runs O(g log g + g *
    max(l1max, l2max) + s) big-integer operations, where s is the number of
    occupied cap-line cells moved by the at most l1max + l2max cap steps,
    and keeps l1max + l2max + 2 counts.
    """
    bank = ContainerBank(spec.arities, spec.l1max, spec.l2max, audit=audit)
    return _pack(bank, spec.groups) is not None


decide_fast = decide  # the name benchmarks/tracer.py wraps


def construct(spec: ProblemSpec, *, audit: bool = False) -> Locations | None:
    """Explicit packing of the canonical instance: the origin of each
    codeword's block, in input order, or None when none exists.

    Runs decide's group loop on a located bank, so the verdict is
    decide's; each group's placements go to its codewords in input order.
    The bank holds an origin per free container, so the grid must be
    enumerable, unlike for decide().
    """
    bank = ContainerBank(spec.arities, spec.l1max, spec.l2max, audit=audit, located=True)
    order = _pack(bank, spec.groups)
    if order is None:
        return None
    # bank.placed runs group by group in pack order; each group's placements
    # go out in turn to its codewords
    placed = iter(bank.placed)
    spots = {ll: iter(tuple(islice(placed, spec.groups[ll]))) for *_, ll in order}
    return tuple(map(next, map(spots.__getitem__, spec.lengths)))
