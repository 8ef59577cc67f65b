"""The greedy container bank behind decide and construct.

``ContainerBank`` counts the free containers of each size [q1**i, q2**j]
on the only two lines that hold any, one cap column and one cap row.  Blocks
are processed grouped by size in descending order; a cap step folds only
the corner, the other cells of a cap line split when a walk reads them, and
each group is packed by one walk up a cap line.  Counts are plain Python ints on
purpose: they reach q1**l1max * q2**l2max, far beyond 64 bits for inputs
this path must handle.  Each bank builds its own tables of powers q**k up to
its caps, one table for both axes when q1 == q2, and they are freed with it.
``decide`` and ``construct`` share one group loop (one branch walks either
cap line); ``construct``'s bank also keeps the (x, y) origin of every free
container, which yields the locations, while the verdict stays the counts'.

The bank is tested against the reference packer ``geometry.solve_naive``,
which takes the canonical instance's bare tuples as
``codes.lengths_to_instance`` builds them; no command runs it.

Kept only for benchmarks/tracer.py, which looks these names up (ROADMAP
items 4 and 9 delete them): ``decide_fast``, ``ContainerBank.counts``,
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


def _powers(q: int, top: int) -> list[int]:
    """The table [q**0, q**1, ..., q**top], by running product."""
    return list(accumulate(repeat(q, top), mul, initial=1))


def _tile(origins: list, a: int, lo: int, hi: int, step: int) -> list:
    """Each origin moved by lo, lo + step, ... below hi along axis a; origin-major, offsets ascending."""
    if not origins or (lo, hi) == (0, step):
        return origins  # nothing moves: the list itself, not a copy
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
    splits every container q ways along it: the corner folds into the next
    cell of line a, and the other line's cells split lazily.  stamps[a][t] is
    the other axis b's cap when cell t of line a was last brought up to date
    (_fresh), so its true count is lines[a][t] * q_b**(stamps[a][t] - caps[b]);
    a cap step stamps only the corner's copy.

    A group of equal blocks is packed by one walk up a cap line: the column
    for blocks as wide as its containers (consume_column), the row for
    blocks as high as its containers (consume_row).

    With located=True the bank also keeps origins[a][k], the (x, y) origins
    of the containers lines[a][k] counts (the corner's list is shared),
    moved by every split, take and deposit of the counts, and appends each
    placed block's origin to `placed` in walk order.
    """

    def __init__(self, q: Arities, l1max: int, l2max: int, *, located: bool = False):
        q1, q2 = self.qs = (q.q1, q.q2)
        # the tables of q**k up to the caps; equal arities share one, as long as the longer cap
        self.pow1 = _powers(q1, max(l1max, l2max) if q1 == q2 else l1max)
        self.pow2 = self.pow1 if q1 == q2 else _powers(q2, l2max)
        self.pows = (self.pow1, self.pow2)
        self.caps = [l1max, l2max]
        self.lines = ([0] * l1max + [1], [0] * l2max + [1])
        self.stamps = ([l2max] * (l1max + 1), [l1max] * (l2max + 1))
        self.placed: list[tuple[int, int]] = []
        corner = [(0, 0)]  # one origin list, shared by both lines' copies of the corner
        self.origins = ([[] for _ in range(l1max)] + [corner],
                        [[] for _ in range(l2max)] + [corner]) if located else None

    @property
    def cap_i(self) -> int:
        return self.caps[0]

    @property
    def cap_j(self) -> int:
        return self.caps[1]

    @property
    def counts(self) -> list:
        """True counts[i][j] of the full table for i <= cap_i, scaled by the stamps: row cap_i
        is the cap column, and each row below it holds only its cap_j cell, on the cap row."""
        (ci, cj), (row, col), (srow, scol) = self.caps, self.lines, self.stamps
        col = [n * self.pow1[s - ci] for n, s in zip(col, scol)]
        return [{cj: row[i] * self.pow2[srow[i] - cj]} for i in range(ci)] + [col]

    def descend_caps(self, ci: int, cj: int) -> None:
        """Split every free container so no dimension exceeds the new caps."""
        if not (0 <= ci <= self.caps[0] and 0 <= cj <= self.caps[1]):
            raise ValueError("caps may only descend, and not below 0")
        while self.caps[0] > ci:
            self._step(0)
        while self.caps[1] > cj:
            self._step(1)

    def _step(self, a: int) -> None:
        """Lower cap a by one exponent: the corner folds, and the other line's cells fall a step behind."""
        d, c, q = self.caps[a], self.caps[1 - a], self.qs[a]
        along, across = self.lines[a], self.lines[1 - a]
        if self.stamps[a][d - 1] != c:
            self._fresh(a, d - 1)
        across[c] = along[d - 1] = along[d - 1] + along[d] * q
        along[d] = 0
        self.stamps[1 - a][c] = d - 1  # the corner's copy is up to date
        if self.origins is not None:
            step = self.pows[a][d - 1]
            along_o = self.origins[a]
            along_o[d - 1] += _tile(along_o[d], a, 0, q * step, step)
            self.origins[1 - a][c], along_o[d] = along_o[d - 1], []
        self.caps[a] = d - 1

    def _fresh(self, a: int, t: int) -> None:
        """Bring stale cell t of line a up to date: split it by the other axis b's cap steps since its stamp."""
        b = 1 - a
        was, now = self.stamps[a][t], self.caps[b]
        self.lines[a][t] *= self.pows[b][was - now]
        if self.origins is not None:
            spots = self.origins[a]  # in the order of was - now single-step tilings
            spots[t] = _tile(spots[t], b, 0, self.pows[b][was], self.pows[b][now])
        self.stamps[a][t] = now

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
        return left == 0

    def _walk(self, a: int, start: int, need: int) -> int:
        """Greedy walk up cap line a; returns how many blocks did not fit.

        A container at level k of the line holds per = powers[k - start]
        blocks stacked along the line's axis a (arity q).  Cells
        from `start` up to the cap are emptied whole by integer division.  At
        most one container is used in part, by the part < per blocks left;
        its room for per - part more returns as slabs at levels start..k-1.
        Each cell the walk takes from or adds to, an empty one too, is brought
        up to date first.  On a located bank, spots holds the line's origin lists.
        """
        line, powers, stamps = self.lines[a], self.pows[a], self.stamps[a]
        q, cap, now = self.qs[a], self.caps[a], self.caps[1 - a]
        spots = self.origins[a] if self.origins is not None else None
        step = powers[start]
        k = start
        while need:
            while k <= cap and not line[k]:
                k += 1
            if k > cap:
                return need
            if stamps[k] != now:
                self._fresh(a, k)
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
                for t in range(start, k):
                    rest, d = divmod(rest, q)
                    if stamps[t] != now:
                        self._fresh(a, t)
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
    top1, top2 = bank.caps  # a fresh bank: l1max, l2max
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


def decide(spec: ProblemSpec) -> bool:
    """True iff a two-channel prefix code with exactly these lengths exists.

    Matches the reference geometry.solve_naive's verdict on the single
    initial container [q1**l1max, q2**l2max] while never materializing
    locations.  It reads only the spec's histogram of g distinct pairs (which
    ProblemSpec.from_groups builds in O(g)) and runs O(g log g + g *
    max(l1max, l2max)) big-integer operations, a cap step folding one cell,
    and keeps l1max + l2max + 2 counts.
    """
    bank = ContainerBank(spec.arities, spec.l1max, spec.l2max)
    return _pack(bank, spec.groups) is not None


decide_fast = decide  # the name benchmarks/tracer.py wraps


def construct(spec: ProblemSpec) -> Locations | None:
    """Explicit packing of the canonical instance: the origin of each
    codeword's block, in input order, or None when none exists.

    Runs decide's group loop on a located bank, so the verdict is
    decide's; each group's placements go to its codewords in input order.
    The bank holds an origin per free container, so the grid must be
    enumerable, unlike for decide().
    """
    bank = ContainerBank(spec.arities, spec.l1max, spec.l2max, located=True)
    order = _pack(bank, spec.groups)
    if order is None:
        return None
    # bank.placed runs group by group in pack order; each group's placements
    # go out in turn to its codewords
    placed, groups, spots = iter(bank.placed), spec.groups, {}
    for _, _, _, ll in order:
        spots[ll] = iter(tuple(islice(placed, groups[ll])))
    return tuple(map(next, map(spots.__getitem__, spec.lengths)))
