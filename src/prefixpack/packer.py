"""The greedy container bank behind decide and construct, and its naive reference.

``ContainerBank`` keeps a 2D count array A[i][j] = number of free containers
of size [q1**i, q2**j].  Blocks are processed grouped by size in descending
order; the occupied cells of a cap line split one exponent step at a time
when the layer descends, and each group is packed by one walk along a column
or row of the array.  Counts are plain Python ints on purpose: they reach
q1**l1max * q2**l2max, far beyond 64 bits for inputs this path must handle.
``decide_fast`` and ``construct`` share one group loop over the bank; for
``construct`` the bank also keeps the (x, y) origin of every free container,
which yields the block locations, while the verdict stays the count ledger's.

``solve_naive`` is the reference the bank is tested against: per block it
re-cuts every container at hand with ``cut_sigma`` to the componentwise
maximum of the remaining block sizes, then packs the largest block into the
lower-left corner of a smallest adequate container.  No command runs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .geometry import corner_cut_regions, cut_sigma, overlap
from .model import (
    Arities,
    Block,
    ProblemSpec,
    Region,
    Size,
    covers,
    is_regular,
    is_sorted_desc,
    total_key,
)


class Placement(NamedTuple):
    index: int
    x: int
    y: int


@dataclass(frozen=True)
class Solution:
    """Per-block packed locations: aligned, non-overlapping, each in one container."""

    assignments: tuple[Placement, ...]


def _validate_containers(containers: Sequence[Region]) -> None:
    for i in range(len(containers)):
        for j in range(i + 1, len(containers)):
            if overlap(containers[i], containers[j]):
                raise ValueError(
                    f"containers must not overlap: {containers[i]} vs {containers[j]}"
                )


def solve_naive(
    blocks: Sequence[Block], containers: Sequence[Region], q: Arities
) -> Solution | None:
    """Greedy packer with explicit locations; None means no packing exists.

    Expects blocks pre-sorted descending under the total order (rejected
    otherwise, as are overlapping containers and non-regular block sizes).
    Ties among equally small candidate containers are broken by
    lexicographically smallest (x, y) so outputs are reproducible.
    """
    if not is_sorted_desc(blocks):
        raise ValueError("blocks must be sorted descending under the total order")
    for b in blocks:
        if not is_regular(b.size, q):
            raise ValueError(f"block size [{b.size.w}, {b.size.h}] is not regular")
    _validate_containers(containers)

    n = len(blocks)
    if n == 0:
        return Solution(())
    # Suffix componentwise maxima: s*[i] bounds every block from i on.
    smax: list[Size] = [Size(1, 1)] * n
    w, h = blocks[n - 1].size.w, blocks[n - 1].size.h
    smax[n - 1] = Size(w, h)
    for i in range(n - 2, -1, -1):
        w = max(w, blocks[i].size.w)
        h = max(h, blocks[i].size.h)
        smax[i] = Size(w, h)

    pool: list[Region] = list(containers)
    assignments: list[Placement] = []
    for i, blk in enumerate(blocks):
        cut_pool: list[Region] = []
        for r in pool:
            cut_pool.extend(cut_sigma(r, smax[i], q))
        pool = cut_pool
        adequate = [r for r in pool if covers(r.size, blk.size)]
        if not adequate:
            return None
        target = min(adequate, key=lambda r: (total_key(r.size), r.x, r.y))
        assignments.append(Placement(i, target.x, target.y))
        pool.remove(target)
        if target.size != blk.size:
            pool.extend(corner_cut_regions(target, blk.size, q))
    return Solution(tuple(assignments))


class _RowView:
    """Cells grid[k][j] of one row j, indexed by k, for the row walks."""

    __slots__ = ("grid", "j")

    def __init__(self, grid: list[list], j: int):
        self.grid = grid
        self.j = j

    def __getitem__(self, k: int):
        return self.grid[k][self.j]

    def __setitem__(self, k: int, value) -> None:
        self.grid[k][self.j] = value


def _strip(o: tuple[int, int], u: tuple[int, int], lo: int, hi: int, step: int) -> list:
    """Origins at offsets lo, lo + step, ... below hi from o along the axis u."""
    return [(o[0] + s * u[0], o[1] + s * u[1]) for s in range(lo, hi, step)]


def _split(src, dst, cells: list[int], q: int, step: int, u: tuple[int, int]) -> None:
    """Move the origins in src[t] for t in cells to dst, each cut into q parts step apart along u."""
    for t in cells:
        dst[t] += [p for o in src[t] for p in _strip(o, u, 0, q * step, step)]
        src[t] = []


class ContainerBank:
    """Count array over free-container sizes, with the successive-assignment run.

    counts[i][j] is the number of free containers of size [q1**i, q2**j].
    Cells above the current caps are always zero; caps only descend, one
    exponent step at a time, multiplying counts by q1 (resp. q2) as containers
    split.  A group of equal blocks is packed by one walk along a line of
    cells: column i for blocks as wide as its containers (consume_column), row
    j for blocks as high as its containers (consume_row).

    With located=True the bank also keeps origins[i][j], the (x, y) origins
    of the containers counts[i][j] counts, moved by every split, take and
    deposit of the counts, and appends each placed block's origin to
    `placed` in walk order.

    Column walks run on column cap_i and row walks on row cap_j, so every
    free container (and origin) lies in counts[cap_i][*] or counts[*][cap_j].
    Below the corner (cap_i, cap_j), each nonzero cell of the cap column (row)
    is at a level in live_col (live_row): a walk adds each level it deposits
    at, and a cap step drops the emptied levels and moves the rest and the
    corner, so it costs the occupied cells of the line, not its length.

    The free-area ledger is the initial area minus the area of the blocks
    placed, updated once per consume call.  With audit=True the bank checks
    after every descend_caps and consume call that the area the counts hold
    equals the ledger (which shares no arithmetic with the walk), that no
    count lies off the cap lines, and that each cell holds as many origins
    as its count.
    """

    def __init__(self, q: Arities, l1max: int, l2max: int, *, audit: bool = False, located: bool = False):
        self.q = q
        self.pow1 = [q.q1**i for i in range(l1max + 1)]
        self.pow2 = [q.q2**j for j in range(l2max + 1)]
        self.counts = [[0] * (l2max + 1) for _ in range(l1max + 1)]
        self.counts[l1max][l2max] = 1
        self.cap_i = l1max
        self.cap_j = l2max
        self.live_col: set[int] = set()  # levels j < cap_j where counts[cap_i][j] may be nonzero
        self.live_row: set[int] = set()  # levels i < cap_i where counts[i][cap_j] may be nonzero
        self.audit = audit
        self._free = self.pow1[l1max] * self.pow2[l2max]
        self.placed: list[tuple[int, int]] = []
        self.origins = [[[(0, 0)] * cnt for cnt in row] for row in self.counts] if located else None

    def free_area(self) -> int:
        return self._free

    def counted_area(self) -> int:
        return sum(
            cnt * self.pow1[i] * self.pow2[j]
            for i, row in enumerate(self.counts)
            for j, cnt in enumerate(row)
        )

    def _check(self) -> None:
        if self.audit and self.counted_area() != self._free:
            raise AssertionError("bank area accounting out of balance")
        if self.audit and any(cnt for i, row in enumerate(self.counts) if i != self.cap_i
                              for j, cnt in enumerate(row) if j != self.cap_j):
            raise AssertionError("free container off the cap column and row")
        if self.audit and self.origins is not None and [list(map(len, r)) for r in self.origins] != self.counts:
            raise AssertionError("origin ledger out of step with the counts")

    def descend_caps(self, ci: int, cj: int) -> None:
        """Split every free container so no dimension exceeds the new caps."""
        if ci > self.cap_i or cj > self.cap_j:
            raise ValueError("caps may only descend")
        while self.cap_i > ci:
            src = self.counts[self.cap_i]
            dst = self.counts[self.cap_i - 1]
            self.live_col = {j for j in self.live_col if src[j]}  # drop levels the walks emptied
            cells = [*self.live_col, self.cap_j]
            for j in cells:
                dst[j] += src[j] * self.q.q1
                src[j] = 0
            if self.origins is not None:
                _split(self.origins[self.cap_i], self.origins[self.cap_i - 1], cells,
                       self.q.q1, self.pow1[self.cap_i - 1], (1, 0))
            self.cap_i -= 1
            self.live_row.discard(self.cap_i)  # now the corner
        while self.cap_j > cj:
            self.live_row = {i for i in self.live_row if self.counts[i][self.cap_j]}
            cells = [*self.live_row, self.cap_i]
            for i in cells:
                row = self.counts[i]
                row[self.cap_j - 1] += row[self.cap_j] * self.q.q2
                row[self.cap_j] = 0
            if self.origins is not None:
                _split(_RowView(self.origins, self.cap_j), _RowView(self.origins, self.cap_j - 1),
                       cells, self.q.q2, self.pow2[self.cap_j - 1], (0, 1))
            self.cap_j -= 1
            self.live_col.discard(self.cap_j)  # now the corner
        self._check()

    def consume_column(self, i: int, b: int, need: int) -> bool:
        """Pack `need` blocks of size [q1**i, q2**b] into column i, from row b up."""
        spots = self.origins[i] if self.origins is not None else None
        left = self._walk(self.counts[i], spots, self.live_col, self.pow2, self.q.q2, b, self.cap_j,
                          need, (0, 1))
        self._settle(need - left, self.pow1[i] * self.pow2[b])
        return left == 0

    def consume_row(self, j: int, a: int, need: int) -> bool:
        """Pack `need` blocks of size [q1**a, q2**j] into row j, from column a up."""
        spots = _RowView(self.origins, j) if self.origins is not None else None
        left = self._walk(_RowView(self.counts, j), spots, self.live_row, self.pow1, self.q.q1, a, self.cap_i,
                          need, (1, 0))
        self._settle(need - left, self.pow1[a] * self.pow2[j])
        return left == 0

    def _settle(self, placed: int, block_area: int) -> None:
        self._free -= placed * block_area
        self._check()

    def _walk(self, line, spots, live: set[int], powers: list[int], q: int, start: int, cap: int,
              need: int, u: tuple[int, int]) -> int:
        """Greedy walk up one line of cells; returns how many blocks did not fit.

        A container at level k of the line holds per = powers[k - start]
        blocks stacked along the line's axis (arity q, direction u).  Cells
        from `start` up to `cap` are emptied whole by integer division.  At
        most one container is used in part, by the part < per blocks left;
        its room for per - part more returns as slabs at levels start..k-1.
        On a located bank, spots holds the line's origin lists; levels it deposits at join live.
        """
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
                self.placed += [p for o in taken for p in _strip(o, u, 0, powers[k], step)][:filled]
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
                        spots[t] += _strip(taken[-1], u, off, off + (q - 1 - d) * powers[t], powers[t])
                        off += (q - 1 - d) * powers[t]
        return 0


def _floor_exp(value: int, powers: list[int], cap: int) -> int:
    """Largest exponent e <= cap with powers[e] <= value."""
    e = cap
    while powers[e] > value:
        e -= 1
    return e


def _pack(bank: ContainerBank, groups: dict[tuple[int, int], int]) -> list[tuple[int, int]] | None:
    """Successive assignment of groups {(l1, l2): count} of [q1**(l1max-l1), q2**(l2max-l2)]
    blocks, largest first; returns the order used, or None at the first that does not fit."""
    pow1, pow2 = bank.pow1, bank.pow2
    top1, top2 = len(pow1) - 1, len(pow2) - 1
    size = {(l1, l2): (pow1[top1 - l1], pow2[top2 - l2]) for l1, l2 in groups}
    order = sorted(groups, key=lambda ll: (max(size[ll]), *size[ll]), reverse=True)
    for l1, l2 in order:
        a, b = top1 - l1, top2 - l2
        w, h = size[(l1, l2)]
        if w >= h:  # the caps descend to the layer max(w, h), so this walk is on a cap line
            bank.descend_caps(a, _floor_exp(w, pow2, bank.cap_j))
            ok = bank.consume_column(a, b, groups[(l1, l2)])
        else:
            bank.descend_caps(_floor_exp(h, pow1, bank.cap_i), b)
            ok = bank.consume_row(b, a, groups[(l1, l2)])
        if not ok:
            return None
    return order


def decide_fast(spec: ProblemSpec, *, audit: bool = False) -> bool:
    """Existence decision on the canonical instance via the count array.

    Matches solve_naive's verdict on the single initial container
    [q1**l1max, q2**l2max] while never materializing locations.  Past the
    spec's O(m) histogram of g distinct pairs it runs O(g log g + g *
    max(l1max, l2max) + s) big-integer operations, where s is the number of
    occupied cap-line cells moved by the at most l1max + l2max cap steps;
    the (l1max + 1) x (l2max + 1) table is a zero-filled allocation.
    """
    bank = ContainerBank(spec.arities, spec.l1max, spec.l2max, audit=audit)
    return _pack(bank, spec.groups) is not None


def decide(spec: ProblemSpec) -> bool:
    """True iff a two-channel prefix code with exactly these lengths exists."""
    return decide_fast(spec)


def construct(spec: ProblemSpec, *, audit: bool = False) -> Solution | None:
    """Explicit packing of the canonical instance, or None when none exists.

    Runs decide_fast's group loop on a located bank, so the verdict is
    decide's; each group's placements go to its codewords in input order.
    The bank holds an origin per free container, so the grid must be
    enumerable, unlike for decide().
    """
    bank = ContainerBank(spec.arities, spec.l1max, spec.l2max, audit=audit, located=True)
    order = _pack(bank, spec.groups)
    if order is None:
        return None
    # bank.placed runs group by group in pack order; a stable sort matches it to the codewords
    rank = {ll: r for r, ll in enumerate(order)}
    owners = sorted(range(spec.m), key=lambda k: rank[spec.lengths[k]])
    return Solution(tuple(sorted(Placement(k, *xy) for k, xy in zip(owners, bank.placed))))
