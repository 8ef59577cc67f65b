"""The two packing algorithms behind the prefix-code decision.

``solve_naive`` runs the greedy packer with explicit locations: per block it
re-cuts every container at hand to the componentwise maximum of the remaining
block sizes, then packs the largest block into the lower-left corner of a
smallest adequate container.  Its absence/presence answer is the existence
decision, and its locations feed codebook extraction.

``decide_fast`` answers the same question for the canonical single-container
instance without materializing a single location.  Its ``ContainerBank``
keeps only a 2D count array A[i][j] = number of free containers of size
[q1**i, q2**j].  Blocks are processed grouped by size in descending order;
counts split one exponent step at a time when the layer descends, and each
group is packed by one walk along a column or row of the array that empties
whole cells by integer division.  The one container a group uses in part
returns its unused room in closed form: room for per - left more blocks,
whose base-q digits are q - 1 minus those of left - 1, one small add per
level.  Under audit the counted area is checked against a ledger of the
initial area minus the area placed.  Counts are plain Python ints on purpose:
they reach q1**l1max * q2**l2max, far beyond 64 bits for inputs this path
must handle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from . import codes
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
    """Cells counts[k][j] of one row j, indexed by k, for consume_row's walk."""

    __slots__ = ("counts", "j")

    def __init__(self, counts: list[list[int]], j: int):
        self.counts = counts
        self.j = j

    def __getitem__(self, k: int) -> int:
        return self.counts[k][self.j]

    def __setitem__(self, k: int, value: int) -> None:
        self.counts[k][self.j] = value


class ContainerBank:
    """Count array over free-container sizes, with the successive-assignment run.

    counts[i][j] is the number of free containers of size [q1**i, q2**j].
    Cells above the current caps are always zero; caps only descend, one
    exponent step at a time, multiplying counts by q1 (resp. q2) as containers
    split.  A group of equal blocks is packed by one walk along a line of
    cells: column i for blocks as wide as its containers (consume_column), row
    j for blocks as high as its containers (consume_row).

    The free-area ledger is the initial area minus the area of the blocks
    placed, updated once per consume call.  With audit=True the bank checks
    after every descend_caps and consume call that the area the counts hold
    equals the ledger.  The ledger shares no arithmetic with the walk, so a
    wrong split or leftover deposit shows up as an imbalance.
    """

    def __init__(self, q: Arities, l1max: int, l2max: int, *, audit: bool = False):
        self.q = q
        self.l1max = l1max
        self.l2max = l2max
        self.pow1 = [q.q1**i for i in range(l1max + 1)]
        self.pow2 = [q.q2**j for j in range(l2max + 1)]
        self.counts = [[0] * (l2max + 1) for _ in range(l1max + 1)]
        self.counts[l1max][l2max] = 1
        self.cap_i = l1max
        self.cap_j = l2max
        self.audit = audit
        self._free = self.pow1[l1max] * self.pow2[l2max]

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

    def descend_caps(self, ci: int, cj: int) -> None:
        """Split every free container so no dimension exceeds the new caps."""
        if ci > self.cap_i or cj > self.cap_j:
            raise ValueError("caps may only descend")
        while self.cap_i > ci:
            src = self.counts[self.cap_i]
            dst = self.counts[self.cap_i - 1]
            for j in range(self.cap_j + 1):
                if src[j]:
                    dst[j] += src[j] * self.q.q1
                    src[j] = 0
            self.cap_i -= 1
        while self.cap_j > cj:
            for i in range(self.cap_i + 1):
                row = self.counts[i]
                if row[self.cap_j]:
                    row[self.cap_j - 1] += row[self.cap_j] * self.q.q2
                    row[self.cap_j] = 0
            self.cap_j -= 1
        self._check()

    def consume_column(self, i: int, b: int, need: int) -> bool:
        """Pack `need` blocks of size [q1**i, q2**b] into column i, from row b up."""
        left = self._walk(self.counts[i], self.pow2, self.q.q2, b, self.cap_j, need)
        self._settle(need - left, self.pow1[i] * self.pow2[b])
        return left == 0

    def consume_row(self, j: int, a: int, need: int) -> bool:
        """Pack `need` blocks of size [q1**a, q2**j] into row j, from column a up."""
        left = self._walk(_RowView(self.counts, j), self.pow1, self.q.q1, a, self.cap_i, need)
        self._settle(need - left, self.pow1[a] * self.pow2[j])
        return left == 0

    def _settle(self, placed: int, block_area: int) -> None:
        self._free -= placed * block_area
        self._check()

    @staticmethod
    def _walk(line, powers: list[int], q: int, start: int, cap: int, need: int) -> int:
        """Greedy walk up one line of cells; returns how many blocks did not fit.

        A container at level k of the line holds per = powers[k - start]
        blocks stacked along the line's axis (q is that axis's arity).  Cells
        from `start` up to `cap` are emptied whole by integer division.  At
        most one container is used in part, by the need < per blocks still
        unplaced; its room for per - need more returns as slabs at levels
        start..k-1.
        """
        k = start
        while need:
            while k <= cap and not line[k]:
                k += 1
            if k > cap:
                return need
            per = powers[k - start]
            full = min(line[k], need // per)
            line[k] -= full
            need -= full * per
            if need and line[k]:  # need < per here
                line[k] -= 1
                # per - 1 has every base-q digit q - 1, so the digits of
                # per - need are q - 1 minus those of need - 1, with no borrow.
                rest = need - 1
                for t in range(start, k):
                    rest, d = divmod(rest, q)
                    line[t] += q - 1 - d
                need = 0
        return 0


def _floor_exp(value: int, powers: list[int], cap: int) -> int:
    """Largest exponent e <= cap with powers[e] <= value."""
    e = cap
    while powers[e] > value:
        e -= 1
    return e


def decide_fast(spec: ProblemSpec, *, audit: bool = False) -> bool:
    """Existence decision on the canonical instance via the count array.

    Matches solve_naive's verdict on the single initial container
    [q1**l1max, q2**l2max] while never materializing locations; runtime is
    O(m + l1max * l2max * max(l1max, l2max)) after grouping.
    """
    if spec.m == 0:
        return True
    l1max, l2max = spec.l1max, spec.l2max
    groups: dict[tuple[int, int], int] = {}
    for l1, l2 in spec.lengths:
        key = (l1max - l1, l2max - l2)
        groups[key] = groups.get(key, 0) + 1

    bank = ContainerBank(spec.arities, l1max, l2max, audit=audit)
    pow1, pow2 = bank.pow1, bank.pow2
    order = sorted(
        groups,
        key=lambda ab: (max(pow1[ab[0]], pow2[ab[1]]), pow1[ab[0]], pow2[ab[1]]),
        reverse=True,
    )
    for a, b in order:
        w, h = pow1[a], pow2[b]
        layer = max(w, h)
        ci = min(bank.cap_i, _floor_exp(layer, pow1, bank.cap_i))
        cj = min(bank.cap_j, _floor_exp(layer, pow2, bank.cap_j))
        bank.descend_caps(ci, cj)
        if w >= h:
            ok = bank.consume_column(a, b, groups[(a, b)])
        else:
            ok = bank.consume_row(b, a, groups[(a, b)])
        if not ok:
            return False
    return True


def decide(spec: ProblemSpec) -> bool:
    """True iff a two-channel prefix code with exactly these lengths exists."""
    return decide_fast(spec)


def construct(spec: ProblemSpec) -> Solution | None:
    """Explicit packing of the canonical instance, or None when none exists.

    Assignment indices refer to positions in spec.lengths, so the result maps
    straight onto codewords.  Uses the location-tracking packer; meant for
    instances whose container dimensions are enumerable, unlike decide().
    """
    inst = codes.lengths_to_instance(spec)
    order = sorted(
        range(spec.m), key=lambda k: total_key(inst.blocks[k].size), reverse=True
    )
    sorted_blocks = [inst.blocks[k] for k in order]
    sol = solve_naive(sorted_blocks, [inst.container], spec.arities)
    if sol is None:
        return None
    remapped = sorted(Placement(order[p.index], p.x, p.y) for p in sol.assignments)
    return Solution(tuple(remapped))
