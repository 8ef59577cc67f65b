"""The free-area ledger: packer.ContainerBank with its counts audited, kept as a test check on the bank.

An AuditedBank also keeps the free-area ledger, the initial area minus the
area of the blocks placed, updated once per consume call.  After every
descend_caps and consume call it checks that the area the lines hold equals
the ledger (which shares no arithmetic with the walk), that no count lies
past a cap and the corner's copies agree, and that each cell holds as many
origins as its count.  It reads each cell's true count as stored times
q_b**(stamp - cap_b), as the `counts` view does, and brings no cell up to
date, so an audited run walks stale cells as a plain one does.  The shipped
bank keeps no ledger: its update multiplies two powers per group, about a
fifth of decide's time on codes whose block sides have over a thousand bits.

To run decide and construct audited, a test patches packer.ContainerBank
with AuditedBank (monkeypatch.setattr(packer, "ContainerBank", AuditedBank)).
"""

from prefixpack.packer import ContainerBank, _tile


class AuditedBank(ContainerBank):
    def __init__(self, q, l1max, l2max, *, located=False):
        super().__init__(q, l1max, l2max, located=located)
        self._free = self.pow1[l1max] * self.pow2[l2max]
        self._left = None  # what the last walk left unplaced

    def free_area(self) -> int:
        """The ledger: the initial area minus the area placed."""
        return self._free

    def true_lines(self) -> tuple[list, list]:
        """Each cell's true count: line a's stored count split by the other axis b's cap steps since its stamp."""
        return tuple([n * self.pows[1 - a][s - self.caps[1 - a]] for n, s in zip(self.lines[a], self.stamps[a])]
                     for a in (0, 1))

    def true_origins(self) -> tuple[list, list]:
        """Each cell's origins as its true count's containers: a stale list tiled as _fresh would tile it."""
        caps, pows = self.caps, self.pows
        return tuple([_tile(o, 1 - a, 0, pows[1 - a][s], pows[1 - a][caps[1 - a]])
                      for o, s in zip(self.origins[a], self.stamps[a])] for a in (0, 1))

    def counted_area(self) -> int:
        (ci, cj), (row, col) = self.caps, self.true_lines()
        return (sum(row[i] * self.pow1[i] for i in range(ci + 1)) * self.pow2[cj]
                + sum(col[j] * self.pow2[j] for j in range(cj)) * self.pow1[ci])

    def _check(self) -> None:
        (ci, cj), (row, col) = self.caps, self.true_lines()
        if self.counted_area() != self._free:
            raise AssertionError("bank area accounting out of balance")
        if any(row[ci + 1:]) or any(col[cj + 1:]) or row[ci] != col[cj]:
            raise AssertionError("free container past a cap, or the cap lines disagree at the corner")
        # a stale cell's origins are as stale as its stored count
        if self.origins is not None and [list(map(len, o)) for o in self.origins] != list(self.lines):
            raise AssertionError("origin ledger out of step with the counts")

    def descend_caps(self, ci: int, cj: int) -> None:
        super().descend_caps(ci, cj)
        self._check()

    def _walk(self, a: int, start: int, need: int) -> int:
        self._left = super()._walk(a, start, need)
        return self._left

    def _consume(self, a: int, at: int, start: int, need: int) -> bool:
        ok = super()._consume(a, at, start, need)
        self._free -= (need - self._left) * self.pows[a][start] * self.pows[1 - a][at]
        self._check()
        return ok
