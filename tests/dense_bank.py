"""The dense-table container bank, kept as a test reference for packer.ContainerBank.

It keeps the origins of the free containers of every size [q1**i, q2**j] in
one table keyed by (i, j), with no cap lines, live levels or shared corner,
and packs one group of equal blocks at a time: caps descend to the group's
layer, then a walk up the line of containers as wide (or as high) as the
blocks takes the newest containers of each level first and frees the rest
of a partly used one as its largest aligned pieces, lowest offset first.
"""

from prefixpack.geometry import Size, total_key


def _shift(o, axis, offset):
    return (o[0] + offset, o[1]) if axis == 0 else (o[0], o[1] + offset)


class DenseBank:
    def __init__(self, q, l1max, l2max):
        self.q, self.caps = (q.q1, q.q2), [l1max, l2max]
        self.cells = {(l1max, l2max): [(0, 0)]}  # (i, j) -> origins of the free [q1**i, q2**j]
        self.free = q.q1**l1max * q.q2**l2max
        self.placed = []

    def count(self, i, j):
        return len(self.cells.get((i, j), ()))

    def descend(self, axis, cap):
        qa = self.q[axis]
        while self.caps[axis] > cap:
            d = self.caps[axis]
            for key in [key for key in self.cells if key[axis] == d]:
                low = (d - 1, key[1]) if axis == 0 else (key[0], d - 1)
                self.cells.setdefault(low, []).extend(
                    _shift(o, axis, s * qa ** (d - 1)) for o in self.cells.pop(key) for s in range(qa))
            self.caps[axis] = d - 1

    def order(self, groups, lmax):
        """The groups {(l1, l2): count} as ((i, j), count) block exponents, largest block first."""
        exps = {(lmax[0] - l1, lmax[1] - l2): n for (l1, l2), n in groups.items()}
        return sorted(exps.items(), key=lambda e: total_key(Size(self.q[0] ** e[0][0], self.q[1] ** e[0][1])),
                      reverse=True)

    def pack(self, i, j, need):
        """Place `need` blocks [q1**i, q2**j]; True when all fit."""
        layer = max(self.q[0] ** i, self.q[1] ** j)
        for axis in (0, 1):
            e = self.caps[axis]
            while self.q[axis] ** e > layer:
                e -= 1
            self.descend(axis, e)
        axis, start = (1, j) if self.q[0] ** i >= self.q[1] ** j else (0, i)  # the axis blocks stack along
        qa, step, placed = self.q[axis], self.q[axis] ** start, len(self.placed)
        cell = (lambda k: (i, k)) if axis == 1 else (lambda k: (k, j))
        for k in range(start, self.caps[axis] + 1):
            origins = self.cells.get(cell(k), [])
            used = min(len(origins), -(-need // qa ** (k - start)))
            taken = origins[len(origins) - used:]
            del origins[len(origins) - used:]
            for o in taken:
                n = min(qa ** (k - start), need)
                need -= n
                self.placed += [_shift(o, axis, s * step) for s in range(n)]
                off = n * step
                while off < qa**k:
                    t = start
                    while off % qa ** (t + 1) == 0 and off + qa ** (t + 1) <= qa**k:
                        t += 1
                    self.cells.setdefault(cell(t), []).append(_shift(o, axis, off))
                    off += qa**t
        self.free -= (len(self.placed) - placed) * self.q[0] ** i * self.q[1] ** j
        return need == 0
