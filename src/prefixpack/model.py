"""Core value types: arities, sizes, regions, blocks, problem instances, orderings.

All values are immutable after construction and every operation here is a pure
function, so everything in this module is safe to share across threads.
Coordinates and dimensions are plain Python ints: container widths reach
q1**l1max, which overflows fixed-width integers for quite modest inputs
(q=10, l=30 already needs 100 bits).
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

# A codeword length is a bare pair (l1, l2); validation happens in ProblemSpec.
LengthTuple = tuple[int, int]


def ilog_exact(n: int, base: int) -> int | None:
    """Exponent e with base**e == n, or None if n is not a power of base."""
    if n < 1:
        return None
    e = 0
    while n % base == 0:
        n //= base
        e += 1
    return e if n == 1 else None


@dataclass(frozen=True)
class Arities:
    """Alphabet sizes of the two channels."""

    q1: int
    q2: int

    def __post_init__(self) -> None:
        if self.q1 < 2 or self.q2 < 2:
            raise ValueError(f"arities must be >= 2, got ({self.q1}, {self.q2})")


@dataclass(frozen=True)
class Size:
    """Width/height pair of a rectangle; both dimensions are >= 1."""

    w: int
    h: int

    def __post_init__(self) -> None:
        if self.w < 1 or self.h < 1:
            raise ValueError(f"size dimensions must be >= 1, got [{self.w}, {self.h}]")

    @property
    def area(self) -> int:
        return self.w * self.h


@dataclass(frozen=True)
class Region:
    """Half-open rectangle [x, x+w) x [y, y+h); left/bottom borders closed."""

    x: int
    y: int
    size: Size

    def __post_init__(self) -> None:
        if self.x < 0 or self.y < 0:
            raise ValueError(f"region location must be non-negative, got ({self.x}, {self.y})")

    @property
    def w(self) -> int:
        return self.size.w

    @property
    def h(self) -> int:
        return self.size.h

    @property
    def area(self) -> int:
        return self.size.area


def reg(x: int, y: int, w: int, h: int) -> Region:
    """Shorthand constructor for a region."""
    return Region(x, y, Size(w, h))


@dataclass(frozen=True)
class Block:
    """A rectangle of regular size that still awaits a location."""

    size: Size


@dataclass(frozen=True)
class ProblemSpec:
    """Decision-procedure input: arities plus a multiset of codeword lengths.

    The multiset keeps its given order (duplicates allowed); constructed
    codebooks are reported in this order.  groups counts each distinct pair.
    """

    arities: Arities
    lengths: tuple[LengthTuple, ...]
    groups: dict[LengthTuple, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lengths = tuple(map(tuple, self.lengths))
        groups = Counter(lengths)
        for l1, l2 in groups:
            try:
                low = min(operator.index(l1), operator.index(l2))
            except TypeError:
                raise ValueError(f"codeword lengths must be integers, got ({l1!r}, {l2!r})") from None
            if low < 0:
                raise ValueError(f"codeword lengths must be >= 0, got ({l1}, {l2})")
        if any(type(l) is not int for pair in groups for l in pair):  # bools and the like become ints
            lengths = tuple((operator.index(l1), operator.index(l2)) for l1, l2 in lengths)
            groups = Counter(lengths)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "groups", groups)

    @property
    def m(self) -> int:
        return len(self.lengths)

    @property
    def l1max(self) -> int:
        return max((l1 for l1, _ in self.groups), default=0)

    @property
    def l2max(self) -> int:
        return max((l2 for _, l2 in self.groups), default=0)


def total_key(s: Size) -> tuple[int, int, int]:
    """Sort key realizing the total order: longest side, then width, then height."""
    return (max(s.w, s.h), s.w, s.h)


def cmp_total(s1: Size, s2: Size) -> int:
    """Total-order comparison of sizes: +1 greater, -1 less, 0 equal."""
    k1, k2 = total_key(s1), total_key(s2)
    if k1 > k2:
        return 1
    if k1 < k2:
        return -1
    return 0


def covers(s1: Size, s2: Size) -> bool:
    """True when s1 dominates s2 componentwise (width and height both >=)."""
    return s1.w >= s2.w and s1.h >= s2.h


def cmp_partial(s1: Size, s2: Size) -> str:
    """Componentwise partial-order comparison.

    Returns one of "succeeds", "precedes", "equal", "incomparable".
    Whenever s1 succeeds s2, the total order agrees that s1 is greater.
    """
    if s1 == s2:
        return "equal"
    if covers(s1, s2):
        return "succeeds"
    if covers(s2, s1):
        return "precedes"
    return "incomparable"


def is_regular(s: Size, q: Arities) -> bool:
    """True when the width is a power of q1 and the height a power of q2."""
    return ilog_exact(s.w, q.q1) is not None and ilog_exact(s.h, q.q2) is not None


def is_aligned(r: Region) -> bool:
    """True when the location is a multiple of the region's own size."""
    return r.x % r.w == 0 and r.y % r.h == 0


def sort_blocks_desc(blocks: Iterable[Block]) -> list[Block]:
    """Stable descending sort under the total order; equal sizes keep input order."""
    return sorted(blocks, key=lambda b: total_key(b.size), reverse=True)


def is_sorted_desc(blocks: Sequence[Block]) -> bool:
    return all(
        cmp_total(blocks[i].size, blocks[i + 1].size) >= 0 for i in range(len(blocks) - 1)
    )
