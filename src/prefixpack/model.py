"""Core value types: arities and problem instances.

All values are immutable after construction and every operation here is a pure
function, so everything in this module is safe to share across threads.  The
reference packing world (the two orders on sizes, the cuts and the naive
packer, on bare (w, h) and (x, y, w, h) tuples) lives in ``geometry``, which
no command loads.
"""

from __future__ import annotations

import operator
from collections import Counter
from typing import Iterable, Mapping, Sequence

# A codeword length is a bare pair (l1, l2); validation happens in ProblemSpec.
LengthTuple = tuple[int, int]

_set = object.__setattr__  # how __init__ sets a field of a _Value


class _Value:
    """Base of the immutable value types.

    A subclass lists its fields in __slots__ and sets each once, in
    __init__, through _set.  Equality (within one class), hashing, repr and
    copies read _fields, which are __init__'s arguments: the slots, unless
    the class names fewer (a slot may cache a derived value).
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._key = staticmethod(operator.attrgetter(*cls._fields))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__
        return type(self), self._key(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class Arities(_Value):
    """Alphabet sizes of the two channels."""

    __slots__ = ("q1", "q2")

    def __init__(self, q1: int, q2: int) -> None:
        if q1 < 2 or q2 < 2:
            raise ValueError(f"arities must be >= 2, got ({q1}, {q2})")
        _set(self, "q1", q1)
        _set(self, "q2", q2)


class ProblemSpec(_Value):
    """Decision-procedure input: arities plus a multiset of codeword lengths.

    ProblemSpec(arities, lengths) keeps the lengths in their given order
    (duplicates allowed); constructed codebooks are reported in this order.
    groups counts each distinct pair, and the decision reads only groups.

    ProblemSpec.from_groups(arities, groups) builds the spec from that
    histogram alone, {(l1, l2): count}, in O(g) for g distinct pairs.  Its
    lengths are the histogram's pairs, each repeated count times in the
    histogram's order, and are built only when read (construct and the
    codebook read them; decide does not).

    Either way each distinct pair is checked once, and pairs of other
    integral types (bools) are stored as exact ints.
    """

    __slots__ = ("arities", "_lengths", "groups", "_m", "_l1max", "_l2max")
    _fields = ("arities", "lengths")

    def __init__(self, arities: Arities, lengths: Iterable[Sequence[int]]) -> None:
        _set(self, "arities", arities)
        _set(self, "_lengths", lengths)
        _set(self, "groups", None)
        self.__post_init__()

    @classmethod
    def from_groups(cls, arities: Arities, groups: Mapping[LengthTuple, int]) -> ProblemSpec:
        spec = cls.__new__(cls)
        _set(spec, "arities", arities)
        _set(spec, "_lengths", None)
        _set(spec, "groups", groups)
        spec.__post_init__()
        return spec

    def __post_init__(self) -> None:
        """Count the lengths, or copy the histogram, check each distinct pair
        once, and keep m, l1max and l2max."""
        lengths, groups = self._lengths, self.groups
        if groups is None:
            lengths = tuple(map(tuple, lengths))
            groups = Counter(lengths)
        else:
            groups = Counter(groups)
            if not ({*map(type, groups.values())} <= {int} and min(groups.values(), default=1) >= 1):
                raise ValueError("codeword counts must be integers >= 1")
        try:  # the pairs as a whole, one column per channel; the loop below names a bad pair
            l1s, l2s = zip(*groups, strict=True) if groups else ((0,), (0,))
            plain = {*map(type, both := l1s + l2s)} == {int} and min(both) >= 0
        except (TypeError, ValueError):  # a pair that is not two items
            plain = False
        if not plain:
            for l1, l2 in groups:
                try:
                    low = min(operator.index(l1), operator.index(l2))
                except TypeError:
                    raise ValueError(f"codeword lengths must be integers, got ({l1!r}, {l2!r})") from None
                if low < 0:
                    raise ValueError(f"codeword lengths must be >= 0, got ({l1}, {l2})")
            if any(type(l) is not int for pair in groups for l in pair):  # bools and the like become ints
                exact = Counter()
                for (l1, l2), n in groups.items():
                    exact[operator.index(l1), operator.index(l2)] += n
                groups = exact
                if lengths is not None:
                    lengths = tuple((operator.index(l1), operator.index(l2)) for l1, l2 in lengths)
            l1s, l2s = zip(*groups)
        _set(self, "_lengths", lengths)
        _set(self, "groups", groups)
        _set(self, "_m", sum(groups.values()))
        _set(self, "_l1max", max(l1s))
        _set(self, "_l2max", max(l2s))

    @property
    def lengths(self) -> tuple[LengthTuple, ...]:
        if self._lengths is None:
            _set(self, "_lengths", tuple(self.groups.elements()))
        return self._lengths

    @property
    def m(self) -> int:
        return self._m

    @property
    def l1max(self) -> int:
        return self._l1max

    @property
    def l2max(self) -> int:
        return self._l2max
