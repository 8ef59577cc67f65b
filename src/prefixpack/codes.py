"""Coding-theory layer: Kraft sum, entropy bound, length/block transform, codewords.

Kraft arithmetic is exact rational (the inequality is a sharp threshold at 1);
entropy arithmetic is floating point with a 1e-9 comparison tolerance since it
involves transcendental logs.  The Kraft and entropy operations accept any
number of channels; the length/block transform and codeword extraction are
strictly two-channel, like the packers.  The transform, lengths_to_instance,
builds the canonical instance, in bare tuples, for selftest, the codebook
and the SVG alike.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from operator import add, mul
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .model import ProblemSpec, _set, _Value

if TYPE_CHECKING:
    from fractions import Fraction

# One character per digit keeps prefix relations plain string prefixes.
_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


class Codeword(NamedTuple):
    """Digit-string pair, one word per channel; either may be empty."""

    c1: str
    c2: str


Codebook = tuple[Codeword, ...]


class SourceDistribution(_Value):
    """Source symbol probabilities and the log base for entropy accounting."""

    __slots__ = ("probs", "base")

    def __init__(self, probs: tuple[float, ...], base: float) -> None:
        if not (math.isfinite(base) and base > 1):
            raise ValueError(f"entropy base must be a finite number > 1, got {base}")
        for p in probs:
            if not 0 < p <= 1:
                raise ValueError(f"probabilities must lie in (0, 1], got {p}")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {sum(probs)}")
        _set(self, "probs", probs)
        _set(self, "base", base)


class EntropyReport(NamedTuple):
    avg_length: float
    entropy: float
    slack: float
    equality: bool


class CanonicalInstance(NamedTuple):
    blocks: tuple[tuple[int, int], ...]  # one (w, h) per codeword, in the spec's order
    container: tuple[int, int, int, int]  # (0, 0, W, H)


def _validate_channels(qs: Sequence[int], lengths: Sequence[Sequence[int]]) -> None:
    for qi in qs:
        if qi < 2:
            raise ValueError(f"arities must be >= 2, got {qi}")
    for tup in lengths:
        if len(tup) != len(qs):
            raise ValueError(f"length tuple {tuple(tup)} does not match {len(qs)} channels")
        for li in tup:
            if li < 0:
                raise ValueError(f"codeword lengths must be >= 0, got {li}")


def _descending_powers(q: int, top: int, spent: Sequence[int]) -> dict[int, int]:
    """{l: q**(top - l)} for each distinct l in spent, all <= top, by one running product."""
    table, power, last = {}, 1, top
    for length in sorted(set(spent), reverse=True):
        power *= q ** (last - length)
        table[length] = power
        last = length
    return table


def kraft_sum(
    qs: Sequence[int], lengths: Sequence[Sequence[int]] | Counter[tuple[int, ...]]
) -> Fraction:
    """Exact sum over codewords of the product of q_i**(-l_i), any channel count:
    kraft_ratio as a Fraction."""
    from fractions import Fraction  # loaded by library callers only; no command prints a Fraction

    return Fraction(*kraft_ratio(qs, lengths))


def kraft_ratio(
    qs: Sequence[int], lengths: Sequence[Sequence[int]] | Counter[tuple[int, ...]]
) -> tuple[int, int]:
    """The Kraft sum in lowest terms, (numerator, denominator), built as one
    numerator over the product of q_i**lmax_i with equal tuples counted once.

    lengths is the codewords' length tuples, or their histogram as a Counter.

    Channels of equal arity q merge: a tuple's term holds q**(top - spent),
    where top and spent sum lmax_i and l_i over q's channels.  Each further
    distinct arity multiplies the group counts by one entry of its power
    table; the counts are then summed per spent length of the first arity and
    folded into the numerator by one Horner pass over those lengths, so no
    group costs a product of big powers.
    """
    groups = lengths if isinstance(lengths, Counter) else Counter(map(tuple, lengths))
    _validate_channels(qs, groups)
    columns = list(zip(*groups))  # one tuple of lengths per channel, in group order
    if not columns:  # no codewords, or no channels: every term is the empty product
        return sum(groups.values()), 1
    top: dict[int, int] = {}
    spent: dict[int, Sequence[int]] = {}
    for qi, column in zip(qs, columns):
        top[qi] = top.get(qi, 0) + max(column)
        spent[qi] = list(map(add, spent[qi], column)) if qi in spent else column
    (q, first), *others = spent.items()
    counts: Sequence[int] = list(groups.values())
    for qo, column in others:
        powers = _descending_powers(qo, top[qo], column)
        counts = list(map(mul, counts, map(powers.__getitem__, column)))
    by_length: dict[int, int] = {}
    for length, n in zip(first, counts):
        by_length[length] = by_length.get(length, 0) + n
    numerator, last = 0, 0
    for length in sorted(by_length):  # largest power of q first
        numerator = numerator * q ** (length - last) + by_length[length]
        last = length
    numerator *= q ** (top[q] - last)
    denominator = math.prod(qi**t for qi, t in top.items())
    common = math.gcd(numerator, denominator)
    return numerator // common, denominator // common


def entropy_bound(
    qs: Sequence[int], lengths: Sequence[Sequence[int]], dist: SourceDistribution
) -> EntropyReport:
    """Average codeword length vs source entropy, both in base-D symbols.

    A channel word of l_i symbols from a q_i-ary alphabet counts as
    l_i * log_D(q_i) base-D symbols, which puts channels of different arities
    on one scale.  The per-codeword equality flag is true when every
    codeword's unified length matches its ideal -log_D(p_j) within 1e-9.
    """
    _validate_channels(qs, lengths)
    if len(dist.probs) != len(lengths):
        raise ValueError(
            f"{len(dist.probs)} probabilities for {len(lengths)} codewords"
        )
    log_base = math.log(dist.base)
    logs = [math.log(qi) / log_base for qi in qs]
    avg = 0.0
    entropy = 0.0
    equality = True
    for p, tup in zip(dist.probs, lengths):
        unified = sum(li * lg for li, lg in zip(tup, logs))
        avg += p * unified
        ideal = -math.log(p) / log_base
        entropy += p * ideal
        if abs(unified - ideal) > 1e-9:
            equality = False
    return EntropyReport(avg, entropy, avg - entropy, equality)


def lengths_to_instance(spec: ProblemSpec) -> CanonicalInstance:
    """Block sizes, one per codeword in the spec's order, and the single
    enclosing container for a length multiset.

    A codeword of length (l1, l2) covers q1**(l1max-l1) * q2**(l2max-l2)
    leaf pairs of the two prefix trees, hence a block of exactly that size,
    computed once per distinct pair; all blocks go into the container
    spanning every leaf pair.  A channel unused by all codewords degenerates
    to dimension 1.
    """
    q1, q2 = spec.arities.q1, spec.arities.q2
    l1max, l2max = spec.l1max, spec.l2max
    sizes = {}  # a loop, not a comprehension, costs less on selftest's thousands of tiny specs
    for l1, l2 in spec.groups:
        sizes[l1, l2] = (q1 ** (l1max - l1), q2 ** (l2max - l2))
    return CanonicalInstance(tuple(map(sizes.__getitem__, spec.lengths)), (0, 0, q1**l1max, q2**l2max))


@functools.lru_cache(maxsize=None)
def _chunks(base: int) -> tuple[int, int, tuple[str, ...]]:
    """(k, base**k, the k-digit strings of 0 .. base**k - 1) for the largest k >= 1
    with base**k <= 256, so a table costs at most 256 short strings."""
    k = 1
    while base ** (k + 1) <= 256:
        k += 1
    return k, base**k, tuple(map("".join, itertools.product(_DIGITS[:base], repeat=k)))


def _encode(value: int, base: int, width: int) -> str:
    """The width base-`base` digits of value, most significant first, k digits per divmod."""
    if base > len(_DIGITS):
        raise ValueError(f"digit strings support arities up to {len(_DIGITS)}, got {base}")
    k, size, table = _chunks(base)
    if width <= k and 0 <= value < base**width:  # one chunk, a suffix of value's table entry
        return table[value][k - width:]
    chunks = []
    for _ in range(width // k):
        value, d = divmod(value, size)
        chunks.append(table[d])
    value, d = divmod(value, base ** (width % k))
    if value:
        raise ValueError("value does not fit in the requested digit width")
    chunks.append(table[d][k - width % k:])  # d as width % k digits
    return "".join(reversed(chunks))


def solution_to_codebook(
    spec: ProblemSpec, locations: Sequence[tuple[int, int]], instance: CanonicalInstance | None = None
) -> Codebook:
    """Codewords read off the canonical instance's block locations, one
    (x, y) per codeword in the spec's order.  instance is the spec's
    canonical instance, lengths_to_instance(spec), when the caller has built
    it already (the selftest sweep builds it for the oracle); otherwise it
    is built here.

    A block of width w at x covers leaves [x, x+w), i.e. the subtree of the
    prefix x // w; its base-q1 digits, most significant first, are the
    channel-1 word (channel 2 likewise from y).  A location count other than
    the codeword count, and misaligned or out-of-range locations, are rejected.
    """
    if len(locations) != spec.m:
        raise ValueError(f"{len(locations)} locations for {spec.m} codewords")
    q1, q2 = spec.arities.q1, spec.arities.q2
    blocks, (_, _, width, height) = lengths_to_instance(spec) if instance is None else instance
    words = []
    for idx, ((l1, l2), (w, h), (x, y)) in enumerate(zip(spec.lengths, blocks, locations)):
        if x % w or y % h:
            raise ValueError(f"location ({x}, {y}) is misaligned for block {idx}")
        if x + w > width or y + h > height:
            raise ValueError(f"location ({x}, {y}) leaves the container for block {idx}")
        words.append(Codeword(_encode(x // w, q1, l1), _encode(y // h, q2, l2)))
    return tuple(words)


def pair_prefix_free(a: Codeword, b: Codeword) -> bool:
    """True when in at least one channel neither word is a prefix of the other.

    Every word is a prefix of itself; the empty word prefixes everything."""
    ch1_related = b.c1.startswith(a.c1) or a.c1.startswith(b.c1)
    ch2_related = b.c2.startswith(a.c2) or a.c2.startswith(b.c2)
    return not ch1_related or not ch2_related


def verify_codebook(cb: Sequence[Codeword]) -> bool:
    """Pairwise prefix-freeness over all unordered codeword pairs."""
    return all(itertools.starmap(pair_prefix_free, itertools.combinations(cb, 2)))
