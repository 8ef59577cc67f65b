"""Coding-theory layer: Kraft sum, entropy bound, length/block transform, codewords.

Kraft arithmetic is exact rational (the inequality is a sharp threshold at 1);
entropy arithmetic is floating point with a 1e-9 comparison tolerance since it
involves transcendental logs.  The Kraft and entropy operations accept any
number of channels; the geometric transform and codeword extraction are
strictly two-channel, like the packers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .model import Block, ProblemSpec, Region, Size, reg

# One character per digit keeps prefix relations plain string prefixes.
_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Codeword:
    """Digit-string pair, one word per channel; either may be empty."""

    c1: str
    c2: str


Codebook = tuple[Codeword, ...]


@dataclass(frozen=True)
class SourceDistribution:
    """Source symbol probabilities and the log base for entropy accounting."""

    probs: tuple[float, ...]
    base: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.base) and self.base > 1):
            raise ValueError(f"entropy base must be a finite number > 1, got {self.base}")
        for p in self.probs:
            if not 0 < p <= 1:
                raise ValueError(f"probabilities must lie in (0, 1], got {p}")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {sum(self.probs)}")


class EntropyReport(NamedTuple):
    avg_length: float
    entropy: float
    slack: float
    equality: bool


class CanonicalInstance(NamedTuple):
    blocks: tuple[Block, ...]
    container: Region


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


def kraft_sum(
    qs: Sequence[int], lengths: Sequence[Sequence[int]] | Counter[tuple[int, ...]]
) -> Fraction:
    """Exact sum over codewords of the product of q_i**(-l_i), any channel count, as
    one numerator over the product of q_i**lmax_i with equal tuples counted once.

    lengths is the codewords' length tuples, or their histogram as a Counter."""
    groups = lengths if isinstance(lengths, Counter) else Counter(map(tuple, lengths))
    _validate_channels(qs, groups)
    lmax = [max(column) for column in zip(*groups)]
    numerator = sum(
        n * math.prod(qi ** (top - li) for qi, top, li in zip(qs, lmax, tup))
        for tup, n in groups.items()
    )
    return Fraction(numerator, math.prod(qi**top for qi, top in zip(qs, lmax)))


def kraft_ok(qs: Sequence[int], lengths: Sequence[Sequence[int]]) -> bool:
    return kraft_sum(qs, lengths) <= 1


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
    """Blocks and the single enclosing container for a length multiset.

    A codeword of length (l1, l2) covers q1**(l1max-l1) * q2**(l2max-l2)
    leaf pairs of the two prefix trees, hence a block of exactly that size;
    all blocks go into the container spanning every leaf pair.  A channel
    unused by all codewords degenerates to dimension 1.
    """
    q = spec.arities
    l1max, l2max = spec.l1max, spec.l2max
    blocks = tuple(
        Block(Size(q.q1 ** (l1max - l1), q.q2 ** (l2max - l2)))
        for l1, l2 in spec.lengths
    )
    container = reg(0, 0, q.q1**l1max, q.q2**l2max)
    return CanonicalInstance(blocks, container)


def _encode(value: int, base: int, width: int) -> str:
    if base > len(_DIGITS):
        raise ValueError(f"digit strings support arities up to {len(_DIGITS)}, got {base}")
    digits = []
    for _ in range(width):
        value, d = divmod(value, base)
        digits.append(_DIGITS[d])
    if value:
        raise ValueError("value does not fit in the requested digit width")
    return "".join(reversed(digits))


def solution_to_codebook(spec: ProblemSpec, locations: Sequence[tuple[int, int]]) -> Codebook:
    """Codewords read off the canonical instance's block locations, one
    (x, y) per codeword in the spec's order.

    A block of width w at x covers leaves [x, x+w), i.e. the subtree of the
    prefix x // w; its base-q1 digits, most significant first, are the
    channel-1 word (channel 2 likewise from y).  A location count other than
    the codeword count, and misaligned or out-of-range locations, are rejected.
    """
    if len(locations) != spec.m:
        raise ValueError(f"{len(locations)} locations for {spec.m} codewords")
    q = spec.arities
    l1max, l2max = spec.l1max, spec.l2max
    width, height = q.q1**l1max, q.q2**l2max
    words = []
    for idx, ((l1, l2), (x, y)) in enumerate(zip(spec.lengths, locations)):
        w = q.q1 ** (l1max - l1)
        h = q.q2 ** (l2max - l2)
        if x % w or y % h:
            raise ValueError(f"location ({x}, {y}) is misaligned for block {idx}")
        if x + w > width or y + h > height:
            raise ValueError(f"location ({x}, {y}) leaves the container for block {idx}")
        words.append(Codeword(_encode(x // w, q.q1, l1), _encode(y // h, q.q2, l2)))
    return tuple(words)


def _is_prefix(u: str, v: str) -> bool:
    # Every word is a prefix of itself; the empty word prefixes everything.
    return v.startswith(u)


def pair_prefix_free(a: Codeword, b: Codeword) -> bool:
    """True when in at least one channel neither word is a prefix of the other."""
    ch1_related = _is_prefix(a.c1, b.c1) or _is_prefix(b.c1, a.c1)
    ch2_related = _is_prefix(a.c2, b.c2) or _is_prefix(b.c2, a.c2)
    return not ch1_related or not ch2_related


def verify_codebook(cb: Sequence[Codeword]) -> bool:
    """Pairwise prefix-freeness over all unordered codeword pairs."""
    for i in range(len(cb)):
        for j in range(i + 1, len(cb)):
            if not pair_prefix_free(cb[i], cb[j]):
                return False
    return True
