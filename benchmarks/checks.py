"""Expected outputs of the prefixpack CLI, computed without prefixpack.

Nothing here imports the package: Kraft strings come from an integer
histogram over the common denominator, selftest counts from counting
multisets, and constructed codebooks are checked with prefix sets rather
than with the package's own verifier.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from typing import Sequence

Pair = tuple[int, int]
DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def kraft_string(q: Pair, lengths: Sequence[Pair]) -> str:
    """The exact Kraft sum as a reduced "num/den" string."""
    hist = Counter(lengths)
    top1 = max(l1 for l1, _ in hist)
    top2 = max(l2 for _, l2 in hist)
    den = q[0] ** top1 * q[1] ** top2
    num = sum(n * q[0] ** (top1 - l1) * q[1] ** (top2 - l2) for (l1, l2), n in hist.items())
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}"


def kraft_line(frac: str) -> str:
    """What `prefixpack kraft` prints for a Kraft sum given as "num/den"."""
    num, den = (int(v) for v in frac.split("/"))
    return f"{frac} {'SATISFIED' if num <= den else 'VIOLATED'}\n"


def selftest_box(arity_pairs: int, max_m: int, max_len: int) -> tuple[int, int]:
    """(instances, codewords) in a sweep: every multiset of at most max_m pairs
    drawn from (max_len + 1)**2 length pairs, once per arity pair."""
    domain = (max_len + 1) ** 2
    per_m = [math.comb(domain + m - 1, m) for m in range(max_m + 1)]
    return arity_pairs * sum(per_m), arity_pairs * sum(m * n for m, n in enumerate(per_m))


def codebook_problem(q: Pair, lengths: Sequence[Pair], book: Sequence[dict]) -> str | None:
    """Why a constructed codebook is wrong for these lengths, or None.

    Two codewords conflict when both channels are prefix-related.  For every
    codeword the check looks up each prefix of its channel-1 word among the
    channel-1 words present, and for each hit tests the channel-2 words
    through a set of words and a set of their proper prefixes: O(m * l1 * l2)
    set lookups, no pairwise scan.
    """
    if len(book) != len(lengths):
        return f"{len(book)} codewords for {len(lengths)} lengths"
    words = []
    for k, (entry, (l1, l2)) in enumerate(zip(book, lengths)):
        c1, c2 = (entry.get("c1"), entry.get("c2")) if isinstance(entry, dict) else (None, None)
        if not isinstance(c1, str) or not isinstance(c2, str):
            return f"codeword {k} is not a pair of strings"
        if (len(c1), len(c2)) != (l1, l2):
            return f"codeword {k} has lengths ({len(c1)}, {len(c2)}), wants ({l1}, {l2})"
        if set(c1) - set(DIGITS[: q[0]]) or set(c2) - set(DIGITS[: q[1]]):
            return f"codeword {k} uses digits outside arities {q}"
        words.append((c1, c2))
    full: dict[str, Counter] = defaultdict(Counter)  # c1 -> channel-2 words
    proper: dict[str, set] = defaultdict(set)  # c1 -> proper prefixes of those
    for c1, c2 in words:
        full[c1][c2] += 1
        proper[c1].update(c2[:t] for t in range(len(c2)))
    for k, (c1, c2) in enumerate(words):
        for s in range(len(c1) + 1):
            p1 = c1[:s]
            if p1 not in full:
                continue
            if c2 in proper[p1]:
                return f"codeword {k} ({c1!r}, {c2!r}) prefixes another in both channels"
            for t in range(len(c2) + 1):
                hits = full[p1].get(c2[:t], 0)
                if hits > (1 if (p1, c2[:t]) == (c1, c2) else 0):
                    return f"codeword {k} ({c1!r}, {c2!r}) extends another in both channels"
    return None


def decide_problem(exists: bool, code: int, stdout: str) -> str | None:
    want = (0, "EXISTS\n") if exists else (1, "NOT-EXISTS\n")
    if (code, stdout) != want:
        return f"decide gave exit {code} {stdout!r}, wants exit {want[0]} {want[1]!r}"
    return None


def kraft_problem(kraft: str, code: int, stdout: str) -> str | None:
    want = kraft_line(kraft)
    if (code, stdout) != (0, want):
        return f"kraft gave exit {code} {stdout!r}, wants exit 0 {want!r}"
    return None


def construct_problem(
    q: Pair, lengths: Sequence[Pair], kraft: str, exists: bool, code: int, result_text: str
) -> str | None:
    if code != (0 if exists else 1):
        return f"construct gave exit {code}, wants {0 if exists else 1}"
    try:
        result = json.loads(result_text)
    except json.JSONDecodeError as exc:
        return f"construct wrote invalid JSON: {exc}"
    if not isinstance(result, dict):
        return "construct wrote JSON that is not an object"
    if result.get("decision") is not exists:
        return f"construct decision {result.get('decision')!r}, wants {exists}"
    if result.get("kraft") != kraft:
        return f"construct kraft {result.get('kraft')!r}, wants {kraft!r}"
    if not exists:
        return "construct wrote a codebook for a NOT-EXISTS instance" if "codebook" in result else None
    if not isinstance(result.get("codebook"), list):
        return "construct wrote no codebook for an EXISTS instance"
    return codebook_problem(q, lengths, result["codebook"])


def selftest_problem(instances: int, code: int, stdout: str) -> str | None:
    want = f"selftest: {instances} instances, all procedures agree\n"
    if (code, stdout) != (0, want):
        return f"selftest gave exit {code} {stdout!r}, wants exit 0 {want!r}"
    return None
