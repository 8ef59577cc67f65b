"""Seeded instance generators whose verdicts are certified when generated.

Every instance is built so that its answer is known without asking
prefixpack:

* EXISTS comes with a witness.  Codes are grown by splitting leaves of a
  two-channel prefix tree: splitting a leaf in channel c replaces it by q_c
  children that extend its channel-c word by one digit.  The leaves of such a
  tree always form a prefix-free code, and so does any subset of them.
* NOT-EXISTS comes either from a Kraft excess (the sum exceeds 1, which no
  prefix code allows) or from the paper's conflict family: a codeword of
  lengths (a, 0) and one of lengths (0, b) have empty words in one channel
  each, so both channels are prefix-related and the pair can never coexist.

All randomness is integer-valued (randrange, sample, shuffle), so the same
seed gives byte-identical files on every platform.

    python3 benchmarks/corpus.py --check SEED HELD_OUT_SEED

generates every workload's corpus twice from SEED and once from
HELD_OUT_SEED, and checks that the files repeat byte for byte and that the
second seed gives different files with the same shape.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

Pair = tuple[int, int]


@dataclass(frozen=True)
class Instance:
    """A generated instance file and its certified verdict."""

    name: str
    q: Pair
    lengths: tuple[Pair, ...]  # in file order
    exists: bool
    certificate: str  # "witness", "kraft-excess" or "conflict"

    @property
    def m(self) -> int:
        return len(self.lengths)

    @property
    def family(self) -> str:
        """Numbered instances ("slack07") share a family; other names stand alone."""
        return self.name.rstrip("0123456789")

    def to_json(self) -> str:
        return json.dumps({"q": list(self.q), "lengths": [list(p) for p in self.lengths]})

    def write(self, directory: Path) -> Path:
        path = directory / f"{self.name}.json"
        path.write_text(self.to_json(), encoding="utf-8")
        return path


def grow_code(
    rng: random.Random,
    q: Pair,
    m: int,
    *,
    window: int | None = None,
    caps: Pair | None = None,
) -> list[Pair]:
    """Leaf lengths of a complete code grown by splitting until it has >= m leaves.

    window=None splits a uniformly random leaf, which gives a wide, shallow
    code; window=w splits one of the w newest leaves, a "caterpillar" whose
    depth grows with m.  caps bounds the lengths per channel.
    """
    if caps is not None and m > q[0] ** caps[0] * q[1] ** caps[1]:
        raise ValueError(f"{m} leaves do not fit under caps {caps}")
    leaves: list[Pair] = [(0, 0)]
    while len(leaves) < m:
        n = len(leaves)
        i = rng.randrange(n) if window is None else n - 1 - rng.randrange(min(window, n))
        l1, l2 = leaves[i]
        channels = [0, 1]
        if caps is not None:
            channels = [c for c, (l, cap) in enumerate(((l1, caps[0]), (l2, caps[1]))) if l < cap]
            if not channels:
                continue
        c = channels[rng.randrange(len(channels))]
        child = (l1 + 1, l2) if c == 0 else (l1, l2 + 1)
        leaves[i] = child
        leaves.extend([child] * (q[c] - 1))
    return leaves


def shuffled(rng: random.Random, lengths: list[Pair]) -> tuple[Pair, ...]:
    out = list(lengths)
    rng.shuffle(out)
    return tuple(out)


def wide(rng: random.Random, m: int) -> Instance:
    """Complete binary code of m random-split leaves: Kraft exactly 1, EXISTS."""
    return Instance("wide", (2, 2), shuffled(rng, grow_code(rng, (2, 2), m)), True, "witness")


def deep(rng: random.Random, name: str, q: Pair, m: int, depth: Pair) -> Instance:
    """Caterpillar code: lengths in the thousands, most pairs distinct.

    The code is redrawn until both maximum lengths lie within DEPTH_BAND of
    `depth`, so that every seed gives the count bank integers of about the
    same width; the depth of a caterpillar otherwise varies by a few percent
    between seeds, and the cost of decide and kraft with it.
    """
    while True:
        lengths = grow_code(rng, q, m, window=16)
        lmax = (max(l1 for l1, _ in lengths), max(l2 for _, l2 in lengths))
        if all(abs(l - target) <= DEPTH_BAND * target for l, target in zip(lmax, depth)):
            return Instance(name, q, shuffled(rng, lengths), True, "witness")


def block_key(q: Pair, pair: Pair, lmax: Pair) -> tuple[int, int, int]:
    """The packer's total order on the block of a codeword: longest side, width, height."""
    w, h = q[0] ** (lmax[0] - pair[0]), q[1] ** (lmax[1] - pair[1])
    return (max(w, h), w, h)


def kraft_excess_twin(inst: Instance) -> Instance:
    """The code plus one more copy of its smallest block: Kraft > 1, NOT-EXISTS.

    Every larger group packs as in the witness, so the decision fails only at
    the last group it places.
    """
    lmax = (max(p[0] for p in inst.lengths), max(p[1] for p in inst.lengths))
    smallest = min(inst.lengths, key=lambda p: block_key(inst.q, p, lmax))
    return Instance(
        inst.name + "-excess", inst.q, inst.lengths + (smallest,), False, "kraft-excess"
    )


def slack(rng: random.Random, name: str, q: Pair, caps: Pair, m: int, drop: float) -> Instance:
    """Complete code over a capped grid with a fixed share of codewords dropped.

    The dropped codewords leave free slack the located packer must re-cut.
    """
    code = grow_code(rng, q, m, caps=caps)
    gone = set(rng.sample(range(len(code)), round(drop * len(code))))
    kept = [p for k, p in enumerate(code) if k not in gone]
    return Instance(name, q, shuffled(rng, kept), True, "witness")


def conflict(rng: random.Random, name: str, q: Pair, fillers: int) -> Instance:
    """(a, 0) and (0, b) plus random fillers, all within Kraft < 1: NOT-EXISTS.

    Keeping the Kraft sum below 1 makes the conflict, not the sum, the
    reason no code exists.  Each filler takes at most half the remaining
    Kraft budget, so the budget never runs out and the loop ends.
    """
    a, b = 2 + rng.randrange(2), 2 + rng.randrange(2)
    lengths = [(a, 0), (0, b)]
    budget = 1 - Fraction(1, q[0] ** a) - Fraction(1, q[1] ** b)
    while len(lengths) < fillers + 2:
        pair = (1 + rng.randrange(5), 1 + rng.randrange(5))
        share = Fraction(1, q[0] ** pair[0] * q[1] ** pair[1])
        if share <= budget / 2:
            budget -= share
            lengths.append(pair)
    return Instance(name, q, shuffled(rng, lengths), False, "conflict")


# Sizes of each workload's corpus.  WIDE_M is chosen so that one run of
# BENCHMARK.json's run_seconds holds about twenty decide/kraft pairs.
WIDE_M = 100_000
DEEP_M = 15_000
DEEP_MIXED_M = 10_000
# The median maximum lengths of the caterpillars of DEEP_M and DEEP_MIXED_M
# leaves; one draw in four to six lies within DEPTH_BAND of them.
DEEP_DEPTH = (1300, 1300)
DEEP_MIXED_DEPTH = (570, 905)
DEPTH_BAND = 0.015
SLACK_INSTANCES = 48
SLACK_M = 200
SLACK_DROP = 0.4


def small_exists(rng: random.Random) -> Instance:
    """A small sparse code for the commands a workload exercises only lightly."""
    return slack(rng, "small", (2, 2), (4, 4), 24, SLACK_DROP)


# The CLI's power tables grow with lmax**2 bits and a shape such as
# [[1000000, 0]] would allocate tens of GB; no corpus comes near that.
MAX_LENGTH = 2000


def corpus(workload: str, seed: int) -> list[Instance]:
    """Every instance a workload uses, in a fixed order, from one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "wide":
        out = [wide(rng, WIDE_M), small_exists(rng)]
    elif workload == "deep-slack":
        binary = deep(rng, "deep", (2, 2), DEEP_M, DEEP_DEPTH)
        mixed = deep(rng, "deep-mixed", (2, 3), DEEP_MIXED_M, DEEP_MIXED_DEPTH)
        out = [binary, mixed, kraft_excess_twin(binary)]
        for k in range(SLACK_INSTANCES):
            q, caps = ((2, 2), (7, 7)) if k % 2 == 0 else ((2, 3), (7, 4))
            out.append(slack(rng, f"slack{k:02d}", q, caps, SLACK_M, SLACK_DROP))
        out.append(conflict(rng, "conflict", (2, 2), 6))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for inst in out:
        if max(max(p) for p in inst.lengths) > MAX_LENGTH:
            raise AssertionError(f"{inst.name} has a length above {MAX_LENGTH}")
    return out


SELFTEST_ARITIES = ((2, 2), (2, 3), (3, 2), (3, 3))


def selftest_arities(seed: int) -> tuple[Pair, ...]:
    """The selftest sweep's arity pairs in a seed-chosen order (same work for every seed)."""
    pairs = list(SELFTEST_ARITIES)
    random.Random(f"selftest:{seed}:arities").shuffle(pairs)
    return tuple(pairs)


WORKLOADS = ("wide", "deep-slack")
# Relative band within which a second seed's shape statistics must fall.
# Families with fewer codewords than SHAPE_MIN_M are too small for a band;
# they are still checked for byte-identical repeats and for their verdicts.
SHAPE_BAND = 0.2
SHAPE_MIN_M = 100


def shape(instances: list[Instance]) -> dict[str, dict[str, int]]:
    """m, distinct pairs and maximum lengths, pooled per instance family."""
    out: dict[str, dict[str, int]] = {}
    for inst in instances:
        s = out.setdefault(inst.family, {"m": 0, "groups": 0, "l1max": 0, "l2max": 0})
        s["m"] += inst.m
        s["groups"] += len(set(inst.lengths))
        s["l1max"] = max(s["l1max"], max(l1 for l1, _ in inst.lengths))
        s["l2max"] = max(s["l2max"], max(l2 for _, l2 in inst.lengths))
    return out


def _digest(instances: list[Instance]) -> list[tuple[str, str, bool]]:
    return [
        (i.name, hashlib.sha256(i.to_json().encode()).hexdigest(), i.exists) for i in instances
    ]


def check_determinism(seed: int, held_out: int) -> list[str]:
    """Problems found; empty when the generators behave."""
    problems = []
    for workload in WORKLOADS:
        first, again = corpus(workload, seed), corpus(workload, seed)
        other = corpus(workload, held_out)
        if _digest(first) != _digest(again):
            problems.append(f"{workload}: seed {seed} does not repeat byte for byte")
        for a, b in zip(first, other):
            if a.to_json() == b.to_json():
                problems.append(f"{workload}/{a.name}: seeds {seed} and {held_out} give one file")
            if (a.name, a.exists, a.certificate) != (b.name, b.exists, b.certificate):
                problems.append(f"{workload}/{a.name}: verdict differs between seeds")
        shape_a, shape_b = shape(first), shape(other)
        for family, sa in shape_a.items():
            if sa["m"] < SHAPE_MIN_M:
                continue
            for key, va in sa.items():
                vb = shape_b[family][key]
                if abs(vb - va) > SHAPE_BAND * va:
                    problems.append(
                        f"{workload}/{family}: {key} {va} vs {vb} outside +-{SHAPE_BAND:.0%}"
                    )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", nargs=2, type=int, metavar=("SEED", "HELD_OUT_SEED"), required=True)
    args = parser.parse_args(argv)
    seed, held_out = args.check
    for workload in WORKLOADS:
        for seed_ in (seed, held_out):
            for family, stats in shape(corpus(workload, seed_)).items():
                print(f"{workload}/{family} seed {seed_}: {stats}")
    problems = check_determinism(seed, held_out)
    for p in problems:
        print("FAIL", p)
    print("determinism:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
