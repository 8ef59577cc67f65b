"""The selftest sweep: decide, construct and every codebook against the brute-force oracle.

Only the selftest command loads this module, and with it the oracle.  The
sweep calls packer, codes and oracle through their module attributes, so a
test can swap in a faulty procedure and see the sweep report it.
"""

from __future__ import annotations

import itertools

from . import codes, oracle, packer
from .cli import (
    DEFAULT_SELFTEST_ARITIES,
    EXIT_EXISTS,
    EXIT_SELFTEST_FAILED,
    InputError,
    _guard_construct_size,
    _require,
)
from .model import Arities, ProblemSpec

# Specs per batch.  Each procedure runs over a whole batch before the next
# starts, which keeps its working set hot: run spec by spec, decide and the
# oracle each took about twice their time alone.  Batches of 64 to 4,096
# specs ran the default sweep in about the same time (CPython 3.11, 2-CPU Xeon).
SELFTEST_BATCH = 256


def _parse_arity_flag(values: list[str] | None) -> tuple[tuple[int, int], ...]:
    if not values:
        return DEFAULT_SELFTEST_ARITIES
    pairs = []
    for value in values:
        bits = value.split(",")
        _require(len(bits) == 2, f"--arities wants Q1,Q2 pairs, got {value!r}")
        try:
            pairs.append((int(bits[0]), int(bits[1])))
        except ValueError as exc:
            raise InputError(f"--arities wants integers, got {value!r}") from exc
    return tuple(pairs)


def _where(spec: ProblemSpec) -> str:
    """The instance a selftest failure names."""
    return f"q=({spec.arities.q1},{spec.arities.q2}) lengths={list(spec.lengths)}"


def run(arities: list[str] | None, max_m: int, max_len: int) -> int:
    """The selftest command: sweep every spec up to --max-m codewords of
    lengths up to --max-len over the arity pairs, print the outcome and
    return the exit code."""
    arity_pairs = _parse_arity_flag(arities)
    for flag, value in (("--max-m", max_m), ("--max-len", max_len)):
        _require(value >= 0, f"{flag} must be >= 0, got {value}")
    max_dim = 1  # the empty multiset's container is 1 x 1
    if max_m >= 1:
        # the sweep constructs every spec; a lone (max_len, max_len) codeword has the largest grid
        for q1, q2 in arity_pairs:
            _guard_construct_size(ProblemSpec(Arities(q1, q2), ((max_len, max_len),)))
        max_dim = max(max(q1, q2) ** max_len for q1, q2 in arity_pairs)
    limits = oracle.OracleLimits(
        max_m=max(max_m, 1), max_dim=max_dim, max_nodes=5_000_000
    )
    checked = 0
    specs = oracle.enumerate_instances(arity_pairs, max_m, max_len)
    # the checks walk each batch in enumeration order, so a failure names the first spec that fails
    while batch := list(itertools.islice(specs, SELFTEST_BATCH)):
        verdicts = [packer.decide(spec) for spec in batch]
        placements = [packer.construct(spec) for spec in batch]
        instances = [codes.lengths_to_instance(spec) for spec in batch]
        brutes = [oracle.brute_decide(inst.blocks, [inst.container], limits) for inst in instances]
        for spec, fast, locations, brute in zip(batch, verdicts, placements, brutes):
            built = locations is not None
            if brute == "budget_exceeded":
                print(f"selftest: oracle budget exceeded on {_where(spec)}")
                return EXIT_SELFTEST_FAILED
            expect = brute == "yes"
            if fast != expect or built != expect:
                print(f"selftest: DISAGREEMENT on {_where(spec)}: fast={fast} construct={built} brute={expect}")
                return EXIT_SELFTEST_FAILED
            if built and not codes.verify_codebook(codes.solution_to_codebook(spec, locations)):
                print(f"selftest: INVALID CODEBOOK on {_where(spec)}")
                return EXIT_SELFTEST_FAILED
            checked += 1
    print(f"selftest: {checked} instances, all procedures agree")
    return EXIT_EXISTS
