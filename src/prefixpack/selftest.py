"""The selftest sweep: decide, construct and every codebook against the brute-force oracle.

Only the selftest command loads this module, and with it the oracle.  The
command checks its flags and maps the outcome to an exit code, so this
module imports nothing from cli and ``python -m prefixpack.cli`` loads
cli.py once.  The sweep calls packer, codes and oracle through their module
attributes, so a test can swap in a faulty procedure and see the sweep
report it.
"""

from __future__ import annotations

import itertools

from . import codes, oracle, packer
from .model import ProblemSpec

# Specs per batch.  Each procedure runs over a whole batch before the next
# starts, which keeps its working set hot: run spec by spec, decide and the
# oracle each took about twice their time alone.  Batches of 64 to 4,096
# specs ran the default sweep in about the same time (CPython 3.11, 2-CPU Xeon).
SELFTEST_BATCH = 256


def _where(spec: ProblemSpec) -> str:
    """The instance a selftest failure names."""
    return f"q=({spec.arities.q1},{spec.arities.q2}) lengths={list(spec.lengths)}"


def run(arity_pairs: tuple[tuple[int, int], ...], max_m: int, max_len: int) -> bool:
    """Sweep every spec up to max_m codewords of lengths up to max_len over
    the arity pairs, print the outcome and return whether every check passed.

    The bounds are the command's, checked by it: none is negative, and the
    grid of a lone (max_len, max_len) codeword passes construct's guard."""
    max_dim = 1  # the empty multiset's container is 1 x 1
    if max_m >= 1:
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
        for spec, fast, locations, instance, brute in zip(batch, verdicts, placements, instances, brutes):
            built = locations is not None
            if brute == "budget_exceeded":
                print(f"selftest: oracle budget exceeded on {_where(spec)}")
                return False
            expect = brute == "yes"
            if fast != expect or built != expect:
                print(f"selftest: DISAGREEMENT on {_where(spec)}: fast={fast} construct={built} brute={expect}")
                return False
            if built and not codes.verify_codebook(codes.solution_to_codebook(spec, locations, instance)):
                print(f"selftest: INVALID CODEBOOK on {_where(spec)}")
                return False
            checked += 1
    print(f"selftest: {checked} instances, all procedures agree")
    return True
