"""The selftest sweep: decide, construct and every codebook against the brute-force oracle.

Only the selftest command loads this module, and with it the oracle.  The
command checks its flags and maps the outcome to an exit code, so this
module imports nothing from cli and ``python -m prefixpack.cli`` loads
cli.py once.  The sweep calls packer, codes and oracle through their module
attributes, so a test can swap in a faulty procedure and see the sweep
report it.

The oracle is the only independent check of a verdict.  decide and
construct both answer from the same group loop (packer._pack), so their
comparison cannot expose a verdict fault there; only the oracle's can.

The specs stream in batches of SELFTEST_BATCH, and the batches are shared
among W workers, W = min(CPUs this process may run on, number of batches).
The process itself is worker 0 and forks the others: worker w checks
batches w, w + W, w + 2W, ... and sends back, through a pipe, the index of
its first failing batch (or -1) and its count of specs checked.  The lowest
failing batch wins, as it would in one process, and the process re-checks
a worker's batch itself, so the line printed or the exception raised is the
one-process sweep's.  With one worker nothing is forked.
"""

from __future__ import annotations

import itertools
import marshal
import os
import sys
from typing import BinaryIO, Iterator, NoReturn

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


def _batches(arity_pairs: tuple[tuple[int, int], ...], max_m: int, max_len: int) -> Iterator[list[ProblemSpec]]:
    specs = oracle.enumerate_instances(arity_pairs, max_m, max_len)
    return iter(lambda: list(itertools.islice(specs, SELFTEST_BATCH)), [])


def _check(batch: list[ProblemSpec], limits: oracle.OracleLimits) -> str | None:
    """The line naming the first spec of the batch that fails, or None."""
    verdicts = [packer.decide(spec) for spec in batch]
    placements = [packer.construct(spec) for spec in batch]
    instances = [codes.lengths_to_instance(spec) for spec in batch]
    brutes = [oracle.brute_decide(inst.blocks, [inst.container], limits) for inst in instances]
    # the checks walk the batch in enumeration order, so a failure names the first spec that fails
    for spec, fast, locations, instance, brute in zip(batch, verdicts, placements, instances, brutes):
        built = locations is not None
        if brute == "budget_exceeded":
            return f"selftest: oracle budget exceeded on {_where(spec)}"
        expect = brute == "yes"
        if fast != expect or built != expect:
            return f"selftest: DISAGREEMENT on {_where(spec)}: fast={fast} construct={built} brute={expect}"
        if built and not codes.verify_codebook(codes.solution_to_codebook(spec, locations, instance)):
            return f"selftest: INVALID CODEBOOK on {_where(spec)}"
    return None


def _share(
    batches: Iterator[list[ProblemSpec]], first: int, step: int, limits: oracle.OracleLimits
) -> tuple[int, str | Exception | None, int]:
    """Check batches first, first + step, first + 2 * step, ... of the stream
    up to the first that fails: (its index or -1, its line or the exception
    it raised, specs checked before it)."""
    checked = 0
    for index, batch in zip(itertools.count(first, step), itertools.islice(batches, first, None, step)):
        try:
            failure = _check(batch, limits)
        except Exception as exc:
            return index, exc, checked
        if failure is not None:
            return index, failure, checked
        checked += len(batch)
    return -1, None, checked


def _work(write: int, batches: Iterator[list[ProblemSpec]], first: int, step: int, limits: oracle.OracleLimits) -> NoReturn:
    """A forked worker: its share's failing index and count go up the pipe.
    It ends with os._exit, which runs no exit handler and flushes no buffer
    copied from the parent, so nothing else leaves it."""
    status = 1
    try:
        index, _, checked = _share(batches, first, step, limits)
        os.write(write, marshal.dumps((index, checked)))
        status = 0
    finally:
        os._exit(status)


def _cpus() -> int:
    """The CPUs the sweep may use: 1 where the platform cannot fork or tell
    them, or where another thread runs, since a forked copy of a process with
    threads can block on a lock that one of them held."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    threading = sys.modules.get("threading")  # no other thread runs unless it was loaded
    if threading is not None and threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


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
    batches = _batches(arity_pairs, max_m, max_len)
    head = list(itertools.islice(batches, _cpus()))  # W = min(CPUs, batches): no worker without a batch
    workers = max(len(head), 1)
    batches = itertools.chain(head, batches)
    children: list[tuple[int, BinaryIO]] = []  # (pid, read end of its pipe) of each worker forked
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(write, batches, w, workers, limits)
            os.close(write)
            children.append((pid, open(read, "rb")))
        mine, failure, checked = _share(batches, 0, workers, limits)
        failing = [mine] if mine >= 0 else []
        for pid, pipe in children:
            report = pipe.read()
            pipe.close()
            if not report:
                raise RuntimeError(f"selftest: worker {pid} ended without a result")
            index, count = marshal.loads(report)
            checked += count
            if index >= 0:
                failing.append(index)
    finally:
        for pid, pipe in children:  # a worker whose report was not read is killed first
            if not pipe.closed:
                import signal  # only here: it takes a millisecond to load

                pipe.close()
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if not failing:
        print(f"selftest: {checked} instances, all procedures agree")
        return True
    first = min(failing)
    if first != mine:  # a worker's batch: checked again here, raising what it raised
        failure = _check(next(itertools.islice(_batches(arity_pairs, max_m, max_len), first, None)), limits)
        if failure is None:
            failure = f"selftest: batch {first} failed in a worker and passed when checked again"
    elif isinstance(failure, Exception):
        raise failure
    print(failure)
    return False
