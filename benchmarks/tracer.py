"""Run the prefixpack CLI with timing wrappers around each layer's public functions.

    python3 benchmarks/tracer.py SPANS.json decide --input inst.json

behaves like ``python3 -m prefixpack.cli decide --input inst.json`` (same
stdout, stderr and exit code) and in addition writes SPANS.json.  The
wrappers are installed from here, where each name is looked up at call
time, so ``src/`` needs no change: ``cli`` calls ``packer.*`` and
``codes.*`` through module attributes, while ``packer`` imports
``cut_sigma`` and ``corner_cut_regions`` by name, so those are replaced in
both modules.

Spans are kept in memory and written once at the end.  A span's self time
is its duration minus the time its traced children cover.  Functions that
run up to millions of times per command (the bank's consume loops,
``cut_sigma``, ``ProblemSpec`` scans) are aggregated: count, total and self
time per enclosing span instead of one span per call.  Counters that need
work of their own (piece counts, count widths, spec sizes) run after the
wrapped call's clock stops; their time is booked as ``trace.probe`` so it
never lands in a layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Any, Callable

PROBE = "trace.probe"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, self time)
        self.aggregates: dict[tuple, list] = {}  # (parent id, name) -> [count, total, self]
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # open calls: [time covered by children, span id]
        self._next_id = 0

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def widest(self, key: str, value: int) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        aggregate: bool = False,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """fn with its calls recorded under name.

        before(args) runs before the clock starts and its result is passed to
        after(args, result, token), which runs after the clock stops.
        """
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            token = before(args) if before is not None else None
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent is not None else 0
            if aggregate:
                span_id = parent_id
            else:
                self._next_id += 1
                span_id = self._next_id
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self._record(name, aggregate, span_id, parent_id, t0, t1, t1 - t0 - frame[0])
                if parent is not None:
                    parent[0] += t1 - t0
            if after is not None:
                after(args, result, token)
                t2 = clock()
                self._record(PROBE, True, span_id, parent_id, t1, t2, t2 - t1)
                if parent is not None:
                    parent[0] += t2 - t1
            return result

        return traced

    def _record(self, name, aggregate, span_id, parent_id, t0, t1, self_time) -> None:
        if aggregate:
            rec = self.aggregates.setdefault((parent_id, name), [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += t1 - t0
            rec[2] += self_time
        else:
            self.spans.append((span_id, parent_id, name, t0, t1, self_time))

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "aggregates": [[p, n, *rec] for (p, n), rec in self.aggregates.items()],
            "counters": self.counters,
        }


def install(tracer: Tracer) -> Callable[[list[str]], int]:
    """Wrap every layer's public functions; returns the wrapped cli.main."""
    from prefixpack import cli, codes, geometry, model, oracle, packer

    def patch(owners: tuple, attr: str, name: str, **kw: Any) -> None:
        wrapped = tracer.wrap(name, getattr(owners[0], attr), **kw)
        for owner in owners:
            setattr(owner, attr, wrapped)

    for attr in ("cmd_decide", "cmd_construct", "cmd_kraft", "cmd_selftest"):
        patch((cli,), attr, "cli.cmd")
    for attr in ("load_instance", "parse_instance_json", "to_problem_spec", "result_to_json"):
        patch((cli,), attr, f"cli.{attr}")

    def spec_sizes(args, result, token) -> None:
        lengths = args[0].lengths
        tracer.count("model.m", len(lengths))
        tracer.count("model.groups", len(set(lengths)))
        tracer.widest("model.l1max", max((p[0] for p in lengths), default=0))
        tracer.widest("model.l2max", max((p[1] for p in lengths), default=0))

    spec = model.ProblemSpec
    spec.__post_init__ = tracer.wrap("model.spec", spec.__post_init__, aggregate=True, after=spec_sizes)
    for prop in ("m", "l1max", "l2max"):
        setattr(spec, prop, property(tracer.wrap("model.scan", getattr(spec, prop).fget, aggregate=True)))

    for attr in ("decide", "decide_fast", "construct"):
        patch((packer,), attr, f"packer.{attr}")
    patch((packer,), "solve_naive", "packer.solve_naive",
          after=lambda args, result, token: tracer.count("packer.blocks", len(args[0])))

    bank = packer.ContainerBank

    def caps_before(args):
        return (args[0].cap_i, args[0].cap_j)

    def widest_after_descent(args, result, caps) -> None:
        # Counts only grow when caps descend, and then in the new cap row and
        # column; sample those after each descent that moved a cap.
        b = args[0]
        if (b.cap_i, b.cap_j) != caps:
            row = b.counts[b.cap_i][: b.cap_j + 1]
            col = [r[b.cap_j] for r in b.counts[: b.cap_i + 1]]
            tracer.widest("packer.bank.max_count_bits", max(max(row), max(col)).bit_length())

    bank.descend_caps = tracer.wrap("packer.bank.descend", bank.descend_caps, aggregate=True,
                                    before=caps_before, after=widest_after_descent)
    bank.consume_column = tracer.wrap("packer.bank.consume", bank.consume_column, aggregate=True)
    bank.consume_row = tracer.wrap("packer.bank.consume", bank.consume_row, aggregate=True)

    patch((geometry, packer), "cut_sigma", "geometry.cut_sigma", aggregate=True,
          after=lambda args, result, token: tracer.count("geometry.pieces", len(result)))
    patch((geometry, packer), "corner_cut_regions", "geometry.corner_cut", aggregate=True)

    patch((codes,), "kraft_sum", "codes.kraft_sum")
    patch((codes,), "lengths_to_instance", "codes.lengths_to_instance")
    patch((codes,), "solution_to_codebook", "codes.solution_to_codebook")

    patch((oracle,), "brute_decide", "oracle.brute_decide",
          after=lambda args, result, token: tracer.count("oracle.budget_exceeded",
                                                         result == "budget_exceeded"))
    return tracer.wrap("cli.main", cli.main)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import prefixpack.cli  # noqa: F401  (the import every CLI run pays; setup_s measures it)

    clock = time.perf_counter
    t0 = clock()
    tracer = Tracer()
    traced_main = install(tracer)
    t1 = clock()
    try:
        return traced_main(cli_args)
    finally:
        t2 = clock()
        record = tracer.dump()
        record["tracer_s"] = 0.0
        text = json.dumps(record)
        # The tracer's own time outside cli.main: installing wrappers and
        # serialising the record; patched into the text just made.
        tracer_s = (t1 - t0) + (clock() - t2)
        text = text[: -len("0.0}")] + f"{tracer_s!r}}}"
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write(text)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
