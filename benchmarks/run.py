"""prefixpack benchmark: fixed-seed workloads run through the CLI as child processes.

    python3 benchmarks/run.py --workload wide --seed 1 --seconds 55 --trace 0

Run from the repository root.  The benchmark generates the workload's
instance files from --seed (benchmarks/corpus.py), then runs whole cycles of
prefixpack CLI commands on them, one child process at a time, for about
--seconds.  Every answer is checked against the verdict, Kraft string or
selftest count known when the instance was generated (benchmarks/checks.py);
a wrong answer, a wrong exit code, output on stderr, a crash or a timeout
counts as a failed invocation.

--trace 0 reports the end-to-end metrics, measured on untraced children:
setup_s (median of interpreter start plus `import prefixpack.cli`, launched
about every two seconds through the run), decide_s, kraft_s, construct_s
and selftest_s (wall time of one process of that command: its mean in each
cycle, trimmed mean over the run's cycles), codewords_per_s, peak_rss_mb
(largest child ru_maxrss) and ok_ratio (share of invocations that passed
their check).  Times and codewords_per_s are given at the speed of a fixed
reference program launched beside every set-up sample (see REFERENCE); the
log lines before the result also give the measured times.

--trace 1 runs each command of a cycle twice, untraced and then under
benchmarks/tracer.py, and reports per-layer self times and counts, medians
over cycles of their per-cycle sums, plus the tracing overhead, all as
measured.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  What each workload is for, and which layer metric should move which
end-to-end metric on which workload, is in benchmarks/layers.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import checks
import corpus

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
WORK = Path(__file__).resolve().parent / ".work"

# No single invocation on these corpora takes more than a few seconds; a
# minute means something hangs.  No job starts, and no child outlives,
# RUN_LIMIT_S after the benchmark starts, so a run ends within 180 s.
TIMEOUT_S = 60.0
RUN_LIMIT_S = 160.0
# Set-up and reference launches are spread over the run, a pair after the
# first job that ends at least SETUP_EVERY_S after the previous pair, so that
# their medians sample the machine over the same stretch of time as the
# commands.
SETUP_EVERY_S = 2.0
LAUNCHER = "import sys; from prefixpack.cli import main; sys.exit(main())"
# The host is shared and its speed drifts by 20-40% over minutes, which moves
# whole runs together.  REFERENCE is a fixed program that runs no prefixpack
# code, only the kinds of work the commands spend their time in: JSON
# parsing, tuple and dict building, Fraction sums and big-integer divmod.
# End-to-end times are reported at the reference speed: each cycle's wall
# times are multiplied by REFERENCE_S over the median wall time of the
# REFERENCE launches made during that cycle.  No change to prefixpack can
# move REFERENCE, so the factor follows the host alone.
REFERENCE = """
import json
from fractions import Fraction
rows = json.loads("[" + ",".join("[%d,%d]" % (i % 29, i * 7 % 31) for i in range(40000)) + "]")
hist = {}
for row in rows:
    pair = (row[0], row[1])
    hist[pair] = hist.get(pair, 0) + 1
total = Fraction(0)
for (a, b), n in sorted(hist.items()):
    total += Fraction(n, 2 ** (a + b))
x = 3 ** 3000
for k in range(2000):
    x, r = divmod(x * 5 + k, 7)
    x += r << 2000
assert total > 0 and x > 0
"""
# About REFERENCE's median wall time on the machine of the first trajectory
# point (benchmarks/trajectory.json), so that reported times are near its
# wall times.
REFERENCE_S = 0.12


@dataclass
class HostSample:
    at: float  # perf_counter() when the reference launch started
    setup: float  # wall time of interpreter start plus `import prefixpack.cli`
    reference: float  # wall time of `python -c REFERENCE`


@dataclass
class Outcome:
    wall: float
    code: int
    stdout: str
    stderr: str
    rss_kb: int
    timed_out: bool
    output: str = ""  # the result file a construct job wrote


def spawn(argv: list[str], env: dict, scratch: Path, timeout: float = TIMEOUT_S) -> Outcome:
    """Run one child to completion; wall time, exit code, output and its own rusage.

    The child is reaped with os.wait4 so that ru_maxrss is the child's alone.
    A pidfd gives the timeout without polling and without racing pid reuse.
    """
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
            if not ready:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            # interrupted (SIGTERM, Ctrl-C): take the child down with us
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        wall,
        proc.returncode,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
        usage.ru_maxrss,
        not ready,
    )


@dataclass
class Job:
    """One CLI invocation and how to judge its outcome."""

    kind: str  # decide | kraft | construct | selftest
    args: list[str]  # command line after the program name
    codewords: int
    judge: Callable[[Outcome], str | None]
    input_path: Path | None = None
    output_path: Path | None = None

    def problem(self, outcome: Outcome) -> str | None:
        if outcome.timed_out:
            return f"timed out after {outcome.wall:.0f} s"
        if outcome.stderr:
            return f"wrote to stderr: {outcome.stderr.strip()[:200]}"
        return self.judge(outcome)


def instance_jobs(inst: corpus.Instance, path: Path, kinds: tuple[str, ...], work: Path) -> list[Job]:
    q, lengths, exists = inst.q, inst.lengths, inst.exists
    kraft = checks.kraft_string(q, lengths)
    jobs = []
    for kind in kinds:
        args = [kind, "--input", str(path)]
        judge: Callable[[Outcome], str | None]
        output = None
        if kind == "decide":
            judge = lambda o: checks.decide_problem(exists, o.code, o.stdout)
        elif kind == "kraft":
            judge = lambda o: checks.kraft_problem(kraft, o.code, o.stdout)
        else:
            output = work / f"{inst.name}.result.json"
            args += ["--output", str(output)]

            def judge(o: Outcome) -> str | None:
                if o.stdout:
                    return f"construct printed to stdout: {o.stdout[:200]!r}"
                return checks.construct_problem(q, lengths, kraft, exists, o.code, o.output)

        jobs.append(Job(kind, args, inst.m, judge, path, output))
    return jobs


def selftest_job(arities: tuple[tuple[int, int], ...], max_m: int, max_len: int) -> Job:
    instances, codewords = checks.selftest_box(len(arities), max_m, max_len)
    args = ["selftest", "--max-m", str(max_m), "--max-len", str(max_len)]
    for q1, q2 in arities:
        args += ["--arities", f"{q1},{q2}"]
    return Job("selftest", args, codewords, lambda o: checks.selftest_problem(instances, o.code, o.stdout))


def workload_cycles(workload: str, seed: int, work: Path) -> list[list[Job]]:
    """The workload's cycles of jobs; a run repeats them in order.

    wide loads parsing, validation and Fraction sums.  deep-slack loads the
    packer's count bank (decide and kraft on deep codes), its located packer
    (construct on slack codes) and oracle (the selftest sweep).  Both run
    every command, so that every end-to-end metric exists on each; in wide,
    construct and selftest run on small inputs, where they mostly measure
    process start-up.
    """
    insts = corpus.corpus(workload, seed)
    paths = {i.name: i.write(work) for i in insts}
    by_name = {i.name: i for i in insts}

    def on(name: str, *kinds: str) -> list[Job]:
        return instance_jobs(by_name[name], paths[name], kinds, work)

    if workload == "wide":
        return [on("wide", "decide", "kraft") + on("small", "construct") + [selftest_job(((2, 2),), 3, 1)]]
    if workload == "deep-slack":
        # Every cycle has the same mix: the three deep codes, eight slack
        # codes (four of each arity pair; slack instances alternate), the
        # sweep twice and the conflict family.  The slack codes' construct
        # cost varies by about a third between instances, so a cycle runs
        # many; a run holds only a few cycles, so the sweep runs twice.
        slack = [i.name for i in insts if i.family == "slack"]
        sweep = selftest_job(corpus.selftest_arities(seed), 4, 2)
        cycles = []
        for k in range(0, len(slack), 8):
            pairs = [[job for name in slack[i : i + 2] for job in on(name, "construct")] for i in range(k, k + 8, 2)]
            cycles.append(
                on("deep", "decide", "kraft") + pairs[0] + [sweep]
                + on("deep-mixed", "decide", "kraft") + pairs[1]
                + on("deep-excess", "decide", "kraft") + pairs[2] + [sweep]
                + on("conflict", "decide", "kraft") + pairs[3]
            )
        return cycles
    raise ValueError(f"unknown workload {workload!r}")


class Runner:
    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0
        self.host: list[HostSample] = []
        self._last_sample = 0.0
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def out_of_time(self) -> bool:
        return time.perf_counter() >= self.deadline

    def run(self, job: Job, traced_spans: Path | None = None) -> Outcome:
        if job.output_path is not None and job.output_path.exists():
            job.output_path.unlink()
        if traced_spans is None:
            argv = [sys.executable, "-c", LAUNCHER, *job.args]
        else:
            argv = [sys.executable, str(TRACER), str(traced_spans), *job.args]
        timeout = min(TIMEOUT_S, max(0.0, self.deadline - time.perf_counter()))
        outcome = spawn(argv, self.env, self.work, timeout)
        if job.output_path is not None and job.output_path.exists():
            outcome.output = job.output_path.read_text(encoding="utf-8")
        self.attempted += 1
        problem = job.problem(outcome)
        if problem is not None:
            self.failed += 1
            print(f"FAIL {' '.join(job.args)}: {problem}", file=sys.stderr)
        if time.perf_counter() - self._last_sample >= SETUP_EVERY_S:
            self.sample_host()
        return outcome

    def launch(self, code: str) -> float:
        """Wall time of `python -c code`; set-up launches run `import prefixpack.cli`."""
        o = spawn([sys.executable, "-c", code], self.env, self.work)
        if o.code != 0 or o.stderr or o.timed_out:
            raise RuntimeError(f"python -c failed with prefixpack from {SRC}: {o.stderr.strip()[:500]}")
        return o.wall

    def sample_host(self) -> None:
        setup = self.launch("import prefixpack.cli")
        at = time.perf_counter()
        self.host.append(HostSample(at, setup, self.launch(REFERENCE)))
        self._last_sample = time.perf_counter()

    def samples(self) -> list[HostSample]:
        if not self.host:  # a run shorter than SETUP_EVERY_S
            self.sample_host()
        return self.host

    def scale(self, start: float, end: float) -> float:
        """Factor from wall times measured between start and end to the reference speed.

        It uses the reference launches made in that stretch, or the one
        nearest its end when none was.
        """
        refs = [h.reference for h in self.samples() if start <= h.at <= end]
        if not refs:
            refs = [min(self.samples(), key=lambda h: abs(h.at - end)).reference]
        return REFERENCE_S / statistics.median(refs)


def timed_cycles(runner: Runner, cycles: list[list[Job]], seconds: float) -> Iterator[list[Job]]:
    """Whole cycles, in order and wrapping around, for about `seconds`.

    A cycle starts only while more than half an average cycle is left, so the
    run ends at the cycle boundary nearest to `seconds`.  The first cycle
    always runs, so that every command has a sample.
    """
    start = time.perf_counter()
    n = 0
    while not runner.out_of_time():
        elapsed = time.perf_counter() - start
        if n and elapsed + elapsed / n / 2 > seconds:
            break
        yield cycles[n % len(cycles)]
        n += 1


KINDS = ("decide", "kraft", "construct", "selftest")
TRIM = 0.2


def trimmed_mean(samples: list[float]) -> float:
    """Mean of the samples left after dropping the TRIM share at each end.

    The host's speed drifts in phases lasting seconds; the median of a run's
    few samples jumps between phases, while this averages over them and
    still drops stalls.
    """
    ordered = sorted(samples)
    k = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[k : len(ordered) - k])


def end_to_end(runner: Runner, cycles: list[list[Job]], seconds: float) -> dict:
    """Each command's time is a trimmed mean over whole cycles.

    A cycle's sample for a command is the mean wall time of that command's
    processes in the cycle, times the cycle's Runner.scale.  Every cycle of a
    workload runs the same mix of instance kinds, so its samples are alike
    even where one command runs on instances of different sizes.
    """
    per_cycle: dict[str, list[float]] = defaultdict(list)
    measured: dict[str, list[float]] = defaultdict(list)  # the same, unscaled
    words = 0
    busy = 0.0  # summed wall time of the commands, at the reference speed
    peak_kb = 0
    n = 0
    for cycle in timed_cycles(runner, cycles, seconds):
        n += 1
        start = time.perf_counter()
        walls: dict[str, list[float]] = defaultdict(list)
        for job in cycle:
            if runner.out_of_time():
                break
            o = runner.run(job)
            peak_kb = max(peak_kb, o.rss_kb)
            if not o.timed_out:
                walls[job.kind].append(o.wall)
                words += job.codewords
        scale = runner.scale(start, time.perf_counter())
        for kind, samples in walls.items():
            measured[kind].append(statistics.fmean(samples))
            per_cycle[kind].append(measured[kind][-1] * scale)
            busy += sum(samples) * scale
    host = runner.samples()
    refs = [h.reference for h in host]
    print(f"reference: median {statistics.median(refs):.4f} s, range {min(refs):.4f}-{max(refs):.4f} s")
    setup = statistics.median(h.setup * REFERENCE_S / h.reference for h in host)
    metrics = {"setup_s": (setup, "s", len(host))}
    for kind in KINDS:
        samples = per_cycle[kind] or [TIMEOUT_S]
        value = trimmed_mean(samples)
        print(f"{kind}: trimmed mean {value:.4f} s at the reference speed, {trimmed_mean(measured[kind] or samples):.4f} s measured")
        metrics[f"{kind}_s"] = (value, "s", len(per_cycle[kind]))
    metrics["codewords_per_s"] = (words / busy if busy else 0.0, "1/s", runner.attempted)
    metrics["peak_rss_mb"] = (peak_kb / 1024, "MB", runner.attempted)
    ok = (runner.attempted - runner.failed) / runner.attempted
    metrics["ok_ratio"] = (ok, "ratio", runner.attempted)
    print(f"{n} cycles, {runner.attempted} invocations")
    return metrics


# Per-layer metrics: self time summed over these traced names.
SELF_TIMES = {
    "cli.main_s": ("cli.main",),
    "cli.cmd_s": ("cli.cmd",),
    "cli.read_s": ("cli.load_instance",),
    "cli.parse_s": ("cli.parse_instance_json",),
    "cli.spec_s": ("cli.to_problem_spec",),
    "cli.emit_s": ("cli.result_to_json",),
    "model.spec_s": ("model.spec",),
    "model.scan_s": ("model.scan",),
    "packer.decide_s": ("packer.decide", "packer.decide_fast"),
    "packer.bank.descend_s": ("packer.bank.descend",),
    "packer.bank.consume_s": ("packer.bank.consume",),
    "packer.construct_s": ("packer.construct",),
    "packer.solve_naive_s": ("packer.solve_naive",),
    "geometry.cut_sigma_s": ("geometry.cut_sigma",),
    "geometry.corner_cut_s": ("geometry.corner_cut",),
    "codes.kraft_s": ("codes.kraft_sum",),
    "codes.instance_s": ("codes.lengths_to_instance",),
    "codes.codebook_s": ("codes.solution_to_codebook",),
    "oracle.brute_decide_s": ("oracle.brute_decide",),
    "trace.probe_s": ("trace.probe",),
}
# Per-layer metrics: number of calls to a traced name.
CALLS = {
    "packer.bank.descend_calls": "packer.bank.descend",
    "packer.bank.consume_calls": "packer.bank.consume",
    "geometry.cut_sigma_calls": "geometry.cut_sigma",
    "geometry.corner_cut_calls": "geometry.corner_cut",
    "oracle.brute_calls": "oracle.brute_decide",
}
# Counters kept by the tracer; the widest ones take a maximum, the rest a sum.
COUNTERS = ("model.m", "model.groups", "geometry.pieces", "oracle.budget_exceeded")
WIDEST = ("model.l1max", "model.l2max", "packer.bank.max_count_bits")
UNITS = {"_s": "s", "_calls": "count", "_bits": "bits", "_bytes": "bytes"}


def layer_times(spans: dict) -> tuple[dict[str, float], dict[str, int]]:
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for _, _, name, _, _, own in spans["spans"]:
        self_time[name] += own
        calls[name] += 1
    for _, name, count, _, own in spans["aggregates"]:
        self_time[name] += own
        calls[name] += count
    return self_time, calls


def traced_step(runner: Runner, job: Job, spans_path: Path, into: dict) -> None:
    """Run job untraced and then traced; add the traced run's layer numbers to `into`."""
    untraced = runner.run(job)
    spans_path.unlink(missing_ok=True)
    traced = runner.run(job, traced_spans=spans_path)
    if traced.timed_out or not spans_path.exists():
        return

    def add(key: str, value: float) -> None:
        into[key] = into.get(key, 0) + value

    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    self_time, calls = layer_times(spans)
    for metric, names in SELF_TIMES.items():
        add(metric, sum(self_time[n] for n in names))
    for metric, name in CALLS.items():
        add(metric, calls[name])
    counters = spans["counters"]
    for key in COUNTERS + ("packer.blocks",):
        add(key, counters.get(key, 0))
    for key in WIDEST:
        into[key] = max(into.get(key, 0), counters.get(key, 0))
    add("cli.input_bytes", job.input_path.stat().st_size if job.input_path else 0)
    add("cli.output_bytes", len(traced.stdout.encode()) + len(traced.output.encode()))
    add("trace.overhead_s", traced.wall - untraced.wall)
    # setup_s is subtracted once the run's median is known
    add("trace.unattributed_s", traced.wall - sum(self_time.values()) - spans["tracer_s"])
    add("trace.commands", 1)


def per_layer(runner: Runner, cycles: list[list[Job]], seconds: float) -> dict:
    spans_path = runner.work / "spans.json"
    per_cycle: list[dict[str, float]] = []
    for cycle in timed_cycles(runner, cycles, seconds):
        sums: dict[str, float] = {}
        for job in cycle:
            if runner.out_of_time():
                break
            traced_step(runner, job, spans_path, sums)
        blocks = sums.pop("packer.blocks", 0)
        sums["geometry.pieces_per_block"] = sums.get("geometry.pieces", 0) / blocks if blocks else 0.0
        per_cycle.append(sums)
    setup = statistics.median(h.setup for h in runner.samples())
    for sums in per_cycle:
        sums["trace.unattributed_s"] = sums.get("trace.unattributed_s", 0.0) - sums.pop("trace.commands", 0) * setup
    print(f"{len(per_cycle)} traced cycles, {runner.attempted} invocations")
    metrics = {}
    for name in PER_LAYER:
        values = [c.get(name, 0) for c in per_cycle]
        unit = next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")
        if name == "geometry.pieces_per_block":
            unit = "ratio"
        metrics[name] = (statistics.median(values), unit, len(values))
    return metrics


PER_LAYER = (
    list(SELF_TIMES)
    + list(CALLS)
    + list(COUNTERS)
    + list(WIDEST)
    + ["geometry.pieces_per_block", "cli.input_bytes", "cli.output_bytes"]
    + ["trace.overhead_s", "trace.unattributed_s"]
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "prefixpack" / "cli.py").is_file():
        print(f"error: no prefixpack sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(work)
        try:
            runner.launch("import prefixpack.cli")  # writes bytecode caches; not a sample
            cycles = workload_cycles(args.workload, args.seed, work)
            measure = per_layer if args.trace else end_to_end
            metrics = measure(runner, cycles, args.seconds)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit, n) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={n})")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
