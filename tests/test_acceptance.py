"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from prefixpack.codes import (
    SourceDistribution,
    entropy_bound,
    kraft_sum,
    lengths_to_instance,
    pair_prefix_free,
    solution_to_codebook,
    verify_codebook,
)
from prefixpack.geometry import Region, Size, cut_sigma, overlap, reg, solve_naive, sort_blocks_desc
from prefixpack.model import Arities, ProblemSpec
from prefixpack.oracle import (
    OracleLimits,
    brute_decide,
    brute_sigma_min,
    enumerate_instances,
)
from prefixpack.packer import construct, decide

from conftest import assert_partition, naive_input

SWEEP_ARITIES = ((2, 2), (2, 3), (3, 2), (3, 3))
ORACLE_LIMITS = OracleLimits(max_m=8, max_dim=4096, max_nodes=10_000_000)


@contextmanager
def criterion(number: int, text: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {text}")
        raise
    print(f"PASS criterion {number}: {text}")


def sweep_instances():
    """The exhaustive box shared by criteria 3 and 9."""
    return enumerate_instances(SWEEP_ARITIES, max_m=4, max_len=2)


def single_channel_instances():
    """The exhaustive box shared by criteria 6 and 9."""
    for q1 in (2, 3):
        for m in range(7):
            for combo in itertools.combinations_with_replacement(range(5), m):
                yield ProblemSpec(Arities(q1, 2), tuple((l1, 0) for l1 in combo))


def random_true_instances(count: int = 1000):
    """The random decide=true corpus shared by criteria 5 and 9 (fixed seed)."""
    rng = random.Random(55)
    accepted = 0
    while accepted < count:
        pick = rng.random()
        if pick < 0.7:
            q, lh = Arities(2, 2), 6
        elif pick < 0.8:
            q, lh = Arities(2, 3), 3
        elif pick < 0.9:
            q, lh = Arities(3, 2), 3
        else:
            q, lh = Arities(3, 3), 3
        m = rng.randint(1, 20)
        spec = ProblemSpec(
            q, tuple((rng.randint(1, lh), rng.randint(1, lh)) for _ in range(m))
        )
        if decide(spec):
            accepted += 1
            yield spec


def test_criterion_1_counterexample_reproduction():
    with criterion(1, "Kraft-satisfying counterexample decides NOT-EXISTS"):
        spec = ProblemSpec(Arities(2, 2), ((1, 0), (0, 1)))
        assert kraft_sum((2, 2), spec.lengths) == Fraction(1)
        assert decide(spec) is False
        best = min(
            _timed(lambda: (kraft_sum((2, 2), spec.lengths), decide(spec)))
            for _ in range(10)
        )
        assert best < 1e-3, f"took {best * 1e3:.3f} ms"


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_two_container_instance():
    with criterion(2, "2x1 and 1x2 blocks pack into containers {2x2, 2x1}"):
        blocks = [Size(2, 1), Size(1, 2)]
        containers = [reg(0, 0, 2, 2), reg(0, 2, 2, 1)]
        sol = solve_naive(blocks, containers, Arities(2, 2))
        assert sol is not None
        placed = [Region(x, y, b) for (x, y), b in zip(sol, blocks)]
        assert not overlap(placed[0], placed[1])


def test_criterion_3_decision_equivalence_sweep():
    with criterion(3, "decide = construct = solve_naive = brute force, exhaustively"):
        t0 = time.perf_counter()
        checked = 0
        for spec in sweep_instances():
            fast = decide(spec)
            built = construct(spec) is not None
            inst = lengths_to_instance(spec)
            blocks, containers = naive_input(inst)
            naive = solve_naive(sort_blocks_desc(blocks), containers, spec.arities)
            brute = brute_decide(inst.blocks, [inst.container], ORACLE_LIMITS)
            assert brute in ("yes", "no"), f"oracle budget on {spec.lengths}"
            assert fast == built == (naive is not None) == (brute == "yes"), (
                f"q=({spec.arities.q1},{spec.arities.q2}) lengths={spec.lengths}: "
                f"fast={fast} construct={built} naive={naive is not None} brute={brute}"
            )
            checked += 1
        elapsed = time.perf_counter() - t0
        assert checked >= 2000
        assert elapsed < 300, f"sweep took {elapsed:.0f}s"


def _floor_pow(q: int, value: int) -> int:
    p = 1
    while p * q <= value:
        p *= q
    return p


def test_criterion_4_sigma_matches_minimal_partition():
    with criterion(4, "container cuts are minimal partitions (vs oracle)"):
        limits = OracleLimits(max_m=1, max_dim=8, max_nodes=10_000_000)
        cases = 0
        for q1, q2 in SWEEP_ARITIES:
            q = Arities(q1, q2)
            # Positions repeat modulo the largest piece modulus (every piece
            # width divides p1, every height divides p2), and translating a
            # container by such a multiple maps partitions bijectively, so
            # sweeping the residues covers every container position.
            p1 = _floor_pow(q1, 8)
            p2 = _floor_pow(q2, 8)
            for w in range(1, 9):
                for h in range(1, 9):
                    sw_options = sorted({_floor_pow(q1, min(cap, w)) for cap in (1, 2, 3, 4, 8)})
                    sh_options = sorted({_floor_pow(q2, min(cap, h)) for cap in (1, 2, 3, 4, 8)})
                    for x in range(p1):
                        for y in range(p2):
                            c = reg(x, y, w, h)
                            for sw in sw_options:
                                for sh in sh_options:
                                    s = Size(sw, sh)
                                    pieces = cut_sigma(c, s, q)
                                    assert_partition(c, s, q, pieces)
                                    count, parts = brute_sigma_min(c, s, q, limits)
                                    assert_partition(c, s, q, parts)
                                    assert len(pieces) == count, (
                                        f"q=({q1},{q2}) c={c} s=[{s.w},{s.h}]: "
                                        f"cut={len(pieces)} minimal={count}"
                                    )
                                    cases += 1
        assert cases > 20_000
        print(f"  ({cases} distinct container/bound classes)", end=" ")


def test_criterion_5_codebook_roundtrip():
    with criterion(5, "constructed codebooks verify prefix-free; overlap duality"):
        # part 1: >= 1000 random decide=true instances round-trip
        for spec in random_true_instances(1000):
            sol = construct(spec)
            assert sol is not None, f"construct lost {spec.lengths}"
            book = solution_to_codebook(spec, sol)
            assert verify_codebook(book), f"codebook clash on {spec.lengths}"
        # part 2: exhaustive placed-pair duality at l1max = l2max = 3
        for q1, q2 in SWEEP_ARITIES:
            q = Arities(q1, q2)
            lmax = 3
            placed = []
            for l1 in range(lmax + 1):
                for l2 in range(lmax + 1):
                    w = q.q1 ** (lmax - l1)
                    h = q.q2 ** (lmax - l2)
                    for x in range(0, q.q1**lmax - w + 1, w):
                        for y in range(0, q.q2**lmax - h + 1, h):
                            spec = ProblemSpec(q, ((l1, l2), (lmax, lmax)))
                            word = solution_to_codebook(spec, ((x, y), (0, 0)))[0]
                            placed.append((Region(x, y, Size(w, h)), word))
            for (r1, w1), (r2, w2) in itertools.combinations(placed, 2):
                assert overlap(r1, r2) != pair_prefix_free(w1, w2), (
                    f"duality broke at {r1} vs {r2}"
                )
            # a word is never prefix-free with itself; its block overlaps itself
            for r1, w1 in placed:
                assert not pair_prefix_free(w1, w1)


def test_criterion_6_single_channel_kraft_sufficiency():
    with criterion(6, "single-channel existence is exactly the Kraft condition"):
        for spec in single_channel_instances():
            qs = (spec.arities.q1,)
            lengths = tuple((l1,) for l1, _ in spec.lengths)
            assert decide(spec) == (kraft_sum(qs, lengths) <= 1), spec.lengths


def test_criterion_7_entropy_equality_case():
    with criterion(7, "dyadic source meets the entropy bound with equality"):
        dist = SourceDistribution((0.5, 0.25, 0.25), 2.0)
        report = entropy_bound((2,), ((1,), (2,), (2,)), dist)
        assert abs(report.avg_length - report.entropy) <= 1e-12
        assert report.equality


def test_criterion_8_fast_path_performance():
    with criterion(8, "100k-block decision under 1s, ~linear growth"):
        rng = random.Random(2024)

        def make(m: int) -> ProblemSpec:
            lengths = [(rng.randint(20, 40), rng.randint(20, 40)) for _ in range(m - 2)]
            lengths += [(40, rng.randint(20, 40)), (rng.randint(20, 40), 40)]
            return ProblemSpec(Arities(2, 2), tuple(lengths))

        spec1 = make(100_000)
        spec2 = make(200_000)
        assert spec1.l1max == spec1.l2max == 40
        t1 = min(_timed(lambda: decide(spec1)) for _ in range(3))
        t2 = min(_timed(lambda: decide(spec2)) for _ in range(3))
        assert t1 < 1.0, f"m=100000 took {t1:.3f}s"
        assert t2 <= 3 * t1 + 0.02, f"doubling m scaled {t2 / t1:.2f}x"
        print(f"  (m=100k: {t1 * 1e3:.0f} ms, m=200k: {t2 * 1e3:.0f} ms)", end=" ")


def test_criterion_9_kraft_necessity_everywhere():
    with criterion(9, "decide=true implies the Kraft inequality on every corpus"):
        def check(spec: ProblemSpec) -> bool:
            if not decide(spec):
                return False
            qs = (spec.arities.q1, spec.arities.q2)
            assert kraft_sum(qs, spec.lengths) <= 1, spec.lengths
            return True

        positives = 0
        for spec in sweep_instances():
            positives += check(spec)
        for spec in single_channel_instances():
            positives += check(spec)
        for spec in random_true_instances(250):
            positives += check(spec)
        assert positives > 1000
