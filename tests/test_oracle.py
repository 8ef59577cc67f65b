import tracemalloc
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from prefixpack import oracle
from prefixpack.geometry import overlap
from prefixpack.model import Arities
from prefixpack.oracle import (
    BudgetExceeded,
    OracleLimits,
    brute_decide,
    enumerate_instances,
)
from prefixpack.packer import decide

from brute_reference import brute_decide_reference
from conftest import assert_partition
from sigma_oracle import brute_sigma_min

Q22 = Arities(2, 2)


class TestBruteDecide:
    def test_counterexample(self):
        assert brute_decide([(1, 2), (2, 1)], [(0, 0, 2, 2)]) == "no"

    def test_two_containers(self):
        assert brute_decide([(2, 1), (1, 2)], [(0, 0, 2, 2), (0, 2, 2, 1)]) == "yes"

    def test_empty_blocks(self):
        assert brute_decide([], [(0, 0, 2, 2)]) == "yes"
        assert brute_decide([], []) == "yes"

    def test_area_shortfall_is_no(self):
        assert brute_decide([(4, 4)], [(0, 0, 2, 2)]) == "no"

    def test_budget_exceeded_reported(self):
        tight = OracleLimits(max_m=16, max_dim=64, max_nodes=3)
        assert brute_decide([(1, 1)] * 9, [(0, 0, 4, 4)], tight) == "budget_exceeded"

    def test_candidates_counted_against_the_budget(self):
        # one unit block has 512 * 512 aligned spots: counted, and over budget, before any is listed
        limits = OracleLimits(max_m=1, max_dim=512, max_nodes=1000)
        assert brute_decide([(1, 1)], [(0, 0, 512, 512)], limits) == "budget_exceeded"

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            brute_decide([(1, 1)] * 3, [], OracleLimits(max_m=2))
        with pytest.raises(ValueError):
            brute_decide([(128, 1)], [], OracleLimits(max_dim=64))
        with pytest.raises(ValueError):
            brute_decide([], [(0, 0, 1, 128)], OracleLimits(max_dim=64))
        with pytest.raises(ValueError):
            brute_decide([(0, 1)], [(0, 0, 2, 2)])
        with pytest.raises(ValueError):
            OracleLimits(max_m=0)

    def test_placement_order_independence(self, rng):
        for _ in range(150):
            q = Arities(rng.choice([2, 3]), rng.choice([2, 3]))
            m = rng.randint(1, 5)
            blocks = [(q.q1 ** rng.randint(0, 2), q.q2 ** rng.randint(0, 2)) for _ in range(m)]
            containers = [(0, 0, q.q1**2, q.q2**2)]
            base = brute_decide(blocks, containers)
            for _ in range(3):
                rng.shuffle(blocks)
                assert brute_decide(blocks, containers) == base

    def test_alignment_constraint_enforced(self):
        # two 2x1 blocks in a 4x1 strip offset by 1: only x=2 is aligned,
        # so the second block cannot be placed
        blocks = [(2, 1), (2, 1)]
        assert brute_decide(blocks, [(1, 0, 4, 1)]) == "no"
        assert brute_decide(blocks, [(0, 0, 4, 1)]) == "yes"
        assert brute_decide(blocks, [(1, 0, 4, 1)]) == "no"  # the cached spots follow the container

    @settings(max_examples=300)
    @given(
        blocks=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=6),
        containers=st.lists(st.tuples(*[st.integers(1, 12)] * 2, *[st.integers(1, 6)] * 2), min_size=1, max_size=3),
        max_nodes=st.sampled_from([1, 3, 10, 50, 10**6]),
    )
    def test_same_outcome_as_the_tuple_reference(self, blocks, containers, max_nodes):
        assume(not any(overlap(a, b) for i, a in enumerate(containers) for b in containers[i + 1:]))
        limits = OracleLimits(max_m=6, max_dim=64, max_nodes=max_nodes)
        assert brute_decide(blocks, containers, limits) == brute_decide_reference(blocks, containers, limits)

    def test_far_apart_containers_cost_no_gap_cells(self):
        # cells are numbered from the origin, so a container that leaves [0, max_dim]^2 is
        # refused before any mask is built; one that stays in it may lie far from the others
        for box in [(64, 0, 1, 1), (0, 60, 1, 5), (-1, 0, 1, 1), (0, -2, 2, 2)]:
            with pytest.raises(ValueError):
                brute_decide([(1, 1)], [(0, 0, 1, 1), box])
        with pytest.raises(ValueError):
            brute_decide([(2, 2), (1, 1)], [(0, 0, 2, 2), (10**12, 10**12, 1, 1)])
        assert brute_decide([(1, 1)] * 2, [(0, 0, 1, 1), (63, 63, 1, 1)]) == "yes"
        assert brute_decide([(1, 1)] * 2, [(0, 0, 1, 1), (1, 0, 1, 1)]) == "yes"  # touching
        assert brute_decide([(2, 1)], [(0, 0, 1, 1), (1, 0, 1, 1)]) == "no"  # no block spans two

    def test_spots_kept_in_arrays(self):
        # a unit block in 512 x 512 has 262,144 spots: 2 MiB as machine words, about 40 MiB as tuples
        oracle._layout.cache_clear()
        tracemalloc.start()
        try:
            got = brute_decide([(1, 1)], [(0, 0, 512, 512)], OracleLimits(max_dim=4096, max_nodes=5_000_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == "yes" and peak < 8 << 20


class TestBruteSigmaMin:
    def test_misaligned_strip(self):
        count, parts = brute_sigma_min((1, 0, 2, 1), (2, 1), Q22)
        assert count == 2
        assert_partition((1, 0, 2, 1), (2, 1), Q22, parts)

    def test_container_already_conforming(self):
        count, parts = brute_sigma_min((0, 0, 2, 2), (2, 2), Q22)
        assert count == 1
        assert parts == ((0, 0, 2, 2),)

    def test_grid_cut(self):
        count, parts = brute_sigma_min((0, 0, 4, 2), (2, 1), Q22)
        assert count == 4
        assert_partition((0, 0, 4, 2), (2, 1), Q22, parts)

    def test_budget_exceeded_raises(self):
        tight = OracleLimits(max_m=1, max_dim=16, max_nodes=2)
        with pytest.raises(BudgetExceeded):
            brute_sigma_min((1, 1, 8, 8), (8, 8), Q22, tight)

    def test_partitions_satisfy_cut_invariants(self, rng):
        for _ in range(150):
            q = Arities(rng.choice([2, 3]), rng.choice([2, 3]))
            c = (rng.randrange(0, 8), rng.randrange(0, 8), rng.randrange(1, 7), rng.randrange(1, 7))
            s = (q.q1 ** rng.randint(0, 2), q.q2 ** rng.randint(0, 2))
            if max(s) > 8:
                continue
            count, parts = brute_sigma_min(c, s, q)
            assert count == len(parts)
            assert_partition(c, s, q, parts)


class TestEnumerateInstances:
    def test_m1_len1(self):
        specs = list(enumerate_instances([(2, 2)], 1, 1))
        got = [spec.lengths for spec in specs]
        assert got == [(), ((0, 0),), ((0, 1),), ((1, 0),), ((1, 1),)]

    def test_multiset_count_m2(self):
        specs = list(enumerate_instances([(2, 2)], 2, 1))
        # C(4+2-1, 2) + C(4, 1) + 1
        assert len(specs) == 10 + 4 + 1

    def test_no_duplicate_multisets(self):
        seen = Counter()
        for spec in enumerate_instances([(2, 3)], 3, 1):
            seen[tuple(sorted(spec.lengths))] += 1
        assert all(v == 1 for v in seen.values())

    def test_every_instance_is_decidable_input(self):
        for spec in enumerate_instances([(2, 2), (3, 2)], 2, 1):
            decide(spec)  # must not raise

    def test_deterministic_stream(self):
        a = [s.lengths for s in enumerate_instances([(2, 2), (2, 3)], 2, 2)]
        b = [s.lengths for s in enumerate_instances([(2, 2), (2, 3)], 2, 2)]
        assert a == b
