import copy
import itertools
import sys
import threading
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from prefixpack import packer
from prefixpack.codes import kraft_sum, lengths_to_instance, solution_to_codebook, verify_codebook
from prefixpack.geometry import Region, Size, contains, overlap, reg, solve_naive, sort_blocks_desc
from prefixpack.model import Arities, ProblemSpec
from prefixpack.oracle import OracleLimits, brute_decide, enumerate_instances
from prefixpack.packer import ContainerBank, _pack, construct, decide

from conftest import bare, naive_input
from dense_bank import DenseBank

Q22 = Arities(2, 2)
ORACLE_LIMITS = OracleLimits(max_m=8, max_dim=4096, max_nodes=5_000_000)


def assert_solution_valid(blocks, containers, locations) -> None:
    """The three constraints a packing, one (x, y) per block, must satisfy."""
    assert len(locations) == len(blocks)
    placed = []
    for (x, y), size in zip(locations, blocks):
        assert x % size.w == 0 and y % size.h == 0, f"({x}, {y}) misaligned for {size}"
        placed.append(Region(x, y, size))
    for a, b in itertools.combinations(placed, 2):
        assert not overlap(a, b), f"{a} overlaps {b}"
    for r in placed:
        assert sum(contains(c, r) for c in containers) == 1, f"{r} not in exactly one container"


class TestSolveNaive:
    def test_counterexample_has_no_packing(self):
        blocks = sort_blocks_desc([Size(2, 1), Size(1, 2)])
        assert solve_naive(blocks, [reg(0, 0, 2, 2)], Q22) is None

    def test_two_container_instance_packs(self):
        blocks = [Size(2, 1), Size(1, 2)]
        containers = [reg(0, 0, 2, 2), reg(0, 2, 2, 1)]
        sol = solve_naive(blocks, containers, Q22)
        assert sol == ((0, 2), (0, 0))
        assert_solution_valid(blocks, containers, sol)
        # the independent oracle agrees a packing exists
        assert brute_decide(*bare(blocks, containers), ORACLE_LIMITS) == "yes"

    def test_ties_go_to_the_smallest_x_then_y(self):
        # after (0, 0), three equal cells are left; (0, 1) precedes (1, 0)
        assert solve_naive([Size(1, 1)] * 4, [reg(0, 0, 2, 2)], Q22) == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_empty_blocks(self):
        assert solve_naive([], [reg(0, 0, 2, 2)], Q22) == ()

    def test_rejects_unsorted_blocks(self):
        with pytest.raises(ValueError):
            solve_naive([Size(1, 2), Size(2, 1)], [reg(0, 0, 2, 2)], Q22)

    def test_rejects_overlapping_containers(self):
        with pytest.raises(ValueError):
            solve_naive([], [reg(0, 0, 2, 2), reg(1, 1, 2, 2)], Q22)

    def test_rejects_irregular_block(self):
        with pytest.raises(ValueError):
            solve_naive([Size(3, 1)], [reg(0, 0, 4, 4)], Q22)

    def test_outputs_always_satisfy_constraints(self, rng):
        for _ in range(300):
            q = Arities(rng.choice([2, 3]), rng.choice([2, 3]))
            m = rng.randint(1, 8)
            lengths = tuple(
                (rng.randint(0, 3), rng.randint(0, 3)) for _ in range(m)
            )
            spec = ProblemSpec(q, lengths)
            blocks, containers = naive_input(lengths_to_instance(spec))
            blocks = sort_blocks_desc(blocks)
            sol = solve_naive(blocks, containers, q)
            if sol is not None:
                assert_solution_valid(blocks, containers, sol)


class TestDecideFast:
    def test_counterexample(self):
        assert decide(ProblemSpec(Q22, ((1, 0), (0, 1)))) is False

    def test_small_satisfiable(self):
        spec = ProblemSpec(Q22, ((1, 0), (1, 1), (1, 1)))
        assert decide(spec) is True
        inst = lengths_to_instance(spec)
        assert brute_decide(inst.blocks, [inst.container], ORACLE_LIMITS) == "yes"

    def test_empty_codebook(self):
        assert decide(ProblemSpec(Q22, ())) is True

    def test_four_unit_blocks_tile(self):
        assert decide(ProblemSpec(Q22, ((1, 1),) * 4)) is True

    def test_five_unit_blocks_overflow(self):
        assert decide(ProblemSpec(Q22, ((1, 1),) * 5)) is False

    def test_root_word_blocks_everything_else(self):
        assert decide(ProblemSpec(Q22, ((0, 0),))) is True
        assert decide(ProblemSpec(Q22, ((0, 0), (5, 5)))) is False

    def test_single_channel_follows_kraft(self):
        spec = ProblemSpec(Q22, ((1, 0), (2, 0), (2, 0)))
        assert decide(spec) is True
        assert kraft_sum((2, 2), spec.lengths) == 1

    def test_heterogeneous_arities(self):
        assert decide(ProblemSpec(Arities(2, 3), ((1, 0), (1, 1), (1, 1), (1, 1)))) is True
        assert decide(ProblemSpec(Arities(2, 3), ((1, 0), (0, 1)))) is False


class TestDecideConstructAgreement:
    def test_counterexample(self):
        spec = ProblemSpec(Q22, ((1, 0), (0, 1)))
        assert decide(spec) is False
        assert construct(spec) is None

    def test_construct_indices_follow_input_order(self):
        spec = ProblemSpec(Q22, ((1, 1), (1, 0), (1, 1)))
        sol = construct(spec)
        # the 1x2 block packs first, then the two 1x1 blocks go up column 1 in input order
        assert sol == ((1, 0), (0, 0), (1, 1))
        assert_solution_valid(*naive_input(lengths_to_instance(spec)), sol)

    def test_randomized_agreement(self, rng):
        for _ in range(500):
            q = Arities(rng.choice([2, 3, 4, 5]), rng.choice([2, 3, 4, 5]))
            m = rng.randint(0, 10)
            lengths = tuple((rng.randint(0, 3), rng.randint(0, 3)) for _ in range(m))
            spec = ProblemSpec(q, lengths)
            sol = construct(spec, audit=True)  # audit: origin ledger in step with counts
            present = sol is not None
            blocks, containers = naive_input(lengths_to_instance(spec))
            naive = solve_naive(sort_blocks_desc(blocks), containers, q)
            assert (naive is not None) == present
            assert decide(spec, audit=True) == present
            if present:
                assert verify_codebook(solution_to_codebook(spec, sol))
            # swapped channels turn column walks into row walks
            swapped = ProblemSpec(Arities(q.q2, q.q1), tuple((l2, l1) for l1, l2 in lengths))
            assert decide(swapped, audit=True) == present


class TestTheoremEquivalenceSweep:
    """Exhaustive three-way agreement on a sub-box of the acceptance sweep."""

    def test_q22_m3(self):
        for spec in enumerate_instances([(2, 2)], 3, 2):
            fast = decide(spec)
            built = construct(spec) is not None
            inst = lengths_to_instance(spec)
            blocks, containers = naive_input(inst)
            naive = solve_naive(sort_blocks_desc(blocks), containers, spec.arities)
            brute = brute_decide(inst.blocks, [inst.container], ORACLE_LIMITS)
            assert brute in ("yes", "no")
            assert fast == built == (naive is not None) == (brute == "yes"), f"{spec.lengths}"


class TestSharedPowerTables:
    """packer._POWERS, the one table of q**k per arity that every bank reads."""

    def test_runs_leave_the_tables_as_built(self, rng):
        for _ in range(300):
            q = Arities(rng.choice([2, 3, 5]), rng.choice([2, 3, 5]))
            spec = ProblemSpec(q, tuple((rng.randint(0, 6), rng.randint(0, 6)) for _ in range(rng.randint(0, 12))))
            decide(spec, audit=True)
            if q.q1**spec.l1max * q.q2**spec.l2max <= 1 << 14:
                construct(spec, audit=True)
        assert packer._POWERS
        for q, table in packer._POWERS.items():
            assert table == [q**k for k in range(len(table))]

    def test_growth_replaces_the_table(self):
        ContainerBank(Arities(7, 7), 1, 1)
        top = len(packer._POWERS[7])  # the first exponent the shared table lacks
        held = ContainerBank(Arities(7, 7), top - 1, 0).pow1
        before = list(held)
        assert held is packer._POWERS[7]
        grown = ContainerBank(Arities(7, 7), 0, top + 5)
        assert grown.pow1 is grown.pow2 is packer._POWERS[7] and grown.pow1 is not held
        assert held == before and grown.pow1[:top] == held and len(grown.pow1) > top + 5

    def test_threads_growing_one_table_each_hold_a_whole_one(self, rng):
        # more threads than cores, switching often, all growing the table of one arity
        base = len(packer._POWERS.get(11, [1]))
        depths = [base + rng.randrange(400) for _ in range(200)]
        wrong = []

        def grow(part):
            for d in part:
                table = ContainerBank(Arities(11, 11), d, d // 2).pow1
                if len(table) <= d or table[d] != 11**d or table[d // 2] != 11 ** (d // 2):
                    wrong.append(d)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=grow, args=(depths[k::4],)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and wrong == []
        assert packer._POWERS[11] == [11**k for k in range(len(packer._POWERS[11]))]


class TestSpecFromHistogram:
    """ProblemSpec.from_groups, decide's input, against the spec built from the lengths."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12),
    )
    def test_same_verdict_and_multiset(self, qs, lengths):
        listed = ProblemSpec(Arities(*qs), lengths)
        hist = ProblemSpec.from_groups(Arities(*qs), Counter(lengths))
        assert decide(hist) == decide(listed)
        assert (hist.m, hist.l1max, hist.l2max, hist.groups) == (listed.m, listed.l1max, listed.l2max, listed.groups)
        assert Counter(hist.lengths) == Counter(lengths)  # built on demand, grouped
        locations = construct(hist)
        assert (locations is not None) == decide(listed)
        if locations is not None:
            assert verify_codebook(solution_to_codebook(hist, locations))


@st.composite
def grown_codes(draw):
    """Arities and a multiset of length pairs: the leaves of a two-channel prefix
    tree grown by splitting leaves (lengths up to 4), some dropped, plus a few
    arbitrary pairs, so that both verdicts and partly used containers occur."""
    q = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))
    leaves = [(0, 0)]
    for _ in range(draw(st.integers(0, 16))):
        k = draw(st.integers(0, len(leaves) - 1))
        c = draw(st.integers(0, 1))
        if leaves[k][c] < 4:
            grown = (leaves[k][0] + 1, leaves[k][1]) if c == 0 else (leaves[k][0], leaves[k][1] + 1)
            leaves[k:k + 1] = [grown] * q[c]
    kept = [p for p in leaves if not draw(st.booleans())] if draw(st.booleans()) else leaves
    extra = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=3))
    return Arities(*q), Counter(kept + extra)


class LockstepBank(ContainerBank):
    """An audited bank that, after each group _pack hands it, packs the dense
    reference's own next group and compares the two banks cell for cell."""

    def __init__(self, spec, located):
        super().__init__(spec.arities, spec.l1max, spec.l2max, audit=True, located=located)
        self.ref = DenseBank(spec.arities, spec.l1max, spec.l2max)
        self.todo = self.ref.order(spec.groups, (spec.l1max, spec.l2max))
        self.groups_done = 0

    def consume_column(self, i, b, need):
        return self._compare(super().consume_column(i, b, need))

    def consume_row(self, j, a, need):
        return self._compare(super().consume_row(j, a, need))

    def _compare(self, ok):
        (i, j), need = self.todo[self.groups_done]
        self.groups_done += 1
        ref = self.ref
        assert ref.pack(i, j, need) == ok, "the walks disagree"
        assert self.caps == ref.caps
        ci, cj = self.caps
        assert all(key[0] == ci or key[1] == cj for key, origins in ref.cells.items() if origins)
        assert self.lines[0][: ci + 1] == [ref.count(t, cj) for t in range(ci + 1)]
        assert self.lines[1][: cj + 1] == [ref.count(ci, t) for t in range(cj + 1)]
        # the table view benchmarks/tracer.py reads: the cap column, then the cap row
        assert self.counts[ci][: cj + 1] == [ref.count(ci, t) for t in range(cj + 1)]
        assert [r[cj] for r in self.counts[: ci + 1]] == [ref.count(t, cj) for t in range(ci + 1)]
        assert self.free_area() == ref.free
        if self.origins is not None:
            assert self.origins[0][: ci + 1] == [ref.cells.get((t, cj), []) for t in range(ci + 1)]
            assert self.origins[1][: cj + 1] == [ref.cells.get((ci, t), []) for t in range(cj + 1)]
            assert self.placed == ref.placed
        return ok


class TestDenseLockstep:
    """ContainerBank, driven by _pack, against the dense-table reference, group by group."""

    @pytest.mark.parametrize("located", [False, True], ids=["counts", "origins"])
    @settings(max_examples=300, deadline=None)
    @given(code=grown_codes())
    def test_banks_agree_after_every_group(self, located, code):
        q, groups = code
        spec = ProblemSpec.from_groups(q, groups)
        bank = LockstepBank(spec, located)
        if _pack(bank, spec.groups) is not None:  # else both failed the last group compared
            assert bank.groups_done == len(bank.todo)


# Arities with square blocks off the diagonal (4**1 == 2**2, 9**1 == 3**2),
# each with length caps that keep a located bank's grid at most 2**12 cells
SQUARE_ARITIES = {(2, 2): (4, 4), (3, 3): (3, 3), (4, 2): (3, 4), (2, 4): (4, 3), (9, 3): (2, 3), (3, 9): (3, 2)}


@st.composite
def square_codes(draw):
    """Arities and a multiset of length pairs grown as in grown_codes, with
    arities whose blocks are square at mixed exponents."""
    q = draw(st.sampled_from(sorted(SQUARE_ARITIES)))
    caps = SQUARE_ARITIES[q]
    leaves = [(0, 0)]
    for _ in range(draw(st.integers(0, 12))):
        k = draw(st.integers(0, len(leaves) - 1))
        c = draw(st.integers(0, 1))
        if leaves[k][c] < caps[c]:
            grown = (leaves[k][0] + 1, leaves[k][1]) if c == 0 else (leaves[k][0], leaves[k][1] + 1)
            leaves[k:k + 1] = [grown] * q[c]
    kept = [p for p in leaves if not draw(st.booleans())] if draw(st.booleans()) else leaves
    extra = draw(st.lists(st.tuples(st.integers(0, caps[0]), st.integers(0, caps[1])), max_size=3))
    return Arities(*q), Counter(kept + extra)


class TwinWalkBank(ContainerBank):
    """A located, audited bank that packs each group of square blocks twice,
    up the cap column on itself and up the cap row on a deep copy, and checks
    that both walks leave the same bank."""

    def __init__(self, spec):
        super().__init__(spec.arities, spec.l1max, spec.l2max, audit=True, located=True)
        self.squares = 0

    def consume_column(self, i, b, need):
        if self.pow1[i] == self.pow2[b]:
            return self._both_walks(i, b, need)
        return super().consume_column(i, b, need)

    def consume_row(self, j, a, need):
        if self.pow1[a] == self.pow2[j]:
            return self._both_walks(a, j, need)
        return super().consume_row(j, a, need)

    def _both_walks(self, a, b, need):
        assert self.caps == [a, b], "the descent for a square block ends at the corner"
        twin = copy.deepcopy(self)
        ok = ContainerBank.consume_column(self, a, b, need)
        assert ContainerBank.consume_row(twin, b, a, need) == ok
        assert (twin.lines, twin.caps, twin.live, twin.free_area()) == (self.lines, self.caps, self.live, self.free_area())
        assert (twin.origins, twin.placed) == (self.origins, self.placed)
        self.squares += 1
        return ok


class TestSquareBlocks:
    """_pack's `w >= h` sends square blocks up the cap column; `w > h` would
    send them up the cap row.  Both walks must leave the same bank."""

    def test_column_and_row_walks_agree(self):
        squares = []

        @settings(max_examples=300, deadline=None)
        @given(code=square_codes())
        def check(code):
            q, groups = code
            spec = ProblemSpec.from_groups(q, groups)
            bank = TwinWalkBank(spec)
            order = _pack(bank, spec.groups)
            assert (order is not None) == decide(spec)
            squares.append(bank.squares)

        check()
        assert sum(map(bool, squares)) * 2 >= len(squares), "too few codes hold a square block"


class TestDecisionProperties:
    def test_permutation_invariance(self, rng):
        for _ in range(200):
            q = Arities(rng.choice([2, 3]), rng.choice([2, 3]))
            m = rng.randint(2, 9)
            lengths = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(m)]
            base = decide(ProblemSpec(q, tuple(lengths)))
            for _ in range(3):
                rng.shuffle(lengths)
                assert decide(ProblemSpec(q, tuple(lengths))) == base

    def test_kraft_necessity(self, rng):
        for _ in range(400):
            q = Arities(rng.choice([2, 3]), rng.choice([2, 3]))
            m = rng.randint(0, 10)
            lengths = tuple((rng.randint(0, 4), rng.randint(0, 4)) for _ in range(m))
            spec = ProblemSpec(q, lengths)
            if decide(spec):
                assert kraft_sum((q.q1, q.q2), lengths) <= 1

    def test_monotonicity_under_removal(self, rng):
        found = 0
        while found < 60:
            q = Arities(rng.choice([2, 3]), rng.choice([2, 3]))
            m = rng.randint(2, 8)
            lengths = tuple((rng.randint(1, 4), rng.randint(1, 4)) for _ in range(m))
            spec = ProblemSpec(q, lengths)
            if not decide(spec):
                continue
            found += 1
            for k in range(m):
                sub = lengths[:k] + lengths[k + 1 :]
                assert decide(ProblemSpec(q, sub)), f"removing {lengths[k]} broke {lengths}"


class TestContainerBank:
    def test_initial_state(self):
        bank = ContainerBank(Q22, 3, 2, audit=True)
        assert bank.caps == [3, 2] and bank.lines[0][3] == 1  # the corner, on the cap row
        assert bank.free_area() == 8 * 4
        assert bank.counted_area() == bank.free_area()

    def test_descend_splits_counts(self):
        bank = ContainerBank(Q22, 3, 2, audit=True)
        bank.descend_caps(1, 1)
        assert bank.caps == [1, 1] and bank.lines[0][1] == 4 * 2
        assert bank.counted_area() == 32

    def test_descend_rejects_raising_caps(self):
        bank = ContainerBank(Q22, 2, 2, audit=True)
        bank.descend_caps(1, 1)
        with pytest.raises(ValueError):
            bank.descend_caps(2, 1)
        for ci, cj in ((-1, 1), (1, -1), (-1, -1)):  # a negative index would wrap to the far end
            with pytest.raises(ValueError):
                bank.descend_caps(ci, cj)
        assert (bank.cap_i, bank.cap_j) == (1, 1)

    def test_consume_rejects_lines_off_the_caps(self):
        bank = ContainerBank(Q22, 2, 2, audit=True)
        bank.descend_caps(1, 1)
        for i in (0, 2, -1):
            with pytest.raises(ValueError):
                bank.consume_column(i, 0, 1)
            with pytest.raises(ValueError):
                bank.consume_row(i, 0, 1)
        assert bank.free_area() == bank.counted_area() == 16

    def test_consume_exact_fit(self):
        bank = ContainerBank(Q22, 2, 2, audit=True)
        bank.descend_caps(1, 1)  # four 2x2 containers
        assert bank.consume_column(1, 1, 3) is True
        assert bank.caps == [1, 1] and bank.lines[0][1] == 1
        assert bank.free_area() == 4

    def test_consume_with_partial_leftover(self):
        bank = ContainerBank(Q22, 2, 2, audit=True)
        # one 4x4 container; pack three 4x1 rows
        assert bank.consume_column(2, 0, 3) is True
        # leftover: one 4x1 slab
        assert bank.caps == [2, 2] and bank.lines[1][0] == 1  # on the cap column
        assert bank.free_area() == 4

    def test_descent_moves_a_slab_left_by_a_column_walk(self):
        bank = ContainerBank(Q22, 2, 2, audit=True)
        assert bank.consume_column(2, 0, 3) is True  # one 4x1 slab left on the cap column
        bank.descend_caps(1, 2)
        assert bank.caps == [1, 2] and bank.lines[1][0] == 2

    def test_descent_moves_a_slab_left_by_a_row_walk(self):
        bank = ContainerBank(Q22, 2, 2, audit=True)
        assert bank.consume_row(2, 0, 3) is True  # one 1x4 slab left on the cap row
        bank.descend_caps(2, 1)
        assert bank.caps == [2, 1] and bank.lines[0][0] == 2

    def test_consume_reports_shortage(self):
        bank = ContainerBank(Q22, 1, 1, audit=True)
        assert bank.consume_column(1, 0, 3) is False

    def test_ledger_balances_after_failed_consume(self):
        bank = ContainerBank(Arities(3, 2), 1, 2, audit=True)
        bank.descend_caps(1, 1)  # two 3x2 containers
        # five 1x2 blocks: three fill one container, two half-fill the other
        assert bank.consume_row(1, 0, 5) is True
        assert bank.consume_row(1, 0, 2) is False  # one 1x2 slab left for two
        assert bank.free_area() == bank.counted_area() == 0

    def test_audit_catches_container_off_the_cap_lines(self):
        # The bank stores only the cap row lines[0] and the cap column lines[1];
        # neither poke changes the area the lines hold below the caps.
        for line, k, cnt in ((0, 2, 1), (1, 2, 3)):  # a count past cap_i; the column's corner copy off
            bank = ContainerBank(Q22, 2, 2, audit=True)
            bank.descend_caps(1, 2)  # two 2x4 containers at the corner (1, 2)
            bank.lines[line][k] = cnt
            with pytest.raises(AssertionError, match="cap"):
                bank.descend_caps(1, 2)

    def test_one_power_table_per_distinct_arity(self):
        # every bank shares the tables, so they may run past this bank's caps
        bank = ContainerBank(Arities(2, 3), 3, 2)
        assert bank.pow1[:4] == [1, 2, 4, 8] and bank.pow2[:3] == [1, 3, 9]
        bank = ContainerBank(Q22, 7000, 7000)
        assert bank.pow1 is bank.pow2
        assert bank.pow1[:4] == [1, 2, 4, 8] and bank.pow1[7000] == 2**7000
        tracemalloc.start()
        try:
            assert decide(ProblemSpec(Q22, ((7000, 7000),)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 << 20

    def test_area_accounting_after_every_mutation(self, rng):
        # audit=True re-checks the invariant inside every bank mutation
        for _ in range(300):
            q = Arities(rng.choice([2, 3]), rng.choice([2, 3]))
            m = rng.randint(1, 12)
            lengths = tuple((rng.randint(0, 4), rng.randint(0, 4)) for _ in range(m))
            decide(ProblemSpec(q, lengths), audit=True)

    def test_free_area_equals_container_minus_packed(self):
        spec = ProblemSpec(Q22, ((2, 1), (1, 1), (2, 2)))
        q = spec.arities
        bank = ContainerBank(q, spec.l1max, spec.l2max, audit=True)
        packed = 0
        blocks, (container,) = naive_input(lengths_to_instance(spec))
        for block in sort_blocks_desc(blocks):
            w, h = block.w, block.h
            import math

            i = round(math.log(w, q.q1))
            b = round(math.log(h, q.q2))
            layer = max(w, h)
            ci = bank.cap_i
            while bank.pow1[ci] > layer:
                ci -= 1
            cj = bank.cap_j
            while bank.pow2[cj] > layer:
                cj -= 1
            bank.descend_caps(ci, cj)
            if w >= h:
                assert bank.consume_column(i, b, 1)
            else:
                assert bank.consume_row(b, i, 1)
            packed += w * h
            assert bank.free_area() == container.area - packed
