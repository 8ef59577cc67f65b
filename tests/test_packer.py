import copy
import gc
import itertools
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from prefixpack import packer
from prefixpack.codes import kraft_sum, lengths_to_instance, solution_to_codebook, verify_codebook
from prefixpack.geometry import contains, overlap, solve_naive, sort_blocks_desc
from prefixpack.model import Arities, ProblemSpec
from prefixpack.oracle import OracleLimits, brute_decide, enumerate_instances
from prefixpack.packer import ContainerBank, _pack, construct, decide

from audited_bank import AuditedBank
from dense_bank import DenseBank
from sigma_oracle import brute_sigma_min

Q22 = Arities(2, 2)
ORACLE_LIMITS = OracleLimits(max_m=8, max_dim=4096, max_nodes=5_000_000)


def assert_solution_valid(blocks, containers, locations) -> None:
    """The three constraints a packing, one (x, y) per (w, h) block, must
    satisfy in the (x, y, w, h) containers."""
    assert len(locations) == len(blocks)
    placed = []
    for (x, y), (w, h) in zip(locations, blocks):
        assert x % w == 0 and y % h == 0, f"({x}, {y}) misaligned for {(w, h)}"
        placed.append((x, y, w, h))
    for a, b in itertools.combinations(placed, 2):
        assert not overlap(a, b), f"{a} overlaps {b}"
    for r in placed:
        assert sum(contains(c, r) for c in containers) == 1, f"{r} not in exactly one container"


class TestSolveNaive:
    def test_counterexample_has_no_packing(self):
        blocks = sort_blocks_desc([(2, 1), (1, 2)])
        assert solve_naive(blocks, [(0, 0, 2, 2)], Q22) is None

    def test_two_container_instance_packs(self):
        blocks = [(2, 1), (1, 2)]
        containers = [(0, 0, 2, 2), (0, 2, 2, 1)]
        sol = solve_naive(blocks, containers, Q22)
        assert sol == ((0, 2), (0, 0))
        assert_solution_valid(blocks, containers, sol)
        # the independent oracle agrees a packing exists
        assert brute_decide(blocks, containers, ORACLE_LIMITS) == "yes"

    def test_ties_go_to_the_smallest_x_then_y(self):
        # after (0, 0), three equal cells are left; (0, 1) precedes (1, 0)
        assert solve_naive([(1, 1)] * 4, [(0, 0, 2, 2)], Q22) == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_empty_blocks(self):
        assert solve_naive([], [(0, 0, 2, 2)], Q22) == ()

    def test_rejects_unsorted_blocks(self):
        with pytest.raises(ValueError):
            solve_naive([(1, 2), (2, 1)], [(0, 0, 2, 2)], Q22)

    def test_rejects_overlapping_containers(self):
        with pytest.raises(ValueError):
            solve_naive([], [(0, 0, 2, 2), (1, 1, 2, 2)], Q22)

    def test_rejects_irregular_block(self):
        with pytest.raises(ValueError):
            solve_naive([(3, 1)], [(0, 0, 4, 4)], Q22)

    def test_takes_the_canonical_instance_as_built(self):
        # the builder's bare tuples go to the reference packer and the σ oracle as they are
        inst = lengths_to_instance(ProblemSpec(Q22, ((1, 0), (1, 1), (1, 1))))
        assert inst == (((1, 2), (1, 1), (1, 1)), (0, 0, 2, 2))
        sol = solve_naive(inst.blocks, [inst.container], Q22)
        assert sol == ((0, 0), (1, 0), (1, 1))
        assert_solution_valid(inst.blocks, [inst.container], sol)
        assert brute_sigma_min((1, 0, 2, 1), (2, 1), Q22) == (2, ((1, 0, 1, 1), (2, 0, 1, 1)))

    def test_outputs_always_satisfy_constraints(self, rng):
        for _ in range(300):
            q = Arities(rng.choice([2, 3]), rng.choice([2, 3]))
            m = rng.randint(1, 8)
            lengths = tuple(
                (rng.randint(0, 3), rng.randint(0, 3)) for _ in range(m)
            )
            spec = ProblemSpec(q, lengths)
            inst = lengths_to_instance(spec)
            blocks = sort_blocks_desc(inst.blocks)
            sol = solve_naive(blocks, [inst.container], q)
            if sol is not None:
                assert_solution_valid(blocks, [inst.container], sol)


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
        inst = lengths_to_instance(spec)
        assert_solution_valid(inst.blocks, [inst.container], sol)

    def test_randomized_agreement(self, rng, monkeypatch):
        monkeypatch.setattr(packer, "ContainerBank", AuditedBank)  # origin ledger in step with counts
        for _ in range(500):
            q = Arities(rng.choice([2, 3, 4, 5]), rng.choice([2, 3, 4, 5]))
            m = rng.randint(0, 10)
            lengths = tuple((rng.randint(0, 3), rng.randint(0, 3)) for _ in range(m))
            spec = ProblemSpec(q, lengths)
            sol = construct(spec)
            present = sol is not None
            inst = lengths_to_instance(spec)
            naive = solve_naive(sort_blocks_desc(inst.blocks), [inst.container], q)
            assert (naive is not None) == present
            assert decide(spec) == present
            if present:
                assert verify_codebook(solution_to_codebook(spec, sol))
            # swapped channels turn column walks into row walks
            swapped = ProblemSpec(Arities(q.q2, q.q1), tuple((l2, l1) for l1, l2 in lengths))
            assert decide(swapped) == present


class TestTheoremEquivalenceSweep:
    """Exhaustive three-way agreement on a sub-box of the acceptance sweep."""

    def test_q22_m3(self):
        for spec in enumerate_instances([(2, 2)], 3, 2):
            fast = decide(spec)
            built = construct(spec) is not None
            inst = lengths_to_instance(spec)
            naive = solve_naive(sort_blocks_desc(inst.blocks), [inst.container], spec.arities)
            brute = brute_decide(inst.blocks, [inst.container], ORACLE_LIMITS)
            assert brute in ("yes", "no")
            assert fast == built == (naive is not None) == (brute == "yes"), f"{spec.lengths}"

    def test_q22_m6_len3_audited(self, monkeypatch):
        # 74,613 specs, 26 times the default selftest sweep; solve_naive stays on the box above
        monkeypatch.setattr(packer, "ContainerBank", AuditedBank)
        swept = 0
        for spec in enumerate_instances([(2, 2)], 6, 3):
            inst = lengths_to_instance(spec)
            brute = brute_decide(inst.blocks, [inst.container], ORACLE_LIMITS)
            assert brute in ("yes", "no")
            assert decide(spec) == (brute == "yes"), f"{spec.lengths}"
            swept += 1
        assert swept == 74_613


class TestSharedPowerTables:
    """The tables of q**k each bank builds for itself: one per arity, shared by both axes when q1 == q2."""

    def test_runs_leave_the_tables_as_built(self, rng):
        for _ in range(300):
            q = Arities(rng.choice([2, 3, 5]), rng.choice([2, 3, 5]))
            spec = ProblemSpec(q, tuple((rng.randint(0, 6), rng.randint(0, 6)) for _ in range(rng.randint(0, 12))))
            top1, top2 = spec.l1max, spec.l2max
            if q.q1 == q.q2:  # one table, as long as the longer cap
                top1 = top2 = max(top1, top2)
            small = q.q1**spec.l1max * q.q2**spec.l2max <= 1 << 14  # a grid a located bank can list
            for located in [False, True] if small else [False]:
                bank = AuditedBank(q, spec.l1max, spec.l2max, located=located)
                _pack(bank, spec.groups)
                assert bank.pow1 == [q.q1**k for k in range(top1 + 1)]
                assert bank.pow2 == [q.q2**k for k in range(top2 + 1)]

    def test_decide_keeps_no_tables(self):
        # a bank's tables go with it: 7001 powers of up to 7000 (q = 2) or 11,095 (q = 3) bits
        for q in (Q22, Arities(3, 3)):
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                assert decide(ProblemSpec(q, ((7000, 7000),)))
                gc.collect()
                kept = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert kept < 64 << 10, f"{q}: {kept} bytes kept"


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


class LockstepBank(AuditedBank):
    """An audited bank that, after each group _pack hands it, packs the dense
    reference's own next group and compares the two banks cell for cell."""

    def __init__(self, spec, located):
        super().__init__(spec.arities, spec.l1max, spec.l2max, located=located)
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
        row, col = self.true_lines()  # cells that lag behind the caps read as split
        assert row[: ci + 1] == [ref.count(t, cj) for t in range(ci + 1)]
        assert col[: cj + 1] == [ref.count(ci, t) for t in range(cj + 1)]
        # the table view benchmarks/tracer.py reads: the cap column, then the cap row
        assert self.counts[ci][: cj + 1] == [ref.count(ci, t) for t in range(cj + 1)]
        assert [r[cj] for r in self.counts[: ci + 1]] == [ref.count(t, cj) for t in range(ci + 1)]
        assert self.free_area() == ref.free
        if self.origins is not None:
            row, col = self.true_origins()
            assert row[: ci + 1] == [ref.cells.get((t, cj), []) for t in range(ci + 1)]
            assert col[: cj + 1] == [ref.cells.get((ci, t), []) for t in range(cj + 1)]
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


class CountsViewBank(ContainerBank):
    """A plain bank, which nothing brings up to date, that after each group
    _pack hands it packs the dense reference's own next group and compares
    the `counts` view (what benchmarks/tracer.py reads) with the reference."""

    def __init__(self, spec):
        super().__init__(spec.arities, spec.l1max, spec.l2max)
        self.ref = DenseBank(spec.arities, spec.l1max, spec.l2max)
        self.todo = self.ref.order(spec.groups, (spec.l1max, spec.l2max))
        self.groups_done = self.stale_views = 0

    def consume_column(self, i, b, need):
        return self._compare(super().consume_column(i, b, need))

    def consume_row(self, j, a, need):
        return self._compare(super().consume_row(j, a, need))

    def _compare(self, ok):
        (i, j), need = self.todo[self.groups_done]
        self.groups_done += 1
        ref = self.ref
        assert ref.pack(i, j, need) == ok, "the walks disagree"
        ci, cj = self.caps
        stale = [n for a in (0, 1) for n, s in zip(self.lines[a], self.stamps[a]) if s != self.caps[1 - a]]
        self.stale_views += any(stale)
        counts = self.counts
        assert counts[ci][: cj + 1] == [ref.count(ci, t) for t in range(cj + 1)]
        assert [r[cj] for r in counts[: ci + 1]] == [ref.count(t, cj) for t in range(ci + 1)]
        return ok


class TestCountsView:
    """The counts view reports true counts on a bank whose cells lag behind the caps."""

    def test_plain_bank_counts_after_every_group(self):
        stale = []

        @settings(max_examples=300, deadline=None)
        @given(code=grown_codes())
        def check(code):
            q, groups = code
            spec = ProblemSpec.from_groups(q, groups)
            bank = CountsViewBank(spec)
            _pack(bank, spec.groups)
            stale.append(bank.stale_views)

        check()
        assert sum(map(bool, stale)) * 4 >= len(stale), "too few codes leave an occupied cell stale"


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


class TwinWalkBank(AuditedBank):
    """A located, audited bank that packs each group of square blocks twice,
    up the cap column on itself and up the cap row on a deep copy, and checks
    that both walks leave the same bank."""

    def __init__(self, spec):
        super().__init__(spec.arities, spec.l1max, spec.l2max, located=True)
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
        ok = AuditedBank.consume_column(self, a, b, need)
        assert AuditedBank.consume_row(twin, b, a, need) == ok
        assert (twin.lines, twin.caps, twin.free_area()) == (self.lines, self.caps, self.free_area())
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


# Inputs inside the CLI's code-space guard whose first groups leave thousands of
# occupied cells on one cap line before thousands of cap steps on the other axis:
# with a cap step that multiplied every occupied cell of the other line, each took 3-6 s.
CAP_STEP_WORST_CASES = {
    "q23-column-and-row": (Arities(2, 3), Counter({(10500, 0): 1, (0, 2208): 1}), False),
    "q22-anti-diagonal": (Q22, Counter({(i, 7000 - i): 1 for i in range(1, 7000)}), True),
    "q23-column-and-rungs": (Arities(2, 3), Counter({(10500, 0): 1} | {(0, j): 1 for j in range(1, 2209)}), False),
}


class TestCapStepWorstCases:
    @pytest.mark.parametrize("name", sorted(CAP_STEP_WORST_CASES))
    def test_decides_within_half_a_second(self, name):
        q, groups, verdict = CAP_STEP_WORST_CASES[name]
        spec = ProblemSpec.from_groups(q, groups)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            assert decide(spec) is verdict
            best = min(best, time.perf_counter() - t0)
        assert best < 0.5, f"{name}: {best:.3f} s"


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
        bank = AuditedBank(Q22, 3, 2)
        assert bank.caps == [3, 2] and bank.lines[0][3] == 1  # the corner, on the cap row
        assert bank.free_area() == 8 * 4
        assert bank.counted_area() == bank.free_area()

    def test_descend_splits_counts(self):
        bank = AuditedBank(Q22, 3, 2)
        bank.descend_caps(1, 1)
        assert bank.caps == [1, 1] and bank.lines[0][1] == 4 * 2
        assert bank.counted_area() == 32

    def test_descend_rejects_raising_caps(self):
        bank = AuditedBank(Q22, 2, 2)
        bank.descend_caps(1, 1)
        with pytest.raises(ValueError):
            bank.descend_caps(2, 1)
        for ci, cj in ((-1, 1), (1, -1), (-1, -1)):  # a negative index would wrap to the far end
            with pytest.raises(ValueError):
                bank.descend_caps(ci, cj)
        assert (bank.cap_i, bank.cap_j) == (1, 1)

    def test_consume_rejects_lines_off_the_caps(self):
        bank = AuditedBank(Q22, 2, 2)
        bank.descend_caps(1, 1)
        for i in (0, 2, -1):
            with pytest.raises(ValueError):
                bank.consume_column(i, 0, 1)
            with pytest.raises(ValueError):
                bank.consume_row(i, 0, 1)
        assert bank.free_area() == bank.counted_area() == 16

    def test_consume_exact_fit(self):
        bank = AuditedBank(Q22, 2, 2)
        bank.descend_caps(1, 1)  # four 2x2 containers
        assert bank.consume_column(1, 1, 3) is True
        assert bank.caps == [1, 1] and bank.lines[0][1] == 1
        assert bank.free_area() == 4

    def test_consume_with_partial_leftover(self):
        bank = AuditedBank(Q22, 2, 2)
        # one 4x4 container; pack three 4x1 rows
        assert bank.consume_column(2, 0, 3) is True
        # leftover: one 4x1 slab
        assert bank.caps == [2, 2] and bank.lines[1][0] == 1  # on the cap column
        assert bank.free_area() == 4

    def test_descent_moves_a_slab_left_by_a_column_walk(self):
        bank = AuditedBank(Q22, 2, 2)
        assert bank.consume_column(2, 0, 3) is True  # one 4x1 slab left on the cap column
        bank.descend_caps(1, 2)  # the slab splits in two, stored as one until a walk reads it
        assert bank.caps == [1, 2] and bank.true_lines()[1][0] == 2 and bank.lines[1][0] == 1

    def test_descent_moves_a_slab_left_by_a_row_walk(self):
        bank = AuditedBank(Q22, 2, 2)
        assert bank.consume_row(2, 0, 3) is True  # one 1x4 slab left on the cap row
        bank.descend_caps(2, 1)
        assert bank.caps == [2, 1] and bank.true_lines()[0][0] == 2 and bank.lines[0][0] == 1

    def test_consume_reports_shortage(self):
        bank = AuditedBank(Q22, 1, 1)
        assert bank.consume_column(1, 0, 3) is False

    def test_ledger_balances_after_failed_consume(self):
        bank = AuditedBank(Arities(3, 2), 1, 2)
        bank.descend_caps(1, 1)  # two 3x2 containers
        # five 1x2 blocks: three fill one container, two half-fill the other
        assert bank.consume_row(1, 0, 5) is True
        assert bank.consume_row(1, 0, 2) is False  # one 1x2 slab left for two
        assert bank.free_area() == bank.counted_area() == 0

    def test_audit_catches_container_off_the_cap_lines(self):
        # The bank stores only the cap row lines[0] and the cap column lines[1];
        # neither poke changes the area the lines hold below the caps.
        for line, k, cnt in ((0, 2, 1), (1, 2, 3)):  # a count past cap_i; the column's corner copy off
            bank = AuditedBank(Q22, 2, 2)
            bank.descend_caps(1, 2)  # two 2x4 containers at the corner (1, 2)
            bank.lines[line][k] = cnt
            with pytest.raises(AssertionError, match="cap"):
                bank.descend_caps(1, 2)

    # Each check below fires from the consume call that broke the bank, with no descent after it.

    def test_audit_consume_catches_area_out_of_balance(self):
        bank = AuditedBank(Q22, 2, 2)
        walk = bank._walk

        def leaky_walk(a, start, need):
            left = walk(a, start, need)
            bank.lines[a][0] += 1  # one container below the cap that no split made
            return left

        bank._walk = leaky_walk
        with pytest.raises(AssertionError, match="out of balance"):
            bank.consume_column(2, 0, 1)

    def test_audit_consume_catches_count_past_a_cap(self):
        bank = AuditedBank(Q22, 2, 2)
        bank.descend_caps(1, 2)  # two 2x4 containers at the corner (1, 2)
        bank.lines[0][2] = 1  # a count on the cap row past cap_i, which the area leaves out
        with pytest.raises(AssertionError, match="past a cap"):
            bank.consume_column(1, 0, 1)

    def test_audit_consume_catches_origin_ledger_out_of_step(self):
        bank = AuditedBank(Q22, 2, 2, located=True)
        assert bank.consume_column(2, 0, 1)  # one 4x1 block: a 4x1 and a 4x2 slab stay on the cap column
        bank.origins[1][1].pop()  # the 4x2 slab's origin, on a level the next walk does not reach
        with pytest.raises(AssertionError, match="origin ledger out of step"):
            bank.consume_column(2, 0, 1)

    def test_cap_step_folds_only_the_corner(self):
        for located in (False, True):
            bank = ContainerBank(Q22, 8, 8, located=located)
            bank.descend_caps(8, 7)  # two 256x128 containers at the corner
            assert bank.consume_column(8, 0, 1)  # one 256x1 block: slabs 256x1 up to 256x64 stay below it
            lines, origins = copy.deepcopy(bank.lines), copy.deepcopy(bank.origins)
            assert lines[1] == [1] * 8 + [0]
            bank.descend_caps(5, 7)  # three cap_i steps
            # the cap column's cells below the corner are stored as the walk left them
            assert bank.lines[1][:7] == [1] * 7 and bank.stamps[1][:7] == [8] * 7
            moved = {(a, t) for a in (0, 1) for t, (was, now) in enumerate(zip(lines[a], bank.lines[a])) if was != now}
            assert moved == {(0, 8), (0, 5), (1, 7)}  # the old corner, the fold's last cell, the corner's copy
            assert bank.lines[0][5] == bank.lines[1][7] == 8
            assert bank.counts[5] == [8] * 8 + [0]  # the true counts: each slab split in 8
            if located:
                assert bank.origins[1][:7] == origins[1][:7]
                assert bank.origins[1][7] is bank.origins[0][5] and len(bank.origins[0][5]) == 8

    def test_one_power_table_per_distinct_arity(self):
        # each bank builds its tables up to its caps; equal arities share one, up to the longer cap
        bank = ContainerBank(Arities(2, 3), 3, 2)
        assert bank.pow1 == [1, 2, 4, 8] and bank.pow2 == [1, 3, 9]
        bank = ContainerBank(Arities(3, 3), 1, 3)
        assert bank.pow1 is bank.pow2 and bank.pow1 == [1, 3, 9, 27]
        bank = ContainerBank(Q22, 7000, 7000)
        assert bank.pow1 is bank.pow2 and len(bank.pow1) == 7001
        assert bank.pow1[:4] == [1, 2, 4, 8] and bank.pow1[7000] == 2**7000
        tracemalloc.start()
        try:
            assert decide(ProblemSpec(Q22, ((7000, 7000),)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 << 20

    def test_area_accounting_after_every_mutation(self, rng, monkeypatch):
        # the audited bank re-checks the invariant inside every bank mutation
        monkeypatch.setattr(packer, "ContainerBank", AuditedBank)
        for _ in range(300):
            q = Arities(rng.choice([2, 3]), rng.choice([2, 3]))
            m = rng.randint(1, 12)
            lengths = tuple((rng.randint(0, 4), rng.randint(0, 4)) for _ in range(m))
            decide(ProblemSpec(q, lengths))

    def test_free_area_equals_container_minus_packed(self):
        spec = ProblemSpec(Q22, ((2, 1), (1, 1), (2, 2)))
        q = spec.arities
        bank = AuditedBank(q, spec.l1max, spec.l2max)
        packed = 0
        blocks, (_, _, cw, ch) = lengths_to_instance(spec)
        for w, h in sort_blocks_desc(blocks):
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
            assert bank.free_area() == cw * ch - packed
