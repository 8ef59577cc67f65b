import re

import pytest
from hypothesis import given, strategies as st

from prefixpack.model import (
    Arities,
    Block,
    ProblemSpec,
    Region,
    Size,
    cmp_partial,
    cmp_total,
    covers,
    ilog_exact,
    is_aligned,
    is_regular,
    reg,
    sort_blocks_desc,
    total_key,
)

sizes_64 = st.builds(Size, st.integers(1, 64), st.integers(1, 64))


def cmp_by_definition(s1: Size, s2: Size) -> int:
    # Restatement of the three ordering branches, kept independent of total_key.
    m1, m2 = max(s1.w, s1.h), max(s2.w, s2.h)
    if m1 != m2:
        return 1 if m1 > m2 else -1
    if s1.w != s2.w:
        return 1 if s1.w > s2.w else -1
    if s1.h != s2.h:
        return 1 if s1.h > s2.h else -1
    return 0


class TestCmpTotal:
    def test_examples(self):
        assert cmp_total(Size(8, 8), Size(8, 4)) == 1
        assert cmp_total(Size(4, 2), Size(2, 8)) == -1
        assert cmp_total(Size(4, 2), Size(4, 2)) == 0

    def test_descending_chain(self):
        chain = [Size(8, 8), Size(8, 4), Size(8, 2), Size(4, 8), Size(2, 8), Size(4, 2)]
        for a, b in zip(chain, chain[1:]):
            assert cmp_total(a, b) == 1

    def test_matches_definition_exhaustive_small(self):
        # Full pairwise check at components <= 24; larger components are
        # covered by key injectivity below plus hypothesis sampling.
        domain = [Size(w, h) for w in range(1, 25) for h in range(1, 25)]
        for s1 in domain:
            for s2 in domain:
                assert cmp_total(s1, s2) == cmp_by_definition(s1, s2)

    def test_trichotomy_antisymmetry_via_key_injectivity(self):
        # cmp_total compares tuple keys, so trichotomy/antisymmetry over all
        # pairs with components <= 64 reduce to: distinct sizes never share a
        # key (and tuple comparison supplies transitivity).
        keys = {}
        for w in range(1, 65):
            for h in range(1, 65):
                s = Size(w, h)
                k = total_key(s)
                assert k not in keys, f"{s} collides with {keys[k]}"
                keys[k] = s

    @given(sizes_64, sizes_64, sizes_64)
    def test_transitive(self, a, b, c):
        if cmp_total(a, b) >= 0 and cmp_total(b, c) >= 0:
            assert cmp_total(a, c) >= 0

    @given(sizes_64, sizes_64)
    def test_matches_definition_sampled(self, s1, s2):
        assert cmp_total(s1, s2) == cmp_by_definition(s1, s2)


class TestCmpPartial:
    def test_examples(self):
        assert cmp_partial(Size(8, 8), Size(8, 4)) == "succeeds"
        assert cmp_partial(Size(8, 2), Size(2, 8)) == "incomparable"
        assert cmp_partial(Size(2, 2), Size(2, 2)) == "equal"

    def test_precedes(self):
        assert cmp_partial(Size(2, 2), Size(4, 2)) == "precedes"

    def test_succeeds_implies_total_greater_exhaustive_small(self):
        domain = [Size(w, h) for w in range(1, 25) for h in range(1, 25)]
        for s1 in domain:
            for s2 in domain:
                if cmp_partial(s1, s2) == "succeeds":
                    assert cmp_total(s1, s2) == 1

    @given(sizes_64, sizes_64)
    def test_succeeds_implies_total_greater_sampled(self, s1, s2):
        if cmp_partial(s1, s2) == "succeeds":
            assert cmp_total(s1, s2) == 1

    @given(sizes_64, sizes_64)
    def test_consistent_with_covers(self, s1, s2):
        assert covers(s1, s2) == (cmp_partial(s1, s2) in ("succeeds", "equal"))


class TestPredicates:
    def test_is_regular(self):
        q = Arities(2, 2)
        assert is_regular(Size(4, 1), q)
        assert is_regular(Size(8, 2), q)
        assert not is_regular(Size(3, 2), q)
        assert not is_regular(Size(2, 6), q)
        assert is_regular(Size(9, 8), Arities(3, 2))

    def test_is_aligned(self):
        assert is_aligned(reg(2, 0, 2, 1))
        assert not is_aligned(reg(1, 0, 2, 1))
        assert is_aligned(reg(0, 0, 5, 7))
        assert is_aligned(reg(6, 14, 3, 7))

    def test_ilog_exact(self):
        assert ilog_exact(1, 2) == 0
        assert ilog_exact(8, 2) == 3
        assert ilog_exact(6, 2) is None
        assert ilog_exact(0, 2) is None
        assert ilog_exact(3**20, 3) == 20

    def test_comparisons_use_raw_values_across_arities(self):
        # Widths are q1-powers and heights q2-powers, but the ordering uses the
        # plain integers: [9, x] beats [8, y] on the longer side.
        assert cmp_total(Size(9, 1), Size(8, 8)) == 1


class TestSorting:
    def test_example_sort(self):
        blocks = [Block(Size(4, 2)), Block(Size(8, 8)), Block(Size(2, 8))]
        ordered = sort_blocks_desc(blocks)
        assert [b.size for b in ordered] == [Size(8, 8), Size(2, 8), Size(4, 2)]

    def test_empty(self):
        assert sort_blocks_desc([]) == []

    def test_tie_on_max_width_breaks(self):
        ordered = sort_blocks_desc([Block(Size(2, 1)), Block(Size(1, 2))])
        assert [b.size for b in ordered] == [Size(2, 1), Size(1, 2)]

    def test_stable_for_equal_sizes(self):
        a, b, c = Block(Size(2, 2)), Block(Size(2, 2)), Block(Size(4, 4))
        ordered = sort_blocks_desc([a, b, c])
        assert ordered == [c, a, b]
        assert ordered[1] is a and ordered[2] is b

    @given(st.lists(st.builds(Block, sizes_64)))
    def test_sort_is_permutation_and_descending(self, blocks):
        ordered = sort_blocks_desc(blocks)
        assert sorted(map(id, ordered)) == sorted(map(id, blocks))
        for x, y in zip(ordered, ordered[1:]):
            assert cmp_total(x.size, y.size) >= 0


class TestValueTypes:
    def test_arities_validation(self):
        with pytest.raises(ValueError):
            Arities(1, 2)
        with pytest.raises(ValueError):
            Arities(2, 0)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            Size(0, 1)

    def test_region_validation(self):
        with pytest.raises(ValueError):
            Region(-1, 0, Size(1, 1))

    def test_problem_spec_maxima(self):
        spec = ProblemSpec(Arities(2, 3), ((1, 0), (0, 2), (1, 1)))
        assert (spec.l1max, spec.l2max, spec.m) == (1, 2, 3)

    def test_problem_spec_empty(self):
        spec = ProblemSpec(Arities(2, 2), ())
        assert (spec.l1max, spec.l2max, spec.m) == (0, 0, 0)

    def test_problem_spec_rejects_negative(self):
        with pytest.raises(ValueError):
            ProblemSpec(Arities(2, 2), ((0, -1),))

    @pytest.mark.parametrize("pair", [(1.5, 0), (0.9, 1), (1.0, 0), (0, 1.0)])
    def test_problem_spec_rejects_non_integer(self, pair):
        # int() would truncate (1.5, 0), (0.9, 1) to the paper's counterexample
        with pytest.raises(ValueError, match=re.escape(repr(pair))):
            ProblemSpec(Arities(2, 2), ((1, 1), pair, (1, 1)))

    def test_problem_spec_groups_and_exact_ints(self):
        spec = ProblemSpec(Arities(2, 2), [[True, 0], (1, 0), (0, 2)])
        assert spec.lengths == ((1, 0), (1, 0), (0, 2))
        assert all(type(v) is int for pair in spec.lengths for v in pair)
        assert spec.groups == {(1, 0): 2, (0, 2): 1}

    def test_immutability(self):
        s = Size(2, 2)
        with pytest.raises(AttributeError):
            s.w = 4  # type: ignore[misc]
