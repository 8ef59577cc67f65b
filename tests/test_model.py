import copy
import enum
import pickle
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from prefixpack.geometry import (
    Region,
    Size,
    covers,
    ilog_exact,
    is_aligned,
    is_regular,
    is_sorted_desc,
    reg,
    sort_blocks_desc,
    total_key,
)
from prefixpack.model import Arities, ProblemSpec

sizes_64 = st.builds(Size, st.integers(1, 64), st.integers(1, 64))


def total_sign(s1: Size, s2: Size) -> int:
    """Sign of the total-order comparison by total_key: +1 greater, -1 less, 0 equal."""
    k1, k2 = total_key(s1), total_key(s2)
    return (k1 > k2) - (k1 < k2)


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
        assert total_sign(Size(8, 8), Size(8, 4)) == 1
        assert total_sign(Size(4, 2), Size(2, 8)) == -1
        assert total_sign(Size(4, 2), Size(4, 2)) == 0

    def test_descending_chain(self):
        chain = [Size(8, 8), Size(8, 4), Size(8, 2), Size(4, 8), Size(2, 8), Size(4, 2)]
        for a, b in zip(chain, chain[1:]):
            assert total_sign(a, b) == 1

    def test_matches_definition_exhaustive_small(self):
        # Full pairwise check at components <= 24; larger components are
        # covered by key injectivity below plus hypothesis sampling.
        domain = [Size(w, h) for w in range(1, 25) for h in range(1, 25)]
        for s1 in domain:
            for s2 in domain:
                assert total_sign(s1, s2) == cmp_by_definition(s1, s2)

    def test_trichotomy_antisymmetry_via_key_injectivity(self):
        # total_key is a tuple key, so trichotomy/antisymmetry over all
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
        if total_sign(a, b) >= 0 and total_sign(b, c) >= 0:
            assert total_sign(a, c) >= 0

    @given(sizes_64, sizes_64)
    def test_matches_definition_sampled(self, s1, s2):
        assert total_sign(s1, s2) == cmp_by_definition(s1, s2)


class TestCmpPartial:
    """The partial order on sizes: covers, componentwise domination."""

    def test_examples(self):
        assert covers(Size(8, 8), Size(8, 4))
        assert not covers(Size(8, 2), Size(2, 8)) and not covers(Size(2, 8), Size(8, 2))
        assert covers(Size(2, 2), Size(2, 2))

    def test_precedes(self):
        assert not covers(Size(2, 2), Size(4, 2)) and covers(Size(4, 2), Size(2, 2))

    def test_succeeds_implies_total_greater_exhaustive_small(self):
        domain = [Size(w, h) for w in range(1, 25) for h in range(1, 25)]
        for s1 in domain:
            for s2 in domain:
                if covers(s1, s2) and s1 != s2:
                    assert total_sign(s1, s2) == 1

    @given(sizes_64, sizes_64)
    def test_succeeds_implies_total_greater_sampled(self, s1, s2):
        if covers(s1, s2) and s1 != s2:
            assert total_sign(s1, s2) == 1


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
        assert total_sign(Size(9, 1), Size(8, 8)) == 1


class TestSorting:
    def test_example_sort(self):
        ordered = sort_blocks_desc([Size(4, 2), Size(8, 8), Size(2, 8)])
        assert ordered == [Size(8, 8), Size(2, 8), Size(4, 2)]

    def test_empty(self):
        assert sort_blocks_desc([]) == []

    def test_tie_on_max_width_breaks(self):
        ordered = sort_blocks_desc([Size(2, 1), Size(1, 2)])
        assert ordered == [Size(2, 1), Size(1, 2)]

    def test_stable_for_equal_sizes(self):
        a, b, c = Size(2, 2), Size(2, 2), Size(4, 4)
        assert a is not b
        ordered = sort_blocks_desc([a, b, c])
        assert ordered == [c, a, b]
        assert ordered[1] is a and ordered[2] is b

    @given(st.lists(sizes_64))
    def test_sort_is_permutation_and_descending(self, blocks):
        ordered = sort_blocks_desc(blocks)
        assert sorted(map(id, ordered)) == sorted(map(id, blocks))
        assert is_sorted_desc(ordered)
        for x, y in zip(ordered, ordered[1:]):
            assert cmp_by_definition(x, y) >= 0


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


class Level(enum.IntEnum):
    ONE = 1
    TWO = 2


class TestSpecFromGroups:
    def test_bool_and_int_enum_lengths_become_ints(self):
        pairs = [(True, 0), (Level.ONE, 0), (1, 0), (0, Level.TWO)]
        for spec in (ProblemSpec(Arities(2, 2), pairs), ProblemSpec.from_groups(Arities(2, 2), Counter(pairs))):
            assert spec.groups == {(1, 0): 3, (0, 2): 1}
            assert all(type(v) is int for pair in spec.groups for v in pair)
            assert all(type(v) is int for pair in spec.lengths for v in pair)
            assert (spec.m, spec.l1max, spec.l2max) == (4, 1, 2)

    def test_lengths_in_histogram_order(self):
        spec = ProblemSpec.from_groups(Arities(2, 3), {(2, 0): 2, (0, 1): 1, (1, 1): 2})
        assert spec.lengths == ((2, 0), (2, 0), (0, 1), (1, 1), (1, 1))
        assert spec == ProblemSpec(Arities(2, 3), spec.lengths)
        assert hash(spec) == hash(ProblemSpec(Arities(2, 3), spec.lengths))

    def test_copies_the_histogram(self):
        groups = Counter({(1, 0): 2})
        spec = ProblemSpec.from_groups(Arities(2, 2), groups)
        groups[(0, 1)] += 1
        assert spec.groups == {(1, 0): 2}

    @pytest.mark.parametrize(
        "groups, message",
        [
            ({(1.0, 0): 1}, "codeword lengths must be integers, got (1.0, 0)"),
            ({(0, -1): 2}, "codeword lengths must be >= 0, got (0, -1)"),
            ({(1, 0): 0}, "codeword counts must be integers >= 1"),
            ({(1, 0): 1.5}, "codeword counts must be integers >= 1"),
            ({(1, 0): True}, "codeword counts must be integers >= 1"),
        ],
    )
    def test_rejects(self, groups, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ProblemSpec.from_groups(Arities(2, 2), groups)

    def test_value_types_compare_within_their_class(self):
        assert Size(2, 3) == Size(2, 3) and hash(Size(2, 3)) == hash(Size(2, 3))
        assert Size(2, 3) != Arities(2, 3) and Size(2, 3) != (2, 3)
        assert reg(1, 2, 4, 8) == Region(1, 2, Size(4, 8)) and reg(1, 2, 4, 8) != reg(1, 2, 4, 4)
        assert repr(reg(0, 4, 2, 1)) == "Region(x=0, y=4, size=Size(w=2, h=1))"
        assert repr(ProblemSpec(Arities(2, 2), [(1, 0)])) == "ProblemSpec(arities=Arities(q1=2, q2=2), lengths=((1, 0),))"
        with pytest.raises(AttributeError):
            del reg(0, 0, 1, 1).x

    def test_value_types_copy_and_pickle(self):
        spec = ProblemSpec.from_groups(Arities(2, 3), {(1, 0): 2})
        for value in (Size(2, 3), reg(1, 2, 4, 8), spec, ProblemSpec(Arities(3, 2), [(0, 1), (1, 0)])):
            for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
                assert twin == value and type(twin) is type(value)
