import copy
import enum
import itertools
import pickle
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from prefixpack.geometry import (
    covers,
    ilog_exact,
    is_aligned,
    is_regular,
    is_sorted_desc,
    solve_naive,
    sort_blocks_desc,
    total_key,
)
from prefixpack.model import Arities, ProblemSpec

from sigma_oracle import brute_sigma_min

sizes_64 = st.tuples(st.integers(1, 64), st.integers(1, 64))


def total_sign(s1, s2) -> int:
    """Sign of the total-order comparison by total_key: +1 greater, -1 less, 0 equal."""
    k1, k2 = total_key(s1), total_key(s2)
    return (k1 > k2) - (k1 < k2)


def cmp_by_definition(s1, s2) -> int:
    # Restatement of the three ordering branches, kept independent of total_key.
    (w1, h1), (w2, h2) = s1, s2
    m1, m2 = max(w1, h1), max(w2, h2)
    if m1 != m2:
        return 1 if m1 > m2 else -1
    if w1 != w2:
        return 1 if w1 > w2 else -1
    if h1 != h2:
        return 1 if h1 > h2 else -1
    return 0


class TestCmpTotal:
    def test_examples(self):
        assert total_sign((8, 8), (8, 4)) == 1
        assert total_sign((4, 2), (2, 8)) == -1
        assert total_sign((4, 2), (4, 2)) == 0

    def test_descending_chain(self):
        chain = [(8, 8), (8, 4), (8, 2), (4, 8), (2, 8), (4, 2)]
        for a, b in zip(chain, chain[1:]):
            assert total_sign(a, b) == 1

    def test_matches_definition_exhaustive_small(self):
        # Full pairwise check at components <= 24; larger components are
        # covered by key injectivity below plus hypothesis sampling.
        domain = [(w, h) for w in range(1, 25) for h in range(1, 25)]
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
                s = (w, h)
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
        assert covers((8, 8), (8, 4))
        assert not covers((8, 2), (2, 8)) and not covers((2, 8), (8, 2))
        assert covers((2, 2), (2, 2))

    def test_precedes(self):
        assert not covers((2, 2), (4, 2)) and covers((4, 2), (2, 2))

    def test_succeeds_implies_total_greater_exhaustive_small(self):
        domain = [(w, h) for w in range(1, 25) for h in range(1, 25)]
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
        assert is_regular((4, 1), q)
        assert is_regular((8, 2), q)
        assert not is_regular((3, 2), q)
        assert not is_regular((2, 6), q)
        assert is_regular((9, 8), Arities(3, 2))

    def test_is_aligned(self):
        assert is_aligned((2, 0, 2, 1))
        assert not is_aligned((1, 0, 2, 1))
        assert is_aligned((0, 0, 5, 7))
        assert is_aligned((6, 14, 3, 7))

    def test_ilog_exact(self):
        assert ilog_exact(1, 2) == 0
        assert ilog_exact(8, 2) == 3
        assert ilog_exact(6, 2) is None
        assert ilog_exact(0, 2) is None
        assert ilog_exact(3**20, 3) == 20

    def test_comparisons_use_raw_values_across_arities(self):
        # Widths are q1-powers and heights q2-powers, but the ordering uses the
        # plain integers: [9, x] beats [8, y] on the longer side.
        assert total_sign((9, 1), (8, 8)) == 1


class TestSorting:
    def test_example_sort(self):
        ordered = sort_blocks_desc([(4, 2), (8, 8), (2, 8)])
        assert ordered == [(8, 8), (2, 8), (4, 2)]

    def test_empty(self):
        assert sort_blocks_desc([]) == []

    def test_tie_on_max_width_breaks(self):
        ordered = sort_blocks_desc([(2, 1), (1, 2)])
        assert ordered == [(2, 1), (1, 2)]

    def test_stable_for_equal_sizes(self):
        a, b, c = tuple([2, 2]), tuple([2, 2]), (4, 4)  # two equal sizes, two objects
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
        with pytest.raises(ValueError, match=re.escape("block size [0, 1] is not regular")):
            solve_naive([(0, 1)], [(0, 0, 2, 2)], Arities(2, 2))

    def test_region_validation(self):
        # a box with a corner below 0 or a side below 1 is no container
        for box in [(-1, 0, 1, 1), (0, -2, 2, 2), (0, 0, 0, 1), (0, 0, 2, 0)]:
            with pytest.raises(ValueError, match=re.escape(f"container {box} needs a corner >= 0")):
                solve_naive([], [box], Arities(2, 2))
        for box in [(0, 0, 0, 1), (1, 1, 2, 0)]:
            with pytest.raises(ValueError, match=re.escape(f"container {box} needs a corner >= 0")):
                brute_sigma_min(box, (1, 1), Arities(2, 2))

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
        q = Arities(2, 3)
        with pytest.raises(AttributeError):
            q.q1 = 4  # type: ignore[misc]
        with pytest.raises(AttributeError):
            del q.q2
        assert q == Arities(2, 3) and hash(q) == hash(Arities(2, 3)) and q != Arities(3, 2)
        assert q != (2, 3)


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
        assert repr(ProblemSpec(Arities(2, 2), [(1, 0)])) == "ProblemSpec(arities=Arities(q1=2, q2=2), lengths=((1, 0),))"

    def test_value_types_copy_and_pickle(self):
        spec = ProblemSpec.from_groups(Arities(2, 3), {(1, 0): 2})
        for value in (spec, ProblemSpec(Arities(3, 2), [(0, 1), (1, 0)])):
            for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
                assert twin == value and type(twin) is type(value)


def unpack_message(pair) -> str:
    """What the interpreter says when a pair of another width is unpacked into (l1, l2)."""
    try:
        l1, l2 = pair
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{pair!r} unpacks")


# (name, length pairs, outcome): an error's (type, message), or the groups of the spec built
PAIR_CASES = [
    ("negative", [(1, 0), (0, -1)], (ValueError, "codeword lengths must be >= 0, got (0, -1)")),
    ("float", [(0, 1), (1.0, 0)], (ValueError, "codeword lengths must be integers, got (1.0, 0)")),
    ("string", [(0, "1")], (ValueError, "codeword lengths must be integers, got (0, '1')")),
    ("none", [(None, 0)], (ValueError, "codeword lengths must be integers, got (None, 0)")),
    ("first-bad-pair-named", [(2, 2), (0, -1), (1.0, 0)], (ValueError, "codeword lengths must be >= 0, got (0, -1)")),
    ("width-1", [(1, 0), (1,)], (ValueError, unpack_message((1,)))),
    ("width-3", [(1, 0), (1, 0, 0)], (ValueError, unpack_message((1, 0, 0)))),
    ("bool", [(True, 0), (0, False), (1, 0)], {(1, 0): 2, (0, 0): 1}),
    ("int-enum", [(Level.ONE, 0), (0, Level.TWO), (1, 1)], {(1, 0): 1, (0, 2): 1, (1, 1): 1}),
]
# Pairs that Counter merges into an int pair listed before them, so that their
# histogram holds only ints: the lengths as given must still be checked.
MERGED_PAIR_CASES = [
    ("float-after-its-int-twin", [(1, 0), (1.0, 0)], (ValueError, "codeword lengths must be integers, got (1.0, 0)")),
    ("bool-after-its-int-twin", [(1, 0), (True, 0)], {(1, 0): 2}),
]


def spec_check_cases():
    for name, pairs, outcome in PAIR_CASES:
        yield pytest.param(ProblemSpec, pairs, outcome, id=f"{name}-lengths")
        yield pytest.param(ProblemSpec.from_groups, Counter(pairs), outcome, id=f"{name}-groups")
    for name, pairs, outcome in MERGED_PAIR_CASES:
        yield pytest.param(ProblemSpec, pairs, outcome, id=f"{name}-lengths")
    for count in (0, True, 1.0):
        groups = {(1, 0): 1, (0, 1): count}
        yield pytest.param(ProblemSpec.from_groups, groups, (ValueError, "codeword counts must be integers >= 1"),
                           id=f"count-{count!r}")


@pytest.mark.parametrize("build, pairs, outcome", spec_check_cases())
def test_spec_checks_and_conversions(build, pairs, outcome):
    """Each rejection names the first bad pair, with the type and message the per-pair checks gave,
    and bools and IntEnums are stored as exact ints, under both constructors."""
    if isinstance(outcome, dict):
        spec = build(Arities(2, 3), pairs)
        assert spec.groups == outcome and Counter(spec.lengths) == outcome
        assert {type(v) for pair in (*spec.groups, *spec.lengths) for v in pair} == {int}
        assert (spec.m, spec.l1max, spec.l2max) == (sum(outcome.values()), *map(max, zip(*outcome)))
    else:
        kind, message = outcome
        with pytest.raises(Exception) as info:
            build(Arities(2, 3), pairs)
        assert (type(info.value), str(info.value)) == (kind, message)


pairs = st.tuples(st.integers(0, 6) | st.booleans(), st.integers(0, 6) | st.booleans())


# the selftest sweep's pairs and their mirrors with 4: every pair with q1, q2 in {2, 3}, and (2, 4), (4, 2)
RETARGET_PAIRS = [Arities(2, 2), Arities(2, 3), Arities(3, 2), Arities(3, 3), Arities(2, 4), Arities(4, 2)]
RETARGET_DOMAIN = [(l1, l2) for l1 in range(3) for l2 in range(3)]


class TestSpecWithArities:
    """A re-targeted spec is the spec its lengths would make, checked afresh."""

    def test_equals_a_freshly_checked_spec_on_the_box(self):
        # every multiset of m <= 5 pairs of lengths <= 2, from each pair to each of the six
        for m in range(6):
            for combo in itertools.combinations_with_replacement(RETARGET_DOMAIN, m):
                first = ProblemSpec(RETARGET_PAIRS[0], combo)
                for arities in RETARGET_PAIRS:
                    spec, fresh = first.with_arities(arities), ProblemSpec(arities, combo)
                    assert spec == fresh and hash(spec) == hash(fresh)
                    assert spec.arities == arities and spec.lengths == fresh.lengths == combo
                    assert spec.groups == fresh.groups
                    assert (spec.m, spec.l1max, spec.l2max) == (fresh.m, fresh.l1max, fresh.l2max)

    def test_from_a_histogram(self):
        # a spec built from its histogram has no lengths until they are read
        spec = ProblemSpec.from_groups(Arities(2, 2), {(2, 0): 2, (0, 1): 1})
        twin = spec.with_arities(Arities(3, 2))
        assert twin.lengths == spec.lengths == ((2, 0), (2, 0), (0, 1))
        assert twin == ProblemSpec(Arities(3, 2), spec.lengths)

    def test_shares_no_histogram(self):
        spec = ProblemSpec(Arities(2, 2), [(1, 0), (0, 1), (1, 0)])
        twin = spec.with_arities(Arities(2, 3))
        twin.groups[(2, 2)] += 1
        assert spec.groups == Counter({(1, 0): 2, (0, 1): 1}) and type(twin.groups) is Counter
        spec.groups[(1, 0)] += 1
        assert twin.groups == Counter({(1, 0): 2, (0, 1): 1, (2, 2): 1})


class TestSpecDerived:
    """m, l1max and l2max are kept at construction; they stay out of the fields."""

    @given(st.lists(pairs, max_size=8))
    def test_equal_scans_of_lengths(self, lengths):
        for spec in (ProblemSpec(Arities(2, 3), lengths), ProblemSpec.from_groups(Arities(2, 3), Counter(lengths))):
            assert spec.m == len(spec.lengths) == len(lengths)
            assert spec.l1max == max((int(l1) for l1, _ in lengths), default=0)
            assert spec.l2max == max((int(l2) for _, l2 in lengths), default=0)

    def test_fields_and_value_semantics_unchanged(self):
        spec = ProblemSpec(Arities(2, 3), [(2, 0), (0, 1), (2, 0)])
        assert ProblemSpec._fields == ("arities", "lengths")
        assert spec.__reduce__() == (ProblemSpec, (Arities(2, 3), ((2, 0), (0, 1), (2, 0))))
        assert repr(spec) == "ProblemSpec(arities=Arities(q1=2, q2=3), lengths=((2, 0), (0, 1), (2, 0)))"
        twin = ProblemSpec.from_groups(Arities(2, 3), {(2, 0): 2, (0, 1): 1})
        assert twin != spec  # same multiset, other order
        assert pickle.loads(pickle.dumps(spec)) == spec and hash(pickle.loads(pickle.dumps(spec))) == hash(spec)
        copied = pickle.loads(pickle.dumps(twin))
        assert (copied.m, copied.l1max, copied.l2max) == (twin.m, twin.l1max, twin.l2max) == (3, 2, 1)
        with pytest.raises(AttributeError):
            spec._m = 0

