"""Relations between verdicts that hold at any size, checked at decide's scale
and on every multiset in the oracle's box.

The exhaustive oracle's default sweep stops at m <= 5 and lengths <= 2.
These checks need no oracle: each rests on a plain prefix-code argument, so
they apply to codes of up to 10**4 codewords with lengths up to a few
hundred.  Inside the benchmark's sweep box, m <= 4 and lengths <= 2, they
are checked on every multiset, for more arity pairs than the oracle's sweep
covers.

- removal: a code minus one codeword is still a code;
- adding: a length multiset with no code has none with one codeword more;
- swap: swapping the channels, and the arities with them, keeps the verdict;
- shift: prepending one channel-1 symbol to every codeword keeps a code;
- lengthening: appending a channel-1 symbol to one codeword keeps a code,
  and so does splitting it into q1 codewords, one per appended symbol;
- Kraft: a code has Kraft sum at most 1;
- pairs: {a, b} has no code iff both channels of one word are prefixes of
  the other's, that is iff min(a1, b1) == 0 and min(a2, b2) == 0.
"""

import random
from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from prefixpack.codes import kraft_sum
from prefixpack.model import Arities, ProblemSpec
from prefixpack.oracle import enumerate_instances
from prefixpack.packer import construct, decide

LMAX = 300
ARITIES = st.tuples(st.sampled_from([2, 3, 4]), st.sampled_from([2, 3, 4]))
BIG = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def grow(rng, q, m, window):
    """The leaves of a two-channel prefix tree grown by splitting a leaf into
    q1 or q2 children until it has at least m, each channel capped at LMAX.
    The leaf split is one of the `window` newest, so a small window grows deep."""
    leaves = [(0, 0)]
    while len(leaves) < m:
        k = len(leaves) - 1 - rng.randrange(min(window, len(leaves)))
        c = rng.randrange(2)
        if leaves[k][c] >= LMAX:
            c = 1 - c
            if leaves[k][c] >= LMAX:
                window = len(leaves)  # the newest leaves are full; split anywhere
                continue
        child = (leaves[k][0] + 1, leaves[k][1]) if c == 0 else (leaves[k][0], leaves[k][1] + 1)
        leaves[k] = child
        leaves += [child] * (q[c] - 1)
    return leaves


@st.composite
def codes(draw):
    """(arities, histogram, rng): a grown code, some of its codewords dropped
    and a few arbitrary pairs added, so that both verdicts occur."""
    q = draw(ARITIES)
    m = draw(st.integers(1, 10**4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    leaves = grow(rng, q, m, draw(st.sampled_from([1, 16, m])))
    drop = draw(st.sampled_from([0.0, 0.001, 0.1]))
    kept = [p for p in leaves if rng.random() >= drop]
    extra = draw(st.lists(st.tuples(st.integers(0, LMAX), st.integers(0, LMAX)), max_size=2))
    return Arities(*q), Counter(kept + extra), rng


def verdict(q, groups):
    return decide(ProblemSpec.from_groups(q, groups))


def moved(groups, old, new):
    """groups with one codeword `old` replaced by the codewords in `new`."""
    return groups - Counter([old]) + Counter(new)


@BIG
@given(code=codes())
def test_removing_a_codeword_keeps_a_code(code):
    q, groups, rng = code
    if groups and verdict(q, groups):
        assert verdict(q, moved(groups, rng.choice(sorted(groups)), []))


@BIG
@given(code=codes(), pair=st.tuples(st.integers(0, LMAX), st.integers(0, LMAX)))
def test_adding_a_codeword_keeps_no_code(code, pair):
    q, groups, _ = code
    if not verdict(q, groups):
        assert not verdict(q, groups + Counter([pair]))


@BIG
@given(code=codes())
def test_swapping_the_channels_keeps_the_verdict(code):
    q, groups, _ = code
    swapped = Counter({(b, a): n for (a, b), n in groups.items()})
    assert verdict(Arities(q.q2, q.q1), swapped) == verdict(q, groups)


@BIG
@given(code=codes())
def test_shifting_every_codeword_keeps_a_code(code):
    q, groups, _ = code
    if verdict(q, groups):
        assert verdict(q, Counter({(a + 1, b): n for (a, b), n in groups.items()}))


@BIG
@given(code=codes())
def test_lengthening_or_splitting_a_codeword_keeps_a_code(code):
    q, groups, rng = code
    if groups and verdict(q, groups):
        a, b = rng.choice(sorted(groups))
        assert verdict(q, moved(groups, (a, b), [(a + 1, b)]))
        assert verdict(q, moved(groups, (a, b), [(a + 1, b)] * q.q1))


@BIG
@given(code=codes())
def test_a_code_has_kraft_sum_at_most_one(code):
    q, groups, _ = code
    if verdict(q, groups):
        assert kraft_sum((q.q1, q.q2), groups) <= 1


@settings(max_examples=300, deadline=None)
@given(q=ARITIES, a=st.tuples(st.integers(0, LMAX), st.integers(0, LMAX)),
       b=st.tuples(st.integers(0, LMAX), st.integers(0, LMAX)))
def test_two_codewords_clash_iff_both_channels_are_prefixes(q, a, b):
    clash = min(a[0], b[0]) == 0 and min(a[1], b[1]) == 0
    assert verdict(Arities(*q), Counter([a, b])) is not clash


# The benchmark's sweep box, for every pair of arities 2 and 3 and the
# pairs with 4; the set is closed under swapping, so swaps look verdicts up.
BOX_ARITIES = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (4, 4)]


def test_relations_hold_on_every_multiset_in_the_box():
    verdicts = {}
    for spec in enumerate_instances(BOX_ARITIES, 4, 2):
        q, key = spec.arities, tuple(sorted(spec.lengths))
        verdicts[q.q1, q.q2, key] = decide(spec)
        assert (construct(spec) is not None) == verdicts[q.q1, q.q2, key], (q, key)
    assert len(verdicts) == 715 * len(BOX_ARITIES)
    for (q1, q2, key), exists in verdicts.items():
        swapped = tuple(sorted((b, a) for a, b in key))
        assert verdicts[q2, q1, swapped] == exists, (q1, q2, key)
        if not exists:
            continue
        for k in range(len(key)):
            assert verdicts[q1, q2, key[:k] + key[k + 1 :]], (q1, q2, key, k)
        assert decide(ProblemSpec(Arities(q1, q2), tuple((a + 1, b) for a, b in key))), (q1, q2, key)
        assert kraft_sum((q1, q2), key) <= 1, (q1, q2, key)
