import enum
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prefixpack.codes import (
    Codeword,
    SourceDistribution,
    _chunks,
    _encode,
    entropy_bound,
    kraft_sum,
    lengths_to_instance,
    pair_prefix_free,
    solution_to_codebook,
    verify_codebook,
)
from prefixpack.geometry import overlap
from prefixpack.model import Arities, ProblemSpec
from prefixpack.oracle import brute_decide
from prefixpack.packer import construct, decide

Q22 = Arities(2, 2)


def kraft_reference(qs, lengths):
    """The Kraft sum one codeword at a time, one Fraction per codeword."""
    total = Fraction(0)
    for tup in lengths:
        denom = 1
        for qi, li in zip(qs, tup):
            denom *= qi**li
        total += Fraction(1, denom)
    return total


@st.composite
def multisets(draw, channels, max_len):
    """Arities, all equal or drawn per channel, and a length list drawn from a
    few distinct tuples, so tuples repeat."""
    n = draw(channels)
    arity = st.integers(2, 5)
    qs = (draw(arity),) * n if draw(st.booleans()) else tuple(draw(st.lists(arity, min_size=n, max_size=n)))
    pool = draw(st.lists(st.tuples(*[st.integers(0, max_len)] * n), min_size=1, max_size=5))
    return qs, draw(st.lists(st.sampled_from(pool), max_size=24))


class TestKraftSum:
    def test_counterexample_is_exactly_one(self):
        assert kraft_sum((2, 2), ((1, 0), (0, 1))) == Fraction(1)
        assert kraft_sum((2, 2), ((1, 0), (0, 1))) <= 1

    def test_three_channels(self):
        assert kraft_sum((2, 3, 2), ((1, 1, 1),)) == Fraction(1, 12)

    def test_single_channel_violation(self):
        assert kraft_sum((2,), ((1,), (1,), (1,))) == Fraction(3, 2)
        assert not kraft_sum((2,), ((1,), (1,), (1,))) <= 1

    def test_empty(self):
        assert kraft_sum((2, 2), ()) == 0

    def test_rejects_small_arity(self):
        with pytest.raises(ValueError):
            kraft_sum((1, 2), ((0, 0),))

    def test_rejects_mismatched_tuple(self):
        with pytest.raises(ValueError):
            kraft_sum((2, 2), ((1,),))

    def test_exactness_at_threshold(self):
        # 2**40 terms of 2**-40 each: floats would wobble, rationals must not
        lengths = ((20, 20),) * 1000
        total = kraft_sum((2, 2), lengths)
        assert total == Fraction(1000, 2**40)

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=8))
    def test_permutation_invariant(self, lengths):
        rng = random.Random(0)
        shuffled = list(lengths)
        rng.shuffle(shuffled)
        assert kraft_sum((2, 3), lengths) == kraft_sum((2, 3), shuffled)

    @given(
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=6),
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=6),
    )
    def test_additive_over_concatenation(self, xs, ys):
        assert kraft_sum((3, 2), xs + ys) == kraft_sum((3, 2), xs) + kraft_sum((3, 2), ys)


class TestHistogram:
    @settings(max_examples=300)
    @given(multisets(st.integers(1, 3), 60))
    def test_kraft_matches_per_codeword_reference(self, case):
        qs, lengths = case
        expected = kraft_reference(qs, lengths)
        assert kraft_sum(qs, lengths) == expected
        assert kraft_sum(qs, Counter(lengths)) == expected

    @given(multisets(st.just(2), 4), st.randoms(use_true_random=False))
    def test_groups_and_permutation_invariance(self, case, rnd):
        qs, lengths = case
        spec = ProblemSpec(Arities(*qs), tuple(lengths))
        assert spec.groups == Counter(spec.lengths)
        shuffled = list(lengths)
        rnd.shuffle(shuffled)
        assert decide(ProblemSpec(spec.arities, tuple(shuffled))) == decide(spec)


class TestEntropyBound:
    def test_tight_single_channel(self):
        dist = SourceDistribution((0.5, 0.25, 0.25), 2.0)
        report = entropy_bound((2,), ((1,), (2,), (2,)), dist)
        assert report.avg_length == pytest.approx(1.5, abs=1e-12)
        assert report.entropy == pytest.approx(1.5, abs=1e-12)
        assert report.equality

    def test_tight_bound_without_code_existence(self):
        # the length pair that satisfies every information bound yet packs no code
        dist = SourceDistribution((0.5, 0.5), 2.0)
        report = entropy_bound((2, 2), ((1, 0), (0, 1)), dist)
        assert report.avg_length == pytest.approx(1.0, abs=1e-12)
        assert report.entropy == pytest.approx(1.0, abs=1e-12)
        assert report.equality
        assert decide(ProblemSpec(Q22, ((1, 0), (0, 1)))) is False

    def test_slack(self):
        dist = SourceDistribution((0.5, 0.5), 2.0)
        report = entropy_bound((2,), ((2,), (2,)), dist)
        assert report.avg_length == pytest.approx(2.0, abs=1e-12)
        assert report.entropy == pytest.approx(1.0, abs=1e-12)
        assert report.slack == pytest.approx(1.0, abs=1e-12)
        assert not report.equality

    def test_heterogeneous_arities_unify_units(self):
        # one symbol of a 4-ary alphabet = two bits
        dist = SourceDistribution((0.25, 0.25, 0.25, 0.25), 2.0)
        report = entropy_bound((4,), ((1,), (1,), (1,), (1,)), dist)
        assert report.avg_length == pytest.approx(2.0, abs=1e-12)
        assert report.equality

    def test_rejects_mismatched_probs(self):
        with pytest.raises(ValueError):
            entropy_bound((2,), ((1,), (2,)), SourceDistribution((1.0,), 2.0))

    def test_dist_validation(self):
        with pytest.raises(ValueError):
            SourceDistribution((0.5, 0.6), 2.0)
        with pytest.raises(ValueError):
            SourceDistribution((1.5, -0.5), 2.0)
        with pytest.raises(ValueError):
            SourceDistribution((1.0,), 1.0)

    @pytest.mark.parametrize("base", [float("nan"), float("inf")])
    def test_dist_rejects_non_finite_base(self, base):
        with pytest.raises(ValueError, match="finite"):
            SourceDistribution((1.0,), base)

    def test_slack_nonnegative_when_kraft_holds(self, rng):
        for _ in range(300):
            n = rng.randint(1, 2)
            qs = tuple(rng.choice([2, 3, 4]) for _ in range(n))
            m = rng.randint(1, 8)
            lengths = tuple(
                tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(m)
            )
            if not kraft_sum(qs, lengths) <= 1:
                continue
            weights = [rng.random() + 1e-3 for _ in range(m)]
            total = sum(weights)
            probs = tuple(w / total for w in weights)
            report = entropy_bound(qs, lengths, SourceDistribution(probs, 2.0))
            assert report.slack >= -1e-9


class Level(enum.IntEnum):
    ZERO = 0
    ONE = 1


class TestLengthsToInstance:
    def test_counterexample_blocks(self):
        inst = lengths_to_instance(ProblemSpec(Q22, ((1, 0), (0, 1))))
        assert inst.blocks == ((1, 2), (2, 1))
        assert inst.container == (0, 0, 2, 2)

    def test_degenerate_root(self):
        inst = lengths_to_instance(ProblemSpec(Q22, ((0, 0),)))
        assert inst.blocks == ((1, 1),)
        assert inst.container == (0, 0, 1, 1)

    def test_mixed_arities(self):
        spec = ProblemSpec(Arities(2, 3), ((1, 1), (2, 0)))
        inst = lengths_to_instance(spec)
        assert inst.blocks == ((2, 1), (1, 3))
        assert inst.container == (0, 0, 4, 3)
        # block-area sum over container area telescopes to the Kraft sum
        ratio = Fraction(sum(w * h for w, h in inst.blocks), 4 * 3)
        assert ratio == kraft_sum((2, 3), spec.lengths)

    def test_unused_channel_degenerates(self):
        inst = lengths_to_instance(ProblemSpec(Q22, ((1, 0), (2, 0))))
        assert inst.container == (0, 0, 4, 1)
        assert all(h == 1 for _, h in inst.blocks)

    def test_area_identity_randomized(self, rng):
        # each multiset also as a histogram whose lengths 0 and 1 may be bools or IntEnum members
        alike = {0: (0, False, Level.ZERO), 1: (1, True, Level.ONE)}
        for _ in range(300):
            q = Arities(rng.choice([2, 3]), rng.choice([2, 3]))
            m = rng.randint(0, 9)
            lengths = tuple((rng.randint(0, 4), rng.randint(0, 4)) for _ in range(m))
            groups = Counter(tuple(rng.choice(alike.get(l, (l,))) for l in pair) for pair in lengths)
            for spec in (ProblemSpec(q, lengths), ProblemSpec.from_groups(q, groups)):
                inst = lengths_to_instance(spec)
                width, height = q.q1**spec.l1max, q.q2**spec.l2max
                assert inst.container == (0, 0, width, height)
                assert inst.blocks == tuple(
                    (q.q1 ** (spec.l1max - l1), q.q2 ** (spec.l2max - l2)) for l1, l2 in spec.lengths
                )
                fits = sum(w * h for w, h in inst.blocks) <= width * height
                assert fits == (kraft_sum((q.q1, q.q2), lengths) <= 1)


def leaf_span(word: str, base: int, lmax: int) -> tuple[int, int]:
    """Oracle: half-open leaf range a codeword's subtree occupies at depth lmax."""
    value = 0
    for ch in word:
        value = value * base + int(ch, 36)
    width = base ** (lmax - len(word))
    return (value * width, value * width + width)


class TestSolutionToCodebook:
    def test_mid_tree_word(self):
        spec = ProblemSpec(Q22, ((2, 0), (3, 0)))
        book = solution_to_codebook(spec, ((2, 0), (0, 0)))
        assert book[0].c1 == "01"
        assert leaf_span("01", 2, 3) == (2, 4)  # leaves 010 and 011
        assert book[0].c2 == ""

    def test_root_codeword_and_unit_block(self):
        spec = ProblemSpec(Q22, ((0, 0), (1, 1)))
        book = solution_to_codebook(spec, ((0, 0), (1, 1)))
        assert book[0] == Codeword("", "")
        assert book[1] == Codeword("1", "1")

    def test_leaf_span_oracle_randomized(self, rng):
        for _ in range(1500):
            q = Arities(rng.choice([2, 3]), rng.choice([2, 3]))
            l1max, l2max = rng.randint(0, 4), rng.randint(0, 4)
            l1, l2 = rng.randint(0, l1max), rng.randint(0, l2max)
            lengths = ((l1, l2), (l1max, l2max))
            w = q.q1 ** (l1max - l1)
            h = q.q2 ** (l2max - l2)
            x = rng.randrange(0, q.q1**l1max, w) if l1 else 0
            y = rng.randrange(0, q.q2**l2max, h) if l2 else 0
            word = solution_to_codebook(ProblemSpec(q, lengths), ((x, y), (0, 0)))[0]
            assert leaf_span(word.c1, q.q1, l1max) == (x, x + w)
            assert leaf_span(word.c2, q.q2, l2max) == (y, y + h)

    def test_rejects_misaligned_location(self):
        spec = ProblemSpec(Q22, ((1, 0), (2, 2)))
        with pytest.raises(ValueError):
            solution_to_codebook(spec, ((1, 0), (0, 0)))

    def test_rejects_out_of_range_location(self):
        spec = ProblemSpec(Q22, ((1, 0), (1, 1)))
        with pytest.raises(ValueError):
            solution_to_codebook(spec, ((4, 0), (0, 0)))

    def test_rejects_a_location_count_other_than_m(self):
        spec = ProblemSpec(Q22, ((1, 0), (1, 1)))
        for locations in ((), ((0, 0),), ((0, 0), (2, 0), (3, 1))):
            with pytest.raises(ValueError, match="locations for 2 codewords"):
                solution_to_codebook(spec, locations)


def encode_reference(value, base, width):
    """The per-digit form of _encode: one divmod per digit."""
    if base > 36:
        raise ValueError(f"digit strings support arities up to 36, got {base}")
    digits = []
    for _ in range(width):
        value, d = divmod(value, base)
        digits.append("0123456789abcdefghijklmnopqrstuvwxyz"[d])
    if value:
        raise ValueError("value does not fit in the requested digit width")
    return "".join(reversed(digits))


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


class TestEncode:
    @settings(max_examples=1000)
    @given(st.integers(2, 40), st.integers(0, 70), st.data())
    def test_same_digits_as_one_divmod_per_digit(self, base, width, data):
        top = min(base, 36) ** width
        value = data.draw(st.one_of(st.integers(0, top - 1), st.integers(-3, top + 3), st.integers(top, 2 * top)))
        assert outcome(_encode, value, base, width) == outcome(encode_reference, value, base, width)

    @pytest.mark.parametrize("base", [2, 3, 16, 36])
    def test_values_out_of_range_at_the_chunk_widths(self, base):
        # below one chunk, at one chunk and above it: -1 and base**width do not fit, 0 and base**width - 1 do
        k = _chunks(base)[0]
        for width in (k - 1, k, k + 1):
            for value in (-1, base**width):
                with pytest.raises(ValueError, match="value does not fit in the requested digit width"):
                    _encode(value, base, width)
            assert _encode(0, base, width) == "0" * width
            assert _encode(base**width - 1, base, width) == "0123456789abcdefghijklmnopqrstuvwxyz"[base - 1] * width

    def test_every_value_of_a_width(self):
        for base in range(2, 37):
            for width in range(4):
                for value in range(base**width + 1):
                    assert outcome(_encode, value, base, width) == outcome(encode_reference, value, base, width)


class TestPairPrefixFree:
    def test_channel_one_siblings(self):
        assert pair_prefix_free(Codeword("0", ""), Codeword("1", ""))

    def test_prefix_in_sole_channel(self):
        assert not pair_prefix_free(Codeword("01", ""), Codeword("010", ""))

    def test_identical_second_channel(self):
        assert not pair_prefix_free(Codeword("0", "1"), Codeword("00", "1"))

    def test_one_free_channel_suffices(self):
        assert pair_prefix_free(Codeword("0", "10"), Codeword("00", "11"))

    def test_symmetry(self, rng):
        for _ in range(500):
            a = Codeword(
                "".join(rng.choice("01") for _ in range(rng.randint(0, 4))),
                "".join(rng.choice("012") for _ in range(rng.randint(0, 4))),
            )
            b = Codeword(
                "".join(rng.choice("01") for _ in range(rng.randint(0, 4))),
                "".join(rng.choice("012") for _ in range(rng.randint(0, 4))),
            )
            assert pair_prefix_free(a, b) == pair_prefix_free(b, a)

    def test_word_prefixes_itself(self):
        assert not pair_prefix_free(Codeword("01", "1"), Codeword("01", "1"))


class TestVerifyCodebook:
    def test_good_pair(self):
        assert verify_codebook((Codeword("0", ""), Codeword("1", "")))

    def test_bad_pair(self):
        assert not verify_codebook((Codeword("0", "0"), Codeword("0", "00")))

    def test_construct_output_verifies(self):
        spec = ProblemSpec(Q22, ((1, 1), (1, 1), (1, 0)))
        inst = lengths_to_instance(spec)
        assert brute_decide(inst.blocks, [inst.container]) == "yes"
        sol = construct(spec)
        assert sol is not None
        assert verify_codebook(solution_to_codebook(spec, sol))

    def test_roundtrip_corpus_verifies_and_respects_kraft(self, rng):
        built = 0
        while built < 100:
            q = Arities(rng.choice([2, 3]), rng.choice([2, 3]))
            m = rng.randint(1, 10)
            lengths = tuple((rng.randint(1, 3), rng.randint(1, 3)) for _ in range(m))
            spec = ProblemSpec(q, lengths)
            sol = construct(spec)
            if sol is None:
                continue
            built += 1
            book = solution_to_codebook(spec, sol)
            assert verify_codebook(book)
            # lengths of a verified codebook always satisfy the Kraft bound
            measured = tuple((len(w.c1), len(w.c2)) for w in book)
            assert measured == lengths
            assert kraft_sum((q.q1, q.q2), measured) <= 1


class TestOverlapPrefixDuality:
    """Placed blocks overlap exactly when their codewords are not prefix-free."""

    @pytest.mark.parametrize("q", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_random_placed_pairs(self, q):
        q = Arities(*q)
        rng = random.Random(31 * q.q1 + q.q2)
        lmax_bound = 4 if q.q1 == 2 and q.q2 == 2 else 3
        for _ in range(10_000):
            l1max, l2max = rng.randint(0, lmax_bound), rng.randint(0, lmax_bound)
            pair = []
            regions = []
            for _ in range(2):
                l1, l2 = rng.randint(0, l1max), rng.randint(0, l2max)
                w = q.q1 ** (l1max - l1)
                h = q.q2 ** (l2max - l2)
                x = rng.randrange(0, q.q1**l1max + 1 - w, w)
                y = rng.randrange(0, q.q2**l2max + 1 - h, h)
                pair.append((l1, l2))
                regions.append((x, y, w, h))
            lengths = (pair[0], pair[1], (l1max, l2max))
            locations = (regions[0][:2], regions[1][:2], (0, 0))
            book = solution_to_codebook(ProblemSpec(q, lengths), locations)
            assert overlap(regions[0], regions[1]) != pair_prefix_free(book[0], book[1])
