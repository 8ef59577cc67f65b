import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from prefixpack.geometry import Region, Size, contains, corner_cut_regions, cut_sigma, overlap, reg
from prefixpack.model import Arities
from prefixpack.oracle import OracleLimits, brute_sigma_min

from conftest import assert_partition

Q22 = Arities(2, 2)
ARITY_PAIRS = (Arities(2, 2), Arities(2, 3), Arities(3, 2), Arities(3, 3))


def checked_cut(c: Region, s: Size, q: Arities):
    pieces = cut_sigma(c, s, q)
    assert_partition(c, s, q, pieces)
    return pieces


class TestOverlap:
    def test_shared_edge_only(self):
        assert not overlap(reg(0, 0, 2, 2), reg(2, 0, 2, 2))

    def test_interior_intersection(self):
        assert overlap(reg(0, 0, 2, 2), reg(1, 1, 2, 2))

    def test_containment(self):
        assert overlap(reg(0, 0, 1, 1), reg(0, 0, 4, 4))

    def test_symmetric(self):
        a, b = reg(0, 3, 4, 2), reg(3, 0, 2, 4)
        assert overlap(a, b) == overlap(b, a)


class TestRegularAlignedDichotomy:
    """Random regular aligned pairs: the smaller region is covered or untouched."""

    def _sample_pair(self, rng, q):
        a1, a2 = sorted((rng.randint(0, 5), rng.randint(0, 5)))
        b1, b2 = sorted((rng.randint(0, 5), rng.randint(0, 5)))
        w1, h1 = q.q1**a1, q.q2**b1
        w2, h2 = q.q1**a2, q.q2**b2
        r1 = reg(rng.randrange(0, 4 * w2, w1), rng.randrange(0, 4 * h2, h1), w1, h1)
        r2 = reg(rng.randrange(0, 4 * w2, w2), rng.randrange(0, 4 * h2, h2), w2, h2)
        return r1, r2

    @pytest.mark.parametrize("q", ARITY_PAIRS, ids=lambda q: f"q{q.q1}{q.q2}")
    def test_cover_or_disjoint(self, q):
        rng = random.Random(101 * q.q1 + q.q2)
        for _ in range(10_000):
            r1, r2 = self._sample_pair(rng, q)
            if overlap(r1, r2):
                assert contains(r2, r1), f"{r2} partially covers {r1}"

    @pytest.mark.parametrize("q", ARITY_PAIRS, ids=lambda q: f"q{q.q1}{q.q2}")
    def test_interval_projections(self, q):
        # One-dimensional version of the same dichotomy, on both projections.
        rng = random.Random(17 * q.q1 + q.q2)
        for _ in range(10_000):
            r1, r2 = self._sample_pair(rng, q)
            x_lo = max(r1.x, r2.x)
            x_hi = min(r1.x + r1.w, r2.x + r2.w)
            if x_lo < x_hi:
                assert (x_lo, x_hi) == (r1.x, r1.x + r1.w)
            y_lo = max(r1.y, r2.y)
            y_hi = min(r1.y + r1.h, r2.y + r2.h)
            if y_lo < y_hi:
                assert (y_lo, y_hi) == (r1.y, r1.y + r1.h)


class TestCutSigma:
    def test_conforming_container_is_returned_whole(self):
        assert checked_cut(reg(0, 0, 2, 2), Size(2, 2), Q22) == (reg(0, 0, 2, 2),)

    def test_misaligned_strip_splits_into_units(self):
        pieces = checked_cut(reg(1, 0, 2, 1), Size(2, 1), Q22)
        assert set(pieces) == {reg(1, 0, 1, 1), reg(2, 0, 1, 1)}
        # independent minimal-partition oracle agrees
        assert brute_sigma_min(reg(1, 0, 2, 1), Size(2, 1), Q22)[0] == len(pieces)

    def test_bound_caps_piece_sizes(self):
        pieces = checked_cut(reg(0, 0, 4, 2), Size(2, 1), Q22)
        assert sorted((p.x, p.y) for p in pieces) == [(0, 0), (0, 1), (2, 0), (2, 1)]
        assert {p.size for p in pieces} == {Size(2, 1)}
        assert brute_sigma_min(reg(0, 0, 4, 2), Size(2, 1), Q22)[0] == 4

    def test_minimality_matches_oracle_randomized(self, rng):
        limits = OracleLimits(max_m=1, max_dim=8, max_nodes=2_000_000)
        for _ in range(250):
            q = rng.choice(ARITY_PAIRS)
            c = reg(rng.randrange(0, 9), rng.randrange(0, 9), rng.randrange(1, 9), rng.randrange(1, 9))
            s = Size(
                q.q1 ** rng.randint(0, 3 if q.q1 == 2 else 1),
                q.q2 ** rng.randint(0, 3 if q.q2 == 2 else 1),
            )
            if s.w > 8 or s.h > 8:
                continue
            pieces = checked_cut(c, s, q)
            count, parts = brute_sigma_min(c, s, q, limits)
            assert_partition(c, s, q, parts)
            assert len(pieces) == count, f"σ not minimal on {c} bound {s}"

    def test_unique_minimum_on_tiny_containers(self):
        # Enumerate *every* minimal partition and check each equals the cut.
        limits = OracleLimits(max_m=1, max_dim=4, max_nodes=2_000_000)
        for q in ARITY_PAIRS:
            for w, h, x, y in itertools.product(range(1, 5), range(1, 5), range(4), range(4)):
                c = reg(x, y, w, h)
                for s in (Size(q.q1, q.q2), Size(q.q1**2, 1), Size(q.q1, q.q2**2)):
                    expected = set(cut_sigma(c, s, q))
                    best, _ = brute_sigma_min(c, s, q, limits)
                    for partition in _all_partitions(c, s, q, best):
                        assert set(partition) == expected

    def test_rejects_irregular_bound(self):
        with pytest.raises(ValueError):
            cut_sigma(reg(0, 0, 4, 4), Size(3, 2), Q22)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 5), st.integers(2, 5),
        st.integers(0, 10**4 - 1), st.integers(0, 10**4 - 1),
        st.integers(1, 128), st.integers(1, 128),
        st.integers(0, 6), st.integers(0, 6),
    )
    def test_no_piece_can_grow(self, q1, q2, x, y, w, h, a, b):
        # A tiling whose every piece is a product of maximal aligned intervals
        # is the product cut, hence minimal: the aligned interval q times
        # longer than a piece's, on either axis, must exceed the bound or c.
        q, c, s = Arities(q1, q2), reg(x, y, w, h), Size(q1**a, q2**b)
        pieces = checked_cut(c, s, q)
        for p in pieces:
            for lo, side, qa, bound, c_lo, c_side in (
                (p.x, p.w, q1, s.w, c.x, c.w),
                (p.y, p.h, q2, s.h, c.y, c.h),
            ):
                grown = side * qa
                start = lo - lo % grown
                assert grown > bound or start < c_lo or start + grown > c_lo + c_side, (
                    f"piece {p} of the cut of {c} bound {s} can grow"
                )


def _all_partitions(c: Region, s: Size, q: Arities, budget: int):
    """Every partition of c into regular aligned pieces bounded by s with exactly
    `budget` pieces (anchor-cell recursion, small containers only)."""
    sizes = [
        Size(q.q1**a, q.q2**b)
        for a in range(4)
        for b in range(4)
        if q.q1**a <= s.w and q.q2**b <= s.h
    ]
    cells = [(x, y) for x in range(c.x, c.x + c.w) for y in range(c.y, c.y + c.h)]

    def rec(uncovered: frozenset, used: tuple):
        if not uncovered:
            yield used
            return
        if len(used) >= budget:
            return
        ax, ay = min(uncovered, key=lambda p: (p[1], p[0]))
        for size in sizes:
            px, py = ax - ax % size.w, ay - ay % size.h
            piece_cells = {
                (px + dx, py + dy) for dx in range(size.w) for dy in range(size.h)
            }
            if px < c.x or px + size.w > c.x + c.w or py < c.y or py + size.h > c.y + c.h:
                continue
            if not piece_cells <= uncovered:
                continue
            yield from rec(uncovered - piece_cells, used + (reg(px, py, size.w, size.h),))

    yield from rec(frozenset(cells), ())


class TestCornerCut:
    def test_halving(self):
        assert corner_cut_regions(reg(0, 0, 2, 1), Size(1, 1), Q22) == [reg(1, 0, 1, 1)]

    def test_l_shape_counts(self):
        pieces = corner_cut_regions(reg(0, 0, 4, 2), Size(1, 1), Q22)
        assert pieces == [reg(1, 0, 1, 2), reg(2, 0, 2, 2), reg(0, 1, 1, 1)]
        assert sum(p.area for p in pieces) == 8 - 1

    def test_counterexample_first_leftover(self):
        assert corner_cut_regions(reg(0, 0, 2, 2), Size(2, 1), Q22) == [reg(0, 1, 2, 1)]

    def test_rejects_oversized_block(self):
        with pytest.raises(ValueError):
            corner_cut_regions(reg(0, 0, 2, 2), Size(4, 1), Q22)

    @pytest.mark.parametrize("q", ARITY_PAIRS, ids=lambda q: f"q{q.q1}{q.q2}")
    def test_area_conservation(self, q):
        exps = [0, 1, 2, 3, 7, 8, 19, 20]
        for i, j in itertools.product(exps, exps):
            cont = reg(0, 0, q.q1**i, q.q2**j)
            for a in [e for e in exps if e <= i]:
                for b in [e for e in exps if e <= j]:
                    block = Size(q.q1**a, q.q2**b)
                    pieces = corner_cut_regions(cont, block, q)
                    assert sum(p.area for p in pieces) == cont.area - block.area

    @pytest.mark.parametrize("q", ARITY_PAIRS, ids=lambda q: f"q{q.q1}{q.q2}")
    def test_regions_match_counts_and_tile(self, q):
        rng = random.Random(5 * q.q1 + q.q2)
        for _ in range(200):
            i, j = rng.randint(0, 3), rng.randint(0, 3)
            a, b = rng.randint(0, i), rng.randint(0, j)
            cont = reg(
                rng.randrange(0, 3) * q.q1**i, rng.randrange(0, 3) * q.q2**j,
                q.q1**i, q.q2**j,
            )
            block = Size(q.q1**a, q.q2**b)
            pieces = corner_cut_regions(cont, block, q)
            # pieces plus the block tile the container
            block_region = reg(cont.x, cont.y, block.w, block.h)
            assert_partition(cont, cont.size, q, pieces + [block_region])
