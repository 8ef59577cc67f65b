import itertools
import random

import pytest

from prefixpack.geometry import (
    contains,
    corner_cut_regions,
    cut_sigma,
    overlap,
    quotient_bound,
    remainder_regions,
)
from prefixpack.model import Arities, Region, Size, reg
from prefixpack.oracle import OracleLimits, brute_sigma_min

from conftest import assert_partition

Q22 = Arities(2, 2)
ARITY_PAIRS = (Arities(2, 2), Arities(2, 3), Arities(3, 2), Arities(3, 3))


def quocon_set(c: Region, s: Size) -> set[tuple[int, int]]:
    """Enumeration oracle: every aligned location of an s-sized region inside c."""
    out = set()
    x = -(-c.x // s.w) * s.w
    while x + s.w <= c.x + c.w:
        y = -(-c.y // s.h) * s.h
        while y + s.h <= c.y + c.h:
            out.add((x, y))
            y += s.h
        x += s.w
    return out


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


class TestQuotientBound:
    def test_whole_container(self):
        # oracle: every aligned [2,1] cell of [0,4)x[0,2) is present
        assert len(quocon_set(reg(0, 0, 4, 2), Size(2, 1))) == 4
        assert quotient_bound(reg(0, 0, 4, 2), Size(2, 1)) == reg(0, 0, 4, 2)

    def test_absent(self):
        assert quocon_set(reg(1, 0, 2, 1), Size(2, 1)) == set()
        assert quotient_bound(reg(1, 0, 2, 1), Size(2, 1)) is None

    def test_aligned_container_is_its_own_quotient(self):
        c = reg(4, 2, 4, 2)
        assert quotient_bound(c, c.size) == c

    def test_matches_enumeration_oracle_randomized(self, rng):
        for _ in range(2000):
            c = reg(rng.randrange(0, 20), rng.randrange(0, 20), rng.randrange(1, 16), rng.randrange(1, 16))
            s = Size(rng.choice([1, 2, 3, 4, 8, 9]), rng.choice([1, 2, 3, 4, 8, 9]))
            cells = quocon_set(c, s)
            qb = quotient_bound(c, s)
            if not cells:
                assert qb is None
                continue
            xs = [x for x, _ in cells]
            ys = [y for _, y in cells]
            assert qb == reg(min(xs), min(ys), max(xs) - min(xs) + s.w, max(ys) - min(ys) + s.h)


class TestRemainderRegions:
    def test_empty_quotient_gives_container_itself(self):
        assert remainder_regions(reg(1, 0, 2, 1), Size(2, 1)) == (reg(1, 0, 2, 1),)

    def test_fully_covered_gives_nothing(self):
        assert remainder_regions(reg(0, 0, 4, 2), Size(2, 1)) == ()

    def test_right_strip_only(self):
        assert remainder_regions(reg(0, 0, 3, 2), Size(2, 1)) == (reg(2, 0, 1, 2),)

    def test_frame_tiles_container_randomized(self, rng):
        for _ in range(2000):
            c = reg(rng.randrange(0, 20), rng.randrange(0, 20), rng.randrange(1, 16), rng.randrange(1, 16))
            s = Size(rng.choice([1, 2, 4, 3]), rng.choice([1, 2, 4, 3]))
            rem = remainder_regions(c, s)
            qb = quotient_bound(c, s)
            parts = list(rem) + ([qb] if qb else [])
            assert sum(p.area for p in parts) == c.area
            for p in parts:
                assert contains(c, p)
                assert p.w > 0 and p.h > 0  # empties dropped
            for a, b in itertools.combinations(parts, 2):
                assert not overlap(a, b)


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


class TestQuotientLocality:
    """Quotients act locally on rectangular unions of remainder regions."""

    @pytest.mark.parametrize("q", ARITY_PAIRS, ids=lambda q: f"q{q.q1}{q.q2}")
    def test_rectangular_unions(self, q):
        rng = random.Random(999 * q.q1 + q.q2)
        checked = 0
        while checked < 400:
            a2 = rng.randint(0, 3)
            b2 = rng.randint(0, 3)
            a1 = rng.randint(0, a2)
            b1 = rng.randint(0, b2)
            big = Size(q.q1**a2, q.q2**b2)
            small = Size(q.q1**a1, q.q2**b1)
            c = reg(rng.randrange(0, 30), rng.randrange(0, 30), rng.randrange(1, 30), rng.randrange(1, 30))
            rem = remainder_regions(c, big)
            if len(rem) < 2:
                continue
            for k in (2, 3):
                for combo in itertools.combinations(rem, k):
                    xs = [r.x for r in combo]
                    ys = [r.y for r in combo]
                    w = max(r.x + r.w for r in combo) - min(xs)
                    h = max(r.y + r.h for r in combo) - min(ys)
                    if w * h != sum(r.area for r in combo):
                        continue  # union is not a rectangle
                    union = reg(min(xs), min(ys), w, h)
                    per_region = set().union(*(quocon_set(r, small) for r in combo))
                    assert quocon_set(union, small) == per_region
                    checked += 1


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
