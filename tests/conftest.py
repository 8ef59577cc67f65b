import random

import pytest

from prefixpack.geometry import Region, Size, covers, is_aligned, is_regular, overlap, reg
from prefixpack.model import Arities


def assert_partition(c: Region, s: Size, q: Arities, pieces) -> None:
    """Pieces tile c exactly and each is regular, aligned, and bounded by s."""
    total = 0
    for p in pieces:
        assert is_regular(p.size, q), f"piece {p} not regular for q=({q.q1},{q.q2})"
        assert is_aligned(p), f"piece {p} not aligned"
        assert covers(s, p.size), f"piece {p} exceeds bound [{s.w},{s.h}]"
        assert c.x <= p.x and p.x + p.w <= c.x + c.w, f"piece {p} leaves {c}"
        assert c.y <= p.y and p.y + p.h <= c.y + c.h, f"piece {p} leaves {c}"
        total += p.area
    assert total == c.area, "pieces do not sum to the container area"
    # area + containment + pairwise disjointness => exact tiling
    seen = sorted(pieces, key=lambda r: (r.x, r.y))
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            if seen[j].x >= seen[i].x + seen[i].w:
                break  # sorted by x; nothing further can overlap seen[i]
            assert not overlap(seen[i], seen[j]), f"{seen[i]} overlaps {seen[j]}"


def bare(blocks, containers) -> tuple[list, list]:
    """Sizes and regions as the (w, h) and (x, y, w, h) tuples oracle.brute_decide takes."""
    return [(b.w, b.h) for b in blocks], [(c.x, c.y, c.w, c.h) for c in containers]


def naive_input(inst) -> tuple[list[Size], list[Region]]:
    """A canonical instance's bare (w, h) blocks and (x, y, w, h) container as the
    Size blocks and Region containers geometry.solve_naive takes."""
    return [Size(w, h) for w, h in inst.blocks], [reg(*inst.container)]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0DEC)
