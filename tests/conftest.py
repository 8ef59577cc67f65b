import random

import pytest

from prefixpack.geometry import covers, is_aligned, is_regular, overlap
from prefixpack.model import Arities


def assert_partition(c, s, q: Arities, pieces) -> None:
    """Pieces, (x, y, w, h) boxes, tile the box c exactly and each is regular,
    aligned, and bounded by the (w, h) size s."""
    cx, cy, cw, ch = c
    total = 0
    for p in pieces:
        x, y, w, h = p
        assert is_regular((w, h), q), f"piece {p} not regular for q=({q.q1},{q.q2})"
        assert is_aligned(p), f"piece {p} not aligned"
        assert covers(s, (w, h)), f"piece {p} exceeds bound [{s[0]},{s[1]}]"
        assert cx <= x and x + w <= cx + cw, f"piece {p} leaves {c}"
        assert cy <= y and y + h <= cy + ch, f"piece {p} leaves {c}"
        total += w * h
    assert total == cw * ch, "pieces do not sum to the container area"
    # area + containment + pairwise disjointness => exact tiling
    seen = sorted(pieces)
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            if seen[j][0] >= seen[i][0] + seen[i][2]:
                break  # sorted by x; nothing further can overlap seen[i]
            assert not overlap(seen[i], seen[j]), f"{seen[i]} overlaps {seen[j]}"


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0DEC)
