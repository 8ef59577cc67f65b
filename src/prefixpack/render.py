"""SVG diagram of a packing, for the render command, the only one that loads it."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from . import codes
from .model import ProblemSpec

if TYPE_CHECKING:
    from .packer import Locations


def _svg_axis_map(total: int, canvas: float, log_mode: bool):
    if log_mode:
        denom = math.log1p(total)
        return lambda v: canvas * math.log1p(v) / denom
    return lambda v: canvas * v / total


def render_svg(spec: ProblemSpec, locations: Locations) -> str:
    """SVG diagram over a q-power grid: one labeled rectangle per codeword's
    block, at its (x, y) from locations, which follow the spec's order.

    Axes switch to logarithmic scaling once a channel exceeds 10 symbols of
    maximum length (true scale would be astronomically wide); labels stay
    exact either way.
    """
    q = spec.arities
    l1max, l2max = spec.l1max, spec.l2max
    book = codes.solution_to_codebook(spec, locations)
    blocks, (_, _, width, height) = codes.lengths_to_instance(spec)
    cw, ch = 640.0, 480.0
    log_mode = max(l1max, l2max) > 10
    fx = _svg_axis_map(width, cw, log_mode)
    fy = _svg_axis_map(height, ch, log_mode)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{cw:.0f}" height="{ch:.0f}" '
        f'viewBox="0 0 {cw:.0f} {ch:.0f}" version="1.1">',
        f'<rect class="container" x="0" y="0" width="{cw:.2f}" height="{ch:.2f}" '
        'fill="white" stroke="black"/>',
    ]
    # Grid lines at q-power boundaries, vertical then horizontal, coarse levels
    # first, finest level capped to keep files sane.  Each level draws only the
    # lines off the coarser level's (t % q != 0), so every line appears once.
    max_lines = 64
    for qa, lmax, extent, ends in (
        (q.q1, l1max, width, lambda x: f'x1="{fx(x):.2f}" y1="0" x2="{fx(x):.2f}" y2="{ch:.2f}"'),
        (q.q2, l2max, height, lambda y: f'x1="0" y1="{ch - fy(y):.2f}" x2="{cw:.2f}" y2="{ch - fy(y):.2f}"'),
    ):
        for k in range(lmax, -1, -1):
            step = qa**k
            if extent // step > max_lines:
                break
            parts += (
                f'<line class="grid" {ends(t * step)} stroke="#cccccc" stroke-width="0.5"/>'
                for t in range(1, extent // step)
                if t % qa
            )
    palette = ("#e66a6a", "#6a8fe6", "#6ce08b", "#e0c76c", "#b96ce0", "#6cd8e0")
    for idx, ((x, y), (w, h), word) in enumerate(zip(locations, blocks, book)):
        x0, x1 = fx(x), fx(x + w)
        # SVG y runs downward; flip so larger y sits higher.
        y0, y1 = ch - fy(y + h), ch - fy(y)
        color = palette[idx % len(palette)]
        label = f"{word.c1 or 'ε'},{word.c2 or 'ε'}"
        parts.append(
            f'<rect class="block" x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" '
            f'height="{y1 - y0:.2f}" fill="{color}" fill-opacity="0.6" stroke="black"/>'
        )
        parts.append(
            f'<text class="label" x="{(x0 + x1) / 2:.2f}" y="{(y0 + y1) / 2:.2f}" '
            f'font-size="12" text-anchor="middle">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
