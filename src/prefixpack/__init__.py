"""Two-channel prefix-free codes: existence decision via constrained rectangle packing.

The multichannel Kraft inequality is necessary but not sufficient for a
two-channel prefix-free code to exist.  This package closes that gap: it maps
a multiset of codeword-length pairs onto a rectangle-packing instance with
regularity and alignment constraints, decides solvability exactly, constructs
an explicit codebook when one exists, and computes the exact Kraft sum and
the entropy bound.
"""

from .codes import (
    Codebook,
    Codeword,
    EntropyReport,
    SourceDistribution,
    entropy_bound,
    kraft_ok,
    kraft_sum,
    lengths_to_instance,
    pair_prefix_free,
    solution_to_codebook,
    verify_codebook,
)
from .geometry import cut_sigma, overlap, quotient_bound, remainder_regions
from .model import (
    Arities,
    Block,
    ProblemSpec,
    Region,
    Size,
    cmp_partial,
    cmp_total,
    is_aligned,
    is_regular,
    reg,
    sort_blocks_desc,
)
from .oracle import OracleLimits, brute_decide, brute_sigma_min, enumerate_instances
from .packer import ContainerBank, construct, decide, decide_fast, solve_naive

__version__ = "0.1.0"

__all__ = [
    "Arities",
    "Block",
    "Codebook",
    "Codeword",
    "ContainerBank",
    "EntropyReport",
    "OracleLimits",
    "ProblemSpec",
    "Region",
    "Size",
    "SourceDistribution",
    "brute_decide",
    "brute_sigma_min",
    "cmp_partial",
    "cmp_total",
    "construct",
    "cut_sigma",
    "decide",
    "decide_fast",
    "entropy_bound",
    "enumerate_instances",
    "is_aligned",
    "is_regular",
    "kraft_ok",
    "kraft_sum",
    "lengths_to_instance",
    "overlap",
    "pair_prefix_free",
    "quotient_bound",
    "reg",
    "remainder_regions",
    "solution_to_codebook",
    "solve_naive",
    "sort_blocks_desc",
    "verify_codebook",
]
