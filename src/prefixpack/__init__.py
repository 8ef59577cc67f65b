"""Two-channel prefix-free codes: existence decision via constrained rectangle packing.

The multichannel Kraft inequality is necessary but not sufficient for a
two-channel prefix-free code to exist.  This package closes that gap: it maps
a multiset of codeword-length pairs onto a rectangle-packing instance with
regularity and alignment constraints, decides solvability exactly, constructs
an explicit codebook when one exists, and computes the exact Kraft sum and
the entropy bound.
"""

from .codes import (
    Codeword,
    SourceDistribution,
    entropy_bound,
    kraft_sum,
    solution_to_codebook,
    verify_codebook,
)
from .model import Arities, ProblemSpec
from .packer import construct, decide

__version__ = "0.1.0"

__all__ = [
    "Arities",
    "Codeword",
    "ProblemSpec",
    "SourceDistribution",
    "__version__",
    "construct",
    "decide",
    "entropy_bound",
    "kraft_sum",
    "solution_to_codebook",
    "verify_codebook",
]
