"""Two-channel prefix-free codes: existence decision via constrained rectangle packing.

The multichannel Kraft inequality is necessary but not sufficient for a
two-channel prefix-free code to exist.  This package closes that gap: it maps
a multiset of codeword-length pairs onto a rectangle-packing instance with
regularity and alignment constraints, decides solvability exactly, constructs
an explicit codebook when one exists, and computes the exact Kraft sum and
the entropy bound.
"""

__version__ = "0.1.0"

# Each export is imported from its module on first access, so that importing
# a submodule such as prefixpack.cli loads only the modules it needs.
_HOMES = {
    "Arities": "model",
    "Codeword": "codes",
    "ProblemSpec": "model",
    "SourceDistribution": "codes",
    "construct": "packer",
    "decide": "packer",
    "entropy_bound": "codes",
    "kraft_sum": "codes",
    "solution_to_codebook": "codes",
    "verify_codebook": "codes",
}
__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value
