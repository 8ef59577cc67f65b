"""The package root: the library API the README shows, and nothing more."""

import ast
from fractions import Fraction
from pathlib import Path

import prefixpack

README = Path(__file__).resolve().parents[1] / "README.md"

LIBRARY_API = [
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


def test_exports_only_the_library_api():
    assert sorted(prefixpack.__all__) == LIBRARY_API
    for name in prefixpack.__all__:
        assert getattr(prefixpack, name) is not None, name


def test_readme_quick_start_runs_as_commented():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    values = []  # the value of each expression statement, which the README comments state
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert values == [Fraction(1, 1), False, True]
    assert [type(v) for v in values] == [Fraction, bool, bool]
