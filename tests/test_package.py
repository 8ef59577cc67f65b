"""The package root: the library API the README shows, and nothing more."""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import prefixpack

REPO = Path(__file__).resolve().parents[1]
README = REPO / "README.md"

# Modules that decide and kraft do not run; each costs its import (and its
# compile, when no bytecode is cached) on every launch that loads it.
# fractions would bring decimal and numbers: no command prints a Fraction.
NOT_LOADED_BY_CLI = [
    "dataclasses", "decimal", "fractions", "inspect", "numbers",
    "prefixpack.geometry", "prefixpack.oracle", "prefixpack.render", "prefixpack.selftest",
]
# Loaded by the commands that run them: decide loads packer and not codes.
NOT_LOADED_BY_CLI_IMPORT = ["prefixpack.codes", "prefixpack.packer"]
# Modules that only some commands load.  Only selftest loads the sweep and the
# oracle, only render loads render, and no command loads geometry (the oracle
# takes bare tuples) or fractions and the modules it imports.
LOADED_BY_SOME = ["decimal", "fractions", "numbers", "prefixpack.geometry", "prefixpack.oracle",
                  "prefixpack.render", "prefixpack.selftest"]

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


def run_fresh(tmp_path, code: str, *argv: str, lengths=((1, 0), (0, 1), (2, 2))) -> subprocess.CompletedProcess:
    """python -c code argv... in a fresh interpreter that imports prefixpack from
    this checkout, run in tmp_path beside the instance file inst.json."""
    (tmp_path / "inst.json").write_text(json.dumps({"q": [2, 2], "lengths": lengths}))
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=60)


def test_cli_import_and_decide_load_only_what_decide_runs(tmp_path):
    code = (
        "import contextlib, io, json, sys\n"
        "import prefixpack.cli\n"
        "after_import = sorted(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    exit_code = prefixpack.cli.main(['decide', '--input', 'inst.json'])\n"
        "print(json.dumps([after_import, sorted(sys.modules), exit_code, out.getvalue()]))\n"
    )
    done = run_fresh(tmp_path, code)
    assert done.stderr == ""
    after_import, after_decide, exit_code, out = json.loads(done.stdout)
    assert (exit_code, out) == (1, "NOT-EXISTS\n")
    for loaded in (after_import, after_decide):
        assert [name for name in NOT_LOADED_BY_CLI if name in loaded] == []
    assert [name for name in NOT_LOADED_BY_CLI_IMPORT if name in after_import] == []
    assert "prefixpack.packer" in after_decide and "prefixpack.codes" not in after_decide


def test_canonical_instance_and_codebook_leave_geometry_unloaded(tmp_path):
    code = (
        "import sys\n"
        "from prefixpack.codes import lengths_to_instance, solution_to_codebook\n"
        "from prefixpack.model import Arities, ProblemSpec\n"
        "spec = ProblemSpec(Arities(2, 3), ((1, 1), (2, 0)))\n"
        "print(lengths_to_instance(spec))\n"
        "print(solution_to_codebook(spec, ((0, 0), (2, 0))))\n"
        "print('prefixpack.geometry' in sys.modules)\n"
    )
    done = run_fresh(tmp_path, code)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [
        "CanonicalInstance(blocks=((2, 1), (1, 3)), container=(0, 0, 4, 3))",
        "(Codeword(c1='0', c2='0'), Codeword(c1='10', c2=''))",
        "False",
    ]


CONSTRUCTED = {"codebook": [{"c1": "1", "c2": "1"}, {"c1": "0", "c2": ""}], "decision": True, "kraft": "3/4"}


@pytest.mark.parametrize(
    "argv, lengths, out, loaded",
    [
        (["kraft", "--input", "inst.json"], [[1, 0], [0, 1], [2, 2]], "17/16 VIOLATED\n", []),
        (["construct", "--input", "inst.json"], [[1, 1], [1, 0]],
         json.dumps(CONSTRUCTED, sort_keys=True, indent=2) + "\n", []),
        (["render", "--input", "inst.json", "--svg", "out.svg"], [[1, 1], [1, 0]], "", ["prefixpack.render"]),
        (["selftest", "--max-m", "2", "--max-len", "1", "--arities", "2,2"], [],
         "selftest: 15 instances, all procedures agree\n", ["prefixpack.oracle", "prefixpack.selftest"]),
    ],
    ids=["kraft", "construct", "render", "selftest"],
)
def test_lazily_loaded_commands_run_from_a_fresh_process(tmp_path, argv, lengths, out, loaded):
    # stderr lists the modules of LOADED_BY_SOME that the command loaded
    code = ("import sys\nfrom prefixpack.cli import main\nexit_code = main(sys.argv[1:])\n"
            f"print(*[name for name in {LOADED_BY_SOME!r} if name in sys.modules], file=sys.stderr)\n"
            "sys.exit(exit_code)\n")
    done = run_fresh(tmp_path, code, *argv, lengths=lengths)
    assert (done.returncode, done.stdout, done.stderr) == (0, out, " ".join(loaded) + "\n")


def test_module_run_loads_cli_once(tmp_path):
    # python -m runs cli.py as __main__; the selftest sweep imports nothing from
    # cli, so the file is not loaded a second time as prefixpack.cli
    code = ("import runpy, sys\n"
            "sys.argv[1:] = ['selftest', '--max-m', '1', '--max-len', '1', '--arities', '2,2']\n"
            "try:\n"
            "    runpy.run_module('prefixpack.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as done:\n"
            "    print(done.code, 'prefixpack.cli' in sys.modules, 'prefixpack.selftest' in sys.modules)\n")
    done = run_fresh(tmp_path, code)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "selftest: 5 instances, all procedures agree\n0 False True\n"
