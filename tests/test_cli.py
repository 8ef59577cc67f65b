import gc
import importlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from prefixpack import cli, packer
from prefixpack.codes import Codeword, kraft_sum, verify_codebook
from prefixpack.model import Arities, ProblemSpec

REPO = Path(__file__).resolve().parents[1]


def write_json(tmp_path, payload, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


COUNTEREXAMPLE = {"q": [2, 2], "lengths": [[1, 0], [0, 1]]}
# Past the JSON decoder's recursion limit; json.dumps cannot write it either.
NESTED_JSON = '{"q": [2, 2], "lengths": ' + "[" * 5000 + "]" * 5000 + "}"


def caterpillar(rng, m, window=16):
    """A complete binary code of m codewords grown by splitting one of the `window`
    newest leaves, so its lengths grow deep on both channels."""
    leaves = [(0, 0)]
    while len(leaves) < m:
        k = len(leaves) - 1 - rng.randrange(min(window, len(leaves)))
        l1, l2 = leaves[k]
        leaves[k] = (l1 + 1, l2) if rng.randrange(2) else (l1, l2 + 1)
        leaves.append(leaves[k])
    return leaves


class TestDecide:
    def test_counterexample(self, tmp_path, capsys):
        path = write_json(tmp_path, COUNTEREXAMPLE)
        assert cli.main(["decide", "--input", path]) == 1
        assert capsys.readouterr().out.strip() == "NOT-EXISTS"

    def test_empty_lengths(self, tmp_path, capsys):
        path = write_json(tmp_path, {"q": [2, 2], "lengths": []})
        assert cli.main(["decide", "--input", path]) == 0
        assert capsys.readouterr().out.strip() == "EXISTS"

    def test_bad_arity(self, tmp_path, capsys):
        path = write_json(tmp_path, {"q": [1, 2], "lengths": []})
        assert cli.main(["decide", "--input", path]) == 2
        assert "error" in capsys.readouterr().err

    def test_negative_length(self, tmp_path):
        path = write_json(tmp_path, {"q": [2, 2], "lengths": [[-1, 0]]})
        assert cli.main(["decide", "--input", path]) == 2

    def test_three_channels_rejected_for_packing(self, tmp_path):
        path = write_json(tmp_path, {"q": [2, 2, 2], "lengths": [[1, 1, 1]]})
        assert cli.main(["decide", "--input", path]) == 2

    def test_single_channel_file(self, tmp_path, capsys):
        path = write_json(tmp_path, {"q": [2], "lengths": [[1], [1]]})
        assert cli.main(["decide", "--input", path]) == 0
        assert capsys.readouterr().out.strip() == "EXISTS"

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from([2, 3]), st.lists(st.integers(0, 5), max_size=12))
    def test_single_channel_files_pad_per_distinct_length(self, tmp_path, q, lengths):
        expected = packer.decide(ProblemSpec(Arities(q, 2), [(length, 0) for length in lengths]))
        json_path = write_json(tmp_path, {"q": [q], "lengths": [[length] for length in lengths]})
        text_path = tmp_path / "inst.txt"
        text_path.write_text(f"{q}\n" + "".join(f"{length}\n" for length in lengths), encoding="utf-8")
        for argv in (["--input", json_path], ["--input", str(text_path), "--format", "text"]):
            assert cli.main(["decide", *argv]) == (cli.EXIT_EXISTS if expected else cli.EXIT_NOT_EXISTS)

    def test_missing_file(self, tmp_path):
        assert cli.main(["decide", "--input", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert cli.main(["decide", "--input", str(path)]) == 2

    def test_text_format(self, tmp_path, capsys):
        path = tmp_path / "inst.txt"
        path.write_text("# arities\n2 2\n1 0\n0 1\n", encoding="utf-8")
        assert cli.main(["decide", "--input", str(path), "--format", "text"]) == 1
        assert capsys.readouterr().out.strip() == "NOT-EXISTS"


class TestConstruct:
    def test_codebook_written(self, tmp_path):
        inst = write_json(tmp_path, {"q": [2, 2], "lengths": [[1, 1], [1, 1], [1, 0]]})
        out = tmp_path / "result.json"
        assert cli.main(["construct", "--input", inst, "--output", str(out)]) == 0
        result = json.loads(out.read_text(encoding="utf-8"))
        assert result["decision"] is True
        book = tuple(Codeword(e["c1"], e["c2"]) for e in result["codebook"])
        assert verify_codebook(book)
        lengths = [(len(w.c1), len(w.c2)) for w in book]
        assert lengths == [(1, 1), (1, 1), (1, 0)]

    def test_root_codeword(self, tmp_path):
        inst = write_json(tmp_path, {"q": [2, 2], "lengths": [[0, 0]]})
        out = tmp_path / "result.json"
        assert cli.main(["construct", "--input", inst, "--output", str(out)]) == 0
        result = json.loads(out.read_text(encoding="utf-8"))
        assert result["codebook"] == [{"c1": "", "c2": ""}]

    def test_counterexample_no_codebook(self, tmp_path):
        inst = write_json(tmp_path, COUNTEREXAMPLE)
        out = tmp_path / "result.json"
        assert cli.main(["construct", "--input", inst, "--output", str(out)]) == 1
        raw = json.loads(out.read_text(encoding="utf-8"))
        assert raw["decision"] is False
        assert "codebook" not in raw
        assert raw["kraft"] == "1/1"

    def test_byte_identical_across_runs(self, tmp_path):
        inst = write_json(
            tmp_path, {"q": [2, 3], "lengths": [[1, 1], [1, 1], [1, 1], [1, 0]]}
        )
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cli.main(["construct", "--input", inst, "--output", str(out1)]) == 0
        assert cli.main(["construct", "--input", inst, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_stdout_when_no_output(self, tmp_path, capsys):
        inst = write_json(tmp_path, {"q": [2, 2], "lengths": [[1, 0], [1, 0]]})
        assert cli.main(["construct", "--input", inst]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["decision"] is True

    def test_entropy_embedded_when_probs_present(self, tmp_path):
        inst = write_json(
            tmp_path,
            {
                "q": [2, 2],
                "lengths": [[1, 0], [2, 0], [2, 0]],
                "probs": [0.5, 0.25, 0.25],
                "D": 2,
            },
        )
        out = tmp_path / "result.json"
        assert cli.main(["construct", "--input", inst, "--output", str(out)]) == 0
        result = json.loads(out.read_text(encoding="utf-8"))
        assert set(result["entropy"]) == {"avg_length", "entropy", "slack"}
        assert result["entropy"]["slack"] == pytest.approx(0.0, abs=1e-12)

    def test_codebooks_at_scale(self, tmp_path):
        rng = random.Random(14)
        slack = [[rng.randint(4, 7), rng.randint(4, 7)] for _ in range(118)] + [[7, 3], [2, 7]]
        # [[9, 9]] fills the 2^18-cell guard; the 120 codewords use Kraft ~0.1 of 2^14 cells
        for lengths in ([[9, 9]], slack):
            inst = write_json(tmp_path, {"q": [2, 2], "lengths": lengths})
            out = tmp_path / "result.json"
            assert cli.main(["construct", "--input", inst, "--output", str(out)]) == 0
            result = json.loads(out.read_text(encoding="utf-8"))
            book = tuple(Codeword(e["c1"], e["c2"]) for e in result["codebook"])
            assert [[len(w.c1), len(w.c2)] for w in book] == lengths
            assert verify_codebook(book)

    @pytest.mark.parametrize("target", ["missing/out", "."])
    @pytest.mark.parametrize("cmd,flag", [("construct", "--output"), ("render", "--svg")])
    def test_unwritable_output_is_input_error(self, tmp_path, capsys, cmd, flag, target):
        inst = write_json(tmp_path, {"q": [2, 2], "lengths": [[1, 1]]})
        assert cli.main([cmd, "--input", inst, flag, str(tmp_path / target)]) == 2
        assert "cannot write" in capsys.readouterr().err


@st.composite
def kraft_cases(draw):
    """(qs, lengths) over 1 to 3 channels of arity 2 or 3, lengths up to 4:
    any list of length tuples (empty included; a low top length makes sums
    above 1 likely), or a complete code, whose Kraft sum is exactly 1, grown
    by splitting a leaf on one channel."""
    channels = draw(st.integers(1, 3))
    qs = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=channels, max_size=channels)))
    if not draw(st.booleans()):
        top = draw(st.integers(0, 4))
        return qs, draw(st.lists(st.tuples(*[st.integers(0, top)] * channels), max_size=8))
    lengths = [(0,) * channels]
    for _ in range(draw(st.integers(0, 4))):
        leaf = lengths.pop(draw(st.integers(0, len(lengths) - 1)))
        c = draw(st.integers(0, channels - 1))
        lengths += [(*leaf[:c], leaf[c] + 1, *leaf[c + 1:])] * qs[c]
    return qs, lengths


class TestKraft:
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kraft_cases())
    @example(((2, 3), []))
    @example(((2, 2, 3), []))
    @example(((2,), [(2,), (1,)]))  # below 1
    @example(((2, 3), [(1, 1), (0, 2)]))  # below 1
    @example(((3,), [(1,)] * 3))  # at 1
    @example(((2, 2), [(1, 0), (0, 1), (2, 2)]))  # above 1
    def test_kraft_string_is_kraft_sums_fraction(self, tmp_path, capsys, case):
        # kraft and construct print the sum in lowest terms, as kraft_sum's Fraction reads
        qs, lengths = case
        total = kraft_sum(qs, lengths)
        want = f"{total.numerator}/{total.denominator}"
        path = write_json(tmp_path, {"q": list(qs), "lengths": lengths})
        assert cli.main(["kraft", "--input", path]) == 0
        assert capsys.readouterr() == (f"{want} {'SATISFIED' if total <= 1 else 'VIOLATED'}\n", "")
        if len(qs) <= 2:  # the packing commands take at most two channels
            assert cli.main(["construct", "--input", path]) in (0, 1)
            assert json.loads(capsys.readouterr().out)["kraft"] == want

    def test_counterexample_satisfied(self, tmp_path, capsys):
        path = write_json(tmp_path, COUNTEREXAMPLE)
        assert cli.main(["kraft", "--input", path]) == 0
        assert capsys.readouterr().out.strip() == "1/1 SATISFIED"

    def test_single_channel_violation(self, tmp_path, capsys):
        path = write_json(tmp_path, {"q": [2], "lengths": [[1], [1], [1]]})
        assert cli.main(["kraft", "--input", path]) == 0
        assert capsys.readouterr().out.strip() == "3/2 VIOLATED"

    def test_general_channel_count(self, tmp_path, capsys):
        path = write_json(tmp_path, {"q": [2, 3, 2], "lengths": [[1, 1, 1]]})
        assert cli.main(["kraft", "--input", path]) == 0
        assert capsys.readouterr().out.strip() == "1/12 SATISFIED"

    def test_empty_and_negative_lengths(self, tmp_path, capsys):
        path = write_json(tmp_path, {"q": [2, 2], "lengths": []})
        assert cli.main(["kraft", "--input", path]) == 0
        assert capsys.readouterr().out == "0/1 SATISFIED\n"
        path = write_json(tmp_path, {"q": [2, 2], "lengths": [[3, 1], [-1, 0]]})
        assert cli.main(["kraft", "--input", path]) == 2
        assert capsys.readouterr().err == "error: codeword lengths must be >= 0, got -1\n"


class TestEntropy:
    def test_equality_case(self, tmp_path, capsys):
        path = write_json(
            tmp_path,
            {
                "q": [2, 2],
                "lengths": [[1, 0], [2, 0], [2, 0]],
                "probs": [0.5, 0.25, 0.25],
                "D": 2,
            },
        )
        assert cli.main(["entropy", "--input", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "avg_length 1.5"
        assert lines[1] == "entropy 1.5"
        assert lines[2] == "slack 0"

    def test_missing_probs(self, tmp_path):
        path = write_json(tmp_path, COUNTEREXAMPLE)
        assert cli.main(["entropy", "--input", path]) == 2

    def test_missing_base(self, tmp_path):
        path = write_json(
            tmp_path, {"q": [2, 2], "lengths": [[1, 0], [0, 1]], "probs": [0.5, 0.5]}
        )
        assert cli.main(["entropy", "--input", path]) == 2

    @pytest.mark.parametrize("base", [float("nan"), float("inf")])
    @pytest.mark.parametrize("cmd", ["entropy", "construct"])
    def test_non_finite_base_rejected(self, tmp_path, capsys, cmd, base):
        # json.dumps writes NaN and Infinity, which json.loads accepts
        path = write_json(tmp_path, {"q": [2, 2], "lengths": [[1, 1]], "probs": [1], "D": base})
        assert cli.main([cmd, "--input", path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "finite" in err

    def test_twelve_significant_digits(self, tmp_path, capsys):
        path = write_json(
            tmp_path,
            {"q": [3, 2], "lengths": [[1, 1], [2, 0]], "probs": [0.7, 0.3], "D": 2},
        )
        assert cli.main(["entropy", "--input", path]) == 0
        out = capsys.readouterr().out
        value = float(out.splitlines()[0].split()[1])
        import math

        expected = 0.7 * (math.log2(3) + 1) + 0.3 * 2 * math.log2(3)
        assert value == pytest.approx(expected, rel=1e-11)


class TestRender:
    def test_svg_output(self, tmp_path):
        inst = write_json(tmp_path, {"q": [2, 2], "lengths": [[1, 1], [1, 1], [1, 0]]})
        svg_path = tmp_path / "diagram.svg"
        assert cli.main(["render", "--input", inst, "--svg", str(svg_path)]) == 0
        root = ET.fromstring(svg_path.read_text(encoding="utf-8"))  # valid XML
        ns = "{http://www.w3.org/2000/svg}"
        rects = [e for e in root.iter(f"{ns}rect") if e.get("class") == "block"]
        labels = [e for e in root.iter(f"{ns}text")]
        grid = [e for e in root.iter(f"{ns}line") if e.get("class") == "grid"]
        assert len(rects) == 3
        assert len(labels) == 3
        assert grid
        boxes = [
            (
                float(r.get("x")),
                float(r.get("y")),
                float(r.get("width")),
                float(r.get("height")),
            )
            for r in rects
        ]
        for (ax, ay, aw, ah), (bx, by, bw, bh) in itertools.combinations(boxes, 2):
            x_apart = ax + aw <= bx + 1e-6 or bx + bw <= ax + 1e-6
            y_apart = ay + ah <= by + 1e-6 or by + bh <= ay + 1e-6
            assert x_apart or y_apart, "rendered blocks overlap"

    def test_single_block_fills_canvas(self, tmp_path):
        inst = write_json(tmp_path, {"q": [2, 2], "lengths": [[0, 0]]})
        svg_path = tmp_path / "one.svg"
        assert cli.main(["render", "--input", inst, "--svg", str(svg_path)]) == 0
        root = ET.fromstring(svg_path.read_text(encoding="utf-8"))
        ns = "{http://www.w3.org/2000/svg}"
        rects = [e for e in root.iter(f"{ns}rect") if e.get("class") == "block"]
        assert len(rects) == 1
        assert float(rects[0].get("width")) == pytest.approx(640.0)
        assert float(rects[0].get("height")) == pytest.approx(480.0)

    def test_counterexample_writes_nothing(self, tmp_path):
        inst = write_json(tmp_path, COUNTEREXAMPLE)
        svg_path = tmp_path / "none.svg"
        assert cli.main(["render", "--input", inst, "--svg", str(svg_path)]) == 1
        assert not svg_path.exists()

    def test_log_scale_for_deep_trees(self, tmp_path):
        lengths = [[k, 0] for k in range(1, 13)] + [[12, 0]]
        inst = write_json(tmp_path, {"q": [2, 2], "lengths": lengths})
        svg_path = tmp_path / "deep.svg"
        assert cli.main(["render", "--input", inst, "--svg", str(svg_path)]) == 0
        ET.fromstring(svg_path.read_text(encoding="utf-8"))


def cpus(monkeypatch, n):
    """Let the selftest sweep see n CPUs, so that it shares its batches among up to n workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSelftest:
    def test_tiny_bounds_pass(self, capsys):
        code = cli.main(
            ["selftest", "--max-m", "2", "--max-len", "1", "--arities", "2,2"]
        )
        assert code == 0
        assert "all procedures agree" in capsys.readouterr().out

    def test_zero_m_trivially_passes(self, capsys):
        # the one empty multiset needs none of the (max_len + 1)^2 pairs,
        # 1,002,001 here, which would take about 100 MB
        argv = ["selftest", "--max-m", "0", "--max-len", "1000", "--arities", "2,2"]
        assert cli.main(argv) == 0  # imports what the sweep needs before tracing
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr() == ("selftest: 1 instances, all procedures agree\n", "")
        assert peak < 1 << 20

    def test_bad_arity_flag(self):
        assert cli.main(["selftest", "--arities", "2x2"]) == 2

    @pytest.mark.parametrize("flag", ["--max-m", "--max-len"])
    def test_negative_bound_is_input_error(self, capsys, flag):
        assert cli.main(["selftest", flag, "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {flag} must be >= 0, got -1\n"

    @pytest.mark.parametrize("max_len", ["12", "1000000"])
    def test_grid_guard_before_the_sweep(self, capsys, max_len):
        # construct would build a q1**max_len x q2**max_len grid of origins
        tracemalloc.start()
        try:
            code = cli.main(["selftest", "--max-m", "1", "--max-len", max_len, "--arities", "2,2"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert peak < 1 << 20
        limit = cli.CONSTRUCT_CELL_LIMIT if max_len == "12" else cli.CODE_SPACE_BITS_LIMIT
        assert str(limit) in err

    def test_sweeps_leave_no_garbage_that_grows(self, capsys):
        # main pauses the cyclic collector for the whole sweep, so no call
        # may leave a cycle: the default sweep and a 15-instance one leave
        # the same garbage, the command's own (argparse's parser)
        small = ["--max-m", "2", "--max-len", "1", "--arities", "2,2"]
        was = gc.isenabled()
        gc.disable()
        try:
            left = []
            for argv in (small, [], small):  # the first run imports and fills caches
                gc.collect()
                assert cli.main(["selftest", *argv]) == 0
                left.append(gc.collect())
        finally:
            gc.enable() if was else gc.disable()
        assert capsys.readouterr().out.count("all procedures agree") == 3
        assert left[1] == left[2]

    def test_injected_fault_detected(self, capsys, monkeypatch):
        monkeypatch.setattr(packer, "decide", lambda spec, **kw: True)
        code = cli.main(
            ["selftest", "--max-m", "2", "--max-len", "1", "--arities", "2,2"]
        )
        assert code == 3
        assert capsys.readouterr().out == (
            "selftest: DISAGREEMENT on q=(2,2) lengths=[(0, 0), (0, 0)]: fast=True construct=False brute=False\n"
        )

    def test_construct_fault_detected(self, capsys, monkeypatch):
        # decide and construct share the group loop, so only the oracle's verdict tells a construct fault
        monkeypatch.setattr(packer, "construct", lambda spec, **kw: None)
        code = cli.main(["selftest", "--max-m", "2", "--max-len", "1", "--arities", "2,2"])
        assert code == 3
        assert capsys.readouterr().out == (
            "selftest: DISAGREEMENT on q=(2,2) lengths=[]: fast=True construct=False brute=True\n"
        )

    def test_overlapping_codebook_detected(self, capsys, monkeypatch):
        def stacked(spec, **kw):  # the right verdict, with every block at the origin
            if packer.decide(spec):
                return ((0, 0),) * spec.m
            return None

        monkeypatch.setattr(packer, "construct", stacked)
        code = cli.main(["selftest", "--max-m", "2", "--max-len", "1", "--arities", "2,2"])
        assert code == 3
        assert capsys.readouterr().out == "selftest: INVALID CODEBOOK on q=(2,2) lengths=[(0, 1), (0, 1)]\n"

    def test_oracle_sides_follow_the_grid_guard(self, capsys):
        # 2^4 x 9^4 cells pass the guard; a 6,561-cell side is past a fixed 4,096
        assert cli.main(["selftest", "--max-m", "1", "--max-len", "4", "--arities", "2,9"]) == 0
        assert capsys.readouterr() == ("selftest: 26 instances, all procedures agree\n", "")

    def test_default_sweep_checks_every_batch(self, capsys):
        # 8,008 specs: 31 full batches and a partial one of 72
        assert cli.main(["selftest"]) == 0
        assert capsys.readouterr() == ("selftest: 8008 instances, all procedures agree\n", "")

    def test_default_sweep_makes_every_call(self, capsys, monkeypatch):
        # each procedure on each of the 8,008 specs (two banks, and one canonical
        # instance, which the oracle and the codebook share), and a codebook for
        # each of the 2,361 that pack; one worker, since a forked one counts its own calls
        from prefixpack import codes, oracle

        cpus(monkeypatch, 1)
        calls = Counter()

        def counted(owner, name):
            real = getattr(owner, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, call)

        for name in ("decide", "construct", "ContainerBank"):
            counted(packer, name)
        for name in ("lengths_to_instance", "solution_to_codebook", "verify_codebook"):
            counted(codes, name)
        counted(oracle, "brute_decide")
        assert cli.main(["selftest"]) == 0
        assert capsys.readouterr().out == "selftest: 8008 instances, all procedures agree\n"
        assert calls == {
            "decide": 8008, "construct": 8008, "brute_decide": 8008, "ContainerBank": 16016,
            "lengths_to_instance": 8008, "solution_to_codebook": 2361, "verify_codebook": 2361,
        }

    def test_codebook_reads_its_own_instance(self, capsys, monkeypatch):
        # the sweep hands each codebook the canonical instance it built for the oracle;
        # one worker, since a forked one records its own calls
        from prefixpack import codes

        cpus(monkeypatch, 1)
        real, seen = codes.solution_to_codebook, []

        def recorded(spec, locations, instance=None):
            seen.append(instance == codes.lengths_to_instance(spec))
            return real(spec, locations, instance)

        monkeypatch.setattr(codes, "solution_to_codebook", recorded)
        argv = ["selftest", "--max-m", "3", "--max-len", "2", "--arities", "2,2", "--arities", "3,2"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "selftest: 440 instances, all procedures agree\n"
        assert len(seen) > 100 and all(seen)

    # the default sweep's last batch holds specs 7,937 to 8,008
    @pytest.mark.parametrize("flipped", [(300, 400), (8000,)], ids=["one-batch-past-the-first", "last-partial-batch"])
    def test_fault_reported_at_its_spec(self, capsys, monkeypatch, flipped):
        from prefixpack import oracle, selftest

        cpus(monkeypatch, 1)  # the fault is keyed by call number, which each worker counts on its own
        real = packer.decide
        calls = itertools.count(1)
        monkeypatch.setattr(packer, "decide", lambda spec, **kw: real(spec, **kw) ^ (next(calls) in flipped))
        assert cli.main(["selftest"]) == 3
        default = cli.build_parser().parse_args(["selftest"])
        specs = oracle.enumerate_instances(cli.DEFAULT_SELFTEST_ARITIES, default.max_m, default.max_len)
        spec = list(specs)[flipped[0] - 1]
        verdict = real(spec)
        assert capsys.readouterr().out == (
            f"selftest: DISAGREEMENT on {selftest._where(spec)}: fast={not verdict} construct={verdict} brute={verdict}\n"
        )

    def test_oracle_budget_reported(self, capsys, monkeypatch):
        from prefixpack import oracle

        limits = oracle.OracleLimits  # the sweep's limits with a one-node budget: (0, 1) has two spots
        monkeypatch.setattr(oracle, "OracleLimits", lambda **kw: limits(**{**kw, "max_nodes": 1}))
        code = cli.main(["selftest", "--max-m", "2", "--max-len", "1", "--arities", "2,2"])
        assert code == 3
        assert capsys.readouterr().out == "selftest: oracle budget exceeded on q=(2,2) lengths=[(0, 1)]\n"


BENCHMARK_BOX = ["--max-m", "4", "--max-len", "2"]  # with the default four arity pairs: 2,860 specs


class TestSharedSweep:
    """With two CPUs the sweep shares its batches between itself and one forked
    worker, which checks the odd batches; what it prints, returns or raises is
    the one-worker sweep's."""

    @staticmethod
    def wheres():
        """The name a failure gives each spec of the default sweep, in enumeration order."""
        from prefixpack import oracle, selftest

        default = cli.build_parser().parse_args(["selftest"])
        specs = oracle.enumerate_instances(cli.DEFAULT_SELFTEST_ARITIES, default.max_m, default.max_len)
        return list(map(selftest._where, specs))

    @staticmethod
    def sweep(capsys, monkeypatch, n, argv=()):
        """(exit code, stdout, stderr) of a sweep with n CPUs, and the forks it made; no worker outlives it."""
        forks, fork = [], os.fork

        def counted():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        cpus(monkeypatch, n)
        monkeypatch.setattr(os, "fork", counted)
        try:
            code = cli.main(["selftest", *argv])
        finally:
            assert_no_child_left()
        return (code, *capsys.readouterr()), len(forks)

    @pytest.mark.parametrize("argv", [[], BENCHMARK_BOX], ids=["default-box", "benchmark-box"])
    def test_same_output_as_one_worker(self, capsys, monkeypatch, argv):
        shared, forks = self.sweep(capsys, monkeypatch, 2, argv)
        alone, none = self.sweep(capsys, monkeypatch, 1, argv)
        assert (forks, none) == (1, 0)
        assert shared == alone
        assert shared[0] == 0 and shared[2] == ""

    # batch b holds specs 256 b to 256 b + 255; the worker checks the odd batches
    @pytest.mark.parametrize(
        "flipped",
        [(300,), (600,), (300, 600), (100, 300), (600, 8000)],
        ids=["worker", "parent", "worker-first", "parent-first", "parent-then-worker-last-batch"],
    )
    def test_fault_reported_at_its_earliest_spec(self, capsys, monkeypatch, flipped):
        from prefixpack import selftest

        wheres = self.wheres()
        faulty = {wheres[i] for i in flipped}
        real = packer.decide
        monkeypatch.setattr(packer, "decide", lambda spec, **kw: real(spec, **kw) ^ (selftest._where(spec) in faulty))
        shared, forks = self.sweep(capsys, monkeypatch, 2)
        alone, _ = self.sweep(capsys, monkeypatch, 1)
        assert forks == 1 and shared == alone
        code, out, err = shared
        assert code == 3 and err == ""
        assert out.startswith(f"selftest: DISAGREEMENT on {wheres[min(flipped)]}: ")

    def test_exception_in_a_workers_batch_is_raised(self, capsys, monkeypatch):
        from prefixpack import selftest

        doomed = self.wheres()[300]

        def decide(spec, real=packer.decide, **kw):
            if selftest._where(spec) == doomed:
                raise ZeroDivisionError(f"no verdict on {doomed}")
            return real(spec, **kw)

        monkeypatch.setattr(packer, "decide", decide)
        raised = []
        for n in (2, 1):
            with pytest.raises(ZeroDivisionError) as info:
                self.sweep(capsys, monkeypatch, n)
            raised.append((type(info.value), str(info.value)))
        assert raised == [(ZeroDivisionError, f"no verdict on {doomed}")] * 2
        assert capsys.readouterr() == ("", "")

    def test_earlier_failure_in_a_worker_beats_a_later_exception(self, capsys, monkeypatch):
        # the parent raises on spec 600 (batch 2); the worker's disagreement on spec 300 comes first
        from prefixpack import selftest

        wheres = self.wheres()
        real = packer.decide

        def decide(spec, **kw):
            where = selftest._where(spec)
            if where == wheres[600]:
                raise ZeroDivisionError(where)
            return real(spec, **kw) ^ (where == wheres[300])

        monkeypatch.setattr(packer, "decide", decide)
        (code, out, err), forks = self.sweep(capsys, monkeypatch, 2)
        assert (code, forks, err) == (3, 1, "")
        assert out.startswith(f"selftest: DISAGREEMENT on {wheres[300]}: ")

    def test_interrupt_leaves_no_worker(self, capsys, monkeypatch):
        # the parent is interrupted at its first spec, while the worker is busy with its batches
        real, parent = packer.decide, os.getpid()

        def decide(spec, **kw):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return real(spec, **kw)

        monkeypatch.setattr(packer, "decide", decide)
        with pytest.raises(KeyboardInterrupt):
            self.sweep(capsys, monkeypatch, 2)
        assert capsys.readouterr() == ("", "")

    def test_one_batch_never_forks(self, capsys, monkeypatch):
        def refused():
            raise AssertionError("the sweep forked")

        cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", refused)
        assert cli.main(["selftest", "--max-m", "3", "--max-len", "1", "--arities", "2,2"]) == 0
        assert capsys.readouterr() == ("selftest: 35 instances, all procedures agree\n", "")

    def test_no_fork_beside_another_thread(self, capsys, monkeypatch):
        # a forked copy of a process with threads can block on a lock one of them held
        import threading

        def refused():
            raise AssertionError("the sweep forked")

        cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", refused)
        done = threading.Event()
        other = threading.Thread(target=done.wait, args=(60,))
        other.start()
        try:
            assert cli.main(["selftest", *BENCHMARK_BOX]) == 0
        finally:
            done.set()
            other.join(60)
        assert not other.is_alive()
        assert capsys.readouterr() == ("selftest: 2860 instances, all procedures agree\n", "")


class TestTracedRun:
    """benchmarks/tracer.py wraps packer, geometry and oracle names by lookup;
    a renamed one only shows when the traced CLI runs."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["decide"],
            ["construct"],
            ["kraft"],
            ["selftest", "--max-m", "1", "--max-len", "1", "--arities", "2,2"],
        ],
    )
    def test_same_answer_as_cli(self, tmp_path, argv):
        if argv[0] != "selftest":
            argv = argv + ["--input", write_json(tmp_path, {"q": [2, 2], "lengths": [[1, 1], [1, 0]]})]
        self.assert_same_answer(tmp_path, argv)

    @pytest.mark.parametrize("extra", [0, 1], ids=["caterpillar", "kraft-excess"])
    def test_same_answer_after_deep_descents(self, tmp_path, extra):
        # The tracer reads the cap lines through bank.counts, the table view
        # only it still uses, after every descent that moves a cap;
        # a caterpillar makes hundreds of them, and one more copy of its
        # smallest block pushes Kraft above 1 so the last group fails.
        lengths = caterpillar(random.Random(7), 600)
        l1max, l2max = (max(col) for col in zip(*lengths))
        assert min(l1max, l2max) >= 40
        smallest = min(lengths, key=lambda p: (max(l1max - p[0], l2max - p[1]), l1max - p[0], l2max - p[1]))
        path = write_json(tmp_path, {"q": [2, 2], "lengths": lengths + [smallest] * extra})
        code = self.assert_same_answer(tmp_path, ["decide", "--input", path])
        assert code == (cli.EXIT_NOT_EXISTS if extra else cli.EXIT_EXISTS)

    @staticmethod
    def assert_same_answer(tmp_path, argv):
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        spans = tmp_path / "spans.json"
        plain = subprocess.run([sys.executable, "-m", "prefixpack.cli", *argv],
                               capture_output=True, text=True, env=env, cwd=REPO, timeout=60)
        traced = subprocess.run([sys.executable, "benchmarks/tracer.py", str(spans), *argv],
                                capture_output=True, text=True, env=env, cwd=REPO, timeout=60)
        assert traced.stderr == plain.stderr == ""
        assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
        assert json.loads(spans.read_text(encoding="utf-8"))["spans"]
        return plain.returncode


class TestSchemaValidation:
    @pytest.mark.parametrize(
        "payload",
        [
            {"lengths": []},
            {"q": [2, 2]},
            {"q": "22", "lengths": []},
            {"q": [2, 2], "lengths": [[1]]},
            {"q": [2, 2], "lengths": [[1, 2, 3]]},
            {"q": [2, 2], "lengths": [[1, 0]], "probs": [0.5, 0.5]},
            {"q": [], "lengths": []},
            {"q": [2, 2], "lengths": [[True, False], [False, True]]},
            {"q": [True, 2], "lengths": [[1, 0]]},
            {"q": [2, 2], "lengths": [[0, 0]], "probs": [True], "D": 2},
            {"q": [2, 2], "lengths": [[0, 0]], "probs": [1.0], "D": True},
            {"q": [2, 2], "lengths": [5]},
            {"q": [2, 2], "lengths": [[[1], [2]]]},
            {"q": [2, 2], "lengths": ["12"]},
            {"q": [2, 2], "lengths": [{}]},
            {"q": [2, 2], "lengths": [None]},
            # each of these could hide in a Counter key equal to an int pair
            {"q": [2, 2], "lengths": [[1, 0], [True, 0]]},
            {"q": [2, 2], "lengths": [[1, 2], [1.0, 2]]},
            {"q": [2, 2], "lengths": [[0, 1], "ab"]},
            {"q": [2, 2], "lengths": [[0, 1], {"a": 1, "b": 2}]},
            {"q": [2, 2], "lengths": [[1, 0], [1, None]]},
            pytest.param(NESTED_JSON, id="nested-5000"),
            # numbers too large for a float
            {"q": [2, 2], "lengths": [[1, 0]], "probs": [1.0], "D": 10**400},
            {"q": [2, 2], "lengths": [[1, 0]], "probs": [10**400], "D": 2},
            {"q": [2], "lengths": [[10**400]], "probs": [1.0], "D": 2},
            # past the int-from-text digit limit; json.dumps cannot write it either
            pytest.param('{"q": [2, 2], "lengths": [[' + "9" * 5001 + ", 0]]}", id="digits-5001"),
        ],
    )
    def test_rejected_payloads(self, tmp_path, capsys, payload):
        path = tmp_path / "inst.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload), encoding="utf-8")
        svg = ["--svg", str(tmp_path / "out.svg")]
        for argv in (["decide"], ["kraft"], ["construct"], ["entropy"], ["render", *svg]):
            assert cli.main(argv + ["--input", str(path)]) == 2
            out, err = capsys.readouterr()
            # one line of our own words, not a bare message from a conversion
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            assert "Exceeds the limit" not in err and "int too large" not in err
        assert not (tmp_path / "out.svg").exists()

    @pytest.mark.parametrize(
        "fmt, text, cmd, message",
        [
            pytest.param("json", '{"q": [2, 2], "lengths": [[' + "9" * 5001 + ", 0]]}", "decide",
                         "an integer in the JSON file is past Python's 4,300-digit limit for reading an integer from text",
                         id="json-digits"),
            pytest.param("text", "2 2\n1 0\n" + "9" * 5001 + " 0\n", "decide",
                         "a number on line 3 is past Python's 4,300-digit limit for reading an integer from text",
                         id="text-length-digits"),
            pytest.param("text", "9" * 5001 + " 2\n1 0\n", "kraft",
                         "a number on line 1 is past Python's 4,300-digit limit for reading an integer from text",
                         id="text-arity-digits"),
            pytest.param("text", "2 2\n1 x\n", "decide", "non-integer token on line 2", id="text-non-integer"),
            # blank and comment lines count toward the line number
            pytest.param("text", "2 2\n\n# codewords\n1 0\n1\n", "kraft", "length line 5 does not match 2 channel(s)",
                         id="text-short-line"),
            pytest.param("json", json.dumps({"q": [2, 2], "lengths": [[1, 0]], "probs": [1.0], "D": 10**400}),
                         "entropy", '"D" is too large for a float', id="json-D-float"),
            pytest.param("json", json.dumps({"q": [2, 2], "lengths": [[1, 0]], "probs": [10**400], "D": 2}),
                         "decide", 'a "probs" entry is too large for a float', id="json-probs-float"),
            pytest.param("json", json.dumps({"q": [2], "lengths": [[10**400]], "probs": [1.0], "D": 2}),
                         "entropy", "a codeword length is too large for a float", id="json-length-float"),
        ],
    )
    def test_number_limits_name_the_field(self, tmp_path, capsys, fmt, text, cmd, message):
        path = tmp_path / "inst"
        path.write_text(text, encoding="utf-8")
        assert cli.main([cmd, "--input", str(path), "--format", fmt]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_first_bad_entry_in_file_order(self, tmp_path, capsys):
        path = write_json(tmp_path, {"q": [2, 2], "lengths": [[0, 1], [1, 0, 0], [True, 0]]})
        for cmd in ("decide", "kraft", "construct", "entropy"):
            assert cli.main([cmd, "--input", path]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: length entry 2 does not match 2 channel(s)\n"

    def test_nested_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text(NESTED_JSON, encoding="utf-8")
        for cmd in ("decide", "kraft", "construct", "entropy"):
            assert cli.main([cmd, "--input", str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error:")

    def test_exit_codes_total(self, tmp_path):
        # every command ends in {0,1,2,3} even on garbage
        path = write_json(tmp_path, {"q": [2, 2], "lengths": [[40, 40]]})
        for cmd in ("decide", "kraft"):
            assert cli.main([cmd, "--input", path]) in (0, 1, 2, 3)

    def test_construct_refuses_huge_grid(self, tmp_path, capsys):
        path = write_json(tmp_path, {"q": [2, 2], "lengths": [[20, 20]]})
        assert cli.main(["construct", "--input", path]) == 2
        assert "construct" in capsys.readouterr().err

    @pytest.mark.parametrize("lengths", [[[15_000, 0]], [[1_000_000, 0]]])
    @pytest.mark.parametrize("cmd", ["decide", "kraft", "construct", "render"])
    def test_code_space_guard(self, tmp_path, capsys, cmd, lengths):
        # refused before any power of q is built: no allocation beyond parsing
        path = write_json(tmp_path, {"q": [2, 2], "lengths": lengths})
        argv = [cmd, "--input", path] + (["--svg", str(tmp_path / "out.svg")] if cmd == "render" else [])
        tracemalloc.start()
        try:
            assert cli.main(argv) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert str(cli.CODE_SPACE_BITS_LIMIT) in capsys.readouterr().err

    def test_decide_scales_to_the_code_space_limit(self, tmp_path, capsys):
        # the bank keeps two cap lines, not an (l1max+1) x (l2max+1) table
        for lengths, code in (([[5000, 5000]], 0), ([[7000, 7000]], 0), ([[7000, 7000], [1, 0], [0, 1]], 1)):
            path = write_json(tmp_path, {"q": [2, 2], "lengths": lengths})
            tracemalloc.start()
            try:
                assert cli.main(["decide", "--input", path]) == code
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 << 20
            assert capsys.readouterr().out == ("NOT-EXISTS\n" if code else "EXISTS\n")
        path = write_json(tmp_path, {"q": [2, 2], "lengths": [[7000, 7001]]})
        assert cli.main(["decide", "--input", path]) == 2
        assert str(cli.CODE_SPACE_BITS_LIMIT) in capsys.readouterr().err

    def test_decide_handles_deep_lengths_within_cap(self, tmp_path, capsys):
        path = write_json(tmp_path, {"q": [2, 2], "lengths": [[60, 60], [1, 0], [0, 1]]})
        assert cli.main(["decide", "--input", path]) == 1
        assert capsys.readouterr().out.strip() == "NOT-EXISTS"


def reference_rows(lengths, channels):
    """The per-entry validation loop, kept as the parser's reference."""
    tuples = []
    for n, entry in enumerate(lengths, 1):
        if not (isinstance(entry, list) and all(type(v) is int for v in entry)):
            raise cli.InputError(f"length entry {n} must be an array of integers")
        if len(entry) != channels:
            raise cli.InputError(f"length entry {n} does not match {channels} channel(s)")
        tuples.append(tuple(entry))
    return tuples


_lengths = st.integers(-1, 3)
# JSON values that are not integers, several equal to one as Counter keys
_not_ints = st.one_of(
    st.booleans(),
    _lengths.map(float),
    st.text(max_size=2),
    st.none(),
    st.dictionaries(st.text(max_size=1), _lengths, max_size=2),
    st.lists(_lengths, max_size=2),
)


@st.composite
def instance_payloads(draw):
    channels = draw(st.integers(1, 3))
    good = st.lists(_lengths, min_size=channels, max_size=channels)
    row = st.one_of(
        good,
        good,
        st.lists(st.one_of(_lengths, _not_ints), min_size=channels, max_size=channels),
        st.lists(_lengths, max_size=channels + 1),
        _not_ints,
    )
    return channels, draw(st.one_of(st.lists(good, max_size=8), st.lists(row, max_size=8)))


def reference_parse(text):
    """The whole-array rule, written apart from the parser: floats load as
    floats, and every value of every row is checked by type() before the
    rows are counted.  Documents here always carry a valid "q"."""
    raw = json.loads(text)
    qs, rows = raw["q"], raw["lengths"]
    if not isinstance(rows, list):
        raise cli.InputError('"lengths" must be an array')
    if not (set(map(type, rows)) <= {list} and set(map(type, itertools.chain.from_iterable(rows))) <= {int}):
        cli._reject_first_bad_entry(rows, len(qs))
    groups = Counter(map(tuple, rows))
    if any(len(key) != len(qs) for key in groups):
        cli._reject_first_bad_entry(rows, len(qs))
    probs, base = raw.get("probs"), raw.get("D")
    if probs is not None:
        if not (isinstance(probs, list) and set(map(type, probs)) <= {int, float}):
            raise cli.InputError('"probs" must be an array of numbers')
        if len(probs) != len(rows):
            raise cli.InputError('"probs" must have one entry per codeword length')
        probs = tuple(map(float, probs))
    if base is not None:
        if type(base) not in (int, float):
            raise cli.InputError('"D" must be a number')
        base = float(base)
    return tuple(qs), groups, probs, base


def _json_array(items):
    return "[" + ", ".join(items) + "]"


# JSON text of single values: integers, values equal to one as a key (bools
# and floats), and values no key may hold
_json_ints = st.sampled_from(["0", "1", "2", "-1"])
_json_equal_to_ints = st.sampled_from(["true", "false", "1.0", "1e0", "-0.0", "2.0"])
_json_scalars = st.one_of(
    _json_ints,
    _json_equal_to_ints,
    st.sampled_from(["null", "1E400", "NaN", "Infinity", "-Infinity", "0.5"]),
    st.sampled_from(['"true"', '"false"', '"1"', '"1.0"', '""']),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(_json_array),
        st.lists(inner, max_size=2).map(lambda xs: "{" + ", ".join(f'"k{i}": {x}' for i, x in enumerate(xs)) + "}"),
    ),
    max_leaves=4,
)


@st.composite
def json_documents(draw):
    """An instance file as text, built from JSON pieces rather than json.dumps,
    so that 1e0, -0.0, 1E400, NaN and Infinity appear as written."""
    channels = draw(st.integers(1, 2))
    good = st.lists(_json_ints, min_size=channels, max_size=channels).map(_json_array)
    near = st.one_of(_json_ints, _json_equal_to_ints)
    row = st.one_of(
        good,
        st.lists(near, min_size=channels, max_size=channels).map(_json_array),
        st.lists(st.one_of(near, _json_values), min_size=channels, max_size=channels).map(_json_array),
        st.lists(near, max_size=channels + 1).map(_json_array),
        _json_values,
    )
    rows = draw(st.one_of(st.lists(good, max_size=6), st.lists(row, max_size=6)))
    fields = [f'"q": {_json_array(["2"] * channels)}', f'"lengths": {_json_array(rows)}']
    number = st.one_of(_json_scalars, _json_values)
    if draw(st.booleans()):
        count = draw(st.sampled_from([len(rows), len(rows), len(rows) + 1]))
        probs = draw(st.one_of(st.lists(number, min_size=count, max_size=count).map(_json_array), number))
        fields.append(f'"probs": {probs}')
    if draw(st.booleans()):
        fields.append(f'"D": {draw(number)}')
    return "{" + ", ".join(draw(st.permutations(fields))) + "}"


# JSON whitespace, and whitespace to Python's \s that json.loads refuses
_JSON_SPACE = ["", " ", "\n  ", "\t", "\r\n"]
_NOT_JSON_SPACE = ["\x0c", "\xa0", "\x0b", "\u3000"]
# length texts: integers (-0 decodes to 0), then texts that are not JSON
# integers or not integers at all
_LENGTH_TEXTS = ["0", "1", "2", "7", "40", "-0", "-1"]
_NOT_LENGTH_TEXTS = ["01", "\u0663", "1.0", "-0.0", "1e0", "true", "null", "NaN", '"1"', "[1]", "{}"]


@st.composite
def counted_documents(draw):
    """Files of the shape the row counter takes, {"q": [...], "lengths": [...]},
    as text.  Half are valid and spaced in every way JSON allows.  In the other
    half any piece may slip: a space json.loads refuses, a value that is no
    length, a row of the wrong arity or no row at all, an empty array, a
    trailing comma, a field after the array or a byte-order mark."""
    valid = draw(st.booleans())

    def pick(good, bad):
        return draw(st.sampled_from(good if valid else good * 4 + bad))

    def space():
        return pick(_JSON_SPACE, _NOT_JSON_SPACE)

    def array(items):
        return "[" + space() + (space() + "," + space()).join(items) + space() + "]"

    channels = draw(st.integers(1, 3))
    q = array([pick(["2", "3"], ["02", "2\u0663", "2.0", "true"]) for _ in range(channels)])
    if not valid and not draw(st.integers(0, 9)):
        q = "[]"

    def row():
        width = channels if valid else draw(st.sampled_from([channels] * 4 + [channels - 1, channels + 1]))
        return array([pick(_LENGTH_TEXTS, _NOT_LENGTH_TEXTS) for _ in range(width)])

    rows = [row() for _ in range(draw(st.integers(0 if not valid else 1, 8)))]
    if not valid and rows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.sampled_from(["5", '"]]}"', "null", "[[0]]", "{}"]))
    lengths = array(rows)
    if pick([""], [","]):
        lengths = lengths[:-1] + ",]"
    after = pick([""], [', "lengths": [[1]]', ', "q": [3]', ', "probs": [1]', ', "D": 2'])
    return (pick([""], ["\ufeff"]) + space() + "{" + space() + '"q"' + space() + ":" + space() + q + space() + ","
            + space() + '"lengths"' + space() + ":" + space() + lengths + after + space() + "}" + space())


def reference_text(text):
    """The text format read line by line, written apart from the parser: a
    token int() refuses is a number past the digit limit when int() reads
    it with the limit lifted, and a non-integer token otherwise.  Every
    token error in the file comes before any width error."""
    rows = []  # (line number, tokens) for each line that holds tokens
    for number, line in enumerate(text.splitlines(), 1):
        tokens = line.split("#", 1)[0].split()
        if tokens:
            rows.append((number, tokens))
    if not rows:
        raise cli.InputError("text instance needs at least an arity header line")
    tuples = []
    for number, tokens in rows:
        try:
            tuples.append(tuple(map(int, tokens)))
        except ValueError:
            limit = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
            try:
                list(map(int, tokens))
            except ValueError:
                raise cli.InputError(f"non-integer token on line {number}") from None
            finally:
                sys.set_int_max_str_digits(limit)
            raise cli.InputError(f"a number on line {number} is past Python's {limit:,}-digit limit "
                                 "for reading an integer from text") from None
    qs = tuples[0]
    for (number, _), row in zip(rows, tuples):
        if len(row) != len(qs):
            raise cli.InputError(f"length line {number} does not match {len(qs)} channel(s)")
    return qs, tuple(tuples[1:]), Counter(tuples[1:])


# text tokens int() reads (signs, "_", ASCII and Arabic-Indic digits), then any
# short text of those characters and "x", and a number past the digit limit
_TEXT_INTS = ["0", "1", "2", "-0", "+1", "1_0", "\u0663", "0\u0663"]
_text_tokens = st.one_of(
    st.sampled_from(_TEXT_INTS),
    st.text("019\u0663_+-x", min_size=1, max_size=4),
    st.just("9" * 4301),
)


@st.composite
def text_files(draw):
    """Instance files in the text format, their lines drawn from a small pool
    so that lines repeat, the header's text among them.  Half are valid; in
    the other half a token may be no integer or a number past the digit
    limit, and a line may have another width.  Tokens are split by spaces,
    tabs or a form feed (which ends a line for splitlines too), lines end in
    \\n, \\r\\n, \\r or \\x0c, blank and comment lines fall anywhere, and
    some files hold no token at all."""
    valid = draw(st.booleans())
    width = draw(st.integers(1, 3))
    good = st.lists(st.sampled_from(_TEXT_INTS), min_size=width, max_size=width)
    tokens = good if valid else st.one_of(good, good, st.lists(_text_tokens, max_size=width + 1))
    space = st.sampled_from(["", " ", "\t", " \t"])

    def line():
        words = draw(tokens) if draw(st.integers(0, 4)) else []
        gap = draw(st.sampled_from([" ", "  ", "\t", " \x0c"]))
        return draw(space) + gap.join(words) + draw(space) + draw(st.sampled_from(["", "", "# c", " #1 x", "#2 2"]))

    pool = [line() for _ in range(draw(st.integers(1, 4)))]
    ends = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0c"])
    return "".join(draw(st.sampled_from(pool)) + draw(ends) for _ in range(draw(st.integers(1, 8))))


class TestParseDifferential:
    @settings(max_examples=400, deadline=None)
    @given(instance_payloads())
    def test_matches_per_entry_reference(self, payload):
        channels, lengths = payload
        text = json.dumps({"q": [2] * channels, "lengths": lengths})
        rows = json.loads(text)["lengths"]  # floats and nesting as the parser sees them
        try:
            expected = reference_rows(rows, channels)
        except cli.InputError as exc:
            with pytest.raises(cli.InputError) as got:
                cli.parse_instance_json(text)
            assert str(got.value) == str(exc)
            return
        inst = cli.parse_instance_json(text)
        assert inst.lengths == rows
        assert inst.groups == Counter(expected)
        assert all(type(v) is int for key in inst.groups for v in key)

    @settings(max_examples=600, deadline=None)
    @given(json_documents())
    # bad rows the row rule must reject before any row is counted, also
    # where a float or bool twin comes before or after its int twin
    @example('{"q": [2, 2], "lengths": [[1, 0], [true, 0]]}')
    @example('{"q": [2, 2], "lengths": [[1.0, 2], [1, 2]]}')
    @example('{"q": [2, 2], "lengths": [[1, 0], [1E400, 0]]}')
    @example('{"q": [2, 2], "lengths": [[NaN, 0]]}')
    @example('{"q": [2, 2], "lengths": [[1, 0], [[1], 0]]}')
    @example('{"q": [2, 2], "lengths": [[1, 2], [1.0, 2]], "D": 2}')
    @example('{"q": [2], "lengths": [[0], [-0.0]]}')
    @example('{"q": [2], "lengths": [[0], [1]], "probs": [1e0, 0], "D": 1E400, "note": "true"}')
    @example('{"q": [2], "lengths": [[1]], "probs": [NaN], "D": true}')
    @example('{"q": [2], "lengths": [[0], [1]], "probs": [0.5]}')  # fewer probs than rows
    @example('{"q": [2], "lengths": [[1], [[1]]]}')
    def test_matches_whole_array_reference(self, text):
        try:
            expected = reference_parse(text)
        except cli.InputError as exc:
            with pytest.raises(cli.InputError) as got:
                cli.parse_instance_json(text)
            assert str(got.value) == str(exc)
            return
        inst = cli.parse_instance_json(text)
        # repr tells nan from nan and -0.0 from 0.0
        assert repr((inst.qs, inst.groups, inst.probs, inst.base)) == repr(expected)
        assert all(type(v) is int for key in inst.groups for v in key)
        assert inst.probs is None or all(type(p) is float for p in inst.probs)
        assert inst.base is None or type(inst.base) is float

    def test_row_counter_matches_full_parser(self):
        taken = []

        @settings(max_examples=600, deadline=None)
        @given(counted_documents())
        @example('{"q": [2], "lengths": [[1],\x0c[0]]}')
        @example('{"q": [2], "lengths": [[1],\xa0[0]]}')
        @example('{"q": [2], "lengths": [[1],\x0b[0]]}')
        @example('{"q": [2], "lengths": [[1], [0]\x0c]}')
        @example('{"q": [2], "lengths": [[1]]\xa0}')
        @example('{"q":\x0b[2], "lengths": [[1]]}')
        @example('{"q": [2\u0663], "lengths": [[1]]}')
        @example('{"q": [2], "lengths": [[\u0663]]}')
        @example('{"q": [01], "lengths": [[1]]}')
        @example('{"q": [2], "lengths": [[01]]}')
        @example('{"q": [2], "lengths": [[0], [-0], [ 0 ]]}')
        @example('{"q": [2], "lengths": [[1], "]]}"]}')
        @example('{"q": [2], "lengths": [[1], [0],]}')
        @example('{"q": [2], "lengths": [[1]], "lengths": [[0], [1]]}')
        @example('{"q": [2], "lengths": [[1]], "q": [3]}')
        @example('\ufeff{"q": [2], "lengths": [[1]]}')
        @example('{"q": [2], "lengths": []}')
        @example('{"q": [2], "lengths": [[' + "9" * 5000 + "]]}")
        @example('{"q": [' + "9" * 5000 + '], "lengths": [[1]]}')
        # texts the counter's own checks must refuse, or its merge would fail on
        # a value beside a row, two "[" in one text, or a string across texts
        @example('{"q": [2], "lengths": [0, [1]]}')
        @example('{"q": [2], "lengths": [5, [[1], 2]]}')
        @example('{"q": [2, 2], "lengths": [5, "[][]", [1, 1]]}')
        # objects nested past the recursion limit inside a one-"[" row
        @example('{"q": [2], "lengths": [[1], [' + '{"a": ' * 5000 + "1" + "}" * 5000 + "]]}")
        def check(text):
            counted = cli.count_json_rows(text)
            taken.append(counted is not None)
            if counted is None:
                return
            inst = cli.parse_instance_json(text)
            assert inst.probs is None and inst.base is None
            qs, groups = counted
            assert qs == inst.qs and list(groups.items()) == list(inst.groups.items())
            assert all(type(v) is int for key in groups for v in key)

        check()
        assert 3 * sum(taken) >= len(taken), f"the counter took {sum(taken)} of {len(taken)} texts"

    @settings(max_examples=600, deadline=None)
    @given(text_files())
    @example("2 2\n2 2\n")  # the header's text again, as the one codeword
    @example("2 2\n1 0\n 1\t0 # c\n")  # lines equal up to spacing and comments
    @example("2 2\n1 x\n" + "9" * 5001 + " 0\n")  # a non-integer token before a number past the limit
    @example("2 2\n1 1_\n")  # a token that starts as an integer
    def test_text_reader_matches_per_line_reference(self, text):
        try:
            expected = reference_text(text)
        except cli.InputError as exc:
            with pytest.raises(cli.InputError) as got:
                cli.parse_instance_text(text)
            assert str(got.value) == str(exc)
            return
        inst = cli.parse_instance_text(text)
        qs, lengths, groups = expected
        # dict(): a Counter equals one that also holds a zero count
        assert (inst.qs, inst.lengths, dict(inst.groups)) == (qs, lengths, dict(groups))
        assert inst.probs is None and inst.base is None

    def test_text_and_json_give_one_histogram(self, tmp_path, capsys):
        lengths = caterpillar(random.Random(3), 300, window=300)
        for extra in ([], [[1, 0]]):  # EXISTS, then a Kraft excess
            rows = [list(p) for p in lengths] + extra
            json_path = write_json(tmp_path, {"q": [2, 3], "lengths": rows})
            text_path = tmp_path / "inst.txt"
            text_path.write_text("2 3\n" + "".join(f"{a} {b}\n" for a, b in rows), encoding="utf-8")
            assert cli.load_instance(json_path, "json").groups == cli.load_instance(str(text_path), "text").groups
            for cmd in ("decide", "kraft"):
                code_json = cli.main([cmd, "--input", json_path])
                out_json = capsys.readouterr().out
                assert cli.main([cmd, "--input", str(text_path), "--format", "text"]) == code_json
                assert capsys.readouterr().out == out_json


class TestParseFootprint:
    @pytest.mark.parametrize("cmd, fmt", [("decide", "json"), ("kraft", "json"), ("decide", "text"), ("kraft", "text")],
                             ids=["decide", "kraft", "decide-text", "kraft-text"])
    def test_histogram_commands_peak_small(self, tmp_path, capsys, cmd, fmt):
        # 100k codewords: the file's text, one string per row or line and
        # their histogram, but no list or tuple per codeword
        lengths = caterpillar(random.Random(9), 100_000, window=100_000)
        if fmt == "json":
            path = write_json(tmp_path, {"q": [2, 2], "lengths": lengths})
        else:
            path = tmp_path / "inst.txt"
            path.write_text("2 2\n" + "".join(f"{a} {b}\n" for a, b in lengths), encoding="utf-8")
        tracemalloc.start()
        try:
            assert cli.main([cmd, "--input", str(path), "--format", fmt]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out == ("EXISTS\n" if cmd == "decide" else "1/1 SATISFIED\n")
        assert peak < 9 << 20

    def test_string_row_is_never_spread_into_a_tuple(self, tmp_path, capsys):
        # tuple() of this row alone would hold a pointer per character, 8 bytes
        # each; the file text and the loaded row take about 2 bytes per
        # character, and the message names the row by its position, never by
        # its text, also when the string is an item of a list row, at any
        # depth or in a dict
        string = "x" * (20 << 20)
        for row in (string, [1, string, 0], [[string], 0], [[[string]], 0], [{"k": string}, 0]):
            path = write_json(tmp_path, {"q": [2, 2], "lengths": [[1, 0], row]})
            tracemalloc.start()
            try:
                assert cli.main(["decide", "--input", path]) == 2
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            err = "error: length entry 2 must be an array of integers\n"
            assert capsys.readouterr() == ("", err)
            assert peak < 2.1 * len(string)

    @pytest.mark.parametrize("long_row, bound", [(1, 3.2), (0, 3.2)], ids=["second", "first"])
    def test_long_row_text_is_copied_few_times(self, tmp_path, capsys, long_row, bound):
        # the file text and at most two copies of the long row at once: its
        # piece, then the one decoded text; each of the first row's two
        # separator swaps makes one copy, from the copy it replaces
        rows = ["[1, 1]", "[1, 1]"]
        rows[long_row] = "[1," + " " * (20 << 20) + "0]"
        path = tmp_path / "inst.json"
        path.write_text('{"q": [2, 2], "lengths": [' + ", ".join(rows) + "]}", encoding="utf-8")
        chars = path.stat().st_size
        tracemalloc.start()
        try:
            assert cli.main(["decide", "--input", str(path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr() == ("EXISTS\n", "")
        assert peak < bound * chars

    def test_wide_text_line_message_stays_short(self, tmp_path, capsys):
        # a line of 10^6 tokens holds a pointer per token twice, in its token
        # list and its tuple, but its message does not grow with it
        text = "2 2\n1 0\n" + " ".join(["1"] * 10**6) + "\n"
        path = tmp_path / "inst.txt"
        path.write_text(text, encoding="utf-8")
        tracemalloc.start()
        try:
            assert cli.main(["decide", "--input", str(path), "--format", "text"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = "error: length line 3 does not match 2 channel(s)\n"
        assert capsys.readouterr() == ("", err)
        assert peak < 11 * len(text)

    def test_long_text_token_message_is_cut(self, tmp_path, capsys):
        # the message names the line by its number, and int() never sees the
        # token, so the text is held three times over: the file text, its
        # line and the token
        text = "2 2\n1 0\n1 " + "x" * (10 << 20) + "\n"
        path = tmp_path / "inst.txt"
        path.write_text(text, encoding="utf-8")
        tracemalloc.start()
        try:
            assert cli.main(["decide", "--input", str(path), "--format", "text"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr() == ("", "error: non-integer token on line 3\n")
        assert peak < 3.1 * len(text)

    @pytest.mark.parametrize("run, count", [("1_", 10**6), ("9", 10 << 20)], ids=["underscores", "digits"])
    def test_long_bad_token_is_refused_in_linear_time(self, run, count):
        # a token rule that backtracked more than once over each digit would
        # take quadratic time on these
        text = "2 2\n1 " + run * count + "x\n"
        start = time.perf_counter()
        with pytest.raises(cli.InputError) as caught:
            cli.parse_instance_text(text)
        assert time.perf_counter() - start < 2
        assert str(caught.value) == "non-integer token on line 2"

    def test_deepest_row_the_decoder_loads_is_input_error(self, tmp_path, capsys):
        # the row rule and the per-entry rule look one level into a row, so
        # that no depth json.loads accepts overflows them
        for depth in range(1000, 0, -10):
            path = tmp_path / "deep.json"
            path.write_text('{"q": [2, 2], "lengths": [[1, 0], [1, ' + "[" * depth + "]" * depth + "]]}",
                            encoding="utf-8")
            assert cli.main(["decide", "--input", str(path)]) == 2
            err = capsys.readouterr().err
            if "invalid JSON" not in err:
                break
        assert depth > 900
        assert err == "error: length entry 2 must be an array of integers\n"

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "payload", [COUNTEREXAMPLE, {"q": [2, 2], "lengths": [[1, 0], [True, 0]]}], ids=["valid", "rejected"]
    )
    def test_collector_state_restored(self, tmp_path, capsys, enabled, payload):
        path = write_json(tmp_path, payload)
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            svg = ["--svg", str(tmp_path / "out.svg")]
            for argv in (["decide"], ["kraft"], ["construct"], ["entropy"], ["render", *svg]):
                cli.main([*argv, "--input", path])
                assert gc.isenabled() is enabled
            cli.main(["selftest", "--max-m", "1", "--max-len", "1", "--arities", "2,2"])
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()


class TestBenchmarkCorpus:
    """CLI answers on every instance the benchmark generates, checked against
    the verdict and Kraft string known when the instance was made."""

    @pytest.mark.parametrize("workload", ["wide", "deep-slack"])
    def test_decide_and_kraft_match_certificates(self, tmp_path, capsys, monkeypatch, workload):
        monkeypatch.syspath_prepend(str(REPO / "benchmarks"))
        corpus, checks = importlib.import_module("corpus"), importlib.import_module("checks")
        for inst in corpus.corpus(workload, 1):
            path = str(inst.write(tmp_path))
            expected = (0, "EXISTS\n") if inst.exists else (1, "NOT-EXISTS\n")
            assert (cli.main(["decide", "--input", path]), capsys.readouterr().out) == expected, inst.name
            kraft = checks.kraft_line(checks.kraft_string(inst.q, inst.lengths))
            assert (cli.main(["kraft", "--input", path]), capsys.readouterr().out) == (0, kraft), inst.name
