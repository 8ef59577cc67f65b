"""Golden CLI outputs: exact stdout, stderr and exit code of decide, kraft and
entropy, and the sha256 of the files construct --output and render --svg
write, on small instances that cover each output path.

The expected values were recorded from the CLI before the block and order
helpers of the reference layer were removed; any change to them is a change
to the CLI's byte-identical output contract.
"""

import hashlib
import json

import pytest

from prefixpack import cli

INSTANCES = {
    "counterexample": {"q": [2, 2], "lengths": [[1, 0], [0, 1]]},
    "kraft-excess": {"q": [2, 2], "lengths": [[1, 0], [1, 0], [1, 0]]},
    "single-channel": {"q": [2], "lengths": [[1], [2], [3], [3]], "probs": [0.5, 0.25, 0.125, 0.125], "D": 2},
    "text-format": "# arities\n2 2\n1 1\n1 1   # a comment\n1 0\n",
    "arities-2-3": {"q": [2, 3], "lengths": [[1, 1], [1, 1], [1, 1], [1, 0]]},
    "entropy": {"q": [3, 2], "lengths": [[1, 1], [2, 0], [1, 2]], "probs": [0.6, 0.3, 0.1], "D": 2.5},
    "empty": {"q": [2, 2], "lengths": []},
    "slack": {"q": [2, 2], "lengths": [[3, 2], [2, 2], [1, 3], [3, 3], [2, 1], [0, 4]]},
    "log-scale": {"q": [2, 2], "lengths": [[k, 0] for k in range(1, 13)] + [[12, 0]]},
    "mixed-deep": {"q": [3, 2], "lengths": [[2, 0], [2, 1], [2, 2], [2, 3], [2, 3], [1, 1], [1, 2], [0, 3]]},
}

# name -> {command: (exit code, stdout, stderr)}; construct and render map to
# (exit code, sha256 of the written file or None when none is written).
NO_PROBS = (2, "", 'error: entropy needs a "probs" array in the instance file\n')
EXPECTED = {
    "arities-2-3": {
        "decide": (0, "EXISTS\n", ""),
        "kraft": (0, "1/1 SATISFIED\n", ""),
        "entropy": NO_PROBS,
        "construct": (0, "2307264659472ffe2233fee6cce4935afa16cee3363b7349355ad4f339cd16aa"),
        "render": (0, "9c636285eeb3db2d8495fe5868955b2745cca2db91c77cde892d57f5d33d65ea"),
    },
    "counterexample": {
        "decide": (1, "NOT-EXISTS\n", ""),
        "kraft": (0, "1/1 SATISFIED\n", ""),
        "entropy": NO_PROBS,
        "construct": (1, "4b4c3b93583f8ac3f8f41168c7e927b4cbc1d0b30789499f63a1b7a7e288d89d"),
        "render": (1, None),
    },
    "empty": {
        "decide": (0, "EXISTS\n", ""),
        "kraft": (0, "0/1 SATISFIED\n", ""),
        "entropy": NO_PROBS,
        "construct": (0, "8c0e065fe3ac1ac271fccc20a23d2f3b82b08de3025df9a573691780c546b1a9"),
        "render": (0, "fa7c4d5856414f743d7c6dfdbbb4573d70c7c95a4c87ec1496bda84de18b188a"),
    },
    "entropy": {
        "decide": (0, "EXISTS\n", ""),
        "kraft": (0, "13/36 SATISFIED\n", ""),
        "entropy": (0, "avg_length 2.16384783862\nentropy 0.979979054268\nslack 1.18386878436\n", ""),
        "construct": (0, "a3cf1e25cddaeb0250d05396454e7295f75e2211812e8a4cb9f6bc1840c78c65"),
        "render": (0, "2f2cc24b1917cc164ea7aa9dfa7acb7b9daa58d55faa8576b48200e3f067ae35"),
    },
    "kraft-excess": {
        "decide": (1, "NOT-EXISTS\n", ""),
        "kraft": (0, "3/2 VIOLATED\n", ""),
        "entropy": NO_PROBS,
        "construct": (1, "83238a2855475bf7c0f1a8a6876656edcc6f6426adf3449ae2d6707657e9cb44"),
        "render": (1, None),
    },
    "log-scale": {
        "decide": (0, "EXISTS\n", ""),
        "kraft": (0, "1/1 SATISFIED\n", ""),
        "entropy": NO_PROBS,
        "construct": (0, "c41185fb6c26a1f84df5c5b38293afeb5df17173e1e24a93b7eb38c9ac5fa987"),
        "render": (0, "1083f9b3bf6bbd950bd2e0c0bc7214a4f0f330ad53eddc6aab361495a7089574"),
    },
    "mixed-deep": {
        "decide": (1, "NOT-EXISTS\n", ""),
        "kraft": (0, "43/72 SATISFIED\n", ""),
        "entropy": NO_PROBS,
        "construct": (1, "1af14107b56c64ec74e0daaf3957d0b227c84df10ca289cd8a4441f15626de0b"),
        "render": (1, None),
    },
    "single-channel": {
        "decide": (0, "EXISTS\n", ""),
        "kraft": (0, "1/1 SATISFIED\n", ""),
        "entropy": (0, "avg_length 1.75\nentropy 1.75\nslack 0\n", ""),
        "construct": (0, "1df8976af2745985da809be1177c9320710ac6a74bdecfe1822382c9a88654e9"),
        "render": (0, "c97aa62335371f3c2644db56b9098695e85a327c24661a6b7ec80c3295c4b62d"),
    },
    "slack": {
        "decide": (0, "EXISTS\n", ""),
        "kraft": (0, "23/64 SATISFIED\n", ""),
        "entropy": NO_PROBS,
        "construct": (0, "93e9edc544f2c4d3dce9258850bee4eb15604e43b535fe85d1b1550353cf7ed1"),
        "render": (0, "c7c93427b9c2822ed90439d6bd6d68c96a3cf336c321cbe4777bc70d08628ab7"),
    },
    "text-format": {
        "decide": (0, "EXISTS\n", ""),
        "kraft": (0, "1/1 SATISFIED\n", ""),
        "entropy": NO_PROBS,
        "construct": (0, "273067cee205cd6f305d93f8e8555f1a9e56222c9459fd02c75b18b002f793df"),
        "render": (0, "f3f4a6494b5bf6b30f31c0e917f9a389174c0e9fca75493fdedf5bd099a39e21"),
    },
}


def write_instance(tmp_path, payload):
    if isinstance(payload, str):
        path = tmp_path / "inst.txt"
        path.write_text(payload, encoding="utf-8")
        return ["--input", str(path), "--format", "text"]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return ["--input", str(path)]


def run_commands(tmp_path, capsys, payload):
    """Every command's outcome on one instance, in the shape of EXPECTED."""
    flags = write_instance(tmp_path, payload)
    got = {}
    for cmd in ("decide", "kraft", "entropy"):
        code = cli.main([cmd, *flags])
        out, err = capsys.readouterr()
        got[cmd] = (code, out, err)
    for cmd, flag, name in (("construct", "--output", "result.json"), ("render", "--svg", "out.svg")):
        target = tmp_path / name
        code = cli.main([cmd, *flags, flag, str(target)])
        capsys.readouterr()
        digest = hashlib.sha256(target.read_bytes()).hexdigest() if target.exists() else None
        got[cmd] = (code, digest)
    return got


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_cli_outputs_match_golden(tmp_path, capsys, name):
    assert run_commands(tmp_path, capsys, INSTANCES[name]) == EXPECTED[name]
