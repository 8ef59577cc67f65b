"""Hand-listed mutants of the packing, Kraft, encoding, spec, oracle, parsing, row-counting and run-policy code, run against tier-1 one at a time.

Usage, from the repository root:

    python3 tools/mutants.py

Each mutant is one text replacement in one source file.  For each, the
script copies src/, tests/, benchmarks/ and README.md (which tests read)
and pyproject.toml to a temporary directory, applies the replacement there, and
runs tier-1 with criterion 4 deselected (for time), stopping at the first
failure.  A mutant that every selected test passes survives: the tests
cannot tell it from the real code.  The survivors are printed at the end,
and the exit code is 1 when any survives.  Standard library only; the
working tree is never modified.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "benchmarks", "pyproject.toml", "README.md")
DESELECTED = "tests/test_acceptance.py::test_criterion_4_sigma_matches_minimal_partition"
TIMEOUT_S = 600  # a mutant that loops forever counts as caught

GEOMETRY = "src/prefixpack/geometry.py"
PACKER = "src/prefixpack/packer.py"
CLI = "src/prefixpack/cli.py"
CODES = "src/prefixpack/codes.py"
MODEL = "src/prefixpack/model.py"
ORACLE = "src/prefixpack/oracle.py"

# (name, file, old text, new text); each old text occurs exactly once in its file
MUTANTS = [
    ("cut1d-bound-strict", GEOMETRY,
     "while w * q <= bound and", "while w * q < bound and"),
    ("cut1d-ignores-alignment", GEOMETRY,
     "lo % (w * q) == 0", "lo % w == 0"),
    ("cut1d-overruns-end", GEOMETRY,
     "lo + w * q <= end:", "lo + w * q <= end + 1:"),
    ("corner-x-cut-bounded-by-block", GEOMETRY,
     "_cut1d(c.x + bw, c.w - bw, q.q1, c.w)", "_cut1d(c.x + bw, c.w - bw, q.q1, bw)"),
    ("corner-y-cut-full-width", GEOMETRY,
     "reg(c.x, y, bw, h)", "reg(c.x, y, c.w, h)"),
    ("overlap-closed-edge", GEOMETRY,
     "r1.x < r2.x + r2.w", "r1.x <= r2.x + r2.w"),
    ("contains-strict-right", GEOMETRY,
     "inner.x + inner.w <= outer.x + outer.w", "inner.x + inner.w < outer.x + outer.w"),
    ("naive-tie-break-y-first", GEOMETRY,
     "key=lambda r: (total_key(r.size), r.x, r.y)", "key=lambda r: (total_key(r.size), r.y, r.x)"),
    ("covers-strict-height", GEOMETRY,
     "return s1.w >= s2.w and s1.h >= s2.h", "return s1.w >= s2.w and s1.h > s2.h"),
    ("total-key-height-before-width", GEOMETRY,
     "return (max(s.w, s.h), s.w, s.h)", "return (max(s.w, s.h), s.h, s.w)"),
    ("sorted-desc-rejects-ties", GEOMETRY,
     "total_key(a) >= total_key(b)", "total_key(a) > total_key(b)"),
    ("folded-origins-in-front", PACKER,
     "along_o[d - 1] += _tile(along_o[d], a, 0, q * step, step)",
     "along_o[d - 1] = _tile(along_o[d], a, 0, q * step, step) + along_o[d - 1]"),
    ("tile-offset-major", PACKER,
     "return [(x + s, y) for x, y in origins for s in offsets]",
     "return [(x + s, y) for s in offsets for x, y in origins]"),
    ("power-table-grown-in-place", PACKER,  # a table a bank holds would change under it
     "table = _POWERS[q] = table + list(islice(more, 1, None))",
     "table = _POWERS.setdefault(q, table)\n        table += islice(more, 1, None)"),
    ("pack-tie-break-swapped", PACKER,
     "blocks.append((max(w, h), w, h, ll))", "blocks.append((max(w, h), h, w, ll))"),
    ("pack-skips-row-cap-descent", PACKER,  # a descent that moves only cap_j is skipped
     "if target != caps:", "if target[0] != caps[0]:"),
    ("ledger-charges-unplaced-blocks", PACKER,
     "self._free -= (need - left) *", "self._free -= need *"),
    ("audit-skips-consume", PACKER,
     "        if self.audit:\n            self._free", "        if False:\n            self._free"),
    ("walk-skips-first-level", PACKER,
     "        k = start\n", "        k = start + 1\n"),
    ("walk-takes-newest-first", PACKER,
     "taken = spots[k][-used:]", "taken = spots[k][:used]"),
    ("counts-view-drops-a-row", PACKER,
     "range(ci)", "range(ci - 1)"),
    ("construct-owners-reversed", PACKER,
     "iter(tuple(islice(placed, spec.groups[ll])))", "iter(tuple(islice(placed, spec.groups[ll]))[::-1])"),
    ("json-admits-bool-lengths", CLI,
     "chain.from_iterable(rows))) <= {int}", "chain.from_iterable(rows))) <= {int, bool}"),
    ("json-skips-arity-check", CLI,
     "set(map(len, rows)) <= {channels}", "True"),
    ("json-skips-int-key-check", CLI,
     " and set(map(type, itertools.chain.from_iterable(rows))) <= {int}", ""),
    ("json-float-text-as-int", CLI,
     "chain.from_iterable(rows))) <= {int}", "chain.from_iterable(rows))) <= {int, float}"),
    ("json-tuples-string-rows", CLI,
     "if not set(map(type, rows)) <= {list}:", "if False:"),
    ("json-checks-distinct-keys-only", CLI,  # the keys go back to lists, or the list test rejects them all
     "if not _rows_hold_ints(lengths, channels):",
     "if not _rows_hold_ints(list(map(list, Counter(map(tuple, lengths)))), channels):"),
    ("json-probs-count-loose", CLI,
     'len(raw["probs"]) == len(lengths)', 'len(raw["probs"]) <= len(lengths)'),
    ("json-collector-left-off", CLI,
     "        if gc_was_enabled:\n", "        if not gc_was_enabled:\n"),
    ("counter-python-whitespace", CLI,
     '_JSON_WS = r"[ \\t\\n\\r]*"', '_JSON_WS = r"\\s*"'),
    ("counter-python-digits", CLI,
     "[1-9][0-9]*", "[1-9]\\d*"),
    ("counter-admits-strings", CLI,
     """text.find('"', end) >= 0 or """, ""),
    ("counter-admits-any-brackets", CLI,
     """    if set(map(str.count, texts, itertools.repeat("["))) != {1}:  # one "[" per text\n        return None\n""", ""),
    ("counter-merge-keeps-last-count", CLI,  # rows that decode equal, such as -0 and 0, must add up
     "groups[key] += n", "groups[key] = n"),
    ("text-keeps-comments", CLI,
     'tokens = line.split("#", 1)[0].split()', "tokens = line.split()"),
    ("text-allows-short-lines", CLI,
     "if len(row) != len(qs):", "if len(row) > len(qs):"),
    ("text-line-number-of-codeword", CLI,  # the position among lines that hold tokens, header 0
     "length line {lines.index(line) + 1}", "length line {list(rows).index(line)}"),
    ("text-header-counted-as-codeword", CLI,
     "    counts[header] -= 1\n", ""),
    ("text-token-rule-unanchored", CLI,
     '(?:_\\d+)*").fullmatch', '(?:_\\d+)*").match'),
    ("entry-position-from-zero", CLI,
     "enumerate(lengths, 1)", "enumerate(lengths)"),
    ("selftest-domain-for-zero-m", ORACLE,
     "if max_m >= 1 else []", "if True else []"),
    ("input-error-not-a-value-error", CLI,  # main catches ValueError, and InputError only as one
     "class InputError(ValueError):", "class InputError(Exception):"),
    ("encode-top-digits-from-the-front", CODES,
     "table[d][k - width % k:]", "table[d][:width % k]"),
    ("instance-width-from-channel-2", CODES,
     "sizes[l1, l2] = (q1 ** (l1max - l1),", "sizes[l1, l2] = (q2 ** (l1max - l1),"),
    ("kraft-table-exponent-off-by-one", CODES,
     "power *= q ** (last - length)", "power *= q ** (last - length + 1)"),
    ("kraft-horner-from-wrong-end", CODES,
     "for length in sorted(by_length):", "for length in sorted(by_length, reverse=True):"),
    ("kraft-horner-step-off-by-one", CODES,
     "numerator * q ** (length - last) +", "numerator * q ** (length - last + 1) +"),
    ("kraft-equal-arities-not-merged", CODES,
     "top[qi] = top.get(qi, 0) + max(column)", "top[qi] = max(column)"),
    ("spec-l1max-reads-channel-2", MODEL,
     "max((l1 for l1, _ in groups), default=0)", "max((l2 for _, l2 in groups), default=0)"),
    ("oracle-repeat-rule-for-every-block", ORACLE,
     "floor = last if repeat else -1", "floor = last"),
    ("oracle-block-mask-one-row-short", ORACLE,
     "column = (1 << h) - 1", "column = (1 << h - 1) - 1"),
    ("oracle-box-area-height-squared", ORACLE,
     "sum(cw * ch for _, _, cw, ch in boxes)", "sum(ch * ch for _, _, cw, ch in boxes)"),
    ("oracle-extent-check-reads-sides-only", ORACLE,  # a box may run past max_dim
     "bounds += (cw, ch, x + 1, y + 1, x + cw, y + ch)", "bounds += (cw, ch, x + 1, y + 1, cw, ch)"),
    ("oracle-budget-counts-one-axis", ORACLE,
     "len(_starts(x, cw, w)) * len(_starts(y, ch, h))", "len(_starts(x, cw, w))"),
    ("oracle-cache-key-without-containers", ORACLE,  # every call reuses the first call's containers
     "_layout(s, boxes)", '_layout(s, _layout.__dict__.setdefault("boxes", boxes))'),
    ("oracle-search-keeps-its-cycle", ORACLE,  # main pauses the collector: each call's cycle would pile up
     "        del search\n", "        pass\n"),
]


def run_mutant(file: str, old: str, new: str) -> tuple[bool, str]:
    """Apply one replacement in a fresh copy; (survived, last line of pytest's output)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            src = REPO / name
            if src.is_dir():
                shutil.copytree(src, root / name, ignore=shutil.ignore_patterns("__pycache__", ".work"))
            else:
                shutil.copy2(src, root / name)
        target = root / file
        target.write_text(target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--deselect", DESELECTED, "tests"]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        try:
            done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, f"timed out after {TIMEOUT_S} s"
        lines = done.stdout.strip().splitlines()
        return done.returncode == 0, lines[-1] if lines else done.stderr.strip()


def check_targets() -> None:
    """Stop before any run unless each mutant's old text occurs exactly once in its file."""
    for name, file, old, _ in MUTANTS:
        count = (REPO / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            raise SystemExit(f"{name}: {file} holds the text to replace {count} times: {old!r}")


def main() -> int:
    check_targets()
    survivors = []
    for name, file, old, new in MUTANTS:
        start = time.monotonic()
        survived, summary = run_mutant(file, old, new)
        verdict = "SURVIVED" if survived else "caught"
        print(f"{verdict:8} {name:32} {time.monotonic() - start:6.1f} s  {summary}", flush=True)
        if survived:
            survivors.append(name)
    print(f"{len(survivors)} of {len(MUTANTS)} mutants survived" + (": " + ", ".join(survivors) if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
