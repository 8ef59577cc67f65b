"""Hand-listed mutants of the packing, Kraft, encoding, spec, oracle, parsing, row-counting and run-policy code, run against tier-1 one at a time.

Usage, from the repository root:

    python3 tools/mutants.py                     # every mutant
    python3 tools/mutants.py NAME [NAME ...]     # only the named mutants

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
SIGMA_ORACLE = "tests/sigma_oracle.py"
AUDITED_BANK = "tests/audited_bank.py"

# (name, file, old text, new text); each old text occurs exactly once in its file
MUTANTS = [
    ("cut1d-bound-strict", GEOMETRY,
     "while w * q <= bound and", "while w * q < bound and"),
    ("cut1d-ignores-alignment", GEOMETRY,
     "lo % (w * q) == 0", "lo % w == 0"),
    ("cut1d-overruns-end", GEOMETRY,
     "lo + w * q <= end:", "lo + w * q <= end + 1:"),
    ("corner-x-cut-bounded-by-block", GEOMETRY,
     "_cut1d(x + bw, w - bw, q.q1, w)", "_cut1d(x + bw, w - bw, q.q1, bw)"),
    ("corner-y-cut-full-width", GEOMETRY,
     "(x, py, bw, ph)", "(x, py, w, ph)"),
    ("overlap-closed-edge", GEOMETRY,
     "x1 < x2 + w2", "x1 <= x2 + w2"),
    ("contains-strict-right", GEOMETRY,
     "ix + iw <= ox + ow", "ix + iw < ox + ow"),
    ("naive-tie-break-y-first", GEOMETRY,
     "key=lambda r: (total_key(r[2:]), r[0], r[1])", "key=lambda r: (total_key(r[2:]), r[1], r[0])"),
    ("covers-strict-height", GEOMETRY,
     "return s1[0] >= s2[0] and s1[1] >= s2[1]", "return s1[0] >= s2[0] and s1[1] > s2[1]"),
    ("total-key-height-before-width", GEOMETRY,
     "return (max(w, h), w, h)", "return (max(w, h), h, w)"),
    ("sorted-desc-rejects-ties", GEOMETRY,
     "total_key(a) >= total_key(b)", "total_key(a) > total_key(b)"),
    ("naive-accepts-negative-container", GEOMETRY,
     "        if min(x, y) < 0 or min(w, h) < 1:\n            raise", "        if False:\n            raise"),
    ("folded-origins-in-front", PACKER,
     "along_o[d - 1] += _tile(along_o[d], a, 0, q * step, step)",
     "along_o[d - 1] = _tile(along_o[d], a, 0, q * step, step) + along_o[d - 1]"),
    ("tile-moves-nothing-at-an-offset", PACKER,  # one offset that is not 0 still moves the origins
     "(lo, hi) == (0, step)", "hi - lo == step"),
    ("tile-offset-major", PACKER,
     "return [(x + s, y) for x, y in origins for s in offsets]",
     "return [(x + s, y) for s in offsets for x, y in origins]"),
    ("equal-arity-table-sized-by-channel-1", PACKER,  # the shared table must reach both caps
     "max(l1max, l2max) if q1 == q2 else l1max", "l1max"),
    ("pack-tie-break-swapped", PACKER,
     "blocks.append((max(w, h), w, h, ll))", "blocks.append((max(w, h), h, w, ll))"),
    ("pack-skips-row-cap-descent", PACKER,  # a descent that moves only cap_j is skipped
     "if target != caps:", "if target[0] != caps[0]:"),
    ("walk-skips-first-level", PACKER,
     "        k = start\n", "        k = start + 1\n"),
    ("walk-takes-newest-first", PACKER,
     "taken = spots[k][-used:]", "taken = spots[k][:used]"),
    ("counts-view-drops-a-row", PACKER,
     "range(ci)", "range(ci - 1)"),
    ("lag-off-by-one", PACKER,
     "self.pows[b][was - now]", "self.pows[b][was - now - 1]"),
    ("corner-copy-unstamped", PACKER,
     "        self.stamps[1 - a][c] = d - 1  # the corner's copy is up to date\n", ""),
    ("fold-reads-stale-cell", PACKER,
     "        if self.stamps[a][d - 1] != c:\n            self._fresh(a, d - 1)\n", ""),
    ("take-from-stale-cell", PACKER,
     "            if stamps[k] != now:\n                self._fresh(a, k)\n", ""),
    ("take-freshens-only-fresh-cells", PACKER,  # the walk's stamp test inverted
     "if stamps[k] != now:", "if stamps[k] == now:"),
    ("deposit-on-stale-cell", PACKER,
     "                    if stamps[t] != now:\n                        self._fresh(a, t)\n", ""),
    ("stale-origins-untiled", PACKER,
     "            spots[t] = _tile(spots[t], b, 0, self.pows[b][was], self.pows[b][now])\n", ""),
    ("counts-view-ignores-stamps", PACKER,
     "        col = [n * self.pow1[s - ci] for n, s in zip(col, scol)]\n"
     "        return [{cj: row[i] * self.pow2[srow[i] - cj]} for i in range(ci)] + [col]\n",
     "        return [{cj: row[i]} for i in range(ci)] + [col]\n"),
    ("construct-owners-reversed", PACKER,
     "iter(tuple(islice(placed, groups[ll])))", "iter(tuple(islice(placed, groups[ll]))[::-1])"),
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
     '(?:_(?=(\\d+))\\2)*").fullmatch', '(?:_(?=(\\d+))\\2)*").match'),
    ("entry-position-from-zero", CLI,
     "enumerate(lengths, 1)", "enumerate(lengths)"),
    ("selftest-domain-for-zero-m", ORACLE,
     "if max_m >= 1 else []", "if True else []"),
    ("selftest-ignores-construct-verdict", CLI,
     "if fast != expect or built != expect:", "if fast != expect:"),
    ("selftest-drops-partial-batch", CLI,
     "while batch := list(itertools.islice(specs, SELFTEST_BATCH)):",
     "while len(batch := list(itertools.islice(specs, SELFTEST_BATCH))) == SELFTEST_BATCH:"),
    ("selftest-walk-reads-next-verdict", CLI,  # the check walk zipped against a stage list shifted by one
     "zip(batch, verdicts, placements, brutes)", "zip(batch, verdicts[1:] + verdicts[:1], placements, brutes)"),
    ("input-error-not-a-value-error", CLI,  # main catches ValueError, and InputError only as one
     "class InputError(ValueError):", "class InputError(Exception):"),
    ("encode-one-chunk-admits-negative", CODES,  # table[-1] would read the last digit string
     "0 <= value < base**width", "value < base**width"),
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
     '_set(self, "_l1max", max(l1s))', '_set(self, "_l1max", max(l2s))'),
    ("spec-pairs-of-any-width", MODEL,  # zip stops at the shortest pair
     "zip(*groups, strict=True)", "zip(*groups)"),
    ("spec-plain-check-admits-bools", MODEL,
     "{*map(type, both := l1s + l2s)} == {int}", "{*map(type, both := l1s + l2s)} <= {int, bool}"),
    ("spec-plain-check-admits-negatives", MODEL,
     " and min(both) >= 0", ""),
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
    ("ledger-charges-unplaced-blocks", AUDITED_BANK,
     "self._free -= (need - self._left) *", "self._free -= need *"),
    ("audit-skips-consume", AUDITED_BANK,  # consume calls go unaudited: no charge, no check
     "def _consume(self", "def _unaudited_consume(self"),
    ("audit-skips-check-after-consume", AUDITED_BANK,
     "        self._check()\n        return ok\n", "        return ok\n"),
    ("sigma-oracle-bound-exponent-off-by-one", SIGMA_ORACLE,
     "for i in range(a + 1)", "for i in range(a)"),
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


def main(names: list[str]) -> int:
    check_targets()
    unknown = sorted(set(names) - {name for name, *_ in MUTANTS})
    if unknown:
        raise SystemExit(f"no mutant named {', '.join(unknown)}")
    chosen = [mutant for mutant in MUTANTS if not names or mutant[0] in names]
    survivors = []
    for name, file, old, new in chosen:
        start = time.monotonic()
        survived, summary = run_mutant(file, old, new)
        verdict = "SURVIVED" if survived else "caught"
        print(f"{verdict:8} {name:32} {time.monotonic() - start:6.1f} s  {summary}", flush=True)
        if survived:
            survivors.append(name)
    print(f"{len(survivors)} of {len(chosen)} mutants survived" + (": " + ", ".join(survivors) if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
