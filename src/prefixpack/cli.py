"""Command-line front end: decide / construct / kraft / entropy / render / selftest.

Exit codes are a contract: 0 = exists or success, 1 = no such code exists,
2 = input error, 3 = selftest disagreement.  Output for a given input is
byte-identical across runs.

main sets two rules for every command: the cyclic collector is paused while
it runs, and every input error is a ValueError (InputError is one), which
main turns into its message on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import re
import sys
from collections import Counter
from typing import TYPE_CHECKING, Iterable, NamedTuple, NoReturn, Sequence

from .model import Arities, ProblemSpec

if TYPE_CHECKING:
    from .packer import Locations

# Each command imports codes and packer itself, as it needs them, and calls
# them as module attributes, so that a launch compiles only what it runs; for
# the same reason render and the selftest sweep have modules of their own.

EXIT_EXISTS = 0
EXIT_NOT_EXISTS = 1
EXIT_INPUT_ERROR = 2
EXIT_SELFTEST_FAILED = 3

DEFAULT_SELFTEST_ARITIES = ((2, 2), (2, 3), (3, 2), (3, 3))

# construct/render keep an origin per free container, up to one per grid cell;
# refuse grids past this size rather than letting a valid-looking file take the
# process down.  decide keeps counts on two cap lines, l1max + l2max + 2 cells.
CONSTRUCT_CELL_LIMIT = 1 << 18
# Code-space bits, the sum of lmax_i * log2(q_i), bounded before any q**l is
# built.  Kraft numerators stay below m * 2**bits, so every admitted Kraft
# string prints under Python's default 4300-digit (about 14,284-bit) limit.
CODE_SPACE_BITS_LIMIT = 14_000


class InputError(ValueError):
    """Malformed instance file or unsupported parameters."""


class InstanceFile(NamedTuple):
    """A parsed instance file.

    lengths holds the codeword length rows in file order: the lists JSON
    loaded, or for the text format one tuple per distinct line, shared by
    every line of that text.  groups is their histogram, Counter(tuple(row)
    for row in lengths), counted once at parse time after every row passed
    the row rule, so its keys hold len(qs) exact ints each.  construct,
    render and entropy read lengths.  decide and kraft need only qs and
    groups, and build no InstanceFile for a JSON file the row counter takes
    (see _load_groups).  probs and base are floats, whether the file wrote
    them as integers or as floats.
    """

    qs: tuple[int, ...]
    lengths: Sequence[Sequence[int]]
    groups: Counter[tuple[int, ...]]
    probs: tuple[float, ...] | None
    base: float | None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InputError(message)


def _digit_limit_error(what: str) -> InputError:
    limit = sys.get_int_max_str_digits()
    return InputError(f"{what} is past Python's {limit:,}-digit limit for reading an integer from text")


def _reject_first_bad_entry(lengths: list, channels: int) -> NoReturn:
    """The rule for a "lengths" entry, applied entry by entry in file order.

    Only runs once a check on the rows found a bad entry, so that the
    message names the first one, by its position counted from 1.  It never
    repeats the entry's text, so no message grows with the file."""
    for n, entry in enumerate(lengths, 1):
        if not (isinstance(entry, list) and all(type(v) is int for v in entry)):
            raise InputError(f"length entry {n} must be an array of integers")
        if len(entry) != channels:
            raise InputError(f"length entry {n} does not match {channels} channel(s)")
    raise AssertionError("the whole-array checks rejected entries the per-entry rule accepts")


def _rows_hold_ints(rows: list, channels: int) -> bool:
    """The row rule of both JSON readers, run before any row is counted, so
    that no 1.0 or true merges into the key of 1: every row is a list (tested
    first, so that len never sees a number) of channels values, each of exact
    type int (JSON true/false load as bool, an int subclass)."""
    if not set(map(type, rows)) <= {list}:
        return False
    return set(map(len, rows)) <= {channels} and set(map(type, itertools.chain.from_iterable(rows))) <= {int}


def parse_instance_json(text: str) -> InstanceFile:
    """Parse and validate a JSON instance file.

    Every "lengths" entry must be an array of exactly len(q) integers.  The
    rows pass the row rule (_rows_hold_ints) before they are counted once
    into InstanceFile.groups; when they fail it, the per-entry rule runs to
    name the first bad entry in file order.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError("invalid JSON: arrays or objects nested too deep") from exc
    except ValueError as exc:  # json.loads raises no other plain ValueError
        raise _digit_limit_error("an integer in the JSON file") from exc
    _require(isinstance(raw, dict), "instance file must be a JSON object")
    _require("q" in raw, 'missing "q" field')
    _require("lengths" in raw, 'missing "lengths" field')
    qs = raw["q"]
    # type() rather than isinstance(): JSON true/false load as bool, an int subclass.
    _require(
        isinstance(qs, list) and qs and all(type(v) is int for v in qs),
        '"q" must be a non-empty array of integers',
    )
    lengths = raw["lengths"]
    _require(isinstance(lengths, list), '"lengths" must be an array')
    channels = len(qs)
    if not _rows_hold_ints(lengths, channels):
        _reject_first_bad_entry(lengths, channels)
    groups = Counter(map(tuple, lengths))
    probs = None
    if "probs" in raw and raw["probs"] is not None:
        _require(
            isinstance(raw["probs"], list) and set(map(type, raw["probs"])) <= {int, float},
            '"probs" must be an array of numbers',
        )
        _require(
            len(raw["probs"]) == len(lengths),
            '"probs" must have one entry per codeword length',
        )
        try:
            probs = tuple(map(float, raw["probs"]))
        except OverflowError as exc:
            raise InputError('a "probs" entry is too large for a float') from exc
    base = None
    if "D" in raw and raw["D"] is not None:
        _require(type(raw["D"]) in (int, float), '"D" must be a number')
        try:
            base = float(raw["D"])
        except OverflowError as exc:
            raise InputError('"D" is too large for a float') from exc
    return InstanceFile(tuple(qs), lengths, groups, probs, base)


# JSON's whitespace and digits, spelled out: \s and \d also match \x0c, \xa0
# and other Unicode spaces and digits, which json.loads rejects.  The patterns
# stay strings here; re compiles them on the first call, so that only decide
# and kraft pay for it.
_JSON_WS = r"[ \t\n\r]*"
_JSON_INT = rf"{_JSON_WS}-?(?:0|[1-9][0-9]*){_JSON_WS}"
_JSON_HEAD = (
    rf'{_JSON_WS}\{{{_JSON_WS}"q"{_JSON_WS}:{_JSON_WS}\[((?:{_JSON_INT},)*{_JSON_INT})\]'
    rf'{_JSON_WS},{_JSON_WS}"lengths"{_JSON_WS}:{_JSON_WS}\['
)
_JSON_TAIL = rf"{_JSON_WS}\}}{_JSON_WS}"


def count_json_rows(text: str) -> tuple[tuple[int, ...], Counter[tuple[int, ...]]] | None:
    """(qs, groups) of a JSON file {"q": [ints], "lengths": [rows]}, counted
    on the rows' text; None for any text it cannot certify.

    The "lengths" array runs from the head to the last "]" of the text.
    Split there on "]", each row is one piece: its separator and its values
    up to its "]".  The first row gets the separator ", " that the others
    carry, so that equal rows have equal texts; the pieces are counted with
    Counter at C speed, and only the distinct texts are decoded, with one
    json.loads.  Each distinct text must hold exactly one "[" and no string
    or object, and decode to one flat list; once these rows pass the row
    rule (_rows_hold_ints), their counts merge, so that texts that decode
    equal, such as -0 and 0 or rows spaced differently, share a key.
    Anything else (other fields, an empty or malformed array, a bad row or a
    number past the digit limit) returns None and is left to
    parse_instance_json, which writes every error message.
    """
    head = re.match(_JSON_HEAD, text)
    if head is None:
        return None
    # no string or object past the head, and one "}", the tail's: found before any copy
    end = head.end()
    if text.find('"', end) >= 0 or text.find("{", end) >= 0 or text.count("}", end) != 1:
        return None
    try:
        qs = tuple(map(int, head[1].split(",")))
    except ValueError:  # past the digit limit
        return None
    pieces = text.split("]")
    if len(pieces) < 4:  # the "q" list, at least one row, the array's end and the rest
        return None
    outer, inner = pieces.pop(), pieces.pop()
    if not (re.fullmatch(_JSON_WS, inner) and re.fullmatch(_JSON_TAIL, outer)):
        return None
    # pieces[0] runs up to the end of the "q" list, pieces[1] on to the first row's end
    pieces[1] = pieces[1].replace(pieces[1][: end - len(pieces[0]) - 1], ", ", 1)
    del pieces[0]
    counts = Counter(pieces)
    del pieces
    texts, values = list(counts), list(counts.values())
    del counts
    if set(map(str.count, texts, itertools.repeat("["))) != {1}:  # one "[" per text
        return None
    # the first text's leading comma gives way to the array's "[", and a last "]"
    # closes it: the distinct texts are copied once, into the one text decoded
    texts[0] = texts[0].replace(",", "[", 1)
    texts.append("]")
    joined = "]".join(texts)
    del texts
    try:
        rows = json.loads(joined)
    except ValueError:  # a malformed text, or a number past the digit limit
        return None
    if len(rows) != len(values) or not _rows_hold_ints(rows, len(qs)):
        return None
    groups: Counter[tuple[int, ...]] = Counter()
    for key, n in zip(map(tuple, rows), values):  # texts that decode equal, such as -0 and 0, merge
        groups[key] += n
    return qs, groups


def parse_instance_text(text: str) -> InstanceFile:
    """Plain-text alternative: "q1 q2" header, then one "l1 l2" line per codeword.

    The lines are counted, and each distinct line is decoded once, its "#"
    comment cut and each token checked to be an integer before int() reads
    it.  The header is the first line that holds tokens; its text may also be
    a codeword line, so its count falls by one.  Lines that decode equal merge
    in groups; lengths holds the decoded tuples in file order, shared.

    A bad line is named by its line number in the file, never by its text:
    the first line with a non-integer token or a number past the digit
    limit, then, once every token is a number, the first line whose width
    differs from the header's."""
    lines = text.splitlines()
    counts = Counter(lines)
    # int()'s literals: an optional sign, then digits with single underscores between;
    # in a str pattern \d is str.isdecimal, the set of digits int() reads
    # a lookahead is atomic: it takes each digit run whole, so a refused run never backtracks
    is_int = re.compile(r"[+-]?(?=(\d+))\1(?:_(?=(\d+))\2)*").fullmatch
    rows: dict[str, tuple[int, ...]] = {}
    for line in counts:  # in file order of first appearance
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        if not all(map(is_int, tokens)):
            raise InputError(f"non-integer token on line {lines.index(line) + 1}")
        try:
            rows[line] = tuple(map(int, tokens))
        except ValueError:  # the token rule leaves int() only the digit limit to refuse
            raise _digit_limit_error(f"a number on line {lines.index(line) + 1}") from None
    _require(bool(rows), "text instance needs at least an arity header line")
    header = next(iter(rows))
    qs = rows[header]
    counts[header] -= 1
    groups: Counter[tuple[int, ...]] = Counter()
    for line, row in rows.items():
        if len(row) != len(qs):
            raise InputError(f"length line {lines.index(line) + 1} does not match {len(qs)} channel(s)")
        groups[row] += counts[line]
    lengths = tuple(itertools.islice(filter(None, map(rows.get, lines)), 1, None))
    return InstanceFile(qs, lengths, +groups, None, None)  # + drops the header's count if it fell to 0


def read_input(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def load_instance(path: str, fmt: str) -> InstanceFile:
    text = read_input(path)
    return parse_instance_json(text) if fmt == "json" else parse_instance_text(text)


def write_output(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def to_problem_spec(
    qs: tuple[int, ...], lengths: Iterable[Sequence[int]] | Counter[tuple[int, ...]]
) -> ProblemSpec:
    """Two-channel packing view of codeword lengths over the arities qs.

    lengths is the rows in order, for construct and render, or their
    histogram as a Counter, for decide, which builds the spec in O(g) for g
    distinct pairs.  Single-channel lengths (l,) get a dummy unused second
    channel, (l, 0) (the decision does not depend on it)."""
    _require(len(qs) <= 2, f"packing commands support at most 2 channels, file has {len(qs)}")
    arities = Arities(qs[0], 2) if len(qs) == 1 else Arities(*qs)
    if isinstance(lengths, Counter):
        if len(qs) == 1:
            lengths = {(length, 0): n for (length,), n in lengths.items()}
        return ProblemSpec.from_groups(arities, lengths)
    if len(qs) == 1:
        firsts = [row[0] for row in lengths]
        padded = {length: (length, 0) for length in set(firsts)}  # one pair per distinct length
        return ProblemSpec(arities, tuple(map(padded.__getitem__, firsts)))
    return ProblemSpec(arities, tuple(lengths))  # type: ignore[arg-type]


def _guard_code_space(qs: tuple[int, ...], lmaxes: list[int]) -> None:
    """Refuse code spaces past CODE_SPACE_BITS_LIMIT bits, before any q**l exists."""
    bits = 0.0
    for qk, lmax in zip(qs, lmaxes):
        if qk >= 2 and lmax > 0:
            # clamping keeps the float product finite; past the limit any lmax fails
            bits += min(lmax, CODE_SPACE_BITS_LIMIT + 1) * math.log2(qk)
    _require(
        bits <= CODE_SPACE_BITS_LIMIT,
        f"maximum lengths span a code space of more than {CODE_SPACE_BITS_LIMIT} "
        "bits (sum of lmax * log2(q) over channels), above the supported limit",
    )


def _guard_construct_size(spec: ProblemSpec) -> None:
    q, l1max, l2max = spec.arities, spec.l1max, spec.l2max
    _guard_code_space((q.q1, q.q2), [l1max, l2max])
    if q.q1**l1max * q.q2**l2max > CONSTRUCT_CELL_LIMIT:
        raise InputError(
            f"container grid of {q.q1}^{l1max} x {q.q2}^{l2max} cells is above "
            f"the supported {CONSTRUCT_CELL_LIMIT} for explicit construction (decide "
            "scales; construct/render materialize placements)"
        )


def result_to_json(payload: dict) -> str:
    """The result file construct writes: the payload as sorted, indented JSON."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _entropy_triple(inst: InstanceFile) -> tuple[float, float, float] | None:
    if inst.probs is None or inst.base is None:
        return None
    from . import codes

    try:
        dist = codes.SourceDistribution(inst.probs, inst.base)
        report = codes.entropy_bound(inst.qs, inst.lengths, dist)
    except OverflowError as exc:  # probs and base are floats already; only a length can overflow
        raise InputError("a codeword length is too large for a float") from exc
    return (report.avg_length, report.entropy, report.slack)


def _load_groups(args: argparse.Namespace) -> tuple[tuple[int, ...], Counter[tuple[int, ...]]]:
    """Arities and length histogram of the input file, for the commands that
    need only the multiset.

    A JSON file of the shape {"q": [ints], "lengths": [rows]} is counted on
    its text by count_json_rows, which decodes only its distinct rows.  Any
    other JSON file, and any text the counter cannot certify, goes through
    parse_instance_json, the source of every error message.  The text format
    has one reader, parse_instance_text, which counts lines the same way and
    writes its own errors.  Either way the file's text and rows are freed on
    return, before anything else is allocated."""
    text = read_input(args.input)
    if args.format == "text":
        inst = parse_instance_text(text)
    else:
        counted = count_json_rows(text)
        if counted is not None:
            return counted
        inst = parse_instance_json(text)
    return inst.qs, inst.groups


def cmd_decide(args: argparse.Namespace) -> int:
    qs, groups = _load_groups(args)
    from . import packer

    spec = to_problem_spec(qs, groups)  # the verdict does not depend on order
    _guard_code_space((spec.arities.q1, spec.arities.q2), [spec.l1max, spec.l2max])
    if packer.decide(spec):
        print("EXISTS")
        return EXIT_EXISTS
    print("NOT-EXISTS")
    return EXIT_NOT_EXISTS


def _load_and_construct(
    args: argparse.Namespace,
) -> tuple[InstanceFile, ProblemSpec, Locations | None]:
    """The input file, its spec and construct's packing of it, for construct and render."""
    from . import packer

    inst = load_instance(args.input, args.format)
    spec = to_problem_spec(inst.qs, inst.lengths)
    _guard_construct_size(spec)
    return inst, spec, packer.construct(spec)


def cmd_construct(args: argparse.Namespace) -> int:
    from . import codes

    inst, spec, locations = _load_and_construct(args)
    payload: dict = {"decision": locations is not None}
    if locations is not None:
        # for a single-channel file the padded channel-2 words are all empty
        book = codes.solution_to_codebook(spec, locations)
        payload["codebook"] = [{"c1": word.c1, "c2": word.c2} for word in book]
    numerator, denominator = codes.kraft_ratio(inst.qs, inst.groups)
    payload["kraft"] = f"{numerator}/{denominator}"
    triple = _entropy_triple(inst)
    if triple is not None:
        avg, ent, slack = triple
        payload["entropy"] = {"avg_length": avg, "entropy": ent, "slack": slack}
    text = result_to_json(payload)
    if args.output:
        write_output(args.output, text)
    else:
        sys.stdout.write(text)
    return EXIT_EXISTS if locations is not None else EXIT_NOT_EXISTS


def cmd_kraft(args: argparse.Namespace) -> int:
    qs, groups = _load_groups(args)
    from . import codes

    _guard_code_space(qs, [max(column) for column in zip(*groups)])
    numerator, denominator = codes.kraft_ratio(qs, groups)  # its ValueError exits 2 through main
    verdict = "SATISFIED" if numerator <= denominator else "VIOLATED"
    print(f"{numerator}/{denominator} {verdict}")
    return EXIT_EXISTS


def cmd_entropy(args: argparse.Namespace) -> int:
    inst = load_instance(args.input, args.format)
    _require(inst.probs is not None, 'entropy needs a "probs" array in the instance file')
    _require(inst.base is not None, 'entropy needs a "D" base in the instance file')
    triple = _entropy_triple(inst)
    assert triple is not None
    avg, ent, slack = triple
    print(f"avg_length {avg:.12g}")
    print(f"entropy {ent:.12g}")
    print(f"slack {slack:.12g}")
    return EXIT_EXISTS


def cmd_render(args: argparse.Namespace) -> int:
    _, spec, locations = _load_and_construct(args)
    if locations is None:
        print("NOT-EXISTS")
        return EXIT_NOT_EXISTS
    from .render import render_svg

    write_output(args.svg, render_svg(spec, locations))
    return EXIT_EXISTS


def _parse_arity_flag(values: list[str] | None) -> tuple[tuple[int, int], ...]:
    if not values:
        return DEFAULT_SELFTEST_ARITIES
    pairs = []
    for value in values:
        bits = value.split(",")
        _require(len(bits) == 2, f"--arities wants Q1,Q2 pairs, got {value!r}")
        try:
            pairs.append((int(bits[0]), int(bits[1])))
        except ValueError as exc:
            raise InputError(f"--arities wants integers, got {value!r}") from exc
    return tuple(pairs)


def cmd_selftest(args: argparse.Namespace) -> int:
    arity_pairs = _parse_arity_flag(args.arities)
    for flag, value in (("--max-m", args.max_m), ("--max-len", args.max_len)):
        _require(value >= 0, f"{flag} must be >= 0, got {value}")
    if args.max_m >= 1:
        # the sweep constructs every spec; a lone (max_len, max_len) codeword has the largest grid
        for q1, q2 in arity_pairs:
            _guard_construct_size(ProblemSpec(Arities(q1, q2), ((args.max_len, args.max_len),)))
    from . import selftest

    return EXIT_EXISTS if selftest.run(arity_pairs, args.max_m, args.max_len) else EXIT_SELFTEST_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefixpack",
        description=(
            "Decide whether a two-channel prefix-free code with given codeword "
            "lengths exists, construct one, and report Kraft/entropy bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, help="instance file path")
        p.add_argument(
            "--format",
            choices=("json", "text"),
            default="json",
            help="instance file format (default json)",
        )

    p_decide = sub.add_parser("decide", help="print EXISTS/NOT-EXISTS and exit 0/1")
    add_input_flags(p_decide)
    p_decide.set_defaults(func=cmd_decide)

    p_construct = sub.add_parser("construct", help="emit a result file with a codebook")
    add_input_flags(p_construct)
    p_construct.add_argument("--output", help="result file path (default stdout)")
    p_construct.set_defaults(func=cmd_construct)

    p_kraft = sub.add_parser("kraft", help="print the exact Kraft sum")
    add_input_flags(p_kraft)
    p_kraft.set_defaults(func=cmd_kraft)

    p_entropy = sub.add_parser("entropy", help="print average length vs entropy")
    add_input_flags(p_entropy)
    p_entropy.set_defaults(func=cmd_entropy)

    p_render = sub.add_parser("render", help="draw the packing as an SVG diagram")
    add_input_flags(p_render)
    p_render.add_argument("--svg", required=True, help="SVG output path")
    p_render.set_defaults(func=cmd_render)

    p_selftest = sub.add_parser(
        "selftest", help="sweep small instances against the brute-force oracle"
    )
    p_selftest.add_argument("--max-m", type=int, default=5)
    p_selftest.add_argument("--max-len", type=int, default=2)
    default = " ".join(f"{q1},{q2}" for q1, q2 in DEFAULT_SELFTEST_ARITIES)
    p_selftest.add_argument(
        "--arities",
        action="append",
        metavar="Q1,Q2",
        help=f"arity pair to sweep (repeatable; default {default})",
    )
    p_selftest.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # No command leaves cyclic garbage that grows with its input, so the
    # collector's passes over the loaded rows only cost time: the full parse
    # of the seed-1 100k-codeword `wide` benchmark file took 46 ms paused and
    # 56 ms not (best of 15, CPython 3.11, 2-CPU Xeon).
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ValueError, OverflowError) as exc:  # OverflowError: a number too large for a float
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    finally:
        if gc_was_enabled:
            gc.enable()


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
