"""Command-line interface.

Reads a semigroup description from a JSON file, runs one of the verbs
validate / analyze / maximals / poincare / expand / verify, and prints
either a human-readable report or (with --json) canonical JSON.  Exit
codes: 0 success, 1 a verification check found violations, 2 invalid
input or usage.  Identical invocations produce byte-identical output.
Lists printed whole are read off selector bytes by one renderer,
`_decimal_parts`, a block of 1000 values per Python-level step and no
int formatted: the `analyze` gap list off the gap mask, text one-point
`expand` off its membership bytes (a negative n takes its own line) and
the direct form of a numerical input's Poincare series off the
L-polynomial's jump mask (a start is a +1 term, an end a -1 term), or
off its sorted jumps where they are too sparse in [0, c] for a mask.
One-point `expand --json` writes the digit bytes between its commas by
one strided write, and every other series, alone or in a verification
report, is rendered by columns: its sorted exponents as one column of
strings, each followed by a term tail looked up per distinct
coefficient.  Each such output is joined once, to the bytes that
encoding its value would give.  Every other value goes through one
encoder.

A canonical argv, the verb, its path and then each of the verb's options
at most once (`--json`, `--corner`, `--form F`, `--check C`, `--window`
and its ASCII integers), is parsed directly by `_canonical`; every other
argv, help, usage errors and abbreviations included, goes to argparse,
which is imported and built only then.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import types
from dataclasses import dataclass

from .checks import KIND_CHECKS, VerificationReport
from .errors import InputError
from .onepoint import (DeltaSequence, NumericalSemigroup, OnePointSemigroup,
                       direct_series, l_jump_count, l_jumps,
                       poincare_delta_product, series_first_difference)
from .oracle import Fixture, semigroup_from_fixture
from .series import RationalGF, Window
from .twopoint import TwoPointSemigroup

FORMS = ("direct", "closed", "corner")
# the checks a user can name: every input kind's, in table order
VERIFY_CHECKS = (*dict.fromkeys(
    name for names in KIND_CHECKS.values() for name in names), "all")


@dataclass
class Model:
    """A parsed input: the JSON kind and the validated semigroup."""

    kind: str
    semigroup: object

    @property
    def two_point(self):
        return isinstance(self.semigroup, TwoPointSemigroup)


def _is_int(x):
    return type(x) is int  # JSON integers only: not bools, not floats


def _list_of(accepts):
    return lambda value: type(value) is list and all(map(accepts, value))


_is_int_list = _list_of(_is_int)

# the JSON shape of every field an input kind reads, as (test, description)
_INT = (_is_int, "a JSON integer")
_INTS = (_is_int_list, "a list of JSON integers")
_FIELDS = {
    "numerical": {"generators": _INTS},
    "delta": {"r": _INTS, "extras": _INTS},
    "two_point_strip": {
        "genus": _INT, "period": _INT,
        # two C-level type scans, of the rows and then of every cell
        "strip": (lambda rows: type(rows) is list
                  and {list}.issuperset(map(type, rows)) and {bool}.issuperset(
                      map(type, itertools.chain.from_iterable(rows))),
                  "a list of rows of JSON booleans")},
    "two_point": {
        "genus": _INT, "period": _INT,
        "members": (_list_of(lambda p: _is_int_list(p) and len(p) == 2),
                    "a list of [m1, m2] integer pairs")},
    "fixture": {"name": (lambda x: type(x) is str, "a string"),
                "period": _INT},
}


def _check_fields(kind, obj):
    """Reject a present field of the wrong JSON type instead of letting
    the constructors coerce it."""
    for key, (accepts, shape) in _FIELDS.get(kind, {}).items():
        if key in obj and not accepts(obj[key]):
            got = json.dumps(obj[key])
            if len(got) > 60:
                got = got[:57] + "..."
            raise InputError(
                f"malformed {kind!r} input: {key!r} must be {shape}, got {got}")


def parse_input(data: bytes) -> Model:
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise InputError(f"malformed JSON: {exc}")
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError('input must be a JSON object with a "kind" field')
    kind = obj["kind"]
    if not isinstance(kind, str):
        raise InputError(f"input kind must be a string, got {json.dumps(kind)}")
    _check_fields(kind, obj)
    try:
        if kind == "numerical":
            return Model(kind, NumericalSemigroup(obj["generators"]))
        if kind == "delta":
            base = DeltaSequence(obj["r"])
            return Model(kind, OnePointSemigroup(base, obj.get("extras", ())))
        if kind == "two_point_strip":
            return Model(kind, TwoPointSemigroup(
                obj["genus"], obj["period"], obj["strip"]))
        if kind == "two_point":
            return Model(kind, TwoPointSemigroup.from_members(
                obj["genus"], obj["period"], obj["members"]))
        if kind == "fixture":
            return Model(kind, semigroup_from_fixture(
                Fixture(obj["name"], obj.get("period", 1))))
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed {kind!r} input: {exc!r}")
    raise InputError(f"unknown input kind {kind!r}")


def _resolve_window(model: Model, values) -> Window:
    if values is None:
        return model.semigroup.default_window()
    if model.two_point:
        if len(values) != 4:
            raise InputError(
                "two-point windows take four integers: m1lo m1hi m2lo m2hi")
        return Window((values[0], values[1]), (values[2], values[3]))
    if len(values) != 2:
        raise InputError("one-point windows take two integers: lo hi")
    return Window((values[0], values[1]))


# per-verb handlers; each returns (exit code, output text)

def _summary(model: Model) -> dict:
    S = model.semigroup
    if model.kind == "numerical":
        return {
            "kind": model.kind,
            "generators": list(S.generators),
            "conductor": S.conductor,
            "genus": S.genus,
            "gaps": S.gap_mask(),
            "symmetric": S.is_symmetric(),
        }
    if model.kind == "delta":
        first = series_first_difference(S)
        return {
            "kind": model.kind,
            "r": list(S.base.r),
            "theta": list(S.base.theta),
            "d": list(S.base.d),
            "extras": list(S.extras),
            "conductor": S.conductor,
            "genus": S.genus,
            "gaps": S.gap_mask(),
            "symmetric": S.is_symmetric(),
            "series_modes_agree": first is None,
            "series_first_difference": first,
        }
    out = {"kind": model.kind}
    if model.kind == "fixture":
        out["family"] = S.fixture.family
    out["genus"] = S.genus
    out["period"] = S.period
    out["gap_classes"] = S.gap_class_count()
    out["corner_maximals"] = S.corner_maximals()
    sigma, witnesses = S.find_symmetry_point()
    out["sigma"] = sigma
    out["symmetric"] = sigma is not None and not witnesses
    return out


def _describe(model: Model) -> str:
    S = model.semigroup
    if model.kind == "numerical":
        return (f"numerical semigroup: generators {S.generators}, "
                f"conductor {S.conductor}, genus {S.genus}")
    if model.kind == "delta":
        return (f"one-point semigroup: r {S.base.r}, extras {S.extras}, "
                f"conductor {S.conductor}, genus {S.genus}")
    if model.kind == "fixture":
        return (f"fixture: {S.fixture.family}, "
                f"period {S.fixture.period} (genus {S.genus})")
    return f"two-point semigroup: genus {S.genus}, period {S.period}"


def _run_validate(model: Model, cmd):
    if cmd.json_output:
        return 0, _dump({"ok": True, "kind": model.kind})
    return 0, f"valid {_describe(model)}"


def _run_analyze(model: Model, cmd):
    summary = _summary(model)
    render, sep, at = ((_dump, ",", '"gaps":[') if cmd.json_output
                       else (_summary_lines, ", ", "gaps: ["))
    if "gaps" not in summary:
        return 0, render(summary)
    # the summary with an empty gap list, split where the gaps go
    head, _, tail = render({**summary, "gaps": []}).partition(at + "]")
    return 0, _joined(head + at, _decimal_parts(summary["gaps"], (sep,)),
                      "]" + tail, len(sep))


def _summary_lines(summary: dict) -> str:
    return "\n".join(
        f"{key}: " + (value if isinstance(value, str)
                      else json.dumps(value, separators=(", ", ": ")))
        for key, value in summary.items())


def _run_maximals(model: Model, cmd):
    if not model.two_point:
        raise InputError("maximals needs a two-point input")
    S = model.semigroup
    if cmd.corner:
        points = S.corner_maximals()
        if cmd.json_output:
            return 0, _dump({"corner": points})
    else:
        window = _resolve_window(model, cmd.window)
        points = S.maximal_points_in(window)
        if cmd.json_output:
            return 0, _dump({"window": window.bounds, "maximals": points})
    return 0, "\n".join(str(p) for p in points)


def _run_poincare(model: Model, cmd):
    form = cmd.form or ("corner" if model.two_point else "direct")
    if model.two_point:
        if form != "corner":
            raise InputError(f"form {form!r} needs a one-point input")
        series = model.semigroup.poincare_corner()
    elif form == "corner":
        raise InputError("form 'corner' needs a two-point input")
    elif form == "direct":
        if model.kind == "numerical":
            return 0, _direct_json(model.semigroup)
        series = direct_series(model.semigroup)
    else:  # closed: the delta product of the chain
        series = poincare_delta_product(
            model.semigroup.base if model.kind == "delta"
            else DeltaSequence(model.semigroup.generators))
    return 0, _series_json(series)


def _run_expand(model: Model, cmd):
    window = _resolve_window(model, cmd.window)
    if model.two_point:
        S = model.semigroup
        (lo1, hi1), (lo2, hi2) = window.bounds
        # one digit per cell, so each row comes as text, already separated
        if cmd.json_output:
            rows = S.dim_jump_digits(window, ",")
            return 0, ('{"window":' + _dump(window.bounds) + ',"dim_jump":[['
                       + "],[".join(rows) + "]]}")
        rows = S.dim_jump_digits(window, " ")
        head = f"dim_jump on m1 in [{lo1}, {hi1}], m2 in [{lo2}, {hi2}]"
        return 0, "\n".join([head, *map("{}: {}".format,
                                         range(lo1, hi1 + 1), rows)])
    # every one-point coefficient is a membership byte, one digit each
    if cmd.json_output:
        return 0, _coefficients_json(
            window, model.semigroup.indicator(window).translate(_BIT_DIGITS))
    (lo, hi), = window.bounds
    member = model.semigroup.indicator(window)  # a huge window fails here
    # a negative n takes its own line; from 0 on, the line "n: d" is
    # chosen by selector byte 2 (n - max(lo, 0)) + d
    lines = [f"{n}: 0\n" for n in range(lo, min(hi + 1, 0))]
    sel = bytearray(2 * (len(member) - len(lines)))
    sel[1::2] = member[len(lines):]
    del member
    sel[::2] = sel[1::2].translate(_FLIP)
    lines += _decimal_parts(sel, (": 0\n", ": 1\n"), max(lo, 0))
    del sel  # only the lines and their join are held at the peak
    return 0, _joined("", lines, "", 1)


def _run_verify(model: Model, cmd):
    S = model.semigroup
    window = _resolve_window(model, cmd.window)
    names = S.CHECKS if cmd.check == "all" else (cmd.check,)
    reports = [S.verify(name, window) for name in names]
    passed = all(r.passed for r in reports)
    code = 0 if passed else 1
    if cmd.json_output:
        if cmd.check == "all":
            return code, ('{"pass":' + _dump(passed) + ',"checks":['
                          + ",".join(map(_report_json, reports)) + "]}")
        return code, _report_json(reports[0])
    lines = []
    for rep in reports:
        lines.extend(_report_lines(rep))
    if cmd.check == "all":
        lines.append(f"overall: {'pass' if passed else 'fail'}")
    return code, "\n".join(lines)


def _report_lines(rep: VerificationReport):
    head = f"{rep.check}: {'pass' if rep.passed else 'fail'}"
    if "eps_l" in rep.details:
        head += (f" (eps_l={rep.details['eps_l']}, "
                 f"eps_p={rep.details['eps_p']}; opposite signs fail)")
    if rep.witnesses:
        head += f" ({len(rep.witnesses)} witnesses)"
    return [head] + [f"  {w}" for w in rep.witnesses]


def _series_json(series: RationalGF, head="", tail="") -> str:
    """head + `_dump(series.to_json())` + tail, rendered by columns and
    joined once: the sorted exponents as one column of strings (one str
    per exponent in one variable, one format per term in two), each
    followed by its term's tail `],"c":k},{"e":[`, one string per
    distinct coefficient k, and the last tail cut before the next term."""
    num = series.num._terms
    keys = sorted(num)
    den = '],"den":' + _dump(series.den) + "}" + tail
    if not keys:
        return head + '{"num":[' + den
    if series.arity == 1:
        exponents = map(str, itertools.chain.from_iterable(keys))
    else:
        exponents = map(",".join(["%d"] * series.arity).__mod__, keys)
    tails = {c: '],"c":%d},{"e":[' % c for c in set(num.values())}
    parts = [None] * (2 * len(keys))
    parts[::2] = exponents
    parts[1::2] = map(tails.__getitem__, map(num.__getitem__, keys))
    parts[-1] = parts[-1][:-len(',{"e":[')] + den
    return "".join([head, '{"num":[{"e":[', *parts])


def _direct_json(S) -> str:
    """`_series_json(poincare_direct(S))` of a numerical S, each jump of L
    with its term's tail (a start is +1, an end -1, c the last start): off
    the jump mask where its scan and tables (about 25 ns a value of [0, c]
    and 0.25 ms) cost less than a str() a jump (250 ns), else off the
    (start, end) pairs of `l_jumps`; so the cost grows with the terms."""
    head, tail = '{"num":[{"e":[', '],"c":1}],"den":[[1]]}'
    start, end = _JUMP_SUFFIXES
    if S.conductor + 10_000 < 10 * l_jump_count(S):
        return _joined(head, _decimal_parts(S.jump_mask(), _JUMP_SUFFIXES),
                       tail, len(start))
    digits = list(map(str, l_jumps(S)))
    parts = [*map(start.join, zip(digits[::2], digits[1::2])), digits[-1]]
    parts[0] = head + parts[0]
    parts[-1] += tail
    return end.join(parts)


_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")  # a 0/1 byte as its digit
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")  # swaps a mask's 0 and 1 bytes
# what follows the exponent of a +1 (start) and a -1 (end) direct term
_JUMP_SUFFIXES = ('],"c":1},{"e":[', '],"c":-1},{"e":[')

# the decimal strings of 0-999, bare for block 0 and padded to three
# digits after a later block's prefix
_DIGITS = tuple(map(str, range(1000)))
_PAD3 = tuple(f"{n:03d}" for n in range(1000))


def _decimal_parts(sel, suffixes, start=0) -> list:
    """Strings whose concatenation is str(n) + suffixes[j] for every set
    byte k (n - start) + j of sel, in order, where k = len(suffixes) and
    0 <= start <= n.

    Block q of 1000 values is str(q) before each of its padded low parts,
    so the only Python-level step is one per block and no int is
    formatted; a block with no set byte is left out, prefix and all.  A
    lone suffix is the join's separator over the digit tables; two or
    more take tables with each suffix appended, built per call, so no
    process holds them once its output is joined.
    """
    k = len(suffixes)
    tables, glue, end = (_DIGITS, _PAD3), suffixes[0], suffixes
    if k > 1:  # entry k i + j: low part i, suffix j
        padded = [s + suffix for s in _PAD3 for suffix in suffixes]
        # from 100 on, a bare low part is its padded one
        tables, glue, end = ([s + suffix for s in _DIGITS[:100] for suffix
                              in suffixes] + padded[100 * k:], padded), "", ()
    if start % 1000:  # pad the selector back to the start of its block
        sel = bytes(k * (start % 1000)) + sel
    parts = []
    for q, at in enumerate(range(0, len(sel), 1000 * k), start // 1000):
        prefix, table = (str(q), tables[1]) if q else ("", tables[0])
        low = (glue + prefix).join(itertools.compress(
            table, sel[at:at + 1000 * k]))
        if low:
            parts += (prefix, low, *end)
    return parts


def _joined(head: str, parts: list, tail: str, drop: int) -> str:
    """head + "".join(parts)[:-drop] + tail, with one join."""
    if parts:
        parts[-1] = parts[-1][:-drop]
    return "".join([head, *parts, tail])


def _coefficients_json(window: Window, digits: bytes) -> str:
    """The `--json` output of one-point `expand`, the digit bytes
    written one strided slice between the commas."""
    head = ('{"window":' + _dump(window.bounds) + ',"coefficients":[').encode()
    n, at = len(digits), len(head)
    out = bytearray(b",") * (at + 2 * n + 1)
    out[:at] = head
    out[at:at + 2 * n - 1:2] = digits
    out[-2:] = b"]}"
    return out.decode()


def _report_json(rep: VerificationReport) -> str:
    """`_dump(rep.to_json())`, with the series rendered by `_series_json`
    between the window and the details, in its one join."""
    if rep.series is None:
        return _dump(rep.to_json())
    head = {"check": rep.check, "pass": rep.passed,
            "witnesses": rep.witnesses}
    if rep.window is not None:
        head["window"] = rep.window
    details = ',"details":' + _dump(rep.details) if rep.details else ""
    return _series_json(rep.series, _dump(head)[:-1] + ',"series":',
                        details + "}")


# one encoder for every dump; library values are fresh acyclic trees, and a
# cycle would end in the RecursionError that main reports as exit 2
_dump = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


_HANDLERS = {
    "validate": _run_validate,
    "analyze": _run_analyze,
    "maximals": _run_maximals,
    "poincare": _run_poincare,
    "expand": _run_expand,
    "verify": _run_verify,
}


def run(cmd):
    """Execute a parsed command; returns (exit code, output text)."""
    with open(cmd.path, "rb") as handle:
        data = handle.read()
    model = parse_input(data)
    return _HANDLERS[cmd.verb](model, cmd)


# what a canonical argv may give each verb after its path: an option's
# field and its values, None for a flag, a tuple of choices for one
# token, int for --window's one or more integers
_JSON = {"--json": ("json_output", None)}
_WINDOW = {"--window": ("window", int)}
_VERB_OPTIONS = {
    "validate": _JSON,
    "analyze": _JSON,
    "maximals": {**_JSON, "--corner": ("corner", None)},
    "poincare": {**_JSON, "--form": ("form", FORMS)},
    "expand": {**_JSON, **_WINDOW},
    "verify": {**_JSON, "--check": ("check", VERIFY_CHECKS), **_WINDOW},
}


def _is_int_token(token):
    digits = token[token[:1] == "-":]  # ASCII -?[0-9]+, as argparse takes
    return digits.isascii() and digits.isdigit()


def _canonical(argv):
    """The fields `_parser().parse_args(argv)` gives a canonical argv,
    `verb path` and then each option of the verb at most once; None for
    every other argv, so that argparse keeps all help and error text."""
    options = _VERB_OPTIONS.get(argv[0]) if argv else None
    if options is None or len(argv) < 2 or argv[1].startswith("-"):
        return None
    cmd = dict(verb=argv[0], path=argv[1], json_output=False, window=None,
               form=None, check=None, corner=False)
    seen, i = set(), 2
    while i < len(argv):
        field, values = options.get(argv[i], (None, None))
        if field is None or field in seen:
            return None
        seen.add(field)
        i += 1
        if values is None:
            cmd[field] = True
        elif values is int:
            start = i
            while i < len(argv) and _is_int_token(argv[i]):
                i += 1
            if i == start:
                return None
            try:
                cmd[field] = list(map(int, argv[start:i]))
            except ValueError:  # past the int digit limit: argparse's error
                return None
        elif i < len(argv) and argv[i] in values:
            cmd[field] = argv[i]
            i += 1
        else:
            return None
    if argv[0] == "verify" and cmd["check"] is None:
        return None  # --check is required
    return types.SimpleNamespace(**cmd)


@functools.cache
def _parser():
    """The argument tree, built on first use and shared by every call.

    Reuse is safe: argparse makes a fresh Namespace per parse, every
    default is immutable, and help and usage read the terminal width
    (COLUMNS) when they are formatted, not here.
    """
    import argparse  # only argv that `_canonical` declines comes here

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", dest="json_output",
                        help="emit canonical JSON instead of text")
    # every verb's Namespace carries every field the handlers read
    common.set_defaults(window=None, form=None, check=None, corner=False)
    parser = argparse.ArgumentParser(
        prog="wsemigroups",
        description="exact Weierstrass semigroup computations")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="parse and fully validate the input")
    p.add_argument("path")

    p = sub.add_parser("analyze", parents=[common],
                       help="print structural invariants")
    p.add_argument("path")

    p = sub.add_parser("maximals", parents=[common],
                       help="maximal points (two-point inputs)")
    p.add_argument("path")
    p.add_argument("--corner", action="store_true",
                   help="only the fundamental-corner representatives")

    p = sub.add_parser("poincare", parents=[common],
                       help="print a Poincare series as JSON")
    p.add_argument("path")
    p.add_argument("--form", choices=FORMS, default=None)

    p = sub.add_parser("expand", parents=[common],
                       help="series coefficients / dimension table")
    p.add_argument("path")
    p.add_argument("--window", type=int, nargs="+", default=None,
                   help="lo hi (one variable) or m1lo m1hi m2lo m2hi")

    p = sub.add_parser("verify", parents=[common],
                       help="run a named verification check")
    p.add_argument("path")
    p.add_argument("--check", choices=VERIFY_CHECKS, required=True)
    p.add_argument("--window", type=int, nargs="+", default=None,
                   help="lo hi (one variable) or m1lo m1hi m2lo m2hi")

    return parser


def main(argv=None) -> int:
    """Run one CLI call and print its output; returns the exit code.

    A canonical argv is parsed by `_canonical`; any other, and every
    `-h`, abbreviation or usage error, by argparse, which exits 0 after
    help and 2 after a usage error.
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        code, text = run(_canonical(argv) or _parser().parse_args(argv))
    except (ValueError, OSError) as exc:  # every library error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError, RecursionError) as exc:
        print(f"error: input too large ({type(exc).__name__})", file=sys.stderr)
        return 2
    if text:
        print(text)
    return code


def entry():
    try:
        code = main()
        sys.stdout.flush()  # a closed reader fails here, not at exit
    except BrokenPipeError:
        # the interpreter flushes stdout again on exit; send that to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before all output was written",
              file=sys.stderr)
        code = 2
    raise SystemExit(code)
