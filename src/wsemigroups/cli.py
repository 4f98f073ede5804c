"""Command-line interface.

Reads a semigroup description from a JSON file, runs one of the verbs
validate / analyze / maximals / poincare / expand / verify, and prints
either a human-readable report or (with --json) canonical JSON.  Exit
codes: 0 success, 1 a verification check found violations, 2 invalid
input or usage.  Identical invocations produce byte-identical output.
The direct form of a numerical input's Poincare series is printed
straight from the sorted jumps of its L-polynomial, two joins over
their decimal strings; every other series, alone or inside a
verification report, is rendered one %-format per numerator term.
Both give the bytes that encoding the series' `to_json()` would give.
An `analyze` gap list is rendered from the gap mask one block of 1000
values at a time, to the bytes that encoding the `gaps` tuple would
give.  A one-point `expand` is the window's membership bytes as
digits, to the bytes that encoding the expanded coefficients would
give: as `--json` the digit bytes are written between its commas by
one strided write, and as text its lines are joined one block of 1000
values at a time.  Every other value goes through one encoder.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import operator
import os
import sys
from dataclasses import dataclass, replace

from .checks import KIND_CHECKS, VerificationReport
from .errors import InputError
from .onepoint import (DeltaSequence, NumericalSemigroup, OnePointSemigroup,
                       direct_series, l_jumps, poincare_delta_product,
                       series_first_difference)
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
        # one C-level type scan per row, not a call per cell
        "strip": (_list_of(lambda row: type(row) is list
                           and {bool}.issuperset(map(type, row))),
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
    if cmd.json_output:
        if "gaps" not in summary:
            return 0, _dump(summary)
        # the fields before and after the gap mask, encoded on each side
        items = list(summary.items())
        at = list(summary).index("gaps")
        head, tail = _dump(dict(items[:at])), _dump(dict(items[at + 1:]))
        return 0, (head[:-1] + ',"gaps":' + _gaps_json(summary["gaps"], ",")
                   + "," + tail[1:])
    lines = []
    for key, value in summary.items():
        if key == "gaps":
            shown = _gaps_json(value, ", ")
        elif isinstance(value, str):
            shown = value
        else:
            shown = json.dumps(value, separators=(", ", ": "))
        lines.append(f"{key}: {shown}")
    return 0, "\n".join(lines)


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
            return 0, _direct_json(l_jumps(model.semigroup))
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
    digits = model.semigroup.indicator(window).translate(_BIT_DIGITS)
    if cmd.json_output:
        return 0, _coefficients_json(window, digits)
    (lo, _), = window.bounds
    digits = digits.decode()  # the bytes go before the lines are built
    return 0, _expand_lines(lo, digits)


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


def _series_json(series: RationalGF) -> str:
    """`_dump(series.to_json())`, one %-format per numerator term in
    place of a dict and a list per term."""
    term = '{"e":[' + ",".join(["%d"] * series.arity) + '],"c":%d}'
    terms = [term % (*e, c) for e, c in series.num.terms()]
    return ('{"num":[' + ",".join(terms) + '],"den":' + _dump(series.den)
            + "}")


def _direct_json(jumps) -> str:
    """`_series_json(poincare_direct(S))` from the sorted jumps of S's
    L-polynomial, whose signs alternate +1, -1, ..., +1: each (start,
    end) pair is joined by one separator and the pairs by the other, so
    the decimal strings are built once and no term is formatted."""
    digits = list(map(str, jumps))
    pairs = map('],"c":1},{"e":['.join, zip(digits[::2], digits[1::2]))
    return ('{"num":[{"e":[' + '],"c":-1},{"e":['.join([*pairs, digits[-1]])
            + '],"c":1}],"den":[[1]]}')


_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")  # a 0/1 byte as its digit

# the decimal strings of 0-999, bare for the first block of a gap list
# and padded to three digits after a later block's prefix
_DIGITS = tuple(map(str, range(1000)))
_PAD3 = tuple(f"{n:03d}" for n in range(1000))


def _gaps_json(gap, sep: str) -> str:
    """The JSON list, items joined by `sep`, of the n with gap[n] = 1.

    Block q of 1000 values is str(q) before each of its padded low parts,
    so the only Python-level step is one per block; a block with no gap
    is left out, prefix and all.
    """
    blocks = []
    for lo in range(0, len(gap), 1000):
        prefix = str(lo // 1000) if lo else ""
        low = (sep + prefix).join(itertools.compress(
            _PAD3 if lo else _DIGITS, gap[lo:lo + 1000]))
        if low:
            blocks.append(prefix + low)
    return "[" + sep.join(blocks) + "]"


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


@functools.cache
def _line_labels():
    """The labels "n: " of text `expand` lines, bare for the first block
    and padded to three digits after a later block's prefix; built on
    first use, so a process that never prints them holds none."""
    return (tuple(s + ": " for s in _DIGITS),
            tuple(s + ": " for s in _PAD3))


def _expand_lines(lo: int, digits: str) -> str:
    """The lines "n: d" for n = lo, lo + 1, ... and the digits d,
    joined by newlines.

    Block q >= 1 of 1000 values is str(q) before each of its padded
    labels, so the only Python-level step is one per block; a negative
    n takes its own line."""
    end = lo + len(digits)
    parts = [f"{n}: {d}" for n, d in zip(range(lo, min(end, 0)), digits)]
    bare, padded = _line_labels()
    n = max(lo, 0)
    while n < end:
        q, i = divmod(n, 1000)
        j = min(i + end - n, 1000)  # the block's labels i, ..., j - 1
        prefix, labels = (str(q), padded) if q else ("", bare)
        parts.append(prefix + ("\n" + prefix).join(map(
            operator.add, labels[i:j], digits[n - lo:n - lo + j - i])))
        n += j - i
    return "\n".join(parts)


def _report_json(rep: VerificationReport) -> str:
    """`_dump(rep.to_json())`, with the series rendered by `_series_json`
    between the window and the details."""
    if rep.series is None:
        return _dump(rep.to_json())
    head = _dump(replace(rep, series=None, details={}).to_json())
    details = ',"details":' + _dump(rep.details) if rep.details else ""
    return (head[:-1] + ',"series":' + _series_json(rep.series) + details
            + "}")


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


def run(cmd: argparse.Namespace):
    """Execute a parsed command; returns (exit code, output text)."""
    with open(cmd.path, "rb") as handle:
        data = handle.read()
    model = parse_input(data)
    return _HANDLERS[cmd.verb](model, cmd)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument tree, built on first use and shared by every call.

    Reuse is safe: argparse makes a fresh Namespace per parse, every
    default is immutable, and help and usage read the terminal width
    (COLUMNS) when they are formatted, not here.
    """
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
    try:
        code, text = run(_parser().parse_args(argv))
    except (ValueError, OSError) as exc:  # every library error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as exc:
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
