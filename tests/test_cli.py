"""Command-line interface: parsing, verbs, exit codes, output determinism."""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsemigroups import (
    DeltaSequence,
    LaurentPoly,
    NumericalSemigroup,
    RationalGF,
    Window,
    direct_series,
    poincare_delta_product,
    poincare_direct,
)
import wsemigroups
from wsemigroups import CHECKS, TwoPointSemigroup, VerificationReport, cli
from wsemigroups.cli import parse_input
from wsemigroups.onepoint import _AperySemigroup, l_jumps
from wsemigroups.oracle import FixtureSemigroup, d_oracle
from wsemigroups.twopoint import interior_region

import twopoint_oracle as oracle
from onepoint_oracle import direct_json_by_pairs, gaps_json_by_blocks
from series_oracle import series_from_json


def invoke(argv, capsys):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def ns23(tmp_path):
    return write(tmp_path, "ns-23.json", {"kind": "numerical", "generators": [2, 3]})


@pytest.fixture
def elliptic2(tmp_path):
    return write(tmp_path, "fixture-elliptic2.json",
                 {"kind": "fixture", "name": "elliptic", "period": 2})


# ---------------------------------------------------------------- parse_input

def test_parse_numerical():
    model = parse_input(b'{"kind":"numerical","generators":[4,6,7]}')
    assert model.kind == "numerical"
    assert model.semigroup.genus == 5


def test_parse_fixture_elliptic():
    model = parse_input(b'{"kind":"fixture","name":"elliptic","period":2}')
    assert model.kind == "fixture"
    assert model.semigroup.fixture.period == 2
    assert model.two_point
    assert (model.semigroup.genus, model.semigroup.period) == (1, 2)


def test_parse_strip_missing_origin_exits_2(tmp_path, capsys):
    path = write(tmp_path, "bad-strip.json", {
        "kind": "two_point_strip", "genus": 1, "period": 2,
        "strip": [[False, True], [False, False]]})
    code, _, err = invoke(["validate", path], capsys)
    assert code == 2
    assert err.startswith("error:")
    assert "origin" in err


def test_parse_malformed_and_unknown_kind(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, _, err = invoke(["validate", str(bad)], capsys)
    assert code == 2 and "malformed JSON" in err

    unk = write(tmp_path, "unk.json", {"kind": "mystery"})
    code, _, err = invoke(["validate", unk], capsys)
    assert code == 2 and "unknown input kind" in err


def test_missing_file_exits_2(tmp_path, capsys):
    code, _, err = invoke(["validate", str(tmp_path / "nope.json")], capsys)
    assert code == 2
    assert err.startswith("error:")


# a field of the wrong JSON type exits 2; raw text keeps 1e1 a float
def exits_2_naming(tmp_path, capsys, text, field):
    path = tmp_path / "malformed.json"
    path.write_text(text)
    code, out, err = invoke(["analyze", str(path), "--json"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and repr(field) in err


def test_parse_rejects_bool_generator(tmp_path, capsys):
    exits_2_naming(tmp_path, capsys,
                   '{"kind":"numerical","generators":[true]}', "generators")


def test_parse_rejects_string_generators(tmp_path, capsys):
    exits_2_naming(tmp_path, capsys,
                   '{"kind":"numerical","generators":["4","5"]}', "generators")


def test_parse_rejects_float_fixture_period(tmp_path, capsys):
    exits_2_naming(tmp_path, capsys,
                   '{"kind":"fixture","name":"elliptic","period":2.7}', "period")


def test_parse_rejects_string_strip_row(tmp_path, capsys):
    exits_2_naming(
        tmp_path, capsys,
        '{"kind":"two_point_strip","genus":1,"period":2,"strip":["ab","  "]}',
        "strip")


@pytest.mark.parametrize("strip, got", [
    ([[True, False], [False, 1]], "[[true, false], [false, 1]]"),
    ([[True, False], [None]], "[[true, false], [null]]"),
    ([[True, False], 7], "[[true, false], 7]"),
    ([[True, False], {"0": True}], '[[true, false], {"0": true}]'),
    ({"0": [True]}, '{"0": [true]}'),
    (["ab", [True, False]], '["ab", [true, false]]'),
    ([[True, False], [False, True], 5], "[[true, false], [false, true], 5]"),
    ([[True, False], [False, "1"]], '[[true, false], [false, "1"]]'),
])
def test_strip_shape_error_text(strip, got):
    data = json.dumps({"kind": "two_point_strip", "genus": 1, "period": 2,
                       "strip": strip}).encode()
    with pytest.raises(wsemigroups.InputError) as exc:
        parse_input(data)
    assert str(exc.value) == (
        "malformed 'two_point_strip' input: 'strip' must be a list of rows"
        f" of JSON booleans, got {got}")


def test_parse_rejects_float_genus(tmp_path, capsys):
    exits_2_naming(
        tmp_path, capsys,
        '{"kind":"two_point","genus":1e1,"period":2,"members":[[1,1]]}',
        "genus")


# ------------------------------------------------------- contract invocations

def test_verify_c_identity_passes(elliptic2, capsys):
    code, out, _ = invoke(
        ["verify", elliptic2, "--check", "c_identity", "--window", "-6", "6", "-6", "6"],
        capsys)
    assert code == 0
    assert "c_identity: pass" in out


def test_verify_c_prop_witnesses(elliptic2, capsys):
    argv = ["verify", elliptic2, "--check", "c_prop",
            "--window", "-6", "6", "-6", "6", "--json"]
    code, out, _ = invoke(argv, capsys)
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert {tuple(w) for w in report["witnesses"]} == {(1, 1), (3, -1), (-1, 3)}


def test_poincare_ns23_direct_exact_bytes(ns23, capsys):
    code, out, _ = invoke(["poincare", ns23, "--form", "direct"], capsys)
    assert code == 0
    assert out == '{"num":[{"e":[0],"c":1},{"e":[1],"c":-1},{"e":[2],"c":1}],"den":[[1]]}\n'


# ------------------------------------------------------------------ validate

def test_validate_text_and_json(ns23, capsys):
    code, out, _ = invoke(["validate", ns23], capsys)
    assert code == 0 and "valid" in out
    code, out, _ = invoke(["validate", ns23, "--json"], capsys)
    assert code == 0
    assert json.loads(out) == {"ok": True, "kind": "numerical"}


def test_validate_huge_conductor(tmp_path, capsys):
    # the Apery set of <2, b> has two entries whatever the conductor b - 1
    path = write(tmp_path, "huge.json",
                 {"kind": "numerical", "generators": [2, 1000000000001]})
    code, out, err = invoke(["validate", path], capsys)
    assert (code, err) == (0, "")
    assert out == ("valid numerical semigroup: generators (2, 1000000000001), "
                   "conductor 1000000000000, genus 500000000000\n")


@pytest.mark.parametrize("exhausted", [MemoryError, RecursionError])
def test_resource_exhaustion_exits_2(ns23, capsys, monkeypatch, exhausted):
    def handler(model, cmd):
        raise exhausted()

    monkeypatch.setitem(cli._HANDLERS, "analyze", handler)
    code, out, err = invoke(["analyze", ns23], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: input too large ({exhausted.__name__})\n"


def test_validate_delta_with_huge_conductor(tmp_path, capsys, monkeypatch):
    # a free chain is proved free by h Apery tests and its conductor is the
    # base one, so nothing of size c is built; the stubs fail any expansion
    # or membership mask above 10^7 cells, which a dense count would need
    expand, mask = RationalGF.expand, _AperySemigroup.mask

    def bounded_expand(self, window):
        ((lo, hi),) = window.bounds
        if hi - lo > 10**7:
            raise MemoryError
        return expand(self, window)

    def bounded_mask(self, hi):
        if hi > 10**7:
            raise MemoryError
        return mask(self, hi)

    monkeypatch.setattr(RationalGF, "expand", bounded_expand)
    # mask is defined once, for both one-point classes
    monkeypatch.setattr(_AperySemigroup, "mask", bounded_mask)
    path = write(tmp_path, "huge.json", {"kind": "delta", "r": [2, 10**12 + 1]})
    code, out, err = invoke(["validate", path], capsys)
    assert (code, err) == (0, "")
    assert out == ("valid one-point semigroup: r (2, 1000000000001), "
                   "extras (), conductor 1000000000000, "
                   "genus 500000000000\n")


@pytest.mark.parametrize("payload", [
    {"kind": "numerical", "generators": [10**9, 10**9 + 1]},
    {"kind": "delta", "r": [10**9, 10**9 + 1]}], ids=["numerical", "delta"])
def test_multiplicity_over_the_budget_exits_2_at_once(payload, tmp_path,
                                                      capsys):
    # the Apery table of <10^9, 10^9 + 1> would hold 10^9 entries
    path = write(tmp_path, "huge.json", payload)
    tracemalloc.start()
    try:
        code, out, err = invoke(["validate", path], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == ("error: multiplicity 1000000000 exceeds the budget "
                   "1048576 (the Apery table has one entry per residue "
                   "modulo it)\n")
    assert peak < 1_000_000


def test_relaxation_budget_exits_2_at_once(tmp_path, capsys):
    # <2048, ..., 4095> relaxes 2047 generator classes from each of 2048
    # residues, over the budget, though its multiplicity is within its own
    path = write(tmp_path, "dense.json",
                 {"kind": "numerical", "generators": list(range(2048, 4096))})
    tracemalloc.start()
    try:
        code, out, err = invoke(["validate", path], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == ("error: multiplicity 2048 times 2047 generator classes "
                   "exceeds the budget 2097152 (the Apery table's Dijkstra "
                   "relaxes every class from every residue)\n")
    assert peak < 1_000_000


@pytest.mark.parametrize("payload, cells", [
    ({"kind": "two_point", "genus": 10**8, "period": 1, "members": []},
     2 * 10**8),
    ({"kind": "two_point_strip", "genus": 10**8, "period": 1, "strip": []},
     2 * 10**8),
    ({"kind": "fixture", "name": "elliptic", "period": 10**9}, 2 * 10**9)],
    ids=["two_point", "two_point_strip", "fixture"])
def test_strip_over_the_budget_exits_2_at_once(payload, cells, tmp_path,
                                               capsys):
    # from_members would build 2 * 10^8 row lists, the fixture builder
    # make 2 * 10^9 member() calls
    path = write(tmp_path, "huge.json", payload)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, err = invoke(["validate", path], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (f"error: strip of 2*genus*period = {cells} cells exceeds "
                   "the budget 4194304 (the strip is built cell by cell)\n")
    assert peak < 1_000_000


HUGE = str(10**20)  # past sys.maxsize, so no index can reach it


@pytest.mark.parametrize("name, argv", [
    ("ns23", ["--json", "--window", "-" + HUGE, "5"]),
    ("ns23", ["--json", "--window", "0", HUGE]),
    ("ns23", ["--window", "0", HUGE]),
    ("ns23", ["--window", "-" + HUGE, "5"]),
    ("elliptic2", ["--window", "0", "3", "-" + HUGE, "5"]),
    ("elliptic2", ["--json", "--window", "0", "3", "-" + HUGE, "5"])],
    ids=["json-below", "json-above", "text-above", "text-below",
         "two-point-text", "two-point-json"])
def test_expand_window_past_the_index_range_exits_2_at_once(
        name, argv, request, capsys):
    # the output is sized before a line of it is built, and the size
    # overflows; text one-point expand once built a line per negative n
    path = request.getfixturevalue(name)
    start = time.perf_counter()
    code, out, err = invoke(["expand", path, *argv], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == \
        (2, "", "error: input too large (OverflowError)\n")


# ------------------------------------------------------------------- analyze

def test_analyze_numerical_json(ns23, capsys):
    code, out, _ = invoke(["analyze", ns23, "--json"], capsys)
    assert code == 0
    info = json.loads(out)
    assert info["generators"] == [2, 3]
    assert info["conductor"] == 2
    assert info["genus"] == 1
    assert info["symmetric"] is True


def test_analyze_fixture_json(elliptic2, capsys):
    code, out, _ = invoke(["analyze", elliptic2, "--json"], capsys)
    assert code == 0
    info = json.loads(out)
    assert info["family"] == "elliptic"
    assert info["corner_maximals"] == [[1, 1], [2, -2]]
    assert info["sigma"] == [1, 1]
    assert info["symmetric"] is True


def test_analyze_delta_reports_mode_disagreement(tmp_path, capsys):
    path = write(tmp_path, "delta.json",
                 {"kind": "delta", "r": [4, 6, 7], "extras": [9]})
    code, out, _ = invoke(["analyze", path, "--json"], capsys)
    assert code == 0
    info = json.loads(out)
    assert info["series_modes_agree"] is False
    assert info["series_first_difference"] == 18


# ------------------------------------------------------------------ maximals

def test_maximals_corner(elliptic2, capsys):
    code, out, _ = invoke(["maximals", elliptic2, "--corner", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["corner"] == [[1, 1], [2, -2]]


def test_maximals_default_window_scan(elliptic2, capsys):
    code, out, _ = invoke(["maximals", elliptic2, "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["window"] == [[-8, 8], [-8, 8]]
    # every listed point is a period translate of a corner maximal
    sg = parse_input(
        b'{"kind":"fixture","name":"elliptic","period":2}').semigroup
    corner = set(sg.corner_maximals())
    assert all(sg.normalize(tuple(p)) in corner for p in data["maximals"])
    assert [1, 1] in data["maximals"] and [2, -2] in data["maximals"]
    assert [3, -1] in data["maximals"] and [-1, 3] in data["maximals"]


def test_maximals_rejects_one_point(ns23, capsys):
    code, _, err = invoke(["maximals", ns23], capsys)
    assert code == 2 and "two-point" in err


# ------------------------------------------------------------------ poincare

def test_poincare_forms_round_trip(tmp_path, capsys):
    # every emitted series re-parses to an object equal to the library one
    ns = write(tmp_path, "ns.json", {"kind": "numerical", "generators": [4, 6, 7]})
    lib = poincare_direct(NumericalSemigroup((4, 6, 7)))
    code, out, _ = invoke(["poincare", ns, "--form", "direct"], capsys)
    assert code == 0
    assert series_from_json(json.loads(out)).equals(lib)

    code, out, _ = invoke(["poincare", ns, "--form", "closed"], capsys)
    assert code == 0
    closed = series_from_json(json.loads(out))
    assert closed.equals(poincare_delta_product(DeltaSequence((4, 6, 7))))


def test_poincare_corner_two_point(elliptic2, capsys):
    code, out, _ = invoke(["poincare", elliptic2, "--form", "corner"], capsys)
    assert code == 0
    gf = series_from_json(json.loads(out))
    window = Window((-2, 2), (-2, 2))
    coeffs = dict(zip(window.points(), gf.expand(window), strict=True))
    assert coeffs[(1, 1)] == 1 and coeffs[(2, -2)] == 1
    assert coeffs[(0, 0)] == 0 and coeffs[(1, 0)] == 0


def test_poincare_form_paper_is_refused(ns23, capsys):
    # the published form is gone; argparse refuses it like any other word
    code, out, err = invoke(["poincare", ns23, "--form", "paper"], capsys)
    assert (code, out) == (2, "")
    assert "argument --form: invalid choice: 'paper'" in err
    assert "Traceback" not in err


def test_poincare_form_model_mismatch(ns23, elliptic2, capsys):
    code, _, err = invoke(["poincare", elliptic2, "--form", "direct"], capsys)
    assert code == 2 and "one-point" in err
    code, _, err = invoke(["poincare", ns23, "--form", "corner"], capsys)
    assert code == 2 and "two-point" in err


# -------------------------------------------------------------------- expand

def test_expand_one_point_window(tmp_path, capsys):
    path = write(tmp_path, "d467.json", {"kind": "delta", "r": [4, 6, 7]})
    code, out, _ = invoke(["expand", path, "--window", "0", "12", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"] == [1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 1]


def test_expand_two_point_dim_jump_table(elliptic2, capsys):
    code, out, _ = invoke(
        ["expand", elliptic2, "--window", "0", "1", "-1", "1", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["window"] == [[0, 1], [-1, 1]]
    # rows indexed by m1, columns by m2
    assert data["dim_jump"] == [[0, 1, 1], [0, 1, 1]]


def test_expand_bad_window_arity(elliptic2, capsys):
    code, _, err = invoke(["expand", elliptic2, "--window", "0", "1", "2"], capsys)
    assert code == 2 and "window" in err


# -------------------------------------------------------------------- verify

def test_verify_all_enumerates_subchecks(elliptic2, capsys):
    code, out, _ = invoke(["verify", elliptic2, "--check", "all",
                           "--window", "-6", "6", "-6", "6", "--json"], capsys)
    assert code == 1  # c_prop and d_agreement report their known witnesses
    report = json.loads(out)
    ids = [entry["check"] for entry in report["checks"]]
    assert ids == ["closure", "c_prop", "c_identity", "corner_translates",
                   "lemma4", "d_agreement", "symmetry", "funceq", "oracle"]
    by_id = {entry["check"]: entry for entry in report["checks"]}
    assert by_id["c_identity"]["pass"] is True
    assert by_id["oracle"]["pass"] is True
    assert by_id["c_prop"]["pass"] is False
    assert report["pass"] is False


def test_verify_oracle_needs_fixture(tmp_path, capsys):
    path = write(tmp_path, "strip.json", {
        "kind": "two_point_strip", "genus": 1, "period": 2,
        "strip": [[True, False], [False, False]]})
    code, _, err = invoke(["verify", path, "--check", "oracle"], capsys)
    assert code == 2 and "fixture" in err


@pytest.mark.parametrize("payload", [
    {"kind": "numerical", "generators": [3, 5]},
    {"kind": "delta", "r": [4, 6, 7], "extras": [9]},
])
def test_verify_oracle_on_one_point_needs_fixture(payload, tmp_path, capsys):
    path = write(tmp_path, "input.json", payload)
    code, out, err = invoke(["verify", path, "--check", "oracle"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: check 'oracle' needs a fixture input\n"


def test_verify_one_point_checks(tmp_path, capsys):
    path = write(tmp_path, "ns467.json",
                 {"kind": "numerical", "generators": [4, 6, 7]})
    code, out, _ = invoke(["verify", path, "--check", "funceq"], capsys)
    assert code == 0
    assert "eps_l=1" in out and "eps_p=-1" in out

    code, _, err = invoke(["verify", path, "--check", "c_prop"], capsys)
    assert code == 2 and "two-point" in err


def test_every_check_of_every_kind_is_a_check_choice():
    kinds = (wsemigroups.NumericalSemigroup, wsemigroups.OnePointSemigroup,
             TwoPointSemigroup, FixtureSemigroup)
    assert set(cli.VERIFY_CHECKS) == {"all"}.union(
        *(kind.CHECKS for kind in kinds))


_ONE_POINT_ONLY = {"indicator": "one-point", "l_identity": "one-point",
                   "delta_product": "delta"}


@pytest.mark.parametrize("check", sorted(_ONE_POINT_ONLY))
@pytest.mark.parametrize("payload", [
    {"kind": "numerical", "generators": [4, 6, 7]},
    {"kind": "numerical", "generators": [3, 4, 5]},
    {"kind": "delta", "r": [4, 6, 7]},
    {"kind": "delta", "r": [4, 6, 7], "extras": [9]},
    {"kind": "fixture", "name": "elliptic", "period": 2},
    {"kind": "two_point", "genus": 2, "period": 3, "members": [[1, 1]]},
], ids=["ns-467", "ns-345", "delta-467", "delta-extras", "fixture",
        "two-point"])
def test_one_point_checks_are_selectable_by_name(check, payload, tmp_path,
                                                  capsys):
    path = write(tmp_path, "input.json", payload)
    S = parse_input(json.dumps(payload).encode()).semigroup
    for flags in ([], ["--json"]):
        code, out, err = invoke(["verify", path, "--check", check, *flags],
                                capsys)
        if check in S.CHECKS:
            assert (code, err) == (0 if S.verify(check).passed else 1, "")
            assert out.startswith(f'{{"check":"{check}","pass":' if flags
                                  else f"{check}: ")
        else:
            need = "delta" if payload["kind"] == "numerical" else \
                _ONE_POINT_ONLY[check]
            assert (code, out) == (2, "")
            assert err == f"error: check {check!r} needs a {need} input\n"


def test_verify_symmetry_failure_lists_witnesses(tmp_path, capsys):
    path = write(tmp_path, "ns345.json",
                 {"kind": "numerical", "generators": [3, 4, 5]})
    code, out, _ = invoke(["verify", path, "--check", "symmetry", "--json"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False and report["witnesses"] == [1]


@pytest.mark.parametrize("check", ["symmetry", "funceq"])
@pytest.mark.parametrize("window", [["5", "0"], ["3"], ["-6", "6", "-6", "6"]])
def test_verify_rejects_malformed_one_point_window(check, window, tmp_path,
                                                   capsys):
    # checks that read no window still reject a malformed one
    path = write(tmp_path, "ns345.json",
                 {"kind": "numerical", "generators": [3, 4, 5]})
    code, out, err = invoke(["verify", path, "--check", check,
                             "--window", *window], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_closed_stdout_exits_2_without_traceback(tmp_path):
    # the expansion of <2, 200001> on its default window [0, 600000]
    # outgrows the pipe buffer, so the writer is still writing when the
    # reader goes away
    path = write(tmp_path, "ns2.json",
                 {"kind": "numerical", "generators": [2, 200001]})
    src = str(Path(wsemigroups.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-m", "wsemigroups", "expand", path, "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(150)) == 150
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_window_needs_interior(elliptic2, capsys):
    code, _, err = invoke(["verify", elliptic2, "--check", "c_prop",
                           "--window", "-1", "2", "-6", "6"], capsys)
    assert code == 2 and "margin" in err


# ---------------------------------------------------------------- determinism

def test_identical_invocations_byte_identical(elliptic2, ns23, capsys):
    for argv in (
        ["verify", elliptic2, "--check", "all", "--json"],
        ["analyze", elliptic2],
        ["poincare", ns23, "--form", "closed"],
        ["maximals", elliptic2, "--json"],
    ):
        first = invoke(argv, capsys)
        second = invoke(argv, capsys)
        assert first == second


# ----------------------------------------------------------- byte identity

# Four fixtures and three seeded strips (sym-3x2 is symmetric with period
# 2); the SHA-256 of stdout and the exit code of each two-point verb below
# are pinned, so any change to the CLI's output contract shows up here.
GUARD_INPUTS = {
    "projective-line": {"kind": "fixture", "name": "projective_line"},
    "elliptic-1": {"kind": "fixture", "name": "elliptic", "period": 1},
    "elliptic-2": {"kind": "fixture", "name": "elliptic", "period": 2},
    "elliptic-3": {"kind": "fixture", "name": "elliptic", "period": 3},
    "sym-3x2": {"kind": "two_point", "genus": 3, "period": 2,
                "members": [[-2, 4]]},
    "members-5x3": {"kind": "two_point", "genus": 5, "period": 3,
                    "members": [[0, 6], [-1, 7]]},
    "strip-4x5": {"kind": "two_point_strip", "genus": 4, "period": 5,
                  "strip": [[c == "1" for c in row] for row in (
                      "10000", "00000", "00000", "10000",
                      "00001", "10000", "10000", "00001")]},
}
GUARD_VERBS = {"analyze": (), "maximals": (), "expand": (),
               "verify": ("--check", "all")}

_PINNED_STDOUT = {
    "projective-line analyze":
        (0, "cf9ee3ff19b589e44994728a0c423a35324dec285767725473227d3dec823458"),
    "projective-line analyze --json":
        (0, "749c3aebef37ca54569f3b82a2be682c30787451e475de09a5a0465a1e5eacb9"),
    "projective-line maximals":
        (0, "175f121a09643d79d24aee32e6f2fa3bacc282afdd72abcb203f15ca02fa6fc1"),
    "projective-line maximals --json":
        (0, "a6bbf10c357ff4dcafa7be68617cf1c380eba53d6320f0ea043f3989d2b50f99"),
    "projective-line expand":
        (0, "23be3f9e570fc3f1718a468cbae9b80cd9219b05a1f6b9b7e3da4831800d75aa"),
    "projective-line expand --json":
        (0, "f9dcdbca525e18e16f16e073ef0d31074acd16f400ed6cf666aad74d3991c0ac"),
    "projective-line verify":
        (0, "ca4fc876b4ece3d96a8cf53b8d12c3dd6c146384bea2df41cd209b06fc152e0e"),
    "projective-line verify --json":
        (0, "23e48bf07004af6c5423934d996ce17973cbf5d348c617e3ce73541b579c5862"),
    "elliptic-1 analyze":
        (0, "82112de4eae9b9203cfd22a9e0339d917a2aecddc1e52f4c76f5f13b307dc95d"),
    "elliptic-1 analyze --json":
        (0, "f305300eced81241fa60ac994cf3c51c15d16e256d1499454d24b278e603e938"),
    "elliptic-1 maximals":
        (0, "d04bbb96c4ae91640f4b68d8188f027169311b1eb25759b1d66f0f1eca12574f"),
    "elliptic-1 maximals --json":
        (0, "bc2e9fd8570373f6091416873379865497a02e15b292a6bf12959c5a966262c5"),
    "elliptic-1 expand":
        (0, "d894e58e6c2541e5b3cd16d0285628f7126395ae3dce9e6604ac273785fed9df"),
    "elliptic-1 expand --json":
        (0, "227cb2939598f4948edefbc938e9b9db8d91ab6bbc9bae9cf9db6f3eaf44a099"),
    "elliptic-1 verify":
        (1, "ca6d09160d45e4023bdcccb6f6818cb96aa6f3905114cb358d469564ac2f1268"),
    "elliptic-1 verify --json":
        (1, "30357789bf5123dd805f105e0177518805a45492a3d8361f14f3fde83fd2f645"),
    "elliptic-2 analyze":
        (0, "a666f060e4eb0522e8a43c80c10756c200e8f9d44ca31a48211b21c74e274dd9"),
    "elliptic-2 analyze --json":
        (0, "437d2d4b38262d3b1f33ceff1f0e3b2245a7898f6ef159ac1cd4cc4262de579f"),
    "elliptic-2 maximals":
        (0, "931a1901dcbb2a5c0f0068e93983bd7ab4a810c1a0769e141b51891cc05f269b"),
    "elliptic-2 maximals --json":
        (0, "b482a767d8b06c41b87fa63bd45979496e7ad24e8b32f9bf8567d350d4755b32"),
    "elliptic-2 expand":
        (0, "54f915fa579329ef3bf1acf0ea7c2ad318efab278d62d0fd49862ab80166386b"),
    "elliptic-2 expand --json":
        (0, "ec59a357f71cc1cd8fdfbad8ba021f758fa2525db0ed7c9f393a9a1a9c1951ca"),
    "elliptic-2 verify":
        (1, "0913bb75628bcc1f2bd6279507f852a3ed63ba62a5428f456dcb9748cecd83bd"),
    "elliptic-2 verify --json":
        (1, "b72dd849d9aa4fd97ccde07df9411c0038c0318059366fb227da82044d58ff2e"),
    "elliptic-3 analyze":
        (0, "af2e09b9b19701328f738f08cb54d03a5e350a27f51c2b06f255b87a46893b62"),
    "elliptic-3 analyze --json":
        (0, "9bb15bc74f0ce49beac0ca3b7f03025dec466d26c3801af7838185b86d7f0123"),
    "elliptic-3 maximals":
        (0, "2a56d8b8cadc0bcf1cd3f64d43c4af15233856ab2fbb898cfe01f6aac98bdd1c"),
    "elliptic-3 maximals --json":
        (0, "5b76d2fe96c9b94712b3d531c5ce0106f4d0bdaea5394baa6ac8c28fa557cb38"),
    "elliptic-3 expand":
        (0, "9febdac7cd9bbf81cd182b50cfdce5d45853dc64b4771a239435bb42ed1efc14"),
    "elliptic-3 expand --json":
        (0, "9cee64bfcaabcec1027676df03cd743d37ada84545c8c2f7e6431fb82bae8d34"),
    "elliptic-3 verify":
        (1, "e2bb3ced9a246e4a6505257b379be23431eefc8cd7b51057dafa91f4a12a5c33"),
    "elliptic-3 verify --json":
        (1, "528f7db60259397b1376393139ec09bfaf6657523dc497b5bb6cfd7c4915b28c"),
    "sym-3x2 analyze":
        (0, "0589d64b1fe65f81c798ef5fb8cb2a39be74d21cf043379e6b3b076025d028c8"),
    "sym-3x2 analyze --json":
        (0, "66ae34999759a698fe4472dabefcb2dbf361934fccfc3f48aecfd0b07d9d9ba3"),
    "sym-3x2 maximals":
        (0, "399a53aad2ed805bd0f9cf9ee094b83cdb03e9af84481bc9057d0e65ba2f7e4f"),
    "sym-3x2 maximals --json":
        (0, "c114666e483130d0589115dfe21fa3c59edcbd85fac188d83571eeddd8ce7ade"),
    "sym-3x2 expand":
        (0, "3ed64b6d8c26b0d8bc1e60200346f6d7d58fbda550dda8d007ea483075193208"),
    "sym-3x2 expand --json":
        (0, "3ec19c78a726cb8e03427375b424751ba1a317633825fa21bb91650ed9350dcf"),
    "sym-3x2 verify":
        (1, "e7827990da7239d1891397116c8fc54b3e850c26a8ed73c780201c911d4848f4"),
    "sym-3x2 verify --json":
        (1, "9f8a4df781eda3f4c6ac8eeff77aac5c3b3a976054609a605c6ea280b24c79df"),
    "members-5x3 analyze":
        (0, "c20a57b2bec1f8f9a0698e904263fcf5ba9e47ab4452622f95f694bc7799d996"),
    "members-5x3 analyze --json":
        (0, "687fd70f89d465f70d80459a68859b7592fcf67b59844a0d20ff4324c90d9ed9"),
    "members-5x3 maximals":
        (0, "e1cd131f45f5fee62a79a8d63eea972b33dbced74f66195b0b1cde3c80fc7e5e"),
    "members-5x3 maximals --json":
        (0, "23a36b698b6108610e6c69d94d3e203b85f2fb4885a0d609add6c449fa0e0c96"),
    "members-5x3 expand":
        (0, "48a7862c2a15170bfce68be7f22d87825549b0bb185e09f4f5a1e9f416813015"),
    "members-5x3 expand --json":
        (0, "2f80bf68dedc44474d931f05177ce0daea43aeb89aa1ceee653d74a6908a106d"),
    "members-5x3 verify":
        (1, "a497c29b4f503fc10cb241081debf3942785fcdfd8e4f8626647fabcdbab73b3"),
    "members-5x3 verify --json":
        (1, "413abd39fbf61db5935e206baa90d7588195d4ca8bf096b3f97db7018e0e613b"),
    "strip-4x5 analyze":
        (0, "98b3524da58c6c6d708629ea7fc67d027be5e1643102c31539705925e7b49ad3"),
    "strip-4x5 analyze --json":
        (0, "21aaeb960cbfd45f5d90ece87d9263863dfab6ad581972a084b9cd3452c00f09"),
    "strip-4x5 maximals":
        (0, "573a34ccd5344e15659ff9ffabeb28d300ab6291b1e83b66659c5c6a2f0d0e9c"),
    "strip-4x5 maximals --json":
        (0, "d561f329a78305dfec390ae2ed65a8f4eab2fa720f8da3c4cdae4f4561e53b88"),
    "strip-4x5 expand":
        (0, "cd7823267b49bc1b3180ac1648e59fa19da4a56f2d751428980185db2425f53a"),
    "strip-4x5 expand --json":
        (0, "f4d3fcf2ae6afb249f5fe8aaaaaff26e4d8b5e30421cf28ddc8fbfa58478ed81"),
    "strip-4x5 verify":
        (1, "75118b0495b0a7497a937c0620e85dd27d9c0b4ec721e18cc9269a09d7e20a2b"),
    "strip-4x5 verify --json":
        (1, "51473bc980f1677616cb81b9f90a81b41f5cc3131680e89889ea47a97153802c"),
}


@pytest.mark.parametrize("key", sorted(_PINNED_STDOUT))
def test_two_point_stdout_is_pinned(key, tmp_path, capsys):
    name, verb, *json_flag = key.split()
    path = write(tmp_path, f"{name}.json", GUARD_INPUTS[name])
    code, out, _ = invoke([verb, path, *GUARD_VERBS[verb], *json_flag],
                          capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        _PINNED_STDOUT[key]


# Larger strips for the checks that read the per-class tables: a (16, 20)
# strip from a seeded search, with c_prop, c_identity and d_agreement
# witnesses, and the symmetric period-2 strip of genus 12, on which
# symmetry and funceq scan every reflection.  The hashes were taken from
# the implementation that asked the point methods once per class and check.
TABLE_INPUTS = {
    "members-16x20": {"kind": "two_point", "genus": 16, "period": 20,
                      "members": [[10, 3], [-2, 17], [-6, 20]]},
    "sym-12x2": {"kind": "two_point_strip", "genus": 12, "period": 2,
                 "strip": [[c == "1" for c in row]
                           for row in ("10", "00") * 12]},
}
TABLE_VERBS = {"expand": (), "verify": ("--check", "all")}

_PINNED_TABLE_STDOUT = {
    "members-16x20 expand":
        (0, "08588207c96f2e470557e617325ab7923388940edd4d76af640c6292bb32db1f"),
    "members-16x20 expand --json":
        (0, "88d097d8ee5570c1dc80f6ecc96867ad05003a8ba6df2998c7fb0c4959eba361"),
    "members-16x20 verify":
        (1, "c555f76ff6e55a4adc7361bf47a691124c631d29f31fdc0eeb62ef3c59d26944"),
    "members-16x20 verify --json":
        (1, "0ffae0a13b7a46d61836a524ff4f1c8918bff3ab728dfa53abf8b38fbdd83022"),
    "sym-12x2 expand":
        (0, "f0b872189dfbaa5278d47bdcad9748afade8193e6bc81f730b2636ed506a0b70"),
    "sym-12x2 expand --json":
        (0, "ddea89bbe9f2580ea4749b367c8e2a9c01933bf6ed0fed21ae2876f9be2bfffd"),
    "sym-12x2 verify":
        (1, "9bbc2209c475c76ab531163537c031796641a63b69207270445b3a8cd0815e5a"),
    "sym-12x2 verify --json":
        (1, "a2b573717737e348d3ac2d2063cc62d10164d30ac66b453db771bb30b91b7142"),
}


def test_table_inputs_have_the_witnesses_they_stand_for(tmp_path, capsys):
    paths = {name: write(tmp_path, f"{name}.json", payload)
             for name, payload in TABLE_INPUTS.items()}
    _, out, _ = invoke(["verify", paths["members-16x20"], "--check", "all",
                        "--json"], capsys)
    failing = {r["check"] for r in json.loads(out)["checks"] if r["witnesses"]}
    assert {"c_prop", "c_identity", "d_agreement"} <= failing
    _, out, _ = invoke(["verify", paths["sym-12x2"], "--check", "all",
                        "--json"], capsys)
    passed = {r["check"] for r in json.loads(out)["checks"] if r["pass"]}
    assert {"symmetry", "funceq"} <= passed


@pytest.mark.parametrize("key", sorted(_PINNED_TABLE_STDOUT))
def test_table_checks_stdout_is_pinned(key, tmp_path, capsys):
    name, verb, *json_flag = key.split()
    path = write(tmp_path, f"{name}.json", TABLE_INPUTS[name])
    code, out, _ = invoke([verb, path, *TABLE_VERBS[verb], *json_flag],
                          capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        _PINNED_TABLE_STDOUT[key]


# One-point inputs, <3, 4, 5> and <4, 6, 7> with extras 9 not symmetric;
# the SHA-256 of stdout and the exit code of verify with each check
ONE_POINT_INPUTS = {
    "ns-3-5": {"kind": "numerical", "generators": [3, 5]},
    "ns-4-6-7": {"kind": "numerical", "generators": [4, 6, 7]},
    "ns-3-4-5": {"kind": "numerical", "generators": [3, 4, 5]},
    "delta-4-6-7": {"kind": "delta", "r": [4, 6, 7]},
    "delta-4-6-7+9": {"kind": "delta", "r": [4, 6, 7], "extras": [9]},
    "delta-10-4-3": {"kind": "delta", "r": [10, 4, 3]},
}

_PINNED_ONE_POINT_VERIFY = {
    "ns-3-5 all":
        (0, "d756d92b865fcb6beb83af5f62af00025e1304de016d6b3c84488a3866f60469"),
    "ns-3-5 all --json":
        (0, "975a90b1daef42c73af8354a9b948959fc964455043ca019a53d74e5d3601f25"),
    "ns-3-5 symmetry":
        (0, "ac54cd9ed5c62ad38b28037313ebf2a3112b381ab976fcd006ecd6d40adc37ce"),
    "ns-3-5 symmetry --json":
        (0, "cd512bedc2547779d3c27d283da72b872be52fb310039947cb2a4668de9f12bb"),
    "ns-3-5 funceq":
        (0, "e97e2afd84b169c66647293f6290d34b74e36a22d6aa9c1a933ddb0fca6d0f6e"),
    "ns-3-5 funceq --json":
        (0, "704ad5e9106ef797237ffb3e88a8b94472ecc3bc9031c7ac3958860c11c8161b"),
    "ns-4-6-7 all":
        (0, "d756d92b865fcb6beb83af5f62af00025e1304de016d6b3c84488a3866f60469"),
    "ns-4-6-7 all --json":
        (0, "4c07631a70eb4b32db3d394ef559a5a7720b5265b72e363f39c2866570e8576f"),
    "ns-4-6-7 symmetry":
        (0, "ac54cd9ed5c62ad38b28037313ebf2a3112b381ab976fcd006ecd6d40adc37ce"),
    "ns-4-6-7 symmetry --json":
        (0, "88c169ce9b9cf95e9744229df933707b32026477d48986be3fa959ff30ed3bb7"),
    "ns-4-6-7 funceq":
        (0, "e97e2afd84b169c66647293f6290d34b74e36a22d6aa9c1a933ddb0fca6d0f6e"),
    "ns-4-6-7 funceq --json":
        (0, "8ce5ab5173988f38834382a3b1c3befa98bc1ad4289a090e0bb98815e5bd7561"),
    "ns-3-4-5 all":
        (1, "c314ed5586dcb4a1205ad0c256ed86989fa87398fdfc8c028f105f3b740d0c83"),
    "ns-3-4-5 all --json":
        (1, "b0aece5c13f72aad61d6a00da0262510b2551b9de9fd9e00c912a911cc12bd19"),
    "ns-3-4-5 symmetry":
        (1, "1c51eda9fb8b2201ca8fb2e2bd0f62e64d752db03b8bb500a10443e742221ecc"),
    "ns-3-4-5 symmetry --json":
        (1, "b5f5b47bdcc8ef0a359e2c5a0e045fc8812829848f455991d9bce875b0459a20"),
    "ns-3-4-5 funceq":
        (1, "d68d86b89cdaece57fa3ff18789b7d7f6fa9c425b6913829db30fa9a9122f9cd"),
    "ns-3-4-5 funceq --json":
        (1, "d8e3857fce4f418bef740b60f7be6a7259490b16c56b0652408c45acab0718d1"),
    "delta-4-6-7 all":
        (0, "b25f6cfcc7f6b8fec9d02f2681fdb4ed623bc8609a0ceb883d9b30c718b0db80"),
    "delta-4-6-7 all --json":
        (0, "ea493a7e1f59373da2ffb48fe41ab6f3372a4f8951ff3c111fc3183a7600c3f6"),
    "delta-4-6-7 symmetry":
        (0, "ac54cd9ed5c62ad38b28037313ebf2a3112b381ab976fcd006ecd6d40adc37ce"),
    "delta-4-6-7 symmetry --json":
        (0, "88c169ce9b9cf95e9744229df933707b32026477d48986be3fa959ff30ed3bb7"),
    "delta-4-6-7 funceq":
        (0, "e97e2afd84b169c66647293f6290d34b74e36a22d6aa9c1a933ddb0fca6d0f6e"),
    "delta-4-6-7 funceq --json":
        (0, "8ce5ab5173988f38834382a3b1c3befa98bc1ad4289a090e0bb98815e5bd7561"),
    "delta-4-6-7+9 all":
        (1, "e73965e48a369d204b77827f827ba02625b620cb51678d78ad7e6effec668e49"),
    "delta-4-6-7+9 all --json":
        (1, "d3dc583e5b54d268f0f0fc88bbab0e6a4df7b748847c56296bcf475750a12cae"),
    "delta-4-6-7+9 symmetry":
        (1, "4d5ba1199076536a13071240a50e83226f4710cb2863d37317745a4dcbd94962"),
    "delta-4-6-7+9 symmetry --json":
        (1, "6c32643aaecd7507815f8c9b02a8f20cb46331a1fc9529dcb41952e6df6b39a7"),
    "delta-4-6-7+9 funceq":
        (1, "2bc559fe1cbeba69c7b9dad15b0d80a0b68d4a8fb50b3ccee6d26b3896e808c3"),
    "delta-4-6-7+9 funceq --json":
        (1, "974fd8e1158267d38c6aab5ef38891b1b3ba412f9a291e8833329ba2c5453668"),
}


@pytest.mark.parametrize("key", sorted(_PINNED_ONE_POINT_VERIFY))
def test_one_point_verify_stdout_is_pinned(key, tmp_path, capsys):
    name, check, *json_flag = key.split()
    path = write(tmp_path, f"{name}.json", ONE_POINT_INPUTS[name])
    code, out, _ = invoke(["verify", path, "--check", check, *json_flag],
                          capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        _PINNED_ONE_POINT_VERIFY[key]


# The SHA-256 of stdout and the exit code of validate, analyze and expand
# on the one-point inputs; [10, 4, 3] is not a free chain and exits 2
_PINNED_ONE_POINT_OUTPUT = {
    "ns-3-5 validate":
        (0, "35d3941ee6ff11c5983382d9b9440ef748dfcc00c0cf3e1331af038b6133f1e9"),
    "ns-3-5 validate --json":
        (0, "5f4bafda27fb19a6666597c66ab29e3e42d6b7c7d878975d9679ce14d749342f"),
    "ns-3-5 analyze":
        (0, "473f9c55f118346039efa16d4815d99b57c14db8b7b1285ae041cede4866c11a"),
    "ns-3-5 analyze --json":
        (0, "6a3336281021795cd26b16fc435e070796f46f7a742502dfe8426cb48bec58bc"),
    "ns-3-5 expand":
        (0, "79f62de93efceb2e0d7f1b695491b4d9cf4a77fae9ec0e7a62238b8a30f67cec"),
    "ns-3-5 expand --json":
        (0, "c19b1e17e68b9aab0d74d37939f501a6052c02e365bf21c09d2097ef8a1493fd"),
    "ns-3-5 expand --window -3 40":
        (0, "a381d27f2c7c80fc2a8521a0e22376c8d21979753ee1c55968d04774ec240158"),
    "ns-3-5 expand --window -3 40 --json":
        (0, "5686e213f678c649a68a0e7eb697c351ce11a7b7eaa960aff45636b771b1f1e1"),
    "ns-4-6-7 validate":
        (0, "5a1c3477fe69f4bf8cf8cba74e20099f098269936d25d454680a410dde17f91b"),
    "ns-4-6-7 validate --json":
        (0, "5f4bafda27fb19a6666597c66ab29e3e42d6b7c7d878975d9679ce14d749342f"),
    "ns-4-6-7 analyze":
        (0, "215f28b1edf55fb93d0cf565184697912a738222d4bda97d055e8ef345cdfaf7"),
    "ns-4-6-7 analyze --json":
        (0, "34f129f1f706d53068e3f38a1ee1c3e1f0ca95e07c31a4097ab32868825fe755"),
    "ns-4-6-7 expand":
        (0, "bb38dbf58a5354b22511f25ed1fd769bfafdf0c4048c1a74ee0e7a225f65b028"),
    "ns-4-6-7 expand --json":
        (0, "5da4d77caffc2e227efddaae0045cdf6d07e0ab99691238aa3302e88fc311498"),
    "ns-4-6-7 expand --window -3 40":
        (0, "1101e7d9a9f3b1fac11de2b90ba2e7bb0afa42ca349e34296c41f7dc2459e0c8"),
    "ns-4-6-7 expand --window -3 40 --json":
        (0, "b7e26ce8f42462a386449526f482ee603172165e8b7fb73e488664d7a5a3d459"),
    "delta-4-6-7 validate":
        (0, "f568f0e704f5dafe8f96ffcc2f68fc3294b61867fc5a8d73a8c641af57d764c5"),
    "delta-4-6-7 validate --json":
        (0, "c41e4f8744210f6f502666269d748b1732c14d8e994a2314ace817b36eae9ce2"),
    "delta-4-6-7 analyze":
        (0, "e8aa57f0a3452b81dba53d9a80c04481d405c0eb359e04816e8afe62c2c665f6"),
    "delta-4-6-7 analyze --json":
        (0, "4ddf601b8dcfe88f56ae51be75ddb65ce93db24feec5f795af26914ff2baba9d"),
    "delta-4-6-7 expand":
        (0, "bb38dbf58a5354b22511f25ed1fd769bfafdf0c4048c1a74ee0e7a225f65b028"),
    "delta-4-6-7 expand --json":
        (0, "5da4d77caffc2e227efddaae0045cdf6d07e0ab99691238aa3302e88fc311498"),
    "delta-4-6-7 expand --window -3 40":
        (0, "1101e7d9a9f3b1fac11de2b90ba2e7bb0afa42ca349e34296c41f7dc2459e0c8"),
    "delta-4-6-7 expand --window -3 40 --json":
        (0, "b7e26ce8f42462a386449526f482ee603172165e8b7fb73e488664d7a5a3d459"),
    "delta-4-6-7+9 validate":
        (0, "1ce204179f9af3945dfac8d715b5199d1dbb1e38eae191d3b1aedff0f557b5af"),
    "delta-4-6-7+9 validate --json":
        (0, "c41e4f8744210f6f502666269d748b1732c14d8e994a2314ace817b36eae9ce2"),
    "delta-4-6-7+9 analyze":
        (0, "6ff24f28245c37773fbc5e00d3e5e121037a8c238db776549be47966c9cafceb"),
    "delta-4-6-7+9 analyze --json":
        (0, "7f926bf6755e7b54f16329dab37aefef58e336588224c7fbac01f45dd22d5e88"),
    "delta-4-6-7+9 expand":
        (0, "b137c2e4c91adee246be2eb5d58644c6bd6ab6cc804259807f6de5fd8ec1a336"),
    "delta-4-6-7+9 expand --json":
        (0, "50c1cc2709022c754753fa8cc20fc8acb718e50ec1e759491e419ce2c9214751"),
    "delta-4-6-7+9 expand --window -3 40":
        (0, "49e11d260558f74afec4945cb13f08f9d199b324fb4fb8760e7459dc680214a2"),
    "delta-4-6-7+9 expand --window -3 40 --json":
        (0, "e99581f607fa0a46ae04fd41131e5fc856edd9de91ddbd7e5b17f95b1ac3ae6d"),
    "delta-10-4-3 validate":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "delta-10-4-3 validate --json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "delta-10-4-3 analyze":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "delta-10-4-3 analyze --json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "delta-10-4-3 expand":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "delta-10-4-3 expand --json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "delta-10-4-3 expand --window -3 40":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "delta-10-4-3 expand --window -3 40 --json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}
_REJECTED_10_4_3 = ("error: representation is not unique for (10, 4, 3): "
                    "first witness n=6 has 0 representations\n")


@pytest.mark.parametrize("key", sorted(_PINNED_ONE_POINT_OUTPUT))
def test_one_point_expand_stdout_is_pinned(key, tmp_path, capsys):
    name, verb, *args = key.split()
    path = write(tmp_path, f"{name}.json", ONE_POINT_INPUTS[name])
    code, out, err = invoke([verb, path, *args], capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        _PINNED_ONE_POINT_OUTPUT[key]
    assert err == (_REJECTED_10_4_3 if name == "delta-10-4-3" else "")


# analyze reports where the two series modes first differ, 2 min(extras),
# or null when the window [0, c + max(extras) + 10] stops short of it
MODES_INPUTS = {
    "delta-4-6-7+9": {"kind": "delta", "r": [4, 6, 7], "extras": [9]},
    "delta-8-9+55": {"kind": "delta", "r": [8, 9], "extras": [55]},
    "delta-12-13+131": {"kind": "delta", "r": [12, 13], "extras": [131]},
    "delta-20-21+379": {"kind": "delta", "r": [20, 21], "extras": [379]},
}
_PINNED_MODES_ANALYZE = {
    "delta-4-6-7+9 analyze":
        (0, "6ff24f28245c37773fbc5e00d3e5e121037a8c238db776549be47966c9cafceb"),
    "delta-4-6-7+9 analyze --json":
        (0, "7f926bf6755e7b54f16329dab37aefef58e336588224c7fbac01f45dd22d5e88"),
    "delta-8-9+55 analyze":
        (0, "6e91cd6d9ceb535281811018e3edb4ad55b8bd43b25f10be0b4dc72be90d56e5"),
    "delta-8-9+55 analyze --json":
        (0, "3437c77d80addd8111b87fc240778bac0f5a033f90b5d8029063e3fadeb6b376"),
    "delta-12-13+131 analyze":
        (0, "1e75c726230d96147299538d81ecf608e36b760d193273c983e92d4fe112ffae"),
    "delta-12-13+131 analyze --json":
        (0, "638ca67028f63dcc3f95066b5e406fb31f1d2333bacee0309578c5ec2dbf43ad"),
    "delta-20-21+379 analyze":
        (0, "4104670b3ac67f89416bca1d02f8a25c34091db3798f02a30dc10e0d63a0a203"),
    "delta-20-21+379 analyze --json":
        (0, "e0000be385d3a679951b85107bf48536f1f7e844331fc714e092b86125ffe7f7"),
}


@pytest.mark.parametrize("key", sorted(_PINNED_MODES_ANALYZE))
def test_series_modes_analyze_is_pinned(key, tmp_path, capsys):
    name, verb, *args = key.split()
    path = write(tmp_path, f"{name}.json", MODES_INPUTS[name])
    code, out, err = invoke([verb, path, *args], capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        _PINNED_MODES_ANALYZE[key]
    assert err == ""


# ------------------------------------------------------------ JSON renderers

# poincare and verify render series term by term; the library's to_json
# through the one encoder is the oracle for every byte

@st.composite
def rational_gfs(draw):
    """Series of arity 1-3 with negative exponents, coefficients up to
    10^30 in size and denominators that may be empty or repeat a vector."""
    arity = draw(st.integers(min_value=1, max_value=3))
    exps = st.tuples(*[st.integers(min_value=-40, max_value=40)] * arity)
    coeffs = st.integers(min_value=-10**30, max_value=10**30)
    num = draw(st.dictionaries(exps, coeffs, max_size=8))
    vector = st.tuples(*[st.integers(min_value=0, max_value=5)] * arity)
    den = draw(st.lists(vector.filter(any), max_size=4))
    if den and draw(st.booleans()):
        den.append(den[0])
    return RationalGF(LaurentPoly(num, arity=arity), den)


@settings(max_examples=200)
@given(rational_gfs())
@example(RationalGF(LaurentPoly({}, arity=2)))
@example(RationalGF(LaurentPoly({(-7, 0, 3): -10**30, (2, -1, 0): 10**30}),
                    [(1, 0, 0), (0, 2, 1), (1, 0, 0)]))
def test_series_renderer_matches_the_encoder(gf):
    assert cli._series_json(gf) == cli._dump(gf.to_json())


def _seeded_strips(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        g, th = rng.randint(0, 8), rng.randint(1, 6)
        members = []
        for _ in range(rng.randint(0, 4)):
            s, m1 = rng.randint(0, 2 * g + 2), rng.randint(-2 * th, 2 * th)
            members.append((m1, s - m1))
        out.append(TwoPointSemigroup.from_members(g, th, members))
    return out


def _every_report():
    """Every check of every input kind on the default window and one
    more, then one made-up report per choice of window, series and
    details."""
    # delta-10-4-3 is not a delta sequence, so it only ever exits 2
    one_point = [p for name, p in ONE_POINT_INPUTS.items()
                 if name != "delta-10-4-3"]
    payloads = [*GUARD_INPUTS.values(), *TABLE_INPUTS.values(), *one_point,
                *MODES_INPUTS.values(),
                {"kind": "delta", "r": [4, 6, 7], "extras": [3, 9]}]
    semigroups = [parse_input(json.dumps(p).encode()).semigroup
                  for p in payloads] + _seeded_strips(5, 12)
    for S in semigroups:
        two = isinstance(S, TwoPointSemigroup)
        for window in (None, Window((-6, 6), (-5, 7)) if two
                       else Window((-3, 25))):
            for check in S.CHECKS:
                yield S.verify(check, window)
    series = RationalGF(LaurentPoly({(0,): 1, (3,): -2}), [(2,), (2,)])
    for window in (None, ((-2, 5),)):
        for gf in (None, series):
            for details in ({}, {"eps_l": 1, "eps_p": -1, "genus": 3}):
                yield VerificationReport("made_up", False, ((1, 2, 3),),
                                         window, details, gf)


def test_report_renderer_matches_the_encoder():
    reports = list(_every_report())
    for rep in reports:
        assert cli._report_json(rep) == cli._dump(rep.to_json()), rep.check
    shapes = {(r.window is None, r.series is None, not r.details)
              for r in reports}
    assert len(shapes) == 8
    assert {r.check for r in reports if r.series is not None} == {
        "indicator", "l_identity", "delta_product", "symmetry", "funceq",
        "made_up"}


# analyze renders the gap list from the gap mask in blocks of 1000; the
# encoder over the list of gaps is the oracle for every byte

@st.composite
def gap_masks(draw):
    """0/1 masks up to 3,500 long, built from constant runs (so that whole
    blocks can be all gaps or hold none) and runs of random bits."""
    runs = st.one_of(
        st.tuples(st.sampled_from((0, 1)),
                  st.integers(min_value=0, max_value=1300)).map(
                      lambda run: bytes([run[0]]) * run[1]),
        st.lists(st.integers(min_value=0, max_value=1), max_size=400).map(
            bytes))
    return b"".join(draw(st.lists(runs, max_size=6)))[:3500]


@settings(max_examples=200)
@given(gap_masks())
@example(b"")
@example(bytes(2500))
@example(bytes(1000) + b"\1" + bytes(998) + b"\1")
def test_gaps_renderer_matches_the_encoder(mask):
    _assert_gaps_render(mask)


def test_gaps_renderer_past_block_1000():
    # c = 1,003,968, so the block prefixes run up to 1003
    mask = NumericalSemigroup([997, 1009]).gap_mask()
    assert len(mask) == 1_003_968
    _assert_gaps_render(mask)


def _assert_gaps_render(mask):
    gaps = list(itertools.compress(range(len(mask)), mask))
    for sep in (",", ", "):
        shown = cli._joined("[", cli._decimal_parts(mask, (sep,)), "]",
                            len(sep))
        assert shown == json.dumps(gaps, separators=(sep, ":")) == \
            gaps_json_by_blocks(mask, sep)


# every list the CLI reads off selector bytes: str() is the oracle, on
# selectors that are empty, all ones or hold runs, with values crossing
# the block edges at 1000 and 10^6 and far beyond
DECIMAL_SUFFIXES = [(",",), (", ",), cli._JUMP_SUFFIXES, (": 0\n", ": 1\n")]


@settings(max_examples=200)
@given(st.sampled_from(DECIMAL_SUFFIXES),
       st.one_of(st.integers(min_value=0, max_value=2500),
                 st.sampled_from([999, 1000, 1001, 10**6 - 1, 10**6,
                                  10**6 - 1500]),
                 st.integers(min_value=0, max_value=10**12)),
       gap_masks())
@example((",",), 0, b"")
@example(cli._JUMP_SUFFIXES, 998, b"\1" * 4000)
@example((", ",), 10**6 - 1001, b"\1" * 3500)
@example((": 0\n", ": 1\n"), 999, b"\0\1" * 3)
def test_decimal_parts_are_the_str_of_every_selected_value(suffixes, start,
                                                           sel):
    k = len(suffixes)
    sel = sel[:len(sel) - len(sel) % k]  # whole values only
    expected = "".join(str(start + i // k) + suffixes[i % k]
                       for i, bit in enumerate(sel) if bit)
    assert "".join(cli._decimal_parts(sel, suffixes, start)) == expected


def _analyze_before_blocks(model, json_output):
    """analyze as rendered before gap lists went per block: the summary,
    with the `gaps` tuple, through the one encoder."""
    summary = {**cli._summary(model), "gaps": model.semigroup.gaps}
    if json_output:
        return cli._dump(summary)
    lines = []
    for key, value in summary.items():
        shown = value if isinstance(value, str) else \
            json.dumps(value, separators=(", ", ": "))
        lines.append(f"{key}: {shown}")
    return "\n".join(lines)


def _seeded_one_point(seed):
    """Numerical, delta and delta-with-extras inputs of conductors up to
    about 3,500, ⟨1⟩ (conductor 0) among them."""
    rng = random.Random(seed)
    payloads = [{"kind": "numerical", "generators": [1]},
                {"kind": "delta", "r": [1]}]
    while len(payloads) < 14:
        gens = rng.sample(range(2, 60), rng.randint(2, 4))
        if math.gcd(*gens) == 1:
            payloads.append({"kind": "numerical", "generators": gens})
    deltas = []
    while len(deltas) < 10:
        d1, d2, u = rng.randint(2, 4), rng.randint(2, 4), rng.randint(2, 12)
        v = (d1 - 1) * (u - 1) + rng.randint(0, 20)
        r = [d1 * d2, d2 * u, v] if rng.random() < 0.6 else [u, v + u]
        try:
            deltas.append(DeltaSequence(r))
        except ValueError:
            pass
    for base in deltas:
        payloads.append({"kind": "delta", "r": list(base.r)})
        gaps = base.semigroup.gaps
        if gaps:
            # every gap from some point on is always a closed enlargement
            k = rng.randint(0, base.semigroup.conductor)
            payloads.append({"kind": "delta", "r": list(base.r),
                             "extras": [n for n in gaps if n >= k]})
    return payloads


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_analyze_matches_the_encoder_over_gap_tuples(seed, tmp_path, capsys):
    payloads = _seeded_one_point(seed)
    kinds, conductors = set(), set()
    for i, payload in enumerate(payloads):
        path = write(tmp_path, f"in-{i}.json", payload)
        model = parse_input(json.dumps(payload).encode())
        kinds.add((payload["kind"], "extras" in payload))
        conductors.add(model.semigroup.conductor)
        for args in ((), ("--json",)):
            assert invoke(["analyze", path, *args], capsys) == \
                (0, _analyze_before_blocks(model, bool(args)) + "\n", ""), \
                payload
    # every input form, and gap lists that are empty or cross a block edge
    assert kinds == {("numerical", False), ("delta", False), ("delta", True)}
    assert 0 in conductors and max(conductors) > 1000


def _closed_is_p(payload):
    """Whether `poincare --form closed`, the delta product of the chain
    (a numerical input's sorted generators, a delta input's base), is P:
    the chain must be free and the input must have no extras."""
    if payload["kind"] == "delta":
        return not payload.get("extras")
    try:
        DeltaSequence(sorted(payload["generators"]))
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("form", [f for f in cli.FORMS if f != "corner"])
def test_every_one_point_form_prints_p(form, seed, tmp_path, capsys):
    # P(t) = sum_{n in S} t^n, so its expansion is the membership indicator
    checked = 0
    for i, payload in enumerate(_seeded_one_point(seed)):
        if form == "closed" and not _closed_is_p(payload):
            continue
        path = write(tmp_path, f"in-{i}.json", payload)
        code, out, err = invoke(["poincare", path, "--form", form], capsys)
        assert (code, err) == (0, ""), payload
        S = parse_input(json.dumps(payload).encode()).semigroup
        window = Window((0, 3 * S.conductor))
        assert series_from_json(json.loads(out)).expand(window) == \
            list(S.indicator(window)), payload
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_direct_form_prints_the_encoders_bytes(seed, tmp_path, capsys):
    # a numerical input prints P straight from L's jumps, a delta input
    # through the series renderer; both are the encoded to_json()
    payloads = _seeded_one_point(seed)
    if seed == 1:
        payloads.append({"kind": "numerical", "generators": [997, 1009]})
    for i, payload in enumerate(payloads):
        path = write(tmp_path, f"in-{i}.json", payload)
        S = parse_input(json.dumps(payload).encode()).semigroup
        expected = cli._dump(direct_series(S).to_json()) + "\n"
        for args in ((), ("--form", "direct"), ("--form", "direct", "--json")):
            assert invoke(["poincare", path, *args], capsys) == \
                (0, expected, ""), (payload, args)


# off the jump mask where the jumps are dense in [0, c], off the sorted
# jumps where they are sparse (<30, 31>, <1000, 1001>, <200, 201, 203>),
# and on both sides of the switch (<101, 103, 107, 109> takes the mask)
@pytest.mark.parametrize("gens", [[1], [2, 3], [4, 6, 7], [5, 7, 9, 11],
                                  [31, 37], [11, 3049], [30, 31],
                                  [1000, 1001], [200, 201, 203],
                                  [101, 103, 107, 109]])
def test_direct_renderer_matches_the_encoder(gens):
    S = NumericalSemigroup(gens)
    code, text = cli._run_poincare(cli.Model("numerical", S),
                                   argparse.Namespace(form=None))
    assert code == 0
    assert text == cli._dump(poincare_direct(S).to_json()) == \
        direct_json_by_pairs(l_jumps(S))


def test_sparse_direct_form_needs_no_conductor_sized_buffer(tmp_path):
    # <10^5, 10^5 + 1>: c is about 10^10 and L has 2 10^5 - 1 terms; the
    # console prints P in an address space of 1 GiB, far below 2 (c + 1)
    gens = [10**5, 10**5 + 1]
    path = write(tmp_path, "ns-sparse.json",
                 {"kind": "numerical", "generators": gens})
    src = str(Path(wsemigroups.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "wsemigroups", "poincare", path, "--json"],
        capture_output=True, env={**os.environ, "PYTHONPATH": src},
        timeout=120, preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (1 << 30, 1 << 30)))
    assert (proc.returncode, proc.stderr) == (0, b"")
    expected = direct_json_by_pairs(l_jumps(NumericalSemigroup(gens)))
    assert proc.stdout.decode() == expected + "\n"


# P and the l_identity report of the largest rung and of sym-30k's
# <11, 3049>, as the per-term renderer printed them: 3.3 MB and 337 kB
_PINNED_LARGE_ONE_POINT = {
    "997 1009 poincare --json":
        "01b07f8be19ce891358ca54304498193c5d16ccffd1a864ce2bae613e6379e83",
    "997 1009 verify --check l_identity --json":
        "5f6282d8d6676f2d72292eb53c07aafe7792d726e43d28d822e5a852ac5514da",
    "11 3049 poincare --json":
        "9672d98a1df64cb4c0142a8924e9bcd462aef326aa6e343d56bb168afe8228d7",
    "11 3049 verify --check l_identity --json":
        "7c93ac1b1ed3d9900cf044e5c52c92ea40a200b1fba6e2d020250690c062e83d",
}


@pytest.mark.parametrize("key", sorted(_PINNED_LARGE_ONE_POINT))
def test_large_one_point_series_are_pinned(key, tmp_path, capsys):
    a, b, verb, *args = key.split()
    path = write(tmp_path, "large.json",
                 {"kind": "numerical", "generators": [int(a), int(b)]})
    code, out, err = invoke([verb, path, *args], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        _PINNED_LARGE_ONE_POINT[key]


def test_analyze_largest_rung_is_pinned(tmp_path, capsys):
    path = write(tmp_path, "ns-997-1009.json",
                 {"kind": "numerical", "generators": [997, 1009]})
    code, out, err = invoke(["analyze", path, "--json"], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "509e9b60a63ae03398ccd7254dbf3c0fc366fc35aa11c283922c662bee4fd276"


@pytest.mark.parametrize("argv, digest", [
    (["analyze", "--json"],
     "509e9b60a63ae03398ccd7254dbf3c0fc366fc35aa11c283922c662bee4fd276"),
    (["poincare", "--json"],
     _PINNED_LARGE_ONE_POINT["997 1009 poincare --json"])])
def test_console_prints_the_largest_rung_through_a_pipe(argv, digest,
                                                        tmp_path):
    # the console entry point prints and flushes the multi-megabyte text
    path = write(tmp_path, "ns-997-1009.json",
                 {"kind": "numerical", "generators": [997, 1009]})
    src = str(Path(wsemigroups.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "wsemigroups", argv[0], path, *argv[1:]],
        capture_output=True, env={**os.environ, "PYTHONPATH": src},
        timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_largest_rung_reports_carry_the_apery_form(tmp_path, capsys):
    # a terms for multiplicity a = 997, where the direct series has 153,551
    path = write(tmp_path, "ns-997-1009.json",
                 {"kind": "numerical", "generators": [997, 1009]})
    for check in ("symmetry", "funceq"):
        code, out, err = invoke(["verify", path, "--check", check, "--json"],
                                capsys)
        assert (code, err) == (0, "")
        series = json.loads(out)["series"]
        assert (len(series["num"]), series["den"]) == (997, [[997]])


# --json writes only integers, strings, booleans and null; a float, NaN or
# Infinity anywhere in the output trips these parse hooks
def _not_an_integer(text):
    raise AssertionError(f"--json wrote the non-integer {text}")


_JSON_COMMANDS = [("validate",), ("analyze",), ("maximals",),
                  ("maximals", "--corner"), ("expand",),
                  ("verify", "--check", "all"),
                  *(("poincare", "--form", form) for form in cli.FORMS)]


@pytest.mark.parametrize("name", [*GUARD_INPUTS, *ONE_POINT_INPUTS])
def test_json_output_holds_no_floats(name, tmp_path, capsys):
    payload = {**GUARD_INPUTS, **ONE_POINT_INPUTS}[name]
    path = write(tmp_path, f"{name}.json", payload)
    parsed = 0
    for verb, *args in _JSON_COMMANDS:
        code, out, _ = invoke([verb, path, *args, "--json"], capsys)
        if code == 2:  # a verb or form this input does not take
            assert out == ""
            continue
        json.loads(out, parse_float=_not_an_integer,
                   parse_constant=_not_an_integer)
        parsed += 1
    # every input but the rejected chain [10, 4, 3] answers some verbs
    assert parsed or name == "delta-10-4-3"


@pytest.mark.parametrize("window", [
    (0, 10, 10**9, 10**9 + 10),
    (0, 10, -10**9 - 20, -10**9 - 10),
    (-10**9 - 12, -10**9, 3, 15),
])
def test_verify_far_window_matches_point_scans(window, tmp_path, capsys):
    # strip-4x5 has a sigma and a maximal_count_coefficient that is not 2
    # above sum 2g, so funceq fails on whole residue classes far from the
    # band; every check must list the oracle's witnesses there
    path = write(tmp_path, "strip-4x5.json", GUARD_INPUTS["strip-4x5"])
    code, out, _ = invoke(["verify", path, "--check", "all", "--window",
                           *map(str, window), "--json"], capsys)
    S = TwoPointSemigroup(4, 5, GUARD_INPUTS["strip-4x5"]["strip"])
    W = Window((window[0], window[1]), (window[2], window[3]))
    expected = []
    for check in CHECKS[1:]:  # all but closure, which scans no window
        passed, witnesses, details = oracle.verify(S, check, W)
        expected.append(json.loads(json.dumps(VerificationReport(
            check=check, passed=passed, witnesses=witnesses,
            window=W.bounds, details=details).to_json())))
    got = json.loads(out)["checks"]
    assert got[1:] == expected
    assert code == 1 and any(r["witnesses"] for r in got)


@pytest.mark.parametrize("name", ["projective-line", "elliptic-1",
                                  "elliptic-2", "elliptic-3"])
def test_oracle_report_matches_point_scan(name):
    model = parse_input(json.dumps(GUARD_INPUTS[name]).encode())
    S = model.semigroup
    for W in (S.default_window(),
              Window((-4, 3), (-5, 2)),  # sums cut the band at -2
              Window((0, 6), (-2, 5)),  # sums cut the band at 2g + 2
              Window((10**9, 10**9 + 8), (-10**9 - 6, -10**9 + 3)),
              Window((0, 10), (10**9, 10**9 + 10)),
              Window((-10**9 - 12, -10**9), (3, 15))):
        expected = tuple(m for m in interior_region(W).points()
                         if S.dim_jump(m) != d_oracle(S.fixture, m))
        rep = S.verify("oracle", W)
        assert (rep.passed, rep.witnesses) == (not expected, expected), \
            W.bounds


# ----------------------------------------------------------- parser reuse

def test_parser_is_built_once():
    assert cli._parser() is cli._parser()


def test_reused_parser_matches_a_fresh_one(ns23, elliptic2, tmp_path,
                                           capsys, monkeypatch):
    delta = write(tmp_path, "delta.json", {"kind": "delta", "r": [4, 6, 7]})
    argvs = [
        ["validate", ns23],
        ["frobnicate", ns23],
        ["analyze", delta, "--json"],
        ["verify", elliptic2],
        ["maximals", elliptic2, "--corner"],
        ["poincare", ns23, "--form", "spiral"],
        ["poincare", ns23, "--form", "closed", "--json"],
        ["expand", elliptic2, "--window", "0", "x", "0", "4"],
        ["expand", ns23, "--window", "0", "9"],
        ["--help"],
        ["verify", elliptic2, "--check", "oracle", "--json"],
        ["verify", "--help"],
        ["analyze", elliptic2],
        [],
        # the job shapes of the benchmark's three workloads
        *([verb, path, "--json", *args]
          for path in (ns23, delta, elliptic2)
          for verb, *args in (["validate"], ["analyze"], ["maximals"],
                              ["poincare"], ["poincare", "--form", "closed"],
                              ["expand"], ["verify", "--check", "all"],
                              ["verify", "--check", "symmetry"])),
        ["verify", elliptic2, "--check", "all", "--window", "-6", "6", "-6",
         "6"],
        ["verify", ns23, "--check", "all", "--window", "-3", "40"],
        # int() takes 4300 digits and refuses 4301, argparse's type error,
        # which the fast path declines, as it does argparse's abbreviations
        ["expand", ns23, "--window", "9" * 4300, "5"],
        ["expand", ns23, "--window", "9" * 4301, "5"],
        ["validate", ns23, "--js"],
    ]
    fresh = cli._parser.__wrapped__
    for argv in argvs:
        reused = invoke(argv, capsys)
        with monkeypatch.context() as m:
            m.setattr(cli, "_canonical", lambda argv: None)
            assert invoke(argv, capsys) == reused, argv
            m.setattr(cli, "_parser", fresh)
            assert invoke(argv, capsys) == reused, argv


# every argv shape the fast path leaves to argparse
DECLINED = [
    [], ["validate"], ["frobnicate", "in.json"], ["Validate", "in.json"],
    # help, abbreviations, --opt=value and --
    ["-h"], ["--help"], ["validate", "-h"], ["validate", "in.json", "--help"],
    ["validate", "in.json", "--js"], ["poincare", "in.json", "--form=closed"],
    ["verify", "in.json", "--check=all"], ["validate", "in.json", "--"],
    ["validate", "--", "in.json"],
    # an option before the path, or a path that looks like one
    ["validate", "--json", "in.json"],
    ["verify", "--check", "all", "in.json"], ["validate", "-in.json"],
    # a repeated option, or one the verb does not take
    ["validate", "in.json", "--json", "--json"],
    ["expand", "in.json", "--window", "1", "2", "--window", "3", "4"],
    ["validate", "in.json", "--corner"],
    ["expand", "in.json", "--form", "direct"],
    ["poincare", "in.json", "--window", "0", "9"],
    # a missing or bad value, a verify with no --check, an extra positional
    ["poincare", "in.json", "--form", "spiral"],
    ["poincare", "in.json", "--form"], ["verify", "in.json", "--check", "ALL"],
    ["verify", "in.json"], ["verify", "in.json", "--json", "--window", "0"],
    ["validate", "in.json", "extra"],
    # window tokens int() or argparse read otherwise, or not at all
    ["expand", "in.json", "--window"], ["expand", "in.json", "--window", "+3"],
    ["expand", "in.json", "--window", "1_0"],
    ["expand", "in.json", "--window", "\u0661\u0662"],
    ["expand", "in.json", "--window", " 3"],
    ["expand", "in.json", "--window", "9" * 4301],
    ["expand", "in.json", "--window", "0", "x"],
]


@pytest.mark.parametrize("argv", DECLINED,
                         ids=lambda argv: " ".join(argv)[:40] or "[]")
def test_fast_path_declines_other_argv_shapes(argv):
    assert cli._canonical(argv) is None


def test_canonical_call_never_imports_argparse(ns23):
    src = str(Path(wsemigroups.__file__).resolve().parents[1])
    script = ("import sys\n"
              "from wsemigroups import cli\n"
              f"code = cli.main(['verify', {ns23!r}, '--json', '--check', "
              "'all', '--window', '-3', '9'])\n"
              "print(code, 'argparse' in sys.modules, "
              "'gettext' in sys.modules, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.stderr == b"0 False False\n"
    assert json.loads(proc.stdout)["pass"] is True


# argv tokens: the verbs, options and choices, junk, the shapes the fast
# path declines, and small ints
ARGV_TOKENS = st.one_of(
    st.sampled_from([*cli._VERB_OPTIONS, "frobnicate", "--json", "--corner",
                     "--form", "--check", "--window", *cli.FORMS,
                     *cli.VERIFY_CHECKS, "spiral", "x", "in.json", "-in.json",
                     "-h", "--help", "--js", "--check=all", "--", "+3", "1_0",
                     "\u0661\u0662", "9" * 4301, ""]),
    st.integers(-50, 50).map(str))


@settings(max_examples=400)
@given(st.sampled_from([*cli._VERB_OPTIONS, "-h", "x"]),
       st.sampled_from(["in.json", "-in.json", "", "7", "--json"]),
       st.lists(ARGV_TOKENS, max_size=8))
@example("verify", "in.json", ["--json", "--check", "all", "--window", "-6",
                               "6", "-6", "6"])
@example("maximals", "in.json", ["--corner", "--json"])
@example("poincare", "in.json", ["--form", "corner"])
def test_fast_path_agrees_with_argparse(verb, path, rest):
    argv = [verb, path, *rest]
    fast = cli._canonical(argv)
    if fast is not None:
        try:
            expected = vars(cli._parser().parse_args(argv))
        except SystemExit as exc:  # a usage error, or help
            expected = f"exit {exc.code}"
        assert vars(fast) == expected


@pytest.fixture(scope="module")
def argv_paths(tmp_path_factory):
    folder = tmp_path_factory.mktemp("argv")
    inputs = {
        "ns-23": {"kind": "numerical", "generators": [2, 3]},
        "delta": {"kind": "delta", "r": [4, 6, 7], "extras": [9]},
        "elliptic-2": {"kind": "fixture", "name": "elliptic", "period": 2},
        "strip": {"kind": "two_point_strip", "genus": 1, "period": 2,
                  "strip": [[True, False], [False, False]]},
        "bad": {"kind": "numerical", "generators": [2, 4]},
    }
    for name, payload in inputs.items():
        (folder / f"{name}.json").write_text(json.dumps(payload))
    return [str(folder / f"{name}.json") for name in [*inputs, "missing"]]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_main_over_any_argv_ends_in_an_exit_code(argv_paths, data):
    # every window int is in [-50, 50], so no call builds more than a
    # few KB; help exits 0 and a usage error 2
    argv = data.draw(st.one_of(
        st.tuples(st.sampled_from([*cli._VERB_OPTIONS, "x", "-h"]),
                  st.one_of(st.sampled_from(argv_paths), ARGV_TOKENS),
                  st.lists(ARGV_TOKENS, max_size=8)).map(
                      lambda drawn: [drawn[0], drawn[1], *drawn[2]]),
        st.lists(ARGV_TOKENS, max_size=3)))
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        assert exc.code in (0, 2), argv
    else:
        assert code in (0, 1, 2), argv



def test_help_width_is_read_per_call(capsys, monkeypatch):
    def options_width():
        _, out, _ = invoke(["expand", "--help"], capsys)
        _, options = out.split("\n\n", 1)  # usage groups never wrap
        return out, max(map(len, options.splitlines()))

    monkeypatch.setenv("COLUMNS", "200")
    wide, wide_width = options_width()
    monkeypatch.setenv("COLUMNS", "40")
    narrow, narrow_width = options_width()
    assert wide_width > 40 >= narrow_width
    monkeypatch.setattr(cli, "_parser", cli._parser.__wrapped__)
    assert options_width()[0] == narrow != wide
