"""Command-line interface: parsing, verbs, exit codes, output determinism."""

import json

import pytest

from wsemigroups import (
    DeltaSequence,
    NumericalSemigroup,
    RationalGF,
    Window,
    poincare_delta_product,
    poincare_direct,
)
from wsemigroups import cli
from wsemigroups.cli import parse_input


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
    assert model.fixture.period == 2
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


def test_validate_delta_with_huge_conductor_exits_2(tmp_path, capsys,
                                                    monkeypatch):
    # unlike a numerical input, a delta chain costs O(c): its uniqueness
    # count expands the delta product on [0, c + r_0 max(d)], here a dense
    # grid of about 10^12 cells; the stub fails that allocation at once
    expand = RationalGF.expand

    def bounded_expand(self, window):
        ((lo, hi),) = window.bounds
        if hi - lo > 10**7:
            raise MemoryError
        return expand(self, window)

    monkeypatch.setattr(RationalGF, "expand", bounded_expand)
    path = write(tmp_path, "huge.json", {"kind": "delta", "r": [2, 10**12 + 1]})
    code, out, err = invoke(["validate", path], capsys)
    assert (code, out, err) == (2, "", "error: input too large (MemoryError)\n")


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
    corner = set(sg.corner_maximals().points)
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
    assert RationalGF.from_json(json.loads(out)).equals(lib)

    code, out, _ = invoke(["poincare", ns, "--form", "closed"], capsys)
    assert code == 0
    closed = RationalGF.from_json(json.loads(out))
    assert closed.equals(poincare_delta_product(DeltaSequence((4, 6, 7))))


def test_poincare_corner_two_point(elliptic2, capsys):
    code, out, _ = invoke(["poincare", elliptic2, "--form", "corner"], capsys)
    assert code == 0
    gf = RationalGF.from_json(json.loads(out))
    window = Window((-2, 2), (-2, 2))
    coeffs = gf.expand(window)
    assert coeffs[(1, 1)] == 1 and coeffs[(2, -2)] == 1
    assert coeffs[(0, 0)] == 0 and coeffs[(1, 0)] == 0


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


def test_verify_one_point_checks(tmp_path, capsys):
    path = write(tmp_path, "ns467.json",
                 {"kind": "numerical", "generators": [4, 6, 7]})
    code, out, _ = invoke(["verify", path, "--check", "funceq"], capsys)
    assert code == 0
    assert "eps_l=1" in out and "eps_p=-1" in out

    code, _, err = invoke(["verify", path, "--check", "c_prop"], capsys)
    assert code == 2 and "two-point" in err


def test_verify_symmetry_failure_lists_witnesses(tmp_path, capsys):
    path = write(tmp_path, "ns345.json",
                 {"kind": "numerical", "generators": [3, 4, 5]})
    code, out, _ = invoke(["verify", path, "--check", "symmetry", "--json"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False and report["witnesses"] == [1]


def test_verify_window_needs_interior(elliptic2, capsys):
    code, _, err = invoke(["verify", elliptic2, "--check", "c_prop",
                           "--window", "-1", "2", "-6", "6"], capsys)
    assert code == 2 and "margin" in err


# ---------------------------------------------------------------- determinism

def test_identical_invocations_byte_identical(elliptic2, ns23, capsys):
    for argv in (
        ["verify", elliptic2, "--check", "all", "--json"],
        ["analyze", elliptic2],
        ["poincare", ns23, "--form", "paper"],
        ["maximals", elliptic2, "--json"],
    ):
        first = invoke(argv, capsys)
        second = invoke(argv, capsys)
        assert first == second
