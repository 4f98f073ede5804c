"""The benchmark's layer tracer still finds every patch point.

bench/tracing.py wraps the package's functions and methods by name, from
outside the package, so a renamed or moved method would silently drop
its span from the benchmark.  These tests install the tracer over the
five modules, make one traced CLI call per input kind, and check that
the spans were recorded, that the output is unchanged, and that
restore() puts every patched attribute back.
"""

import importlib.util
import json
import types
from pathlib import Path

from wsemigroups import cli, onepoint, oracle, series, twopoint

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracing",
    Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

MODULES = (cli, onepoint, series, twopoint, oracle)
PKG = types.SimpleNamespace(cli=cli, onepoint=onepoint, series=series,
                            twopoint=twopoint, oracle=oracle)

# one input per kind, with the spans its `verify --check all` must record;
# no one-point check multiplies a series, but a delta input's delta
# product does
INPUTS = {
    "numerical": ({"kind": "numerical", "generators": [3, 4, 5]}, {
        "onepoint.NumericalSemigroup", "onepoint.symmetry_witnesses",
        "onepoint.l_polynomial"}),
    "delta": ({"kind": "delta", "r": [4, 6, 7]}, {
        "onepoint.DeltaSequence", "onepoint.OnePointSemigroup",
        "onepoint.symmetry_witnesses", "onepoint.l_polynomial",
        "onepoint.functional_equation_signs", "series.LaurentPoly.mul",
        "onepoint.poincare_delta_product", "onepoint.poincare_onepoint"}),
    "delta-extras": ({"kind": "delta", "r": [4, 6, 7], "extras": [9]}, {
        "onepoint.OnePointSemigroup", "onepoint.symmetry_witnesses",
        "onepoint.l_polynomial", "onepoint.poincare_onepoint"}),
    "two_point_strip": ({"kind": "two_point_strip", "genus": 1, "period": 2,
                         "strip": [[True, False], [False, False]]}, {
        "twopoint.construct", "twopoint.verify.closure",
        "twopoint.verify.funceq", "twopoint.find_symmetry_point"}),
    "two_point": ({"kind": "two_point", "genus": 3, "period": 2,
                   "members": [[-2, 4]]}, {
        "twopoint.construct", "twopoint.verify.c_identity",
        "twopoint.corner_maximals"}),
    "fixture": ({"kind": "fixture", "name": "elliptic", "period": 2}, {
        "oracle.semigroup_from_fixture", "twopoint.verify.d_agreement"}),
}


def attributes():
    """Every module attribute and every attribute of a class defined in
    the five modules: all that the tracer may patch."""
    found = {}
    for mod in MODULES:
        for key, value in vars(mod).items():
            found[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    found[(mod.__name__, key, attr)] = member
    return found


def run_all(tmp_path, capsys, tracer=None):
    """stdout, exit code and (when traced) span names of each input."""
    out = {}
    for name, (payload, _) in INPUTS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        if tracer:
            tracer.reset()
        code = cli.main(["verify", str(path), "--check", "all"])
        text, err = capsys.readouterr()
        assert err == ""
        out[name] = (code, text, set(tracer.total) if tracer else None)
    return out


def test_tracer_records_every_input_kind_and_restores(tmp_path, capsys):
    plain = run_all(tmp_path, capsys)
    before = attributes()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, PKG)
    try:
        patched = attributes()
        traced = run_all(tmp_path, capsys, tracer)
    finally:
        restore()
    after = attributes()
    # the tracer replaced the methods named in each class's own __dict__
    for cls in ("NumericalSemigroup", "OnePointSemigroup"):
        key = ("wsemigroups.onepoint", cls, "symmetry_witnesses")
        assert patched[key] is not before[key]
    assert patched[("wsemigroups.onepoint", "l_polynomial")] is not \
        before[("wsemigroups.onepoint", "l_polynomial")]
    for name, (_, spans) in INPUTS.items():
        code, text, recorded = traced[name]
        assert (code, text) == plain[name][:2], name
        assert "cli.main" in recorded
        assert spans <= recorded, (name, spans - recorded)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
