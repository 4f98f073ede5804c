"""How the package's modules depend on each other, and what the package
promises every caller: its exports, its error classes, and no coercion
of a value of the wrong type."""

import ast
import inspect
from pathlib import Path

import pytest

import wsemigroups
from wsemigroups import (DeltaSequence, LaurentPoly, NumericalSemigroup,
                         OnePointSemigroup, TwoPointSemigroup, Window, checks,
                         errors)
from wsemigroups.oracle import FixtureSemigroup

SOURCES = sorted(Path(wsemigroups.__file__).parent.glob("*.py"))
# each module's relative imports name only modules ranked below it
LAYERS = ("errors", "series", "checks", "onepoint", "twopoint", "oracle",
          "cli")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_name_crosses_a_module(path):
    # a module uses only the public names of its siblings
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names if alias.name.startswith("_")]
    assert private == []


def _imported_names(tree):
    """The names the module's import statements bind, but __future__'s."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.partition(".")[0]
                        for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # no linter runs on the package, so an import a removal leaves
    # behind shows here; a name listed in __all__ is exported, so used
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    used.update(item.value for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
                for item in node.value.elts)
    assert sorted(set(_imported_names(tree)) - used) == []


def test_every_module_has_a_layer():
    assert {p.stem for p in SOURCES} - {"__init__", "__main__"} == set(LAYERS)


@pytest.mark.parametrize("rank", range(len(LAYERS)), ids=LAYERS.__getitem__)
def test_modules_import_only_lower_layers(rank):
    path = Path(wsemigroups.__file__).parent / f"{LAYERS[rank]}.py"
    imported = {node.module for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.level > 0}
    assert imported <= set(LAYERS[:rank])


def test_every_library_error_is_a_value_error():
    # cli.main maps ValueError (and OSError) to exit code 2 and catches
    # nothing else by name
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)
               if c.__module__ == errors.__name__]
    assert classes
    assert all(issubclass(c, ValueError) for c in classes)


def test_every_exported_name_exists_once():
    names = wsemigroups.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(wsemigroups, n)] == []


def test_two_point_storage_is_the_strip_and_its_line_minima():
    # every two-point query reads the inputs and the two line-minimum
    # tables; any cache has to be argued for here
    assert set(TwoPointSemigroup.__slots__) == {
        "genus", "period", "strip", "_colmin", "_rowmin"}


@pytest.mark.parametrize("cls", [NumericalSemigroup, OnePointSemigroup,
                                 TwoPointSemigroup, FixtureSemigroup],
                         ids=lambda c: c.__name__)
def test_check_methods_are_the_checks(cls):
    # checks.verify runs `_check_<name>` for a name of CHECKS, so the name
    # means only that, and every class runs the one dispatcher
    methods = {name.removeprefix("_check_") for name in dir(cls)
               if name.startswith("_check_")}
    assert methods == set(cls.CHECKS)
    assert cls.verify is checks.verify


def test_verify_is_defined_once():
    defined = [path.name for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef) and node.name == "verify"]
    assert defined == ["checks.py"]


_ROWS = [[True, False], [False, False]]

# every integer slot of a library constructor, as (build, good, check):
# build(x) puts x in the slot, and check holds of build(good)
INTEGER_SLOTS = {
    "exponent": (lambda x: LaurentPoly({(x,): 2}), 1,
                 lambda p: p.terms() == [((1,), 2)]),
    "coefficient": (lambda x: LaurentPoly({(1,): x}), 2,
                    lambda p: p.terms() == [((1,), 2)]),
    "window bound": (lambda x: Window((0, x)), 4,
                     lambda w: w.bounds == ((0, 4),)),
    "generator": (lambda x: NumericalSemigroup([x, 5]), 3,
                  lambda s: (s.generators, s.genus) == ((3, 5), 4)),
    "delta entry": (lambda x: DeltaSequence([4, 6, x]), 7,
                    lambda ds: ds.r == (4, 6, 7)),
    "extra": (lambda x: OnePointSemigroup([4, 6, 7], [x]), 9,
              lambda s: (s.extras, s.genus) == ((9,), 4)),
    "genus": (lambda x: TwoPointSemigroup(x, 2, _ROWS), 1,
              lambda s: s.genus == 1),
    "period": (lambda x: TwoPointSemigroup(1, x, _ROWS), 2,
               lambda s: s.period == 2),
    "members genus": (lambda x: TwoPointSemigroup.from_members(x, 2, []), 1,
                      lambda s: s.strip == ((True, False), (False, False))),
    "members period": (lambda x: TwoPointSemigroup.from_members(1, x, []), 2,
                       lambda s: s.strip == ((True, False), (False, False))),
    "member": (lambda x: TwoPointSemigroup.from_members(1, 2, [(x, 0)]), 1,
               lambda s: s.strip == ((True, False), (False, True))),
}


# a strip cell must be a bool, and a member or a window bound a pair:
# anything else is refused, not coerced or cut to two entries
MALFORMED_SHAPES = {
    "strip cell": (lambda: TwoPointSemigroup(1, 2, [["yes", 0], [0, ""]]),
                   TypeError),
    "integer strip cell": (lambda: TwoPointSemigroup(1, 2, [[1, 0], [0, 0]]),
                           TypeError),
    "member triple": (
        lambda: TwoPointSemigroup.from_members(2, 2, [[1, 1, 99]]),
        ValueError),
    "member single": (lambda: TwoPointSemigroup.from_members(2, 2, [[1]]),
                      ValueError),
    "window triple": (lambda: Window((0, 4, 7)), ValueError),
    "window single": (lambda: Window((3,)), ValueError),
}


@pytest.mark.parametrize("case", MALFORMED_SHAPES)
def test_malformed_shapes_are_refused(case):
    build, error = MALFORMED_SHAPES[case]
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("slot", INTEGER_SLOTS)
@pytest.mark.parametrize("bad", [
    lambda n: n + 0.5, float, str, bool],
    ids=["float", "integral float", "string", "bool"])
def test_integer_slots_refuse_other_types(slot, bad):
    build, good, check = INTEGER_SLOTS[slot]
    assert check(build(good))
    with pytest.raises(TypeError):
        build(bad(good))
