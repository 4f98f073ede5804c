"""How the package's modules depend on each other."""

import ast
import inspect
from pathlib import Path

import pytest

import wsemigroups
from wsemigroups import errors

SOURCES = sorted(Path(wsemigroups.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_name_crosses_a_module(path):
    # a module uses only the public names of its siblings
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_every_library_error_is_a_value_error():
    # cli.main maps ValueError (and OSError) to exit code 2 and catches
    # nothing else by name
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)
               if c.__module__ == errors.__name__]
    assert classes
    assert all(issubclass(c, ValueError) for c in classes)
