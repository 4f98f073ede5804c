"""The usage examples in the package's docstrings still run as shown."""

import doctest
import importlib
import pkgutil

import pytest

import wsemigroups

# __main__ runs the CLI on import, so it is no module to scan
MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(
    wsemigroups.__path__, "wsemigroups.") if name != "wsemigroups.__main__")


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
