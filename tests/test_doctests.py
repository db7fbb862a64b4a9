import doctest
import importlib
import pkgutil

import pytest

import stackygit

MODULES = sorted(m.name for m in pkgutil.iter_modules(stackygit.__path__, "stackygit."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
