"""The examples in the library's docstrings."""

import doctest
import importlib
import pkgutil

import linkalg


def test_every_module_example_passes():
    names = ["linkalg"] + [m.name for m in pkgutil.iter_modules(linkalg.__path__, "linkalg.")]
    failed, attempted = [], 0
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        attempted += result.attempted
        if result.failed:
            failed.append(name)
    assert failed == []
    assert attempted > 0
