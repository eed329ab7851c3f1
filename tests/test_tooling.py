"""The span tracer in perfbench/ wraps qrmix functions and methods by name;
every name it lists must exist in the package."""

import importlib

import pytest

import oracles

tracer = oracles.perfbench_module("tracer")


@pytest.mark.parametrize("module, name", tracer.FUNCTIONS, ids=[".".join(f) for f in tracer.FUNCTIONS])
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module("qrmix." + module), name))


@pytest.mark.parametrize("module, cls, method", tracer.METHODS, ids=[".".join(m) for m in tracer.METHODS])
def test_traced_method_exists(module, cls, method):
    assert callable(getattr(getattr(importlib.import_module("qrmix." + module), cls), method))
