"""The span tracer in perfbench/ wraps qrmix functions and methods by name;
every name it lists must exist in the package."""

import importlib
import importlib.util
import os

import pytest

_TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("module, name", tracer.FUNCTIONS, ids=[".".join(f) for f in tracer.FUNCTIONS])
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module("qrmix." + module), name))


@pytest.mark.parametrize("module, cls, method", tracer.METHODS, ids=[".".join(m) for m in tracer.METHODS])
def test_traced_method_exists(module, cls, method):
    assert callable(getattr(getattr(importlib.import_module("qrmix." + module), cls), method))
