"""The span tracer in perfbench/ wraps qrmix functions and methods by name;
every name it lists must exist in the package, as must every name the
package exports."""

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


def test_star_import_resolves_every_export():
    import qrmix

    namespace = {}
    exec("from qrmix import *", namespace)
    for name in qrmix.__all__:
        assert namespace[name] is getattr(qrmix, name), name


def test_benchmark_battery_passes_its_oracles():
    """The benchmark's exact battery on sl2:5, vdc included, run through
    perfbench's worker and checked by its oracles: a change to what the
    benchmark reads fails here first."""
    import qrmix

    worker, bench_oracles = oracles.perfbench_module("worker"), oracles.perfbench_module("oracles")
    G = qrmix.build_group("sl2:5")
    groups = {"sl2:5": (G, qrmix.character_degrees(G), qrmix.quasirandom_degree(G))}
    records = []
    for op in worker._exact_battery("sl2:5"):
        rec, _ = worker.run_trial(qrmix, G, op, 0, 1)
        assert rec["passed"], op
        records.append((op, 0, rec))
    assert {op.check for op, _, _ in records} == {"mixing", "recurrence", "vdc"}
    assert worker.oracle_failures(bench_oracles, groups, records, 1, {"sl2:5"}) == []
