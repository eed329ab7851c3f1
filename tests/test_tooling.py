"""The span tracer in perfbench/ wraps qrmix functions and methods by name;
every name it lists must exist in the package, as must every name the
package exports.  The `verify` subcommand's options and run_verify's
parameters match one to one, and verify's profiles spell every descriptor
canonically."""

import argparse
import importlib
import inspect
import os
import subprocess
import sys

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


def test_verify_options_are_run_verify_parameters():
    """Every option of `qrmix verify` is a parameter of run_verify and every
    parameter an option, so no option reaches one side only."""
    from qrmix.cli import build_parser
    from qrmix.verify import run_verify

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    renamed = {"seed": "master_seed", "out": "out_dir"}
    options = [renamed.get(a.dest, a.dest) for a in sub.choices["verify"]._actions
               if not isinstance(a, argparse._HelpAction)]
    assert sorted(options) == sorted(inspect.signature(run_verify).parameters)


def test_verify_profiles_spell_descriptors_canonically():
    """verify names its rows by G.desc, the canonical spelling: a profile
    descriptor spelled otherwise would rename its rows unnoticed."""
    from qrmix.groups import canonical_descriptor
    from qrmix.verify import PROFILES

    descs = [d for profile in PROFILES.values() for entry in profile.values()
             for value in entry.values() if isinstance(value, list) for d in value]
    assert len(descs) > 20 and [canonical_descriptor(d) for d in descs] == descs


_LAZY_IMPORT_CHECK = """
import sys
import qrmix
loaded = [m for m in ("qrmix.sweep", "qrmix.verify", "qrmix.cli", "hashlib") if m in sys.modules]
if loaded:
    sys.exit("import qrmix loaded %s" % loaded)
unresolved = [name for name in qrmix.__all__ if getattr(qrmix, name, None) is None]
if unresolved:
    sys.exit("unresolved exports %s" % unresolved)
"""


def test_import_leaves_the_drivers_and_hashlib_unloaded():
    """import qrmix, in a fresh process, loads the checks but not sweep,
    verify, the cli or hashlib; sweep's and verify's exports load when first
    read, and every name in __all__ resolves."""
    import qrmix

    src = os.path.dirname(os.path.dirname(os.path.abspath(qrmix.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _LAZY_IMPORT_CHECK], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


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


def test_perfbench_selftest_exits_zero():
    """perfbench's self-test in its own process (loading it here would clash
    with tests/oracles): among its planted faults is a table with two products
    swapped, which reaches the checks through GroupTable.from_table."""
    proc = subprocess.run([sys.executable, os.path.join(oracles._PERFBENCH, "selftest.py")],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
