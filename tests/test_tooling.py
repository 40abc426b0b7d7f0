"""The benchmark's tracer (perfbench/tracing.py) wraps monephase functions by name,
and its output checks (perfbench/checks.py) judge the files of a chain.

A renamed or deleted function would make `perfbench/run.py --trace 1`
fail at start-up, and a file a check refuses would make the benchmark
report its outputs incorrect; these tests catch both in the test suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    missing = [
        f"{home}.{attr}"
        for home, attr, _ in load_tracing().FUNCTIONS
        if not callable(getattr(importlib.import_module(home), attr, None))
    ]
    assert missing == []


def test_traced_lookups_resolve():
    # install() also wraps the command table and, through a copy of
    # vars(compartment.optimize), the pattern search that calibrate polishes with;
    # it reads nfev from that search's result
    cli = importlib.import_module("monephase.cli")
    compartment = importlib.import_module("monephase.compartment")
    assert all(callable(fn) for fn in cli.COMMANDS.values())
    assert vars(compartment.optimize)["minimize"] is compartment._pattern_search
    result = compartment.optimize.minimize(
        lambda x: np.sum(x**2, axis=1), [0.5, -0.25], [(-1.0, 1.0)] * 2, [0.1, 0.1]
    )
    assert isinstance(result.nfev, int) and result.nfev > 1


def test_calibrate_polishes_once_through_optimize(monkeypatch, default_economy):
    # compartment.minimize_nfev counts the evaluations of the one search that
    # calibrate runs; with the 3 * 65^2 grid evaluations they are rate_evaluations
    compartment = importlib.import_module("monephase.compartment")
    results = []

    def minimize(*args, **kwargs):
        results.append(compartment._pattern_search(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(compartment, "optimize", SimpleNamespace(minimize=minimize))
    out = compartment.calibrate(*default_economy)
    assert len(results) == 1
    assert results[0].nfev == out.rate_evaluations - 3 * 65**2


def test_benchmark_checks_pass_on_the_default_chain(robust_chain, monkeypatch):
    # each check that perfbench/run.py applies to chain-default (seed 1, 612 months, the full
    # chain with the sweep) raises CheckFailed on a file it refuses
    modules = {}
    for name in ("workloads", "checks"):  # as run.py imports them: checks imports workloads
        spec = importlib.util.spec_from_file_location(name, TRACING.parent / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, modules[name])
        spec.loader.exec_module(modules[name])
    workload = modules["workloads"].WORKLOADS["chain-default"]
    assert (workload.months, workload.robustness) == (612, True)
    checks = modules["checks"].checks_for(workload)
    assert len(checks) == 9
    for check in checks:
        check(robust_chain[0], workload)
