"""The benchmark reads package names and runs package code, so a refactor
that breaks what it uses must fail here rather than in a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports the bench's oracle
    import workloads

    return workloads


def test_every_function_the_traced_bench_wraps_exists(workloads):
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)

    targets = run.trace_targets(workloads)
    assert targets
    for module, name in targets:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


@pytest.mark.parametrize("name, operations", [("sweep", 20), ("netlist-scale", 10),
                                              ("cli-oneshot", 3)])
def test_each_workload_sets_up_and_runs_its_first_operations(workloads, name, operations):
    workload = workloads.WORKLOADS[name](1, ROOT)
    stats = workloads.Stats()
    for i in range(operations):
        workload.op(i, stats)
    assert stats.attempted == operations
    assert stats.failed == 0, stats.examples
