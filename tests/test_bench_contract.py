"""The benchmark reads package names and runs package code, so a refactor
that breaks what it uses must fail here rather than in a benchmark run."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from feedback_lens.netlist import parse_netlist

from support import exact_impedance

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


def test_the_benchmark_oracle_agrees_with_the_exact_reference(workloads):
    # the benchmark gates on its own float oracle; held to the exact one
    # here, the two references cannot disagree silently
    for case in workloads.NetlistScale(1, ROOT).cases:
        want = float(exact_impedance(parse_netlist(case.text), case.port))
        assert case.expected()[0] == pytest.approx(want, rel=workloads.ORACLE_RTOL, abs=0), (
            case.kind, case.size)


def test_a_short_traced_run_sees_every_layer_and_one_stamp_per_impedance():
    # a refactor that stops calling a function the trace wraps fails here,
    # not in a long traced run
    run = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "netlist-scale",
                          "--seed", "1", "--seconds", "0.5", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    *_, info, result = map(json.loads, run.stdout.splitlines())
    assert result["correct"], info["failure_examples"]
    calls = {name: span["calls"] for name, span in info["spans"].items()}
    for name in ("mna.assemble", "mna.solve", "mna.impedance", "crosscheck.mason_impedance",
                 "feedback.loading"):
        assert calls.get(name), name
    assert calls["mna.assemble"] == calls["mna.impedance"]
