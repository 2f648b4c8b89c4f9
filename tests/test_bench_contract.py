"""The traced benchmark wraps package functions by name, so a refactor that
renames one of them must fail here rather than in a traced bench run."""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_function_the_traced_bench_wraps_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports the bench's oracle
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    import workloads

    targets = run.trace_targets(workloads)
    assert targets
    for module, name in targets:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
