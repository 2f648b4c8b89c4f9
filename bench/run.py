"""feedback-lens benchmark.

    python3 bench/run.py --workload {cli-oneshot,sweep,netlist-scale} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  It builds its inputs from the seed, runs the
workload's operations back to back for S seconds, checks every output, and
prints one JSON object as the last line of stdout.  With ``--trace 0`` that
object carries the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics, taken from spans the benchmark records around the
package's functions, plus the scaling ladder.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 10  # set-up is timed in this many fresh processes
PROBE_REPEATS = 5  # subprocess samples per CLI probe
WARMUP_S = 1.0
LADDER = (5, 10, 20, 40, 80)
COVERAGE_CALLS = (  # in-process CLI calls that reach every traced layer
    ["validate", "netlists/fig3d.net"],
    ["classify", "netlists/fig4.net"],
    ["loading", "netlists/fig3d.net"],
    ["impedance", "netlists/fig3a.net", "--port", "c", "0"],
    ["impedance", "netlists/fig7.net", "--port", "c", "0", "--all-engines"],
    ["crosscheck", "--case", "1", "--paper-defaults", "--format", "json"],
    ["crosscheck", "--case", "2", "--paper-defaults"],
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("cli-oneshot", "sweep", "netlist-scale"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload's inputs and exit (times set-up)")
    return p.parse_args(argv)


def ms(ns_values):
    return [v / 1e6 for v in ns_values]


def p90(values):
    return statistics.quantiles(values, n=10)[-1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def fastest_ms(stats):
    """The fastest visit of each distinct input, in ms.  The host's speed
    drifts over tens of seconds, so the fastest of a point's visits is
    steadier between runs than the time of every visit."""
    best = {}
    for key, ns in zip(stats.keys, stats.durations):
        best[key] = min(ns, best.get(key, ns))
    return ms(best.values())


def end_to_end(stats, setup_s=None):
    times = fastest_ms(stats)
    out = {
        "ops_per_s": metric(len(times) / (sum(times) / 1e3), "1/s"),
        "op_ms_p90": metric(p90(times), "ms"),
        "gate_pass_frac": metric(1.0 - stats.gate_missed / stats.attempted, "ratio"),
    }
    if setup_s is not None:
        out["setup_s"] = metric(setup_s, "s")
    return out


def measure(workload, seconds, stats, start, tracer=None, replays=None):
    """Run operations back to back for ``seconds``; returns the next index."""
    i = start
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        if tracer is not None:
            depth = len(tracer.stack)
        workload.op(i, stats)
        stats.keys.append(i % len(workload.inputs))
        if tracer is not None:
            tracer.unwind(depth)
            if replays is not None:
                replays.append(workload.replay(i))
        i += 1
    return i


def time_setup(args):
    """Wall time of a fresh process that imports and builds the inputs."""
    command = [sys.executable, str(HERE / "run.py"), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    t0 = time.perf_counter()
    subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_untraced(args, workload, workloads):
    # Set-up is timed between equal slices of the measurement (and outside
    # them), so its samples see the same machine as the operations do.
    i = measure(workload, WARMUP_S, workloads.Stats(), 0)
    stats = workloads.Stats()
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        setup_samples.append(time_setup(args))
        i = measure(workload, args.seconds / SETUP_REPEATS, stats, i)
    setup_s = statistics.median(setup_samples)
    info = {"setup_samples_s": setup_samples,
            "op_ms_p50": statistics.median(ms(stats.durations)),
            "gate_miss_share": miss_share(stats)}
    return stats, end_to_end(stats, setup_s), info


def miss_share(stats):
    """Share of operations that missed each gate, by reason."""
    return {reason: n / stats.attempted for reason, n in sorted(stats.miss.items())}


def trace_targets(workloads):
    from feedback_lens import crosscheck, feedback, mna, netlist, sfg, smallsignal

    cap = sfg.DEFAULT_CAP

    def elements(t, circuit):
        t.count("netlist.elements", len(circuit.elements))

    def dimension(t, system):
        t.high("mna.dim_max", system.dimension)

    def enumerated(what):
        def hook(t, found):
            t.count(f"sfg.{what}", len(found))
            t.count(f"sfg.{what}_calls")
            t.low("sfg.cap_headroom", cap - len(found))
        return hook

    targets = {
        (netlist, "parse_netlist"): ("netlist.parse", elements),
        (netlist, "validate"): "netlist.validate",
        (smallsignal, "linearize"): "smallsignal.linearize",
        (feedback, "classify_topology"): "feedback.classify",
        (feedback, "loading_of_circuit"): "feedback.loading",
        (feedback, "exact_rx_case1"): "feedback.exact",
        (feedback, "exact_rx_case2"): "feedback.exact",
        (feedback, "closed_form_rx_case1"): "feedback.closed",
        (feedback, "closed_form_rx_case2"): "feedback.closed",
        (mna, "assemble"): ("mna.assemble", dimension),
        (mna, "solve"): "mna.solve",
        (mna, "driving_point_impedance"): "mna.impedance",
        (crosscheck, "flow_graph_of_system"): "crosscheck.flow_graph",
        (crosscheck, "case1_flow_graph"): "crosscheck.flow_graph",
        (crosscheck, "case2_flow_graph"): "crosscheck.flow_graph",
        (crosscheck, "mason_driving_point_impedance"): "crosscheck.mason_impedance",
        (sfg, "mason_terms"): "sfg.terms",
        (sfg, "enumerate_loops"): ("sfg.loops", enumerated("loops")),
        (sfg, "enumerate_forward_paths"): ("sfg.paths", enumerated("paths")),
        (crosscheck, "run_case"): "crosscheck.run_case",
        (crosscheck, "report_to_dict"): "crosscheck.report",
        (crosscheck, "closed_rx"): "crosscheck.engine.closed_form",
        (crosscheck, "exact_rx"): "crosscheck.engine.exact_formula",
        (crosscheck, "mason_rx"): "crosscheck.engine.mason",
        (crosscheck, "mna_rx"): "crosscheck.engine.mna",
    }
    return {key: value if isinstance(value, tuple) else (value, None)
            for key, value in targets.items()}


def cli_probe(workloads, light, numeric):
    """Subprocess wall times: a bare interpreter, the CLI's imports alone,
    and (unless the workload supplied them) one light and one numeric call."""
    env = workloads.cli_env(ROOT)
    commands = {
        "interp": [sys.executable, "-c", "pass"],
        "import": [sys.executable, "-c", "import feedback_lens.cli"],
    }
    if not light:
        commands["light"] = workloads.cli_command(["validate", "netlists/fig4.net"])
        commands["numeric"] = workloads.cli_command(["crosscheck", "--case", "1",
                                                     "--paper-defaults"])
    samples = {k: [] for k in commands}
    for _ in range(PROBE_REPEATS):
        for key, command in commands.items():
            t0 = time.perf_counter_ns()
            subprocess.run(command, cwd=ROOT, env=env, check=key in ("interp", "import"),
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            samples[key].append(time.perf_counter_ns() - t0)
    samples.setdefault("light", light)
    samples.setdefault("numeric", numeric)
    return {k: statistics.median(ms(v)) for k, v in samples.items()}


def scaling_ladder(workloads, failures):
    """MNA and flow-graph driving-point impedance on meshes of growing size;
    a cap or deadline hit is recorded as an outcome code, not raised."""
    from feedback_lens import crosscheck, mna, netlist, sfg, smallsignal

    out = {}
    for n in LADDER:
        case = workloads.make_case("mesh", n, 0)
        lc = smallsignal.linearize(netlist.parse_netlist(case.text))
        runs = []
        for _ in range(5):
            t0 = time.perf_counter_ns()
            z = mna.driving_point_impedance(lc, case.port)
            runs.append(time.perf_counter_ns() - t0)
        if workloads.oracle.rel_err(z, case.expected()[0]) > workloads.ORACLE_RTOL:
            failures["mismatch"] += 1
        t0 = time.perf_counter_ns()
        try:
            zs = workloads.with_deadline(workloads.SFG_DEADLINE_S,
                                         crosscheck.mason_driving_point_impedance, lc, case.port)
            outcome = 0 if workloads.oracle.rel_err(zs, z) <= workloads.EXACT_RTOL else 3
        except sfg.LimitExceeded:
            outcome = 1
        except workloads.Deadline:
            outcome = 2
        except sfg.ZeroDeterminant:
            outcome = 3
        mason_ns = time.perf_counter_ns() - t0
        out[f"scaling.mna_us.n{n}"] = metric(statistics.median(runs) / 1e3, "us")
        out[f"scaling.mason_us.n{n}"] = metric(mason_ns / 1e3, "us")
        out[f"scaling.mason_outcome.n{n}"] = metric(outcome, "code")
    return out


def run_traced(args, workload, workloads):
    from tracer import Tracer

    half = args.seconds / 2
    i = measure(workload, WARMUP_S, workloads.Stats(), 0)
    untraced = workloads.Stats()
    i = measure(workload, half, untraced, i)
    traced = workloads.Stats()
    tracer = Tracer()
    replays, coverage = [], []
    tracer.install(trace_targets(workloads))
    try:
        measure(workload, half, traced, i, tracer,
                replays if hasattr(workload, "replay") else None)
        solves = tracer.totals["mna.solve"][0]
        for _ in range(3):
            coverage.extend(workloads.replay_cli(ROOT, argv) for argv in COVERAGE_CALLS)
    finally:
        tracer.remove()
    both = (untraced, traced)
    probe = cli_probe(workloads, untraced.light + traced.light,
                      untraced.numeric + traced.numeric)
    ladder_failures = Counter()
    setup_checks = getattr(workload, "accuracy", workloads.Stats())
    ladder = scaling_ladder(workloads, ladder_failures)

    t, c = tracer, tracer.counts
    m = {
        "cli.interp_ms": metric(probe["interp"], "ms"),
        "cli.import_ms": metric(probe["import"] - probe["interp"], "ms"),
        "cli.work_ms": metric(statistics.median(ms(replays or coverage)), "ms"),
        "cli.light_ms_p50": metric(probe["light"], "ms"),
        "cli.numeric_ms_p50": metric(probe["numeric"], "ms"),
    }
    for name in ("netlist.parse", "netlist.validate", "smallsignal.linearize",
                 "feedback.classify", "feedback.loading", "feedback.exact", "feedback.closed",
                 "mna.assemble", "mna.solve", "crosscheck.flow_graph", "sfg.loops",
                 "sfg.paths", "sfg.terms", "crosscheck.run_case", "crosscheck.report",
                 "crosscheck.engine.closed_form", "crosscheck.engine.exact_formula",
                 "crosscheck.engine.mason", "crosscheck.engine.mna"):
        m[f"{name}_us"] = metric(t.mean_us(name), "us")
    m["sfg.determinant_us"] = metric(t.self_us("sfg.terms"), "us")
    m["netlist.elements"] = metric(c["netlist.elements"] / max(1, t.totals["netlist.parse"][0]),
                                   "count")
    m["mna.solves_per_op"] = metric(solves / traced.attempted, "count")
    m["mna.dim_max"] = metric(t.maxima["mna.dim_max"], "count")
    m["sfg.loops"] = metric(c["sfg.loops"] / max(1, c["sfg.loops_calls"]), "count")
    m["sfg.paths"] = metric(c["sfg.paths"] / max(1, c["sfg.paths_calls"]), "count")
    limits = sum(s.miss["limit"] for s in both)
    m["sfg.cap_headroom"] = metric(0 if limits else t.minima.get("sfg.cap_headroom", 0), "count")
    m["sfg.limit_exceeded"] = metric(limits, "count")
    m["sfg.timeouts"] = metric(sum(s.miss["timeout"] for s in both), "count")
    for name in ("exact", "mna_oracle", "mason_mna"):
        worst = max(s.accuracy[name] for s in (*both, setup_checks))
        m[f"accuracy.{name}_max_rel_err"] = metric(worst, "ratio")
    for reason in ("error", "exit_code", "mismatch"):
        m[f"fail.{reason}"] = metric(sum(s.fail[reason] for s in both)
                                     + ladder_failures[reason], "count")
    for reason in ("r_in", "accuracy", "mna_oracle"):
        m[f"miss.{reason}"] = metric(sum(s.miss[reason] for s in both), "count")
    e2e_u, e2e_t = end_to_end(untraced), end_to_end(traced)
    m["trace.untraced_ops_per_s"] = e2e_u["ops_per_s"]
    m["trace.traced_ops_per_s"] = e2e_t["ops_per_s"]
    m["trace.overhead_pct"] = metric(
        (e2e_u["ops_per_s"]["value"] / e2e_t["ops_per_s"]["value"] - 1.0) * 100, "%")
    m.update(ladder)

    info = {"untraced": e2e_u, "traced": e2e_t, "spans": tracer.table(),
            "gate_miss_share": {"untraced": miss_share(untraced), "traced": miss_share(traced)},
            "cli_replays": len(replays), "coverage_replays": len(coverage)}
    stats = workloads.Stats()
    for s in both:
        stats.durations += s.durations
        stats.keys += s.keys
        stats.fail.update(s.fail)
        stats.examples += s.examples
        stats.light += s.light
        stats.numeric += s.numeric
    stats.fail.update(ladder_failures)
    return stats, m, info


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "feedback_lens" / "__init__.py").is_file():
        print(f"error: no feedback_lens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    if args.setup_only:
        return 0
    run = run_traced if args.trace else run_untraced
    stats, metrics, info = run(args, workload, workloads)
    info.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "nproc": os.cpu_count(), "platform": platform.platform()},
        "samples": {"ops": stats.attempted, "distinct_inputs": len(set(stats.keys)),
                    "cli_light": len(stats.light),
                    "cli_numeric": len(stats.numeric)},
        "failures": dict(stats.fail), "failure_examples": stats.examples,
    })
    print(json.dumps(info, sort_keys=True))
    for example in stats.examples:
        print(f"failed: {example}", file=sys.stderr)
    print(json.dumps({"correct": stats.failed == 0, "attempted": stats.attempted,
                      "failed": stats.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
