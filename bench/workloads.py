"""The three benchmark workloads: inputs made from a seed, one operation at a
time, and a check of every output.

An operation *fails* (and counts in ``failed``) when it raises, exits with
the wrong code, or returns a value that differs from the benchmark's own
reference (``oracle``) or from the library value it should print.  An
operation *misses a gate* when it completes correctly as far as the program
is concerned but one of the agreement gates does not hold: the exact engines
differ by more than 1e-6, the flow-graph route differs from MNA by more than
1e-6, the flow-graph route hits ``LimitExceeded`` or the per-operation
deadline, or MNA is further than 1e-9 from the exact reference of a case
circuit.  Known defects (the ``R_in`` disagreement, the flow-graph stall and
its loss of precision on large graphs) show up as gate misses, measured by
``gate_pass_frac`` and counted by reason: ``r_in``, ``accuracy``, ``limit``,
``timeout`` and ``mna_oracle``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import oracle
from feedback_lens import cli, crosscheck, feedback, mna, netlist, sfg, smallsignal

now = time.perf_counter_ns

EXACT_RTOL = 1e-6  # exact engines against each other, flow graph against MNA
ORACLE_RTOL = 1e-9  # MNA against the benchmark's own oracle
# Per-operation budget of the flow-graph route.  Its run time on the
# netlist-scale inputs has a long tail with no gap between runs that finish
# and runs that stall (at 20 nodes, from a few ms to past 2 s), so the budget
# is a policy: one CLI call's wall time (cli-oneshot's op_ms_p90, 0.22 to
# 0.31 s on two vCPUs).  A flow graph slower than a whole CLI call stalls.
SFG_DEADLINE_S = 0.3
EXACT_ENGINES = ("exact_formula", "mason", "mna")


class Deadline(Exception):
    pass


def _raise_deadline(signum, frame):
    raise Deadline()


def with_deadline(seconds, fn, *args):
    """Run ``fn`` under an interval timer of this process; raises Deadline."""
    previous = signal.signal(signal.SIGALRM, _raise_deadline)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Stats:
    """Per-operation durations and outcomes of one measured phase."""

    def __init__(self):
        self.durations = []
        self.keys = []  # which input each duration belongs to
        self.fail = Counter()
        self.miss = Counter()
        self.gate_missed = 0
        self.accuracy = Counter()
        self.examples = []
        self.light, self.numeric = [], []  # CLI calls only

    def add(self, ns, fail=None, misses=(), detail=""):
        self.durations.append(ns)
        if fail:
            self.fail[fail] += 1
            if len(self.examples) < 5:
                self.examples.append(f"{fail}: {detail}")
        for reason in misses:
            self.miss[reason] += 1
        if misses:
            self.gate_missed += 1

    def err(self, name, value):
        self.accuracy[name] = max(self.accuracy[name], value)

    @property
    def attempted(self):
        return len(self.durations)

    @property
    def failed(self):
        return sum(self.fail.values())


def log_uniform(rng, lo, hi):
    return 10 ** rng.uniform(math.log10(lo), math.log10(hi))


def exact_agreement(values, stats):
    """Largest pairwise relative error among the exact engines."""
    worst = max(oracle.rel_err(values[a], values[b])
                for i, a in enumerate(EXACT_ENGINES) for b in EXACT_ENGINES[i + 1:]
                if a in values and b in values)
    stats.err("exact", worst)
    return worst


# The exact reference of a case circuit costs a few hundred microseconds;
# the sweep meets each point many times, so it is worked out once per point.
case_rx = functools.lru_cache(maxsize=None)(oracle.case_rx)


def check_report(case, p, report, stats, band=None):
    """Check one cross-check report against the oracle; returns
    ``(fail, misses, detail)``.  ``band`` is the closed-form error band the
    report was judged against, if any.

    MNA must match the exact oracle within 1e-6; beyond 1e-9 that is a gate
    miss (``mna_oracle``), the precision the solver loses on ill-conditioned
    points.  The exact formula must match it within 1e-6 too, or match the
    circuit without ``R_in``: it leaves ``R_in`` out of its model (a known
    defect), which is then a gate miss (``r_in``) and not a failure.  The
    flow graph leaves ``R_in`` out as well, and on ill-conditioned points it
    also loses precision (the same gate as on netlist-scale: within 1e-6 of
    MNA), so its distance from the oracle is a gate miss (``r_in`` or
    ``accuracy``), provided the report's verdict says the engines disagree.
    Any other disagreement is a failure.
    """
    values = report.values
    ref = case_rx(case, p)
    err = oracle.rel_err(values["mna"], ref)
    stats.err("mna_oracle", err)
    stats.err("mason_mna", oracle.rel_err(values["mason"], values["mna"]))
    if err > EXACT_RTOL:
        return "mismatch", (), f"case {case} mna {values['mna']!r} oracle {ref!r}"
    misses = ["mna_oracle"] if err > ORACLE_RTOL else []
    without_rin = case_rx(case, replace(p, R_in=math.inf))
    if min(oracle.rel_err(values["exact_formula"], ref),
           oracle.rel_err(values["exact_formula"], without_rin)) > EXACT_RTOL:
        return "mismatch", (), (f"case {case} exact formula {values['exact_formula']!r} "
                                f"oracle {ref!r}")
    if oracle.rel_err(values["closed_form"], oracle.closed_rx(case, p)) > 1e-12:
        return "mismatch", (), f"case {case} closed form {values['closed_form']!r}"
    agree = exact_agreement(values, stats) <= EXACT_RTOL
    if band is None and report.passed != agree:
        return "mismatch", (), f"case {case} verdict {report.verdict} with {report.relative_errors}"
    if not agree:
        r_in = all(oracle.rel_err(values[e], without_rin) <= EXACT_RTOL
                   for e in ("exact_formula", "mason"))
        misses.append("r_in" if r_in else "accuracy")
    return None, tuple(misses), ""


# ---------------------------------------------------------------------------
# sweep: in-process design-space exploration over AmplifierParams
# ---------------------------------------------------------------------------

# The test suite's documented parameter ranges (``draw_params`` in
# tests/support.py, over which the engines are asserted to agree): every
# resistance from 10 ohm to 10 Mohm, g_m from 0.1 mS to 1 S, beta from 20 to
# 500 with r_pi = beta / g_m, and K from 10 to 1e5.
RESISTANCE = (10.0, 1e7)
BETA = (20.0, 500.0)
RANGES = {"K": (10.0, 1e5), "g_m": (1e-4, 1.0), "r_out": RESISTANCE, "R1": RESISTANCE,
          "r_o": RESISTANCE, "R2": RESISTANCE, "R_E": RESISTANCE, "R_S": RESISTANCE,
          "R_in": RESISTANCE}
# Fields the typical operating point leaves absent (R2 and R_in infinite,
# R_E and R_S zero).  Each is drawn in exactly half of the points, a seeded
# half, and absent in the other, so every field is exercised and the R_in
# defect costs the same share of the gate on every seed.
OPTIONAL = ("R2", "R_E", "R_S", "R_in")
SWEEP_POINTS = 1000  # ROADMAP's 1000-point sweep


def draw_params(rng, present):
    """One parameter point; ``present`` names the optional fields it has."""
    values = {f: log_uniform(rng, *RANGES[f]) for f in ("K", "g_m", "r_out", "R1", "r_o")}
    values["r_pi"] = log_uniform(rng, *BETA) / values["g_m"]
    values.update((f, log_uniform(rng, *RANGES[f])) for f in present)
    return feedback.AmplifierParams(**values)


class Sweep:
    """One operation is one parameter point, cross-checked for both cases."""

    name = "sweep"

    def __init__(self, seed, root):
        rng = random.Random(seed)
        halves = {f: set(rng.sample(range(SWEEP_POINTS), SWEEP_POINTS // 2)) for f in OPTIONAL}
        self.inputs = self.points = [draw_params(rng, [f for f in OPTIONAL if i in halves[f]])
                       for i in range(SWEEP_POINTS)]

    def op(self, i, stats):
        p = self.points[i % len(self.points)]
        t0 = now()
        try:
            results = [(case, report, crosscheck.report_to_dict(report))
                       for case in (1, 2) for report in [crosscheck.run_case(case, p)]]
        except Exception as exc:  # any exception is a failed operation
            stats.add(now() - t0, "error", detail=repr(exc))
            return
        ns = now() - t0
        misses = set()
        for case, report, payload in results:
            fail, missed, detail = check_report(case, p, report, stats)
            if not fail and (payload["values"] != crosscheck.json_safe(report.values)
                             or payload["verdict"] != report.verdict):
                fail, detail = "mismatch", "report_to_dict differs from the report"
            if fail:
                stats.add(ns, fail, detail=detail)
                return
            misses.update(missed)
        stats.add(ns, None, tuple(misses))


# ---------------------------------------------------------------------------
# netlist-scale: generated netlists of 5 to 80 nodes through every layer
# ---------------------------------------------------------------------------

# The fig3 amplifiers: forward elements, the nodes their feedback network
# attaches to, and the topology, feedback ports and impedance port the
# paper gives them.  The feedback network is replaced by a generated mesh on
# the same attachment nodes, which leaves the classification unchanged.
AMPLIFIERS = {
    "fig3a": (lambda d: [("Q1", ("Q", "b", "c", "0", *d[0])), ("RC", ("R", "c", "0", d[1]))],
              ("c", "b"), "shunt-shunt", "b", "c", ("b", "0"), ("c", "0")),
    "fig3b": (lambda d: [("Q1", ("Q", "b", "c", "e", *d[0])), ("RC", ("R", "c", "0", d[1]))],
              ("c", "e", "0"), "series-shunt", "e", "c", ("b", "0"), ("c", "0")),
    "fig3c": (lambda d: [("Q1", ("Q", "b", "c", "e", *d[0])), ("RC", ("R", "c", "0", d[1]))],
              ("e", "0"), "series-series", "e", "e", ("b", "0"), ("c", "0")),
    "fig3d": (lambda d: [("Q1", ("Q", "b1", "c1", "0", *d[0])),
                         ("Q2", ("Q", "c1", "c2", "e2", *d[2])),
                         ("RC1", ("R", "c1", "0", d[1])), ("RC2", ("R", "c2", "0", d[3]))],
              ("b1", "e2", "0"), "shunt-series", "b1", "e2", ("b1", "0"), ("c2", "0")),
}
SIZES = (5, 10, 20, 40, 80)  # non-ground nodes per netlist: ROADMAP's scaling ladder
CHORDS = 4  # branches on top of a spanning tree, as the test suite's random_resistor_mesh
# Netlists per (size, kind): 225 netlists, about as many as a 30 s run gets
# through, so every run meets nearly the whole corpus.
REPLICAS = 9


def quantize(value):
    return float(f"{value:.5g}")


def value_text(value):
    """Render with an engineering suffix where one fits, as users write them."""
    if value >= 1e6:
        return f"{value / 1e6:.9g}M"
    if value >= 1e3:
        return f"{value / 1e3:.9g}k"
    if value < 1.0:
        return f"{value * 1e3:.9g}m"
    return f"{value:.9g}"


def render(title, elements, annotations=()):
    lines = [f".title {title}"]
    for name, e in elements:
        if e[0] == "R":
            lines.append(f"{name} {e[1]} {e[2]} {value_text(e[3])}")
        else:
            _, b, c, em, gm, rpi, ro = e
            lines.append(f"{name} {b} {c} {em} gm={value_text(gm)} "
                         f"rpi={value_text(rpi)} ro={value_text(ro)}")
    lines.extend(annotations)
    return "\n".join(lines) + "\n"


def random_mesh(rng, nodes, prefix):
    """A random spanning tree over ``nodes`` plus ``CHORDS`` chords."""
    order = list(nodes)
    rng.shuffle(order)
    branches = [(order[i], order[rng.randrange(i)]) for i in range(1, len(order))]
    branches += [tuple(rng.sample(order, 2)) for _ in range(CHORDS)]
    return [(f"{prefix}{k}", ("R", a, b, resistance(rng)))
            for k, (a, b) in enumerate(branches, 1)]


def resistance(rng):
    return quantize(log_uniform(rng, *RESISTANCE))


def device(rng):
    """g_m, r_pi and r_o of one transistor, over the sweep's ranges."""
    g_m = log_uniform(rng, *RANGES["g_m"])
    return (quantize(g_m), quantize(log_uniform(rng, *BETA) / g_m), resistance(rng))


class Case:
    """One generated netlist.  Its expected values come from the oracle,
    computed on first use so they stay out of set-up."""

    def __init__(self, kind, size, elements, port, feedback=None, annotations=()):
        self.kind, self.size, self.port = kind, size, port
        self.elements = [e for _, e in elements]
        self.text = render(f"{kind}, {size} nodes", elements, annotations)
        self.n_primitives = sum(3 if e[0] == "Q" else 1 for e in self.elements)
        self.feedback = feedback  # (feedback tuples, topology, input node, output node)
        self.topology = feedback[1] if feedback else None
        self._expected = None

    def expected(self):
        if self._expected is None:
            z = oracle.Nodal(self.elements).impedance(self.port)
            self._expected = z, oracle.loading(*self.feedback) if self.feedback else None
        return self._expected


def make_case(kind, size, replica):
    """The netlist ``replica`` of ``kind`` and ``size``, drawn from a seed of
    its own."""
    rng = random.Random(f"{kind}/{size}/{replica}")
    if kind == "mesh":
        nodes = ["0"] + [f"n{i}" for i in range(1, size + 1)]
        return Case("mesh", size, random_mesh(rng, nodes, "R"), ("n1", "0"))
    forward_of, attach, topology, in_node, out_node, in_port, port = AMPLIFIERS[kind]
    forward = forward_of((device(rng), resistance(rng), device(rng), resistance(rng)))
    named = {n for _, e in forward for n in oracle.terminals(e)} | set(attach)
    internal = [f"f{i}" for i in range(1, max(0, size - len(named - {"0"})) + 1)]
    fb = random_mesh(rng, list(attach) + internal, "RF")
    annotations = (f".input {in_port[0]} {in_port[1]}", f".output {port[0]} {port[1]}",
                   ".feedback " + " ".join(name for name, _ in fb))
    return Case(kind, size, forward + fb, port,
                ([e for _, e in fb], topology, in_node, out_node), annotations)


class NetlistScale:
    name = "netlist-scale"
    kinds = ("mesh",) + tuple(AMPLIFIERS)

    def __init__(self, seed, root):
        # A fixed corpus: each netlist comes from a seed of its own and the
        # run seed only sets the order.  Whether the flow graph stalls or
        # loses precision depends on the shape and on the values (about half
        # of the 20-node netlists lose it), so netlists drawn per run made
        # gate_pass_frac differ by about 7% between seeds.
        rng = random.Random(seed)
        by_size = []
        for size in SIZES:
            cases = [make_case(kind, size, r) for kind in self.kinds for r in range(REPLICAS)]
            rng.shuffle(cases)
            by_size.append(cases)
        # Rounds of one netlist per size, so any stretch of operations has
        # the same size mix and a run's figures do not depend on where in
        # the cycle it stops.
        self.inputs = self.cases = []
        for round_ in zip(*by_size):
            round_ = list(round_)
            rng.shuffle(round_)
            self.cases += round_

    def op(self, i, stats):
        case = self.cases[i % len(self.cases)]
        t0 = now()
        try:
            results = self._run(case)
        except Exception as exc:  # any other exception is a failed operation
            stats.add(now() - t0, "error", detail=f"{case.kind}/{case.size}: {exc!r}")
            return
        ns = now() - t0
        fail, misses, detail = self._check(case, results, stats)
        stats.add(ns, fail, misses, f"{case.kind}/{case.size}: {detail}")

    @staticmethod
    def _run(case):
        circuit = netlist.parse_netlist(case.text)
        report = netlist.validate(circuit)
        lc = smallsignal.linearize(circuit)
        topo = load = None
        if case.topology:
            topo = feedback.classify_topology(circuit)
            load = feedback.loading_of_circuit(circuit)
        z = mna.driving_point_impedance(lc, case.port)
        try:
            zs = with_deadline(SFG_DEADLINE_S, crosscheck.mason_driving_point_impedance,
                               lc, case.port)
        except Deadline:
            zs = "timeout"
        except sfg.LimitExceeded:
            zs = "limit"
        except sfg.ZeroDeterminant:
            zs = "accuracy"
        return circuit, report, lc, topo, load, z, zs

    @staticmethod
    def _check(case, results, stats):
        circuit, report, lc, topo, load, z, zs = results
        if len(circuit.elements) != len(case.elements) or len(lc.elements) != case.n_primitives:
            return "mismatch", (), "element count"
        if not report.ok:
            return "mismatch", (), report.violations[0].message
        want_z, want_loading = case.expected()
        if case.topology:
            if topo.label != case.topology or topo.validity is not feedback.Validity.VALID:
                return "mismatch", (), f"classified {topo.label}"
            got = (load.R_if, load.R_of, load.f)
            if any(oracle.rel_err(a, b) > ORACLE_RTOL for a, b in zip(got, want_loading)):
                return "mismatch", (), f"loading {got}"
        err = oracle.rel_err(z, want_z)
        stats.err("mna_oracle", err)
        if err > ORACLE_RTOL:
            return "mismatch", (), f"mna {z!r} oracle {want_z!r}"
        if isinstance(zs, str):
            return None, (zs,), ""
        err = oracle.rel_err(zs, z)
        stats.err("mason_mna", err)
        return None, () if err <= EXACT_RTOL else ("accuracy",), ""


# ---------------------------------------------------------------------------
# cli-oneshot: one shell user, one CLI process per request
# ---------------------------------------------------------------------------

_SUFFIX = {"k": 1e3, "M": 1e6, "m": 1e-3, "u": 1e-6}


def read_fixture(path):
    """The benchmark's own reading of a fixture: oracle tuples for R and Q
    lines (None when the netlist holds anything else) and the feedback
    element names."""
    def value(token):
        token = token.split("=")[-1]
        if token[-1] in _SUFFIX:
            return float(token[:-1]) * _SUFFIX[token[-1]]
        return float(token)

    elements, fb, nodal = {}, [], True
    for line in Path(path).read_text().splitlines():
        tokens = line.split()
        if not tokens or tokens[0].startswith("*"):
            continue
        if tokens[0] == ".feedback":
            fb = tokens[1:]
        elif tokens[0][0] == "R":
            elements[tokens[0]] = ("R", tokens[1], tokens[2], value(tokens[3]))
        elif tokens[0][0] == "Q":
            elements[tokens[0]] = ("Q", *tokens[1:4], *(value(t) for t in tokens[4:7]))
        elif not tokens[0].startswith("."):
            nodal = False
    return (list(elements.values()) if nodal else None), [elements[n] for n in fb]


# name: (topology, validity, input-side node, output-side node, impedance
# port, case circuit it realises) as the paper and the test suite give them.
FIXTURES = {
    "fig3a": ("shunt-shunt", "valid", "b", "c", ("c", "0"), None),
    "fig3b": ("series-shunt", "valid", "e", "c", ("c", "0"), None),
    "fig3c": ("series-series", "valid", "e", "e", ("c", "0"), None),
    "fig3d": ("shunt-series", "valid", "b1", "e2", ("c2", "0"), None),
    "fig4": ("series-series", "valid", "e", "e", None, None),
    "fig5": ("series-series", "valid", "c", "c", None, None),
    "fig7": (None, None, None, None, ("c", "0"), 1),
    "fig9": (None, None, None, None, ("e", "0"), 2),
    "irrelevant": ("series-shunt", "irrelevant", "c1", "c2", ("c2", "0"), None),
}
ALIAS_FIELD = {"k": "K", "rout": "r_out", "r1": "R1", "r2": "R2", "gm": "g_m",
               "rpi": "r_pi", "ro": "r_o", "re": "R_E", "rs": "R_S", "rin": "R_in"}


def override_range(field):
    """The sweep's range of ``field``.  One override leaves the rest of the
    typical point as it is, so g_m and r_pi span BETA over the other's
    typical value."""
    typical = feedback.AmplifierParams.typical()
    if field == "g_m":
        return tuple(b / typical.r_pi for b in BETA)
    if field == "r_pi":
        return tuple(b / typical.g_m for b in BETA)
    return RANGES[field]


# every --set alias the CLI accepts, with the range to draw its value from
ALIASES = {alias: override_range(field) for alias, field in ALIAS_FIELD.items()}
LIGHT = ("validate", "classify")
NUMBER = re.compile(r"[-+]?[0-9.]+e[-+][0-9]+|[-+]?inf")


class Call:
    """One CLI request, its expected exit code and the values its output
    must carry.  ``tol`` is the relative tolerance of the printed digits."""

    def __init__(self, argv, code, expect, gate_misses=()):
        self.argv, self.code, self.expect = argv, code, expect
        self.gate_misses = tuple(gate_misses)
        self.light = argv[0] in LIGHT
        self.json = "--format" in argv
        self.tol = 1e-12 if self.json else (1e-6 if argv[0] == "impedance" else 1e-8)


class CliOneshot:
    name = "cli-oneshot"

    def __init__(self, seed, root):
        self.root = Path(root)
        self.env = cli_env(root)
        rng = random.Random(seed)
        calls = []
        self.accuracy = Stats()  # gate diagnostics of the library values
        for fmt in ([], ["--format", "json"]):
            for name, spec in FIXTURES.items():
                path = str(self.root / "netlists" / f"{name}.net")
                calls.append(self._validate(path, fmt))
                if spec[0]:
                    calls.append(self._classify(path, spec, fmt))
                    calls.append(self._loading(path, spec, fmt))
                if spec[4]:
                    for all_engines in ([], ["--all-engines"]):
                        calls.append(self._impedance(path, spec, all_engines, fmt))
            # each alias overrides once per format (ten override calls), so
            # every seed sends the same mix of parameters
            aliases = sorted(ALIASES)
            rng.shuffle(aliases)
            for case in (1, 2):
                for variant in range(6):
                    alias = aliases.pop() if variant else None
                    calls.append(self._crosscheck(rng, case, variant, alias, fmt))
        rng.shuffle(calls)
        self.inputs = self.calls = calls

    # -- expected values, from the library and the oracle ------------------

    def _validate(self, path, fmt):
        if not netlist.validate(netlist.parse_netlist_file(path)).ok:
            raise RuntimeError(f"{path}: fixture reported invalid")
        return Call(["validate", path, *fmt], 0,
                    {"valid": True, "violations": []} if fmt else "valid")

    def _classify(self, path, spec, fmt):
        topo = feedback.classify_topology(netlist.parse_netlist_file(path))
        if (topo.label, topo.validity.value) != spec[:2]:
            raise RuntimeError(f"{path}: classified {topo.label} ({topo.validity.value})")
        expect = ({"input_mix": topo.input_mix.value, "output_sense": topo.output_sense.value,
                   "validity": topo.validity.value} if fmt
                  else f"{topo.label} ({topo.validity.value})")
        return Call(["classify", path, *fmt], 0 if spec[1] == "valid" else 2, expect)

    def _loading(self, path, spec, fmt):
        load = feedback.loading_of_circuit(netlist.parse_netlist_file(path))
        got = {"R_if": load.R_if, "R_of": load.R_of, "f": load.f}
        _, fb = read_fixture(path)
        ref = oracle.loading(fb, spec[0], spec[2], spec[3])
        for value, want in zip(got.values(), ref):
            self.accuracy.err("mna_oracle", oracle.rel_err(value, want))
            if oracle.rel_err(value, want) > ORACLE_RTOL:
                raise RuntimeError(f"{path}: loading {got} oracle {ref}")
        return Call(["loading", path, *fmt], 0, got)

    def _impedance(self, path, spec, all_engines, fmt):
        port = spec[4]
        lc = smallsignal.linearize(netlist.parse_netlist_file(path))
        values = {"mna": mna.driving_point_impedance(lc, port)}
        elements, _ = read_fixture(path)
        if spec[5]:
            ref = case_rx(spec[5], feedback.AmplifierParams.typical())
        else:
            ref = oracle.Nodal(elements).impedance(port)
        self.accuracy.err("mna_oracle", oracle.rel_err(values["mna"], ref))
        if oracle.rel_err(values["mna"], ref) > ORACLE_RTOL:
            raise RuntimeError(f"{path}: mna {values['mna']!r} oracle {ref!r}")
        misses = []
        if all_engines:
            values["mason"] = crosscheck.mason_driving_point_impedance(lc, port)
            if spec[5]:
                p = feedback.AmplifierParams.typical()
                values["closed_form"] = crosscheck.closed_rx(spec[5], p)
                values["exact_formula"] = crosscheck.exact_rx(spec[5], p)
            self.accuracy.err("mason_mna", oracle.rel_err(values["mason"], values["mna"]))
            if oracle.rel_err(values["mason"], ref) > EXACT_RTOL:
                raise RuntimeError(f"{path}: mason {values['mason']!r} oracle {ref!r}")
            if exact_agreement(values, self.accuracy) > EXACT_RTOL:
                misses.append("accuracy")
        argv = ["impedance", path, "--port", *port, *all_engines, *fmt]
        return Call(argv, 0, values, misses)

    def _crosscheck(self, rng, case, variant, alias, fmt):
        argv = ["crosscheck", "--case", str(case)]
        overrides = {}
        if variant % 3 == 0:
            argv.append("--paper-defaults")
        if alias:
            text = value_text(quantize(log_uniform(rng, *ALIASES[alias])))
            argv += ["--set", f"{alias}={text}"]
            overrides[ALIAS_FIELD[alias]] = netlist.parse_value(text)
        p = feedback.AmplifierParams.typical(**overrides)
        band = crosscheck.CLOSED_FORM_ERROR_BANDS[case] if variant == 0 else None
        report = crosscheck.run_case(case, p, crosscheck.CrossCheckConfig(closed_error_band=band))
        fail, misses, detail = check_report(case, p, report, self.accuracy, band)
        if fail:
            raise RuntimeError(f"crosscheck {argv}: {detail}")
        expect = dict(report.values, verdict=report.verdict)
        return Call(argv + fmt, 0 if report.passed else 2, expect, misses)

    # -- one request -------------------------------------------------------

    def replay(self, i):
        return replay_cli(self.root, self.calls[i % len(self.calls)].argv)

    def op(self, i, stats):
        call = self.calls[i % len(self.calls)]
        t0 = now()
        try:
            proc = subprocess.run(cli_command(call.argv), cwd=self.root, env=self.env,
                                  capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired as exc:
            stats.add(now() - t0, "error", detail=f"{call.argv}: {exc}")
            return
        ns = now() - t0
        (stats.light if call.light else stats.numeric).append(ns)
        if proc.returncode != call.code:
            stats.add(ns, "exit_code", detail=f"{call.argv}: exit {proc.returncode}, "
                                              f"stderr {proc.stderr.strip()[:200]}")
            return
        problem = check_output(call, proc.stdout)
        stats.add(ns, "mismatch" if problem else None,
                  () if problem else call.gate_misses, f"{call.argv}: {problem}")


def check_output(call, out):
    """None when ``out`` carries the expected values, else the reason."""
    want = call.expect
    if isinstance(want, str):
        return None if out.strip() == want else f"printed {out.strip()!r}"
    if call.json:
        got = json.loads(out)
        if call.argv[0] == "crosscheck":
            got = dict(got["values"], verdict=got["verdict"])
        # non-finite values are printed as strings, since JSON has no literal for them
        got = {k: float(v) if v in ("inf", "-inf") else v for k, v in got.items()}
    else:
        got = {}
        for line in out.splitlines():
            parts = line.replace(":", " ").split()
            if len(parts) >= 2 and parts[0] in want and NUMBER.fullmatch(parts[1]):
                got[parts[0]] = float(parts[1])
            elif parts[:1] == ["verdict"]:
                got["verdict"] = parts[1]
        if call.argv[0] == "impedance" and "--all-engines" not in call.argv:
            got = {"mna": float(NUMBER.search(out).group())}
    if got.keys() != want.keys():
        return f"printed fields {sorted(got)}"
    for key, value in want.items():
        if not (isinstance(value, float) and isinstance(got[key], float)):
            if got[key] != value:
                return f"{key} {got[key]!r}"
        elif oracle.rel_err(got[key], value) > call.tol:
            return f"{key} {got[key]!r} expected {value!r}"
    return None


def replay_cli(root, argv):
    """Run one CLI call inside this process, where imports are already
    done; returns its wall time in ns."""
    argv = [str(Path(root) / a) if a.startswith("netlists/") else a for a in argv]
    sink = io.StringIO()
    t0 = now()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        cli.main(argv)
    return now() - t0


def cli_env(root):
    env = {k: v for k, v in os.environ.items() if k != cli.FORMAT_ENV}
    env["PYTHONPATH"] = str(Path(root) / "src")
    return env


def cli_command(argv):
    return [sys.executable, "-m", "feedback_lens.cli", *argv]


WORKLOADS = {w.name: w for w in (CliOneshot, Sweep, NetlistScale)}
