"""Run the closed-form, exact-formula, flow-graph and nodal engines on one
output-series case and compare the results.

The verification circuits realize the models the exact formulas solve:

* case 1 is the plain hybrid-pi stage driven by the op-amp Thevenin source,
  sensed at the collector.
* case 2 merges the base current into the transconductance (the model drops
  the 1/r_pi term next to g_m), so its circuit returns the base current
  through a unity-gain driven rail at emitter potential instead of into the
  emitter node; the emitter then carries only the g_m current, exactly as
  the case-2 model states.

The flow graphs are built through ``from_linear_system`` from the same
parameter set, written in the causal ordering of the derivation, so the
Mason engine runs end to end on every call.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import astuple, dataclass, fields, replace
from decimal import localcontext
from itertools import combinations

from . import mna, sfg
from .feedback import (
    AmplifierParams,
    closed_form_rx_case1,
    closed_form_rx_case2,
    exact_rx_case1,
    exact_rx_case2,
)
from .netlist import GROUND, Circuit, Resistor, Vccs, Vcvs

CASE1_PORT = ("c", GROUND)
CASE2_PORT = ("e", GROUND)

# Documented closed-vs-exact error levels at the typical operating point,
# as (center, half-width) fractions: 0.5% +/- 0.05pp and 5.01% +/- 0.1pp.
CLOSED_FORM_ERROR_BANDS = {1: (0.005, 0.0005), 2: (0.0501, 0.001)}


def build_case1_circuit(p: AmplifierParams) -> Circuit:
    """Collector-output measurement circuit: op-amp (gain K behind r_out)
    drives the base, R1 senses the emitter current, op-amp inverting input
    rides on the emitter (v_diff = -v_e)."""
    elements = [
        Vcvs("eop", "t", GROUND, GROUND, "e", p.K),
        Resistor("rout", "t", "b", p.r_out),
        Resistor("rpi", "b", "e", p.r_pi),
        Vccs("gmsrc", "c", "e", "b", "e", p.g_m),
        Resistor("ro", "c", "e", p.r_o),
        Resistor("r1", "e", GROUND, p.R1),
    ]
    if math.isfinite(p.R_in):
        elements.append(Resistor("rin", "e", GROUND, p.R_in))
    return Circuit(tuple(elements))


def build_case2_circuit(p: AmplifierParams) -> Circuit:
    """Emitter-output measurement circuit: R1 senses the collector current
    and feeds the op-amp non-inverting input (v_diff = v_c).  The base
    current returns through a driven rail held at the emitter potential, so
    the emitter branch carries only the g_m current, matching the model."""
    elements = [
        Vcvs("eop", "t", GROUND, "c", GROUND, p.K),
        Resistor("rout", "t", "b", p.r_out),
        Resistor("rpi", "b", "h", p.r_pi),
        Vcvs("ebuf", "h", GROUND, "e", GROUND, 1.0),
        Vccs("gmsrc", "c", "e", "b", "e", p.g_m),
        Resistor("ro", "c", "e", p.r_o),
        Resistor("r1", "c", GROUND, p.R1),
    ]
    if math.isfinite(p.R_in):
        elements.append(Resistor("rin", "c", GROUND, p.R_in))
    return Circuit(tuple(elements))


def recognize_case(
    lc: Circuit, port: tuple[str, str]
) -> tuple[int, AmplifierParams] | None:
    """``(case, p)`` when ``build_case<case>_circuit(p)`` is ``lc`` up to
    element and node names and ``port`` is that case's port, else None.
    Values are read off the elements and the rebuild decides; a candidate
    has no R_in, so a circuit with one is not recognized."""
    def shape(circuit, rename=lambda node: node):
        # kind, renamed terminals (resistor ends unordered) and value, no names
        def key(x):
            ends = tuple(map(rename, x.terminals))
            return type(x), frozenset(ends) if isinstance(x, Resistor) else ends, astuple(x)[-1]
        return Counter(map(key, circuit.elements))

    vccs = [x for x in lc.elements if isinstance(x, Vccs)]
    vcvs = [x for x in lc.elements if isinstance(x, Vcvs)]
    if len(vccs) != 1 or len(vcvs) not in (1, 2):
        return None
    (gm,) = vccs
    ohms = {frozenset(x.terminals): x.ohms for x in lc.elements if isinstance(x, Resistor)}
    case, build, case_port, sense, rail = (
        (1, build_case1_circuit, CASE1_PORT, "e", "e") if len(vcvs) == 1
        else (2, build_case2_circuit, CASE2_PORT, "c", "h")
    )
    pairs = {"r_out": ("t", "b"), "r_pi": ("b", rail), "r_o": ("c", "e"), "R1": (sense, GROUND)}
    for op in vcvs:
        # builder node -> node of lc; case 2's rail h carries the base current
        node = {GROUND: GROUND, "t": op.n1, "b": gm.cp, "e": gm.n2, "c": gm.n1}
        node.update(("h", x.n1) for x in vcvs if x is not op)
        values = {f: ohms.get(frozenset((node[m], node[n]))) for f, (m, n) in pairs.items()}
        if None in values.values() or len(set(node.values())) < len(node):
            continue
        try:
            p = AmplifierParams(K=op.gain, g_m=gm.gm, **values)
        except ValueError:
            continue
        if port == tuple(map(node.get, case_port)) and shape(build(p), node.get) == shape(lc):
            return case, p
    return None


def case1_equations(p: AmplifierParams):
    """Causal signal relations of the collector-output test: source v_x,
    response i_x; the transmission v_x -> i_x is 1/R_X."""
    s = p.r_out + p.r_pi
    return [
        ("i_o", [(p.g_m + 1.0 / p.r_pi, "v_pi"), (1.0 / p.r_o, "v_x"), (-1.0 / p.r_o, "v_c")]),
        ("v_c", [(p.R_sense, "i_o")]),
        ("v_diff", [(-p.R_sense, "i_o")]),
        ("v_pi", [(p.K * p.r_pi / s, "v_diff"), (-p.r_pi / s, "v_c")]),
        ("i_x", [(1.0 / p.r_o, "v_x"), (-1.0 / p.r_o, "v_c"), (p.g_m, "v_pi")]),
    ]


def case2_equations(p: AmplifierParams):
    """Causal signal relations of the emitter-output test: source i_x,
    response v_x; the transmission i_x -> v_x is R_X."""
    if p.K == 0:
        raise ValueError("K must be nonzero for the case-2 flow graph, which divides by K")
    s = p.r_out + p.r_pi
    g = p.g_m
    r1 = p.R_sense
    return [
        ("v_pi", [(-1.0 / g, "i_x"), (-1.0 / (g * p.r_o), "v_c"), (1.0 / (g * p.r_o), "v_x")]),
        ("v_c", [(r1, "i_o")]),
        ("v_x", [(p.r_o, "i_o"), (g * p.r_o, "v_pi"), (1.0, "v_c")]),
        ("v_diff", [(s / (p.K * p.r_pi), "v_pi"), (1.0 / p.K, "v_x")]),
        ("i_o", [(1.0 / r1, "v_diff")]),
    ]


def case1_flow_graph(p: AmplifierParams) -> sfg.Graph:
    return sfg.from_linear_system(case1_equations(p))


def case2_flow_graph(p: AmplifierParams) -> sfg.Graph:
    return sfg.from_linear_system(case2_equations(p))


def require_case(case: int):
    if case not in (1, 2):
        raise ValueError("case must be 1 or 2")


def mason_rx(case: int, p: AmplifierParams) -> float:
    require_case(case)
    if case == 1:
        return 1.0 / sfg.mason_gain(case1_flow_graph(p), "v_x", "i_x")
    return sfg.mason_gain(case2_flow_graph(p), "i_x", "v_x")


def mna_rx(case: int, p: AmplifierParams) -> float:
    require_case(case)
    if case == 1:
        return mna.driving_point_impedance(build_case1_circuit(p), CASE1_PORT)
    return mna.driving_point_impedance(build_case2_circuit(p), CASE2_PORT)


def closed_rx(case: int, p: AmplifierParams) -> float:
    require_case(case)
    return closed_form_rx_case1(p) if case == 1 else closed_form_rx_case2(p)


def exact_rx(case: int, p: AmplifierParams) -> float:
    require_case(case)
    return exact_rx_case1(p) if case == 1 else exact_rx_case2(p)


# --------------------------------------------------------------------------
# Generic nodal-system -> flow-graph bridge (used by the CLI's --all-engines)
# --------------------------------------------------------------------------

def _diagonal_assignment(pattern: list[list[int]]) -> list[int]:
    """Row index assigned to each variable so every variable's row has a
    non-zero in its column: a perfect matching on the non-zero pattern
    (``pattern[row]`` lists the row's non-zero columns), grown one row at a
    time by an augmenting-path search (Kuhn's), kept iterative."""
    row_of_var = [-1] * len(pattern)
    for root in range(len(pattern)):
        banned: set[int] = set()
        # rows on the current alternating path, and the column taken at each
        stack, via = [(root, iter(pattern[root]))], []
        while stack:
            row, columns = stack[-1]
            var = next((v for v in columns if v not in banned), None)
            if var is None:
                stack.pop()
                if via:
                    via.pop()
                continue
            banned.add(var)
            via.append(var)
            if row_of_var[var] == -1:
                for (r, _), v in zip(stack, via):
                    row_of_var[v] = r
                break
            stack.append((row_of_var[var], iter(pattern[row_of_var[var]])))
        else:
            raise mna.SingularMatrix("system is structurally singular")
    return row_of_var


# Flow-graph node that carries the right-hand side of a rewritten system.
SYSTEM_SOURCE = "src"


def flow_graph_of_system(system: mna.MnaSystem) -> sfg.Graph:
    """Rewrite A x = b * src as one causal equation per unknown and build the
    corresponding flow graph; the graph's gain src -> variable equals the
    solved sensitivity d(variable)/d(src), with src the node ``SYSTEM_SOURCE``."""
    names, rows, b = system.names, system.rows, system.rhs
    equations = []
    with localcontext(mna.DECIMAL):
        for var, i in enumerate(_diagonal_assignment([sorted(row) for row in rows])):
            pivot = rows[i][var]
            terms = [(float(b[i] / pivot), SYSTEM_SOURCE)] if b[i] else []
            terms += [(float(-v / pivot), names[j]) for j, v in sorted(rows[i].items())
                      if j != var]
            equations.append((names[var], terms))
    return sfg.from_linear_system(equations)


def mason_driving_point_impedance(lc: Circuit, port: tuple[str, str]) -> float:
    """Driving-point impedance by ``mna.port_impedance`` from node
    elimination on the flow graph of its probed nodal system: a second
    route to the nodal solve from the system, and the openness, that the
    nodal route at the same port reads too, so neither route stamps or
    searches twice.  A bad port raises as in ``mna.require_port``."""
    return mna.port_impedance(lc, port, lambda system: sfg.elimination_gain(
        flow_graph_of_system(system), SYSTEM_SOURCE, mna.TEST_CURRENT))


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

ENGINES = ("closed_form", "exact_formula", "mason", "mna")
EXACT_ENGINES = ("exact_formula", "mason", "mna")
ENGINE_RTOL = 1e-6  # the largest relative error between exact engines that passes
# each pair's label ("a vs b") with its two engines, and the exact pairs' labels
_PAIRS = tuple((f"{a} vs {b}", a, b) for a, b in combinations(ENGINES, 2))
_EXACT_PAIRS = tuple(f"{a} vs {b}" for a, b in combinations(EXACT_ENGINES, 2))


@dataclass(frozen=True)
class CrossCheckConfig:
    closed_error_band: tuple[float, float] | None = None  # (center, half-width)


@dataclass(frozen=True)
class CrossCheckReport:
    quantity: str
    parameters: dict[str, float]
    values: dict[str, float]
    relative_errors: dict[str, float]
    closed_form_error: float  # |closed - exact| / exact, the approximation quality
    verdict: str  # "pass" | "fail"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def relative_error(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


_PARAMETERS = tuple(f.name for f in fields(AmplifierParams))


def _params_echo(p: AmplifierParams) -> dict[str, float]:
    echo = {name: getattr(p, name) for name in _PARAMETERS}
    echo["beta"] = p.beta
    return echo


def run_case(
    case: int, p: AmplifierParams, config: CrossCheckConfig | None = None
) -> CrossCheckReport:
    """Evaluate all four engines for one case and compare them pairwise.
    A division by zero, or an engine value or closed-form error that is not
    finite, raises ``ValueError``."""
    config = config or CrossCheckConfig()
    try:
        values = {engine: rx(case, p)
                  for engine, rx in zip(ENGINES, (closed_rx, exact_rx, mason_rx, mna_rx))}
        closed_error = abs(values["closed_form"] - values["exact_formula"]) / abs(
            values["exact_formula"]
        )
    except ZeroDivisionError as exc:
        problem = str(exc)
    else:
        problem = ", ".join(f"{name} {value!r}" for name, value
                            in (values | {"closed-form error": closed_error}).items()
                            if not math.isfinite(value))
    if problem:
        raise ValueError(f"case {case} at these parameters: {problem}; a product or "
                         "quotient of them leaves the floating-point range")
    errors = {pair: relative_error(values[a], values[b]) for pair, a, b in _PAIRS}
    ok = all(errors[pair] <= ENGINE_RTOL for pair in _EXACT_PAIRS)
    if config.closed_error_band is not None:
        center, halfwidth = config.closed_error_band
        ok = ok and abs(closed_error - center) <= halfwidth

    return CrossCheckReport(
        quantity=f"R_X case {case}",
        parameters=_params_echo(p),
        values=values,
        relative_errors=errors,
        closed_form_error=closed_error,
        verdict="pass" if ok else "fail",
    )


def sweep(
    case: int,
    p: AmplifierParams,
    axis: str,
    grid: list[float],
    config: CrossCheckConfig | None = None,
) -> list[CrossCheckReport]:
    """One report per grid value of the named AmplifierParams field."""
    if axis not in _PARAMETERS:
        raise ValueError(f"unknown parameter {axis!r}")
    return [run_case(case, replace(p, **{axis: value}), config) for value in grid]


def json_safe(mapping: dict[str, float]) -> dict:
    # valid JSON has no Infinity literal; non-finite values go out as strings
    return {
        k: (v if isinstance(v, str) or math.isfinite(v) else repr(v))
        for k, v in mapping.items()
    }


def report_to_dict(report: CrossCheckReport) -> dict:
    return {
        "quantity": report.quantity,
        "parameters": json_safe(report.parameters),
        "values": json_safe(report.values),
        "relative_errors": json_safe(report.relative_errors),
        **json_safe({"closed_form_error": report.closed_form_error}),
        "verdict": report.verdict,
    }


def report_table(report: CrossCheckReport) -> str:
    lines = [f"quantity: {report.quantity}"]
    lines.append("")
    lines.append(f"{'engine':<16}{'value [ohm]':>18}")
    for engine in ENGINES:
        lines.append(f"{engine:<16}{report.values[engine]:>18.9e}")
    lines.append("")
    lines.append(f"{'pair':<34}{'rel. error':>14}")
    for pair, err in report.relative_errors.items():
        lines.append(f"{pair:<34}{err:>14.3e}")
    lines.append("")
    lines.append(f"closed-form error vs exact: {report.closed_form_error:.4%}")
    lines.append(f"verdict: {report.verdict}")
    return "\n".join(lines) + "\n"
