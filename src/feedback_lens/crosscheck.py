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

import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import mna, sfg
from .feedback import (
    AmplifierParams,
    closed_form_rx_case1,
    closed_form_rx_case2,
    exact_rx_case1,
    exact_rx_case2,
    require_case,
)
from .netlist import GROUND, Resistor, Vccs, Vcvs
from .smallsignal import LinearCircuit

CASE1_PORT = ("c", GROUND)
CASE2_PORT = ("e", GROUND)

# Documented closed-vs-exact error levels at the typical operating point,
# as (center, half-width) fractions: 0.5% +/- 0.05pp and 5.01% +/- 0.1pp.
CLOSED_FORM_ERROR_BANDS = {1: (0.005, 0.0005), 2: (0.0501, 0.001)}


def build_case1_circuit(p: AmplifierParams) -> LinearCircuit:
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
    return LinearCircuit.of(elements)


def build_case2_circuit(p: AmplifierParams) -> LinearCircuit:
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
    return LinearCircuit.of(elements)


def case1_equations(p: AmplifierParams):
    """Causal signal relations of the collector-output test: source v_x,
    response i_x; the transmission v_x -> i_x is 1/R_X."""
    s = p.r_out + p.r_pi
    return [
        ("i_o", [(p.g_m + 1.0 / p.r_pi, "v_pi"), (1.0 / p.r_o, "v_x"), (-1.0 / p.r_o, "v_c")]),
        ("v_c", [(p.R1, "i_o")]),
        ("v_diff", [(-p.R1, "i_o")]),
        ("v_pi", [(p.K * p.r_pi / s, "v_diff"), (-p.r_pi / s, "v_c")]),
        ("i_x", [(1.0 / p.r_o, "v_x"), (-1.0 / p.r_o, "v_c"), (p.g_m, "v_pi")]),
    ]


def case2_equations(p: AmplifierParams):
    """Causal signal relations of the emitter-output test: source i_x,
    response v_x; the transmission i_x -> v_x is R_X."""
    s = p.r_out + p.r_pi
    g = p.g_m
    return [
        ("v_pi", [(-1.0 / g, "i_x"), (-1.0 / (g * p.r_o), "v_c"), (1.0 / (g * p.r_o), "v_x")]),
        ("v_c", [(p.R1, "i_o")]),
        ("v_x", [(p.r_o, "i_o"), (g * p.r_o, "v_pi"), (1.0, "v_c")]),
        ("v_diff", [(s / (p.K * p.r_pi), "v_pi"), (1.0 / p.K, "v_x")]),
        ("i_o", [(1.0 / p.R1, "v_diff")]),
    ]


def case1_flow_graph(p: AmplifierParams) -> sfg.FlowGraph:
    return sfg.from_linear_system(case1_equations(p))


def case2_flow_graph(p: AmplifierParams) -> sfg.FlowGraph:
    return sfg.from_linear_system(case2_equations(p))


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

def _diagonal_assignment(a: np.ndarray) -> list[int]:
    """Row index assigned to each variable so every a[row, var] != 0
    (perfect matching on the non-zero pattern)."""
    n = a.shape[0]
    row_of_var = [-1] * n

    def assign(row: int, banned: set[int]) -> bool:
        for var in range(n):
            if a[row, var] != 0.0 and var not in banned:
                banned.add(var)
                if row_of_var[var] == -1 or assign(row_of_var[var], banned):
                    row_of_var[var] = row
                    return True
        return False

    for row in range(n):
        if not assign(row, set()):
            raise mna.SingularMatrix("system is structurally singular")
    return row_of_var


def flow_graph_of_system(system: mna.MnaSystem, source: str = "src") -> sfg.FlowGraph:
    """Rewrite A x = b * src as one causal equation per unknown and build the
    corresponding flow graph; the graph's gain src -> variable equals the
    solved sensitivity d(variable)/d(src)."""
    names = [None] * system.dimension
    for name, i in system.index.items():
        names[i] = name
    a, b = system.matrix, system.rhs
    row_of_var = _diagonal_assignment(a)
    equations = []
    for var, row in enumerate(row_of_var):
        pivot = a[row, var]
        terms = []
        if b[row] != 0.0:
            terms.append((float(b[row] / pivot), source))
        for j in range(system.dimension):
            if j != var and a[row, j] != 0.0:
                terms.append((float(-a[row, j] / pivot), names[j]))
        equations.append((names[var], terms))
    return sfg.from_linear_system(equations)


def mason_driving_point_impedance(lc: LinearCircuit, port: tuple[str, str]) -> float:
    """Driving-point impedance computed by Mason's rule on the flow graph of
    the probed nodal system; independent second route to the LU solve."""
    graph = flow_graph_of_system(mna.probed_system(lc, port))
    gain = sfg.mason_gain(graph, "src", f"I({mna.TEST_SOURCE})")
    return mna.impedance_from_current(-gain)


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

ENGINES = ("closed_form", "exact_formula", "mason", "mna")
EXACT_ENGINES = ("exact_formula", "mason", "mna")


@dataclass(frozen=True)
class CrossCheckConfig:
    engine_rtol: float = 1e-6
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


def _params_echo(p: AmplifierParams) -> dict[str, float]:
    echo = {f.name: getattr(p, f.name) for f in fields(p)}
    echo["beta"] = p.beta
    return echo


def run_case(
    case: int, p: AmplifierParams, config: CrossCheckConfig | None = None
) -> CrossCheckReport:
    """Evaluate all four engines for one case and compare them pairwise."""
    config = config or CrossCheckConfig()
    values = {
        "closed_form": closed_rx(case, p),
        "exact_formula": exact_rx(case, p),
        "mason": mason_rx(case, p),
        "mna": mna_rx(case, p),
    }
    errors = {}
    for i, first in enumerate(ENGINES):
        for second in ENGINES[i + 1:]:
            errors[f"{first} vs {second}"] = relative_error(values[first], values[second])
    closed_error = abs(values["closed_form"] - values["exact_formula"]) / abs(
        values["exact_formula"]
    )

    ok = all(
        errors[f"{a} vs {b}"] <= config.engine_rtol
        for i, a in enumerate(EXACT_ENGINES)
        for b in EXACT_ENGINES[i + 1:]
    )
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
    if axis not in {f.name for f in fields(AmplifierParams)}:
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
        "relative_errors": report.relative_errors,
        "closed_form_error": report.closed_form_error,
        "verdict": report.verdict,
    }


def report_json(report: CrossCheckReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2)


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
