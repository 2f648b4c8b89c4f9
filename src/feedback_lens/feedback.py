"""Feedback topology classification, loading from the feedback network's
two-port parameters and closed-form output impedance of the two cases.

Case numbering used throughout the package:

* case 1 - output taken at the collector, output current sensed through a
  resistor in the emitter branch, sensed voltage compared at the op-amp
  input.
* case 2 - output taken at the emitter, output current sensed through a
  resistor in the collector branch.

Closed forms are evaluated exactly as printed in the source derivations,
including their approximations; their quality is judged against the exact
formulas and the nodal/flow-graph engines, never patched.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import mna
from .netlist import (
    GROUND,
    BjtPi,
    Circuit,
    OpAmp,
    Resistor,
    Vccs,
    Vcvs,
)


class UnclassifiableTopology(Exception):
    """The feedback port relations match none of the catalogued patterns;
    usually an annotation mistake."""


class Mixing(enum.Enum):
    SERIES = "series"
    SHUNT = "shunt"


class Validity(enum.Enum):
    VALID = "valid"
    IRRELEVANT = "irrelevant"


@dataclass(frozen=True)
class FeedbackTopology:
    input_mix: Mixing
    output_sense: Mixing
    validity: Validity

    @property
    def label(self) -> str:
        return f"{self.input_mix.value}-{self.output_sense.value}"


@dataclass(frozen=True)
class LoadingModel:
    R_if: float
    R_of: float
    f: float


@dataclass(frozen=True)
class AmplifierParams:
    """Operating-point parameters of the output stage and its driver.

    K and r_out describe the driving op-amp (gain and output resistance),
    R1 the current-sense resistor, g_m / r_pi / r_o the transistor
    small-signal model (beta = g_m * r_pi), R_in the op-amp differential
    input resistance (infinite when absent).  R2, the load on the output
    node, R_E and R_S are accepted and echoed, but no engine and no printed
    value reads them; they are kept only because the benchmark workloads
    draw them.
    """

    K: float
    r_out: float
    R1: float
    g_m: float
    r_pi: float
    r_o: float
    R2: float = math.inf
    R_E: float = 0.0
    R_S: float = 0.0
    R_in: float = math.inf

    def __post_init__(self):
        for label in ("r_out", "R1", "g_m", "r_pi", "r_o"):
            value = getattr(self, label)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{label} must be positive and finite")
        for label in ("R2", "R_in"):
            if not getattr(self, label) > 0:
                raise ValueError(f"{label} must be positive (inf allowed)")
        for label in ("R_E", "R_S"):
            if getattr(self, label) < 0:
                raise ValueError(f"{label} must be >= 0")
        if not (math.isfinite(self.K) and self.K >= 0):
            raise ValueError("K must be finite and >= 0")
        if not 0 < self.beta < math.inf:
            raise ValueError("beta = g_m * r_pi must be positive and finite")

    @property
    def beta(self) -> float:
        return self.g_m * self.r_pi

    @property
    def R_sense(self) -> float:
        """R1 in parallel with R_in: in both case circuits the op-amp input
        sits across R1, between the sense node and ground."""
        if math.isinf(self.R_in):
            return self.R1
        return self.R1 * self.R_in / (self.R1 + self.R_in)

    @classmethod
    def typical(cls, **overrides) -> "AmplifierParams":
        """Typical textbook operating point: beta=100, K=1000,
        r_out=500k, R1=1k, r_pi=2.5k, r_o=100k."""
        base = dict(K=1000.0, r_out=500e3, R1=1e3, g_m=0.04, r_pi=2.5e3, r_o=100e3)
        base.update(overrides)
        return cls(**base)


# --------------------------------------------------------------------------
# Topology classification
# --------------------------------------------------------------------------

# (comparison, drive, conduction) terminals of each device kind:
# - comparison: where a signal can enter a difference-forming input;
# - drive: terminals that only deliver output (collector/drain-like), so
#   feedback returned into one of these forms no input difference;
# - conduction: the path that carries the element's output current.
# Passive elements and independent sources have none.
_ROLES = {
    OpAmp: lambda e: ((e.plus, e.minus), (e.out,), (e.out,)),
    BjtPi: lambda e: ((e.base, e.emitter), (e.collector,), (e.collector, e.emitter)),
    Vcvs: lambda e: ((e.cp, e.cn), (e.n1, e.n2), (e.n1, e.n2)),
    Vccs: lambda e: ((e.cp, e.cn), (e.n1, e.n2), (e.n1, e.n2)),
}


def _roles(e) -> tuple[tuple[str, ...], ...]:
    return _ROLES[type(e)](e) if type(e) in _ROLES else ((), (), ())


def _require_annotations(circuit: Circuit):
    ann = circuit.annotations
    if ann.input_port is None or ann.output_port is None:
        raise UnclassifiableTopology("input and output ports must be annotated")
    if not ann.feedback_elements:
        raise UnclassifiableTopology("no feedback elements annotated")
    missing = ann.feedback_elements - circuit.names()
    if missing:
        raise UnclassifiableTopology(f"unknown feedback elements {sorted(missing)}")


def _classify(circuit: Circuit) -> tuple[FeedbackTopology, tuple[str, str], tuple[str, str]]:
    """The topology, and the node pairs through which the feedback network
    faces the amplifier's input side and its output side.  The circuit
    keeps the result, as it keeps its port views, so classifying it and
    then measuring its loading classifies once; an
    ``UnclassifiableTopology`` is raised again on every call."""
    if "_classified" in vars(circuit):
        return vars(circuit)["_classified"]
    _require_annotations(circuit)
    ann = circuit.annotations
    i_plus, i_minus = ann.input_port
    o_plus, o_minus = ann.output_port

    fb_nodes = {t for e in circuit.elements if e.name in ann.feedback_elements
                for t in e.terminals}
    forward = [e for e in circuit.elements if e.name not in ann.feedback_elements]

    # Output side: voltage sensed at the output node itself, or current
    # sensed in series with the conduction path of the device driving it.
    sense_node: str | None = None
    if o_plus in fb_nodes:
        output_sense = Mixing.SHUNT
        sense_node = o_plus
    else:
        hits: set[str] = set()
        for e in forward:
            conduction = _roles(e)[2]
            if o_plus in conduction:
                hits.update((set(conduction) & fb_nodes) - {o_plus, GROUND})
        if hits:
            output_sense = Mixing.SERIES
            sense_node = sorted(hits)[0]
        else:
            raise UnclassifiableTopology(
                "feedback network is not connected to the output port or its branch"
            )

    # Input side: current summed at the input node, voltage compared through
    # a difference-forming terminal, or (excluded) returned into a pure
    # drive terminal such as a collector.
    validity = Validity.VALID
    mix_node: str | None = None
    if i_plus in fb_nodes:
        input_mix = Mixing.SHUNT
        mix_node = i_plus
    else:
        comparison: set[str] = set()
        drive: set[str] = set()
        for e in forward:
            terms, drives, _ = _roles(e)
            if i_plus in terms:
                comparison.update(terms)
                drive.update(drives)
        if not comparison:
            raise UnclassifiableTopology(
                "no difference-forming device found at the input port"
            )
        candidates = fb_nodes - {i_plus, i_minus, o_plus, o_minus, GROUND}
        series_hits = sorted(candidates & (comparison - {i_plus}))
        drive_hits = sorted(candidates & drive)
        if series_hits:
            input_mix = Mixing.SERIES
            mix_node = series_hits[0]
        elif drive_hits:
            input_mix = Mixing.SERIES
            mix_node = drive_hits[0]
            validity = Validity.IRRELEVANT
        else:
            raise UnclassifiableTopology(
                "feedback network does not reach the input comparison"
            )

    classified = (FeedbackTopology(input_mix, output_sense, validity),
                  (mix_node, i_minus if mix_node != i_minus else GROUND),
                  (sense_node, o_minus if sense_node != o_minus else GROUND))
    vars(circuit)["_classified"] = classified
    return classified


def classify_topology(circuit: Circuit) -> FeedbackTopology:
    """Classify the annotated feedback connection as series/shunt at each
    port; feedback returned into a collector-like drive terminal is flagged
    Irrelevant."""
    return _classify(circuit)[0]


# --------------------------------------------------------------------------
# Loading extraction (measured on the isolated feedback network)
# --------------------------------------------------------------------------

def loading_effect(
    fb: Circuit,
    topo: FeedbackTopology,
    input_port: tuple[str, str],
    output_port: tuple[str, str],
) -> LoadingModel:
    """Loading the feedback network presents to the forward amplifier, read
    off the two-port parameters of its topology: z, y, h or g.

    Node voltages are written in side coordinates (k across side k, 0 input
    and 1 output), and each resistor that ``mna.moves_current`` stamps its
    conductance into that energy form in exact ``Fraction``s.  One sweep
    eliminates every other coordinate and inverts each series side's,
    opening it while the other side is measured; a shunt side is shorted.
    A zero pivot with a zero row moves nothing; any other, or an undefined
    f (across an open input side, into an open output side, or at one port
    with a shunt side), raises ``SingularMatrix``.  Each side passes
    ``mna.require_port`` on the network's nodes and a shunt other side's."""
    for e in fb.elements:
        if not isinstance(e, Resistor):
            raise ValueError(f"feedback network must be purely resistive: {e.name} is not")
    shunt = (topo.input_mix is Mixing.SHUNT, topo.output_sense is Mixing.SHUNT)
    sides = (input_port, output_port)
    for k, side in enumerate(sides):
        mna.require_port(side, fb.nodes.union(sides[1 - k]) if shunt[1 - k] else fb.nodes)
    if (one_port := set(input_port) == set(output_port)) and any(shunt):
        raise mna.SingularMatrix("the two sides are one port, which a shunt side shorts")
    # V(p) = V(n) + u_k; a grounded side goes first, so a node the sides share is fixed
    volts: dict[str, dict] = {GROUND: {}}
    for k in sorted(range(2 - one_port), key=lambda k: GROUND not in sides[k]):
        (p, n), sign = (sides[k], 1) if sides[k][0] not in volts else (sides[k][::-1], -1)
        volts[p] = {**volts.setdefault(n, {n: 1}), k: sign}
    form = Counter()  # by pairs of coordinates
    for e in fb.elements:
        if mna.moves_current(e):
            g = 1 / Fraction(e.ohms)
            a, b = (volts.get(v, {v: 1}) for v in (e.n1, e.n2))
            d = {c: a.get(c, 0) - b.get(c, 0) for c in {*a, *b}}
            form.update({(i, j): d[i] * d[j] * g for i in d for j in d})
    nodes = dict.fromkeys(i for i, _ in form if i not in (0, 1))
    for c in [*nodes, *(k for k in range(2 - one_port) if not shunt[k])]:
        pivot = form.pop((c, c), 0)
        row = {j: form.pop((i, j)) for i, j in list(form) if i == c}
        col = {i: form.pop((i, j)) for i, j in list(form) if j == c}
        if not pivot:
            if c in (0, 1):
                side = ("input", "output")[c]
                raise mna.SingularMatrix(f"f is undefined: the {side} side is open")
            if any(row.values()):
                raise mna.SingularMatrix(f"zero pivot with a non-zero row at V({c})")
            continue
        form.update({(i, j): -a * b / pivot for i, a in col.items() for j, b in row.items()})
        if c in (0, 1):
            form.update({(c, j): -b / pivot for j, b in row.items()} | {(c, c): 1 / pivot}
                        | {(i, c): a / pivot for i, a in col.items()})
    h00, h01, h11 = form[0, 0], form[0, 1], form[1, 1]
    if one_port:
        h01, h11 = h00 if input_port == output_port else -h00, h00
    r_if, r_of = (float(h) if not shunt[k] else float(1 / h) if h else math.inf
                  for k, h in enumerate((h00, h11)))
    return LoadingModel(R_if=r_if, R_of=r_of, f=float(h01))


def loading_of_circuit(circuit: Circuit) -> LoadingModel:
    """Classify, and read the loading off ``circuit.feedback_network`` as
    its two sides see it (``mna.seen_at``, the one reduction).  The network
    keeps that view, which the impedance routes on ``circuit``'s
    linearization reuse; ``loading_effect`` refuses a macro in it by its
    own name."""
    topo, input_side, output_side = _classify(circuit)
    return loading_effect(mna.seen_at(circuit.feedback_network, input_side + output_side),
                          topo, input_side, output_side)


# --------------------------------------------------------------------------
# R_X of the two cases: closed forms (evaluated exactly as printed) and
# exact formulas
# --------------------------------------------------------------------------

def closed_form_rx_case1(p: AmplifierParams) -> float:
    """Approximate case-1 R_X (collector output, emitter-sensed)."""
    core = p.R1 * (p.K + 1.0) * (p.beta + 1.0)
    num = core + 2.0 * p.r_out + 2.0 * p.r_pi
    den = (core + p.r_out * (p.beta + 1.0) + p.r_pi * (p.beta + 1.0)) / p.beta
    return p.r_o * num / den


def exact_rx_case1(p: AmplifierParams) -> float:
    """Exact case-1 R_X (matches the nodal solution of the case-1 model)."""
    u = (p.K + 1) / (p.r_out + p.r_pi)
    r1 = p.R_sense
    return (p.r_o * (1 + r1 * (p.beta + 1) * u) + r1) / (1 + r1 * u)


def closed_form_rx_case2(p: AmplifierParams) -> float:
    """Approximate case-2 R_X (emitter output, collector-sensed)."""
    return (p.R1 * p.K * p.beta + p.r_out + p.r_pi) / p.beta


def exact_rx_case2(p: AmplifierParams) -> float:
    """Exact case-2 R_X (matches the nodal solution of the case-2 model)."""
    s = p.r_out + p.r_pi
    r1 = p.R_sense
    return (p.r_o * r1 * p.K * p.beta + p.r_o * s + r1 * s) / (p.r_o * p.beta + s)
