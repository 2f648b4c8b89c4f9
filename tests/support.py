"""Shared generators and independent oracles for the test suite.

The impedance oracle here deliberately avoids the package's stamping,
macro expansion and elimination code: it stamps the macro-level circuit
straight into an exact ``Fraction`` node-conductance matrix, with no
branch-current unknown, giving a second route for every driving-point
check.  ``unreduced_impedance`` probes a circuit without the port
reduction (``mna.seen_at``) that loading and both impedance routes share.
``reference_reduce_onto`` keeps the form of that reduction, on a purely
resistive network, that converts every resistor before it removes any
node, so the pruning one can be held equal to it.  ``three_probe_loading``
is the loading of a feedback network as its probes define it, solved in
exact ``Fraction`` nodal arithmetic with no reduction and no two-port
parameter.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from feedback_lens import crosscheck, mna, sfg
from feedback_lens.feedback import AmplifierParams, LoadingModel, Mixing
from feedback_lens.netlist import (GROUND, BjtPi, Circuit, ISource, OpAmp, PortAnnotations,
                                   Resistor, Vccs, Vcvs, VSource, reachable)
from feedback_lens.smallsignal import linearize


def random_resistor_mesh(rng: np.random.Generator, n_nodes: int = 5,
                         extra_edges: int = 4) -> Circuit:
    """Connected resistor network on nodes n1..nN plus ground: a random
    spanning tree rooted at ground plus a few extra chords."""
    names = [GROUND] + [f"n{i}" for i in range(1, n_nodes + 1)]
    elements = []
    counter = 0

    def add(a: str, b: str):
        nonlocal counter
        counter += 1
        ohms = float(10 ** rng.uniform(1, 7))
        elements.append(Resistor(f"R{counter}", a, b, ohms))

    for i in range(1, len(names)):
        add(names[i], names[int(rng.integers(0, i))])
    for _ in range(extra_edges):
        i, j = rng.integers(0, len(names), size=2)
        if i != j:
            add(names[int(i)], names[int(j)])
    return Circuit(tuple(elements))


def conductance_impedance_oracle(circuit, port: tuple[str, str]) -> float:
    """Driving-point impedance of ``port`` by an exact ``Fraction`` nodal
    solve of the macro-level circuit: one KCL row per non-ground node and no
    branch-current unknown.  A VCCS is stamped directly, a BJT as its
    hybrid-pi trio, and an op-amp as its Norton source K/rout into its
    output with rout to ground and rin across its inputs.  A singular node
    matrix raises ``ZeroDivisionError``; an infinite resistance stamps
    nothing."""
    nodes = sorted(circuit.nodes - {GROUND})
    index = {n: i for i, n in enumerate(nodes)}
    y = [[Fraction(0)] * len(nodes) for _ in nodes]

    def stamp(a, b, cp, cn, g):
        """Current g * v(cp, cn) leaving node a and entering node b."""
        for row, out in ((a, g), (b, -g)):
            for col, value in ((cp, out), (cn, -out)):
                if GROUND not in (row, col):
                    y[index[row]][index[col]] += value

    def resistor(a, b, ohms):
        if math.isfinite(ohms):
            stamp(a, b, a, b, 1 / Fraction(ohms))

    for e in circuit.elements:
        if isinstance(e, Resistor):
            resistor(e.n1, e.n2, e.ohms)
        elif isinstance(e, Vccs):
            stamp(e.n1, e.n2, e.cp, e.cn, Fraction(e.gm))
        elif isinstance(e, BjtPi):
            resistor(e.base, e.emitter, e.rpi)
            stamp(e.collector, e.emitter, e.base, e.emitter, Fraction(e.gm))
            resistor(e.collector, e.emitter, e.ro)
        elif isinstance(e, OpAmp):
            stamp(GROUND, e.out, e.plus, e.minus, Fraction(e.gain) / Fraction(e.rout))
            resistor(e.out, GROUND, e.rout)
            if e.rin is not None:
                resistor(e.plus, e.minus, e.rin)
        else:
            raise TypeError(f"the oracle has no model of {e!r}")
    # a unit current into port[0] and out of port[1]
    current = [Fraction(0)] * len(nodes)
    for node, amps in zip(port, (1, -1)):
        if node != GROUND:
            current[index[node]] += amps
    # Gauss-Jordan elimination on [y | current], exact
    n = len(nodes)
    rows = [row + [i] for row, i in zip(y, current)]
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            raise ZeroDivisionError("singular node matrix")
        rows[k], rows[p] = rows[p], rows[k]
        for i, r in enumerate(rows):
            if i != k and r[k]:
                factor = r[k] / rows[k][k]
                for j in range(k, n + 1):
                    r[j] -= factor * rows[k][j]
    volts = {node: rows[i][-1] / rows[i][i] for node, i in index.items()} | {GROUND: 0}
    return float(volts[port[0]] - volts[port[1]])


def unreduced_impedance(lc: Circuit, port: tuple[str, str]) -> float:
    """``mna.driving_point_impedance`` of ``lc`` itself, not of
    ``mna.seen_at(lc, port)``: an open port reads ``math.inf`` unsolved,
    as on both routes, and any other has every unknown of its probed
    system solved."""
    if mna.port_is_open(lc, port):
        return math.inf
    delivered = -mna.solve(mna.probed_system(lc, port))[mna.TEST_CURRENT]
    return math.inf if delivered == 0.0 else 1.0 / delivered


def exact_probe(elements, lift: int = 0):
    """Voltage of every node and current of every voltage source (flowing
    n1 to n2 through it) of a circuit of resistors and independent sources,
    by an exact ``Fraction`` nodal solve with one unknown per voltage
    source.  A part of the circuit with no ground, joined within by its
    sources and finite resistors, is tied to ground: its first node is held
    at ``lift`` times the part's number, in volts.  A circuit with no
    solution raises ``mna.SingularMatrix``."""
    paths = [(e.n1, e.n2) for e in elements if not isinstance(e, Resistor)
             or e.n1 != e.n2 and math.isfinite(e.ohms)]
    nodes = sorted({t for e in elements for t in e.terminals} - {GROUND})
    reached, ties = reachable(GROUND, paths), []
    for node in nodes:
        if node not in reached:
            reached |= reachable(node, paths)
            ties.append(VSource(f"__tie{len(ties)}", node, GROUND, lift * (len(ties) + 1)))
    sources = [e for e in elements if isinstance(e, VSource)] + ties
    index = {n: i for i, n in enumerate(nodes)} | {e.name: len(nodes) + i
                                                   for i, e in enumerate(sources)}
    n = len(index)
    rows = [[Fraction(0)] * (n + 1) for _ in range(n)]

    def add(row, col, value):
        if GROUND not in (row, col):
            rows[index[row]][n if col is None else index[col]] += value

    for e in elements:
        if isinstance(e, Resistor) and e.n1 != e.n2 and math.isfinite(e.ohms):
            g = 1 / Fraction(e.ohms)
            for a, b in ((e.n1, e.n2), (e.n2, e.n1)):
                add(a, a, g)
                add(a, b, -g)
        elif isinstance(e, ISource):
            add(e.n1, None, -Fraction(e.amps))
            add(e.n2, None, Fraction(e.amps))
    for e in sources:
        for node, sign in ((e.n1, 1), (e.n2, -1)):
            add(node, e.name, sign)
            add(e.name, node, sign)
        add(e.name, None, Fraction(e.volts))
    # Gauss-Jordan elimination, exact
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            raise mna.SingularMatrix("the probe circuit has no unique solution")
        rows[k], rows[p] = rows[p], rows[k]
        for i, r in enumerate(rows):
            if i != k and r[k]:
                factor = r[k] / rows[k][k]
                for j in range(k, n + 1):
                    r[j] -= factor * rows[k][j]
    x = {name: rows[i][n] / rows[i][i] for name, i in index.items()}
    return x | {GROUND: Fraction(0)}


def three_probe_loading(net: Circuit, topo, input_port, output_port) -> LoadingModel:
    """The loading of the resistive ``net`` as its probes define it, each
    probe solved by ``exact_probe``.  R_if and R_of are each the inverse of
    the current a unit test voltage across its side draws, with the other
    side shorted when it is shunt and open when series (``inf`` for no
    current).  f is the input side's voltage (series mixing) or the current
    its short delivers (shunt mixing) per unit excitation of the output
    side: a current into it for series sensing, a voltage across it for
    shunt sensing.  A quantity that changes when the ties of
    ``exact_probe`` are lifted off 0 V is one the probes do not define, and
    raises ``mna.SingularMatrix``; a probed side node that neither the
    network nor a short brings raises ``mna.UnknownNode``."""
    shunt_in = topo.input_mix is Mixing.SHUNT
    shunt_out = topo.output_sense is Mixing.SHUNT

    def defined(read, *probe):
        values = {read(exact_probe(net.elements + probe, lift)) for lift in (0, 1)}
        if len(values) > 1:
            raise mna.SingularMatrix("the probes leave a voltage undefined")
        return values.pop()

    def resistance(side, other, shorted):
        shorts = (VSource("__short", *other, 0.0),) if shorted else ()
        for node in side:
            if node not in Circuit(net.elements + shorts).nodes:
                raise mna.UnknownNode(f"unknown node {node!r}")
        current = defined(lambda x: -x["__test"], VSource("__test", *side, 1.0), *shorts)
        return float(1 / current) if current else math.inf

    r_if = resistance(input_port, output_port, shunt_out)
    r_of = resistance(output_port, input_port, shunt_in)
    excite = (VSource("__excite", *output_port, 1.0) if shunt_out
              else ISource("__excite", output_port[1], output_port[0], 1.0))
    if shunt_in:
        f = defined(lambda x: -x["__short"], excite, VSource("__short", *input_port, 0.0))
    else:
        f = defined(lambda x: x[input_port[0]] - x[input_port[1]], excite)
    return LoadingModel(R_if=r_if, R_of=r_of, f=float(f))


def outcome(measure, *args):
    """``measure(*args)``, or the class of the ``SingularMatrix`` or
    ``UnknownNode`` it raised."""
    try:
        return measure(*args)
    except (mna.SingularMatrix, mna.UnknownNode) as exc:
        return type(exc)


def draw_params(rng: np.random.Generator, **fixed) -> AmplifierParams:
    """Log-uniform draw over the documented ranges: resistances in
    [10, 1e7], g_m in [1e-4, 1], beta in [20, 500], K in [10, 1e5];
    r_pi follows from beta and g_m."""
    g_m = float(10 ** rng.uniform(-4, 0))
    beta = float(10 ** rng.uniform(np.log10(20), np.log10(500)))
    values = dict(
        K=float(10 ** rng.uniform(1, 5)),
        r_out=float(10 ** rng.uniform(1, 7)),
        R1=float(10 ** rng.uniform(1, 7)),
        r_o=float(10 ** rng.uniform(1, 7)),
        g_m=g_m,
        r_pi=beta / g_m,
    )
    values.update(fixed)
    return AmplifierParams(**values)


def decades(low, high):
    return st.floats(low, high).map(lambda x: 10.0 ** x)


# Hypothesis form of draw_params: the same ranges.
amplifier_params = st.builds(
    lambda K, r_out, R1, r_o, g_m, beta: AmplifierParams(
        K=K, r_out=r_out, R1=R1, g_m=g_m, r_pi=beta / g_m, r_o=r_o
    ),
    decades(1, 5), decades(1, 7), decades(1, 7), decades(1, 7), decades(-4, 0),
    st.floats(20, 500),
)


def random_causal_system(rng: np.random.Generator, max_vars: int = 8):
    """Sparse solvable linear system x = C x + d*src with a well-separated
    determinant; returns (equations, variables, sensitivities)."""
    while True:
        n = int(rng.integers(2, max_vars + 1))
        c = np.zeros((n, n))
        d = np.zeros(n)
        d[0] = 1.0
        for i in range(n):
            for j in rng.choice(n, size=int(rng.integers(1, 3)), replace=False):
                if i != j:
                    c[i, j] = float(rng.uniform(0.1, 0.9) * rng.choice((-1, 1)))
            if rng.uniform() < 0.3:
                d[i] = float(rng.uniform(0.2, 1.0))
        if abs(np.linalg.det(np.eye(n) - c)) < 1e-3:
            continue
        x = np.linalg.solve(np.eye(n) - c, d)
        variables = [f"x{i}" for i in range(n)]
        equations = []
        for i in range(n):
            terms = [(c[i, j], variables[j]) for j in range(n) if c[i, j] != 0.0]
            if d[i] != 0.0:
                terms.append((d[i], "src"))
            equations.append((variables[i], terms))
        return equations, variables, x


@st.composite
def resistor_meshes(draw, names: list[str]) -> list[Resistor]:
    """Resistors over [10, 1e7] ohms joining ``names``: a random spanning
    tree, in the order given, plus up to four chords."""
    ohms = decades(1, 7)
    elements = [Resistor(f"R{i}", a, names[draw(st.integers(0, i - 1))], draw(ohms))
                for i, a in enumerate(names) if i]
    node = st.sampled_from(names)
    for i, (a, b) in enumerate(draw(st.lists(st.tuples(node, node), max_size=4))):
        if a != b:
            elements.append(Resistor(f"RC{i}", a, b, draw(ohms)))
    return elements


@st.composite
def active_meshes(draw, max_nodes: int = 8):
    """A ``resistor_meshes`` mesh on ground and n1..nN carrying a VCCS, a BJT
    and an op-amp macro between random nodes: the circuit, its linearization
    and a port of two distinct nodes, which is open in about a quarter of draws."""
    names = [GROUND] + [f"n{i}" for i in range(1, draw(st.integers(2, max_nodes)) + 1)]
    node = st.sampled_from(names)
    ohms = decades(1, 7)
    elements = draw(resistor_meshes(names))
    elements += [
        Vccs("G1", draw(node), draw(node), draw(node), draw(node), draw(decades(-4, 0))),
        BjtPi("Q1", draw(node), draw(node), draw(node), draw(decades(-4, 0)),
              draw(ohms), draw(ohms)),
        OpAmp("X1", draw(node), draw(node), draw(node), draw(decades(1, 5)), draw(ohms),
              draw(st.none() | ohms)),
    ]
    port = tuple(draw(st.permutations(names))[:2])
    # in about a quarter of draws a port node is x, which no current path
    # joins to the mesh: it hangs from a mesh node by an infinite resistance
    # or by a VCCS controlled by one node against itself, or it sits on an
    # island with y and z that a VCCS drives, where a solve of the port's
    # current leaves rounding residue rather than zero
    cut = draw(st.sampled_from((None,) * 5 + ("ohms", "vccs", "island")))
    if cut == "ohms":
        elements.append(Resistor("RX", "x", draw(node), math.inf))
    elif cut == "vccs":
        control = draw(node)
        elements.append(Vccs("GX", "x", draw(node), control, control, 1e-3))
    elif cut == "island":
        elements += [Resistor("RX", "x", "y", draw(ohms)), Resistor("RY", "y", "z", draw(ohms)),
                     Vccs("GY", "z", "x", "y", "z", draw(decades(-4, 0)))]
    if cut:
        port = tuple(draw(st.permutations((port[0], "x"))))
    circuit = Circuit(tuple(elements), "mesh")
    return circuit, linearize(circuit), port


# Log-uniform ranges of a cascade stage's g_m, beta, r_o, RE, RC, RB and RF.
CASCADE_RANGES = ((1e-4, 1), (20, 500), (1e4, 1e7), (10, 1e4), (1e3, 1e5), (1e2, 1e4),
                  (1e4, 1e6))


def bjt_cascade(n: int, seed: int) -> str:
    """Netlist of ``n`` BJT stages from a 1k source resistance at b0 to a
    10k load at bn, to be probed at (c(n-1), 0).  Stage k is Qk from base bk
    to collector ck, REk from its emitter and RCk from its collector to
    ground, RBk from ck to b(k+1) and RFk from b(k+1) back to bk.  Each stage
    draws its values in ``CASCADE_RANGES`` order from
    ``random.Random(f"{n}/{seed}")``, with r_pi = beta / g_m."""
    rng = random.Random(f"{n}/{seed}")
    lines = ["RS b0 0 1k"]
    for k in range(n):
        g_m, beta, r_o, re, rc, rb, rf = (10 ** rng.uniform(math.log10(lo), math.log10(hi))
                                          for lo, hi in CASCADE_RANGES)
        lines += [f"Q{k} b{k} c{k} e{k} gm={g_m!r} rpi={beta / g_m!r} ro={r_o!r}",
                  f"RE{k} e{k} 0 {re!r}", f"RC{k} c{k} 0 {rc!r}",
                  f"RB{k} c{k} b{k + 1} {rb!r}", f"RF{k} b{k + 1} b{k} {rf!r}"]
    return "\n".join(lines + [f"RL b{n} 0 10k"]) + "\n"


# The circuit builder and the output port of each crosscheck case.
CASES = {1: (crosscheck.build_case1_circuit, crosscheck.CASE1_PORT),
         2: (crosscheck.build_case2_circuit, crosscheck.CASE2_PORT)}


# The fig3 amplifiers of netlists/fig3a-d.net: their forward elements, from
# each transistor's (g_m, r_pi, r_o) and the collector loads, the nodes their
# feedback network attaches to, and the input and output ports.
FIG3 = {
    "fig3a": (lambda q, r: [BjtPi("Q1", "b", "c", GROUND, *q[0]),
                            Resistor("RC", "c", GROUND, r[0])],
              ("c", "b"), ("b", GROUND), ("c", GROUND)),
    "fig3b": (lambda q, r: [BjtPi("Q1", "b", "c", "e", *q[0]),
                            Resistor("RC", "c", GROUND, r[0])],
              ("c", "e", GROUND), ("b", GROUND), ("c", GROUND)),
    "fig3c": (lambda q, r: [BjtPi("Q1", "b", "c", "e", *q[0]),
                            Resistor("RC", "c", GROUND, r[0])],
              ("e", GROUND), ("b", GROUND), ("c", GROUND)),
    "fig3d": (lambda q, r: [BjtPi("Q1", "b1", "c1", GROUND, *q[0]),
                            BjtPi("Q2", "c1", "c2", "e2", *q[1]),
                            Resistor("RC1", "c1", GROUND, r[0]),
                            Resistor("RC2", "c2", GROUND, r[1])],
              ("b1", "e2", GROUND), ("b1", GROUND), ("c2", GROUND)),
}


def fig3_amplifier(kind: str, devices, loads, feedback: list[Resistor]) -> Circuit:
    """The fig3 amplifier ``kind`` with ``feedback`` as its annotated
    feedback network."""
    forward, _, input_port, output_port = FIG3[kind]
    annotations = PortAnnotations(input_port, output_port, frozenset(e.name for e in feedback))
    return Circuit(tuple(forward(devices, loads)) + tuple(feedback), kind, annotations)


# (g_m, r_pi, r_o) over draw_params' ranges
devices = st.builds(lambda g_m, beta, r_o: (g_m, beta / g_m, r_o),
                    decades(-4, 0), st.floats(20, 500), decades(1, 7))


@st.composite
def feedback_amplifiers(draw, islands: bool = False) -> Circuit:
    """A fig3 amplifier whose feedback network is random resistors over
    [10, 1e7] ohms on its attachment nodes, ground among them in a drawn
    half, and up to four inner nodes.  Each inner node hangs from an
    earlier node, each attachment node gets a resistor, and up to three
    chords follow, so the network may have dangling branches, a port node
    joined to no other, and no ground; ``validate`` accepts it.  With
    ``islands`` it may also hold inner nodes joined to no attachment node,
    which ``validate`` rejects."""
    kind = draw(st.sampled_from(sorted(FIG3)))
    attach = [n for n in FIG3[kind][1] if n != GROUND or draw(st.booleans())]
    nodes = attach + [f"m{i}" for i in range(draw(st.integers(len(attach) == 1, 4)))]
    pairs = [(m, draw(st.sampled_from(nodes[:i]))) for i, m in enumerate(nodes)
             if i >= len(attach)]
    pairs += [(a, draw(st.sampled_from([n for n in nodes if n != a]))) for a in attach
              if not any(a in pair for pair in pairs)]
    node = st.sampled_from(nodes)
    pairs += [(a, b) for a, b in draw(st.lists(st.tuples(node, node), max_size=3)) if a != b]
    if islands:
        island = [f"j{i}" for i in range(draw(st.sampled_from((0, 2, 3))))]
        pairs += [(j, draw(st.sampled_from(island[:i]))) for i, j in enumerate(island) if i]
    feedback = [Resistor(f"RF{i}", a, b, draw(decades(1, 7))) for i, (a, b) in enumerate(pairs)]
    return fig3_amplifier(kind, draw(st.tuples(devices, devices)),
                          draw(st.tuples(decades(1, 7), decades(1, 7))), feedback)


def flow_graph(edges) -> sfg.Graph:
    """The flow graph of ``(u, v, gain)`` edges, through
    ``sfg.from_linear_system``: one equation for each node with in-edges."""
    equations: dict = {}
    for u, v, gain in edges:
        equations.setdefault(v, []).append((gain, u))
    return sfg.from_linear_system(list(equations.items()))


def reference_reduce_onto(lc: Circuit, keep: set[str]) -> Circuit:
    """The resistive ``lc`` reduced onto ``keep`` as ``mna.seen_at`` does,
    converting every resistor to a ``Decimal`` conductance before any node
    goes, dangling ones included."""
    adjacent: dict[str, dict[str, Decimal]] = {n: {} for n in sorted(lc.nodes)}
    with localcontext(mna.DECIMAL):
        for e in lc.elements:
            if not isinstance(e, Resistor):
                raise ValueError(f"cannot reduce {e.name}: the network must be purely resistive")
            if e.n1 != e.n2 and (g := 1 / Decimal(e.ohms)):
                g += adjacent[e.n1].get(e.n2, Decimal(0))
                adjacent[e.n1][e.n2] = adjacent[e.n2][e.n1] = g
        heap = sorted((len(nbrs), v) for v, nbrs in adjacent.items() if v not in keep)
        while heap:
            degree, v = heappop(heap)
            if not degree or len(adjacent.get(v, ())) != degree:
                continue
            nbrs = adjacent.pop(v)
            total = sum(nbrs.values())
            for a in nbrs:
                del adjacent[a][v]
            for a, b in combinations(nbrs, 2):
                g = adjacent[a].get(b, Decimal(0)) + nbrs[a] * nbrs[b] / total
                adjacent[a][b] = adjacent[b][a] = g
            for a in nbrs:
                if a not in keep:
                    heappush(heap, (len(adjacent[a]), a))
        elements = [Resistor(f"{a}~{b}", a, b, 1 / g)
                    for a, nbrs in sorted(adjacent.items()) for b, g in nbrs.items() if a < b]
    elements += (Resistor(f"{a}~", a, a, math.inf) for a, nbrs in adjacent.items() if not nbrs)
    return Circuit(tuple(elements))


@st.composite
def resistive_networks(draw):
    """Resistors over [10, 1e7] ohms or infinite on ground and up to nine
    more nodes, with a set of nodes to keep: a random forest whose trees
    dangle or float, then chords that may be parallel resistors or
    self-loops, then up to two VCCSs or VCVSs on those nodes or on a node
    no resistor touches."""
    names = [GROUND] + [f"n{i}" for i in range(draw(st.integers(1, 9)))]
    ohms = decades(1, 7) | st.just(math.inf)
    pairs = [(a, draw(st.sampled_from(names[:i]))) for i, a in enumerate(names)
             if i and draw(st.integers(0, 3))]
    node = st.sampled_from(names)
    pairs += draw(st.lists(st.tuples(node, node), max_size=6))
    resistors = tuple(Resistor(f"R{i}", a, b, draw(ohms)) for i, (a, b) in enumerate(pairs))
    terminal = st.sampled_from(names + ["s"])
    sources = tuple(kind(f"S{i}", *draw(st.tuples(terminal, terminal, terminal, terminal)), -10.0)
                    for i, kind in enumerate(draw(st.lists(st.sampled_from((Vccs, Vcvs)),
                                                           max_size=2))))
    return Circuit(resistors + sources), set(draw(st.lists(node, max_size=4)))
