"""Shared generators and independent oracles for the test suite.

The impedance oracle here deliberately avoids the package's stamping and
elimination code: it builds a plain node-conductance matrix for
resistor-only networks and inverts it with numpy, giving a second route for
every driving-point check.  ``reference_elimination_gain`` keeps the plain
form of ``sfg.elimination_gain``, which ranks every remaining node afresh at
each step, so the incremental one can be held equal to it.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from feedback_lens import sfg
from feedback_lens.feedback import AmplifierParams
from feedback_lens.netlist import GROUND, BjtPi, Circuit, OpAmp, Resistor, Vccs
from feedback_lens.smallsignal import LinearCircuit, linearize


def random_resistor_mesh(rng: np.random.Generator, n_nodes: int = 5,
                         extra_edges: int = 4) -> LinearCircuit:
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
    return LinearCircuit.of(elements)


def conductance_impedance_oracle(lc: LinearCircuit, port: tuple[str, str]) -> float:
    """Driving-point impedance of a resistor-only network by direct
    inversion of the node conductance matrix."""
    nodes = sorted(lc.nodes - {GROUND})
    index = {n: i for i, n in enumerate(nodes)}
    y = np.zeros((len(nodes), len(nodes)))
    for e in lc.elements:
        assert isinstance(e, Resistor)
        g = 1.0 / e.ohms
        if e.n1 != GROUND:
            y[index[e.n1], index[e.n1]] += g
        if e.n2 != GROUND:
            y[index[e.n2], index[e.n2]] += g
        if e.n1 != GROUND and e.n2 != GROUND:
            y[index[e.n1], index[e.n2]] -= g
            y[index[e.n2], index[e.n1]] -= g
    z = np.linalg.inv(y)
    pick = np.zeros(len(nodes))
    if port[0] != GROUND:
        pick[index[port[0]]] += 1.0
    if port[1] != GROUND:
        pick[index[port[1]]] -= 1.0
    return float(pick @ z @ pick)


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
    and an op-amp macro between random nodes, linearized, with a port of two
    distinct nodes."""
    names = [GROUND] + [f"n{i}" for i in range(1, draw(st.integers(2, max_nodes)) + 1)]
    node = st.sampled_from(names)
    ohms = decades(1, 7)
    elements = draw(resistor_meshes(names))
    elements += [
        Vccs("G1", draw(node), draw(node), draw(node), draw(node), draw(decades(-4, 0))),
        BjtPi("Q1", draw(node), draw(node), draw(node), draw(decades(-4, 0)),
              draw(ohms), draw(ohms)),
        OpAmp("X1", draw(node), draw(node), draw(node), draw(decades(1, 5)), draw(ohms)),
    ]
    circuit = Circuit("mesh", frozenset(names), tuple(elements))
    port = tuple(draw(st.permutations(names))[:2])
    return linearize(circuit), port


def reference_elimination_gain(graph: sfg.FlowGraph, src: str, dst: str) -> float:
    """``sfg.elimination_gain`` ranking every remaining node at every step."""
    if src == dst:
        raise ValueError("src and dst must differ")
    source, sink = object(), object()
    succ: dict = graph.adjacency()
    succ.setdefault(src, {})
    succ.setdefault(dst, {})[sink] = 1.0
    succ[source], succ[sink] = {src: 1.0}, {}
    pred: dict = {n: {} for n in succ}
    for u, outs in succ.items():
        for v, gain in outs.items():
            pred[v][u] = gain
    remaining = set(succ) - {source, sink}

    def rank(v):
        outs = succ[v]
        loop = outs.get(v, 0.0)
        if abs(1.0 - loop) <= sfg._PIVOT_RTOL * max(1.0, abs(loop)):
            return None
        looped = v in outs
        return (len(pred[v]) - looped) * (len(outs) - looped), -abs(1.0 - loop), v

    while remaining:
        ranks = [r for r in map(rank, remaining) if r]
        if not ranks:
            raise sfg.ZeroDeterminant("every remaining node has a zero 1 - L")
        v = min(ranks)[2]
        remaining.remove(v)
        absorb = 1.0 / (1.0 - succ[v].pop(v, 0.0))
        pred[v].pop(v, None)
        ins, outs = pred.pop(v), succ.pop(v)
        for w in outs:
            del pred[w][v]
        for u, into in ins.items():
            del succ[u][v]
            into *= absorb
            for w, out in outs.items():
                gain = succ[u].get(w, 0.0) + into * out
                succ[u][w] = pred[w][u] = gain
    return succ[source].get(sink, 0.0)
