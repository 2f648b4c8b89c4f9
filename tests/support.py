"""Shared generators and independent oracles for the test suite.

The impedance oracle here deliberately avoids the package's stamping and
elimination code: it builds a plain node-conductance matrix for
resistor-only networks and inverts it with numpy, giving a second route for
every driving-point check.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from feedback_lens.feedback import AmplifierParams
from feedback_lens.netlist import GROUND, Resistor
from feedback_lens.smallsignal import LinearCircuit


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
