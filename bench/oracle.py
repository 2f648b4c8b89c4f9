"""Reference answers the benchmark checks the program against.

Everything here is derived independently of ``feedback_lens``: circuits are
described by the benchmark's own element tuples, solved on a nodal
conductance matrix (no branch-current unknowns, so no MNA code path is
shared), and the case circuits are reduced by hand to three nodal unknowns
and solved exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

GROUND = "0"


class Nodal:
    """Conductance matrix over named non-ground nodes.

    Stamps are resistors ``("R", a, b, ohms)`` and transconductances
    ``("G", out_plus, out_minus, ctrl_plus, ctrl_minus, siemens)``; a
    bipolar device ``("Q", base, collector, emitter, gm, rpi, ro)`` is
    stamped as its hybrid-pi trio.
    """

    def __init__(self, elements):
        nodes = set()
        for e in elements:
            nodes.update(terminals(e))
        nodes.discard(GROUND)
        self.nodes = sorted(nodes)
        self.row = {n: i for i, n in enumerate(self.nodes)}
        self.g = np.zeros((len(self.nodes), len(self.nodes)))
        self.links = {n: set() for n in nodes | {GROUND}}
        for e in elements:
            self._stamp(e)
            for t in terminals(e):
                self.links[t].update(terminals(e))

    def _add(self, i, j, value):
        if i != GROUND and j != GROUND:
            self.g[self.row[i], self.row[j]] += value

    def _conductance(self, a, b, value):
        self._add(a, a, value)
        self._add(b, b, value)
        self._add(a, b, -value)
        self._add(b, a, -value)

    def _transconductance(self, p, n, cp, cn, gm):
        # gm * v(cp, cn) leaves node p and enters node n
        self._add(p, cp, gm)
        self._add(p, cn, -gm)
        self._add(n, cp, -gm)
        self._add(n, cn, gm)

    def _stamp(self, e):
        kind = e[0]
        if kind == "R":
            self._conductance(e[1], e[2], 1.0 / e[3])
        elif kind == "G":
            self._transconductance(*e[1:])
        elif kind == "Q":
            _, b, c, em, gm, rpi, ro = e
            self._conductance(b, em, 1.0 / rpi)
            self._transconductance(c, em, b, em, gm)
            self._conductance(c, em, 1.0 / ro)
        else:
            raise ValueError(f"oracle cannot stamp {kind!r}")

    def solve(self, inject=(), fixed=(), grounded=()):
        """Node voltages for unit-scaled current injections ``{node: amps}``,
        fixed node voltages ``{node: volts}`` and extra grounded nodes.
        Returns every node voltage, ground included."""
        inject, fixed = dict(inject), dict(fixed)
        known = {GROUND: 0.0, **{n: 0.0 for n in grounded}, **fixed}
        reached, frontier = set(known), list(known)
        while frontier:
            for n in self.links[frontier.pop()] - reached:
                reached.add(n)
                frontier.append(n)
        # a node with no path to a known potential floats: open circuit
        free = [n for n in self.nodes if n in reached and n not in known]
        idx = [self.row[n] for n in free]
        kidx = [self.row[n] for n in known if n != GROUND]
        kval = np.array([known[n] for n in known if n != GROUND])
        a = self.g[np.ix_(idx, idx)]
        b = np.array([inject.get(n, 0.0) for n in free])
        if kidx:
            b = b - self.g[np.ix_(idx, kidx)] @ kval
        x = refined_solve(a, b)
        volts = {n: math.nan for n in self.nodes}
        volts.update(known)
        volts.update(zip(free, x))
        return volts

    def impedance(self, port, grounded=()):
        """Voltage across ``port`` per unit current driven into it."""
        p, n = port
        volts = self.solve({p: 1.0, n: -1.0}, grounded=grounded)
        z = volts[p] - volts[n]
        return math.inf if math.isnan(z) else z


def terminals(e):
    if e[0] == "R":
        return e[1:3]
    if e[0] == "G":
        return e[1:5]
    return e[1:4]


def refined_solve(a, b, steps=2):
    """Double-precision solve plus residual refinement in extended precision."""
    x = np.linalg.solve(a, b)
    al, bl = a.astype(np.longdouble), b.astype(np.longdouble)
    for _ in range(steps):
        r = bl - al @ x.astype(np.longdouble)
        x = x + np.linalg.solve(a, r.astype(float))
    return x


def loading(feedback_elements, topology, input_node, output_node):
    """R_if, R_of and f of a resistive feedback network whose ports both
    return to ground; shunt ports are shorted when measuring the other
    side, series ports left open."""
    net = Nodal(feedback_elements)
    input_mix, output_sense = topology.split("-")
    r_if = net.impedance((input_node, GROUND),
                         grounded=[output_node] if output_sense == "shunt" else [])
    r_of = net.impedance((output_node, GROUND),
                         grounded=[input_node] if input_mix == "shunt" else [])
    excite = {}
    fixed = {}
    if output_sense == "series":
        excite = {output_node: 1.0}
    else:
        fixed = {output_node: 1.0}
    if input_mix == "shunt":
        # minus the current the network delivers into the shorted input node
        volts = net.solve(excite, fixed, grounded=[input_node])
        i = net.row[input_node]
        f = sum(net.g[i, net.row[n]] * v
                for n, v in volts.items() if n not in (GROUND, input_node))
    else:
        volts = net.solve(excite, fixed)
        f = volts[input_node]
    return r_if, r_of, f


def case_rx(case, p):
    """R_X of the case circuit from a hand-reduced nodal system, solved in
    exact rational arithmetic, so the reference carries no rounding of its
    own however ill-conditioned the parameters make the system.

    The op-amp's Thevenin source (gain K behind r_out) is folded into a
    Norton stamp at the base; in case 2 the base current returns through a
    rail held at emitter potential, so it leaves node b but never reaches
    node e.  Unknowns are v_b, v_c, v_e; a unit current is driven into the
    output node.
    """
    b, c, e = 0, 1, 2
    g = [[Fraction(0)] * 3 for _ in range(3)]
    go, gpi, gro, g1 = (1 / Fraction(x) for x in (p.r_out, p.r_pi, p.r_o, p.R1))
    gin = 0 if p.R_in == math.inf else 1 / Fraction(p.R_in)
    K, gm = Fraction(p.K), Fraction(p.g_m)
    g[b][b] += go
    if case == 1:
        g[b][e] += go * K  # v_t = K * (0 - v_e)
        g[b][b] += gpi
        g[b][e] -= gpi
        g[e][e] += gpi
        g[e][b] -= gpi
    else:
        g[b][c] -= go * K  # v_t = K * v_c
        g[b][b] += gpi
        g[b][e] -= gpi
    g[c][b] += gm  # g_m * v_be leaves c and enters e
    g[c][e] -= gm
    g[e][b] -= gm
    g[e][e] += gm
    g[c][c] += gro
    g[e][e] += gro
    g[c][e] -= gro
    g[e][c] -= gro
    sense = e if case == 1 else c
    g[sense][sense] += g1 + gin
    out = c if case == 1 else e
    rhs = [Fraction(0)] * 3
    rhs[out] = Fraction(1)
    return float(exact_solve(g, rhs)[out])


def exact_solve(a, b):
    """Gauss-Jordan elimination on rationals."""
    rows = [list(row) + [v] for row, v in zip(a, b)]
    n = len(rows)
    for i in range(n):
        pivot = next(r for r in range(i, n) if rows[r][i] != 0)
        rows[i], rows[pivot] = rows[pivot], rows[i]
        for r in range(n):
            if r != i and rows[r][i] != 0:
                f = rows[r][i] / rows[i][i]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[i])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def closed_rx(case, p):
    """The printed closed forms of the two cases, as published."""
    beta = p.g_m * p.r_pi
    if case == 1:
        core = p.R1 * (p.K + 1.0) * (beta + 1.0)
        num = core + 2.0 * p.r_out + 2.0 * p.r_pi
        den = (core + (p.r_out + p.r_pi) * (beta + 1.0)) / beta
        return p.r_o * num / den
    return (p.R1 * p.K * beta + p.r_out + p.r_pi) / beta


def rel_err(a, b):
    if a == b:
        return 0.0
    scale = max(abs(a), abs(b))
    if math.isnan(scale) or math.isinf(scale):
        return math.inf
    return abs(a - b) / scale
