"""Modified nodal analysis: assemble and solve linear circuit equations.

One KCL row per non-ground node plus one auxiliary current unknown per
voltage-defined branch (independent or controlled voltage source).  Systems
here are tens of unknowns at most, so the solver is a dense LU with scaled
partial pivoting and a single iterative-refinement step.

Stamping and factorization run in numpy's extended precision (80-bit on
x86): summing conductances into a node diagonal absorbs the low bits of the
smallest one, and recovering a branch current through the node then loses
eps * (g_max/g_min) relative accuracy, which double precision cannot keep
below 1e-12 over the supported six-decade component range.

The LU stays hand-written because LAPACK cannot factor in extended
precision.  A double-precision LAPACK solve followed by extended-precision
refinement was measured against it: the benchmark's sweep ran about 50%
faster, but case-2 R_X landed up to 1.0e-8 from the exact value where this
LU stays within 1.8e-9 (4 of 4,000 sweep points past the benchmark's 1e-9
oracle gate, against 1), and 6.4e-9 against 7.8e-11 on the badly scaled
port pinned in the tests.  Two and five refinement steps gave the same
value, and an exact rational solve of the same stamped system matches the
exact formula, so the loss is the refinement's residual floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .netlist import GROUND, ISource, Resistor, Vccs, Vcvs, VSource
from .smallsignal import LinearCircuit


class SingularMatrix(Exception):
    """The system has no unique solution: floating sub-circuit or
    contradictory voltage sources."""


class UnknownSource(Exception):
    pass


class UnknownNode(Exception):
    pass


# Residual target for ||Ax - b||_inf relative to ||b||_inf.
RESIDUAL_RTOL = 1e-9

# Scaled pivot below this is treated as a structurally singular system.
_PIVOT_RTOL = 1e-12


@dataclass(frozen=True)
class MnaSystem:
    matrix: np.ndarray
    rhs: np.ndarray
    index: dict[str, int]
    nodes: tuple[str, ...]
    branches: tuple[str, ...]

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Solution:
    node_voltages: dict[str, float]
    branch_currents: dict[str, float]

    def voltage(self, node: str) -> float:
        if node == GROUND:
            return 0.0
        return self.node_voltages[node]

    def across(self, port: tuple[str, str]) -> float:
        return self.voltage(port[0]) - self.voltage(port[1])


def assemble(lc: LinearCircuit) -> MnaSystem:
    """Stamp the standard MNA matrix for a linearized circuit."""
    nodes = tuple(sorted(lc.nodes - {GROUND}))
    node_row = {n: i for i, n in enumerate(nodes)}
    branches = tuple(e.name for e in lc.elements if isinstance(e, (VSource, Vcvs)))
    branch_row = {name: len(nodes) + i for i, name in enumerate(branches)}

    dim = len(nodes) + len(branches)
    a = np.zeros((dim, dim), dtype=np.longdouble)
    b = np.zeros(dim, dtype=np.longdouble)

    def row(node: str) -> int | None:
        return None if node == GROUND else node_row[node]

    def stamp(i: int | None, j: int | None, value: float):
        if i is not None and j is not None:
            a[i, j] += value

    one = np.longdouble(1.0)
    for e in lc.elements:
        if isinstance(e, Resistor):
            g = one / np.longdouble(e.ohms)
            p, n = row(e.n1), row(e.n2)
            stamp(p, p, g)
            stamp(n, n, g)
            stamp(p, n, -g)
            stamp(n, p, -g)
        elif isinstance(e, ISource):
            # e.amps flows n1 -> n2 through the source.
            p, n = row(e.n1), row(e.n2)
            if p is not None:
                b[p] -= e.amps
            if n is not None:
                b[n] += e.amps
        elif isinstance(e, Vccs):
            p, n = row(e.n1), row(e.n2)
            cp, cn = row(e.cp), row(e.cn)
            stamp(p, cp, e.gm)
            stamp(p, cn, -e.gm)
            stamp(n, cp, -e.gm)
            stamp(n, cn, e.gm)
        elif isinstance(e, (VSource, Vcvs)):
            k = branch_row[e.name]
            p, n = row(e.n1), row(e.n2)
            # Branch current flows n1 -> n2 through the source.
            stamp(p, k, 1.0)
            stamp(n, k, -1.0)
            stamp(k, p, 1.0)
            stamp(k, n, -1.0)
            if isinstance(e, VSource):
                b[k] = e.volts
            else:
                cp, cn = row(e.cp), row(e.cn)
                stamp(k, cp, -e.gain)
                stamp(k, cn, e.gain)
        else:
            raise TypeError(f"cannot stamp element {e!r}")

    index = {f"V({n})": i for n, i in node_row.items()}
    index.update({f"I({name})": i for name, i in branch_row.items()})
    return MnaSystem(a, b, index, nodes, branches)


def _lu_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """In-place LU with implicit row scaling; raises SingularMatrix when the
    best available scaled pivot is numerically zero."""
    n = a.shape[0]
    lu = a.copy()
    perm = np.arange(n)
    scale = np.max(np.abs(lu), axis=1)
    if np.any(scale == 0.0):
        raise SingularMatrix("zero row in system matrix")
    for k in range(n):
        ratios = np.abs(lu[k:, k]) / scale[k:]
        p = k + int(np.argmax(ratios))
        if ratios[p - k] < _PIVOT_RTOL:
            raise SingularMatrix("pivot vanished during elimination")
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
            scale[[k, p]] = scale[[p, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, perm


def _lu_solve(lu: np.ndarray, perm: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = lu.shape[0]
    x = b[perm].copy()
    for k in range(1, n):
        x[k] -= lu[k, :k] @ x[:k]
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - lu[k, k + 1:] @ x[k + 1:]) / lu[k, k]
    return x


def solve(system: MnaSystem) -> Solution:
    """Dense LU solve with one refinement pass when the residual misses
    ``RESIDUAL_RTOL``."""
    if system.dimension == 0:
        return Solution({}, {})
    a, b = system.matrix, system.rhs
    lu, perm = _lu_factor(a)
    x = _lu_solve(lu, perm, b)
    b_norm = np.max(np.abs(b)) if b.size else 0.0
    residual = np.max(np.abs(a @ x - b))
    if residual > RESIDUAL_RTOL * max(b_norm, 1e-300):
        x = x + _lu_solve(lu, perm, b - a @ x)

    voltages = {n: float(x[system.index[f"V({n})"]]) for n in system.nodes}
    currents = {name: float(x[system.index[f"I({name})"]]) for name in system.branches}
    return Solution(voltages, currents)


def solve_circuit(lc: LinearCircuit) -> Solution:
    return solve(assemble(lc))


def zero_independent_sources(lc: LinearCircuit) -> LinearCircuit:
    """Voltage sources become shorts (value 0), current sources open."""
    elements = [
        replace(e, volts=0.0) if isinstance(e, VSource) else e
        for e in lc.elements
        if not isinstance(e, ISource)
    ]
    return LinearCircuit.of(elements, lc.provenance)


# Branch of the unit test voltage that probed_system attaches across a port.
TEST_SOURCE = "__dpi_test"


def probed_system(lc: LinearCircuit, port: tuple[str, str]) -> MnaSystem:
    """System of ``lc`` with its independent sources zeroed and a unit test
    voltage ``TEST_SOURCE`` across ``port``; the current that the port draws
    from it is ``-I(TEST_SOURCE)``."""
    test = VSource(TEST_SOURCE, port[0], port[1], 1.0)
    return assemble(zero_independent_sources(lc).with_elements(test))


def impedance_from_current(delivered: float) -> float:
    """Port impedance from the current a unit test voltage delivers into it;
    an open port, which draws none, reads ``math.inf``."""
    if delivered == 0.0:
        return math.inf
    return 1.0 / delivered


def driving_point_impedance(lc: LinearCircuit, port: tuple[str, str]) -> float:
    """Impedance seen into ``port`` with all independent sources zeroed."""
    solution = solve(probed_system(lc, port))
    return impedance_from_current(-solution.branch_currents[TEST_SOURCE])


def require_nodes(lc: LinearCircuit, nodes) -> None:
    """Raise ``UnknownNode`` for the first of ``nodes`` not in ``lc``."""
    for node in nodes:
        if node not in lc.nodes:
            raise UnknownNode(f"unknown node {node!r}")


def transfer(lc: LinearCircuit, source: str, observe: tuple[str, str]) -> float:
    """Voltage across ``observe`` per unit value of the named independent
    source, all other independent sources zeroed."""
    require_nodes(lc, observe)
    target = next((e for e in lc.elements if e.name == source), None)
    if isinstance(target, VSource):
        unit = replace(target, volts=1.0)
    elif isinstance(target, ISource):
        unit = replace(target, amps=1.0)
    else:
        raise UnknownSource(f"{source!r} is not an independent source")
    others = [e for e in zero_independent_sources(lc).elements if e.name != source]
    circuit = LinearCircuit.of(others + [unit], lc.provenance)
    for node in observe:
        if node not in circuit.nodes:
            # only zeroed current sources touch it, so nothing sets its voltage
            raise SingularMatrix(f"node {node!r} floats once the other sources are zeroed")
    return solve(assemble(circuit)).across(observe)
