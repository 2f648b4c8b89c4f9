"""Modified nodal analysis: assemble and solve linear circuit equations.

One KCL row per non-ground node plus one auxiliary current unknown per
voltage-defined branch (independent or controlled voltage source).  Each row
holds only its non-zero entries, and the solver is Gaussian elimination in
column order with scaled partial pivoting (Higham, *Accuracy and Stability
of Numerical Algorithms*, ch. 9).

Stamping and elimination run in ``decimal`` at 34 digits (decimal128), and
the unknowns are rounded to float once.  Summing conductances into a node
diagonal absorbs the low bits of the smallest one, and recovering a branch
current through the node then loses eps * (g_max/g_min) relative accuracy;
double precision cannot keep that below 1e-12 over the supported six-decade
component range, and 34 digits keep it far below on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import Context, Decimal, localcontext

from .netlist import GROUND, ISource, Resistor, Vccs, Vcvs, VSource
from .smallsignal import LinearCircuit


class SingularMatrix(Exception):
    """The system has no unique solution: floating sub-circuit or
    contradictory voltage sources."""


class UnknownSource(Exception):
    pass


class UnknownNode(Exception):
    pass


# Every decimal operation runs in this context: unary minus and abs round
# to the ambient precision too, so one stray operation at the default 28
# digits breaks the exact cancellation of the stamps.
DECIMAL = Context(prec=34)

# Scaled pivot below this is treated as a structurally singular system.
_PIVOT_RTOL = Decimal("1e-12")

_ZERO = Decimal(0)


@dataclass(frozen=True)
class MnaSystem:
    """``rows[i]`` maps column to entry for the non-zero entries of row i."""

    rows: tuple[dict[int, Decimal], ...]
    rhs: tuple[Decimal, ...]
    index: dict[str, int]
    nodes: tuple[str, ...]
    branches: tuple[str, ...]

    @property
    def dimension(self) -> int:
        return len(self.rows)


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
    branches = tuple(e.name for e in lc.elements if isinstance(e, (VSource, Vcvs)))
    index = {f"V({n})": i for i, n in enumerate(nodes)}
    index.update({f"I({name})": len(nodes) + i for i, name in enumerate(branches)})
    dim = len(index)
    # Ground takes the spare index dim; its row and column are dropped below.
    row = {n: i for i, n in enumerate(nodes)} | {GROUND: dim}
    a: list[dict[int, Decimal]] = [{} for _ in range(dim + 1)]
    b = [_ZERO] * (dim + 1)

    def couple(p: int, n: int, cp: int, cn: int, g: Decimal):
        """Current g * (v[cp] - v[cn]) leaving row p and entering row n."""
        for i, j, value in ((p, cp, g), (p, cn, -g), (n, cp, -g), (n, cn, g)):
            a[i][j] = a[i].get(j, _ZERO) + value

    with localcontext(DECIMAL):
        one = Decimal(1)
        for e in lc.elements:
            p, n = row[e.n1], row[e.n2]
            if isinstance(e, Resistor):
                couple(p, n, p, n, one / Decimal(e.ohms))
            elif isinstance(e, Vccs):
                couple(p, n, row[e.cp], row[e.cn], Decimal(e.gm))
            elif isinstance(e, ISource):
                # e.amps flows n1 -> n2 through the source.
                b[p] -= Decimal(e.amps)
                b[n] += Decimal(e.amps)
            elif isinstance(e, (VSource, Vcvs)):
                # Branch current k flows n1 -> n2 through the source.
                k = index[f"I({e.name})"]
                couple(p, n, k, dim, one)
                couple(k, dim, p, n, one)
                if isinstance(e, VSource):
                    b[k] = Decimal(e.volts)
                else:
                    couple(k, dim, row[e.cp], row[e.cn], -Decimal(e.gain))
            else:
                raise TypeError(f"cannot stamp element {e!r}")

    rows = tuple({j: v for j, v in r.items() if v and j != dim} for r in a[:dim])
    return MnaSystem(rows, tuple(b[:dim]), index, nodes, branches)


def _eliminate(system: MnaSystem):
    """Forward elimination in column order with scaled partial pivoting (a
    row's scale is its largest original entry).  Returns the reduced rows,
    the reduced right-hand side and, for each column k, ``(row, pivot)``:
    the pivot row chosen for column k, which afterwards holds only columns
    after k, and the pivot entry taken out of it.  A zero row, or a best
    scaled pivot below ``_PIVOT_RTOL``, raises ``SingularMatrix``.  Call it
    inside ``localcontext(DECIMAL)``."""
    rows = [dict(r) for r in system.rows]
    b = list(system.rhs)
    scale = [max(map(abs, r.values()), default=_ZERO) for r in rows]
    if not all(scale):
        raise SingularMatrix("zero row in system matrix")
    active, pivots = list(range(system.dimension)), []
    for k in range(system.dimension):
        best, ratio = None, _ZERO
        for i in active:
            entry = rows[i].get(k)
            if entry and abs(entry) / scale[i] > ratio:
                best, ratio = i, abs(entry) / scale[i]
        if ratio < _PIVOT_RTOL:
            raise SingularMatrix("pivot vanished during elimination")
        active.remove(best)
        prow, pb = rows[best], b[best]
        pivot = prow.pop(k)
        pivots.append((best, pivot))
        for i in active:
            entry = rows[i].pop(k, None)
            if entry:
                factor = entry / pivot
                r = rows[i]
                for j, v in prow.items():
                    r[j] = r.get(j, _ZERO) - factor * v
                b[i] -= factor * pb
    return rows, b, pivots


def solve(system: MnaSystem) -> Solution:
    """Every unknown of ``system``: ``_eliminate``, then back substitution,
    then one rounding of each unknown to float."""
    dim = system.dimension
    with localcontext(DECIMAL):
        rows, b, pivots = _eliminate(system)
        x = [_ZERO] * dim
        for k in reversed(range(dim)):
            i, pivot = pivots[k]
            x[k] = (b[i] - sum(v * x[j] for j, v in rows[i].items())) / pivot
    values = [float(v) for v in x]
    n = len(system.nodes)
    return Solution(dict(zip(system.nodes, values[:n])), dict(zip(system.branches, values[n:])))


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
    from it is ``-I(TEST_SOURCE)``, the system's last unknown, because the
    test source is the last element and branch currents follow the node
    voltages."""
    test = VSource(TEST_SOURCE, port[0], port[1], 1.0)
    return assemble(zero_independent_sources(lc).with_elements(test))


def port_is_open(lc: LinearCircuit, port: tuple[str, str]) -> bool:
    """True when no current path joins the two port nodes once independent
    sources are zeroed: they lie in different connected components of the
    graph whose edges are resistors, VCCS outputs and voltage sources."""
    adjacent: dict[str, set[str]] = {}
    for e in lc.elements:
        if isinstance(e, (Resistor, Vccs, VSource, Vcvs)):
            adjacent.setdefault(e.n1, set()).add(e.n2)
            adjacent.setdefault(e.n2, set()).add(e.n1)
    reached, frontier = {port[0]}, [port[0]]
    while frontier:
        for node in adjacent.get(frontier.pop(), set()) - reached:
            reached.add(node)
            frontier.append(node)
    return port[1] not in reached


def impedance_from_current(delivered: float, lc: LinearCircuit,
                           port: tuple[str, str]) -> float:
    """Impedance of ``port`` of ``lc`` from the current a unit test voltage
    delivers into it.  A port that ``port_is_open``, or that draws exactly no
    current, reads ``math.inf``.  Openness is decided from the circuit's
    structure because an open port's solved current is rounding residue,
    which no threshold tells apart from the current of a real port of high
    impedance beside a large conductance."""
    if delivered == 0.0 or port_is_open(lc, port):
        return math.inf
    return 1.0 / delivered


def driving_point_impedance(lc: LinearCircuit, port: tuple[str, str]) -> float:
    """Impedance seen into ``port`` with all independent sources zeroed.

    Only the current of the test source is needed, and ``probed_system``
    appends that source last, so its current is the last unknown.  After
    ``_eliminate`` the pivot row of the last column holds no other entry,
    and the current is that row's right-hand side over its pivot: the value
    ``solve`` would give, without back substitution of the other unknowns.
    A port node ``lc`` lacks raises ``UnknownNode``."""
    require_nodes(lc, port)
    with localcontext(DECIMAL):
        _, b, pivots = _eliminate(probed_system(lc, port))
        row, pivot = pivots[-1]
        delivered = -float(b[row] / pivot)
    return impedance_from_current(delivered, lc, port)


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
