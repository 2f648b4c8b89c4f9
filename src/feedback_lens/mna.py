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
from heapq import heappop, heappush
from itertools import combinations

from .netlist import GROUND, Circuit, ISource, Primitive, Resistor, Vccs, Vcvs, VSource, reachable


class SingularMatrix(Exception):
    """The system has no unique solution: floating sub-circuit or
    contradictory voltage sources."""


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
    nodes: tuple[str, ...]
    branches: tuple[str, ...]

    @property
    def dimension(self) -> int:
        return len(self.rows)

    @property
    def names(self) -> tuple[str, ...]:
        """Name of each unknown: ``V(node)``, then ``I(branch)``."""
        return (tuple(f"V({n})" for n in self.nodes)
                + tuple(f"I({b})" for b in self.branches))


@dataclass(frozen=True)
class Solution:
    node_voltages: dict[str, float]
    branch_currents: dict[str, float]

    def voltage(self, node: str) -> float:
        if node == GROUND:
            return 0.0
        return self.node_voltages[node]


def assemble(lc: Circuit) -> MnaSystem:
    """Stamp the standard MNA matrix for a circuit of primitives; any other
    element raises ``TypeError``."""
    nodes = tuple(sorted(lc.nodes - {GROUND}))
    branches = tuple(e.name for e in lc.elements if isinstance(e, (VSource, Vcvs)))
    dim = len(nodes) + len(branches)
    # Ground takes the spare index dim; its row and column are dropped below.
    row = {n: i for i, n in enumerate(nodes)} | {GROUND: dim}
    branch_row = {name: len(nodes) + i for i, name in enumerate(branches)}
    a: list[dict[int, Decimal]] = [{} for _ in range(dim + 1)]
    b = [_ZERO] * (dim + 1)

    def couple(p: int, n: int, cp: int, cn: int, g: Decimal):
        """Current g * (v[cp] - v[cn]) leaving row p and entering row n; none
        for p == n or cp == cn, whose stamps would cancel only to rounding."""
        if p == n or cp == cn:
            return
        for i, j, value in ((p, cp, g), (p, cn, -g), (n, cp, -g), (n, cn, g)):
            a[i][j] = a[i].get(j, _ZERO) + value

    with localcontext(DECIMAL):
        one = Decimal(1)
        for e in lc.elements:
            if not isinstance(e, Primitive):
                raise TypeError(f"cannot stamp element {e!r}")
            p, n = row[e.n1], row[e.n2]
            if isinstance(e, Resistor):
                couple(p, n, p, n, one / Decimal(e.ohms))
            elif isinstance(e, Vccs):
                couple(p, n, row[e.cp], row[e.cn], Decimal(e.gm))
            elif isinstance(e, ISource):
                # e.amps flows n1 -> n2 through the source.
                b[p] -= Decimal(e.amps)
                b[n] += Decimal(e.amps)
            else:
                # A VSource or Vcvs: branch current k flows n1 -> n2 through it.
                k = branch_row[e.name]
                couple(p, n, k, dim, one)
                couple(k, dim, p, n, one)
                if isinstance(e, VSource):
                    b[k] = Decimal(e.volts)
                else:
                    couple(k, dim, row[e.cp], row[e.cn], -Decimal(e.gain))

    rows = tuple({j: v for j, v in r.items() if v and j != dim} for r in a[:dim])
    return MnaSystem(rows, tuple(b[:dim]), nodes, branches)


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
        name = system.names[scale.index(_ZERO)]
        raise SingularMatrix(f"zero row in system matrix for {name}")
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


# Branch of the unit test voltage that probed_system attaches across a port.
TEST_SOURCE = "__dpi_test"


def probed_system(lc: Circuit, port: tuple[str, str]) -> MnaSystem:
    """System of ``lc`` with its independent sources zeroed (voltage sources
    shorted, current sources opened) and a unit test voltage ``TEST_SOURCE``
    across ``port``; the current that the port draws from it is
    ``-I(TEST_SOURCE)``, the system's last unknown, because the test source
    is the last element and branch currents follow the node voltages.  A
    port whose two nodes are the same raises ``ValueError``, and a port node
    ``lc`` lacks raises ``UnknownNode``."""
    if port[0] == port[1]:
        raise ValueError(f"port nodes must differ, got {port[0]!r} twice")
    for node in port:
        if node not in lc.nodes:
            raise UnknownNode(f"unknown node {node!r}")
    elements = [replace(e, volts=0.0) if isinstance(e, VSource) else e
                for e in lc.elements if not isinstance(e, ISource)]
    elements.append(VSource(TEST_SOURCE, port[0], port[1], 1.0))
    return assemble(Circuit(tuple(elements)))


def port_is_open(lc: Circuit, port: tuple[str, str]) -> bool:
    """True when no current path joins the two port nodes once independent
    sources are zeroed: they lie in different connected components of the
    graph whose edges are finite resistors, the outputs of VCCSs whose two
    control nodes differ, and voltage sources, independent or controlled.
    An infinite resistance, or a VCCS controlled by a node against itself,
    moves no current, and ``assemble`` stamps neither."""
    paths = ((e.n1, e.n2) for e in lc.elements
             if isinstance(e, (VSource, Vcvs))
             or isinstance(e, Resistor) and e.ohms not in (math.inf, -math.inf)
             or isinstance(e, Vccs) and e.cp != e.cn)
    return port[1] not in reachable(port[0], paths)


def impedance_from_current(delivered: float, lc: Circuit,
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


def driving_point_impedance(lc: Circuit, port: tuple[str, str]) -> float:
    """Impedance seen into ``port`` with all independent sources zeroed:
    the current that ``solve`` finds the test source delivering.  Only that
    last unknown is read, but through ``solve``, so that the benchmark's
    trace of ``solve`` sees every nodal solve.  The probe, and the openness
    of the port, are of ``seen_at(lc, port)``, whose nodes are few, and
    which the flow-graph route on ``lc`` at the same port, either way round,
    reuses.  A bad port raises as in ``probed_system``."""
    view = seen_at(lc, port)
    delivered = -solve(probed_system(view, port)).branch_currents[TEST_SOURCE]
    return impedance_from_current(delivered, view, port)


def seen_at(lc: Circuit, nodes) -> Circuit:
    """``lc`` as ``nodes`` see it, the only port reduction.  Ground,
    ``nodes`` and every terminal of an element other than a resistor stay,
    and those elements pass through.  Each other node goes, fewest
    neighbours first: a dangling one (cascading) with no arithmetic, then
    the rest by the star-mesh transform (Kron reduction), giving each pair
    a, b of its neighbours g_a * g_b / sum(g) in ``DECIMAL``.  Only a
    surviving edge is converted, once, summed over its parallel resistors,
    and each equivalent keeps its ohms as that ``Decimal``.  A resistor's
    node left with no neighbour stays as a self-looped infinite resistor:
    a kept one reads open, and a floating island leaves a nodal solve
    ``SingularMatrix`` as in ``lc``.  With nothing to reduce it is ``lc``
    itself; else ``lc`` keeps it by the set of ``nodes``, so a second route
    at a port, either way round, reuses it."""
    views = vars(lc).setdefault("_seen_at", {})
    if (key := frozenset(nodes)) in views:
        return views[key]
    others = tuple(e for e in lc.elements if not isinstance(e, Resistor))
    keep = {GROUND, *key}.union(*(e.terminals for e in others))
    if keep >= lc.nodes:
        return lc
    resistors = [e for e in lc.elements if isinstance(e, Resistor)]
    ends = {GROUND}.union(*(e.terminals for e in resistors)) if others else lc.nodes
    # in node order, which every step below keeps
    ohms: dict[str, dict[str, list]] = {n: {} for n in sorted(ends)}
    for e in resistors:
        # an infinite resistance joins nothing, as assemble drops its zero
        if e.n1 != e.n2 and e.ohms not in (math.inf, -math.inf):
            ohms[e.n1].setdefault(e.n2, []).append(e.ohms)
            ohms[e.n2][e.n1] = ohms[e.n1][e.n2]
    leaves = [v for v, nbrs in ohms.items() if len(nbrs) == 1 and v not in keep]
    while leaves:
        v = heappop(leaves)
        if len(ohms[v]) == 1:  # not stranded by its neighbour going first
            (a,) = ohms.pop(v)
            del ohms[a][v]
            if len(ohms[a]) == 1 and a not in keep:
                heappush(leaves, a)
    with localcontext(DECIMAL):
        adjacent: dict[str, dict[str, Decimal]] = {}
        for v, nbrs in ohms.items():
            adjacent[v] = {a: adjacent[a][v] if a in adjacent else sum(1 / Decimal(r) for r in rs)
                           for a, rs in nbrs.items()}
        heap = sorted((len(nbrs), v) for v, nbrs in adjacent.items() if v not in keep)
        while heap:
            degree, v = heappop(heap)
            if not degree or len(adjacent.get(v, ())) != degree:
                continue  # stranded, removed, or a stale entry
            nbrs = adjacent.pop(v)
            total = sum(nbrs.values())
            for a in nbrs:
                del adjacent[a][v]
            for a, b in combinations(nbrs, 2):
                g = adjacent[a].get(b, _ZERO) + nbrs[a] * nbrs[b] / total
                adjacent[a][b] = adjacent[b][a] = g
            for a in nbrs:
                if a not in keep:
                    heappush(heap, (len(adjacent[a]), a))
        elements = [Resistor(f"{a}~{b}", a, b, 1 / g)
                    for a, nbrs in adjacent.items() for b, g in nbrs.items() if a < b]
    elements += (Resistor(f"{a}~", a, a, math.inf) for a, nbrs in adjacent.items() if not nbrs)
    views[key] = Circuit(others + tuple(elements))
    return views[key]
