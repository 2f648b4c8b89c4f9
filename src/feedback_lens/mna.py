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

The stamp slots of each circuit shape, and the openness of each port on
each set of current paths, are worked out once and kept; only the values
are converted, and stamped into the kept slots, per call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from decimal import Context, Decimal, localcontext
from heapq import heappop, heappush
from itertools import combinations
from operator import add, sub

from .netlist import GROUND, Circuit, ISource, Resistor, Vccs, Vcvs, VSource, reachable


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

_ZERO, _ONE = Decimal(0), Decimal(1)


@dataclass(frozen=True)
class MnaSystem:
    """``rows[i]`` maps column to entry for the non-zero entries of row i,
    and ``names[i]`` names unknown i: ``V(node)``, then ``I(branch)``."""

    rows: tuple[dict[int, Decimal], ...]
    rhs: tuple[Decimal, ...]
    names: tuple[str, ...]

    @property
    def dimension(self) -> int:
        return len(self.rows)


def conductance(ohms) -> Decimal:
    """``1 / Decimal(ohms)``, correctly rounded in the ambient context.  A
    finite float takes one division of its integer ratio, which rounds the
    same exact quotient to the same ``Decimal``; an infinite or a
    ``Decimal`` resistance is converted first."""
    if type(ohms) is float and math.isfinite(ohms):
        n, d = ohms.as_integer_ratio()
        return Decimal(d) / n
    return 1 / Decimal(ohms)


@functools.lru_cache
def _plan(shape: tuple) -> tuple:
    """Where the stamps of a circuit of ``shape`` land, each element given
    as ``(type, terminals, name)`` with the name None unless it names a
    branch current: ``MnaSystem.names``, each row's ``(column, slot)`` pairs
    in first-add order, the ``(slot, term)`` matrix adds, a slot numbered by
    the add that opens it, and the ``(row, op, term)`` right-hand side
    writes, ``op(b[row], term)`` or for op None the term, in stamping order.
    The terms are 1, -1, then each element's value and its negation;
    ground's row and column get no slot."""
    nodes = sorted({t for _, terminals, _ in shape for t in terminals} - {GROUND})
    branches = [name for _, _, name in shape if name is not None]
    dim = len(nodes) + len(branches)
    row = {n: i for i, n in enumerate(nodes)} | {GROUND: dim}
    slots, adds, rhs = [{} for _ in range(dim)], [], []  # slots[row][column]

    def couple(p, n, cp, cn, g):
        # g * (v[cp] - v[cn]) leaves row p and enters row n; none for p == n
        # or cp == cn, whose stamps would cancel only to rounding
        if p != n and cp != cn:
            for r, c, term in ((p, cp, g), (p, cn, g + 1), (n, cp, g + 1), (n, cn, g)):
                if dim not in (r, c):
                    adds.append((slots[r].setdefault(c, len(adds)), term))

    k = len(nodes)  # the row of the next branch current
    for i, (kind, terminals, _) in enumerate(shape):
        g, (p, n, *control) = 2 * i + 2, map(row.get, terminals)
        if kind is Resistor:
            couple(p, n, p, n, g)
        elif kind is Vccs:
            couple(p, n, *control, g)
        elif kind is ISource:
            # the current flows n1 -> n2 through the source
            rhs += (p, sub, g), (n, add, g)
        else:
            # branch current k flows n1 -> n2 through the voltage source
            couple(p, n, k, dim, 0)
            couple(k, dim, p, n, 0)
            if kind is VSource:
                rhs.append((k, None, g))
            else:
                couple(k, dim, *control, g)
            k += 1
    names = tuple(f"V({n})" for n in nodes) + tuple(f"I({b})" for b in branches)
    return (names, tuple(tuple(r.items()) for r in slots), tuple(adds),
            tuple(w for w in rhs if w[0] != dim))


def assemble(lc: Circuit) -> MnaSystem:
    """Stamp the standard MNA matrix for a circuit of primitives: convert
    each element's value once, a resistor's by ``conductance``, and add it
    into the slots that ``_plan`` keeps for the circuit's shape, every
    slot summed in stamping order.  Any other element raises ``TypeError``."""
    shape, terms = [], [_ONE, -_ONE]
    with localcontext(DECIMAL):
        for e in lc.elements:
            kind = type(e)
            if kind is Resistor:
                g = conductance(e.ohms)
            elif kind is Vccs:
                g = Decimal(e.gm)
            elif kind is Vcvs:
                g = -Decimal(e.gain)
            elif kind is VSource:
                g = Decimal(e.volts)
            elif kind is ISource:
                g = Decimal(e.amps)
            else:
                raise TypeError(f"cannot stamp element {e!r}")
            terms += g, -g
            shape.append((kind, e.terminals, e.name if kind is VSource or kind is Vcvs else None))
        names, rows, adds, rhs = _plan(tuple(shape))
        sums = [_ZERO] * len(adds)
        for slot, term in adds:
            sums[slot] += terms[term]
        b = [_ZERO] * len(names)
        for r, op, term in rhs:
            b[r] = op(b[r], terms[term]) if op else terms[term]
    return MnaSystem(tuple({j: v for j, slot in r if (v := sums[slot])} for r in rows),
                     tuple(b), names)


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
            if entry and (scaled := abs(entry) / scale[i]) > ratio:
                best, ratio = i, scaled
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


def solve(system: MnaSystem) -> dict[str, float]:
    """Every unknown of ``system`` by its name, in ``system.names`` order:
    ``_eliminate``, then back substitution, then one rounding of each
    unknown to float."""
    dim = system.dimension
    with localcontext(DECIMAL):
        rows, b, pivots = _eliminate(system)
        x = [_ZERO] * dim
        for k in reversed(range(dim)):
            i, pivot = pivots[k]
            x[k] = (b[i] - sum(v * x[j] for j, v in rows[i].items())) / pivot
    return {name: float(v) for name, v in zip(system.names, x)}


# Branch of the unit test voltage that probed_system attaches across a port,
# and the name of its current among the unknowns.
TEST_SOURCE = "__dpi_test"
TEST_CURRENT = f"I({TEST_SOURCE})"


def probed_system(lc: Circuit, port: tuple[str, str]) -> MnaSystem:
    """System of ``lc`` with its independent sources zeroed (voltage sources
    shorted, current sources opened) and a unit test voltage ``TEST_SOURCE``
    across ``port``; the current that the port draws from it is minus
    the unknown ``TEST_CURRENT``, the system's last, because the test source
    is the last element and branch currents follow the node voltages.  A
    bad port raises as in ``require_port``."""
    require_port(port, lc.nodes)
    elements = [replace(e, volts=0.0) if isinstance(e, VSource) else e
                for e in lc.elements if not isinstance(e, ISource)]
    elements.append(VSource(TEST_SOURCE, port[0], port[1], 1.0))
    return assemble(Circuit(tuple(elements)))


def require_port(port: tuple[str, str], nodes) -> None:
    """Raise ``ValueError`` for a port whose two nodes are the same, else
    ``UnknownNode`` for its first node not in ``nodes``."""
    if port[0] == port[1]:
        raise ValueError(f"port nodes must differ, got {port[0]!r} twice")
    for node in port:
        if node not in nodes:
            raise UnknownNode(f"unknown node {node!r}")


def moves_current(e) -> bool:
    """Whether ``e`` can carry current once independent sources are zeroed:
    a finite resistor between two different nodes, a voltage source,
    independent or controlled, or a VCCS whose two control nodes differ.
    An infinite resistance, or a VCCS controlled by a node against itself,
    moves no current, and ``assemble`` stamps neither."""
    kind = type(e)
    return (kind is Resistor and e.n1 != e.n2 and e.ohms not in (math.inf, -math.inf)
            or kind is VSource or kind is Vcvs or kind is Vccs and e.cp != e.cn)


def port_is_open(lc: Circuit, port: tuple[str, str]) -> bool:
    """True when no current path joins the two port nodes once independent
    sources are zeroed: they lie in different connected components of the
    graph whose edges are the elements that ``moves_current``.  The answer
    is kept per tuple of those edges and port."""
    return _is_open(tuple((e.n1, e.n2) for e in lc.elements if moves_current(e)), tuple(port))


@functools.lru_cache
def _is_open(paths: tuple, port: tuple[str, str]) -> bool:
    return port[1] not in reachable(port[0], paths)


def port_impedance(lc: Circuit, port: tuple[str, str], test_current) -> float:
    """Impedance of ``port`` from ``test_current(system)``, the solved
    ``TEST_CURRENT`` of ``system = probed_system(seen_at(lc, port), port)``:
    the one port reading of both routes.  The view keeps the system and
    ``port_is_open`` by the ordered port, so a second route stamps and
    searches nothing.  An open port reads ``math.inf`` unsolved, as its
    system may be singular and its solved current rounding residue;
    otherwise the port draws ``-test_current(system)``, and exactly none
    reads ``math.inf``.  A bad port raises as in ``require_port``."""
    view = seen_at(lc, port)
    probes = vars(view).setdefault("_probes", {})
    if (key := tuple(port)) not in probes:
        probes[key] = probed_system(view, port), port_is_open(view, port)
    system, is_open = probes[key]
    if is_open:
        return math.inf
    delivered = -test_current(system)
    return math.inf if delivered == 0.0 else 1.0 / delivered


def driving_point_impedance(lc: Circuit, port: tuple[str, str]) -> float:
    """Impedance seen into ``port`` with all independent sources zeroed, by
    ``port_impedance`` from the current that ``solve`` finds the test
    source delivering.  Only that last unknown is read, but through
    ``solve``, so that the benchmark's trace of ``solve`` sees every nodal
    solve.  A bad port raises as in ``require_port``."""
    return port_impedance(lc, port, lambda system: solve(system)[TEST_CURRENT])


def seen_at(lc: Circuit, nodes) -> Circuit:
    """``lc`` as ``nodes`` see it, the only port reduction.  Ground,
    ``nodes`` and every terminal of an element other than a resistor stay,
    and those elements pass through; one pass over the elements sets them
    apart and builds the resistors' edge lists.  Each other node goes,
    fewest neighbours first: a dangling one (cascading) with no arithmetic,
    then the rest by the star-mesh transform (Kron reduction), giving each
    pair a, b of its neighbours g_a * g_b / sum(g) in ``DECIMAL``.  Only a
    surviving edge is converted (``conductance``), once, summed over its
    parallel resistors, and each equivalent keeps its ohms as that
    ``Decimal``.  A resistor's
    node left with no neighbour stays as a self-looped infinite resistor:
    a kept one reads open, and a floating island leaves a nodal solve
    ``SingularMatrix`` as in ``lc``.  With nothing to reduce it is ``lc``
    itself; else ``lc`` keeps it by the set of ``nodes``, so a second route
    at a port, either way round, reuses it.

    A circuit that carries a ``feedback_network`` made of its own elements,
    as ``smallsignal.linearize`` hands one over, is reduced in two steps,
    because a Kron reduction is a Schur complement and those compose: the
    network onto its boundary (ground and its nodes that ``nodes`` or any
    other element of ``lc`` touch), which is the view loading keeps when
    that boundary is its two sides; then that view with the other
    elements onto ``nodes``.  A network with no interior takes the one
    step."""
    views = vars(lc).setdefault("_seen_at", {})
    if (key := frozenset(nodes)) in views:
        return views[key]
    if (network := vars(lc).get("feedback_network")) and network.elements:
        inside = set(map(id, network.elements))
        rest = tuple(e for e in lc.elements if id(e) not in inside)
        touched = {GROUND, *key}.union(*(e.terminals for e in rest))
        if (view := seen_at(network, network.nodes & touched)) is not network:
            views[key] = seen_at(Circuit(rest + view.elements), key)
            return views[key]
    others, keep, edges = [], {GROUND, *key}, {GROUND: {}}
    for e in lc.elements:
        if type(e) is not Resistor:
            others.append(e)
            keep.update(e.terminals)
            continue
        one, other = edges.setdefault(e.n1, {}), edges.setdefault(e.n2, {})
        if moves_current(e):
            one.setdefault(e.n2, []).append(e.ohms)
            other[e.n1] = one[e.n2]
    if keep.issuperset(edges):
        return lc
    # in node order, which every step below keeps
    ohms: dict[str, dict[str, list]] = {n: edges[n] for n in sorted(edges)}
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
            adjacent[v] = {a: adjacent[a][v] if a in adjacent else sum(map(conductance, rs))
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
    views[key] = Circuit(tuple(others + elements))
    return views[key]
