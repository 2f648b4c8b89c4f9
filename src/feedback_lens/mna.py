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

_ZERO = Decimal(0)


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


def _couple(a: list[dict[int, Decimal]], p: int, n: int, cp: int, cn: int, g: Decimal):
    """Add the current g * (v[cp] - v[cn]) leaving row p and entering row n
    to the rows ``a`` in place; none for p == n or cp == cn, whose stamps
    would cancel only to rounding."""
    if p != n and cp != cn:
        m, rp, rn = -g, a[p], a[n]
        rp[cp] = rp.get(cp, _ZERO) + g
        rp[cn] = rp.get(cn, _ZERO) + m
        rn[cp] = rn.get(cp, _ZERO) + m
        rn[cn] = rn.get(cn, _ZERO) + g


def assemble(lc: Circuit) -> MnaSystem:
    """Stamp the standard MNA matrix for a circuit of primitives, reading
    each element's type once and writing its entries in place; a resistor
    stamps its ``conductance``.  Any other element raises ``TypeError``."""
    nodes = tuple(sorted(lc.nodes - {GROUND}))
    branches = tuple(e.name for e in lc.elements if type(e) in (VSource, Vcvs))
    dim = len(nodes) + len(branches)
    # Ground takes the spare index dim; its row and column are dropped below.
    row = {n: i for i, n in enumerate(nodes)} | {GROUND: dim}
    a: list[dict[int, Decimal]] = [{} for _ in range(dim + 1)]
    b = [_ZERO] * (dim + 1)
    k = len(nodes)  # the row of the next branch current
    with localcontext(DECIMAL):
        one = Decimal(1)
        for e in lc.elements:
            kind = type(e)
            if kind is Resistor:
                p, n = row[e.n1], row[e.n2]
                _couple(a, p, n, p, n, conductance(e.ohms))
            elif kind is Vccs:
                _couple(a, row[e.n1], row[e.n2], row[e.cp], row[e.cn], Decimal(e.gm))
            elif kind is ISource:
                # e.amps flows n1 -> n2 through the source.
                b[row[e.n1]] -= Decimal(e.amps)
                b[row[e.n2]] += Decimal(e.amps)
            elif kind is VSource or kind is Vcvs:
                # Branch current k flows n1 -> n2 through it.
                p, n = row[e.n1], row[e.n2]
                _couple(a, p, n, k, dim, one)
                _couple(a, k, dim, p, n, one)
                if kind is VSource:
                    b[k] = Decimal(e.volts)
                else:
                    _couple(a, k, dim, row[e.cp], row[e.cn], -Decimal(e.gain))
                k += 1
            else:
                raise TypeError(f"cannot stamp element {e!r}")

    rows = tuple({j: v for j, v in r.items() if v and j != dim} for r in a[:dim])
    names = tuple(f"V({n})" for n in nodes) + tuple(f"I({k})" for k in branches)
    return MnaSystem(rows, tuple(b[:dim]), names)


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
    graph whose edges are the elements that ``moves_current``."""
    paths = ((e.n1, e.n2) for e in lc.elements if moves_current(e))
    return port[1] not in reachable(port[0], paths)


def probe(lc: Circuit, port: tuple[str, str]) -> tuple[MnaSystem, bool]:
    """``(probed_system(view, port), port_is_open(view, port))`` for ``view =
    seen_at(lc, port)``, the one probe both impedance routes read.  The view
    keeps the pair by the ordered port, so the second route at a port
    stamps nothing and searches nothing.  A bad port raises as in
    ``require_port``."""
    view = seen_at(lc, port)
    probes = vars(view).setdefault("_probes", {})
    if (key := tuple(port)) not in probes:
        probes[key] = probed_system(view, port), port_is_open(view, port)
    return probes[key]


def impedance_from_current(delivered: float, is_open: bool) -> float:
    """Impedance of a port from the current a unit test voltage delivers
    into it.  A port that is open (``port_is_open``), or that draws exactly
    no current, reads ``math.inf``.  Openness is decided from the circuit's
    structure because an open port's solved current is rounding residue,
    which no threshold tells apart from the current of a real port of high
    impedance beside a large conductance."""
    if delivered == 0.0 or is_open:
        return math.inf
    return 1.0 / delivered


def driving_point_impedance(lc: Circuit, port: tuple[str, str]) -> float:
    """Impedance seen into ``port`` with all independent sources zeroed:
    the current that ``solve`` finds the test source delivering in the
    system of ``probe(lc, port)``, which the flow-graph route at the same
    port shares.  Only that last unknown is read, but through ``solve``, so
    that the benchmark's trace of ``solve`` sees every nodal solve.  A bad
    port raises as in ``require_port``."""
    system, is_open = probe(lc, port)
    return impedance_from_current(-solve(system)[TEST_CURRENT], is_open)


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
