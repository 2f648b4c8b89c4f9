"""Signal-flow-graph engine.

Graphs hold one node per signal variable and one weighted directed edge per
linear dependence.  Two routes compute the transmission gain src -> dst.

Enumeration (``mason_terms``, ``mason_gain``) lists simple loops and simple
forward paths in a deterministic order, computes the graph determinant over
all mutually non-touching loop combinations ("non-touching" means
node-disjoint), and evaluates Mason's gain formula

    gain(src -> dst) = sum_k P_k * D_k / D

where P_k are forward-path gains, D the determinant and D_k the determinant
of the graph with the k-th path's nodes deleted.  Loops and paths come from
one depth-first walk, exponential in general, so each count is bounded by
the fixed ``DEFAULT_CAP``; exceeding it raises LimitExceeded rather than
truncating silently.  The case-1 and case-2 graphs of ``crosscheck.mason_rx``
use it, and the tests use it as the oracle for the second route.

Node elimination (``elimination_gain``) applies the reduction rules of
Mason, "Feedback theory -- further properties of signal flow graphs"
(Proc. IRE 44(7), 1956): a self-loop L on a node is absorbed by dividing
its in-edges by 1 - L, and the node is then removed by splicing every
in-edge to every out-edge.  It costs O(n^3) at worst and has no cap, so
``crosscheck.mason_driving_point_impedance`` (``impedance --all-engines``
on general netlists) uses it.  It is plain dict arithmetic, independent of
the nodal solver's elimination.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import attrgetter


DEFAULT_CAP = 10_000


class MultipleDefinitions(Exception):
    pass


class LimitExceeded(Exception):
    pass


class ZeroDeterminant(Exception):
    pass


@dataclass(frozen=True)
class Loop:
    nodes: tuple[str, ...]  # rotated so the smallest node comes first
    gain: float

    def touches(self, other: "Loop") -> bool:
        return bool(set(self.nodes) & set(other.nodes))


@dataclass(frozen=True)
class Path:
    nodes: tuple[str, ...]
    gain: float


@dataclass(frozen=True)
class MasonTerms:
    forward_paths: tuple[Path, ...]
    loops: tuple[Loop, ...]
    determinant: float
    cofactors: tuple[float, ...]
    determinant_scale: float  # sum of |term| over the determinant's expansion

    @property
    def gain(self) -> float:
        total = sum(p.gain * d for p, d in zip(self.forward_paths, self.cofactors))
        return total / self.determinant


class FlowGraph:
    """Directed weighted graph held as a successor map: every node, then
    each node's successors with their edge gains, both in name order.
    Parallel edges are summed; ``nodes`` may add nodes that no edge touches."""

    def __init__(self, edges: Iterable[tuple[str, str, float]] = (), nodes: Iterable[str] = ()):
        succ: dict[str, dict[str, float]] = {n: {} for n in nodes}
        for u, v, gain in edges:
            if not math.isfinite(gain):
                raise ValueError(f"edge {u}->{v} gain must be finite")
            outs = succ.setdefault(u, {})
            succ.setdefault(v, {})
            outs[v] = outs.get(v, 0.0) + gain
        self._succ = {u: dict(sorted(succ[u].items())) for u in sorted(succ)}

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(self._succ)

    @property
    def edges(self) -> tuple[tuple[str, str, float], ...]:
        return tuple((u, v, g) for u, outs in self._succ.items() for v, g in outs.items())

    def gain(self, u: str, v: str) -> float:
        return self._succ.get(u, {}).get(v, 0.0)

    def adjacency(self) -> dict[str, dict[str, float]]:
        """A copy of the successor map."""
        return {u: dict(outs) for u, outs in self._succ.items()}


def from_linear_system(
    equations: "list[tuple[str, list[tuple[float, str]]]]",
) -> FlowGraph:
    """Build the graph of a causal linear system.

    Each entry ``(y, [(c1, x1), (c2, x2), ...])`` states y = c1*x1 + c2*x2 + ...
    and contributes an edge of weight c from every x to y.  A variable may be
    defined by at most one equation; source variables are defined by none.
    """
    defined: set[str] = set()
    for lhs, _ in equations:
        if lhs in defined:
            raise MultipleDefinitions(f"variable {lhs!r} defined more than once")
        defined.add(lhs)
    return FlowGraph([(var, lhs, coef) for lhs, terms in equations for coef, var in terms],
                     defined)


def _walks(adjacency: dict[str, dict[str, float]], ends: list[tuple[str, str, str]],
           make: type, what: str) -> list:
    """``make(nodes, gain)`` of each simple walk start -> target through nodes
    not before floor in name order, for each (start, target, floor) of
    ``ends``.  A loop (target == start) lists its nodes once, a path up to
    its target; past ``DEFAULT_CAP`` of them it raises LimitExceeded."""
    found: list = []

    def walk(node: str, path: list[str], gain: float, visited: set[str]):
        for nbr, edge_gain in adjacency[node].items():
            if nbr == target:
                if len(found) >= DEFAULT_CAP:
                    raise LimitExceeded(f"more than {DEFAULT_CAP} {what}; use elimination_gain")
                found.append(make(tuple(path) + closing, gain * edge_gain))
            elif nbr >= floor and nbr not in visited:
                visited.add(nbr)
                path.append(nbr)
                walk(nbr, path, gain * edge_gain, visited)
                path.pop()
                visited.remove(nbr)

    for start, target, floor in ends:
        closing = () if target == start else (target,)
        walk(start, [start], 1.0, {start})
    found.sort(key=attrgetter("nodes"))
    return found


def enumerate_loops(graph: FlowGraph) -> list[Loop]:
    """All simple directed cycles, each reported once, rotated to start at
    its smallest node, ordered lexicographically."""
    return _walks(graph._succ, [(n, n, n) for n in graph._succ], Loop, "loops")


def enumerate_forward_paths(graph: FlowGraph, src: str, dst: str) -> list[Path]:
    """All simple paths src -> dst with gains, in lexicographic order."""
    if src == dst:
        raise ValueError("src and dst must differ")
    succ = graph._succ
    return _walks(succ, [(src, dst, "")] if src in succ else [], Path, "forward paths")


def _nontouching_expansion(loops: list[Loop]) -> tuple[float, float]:
    """1 - sum L_i + sum L_i*L_j - ... over mutually node-disjoint loop sets,
    and the sum of the magnitudes of those terms."""
    node_sets = [frozenset(l.nodes) for l in loops]
    total = scale = 1.0

    def extend(next_index: int, gain: float, used: frozenset[str], sign: float):
        nonlocal total, scale
        for j in range(next_index, len(loops)):
            if node_sets[j] & used:
                continue
            combined = gain * loops[j].gain
            total += sign * combined
            scale += abs(combined)
            extend(j + 1, combined, used | node_sets[j], -sign)

    extend(0, 1.0, frozenset(), -1.0)
    return total, scale


def graph_determinant(graph: FlowGraph) -> float:
    return _nontouching_expansion(enumerate_loops(graph))[0]


def mason_terms(graph: FlowGraph, src: str, dst: str) -> MasonTerms:
    """Forward paths, loops, determinant and per-path cofactors for src->dst."""
    paths = enumerate_forward_paths(graph, src, dst)
    loops = enumerate_loops(graph)
    determinant, scale = _nontouching_expansion(loops)
    cofactors = []
    for path in paths:
        path_nodes = set(path.nodes)
        untouched = [l for l in loops if path_nodes.isdisjoint(l.nodes)]
        cofactors.append(_nontouching_expansion(untouched)[0])
    return MasonTerms(tuple(paths), tuple(loops), determinant, tuple(cofactors), scale)


# A pivot 1 - L, or a determinant, this small relative to the magnitude of
# the terms it was summed from is rounding residue, that is zero.
_PIVOT_RTOL = 1e-12


def mason_gain(graph: FlowGraph, src: str, dst: str) -> float:
    """Transmission src -> dst by Mason's formula; a determinant that is
    rounding residue raises ZeroDeterminant."""
    terms = mason_terms(graph, src, dst)
    if abs(terms.determinant) <= _PIVOT_RTOL * terms.determinant_scale:
        raise ZeroDeterminant("graph determinant is zero to rounding")
    return terms.gain


def elimination_gain(graph: FlowGraph, src: str, dst: str) -> float:
    """Transmission src -> dst by node elimination; equals ``mason_gain``.

    A fresh source feeds ``src`` and ``dst`` feeds a fresh sink, both by unit
    edges; every other node is eliminated, and the gain is what is left on
    the source -> sink edge.  The next node is the one with the fewest
    in-edge x out-edge splices, ties going to the largest |1 - L| and then
    to the name.  A node whose 1 - L is zero waits, since later splices
    may change its self-loop; ZeroDeterminant is raised once every
    remaining node has a zero 1 - L.

    Each node's rank is kept, in a heap that skips superseded entries, and
    recomputed only for the predecessors and successors of the node just
    eliminated: a splice changes the edges of those nodes alone, so every
    other rank, and hence the pivot order, is the same as when all
    remaining nodes are ranked afresh at every step.
    """
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

    def rank(v):
        """(splices, -|1 - L|, name), or None while 1 - L is zero."""
        outs = succ[v]
        loop = outs.get(v, 0.0)
        if abs(1.0 - loop) <= _PIVOT_RTOL * max(1.0, abs(loop)):
            return None
        looped = v in outs
        return (len(pred[v]) - looped) * (len(outs) - looped), -abs(1.0 - loop), v

    ranks = {v: rank(v) for v in set(succ) - {source, sink}}
    heap = sorted(filter(None, ranks.values()))  # a sorted list is a heap
    while ranks:
        if not heap:
            raise ZeroDeterminant("every remaining node has a zero 1 - L")
        best = heappop(heap)
        v = best[2]
        if ranks.get(v) != best:
            continue  # stale: v is gone or was ranked again
        del ranks[v]
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
        for w in (ins.keys() | outs.keys()) & ranks.keys():
            ranks[w] = rank(w)
            if ranks[w]:
                heappush(heap, ranks[w])
    return succ[source].get(sink, 0.0)
