"""Signal-flow-graph engine.

Graphs hold one node per signal variable and one weighted directed edge per
linear dependence.  Two routes compute the transmission gain src -> dst.

Enumeration (``mason_terms``, ``mason_gain``) lists simple loops and simple
forward paths in a deterministic order, computes the graph determinant over
all mutually non-touching loop combinations ("non-touching" means
node-disjoint), and evaluates Mason's gain formula

    gain(src -> dst) = sum_k P_k * D_k / D

where P_k are forward-path gains, D the determinant and D_k the determinant
of the graph with the k-th path's nodes deleted.  It is exponential in
general, so every walk is bounded by an explicit cap (default 10 000);
exceeding it raises LimitExceeded rather than truncating silently.  The
case-1 and case-2 graphs of ``crosscheck.mason_rx`` use it, and the tests
use it as the oracle for the second route.

Node elimination (``elimination_gain``) applies the reduction rules of
Mason, "Feedback theory -- further properties of signal flow graphs"
(Proc. IRE 44(7), 1956): a self-loop L on a node is absorbed by dividing
its in-edges by 1 - L, and the node is then removed by splicing every
in-edge to every out-edge.  It costs O(n^3) at worst and has no cap, so
``crosscheck.mason_driving_point_impedance`` (``impedance --all-engines``
on general netlists) uses it.  It is plain dict arithmetic, independent of
the nodal solver's LU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


DEFAULT_CAP = 10_000


class MultipleDefinitions(Exception):
    pass


class LimitExceeded(Exception):
    def __init__(self, cap: int, what: str):
        super().__init__(f"more than {cap} {what}; raise the cap to proceed")
        self.cap = cap


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

    @property
    def gain(self) -> float:
        total = sum(p.gain * d for p, d in zip(self.forward_paths, self.cofactors))
        return total / self.determinant


class FlowGraph:
    """Directed weighted graph; parallel edges are summed on insertion."""

    def __init__(self, edges: "list[tuple[str, str, float]] | None" = None):
        self._edges: dict[tuple[str, str], float] = {}
        self._extra_nodes: set[str] = set()
        for u, v, gain in edges or []:
            self.add_edge(u, v, gain)

    def add_node(self, name: str):
        self._extra_nodes.add(name)

    def add_edge(self, u: str, v: str, gain: float):
        if not math.isfinite(gain):
            raise ValueError(f"edge {u}->{v} gain must be finite")
        self._edges[(u, v)] = self._edges.get((u, v), 0.0) + gain

    @property
    def nodes(self) -> tuple[str, ...]:
        names = set(self._extra_nodes)
        for u, v in self._edges:
            names.add(u)
            names.add(v)
        return tuple(sorted(names))

    @property
    def edges(self) -> tuple[tuple[str, str, float], ...]:
        return tuple((u, v, g) for (u, v), g in sorted(self._edges.items()))

    def gain(self, u: str, v: str) -> float:
        return self._edges.get((u, v), 0.0)

    def adjacency(self) -> dict[str, dict[str, float]]:
        """Successors of every node with their edge gains, both in name order."""
        out: dict[str, dict[str, float]] = {n: {} for n in self.nodes}
        for (u, v), gain in sorted(self._edges.items()):
            out[u][v] = gain
        return out


def from_linear_system(
    equations: "list[tuple[str, list[tuple[float, str]]]]",
) -> FlowGraph:
    """Build the graph of a causal linear system.

    Each entry ``(y, [(c1, x1), (c2, x2), ...])`` states y = c1*x1 + c2*x2 + ...
    and contributes an edge of weight c from every x to y.  A variable may be
    defined by at most one equation; source variables are defined by none.
    """
    graph = FlowGraph()
    defined: set[str] = set()
    for lhs, terms in equations:
        if lhs in defined:
            raise MultipleDefinitions(f"variable {lhs!r} defined more than once")
        defined.add(lhs)
        graph.add_node(lhs)
        for coef, var in terms:
            graph.add_node(var)
            graph.add_edge(var, lhs, coef)
    return graph


def enumerate_loops(graph: FlowGraph, cap: int = DEFAULT_CAP) -> list[Loop]:
    """All simple directed cycles, each reported once, rotated to start at
    its smallest node, ordered lexicographically."""
    adjacency = graph.adjacency()
    order = {n: i for i, n in enumerate(adjacency)}
    loops: list[Loop] = []

    def walk(start: str, node: str, path: list[str], gain: float, visited: set[str]):
        for nbr, edge_gain in adjacency[node].items():
            if nbr == start:
                if len(loops) >= cap:
                    raise LimitExceeded(cap, "loops")
                loops.append(Loop(tuple(path), gain * edge_gain))
            elif order[nbr] > order[start] and nbr not in visited:
                visited.add(nbr)
                path.append(nbr)
                walk(start, nbr, path, gain * edge_gain, visited)
                path.pop()
                visited.remove(nbr)

    for start in adjacency:
        walk(start, start, [start], 1.0, {start})
    loops.sort(key=lambda l: l.nodes)
    return loops


def enumerate_forward_paths(
    graph: FlowGraph, src: str, dst: str, cap: int = DEFAULT_CAP
) -> list[Path]:
    """All simple paths src -> dst with gains, in lexicographic order."""
    if src == dst:
        raise ValueError("src and dst must differ")
    adjacency = graph.adjacency()
    paths: list[Path] = []

    def walk(node: str, path: list[str], gain: float, visited: set[str]):
        for nbr, edge_gain in adjacency[node].items():
            if nbr == dst:
                if len(paths) >= cap:
                    raise LimitExceeded(cap, "forward paths")
                paths.append(Path(tuple(path) + (dst,), gain * edge_gain))
            elif nbr not in visited:
                visited.add(nbr)
                path.append(nbr)
                walk(nbr, path, gain * edge_gain, visited)
                path.pop()
                visited.remove(nbr)

    if src in adjacency:
        walk(src, [src], 1.0, {src})
    paths.sort(key=lambda p: p.nodes)
    return paths


def _nontouching_expansion(loops: list[Loop]) -> float:
    """1 - sum L_i + sum L_i*L_j - ... over mutually node-disjoint loop sets."""
    node_sets = [frozenset(l.nodes) for l in loops]
    total = 1.0

    def extend(next_index: int, gain: float, used: frozenset[str], size: int):
        nonlocal total
        for j in range(next_index, len(loops)):
            if node_sets[j] & used:
                continue
            combined = gain * loops[j].gain
            total += -combined if (size + 1) % 2 else combined
            extend(j + 1, combined, used | node_sets[j], size + 1)

    extend(0, 1.0, frozenset(), 0)
    return total


def graph_determinant(graph: FlowGraph, cap: int = DEFAULT_CAP) -> float:
    return _nontouching_expansion(enumerate_loops(graph, cap))


def mason_terms(
    graph: FlowGraph, src: str, dst: str, cap: int = DEFAULT_CAP
) -> MasonTerms:
    """Forward paths, loops, determinant and per-path cofactors for src->dst."""
    paths = enumerate_forward_paths(graph, src, dst, cap)
    loops = enumerate_loops(graph, cap)
    determinant = _nontouching_expansion(loops)
    cofactors = []
    for path in paths:
        path_nodes = set(path.nodes)
        untouched = [l for l in loops if not set(l.nodes) & path_nodes]
        cofactors.append(_nontouching_expansion(untouched))
    return MasonTerms(tuple(paths), tuple(loops), determinant, tuple(cofactors))


def mason_gain(graph: FlowGraph, src: str, dst: str, cap: int = DEFAULT_CAP) -> float:
    terms = mason_terms(graph, src, dst, cap)
    if terms.determinant == 0.0:
        raise ZeroDeterminant("graph determinant is zero")
    return terms.gain


# 1 - L below this, relative to max(1, |L|), is a zero pivot.
_PIVOT_RTOL = 1e-12


def elimination_gain(graph: FlowGraph, src: str, dst: str) -> float:
    """Transmission src -> dst by node elimination; equals ``mason_gain``.

    A fresh source feeds ``src`` and ``dst`` feeds a fresh sink, both by unit
    edges; every other node is eliminated, and the gain is what is left on
    the source -> sink edge.  The next node is the one with the fewest
    in-edge x out-edge splices, ties going to the largest |1 - L| and then
    to the name.  A node whose 1 - L is zero waits, since later splices
    may change its self-loop; ZeroDeterminant is raised once every
    remaining node has a zero 1 - L.
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
    remaining = set(succ) - {source, sink}

    def rank(v):
        """(splices, -|1 - L|, name), or None while 1 - L is zero."""
        outs = succ[v]
        loop = outs.get(v, 0.0)
        if abs(1.0 - loop) <= _PIVOT_RTOL * max(1.0, abs(loop)):
            return None
        looped = v in outs
        return (len(pred[v]) - looped) * (len(outs) - looped), -abs(1.0 - loop), v

    while remaining:
        ranks = [r for r in map(rank, remaining) if r]
        if not ranks:
            raise ZeroDeterminant("every remaining node has a zero 1 - L")
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


def parse_edge_list(text: str) -> FlowGraph:
    """Read the ``from to gain`` one-edge-per-line exchange format."""
    graph = FlowGraph()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        tokens = stripped.split()
        if len(tokens) != 3:
            raise ValueError(f"line {lineno}: expected 'from to gain'")
        graph.add_edge(tokens[0], tokens[1], float(tokens[2]))
    return graph


def format_edge_list(graph: FlowGraph) -> str:
    lines = [f"{u} {v} {g!r}" for u, v, g in graph.edges]
    return "\n".join(lines) + "\n"
