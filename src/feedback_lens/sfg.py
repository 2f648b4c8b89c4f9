"""Signal-flow-graph engine.

Graphs hold one node per signal variable and one weighted directed edge per
linear dependence.  The engine enumerates simple loops and simple forward
paths in a deterministic order, computes the graph determinant over all
mutually non-touching loop combinations ("non-touching" means node-disjoint),
and evaluates the transmission gain

    gain(src -> dst) = sum_k P_k * D_k / D

where P_k are forward-path gains, D the determinant and D_k the determinant
of the graph with the k-th path's nodes deleted.

Enumeration is exponential in general, so every walk is bounded by an
explicit cap (default 10 000); exceeding it raises LimitExceeded rather than
truncating silently.
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

    def successors(self, u: str) -> tuple[tuple[str, float], ...]:
        out = [(v, g) for (a, v), g in self._edges.items() if a == u]
        return tuple(sorted(out))


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
    nodes = graph.nodes
    order = {n: i for i, n in enumerate(nodes)}
    adjacency = {n: graph.successors(n) for n in nodes}
    loops: list[Loop] = []

    def walk(start: str, node: str, path: list[str], gain: float, visited: set[str]):
        for nbr, edge_gain in adjacency[node]:
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

    for start in nodes:
        walk(start, start, [start], 1.0, {start})
    loops.sort(key=lambda l: l.nodes)
    return loops


def enumerate_forward_paths(
    graph: FlowGraph, src: str, dst: str, cap: int = DEFAULT_CAP
) -> list[Path]:
    """All simple paths src -> dst with gains, in lexicographic order."""
    if src == dst:
        raise ValueError("src and dst must differ")
    nodes = graph.nodes
    adjacency = {n: graph.successors(n) for n in nodes}
    paths: list[Path] = []

    def walk(node: str, path: list[str], gain: float, visited: set[str]):
        for nbr, edge_gain in adjacency.get(node, ()):
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
