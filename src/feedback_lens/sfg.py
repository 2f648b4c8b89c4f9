"""Signal-flow-graph engine.

A graph is a successor map ``{u: {v: gain}}``, built by
``from_linear_system`` with one node per signal variable and one weighted
directed edge per linear dependence.  Two routes compute the transmission
gain src -> dst.

Enumeration (``mason_terms``, ``mason_gain``) lists simple loops and simple
forward paths in a deterministic order, computes the graph determinant over
all mutually non-touching loop combinations ("non-touching" means
node-disjoint), and evaluates Mason's gain formula

    gain(src -> dst) = sum_k P_k * D_k / D

where P_k are forward-path gains, D the determinant and D_k the determinant
of the graph with the k-th path's nodes deleted.  Loops and paths come from
one depth-first walk, exponential in general, so each count is bounded by
the fixed ``DEFAULT_CAP``; exceeding it raises LimitExceeded rather than
truncating silently.  Loops, paths and non-touching loop sets depend only
on which edges the graph has, so they are found once per graph shape and
kept; a call multiplies only its own gains, in the order a fresh walk would.
The case graphs of ``crosscheck.mason_rx`` (one shape each at every
parameter point) use it, and the tests use it as the second route's oracle.

Node elimination (``elimination_gain``) applies the reduction rules of
Mason, "Feedback theory -- further properties of signal flow graphs"
(Proc. IRE 44(7), 1956): a self-loop L on a node is absorbed by dividing
its in-edges by 1 - L, and the node is then removed by splicing every
in-edge to every out-edge.  At each step every remaining node is ranked
and the one with the fewest splices goes.  It costs O(n^3) at worst and
has no cap, so ``crosscheck.mason_driving_point_impedance`` (``impedance
--all-engines`` on general netlists) uses it, on the flow graph of a
port-reduced circuit, which has a few nodes.  It is plain dict arithmetic,
independent of the nodal solver's elimination.
"""

from __future__ import annotations

import functools
import math

# Every node, each with the gain of each of its out-edges.  A loop or a
# forward path is a (nodes, gain) tuple.
Graph = dict[str, dict[str, float]]

DEFAULT_CAP = 10_000


class MultipleDefinitions(Exception):
    pass


class LimitExceeded(Exception):
    pass


class ZeroDeterminant(Exception):
    pass


def from_linear_system(
    equations: "list[tuple[str, list[tuple[float, str]]]]",
) -> Graph:
    """Build the graph of a causal linear system.

    Each entry ``(y, [(c1, x1), (c2, x2), ...])`` states y = c1*x1 + c2*x2 + ...
    and contributes an edge of weight c from every x to y; parallel terms
    are summed, and every gain must be finite.  A variable may be defined by
    at most one equation; source variables are defined by none.
    """
    graph: Graph = {}
    for lhs, _ in equations:
        if lhs in graph:
            raise MultipleDefinitions(f"variable {lhs!r} defined more than once")
        graph[lhs] = {}
    for lhs, terms in equations:
        for coef, var in terms:
            if not math.isfinite(coef):
                raise ValueError(f"edge {var}->{lhs} gain must be finite")
            outs = graph.setdefault(var, {})
            outs[lhs] = outs.get(lhs, 0.0) + coef
    return graph


def _walks(graph: Graph, ends: list[tuple[str, str, str]], what: str) -> list:
    """``(nodes, gain)`` of each simple walk start -> target through nodes
    not before floor in name order, for each (start, target, floor) of
    ``ends``, sorted by nodes.  A loop (target == start) lists its nodes
    once, a path up to its target; past ``DEFAULT_CAP`` of them it raises
    LimitExceeded."""
    found: list = []

    def walk(node: str, path: list[str], gain: float, visited: set[str]):
        for nbr, edge_gain in graph[node].items():
            if nbr == target:
                if len(found) >= DEFAULT_CAP:
                    raise LimitExceeded(f"more than {DEFAULT_CAP} {what}; use elimination_gain")
                found.append((tuple(path) + closing, gain * edge_gain))
            elif nbr >= floor and nbr not in visited:
                visited.add(nbr)
                path.append(nbr)
                walk(nbr, path, gain * edge_gain, visited)
                path.pop()
                visited.remove(nbr)

    for start, target, floor in ends:
        closing = () if target == start else (target,)
        walk(start, [start], 1.0, {start})
    found.sort()  # no two walks share their nodes, so gains are never compared
    return found


def enumerate_loops(graph: Graph) -> list[tuple[tuple[str, ...], float]]:
    """All simple directed cycles, each reported once, rotated to start at
    its smallest node, ordered lexicographically."""
    return _walks(graph, [(n, n, n) for n in graph], "loops")


def enumerate_forward_paths(graph: Graph, src: str,
                            dst: str) -> list[tuple[tuple[str, ...], float]]:
    """All simple paths src -> dst with gains, in lexicographic order."""
    if src == dst:
        raise ValueError("src and dst must differ")
    return _walks(graph, [(src, dst, "")] if src in graph else [], "forward paths")


@functools.lru_cache
def _plan(shape: tuple, src: str | None, dst: str | None, cap: int) -> tuple:
    """Mason's formula for src -> dst on any graph of ``shape`` (its nodes,
    and each node's successors, in order): ``(loops, paths, terms)``, each
    loop and path as its edges' indices in walk order (edges numbered as
    ``shape`` lists them), each path with its cofactor's terms.  A term is
    a non-touching loop set, depth-first, as ``(parent, loop, sign)``: its
    product is its parent's (term 0 is 1) times the loop's gain.  No paths
    for src None; ``cap`` only keys the cache, as the walks read
    ``DEFAULT_CAP``, and what they raise is not cached."""
    graph = {u: dict.fromkeys(outs, 1.0) for u, outs in zip(*shape)}
    index = {edge: i for i, edge in enumerate((u, v) for u in graph for v in graph[u])}
    paths = [] if src is None else [nodes for nodes, _ in enumerate_forward_paths(graph, src, dst)]
    loops = [nodes for nodes, _ in enumerate_loops(graph)]
    node_sets = [frozenset(nodes) for nodes in loops]

    def edges(walk: tuple[str, ...]) -> tuple[int, ...]:
        return tuple(map(index.__getitem__, zip(walk, walk[1:])))

    def expansion(among) -> tuple:
        terms = []

        def extend(start: int, parent: int, used: frozenset[str], sign: float):
            for k in range(start, len(among)):
                if not node_sets[j := among[k]] & used:
                    terms.append((parent, j, sign))
                    extend(k + 1, len(terms), used | node_sets[j], -sign)

        extend(0, 0, frozenset(), -1.0)
        return tuple(terms)

    return (tuple(edges(nodes + nodes[:1]) for nodes in loops),
            tuple((edges(nodes), expansion([j for j, s in enumerate(node_sets)
                                            if s.isdisjoint(nodes)])) for nodes in paths),
            expansion(range(len(loops))))


def _expand(terms: tuple, gains: list[float]) -> tuple[float, float]:
    """1 - sum L_i + sum L_i*L_j - ... over the terms of a plan, and the sum
    of the magnitudes of those terms."""
    products = [1.0]
    total = scale = 1.0
    for parent, loop, sign in terms:
        products.append(product := products[parent] * gains[loop])
        total += sign * product
        scale += abs(product)
    return total, scale


def _evaluate(graph: Graph, src: str | None, dst: str | None) -> tuple[float, float, float]:
    shape = tuple(graph), tuple(map(tuple, graph.values()))
    loops, paths, terms = _plan(shape, src, dst, DEFAULT_CAP)
    gain = [g for outs in graph.values() for g in outs.values()].__getitem__
    loop_gains = [math.prod(map(gain, loop)) for loop in loops]
    numerator = sum([math.prod(map(gain, path)) * _expand(cofactor, loop_gains)[0]
                     for path, cofactor in paths])
    return (numerator, *_expand(terms, loop_gains))


def graph_determinant(graph: Graph) -> float:
    return _evaluate(graph, None, None)[1]


def mason_terms(graph: Graph, src: str, dst: str) -> tuple[float, float, float]:
    """``(numerator, determinant, determinant_scale)`` of Mason's formula
    for src -> dst: the sum of each forward path's gain times its cofactor,
    the graph determinant, and the sum of the magnitudes of the
    determinant's terms.  Only the gains are multiplied per call, on the
    structure ``_plan`` finds once per graph shape."""
    return _evaluate(graph, src, dst)


# A pivot 1 - L, or a determinant, this small relative to the magnitude of
# the terms it was summed from is rounding residue, that is zero.
_PIVOT_RTOL = 1e-12


def mason_gain(graph: Graph, src: str, dst: str) -> float:
    """Transmission src -> dst by Mason's formula; a determinant that is
    rounding residue raises ZeroDeterminant."""
    numerator, determinant, scale = mason_terms(graph, src, dst)
    if abs(determinant) <= _PIVOT_RTOL * scale:
        raise ZeroDeterminant("graph determinant is zero to rounding")
    return numerator / determinant


def elimination_gain(graph: Graph, src: str, dst: str) -> float:
    """Transmission src -> dst by node elimination; equals ``mason_gain``.

    A fresh source feeds ``src`` and ``dst`` feeds a fresh sink, both by unit
    edges; every other node is eliminated, and the gain is what is left on
    the source -> sink edge.  The next node is the one with the fewest
    in-edge x out-edge splices, ties going to the largest |1 - L| and then
    to the name.  A node whose 1 - L is zero waits, since later splices
    may change its self-loop; ZeroDeterminant is raised once every
    remaining node has a zero 1 - L.

    Every remaining node is ranked afresh at each step.  The work is done
    on a copy, so ``graph`` is left as it was.
    """
    if src == dst:
        raise ValueError("src and dst must differ")
    source, sink = object(), object()
    succ: dict = {u: dict(outs) for u, outs in graph.items()}
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

    remaining = set(succ) - {source, sink}
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
