"""sfg.elimination_gain, the node-elimination route, against enumeration
(mason_gain), a direct solve and the nodal solver."""

import contextlib
import copy
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from feedback_lens import crosscheck as cc, mna, sfg
from feedback_lens.netlist import GROUND

from support import (flow_graph, random_causal_system, random_resistor_mesh,
                     reference_elimination_gain)

NODES = ("a", "b", "c", "d", "e", "f")


@st.composite
def graphs(draw):
    """A graph on up to six nodes, self-loops allowed, small enough for
    enumeration, with two distinct endpoints that may have in- and
    out-edges of their own."""
    nodes = NODES[: draw(st.integers(2, len(NODES)))]
    node = st.sampled_from(nodes)
    gain = st.floats(0.05, 0.95).flatmap(lambda x: st.sampled_from((x, -x)))
    edges = draw(st.lists(st.tuples(node, node, gain), min_size=1, max_size=12))
    src, dst = draw(st.permutations(nodes))[:2]
    return flow_graph(edges), src, dst


def agree(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-12)


@given(graphs())
def test_elimination_matches_enumeration(case):
    graph, src, dst = case
    numerator, determinant, _ = sfg.mason_terms(graph, src, dst)
    # a determinant near zero leaves both routes at the mercy of cancellation
    assume(abs(determinant) >= 1e-2)
    assert agree(sfg.elimination_gain(graph, src, dst), numerator / determinant, 1e-9)


@given(graphs())
def test_elimination_leaves_the_graph_unchanged(case):
    graph, src, dst = case
    before = copy.deepcopy(graph)
    with contextlib.suppress(sfg.ZeroDeterminant):
        sfg.elimination_gain(graph, src, dst)
    assert graph == before


def test_elimination_matches_direct_solve_on_random_systems():
    rng = np.random.default_rng(4004)
    for _ in range(200):
        equations, variables, x = random_causal_system(rng)
        graph = sfg.from_linear_system(equations)
        for variable, expected in zip(variables, x):
            assert agree(sfg.elimination_gain(graph, "src", variable), expected, 1e-9)


def test_zero_pivot_waits_for_later_splices():
    # x's own loop is 1 (1 - L = 0) until eliminating y adds 0.5 to it
    g = WAITING_GRAPH
    assert sfg.elimination_gain(g, "s", "d") == pytest.approx(-2.0, rel=1e-15)
    assert sfg.mason_gain(g, "s", "d") == pytest.approx(-2.0, rel=1e-15)


WAITING_GRAPH = flow_graph([("s", "x", 1.0), ("x", "x", 1.0), ("x", "y", 1.0),
                               ("y", "x", 0.5), ("x", "d", 1.0)])


def zero_pivot_graph(loop=1.0):
    # both x and z keep 1 - L = 0 (relative to L) however the others go
    return flow_graph([("s", "x", 2.0), ("x", "x", loop), ("x", "d", 1.0),
                          ("z", "z", 1.0), ("d", "z", 1.0)])


@pytest.mark.parametrize("loop", [1.0, 1.0 + 1e-14])
def test_all_zero_pivots_raise(loop):
    g = zero_pivot_graph(loop)
    with pytest.raises(sfg.ZeroDeterminant):
        sfg.elimination_gain(g, "s", "d")


@st.composite
def graphs_with_unit_loops(draw):
    """A graph on up to twelve nodes with one to four edges per node, whose
    gains include exact 1s, so that self loops with 1 - L = 0 make nodes
    wait and can leave only zero pivots.  Dense enough that a splice often
    changes which node ranks first."""
    n = draw(st.integers(2, 12))
    nodes = [f"v{i}" for i in range(n)]
    node = st.sampled_from(nodes)
    gain = st.one_of(st.sampled_from((1.0, -1.0, 0.5, 2.0)), st.floats(-2.0, 2.0))
    edges = draw(st.lists(st.tuples(node, node, gain), min_size=n, max_size=4 * n))
    src, dst = draw(st.permutations(nodes))[:2]
    return flow_graph(edges), src, dst


@given(graphs_with_unit_loops())
@example((WAITING_GRAPH, "s", "d"))
@example((zero_pivot_graph(), "s", "d"))
def test_elimination_equals_the_rerank_everything_reference(case):
    # same pivots, same arithmetic: equal to the bit (repr tells -0.0 and nan)
    def outcome(route):
        try:
            return repr(route(*case))
        except sfg.ZeroDeterminant:
            return "ZeroDeterminant"

    assert outcome(sfg.elimination_gain) == outcome(reference_elimination_gain)


def test_elimination_edge_cases():
    g = flow_graph([("a", "b", 2.5), ("c", "d", 1.0)])
    assert sfg.elimination_gain(g, "a", "b") == 2.5
    assert sfg.elimination_gain(g, "a", "d") == 0.0
    assert sfg.elimination_gain(g, "a", "absent") == 0.0
    with pytest.raises(ValueError):
        sfg.elimination_gain(g, "a", "a")


@pytest.mark.parametrize("n_nodes", [40, 80])
def test_flow_graph_impedance_on_large_meshes(n_nodes):
    # enumeration raised LimitExceeded on meshes this size
    rng = np.random.default_rng(n_nodes)
    for _ in range(3):
        mesh = random_resistor_mesh(rng, n_nodes=n_nodes)
        direct = mna.driving_point_impedance(mesh, ("n1", GROUND))
        assert cc.mason_driving_point_impedance(mesh, ("n1", GROUND)) == pytest.approx(
            direct, rel=1e-6
        )


def test_non_finite_coefficient_ratio_rejected():
    # b's coefficient over a's pivot overflows a float
    rows = ({0: Decimal(1), 1: Decimal("1e400")}, {1: Decimal(1)})
    system = mna.MnaSystem(rows, (Decimal(1), Decimal(0)), ("a", "b"), ())
    with pytest.raises(ValueError, match=r"^edge V\(b\)->V\(a\) gain must be finite$"):
        cc.flow_graph_of_system(system)


def test_structurally_singular_system_is_rejected():
    # rows 0 and 1 both have their only non-zero in column 0
    rows = ({0: Decimal(1)}, {0: Decimal(2)}, {1: Decimal(1), 2: Decimal(3)})
    system = mna.MnaSystem(rows, (Decimal(1), Decimal(0), Decimal(0)), ("a", "b", "c"), ())
    with pytest.raises(mna.SingularMatrix, match="structurally singular"):
        cc.flow_graph_of_system(system)
