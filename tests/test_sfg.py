import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from feedback_lens import crosscheck, sfg
from feedback_lens.feedback import AmplifierParams

from support import flow_graph, random_causal_system

TYPICAL = AmplifierParams.typical()

# Hand-typed golden graphs for the two output-series cases at the typical
# operating point (s = r_out + r_pi = 502.5e3, gm = 0.04, K = 1000, R1 = 1k,
# r_o = 100k); kept literal on purpose, independent of the equations in
# crosscheck.
CASE1_EDGES = [
    ("v_pi", "i_o", 0.0404),
    ("v_x", "i_o", 1e-5),
    ("v_c", "i_o", -1e-5),
    ("i_o", "v_c", 1000.0),
    ("i_o", "v_diff", -1000.0),
    ("v_diff", "v_pi", 4.975124378109453),
    ("v_c", "v_pi", -0.004975124378109453),
    ("v_x", "i_x", 1e-5),
    ("v_c", "i_x", -1e-5),
    ("v_pi", "i_x", 0.04),
]

CASE2_EDGES = [
    ("i_x", "v_pi", -25.0),
    ("v_c", "v_pi", -0.00025),
    ("v_x", "v_pi", 0.00025),
    ("i_o", "v_x", 100000.0),
    ("v_pi", "v_x", 4000.0),
    ("v_c", "v_x", 1.0),
    ("v_pi", "v_diff", 0.201),
    ("v_x", "v_diff", 0.001),
    ("v_diff", "i_o", 0.001),
    ("i_o", "v_c", 1000.0),
]


def test_from_linear_system_single_edge():
    g = sfg.from_linear_system([("y", [(3.0, "x")])])
    assert g == {"x": {"y": 3.0}, "y": {}}


def test_from_linear_system_self_loop():
    g = sfg.from_linear_system([("y", [(2.0, "x"), (0.5, "y")])])
    assert g["y"]["y"] == 0.5
    loops = sfg.enumerate_loops(g)
    assert loops == [(("y",), 0.5)]


def test_from_linear_system_pre_sums_parallel_terms():
    g = sfg.from_linear_system([("y", [(2.0, "x"), (3.0, "x")])])
    assert g == {"x": {"y": 5.0}, "y": {}}


def test_from_linear_system_keeps_a_variable_defined_by_no_terms():
    g = sfg.from_linear_system([("y", [(3.0, "x")]), ("z", [])])
    assert g == {"x": {"y": 3.0}, "y": {}, "z": {}}


def test_multiple_definitions_rejected():
    with pytest.raises(sfg.MultipleDefinitions):
        sfg.from_linear_system([("y", [(1.0, "x")]), ("y", [(2.0, "x")])])


@pytest.mark.parametrize("gain", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_gain_rejected(gain):
    with pytest.raises(ValueError, match="^edge x->y gain must be finite$"):
        sfg.from_linear_system([("z", [(1.0, "y")]), ("y", [(2.0, "w"), (gain, "x")])])


def test_acyclic_graph_has_no_loops_and_unit_determinant():
    g = flow_graph([("a", "b", 2.0), ("b", "c", 3.0)])
    assert sfg.enumerate_loops(g) == []
    assert sfg.graph_determinant(g) == 1.0


def test_case1_graph_has_the_three_determinant_loops():
    loops = sfg.enumerate_loops(crosscheck.case1_flow_graph(TYPICAL))
    assert [nodes for nodes, _ in loops] == [
        ("i_o", "v_c"),
        ("i_o", "v_c", "v_pi"),
        ("i_o", "v_diff", "v_pi"),
    ]
    gains = [gain for _, gain in loops]
    assert gains[0] == pytest.approx(-0.01, rel=1e-12)
    assert gains[1] == pytest.approx(-0.20099502487562187, rel=1e-12)
    assert gains[2] == pytest.approx(-200.99502487562188, rel=1e-12)


def test_disjoint_two_cycles_do_not_touch():
    g = flow_graph(
        [("a", "b", 1.0), ("b", "a", 0.5), ("c", "d", 2.0), ("d", "c", 0.25)]
    )
    loops = sfg.enumerate_loops(g)
    assert len(loops) == 2
    assert set(loops[0][0]).isdisjoint(loops[1][0])
    # determinant of two non-touching loops: 1 - a - b + a*b
    a, b = loops[0][1], loops[1][1]
    assert sfg.graph_determinant(g) == pytest.approx(1 - a - b + a * b, rel=1e-12)


def test_case1_forward_paths():
    paths = sfg.enumerate_forward_paths(crosscheck.case1_flow_graph(TYPICAL), "v_x", "i_x")
    assert [nodes for nodes, _ in paths] == [
        ("v_x", "i_o", "v_c", "i_x"),
        ("v_x", "i_o", "v_c", "v_pi", "i_x"),
        ("v_x", "i_o", "v_diff", "v_pi", "i_x"),
        ("v_x", "i_x"),
    ]
    gains = sorted(abs(gain) for _, gain in paths)
    expected = sorted([1e-5, 1e-7, 1.990049751243781e-06, 1.990049751243781e-03])
    assert gains == pytest.approx(expected, rel=1e-12)


def test_case2_forward_paths_and_determinant():
    g = crosscheck.case2_flow_graph(TYPICAL)
    paths = sfg.enumerate_forward_paths(g, "i_x", "v_x")
    assert len(paths) == 3
    assert sfg.graph_determinant(g) == pytest.approx(-0.105025, rel=1e-12)
    # loops beyond the three surviving determinant terms cancel pairwise
    assert len(sfg.enumerate_loops(g)) == 7


def test_disconnected_endpoints_give_no_paths():
    g = flow_graph([("a", "b", 1.0), ("c", "d", 1.0)])
    assert sfg.enumerate_forward_paths(g, "a", "d") == []


def test_single_edge_gain():
    g = flow_graph([("a", "b", 2.5)])
    assert sfg.mason_gain(g, "a", "b") == 2.5


def test_untouched_self_loop_cancels():
    g = flow_graph([("src", "dst", 4.0), ("z", "z", 0.5), ("src", "z", 1.0)])
    assert sfg.mason_gain(g, "src", "dst") == pytest.approx(4.0, rel=1e-15)


def test_chain_rule_is_exact():
    g = flow_graph([("a", "b", 1.25), ("b", "c", -3.0), ("c", "d", 0.2)])
    assert sfg.mason_gain(g, "a", "d") == 1.25 * -3.0 * 0.2


def test_single_loop_identity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = float(rng.uniform(-2, 2))
        l = float(rng.uniform(-0.9, 0.9))
        g = flow_graph([("s", "m", p), ("m", "m", l), ("m", "d", 1.0)])
        assert sfg.mason_gain(g, "s", "d") == pytest.approx(p / (1 - l), rel=1e-12)


def test_case1_transmission_matches_model_impedance():
    gain = sfg.mason_gain(crosscheck.case1_flow_graph(TYPICAL), "v_x", "i_x")
    assert 1.0 / gain == pytest.approx(6758132.690389, rel=1e-9)


def test_zero_determinant_raises():
    g = flow_graph([("s", "x", 2.0), ("x", "x", 1.0), ("x", "d", 1.0)])
    with pytest.raises(sfg.ZeroDeterminant):
        sfg.mason_gain(g, "s", "d")


# An untouched loop of gain -1 makes the signed sum of the determinant's
# terms 0, so only the sum of their magnitudes can tell residue from zero.
@pytest.mark.parametrize("untouched", [[], [("w", "w", -1.0)]])
def test_determinant_of_rounding_residue_raises_on_both_routes(untouched):
    # D = 1 - 0.7 - 0.3 is 5.6e-17 in floating point, not 0
    g = flow_graph([("s", "x", 1.0), ("x", "x", 0.7), ("x", "z", 1.0),
                       ("z", "x", 0.3), ("x", "d", 1.0)] + untouched)
    assert 0.0 < abs(sfg.graph_determinant(g)) < 1e-15
    with pytest.raises(sfg.ZeroDeterminant):
        sfg.mason_gain(g, "s", "d")
    with pytest.raises(sfg.ZeroDeterminant):
        sfg.elimination_gain(g, "s", "d")


def test_enumeration_cap_is_an_error_not_truncation(monkeypatch):
    nodes = [f"n{i}" for i in range(6)]
    edges = [(a, b, 0.1) for a in nodes for b in nodes if a != b]
    g = flow_graph(edges)
    monkeypatch.setattr(sfg, "DEFAULT_CAP", 5)
    with pytest.raises(sfg.LimitExceeded, match="more than 5 loops; use elimination_gain"):
        sfg.enumerate_loops(g)
    monkeypatch.setattr(sfg, "DEFAULT_CAP", 3)
    with pytest.raises(sfg.LimitExceeded, match="more than 3 forward paths"):
        sfg.enumerate_forward_paths(g, "n0", "n5")
    with pytest.raises(sfg.LimitExceeded):
        sfg.mason_gain(g, "n0", "n5")


@given(st.lists(st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde"),
                          st.floats(-2.0, 2.0)), max_size=12),
       st.permutations("abcde"))
def test_walks_match_a_brute_force_enumeration(edges, order):
    g = flow_graph(edges)
    present = {(u, v) for u, outs in g.items() for v in outs}

    def gain(nodes):
        total = 1.0
        for u, v in zip(nodes, nodes[1:]):
            if (u, v) not in present:
                return None
            total *= g[u][v]
        return total

    sequences = [p for k in range(1, 6) for p in itertools.permutations(g, k)]
    loops = [(p, gain(p + p[:1])) for p in sequences
             if p[0] == min(p) and gain(p + p[:1]) is not None]
    src, dst = order[:2]
    paths = [(p, gain(p)) for p in sequences
             if len(p) > 1 and p[0] == src and p[-1] == dst and gain(p) is not None]
    assert sfg.enumerate_loops(g) == sorted(loops)
    assert sfg.enumerate_forward_paths(g, src, dst) == sorted(paths)


def reference_terms(graph, src, dst):
    """``sfg.mason_terms`` straight from the enumerations, each expansion
    walked depth-first over the loops as they are listed."""
    loops = sfg.enumerate_loops(graph)

    def expansion(among):
        total = scale = 1.0

        def extend(start, gain, used, sign):
            nonlocal total, scale
            for k in range(start, len(among)):
                nodes, loop_gain = among[k]
                if used.isdisjoint(nodes):
                    combined = gain * loop_gain
                    total += sign * combined
                    scale += abs(combined)
                    extend(k + 1, combined, used | set(nodes), -sign)

        extend(0, 1.0, set(), -1.0)
        return total, scale

    numerator = sum(gain * expansion([l for l in loops if set(nodes).isdisjoint(l[0])])[0]
                    for nodes, gain in sfg.enumerate_forward_paths(graph, src, dst))
    return (numerator, *expansion(loops))


def bits(values):
    return [(type(v), float(v).hex()) for v in values]


# The plan cache is not cleared before the first call, so a plan kept from
# an earlier example of another shape, wrongly reused, shows as a mismatch.
@given(st.lists(st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde"),
                          st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), max_size=12),
       st.permutations("abcde"))
def test_a_kept_plan_evaluates_fresh_gains_as_a_fresh_enumeration(edges, order):
    src, dst = order[:2]
    graphs = [flow_graph([(u, v, w) for u, v, w, _ in edges]),
              flow_graph([(u, v, w) for u, v, _, w in edges])]
    for g in graphs:
        terms = sfg.mason_terms(g, src, dst)
        assert bits(terms) == bits(reference_terms(g, src, dst))
        sfg._plan.cache_clear()
        assert bits(sfg.mason_terms(g, src, dst)) == bits(terms)
    # the determinant of the shape kept under (src, dst), read two other ways
    determinant = terms[1]
    assert bits([sfg.graph_determinant(g), sfg.mason_terms(g, dst, src)[1]]) == bits(
        [determinant, determinant])


def test_a_kept_plan_still_enforces_a_lowered_cap(monkeypatch):
    nodes = [f"n{i}" for i in range(6)]
    g = flow_graph([(a, b, 0.1) for a in nodes for b in nodes if a != b])
    sfg.mason_terms(g, "n0", "n5")
    sfg.graph_determinant(g)
    monkeypatch.setattr(sfg, "DEFAULT_CAP", 5)
    for _ in range(2):  # what raised is not kept, so it raises again
        with pytest.raises(sfg.LimitExceeded, match="more than 5 forward paths"):
            sfg.mason_terms(g, "n0", "n5")
        with pytest.raises(sfg.LimitExceeded, match="more than 5 loops"):
            sfg.graph_determinant(g)
        with pytest.raises(ValueError, match="must differ"):
            sfg.mason_terms(g, "n0", "n0")


def test_identical_endpoints_rejected():
    g = flow_graph([("a", "b", 1.0)])
    with pytest.raises(ValueError):
        sfg.enumerate_forward_paths(g, "a", "a")


def test_hand_typed_golden_graphs_match_programmatic_ones():
    g1 = flow_graph(CASE1_EDGES)
    gain = sfg.mason_gain(g1, "v_x", "i_x")
    assert 1.0 / gain == pytest.approx(6758132.690389, rel=1e-9)
    prog = sfg.mason_gain(crosscheck.case1_flow_graph(TYPICAL), "v_x", "i_x")
    assert gain == pytest.approx(prog, rel=1e-9)

    g2 = flow_graph(CASE2_EDGES)
    assert sfg.mason_gain(g2, "i_x", "v_x") == pytest.approx(956986.6698405, rel=1e-9)


def test_mason_matches_direct_solve_on_random_systems():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        equations, variables, x = random_causal_system(rng)
        graph = sfg.from_linear_system(equations)
        target = variables[-1]
        gain = sfg.mason_gain(graph, "src", target)
        expected = x[-1]
        scale = max(abs(gain), abs(expected))
        assert abs(gain - expected) <= 1e-9 * max(scale, 1e-12)
