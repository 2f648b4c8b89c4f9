"""Inputs that fooled the tool and still do, each held to its right answer
as a strict expected failure, so that the change that mends one flips it.
Each right impedance is ``support.exact_impedance``'s."""

import numpy as np
import pytest

from feedback_lens import crosscheck as cc, mna, sfg
from feedback_lens.feedback import AmplifierParams
from feedback_lens.netlist import parse_netlist
from feedback_lens.smallsignal import linearize

from support import bjt_cascade, exact_impedance
from test_cli import ACTIVE_MESH, RESISTOR_CHAIN


def xfail(raises, item):
    return pytest.mark.xfail(strict=True, raises=raises, reason=f"ROADMAP item {item}")


NODAL, MASON = mna.driving_point_impedance, cc.mason_driving_point_impedance


def mason_fails(raises, item):
    """Both routes as ``route``, the flow graph's expected to raise ``raises``."""
    return pytest.mark.parametrize("route", [
        pytest.param(NODAL, id="nodal"),
        pytest.param(MASON, marks=xfail(raises, item), id="mason")])


# No current leaves the island of b, d and e, and G0 drives 1m * V(a) into
# it, so KCL holds V(a) at 0.  At (a, b) exactly no current flows, which
# rounding reads as -5e35 on the nodal route and 2.3e18 on the flow graph;
# at (a, 0) the test source contradicts it, and the system is singular.
ISLAND = "R1 a 0 1k\nG0 a b a 0 1m\nR3 b d 3k\nR4 d e 7k\nR5 e b 11k\nG1 d e d b 1m\n"


@xfail(AssertionError, 3)
@pytest.mark.parametrize("route", [NODAL, MASON], ids=["nodal", "mason"])
def test_the_island_reads_no_current_at_a_port_across_it(route):
    circuit = parse_netlist(ISLAND)
    assert route(linearize(circuit), ("a", "b")) == exact_impedance(circuit, ("a", "b"))


@mason_fails(sfg.ZeroDeterminant, 3)
def test_the_island_is_singular_at_a_port_to_ground(route):
    with pytest.raises(mna.SingularMatrix):
        route(linearize(parse_netlist(ISLAND)), ("a", "0"))


# The feedback network's RF1 is an island of its own: nothing fixes the
# level of j1 and j0, so a port across it has no defined impedance.
FLOATING_FEEDBACK = ("Q1 b c 0 gm=40m rpi=2.5k ro=100k\nRC c 0 10k\nRF0 c b 100k\n"
                     "RF1 j1 j0 1k\n.input b 0\n.output c 0\n.feedback RF0 RF1\n")


@mason_fails(sfg.ZeroDeterminant, 4)
def test_a_port_across_an_island_of_the_feedback_network_is_singular(route):
    with pytest.raises(mna.SingularMatrix):
        route(linearize(parse_netlist(FLOATING_FEEDBACK)), ("j1", "j0"))


@xfail(mna.SingularMatrix, 3)
@pytest.mark.parametrize("n, seed", [(20, 8), (30, 0)])
def test_a_nonsingular_bjt_cascade_solves(n, seed):
    circuit, port = parse_netlist(bjt_cascade(n, seed)), (f"c{n - 1}", "0")
    ohms = float(exact_impedance(circuit, port))
    assert NODAL(linearize(circuit), port) == pytest.approx(ohms, rel=1e-12, abs=0)


@mason_fails(sfg.ZeroDeterminant, 4)
def test_a_transistor_with_a_gain_of_1e14_reads_its_impedance(route):
    circuit = parse_netlist("Q4 a 0 n_1 gm=168258 rpi=2 ro=982236922\nR1 a 0 5978445\n")
    ohms = float(exact_impedance(circuit, ("a", "n_1")))
    assert route(linearize(circuit), ("a", "n_1")) == pytest.approx(ohms, rel=1e-12, abs=0)


@xfail(AssertionError, 4)
def test_the_case2_corner_passes():
    p = AmplifierParams(K=1e5, r_out=10, R1=1e7, r_o=10, g_m=1, r_pi=500)
    assert cc.run_case(2, p).passed


@pytest.mark.parametrize("text, port", [
    pytest.param(RESISTOR_CHAIN, ("n4", "n1"), marks=xfail(sfg.ZeroDeterminant, 4),
                 id="resistor-chain"),
    pytest.param(ACTIVE_MESH, ("0", "n3"), marks=xfail(AssertionError, 4), id="active-mesh"),
])
def test_the_flow_graph_of_an_unreduced_probed_system(text, port):
    circuit = parse_netlist(text)
    ohms = float(exact_impedance(circuit, port))
    system = mna.probed_system(linearize(circuit), port)
    gain = sfg.elimination_gain(cc.flow_graph_of_system(system), cc.SYSTEM_SOURCE,
                                mna.TEST_CURRENT)
    assert -1 / gain == pytest.approx(ohms, rel=1e-12, abs=0)


# Drawn by test_elimination.py's unit-loop property: v1's self loop of gain
# 1.00000001 leaves 1 - L = -1e-8, and float elimination reads the gain from
# v0 to v2 1.3e-6 off a direct solve (condition number 889), past its 1e-6.
UNIT_LOOP_GRAPH = {"v0": {"v0": 2.0, "v1": 1.5, "v2": 0.0},
                   "v1": {"v0": 2.0, "v1": 1.00000001, "v5": -1.0},
                   "v2": {"v1": 1.0, "v5": 1.0, "v4": 2.0}, "v3": {"v2": -1.0},
                   "v4": {"v3": 1.375}, "v5": {"v0": 1.0, "v5": 0.75, "v4": 1.0}}


@xfail(AssertionError, 4)
def test_elimination_beside_a_near_unit_self_loop_matches_a_direct_solve():
    nodes = sorted(UNIT_LOOP_GRAPH)
    a = np.array([[UNIT_LOOP_GRAPH[u].get(v, 0.0) for u in nodes] for v in nodes])
    want = np.linalg.solve(np.eye(len(nodes)) - a, np.eye(len(nodes))[0])[nodes.index("v2")]
    gain = sfg.elimination_gain(UNIT_LOOP_GRAPH, "v0", "v2")
    assert gain == pytest.approx(want, rel=1e-6, abs=0)
