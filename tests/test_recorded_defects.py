"""Inputs that fooled the tool and still do, each held to its right answer
as a strict expected failure, so that the change that mends one flips it.
The exact values come from ``support.conductance_impedance_oracle``, which
takes minutes on the cascades, so they are constants here."""

import math

import pytest

from feedback_lens import crosscheck as cc, mna, sfg
from feedback_lens.feedback import AmplifierParams
from feedback_lens.netlist import parse_netlist
from feedback_lens.smallsignal import linearize

from support import bjt_cascade
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
    assert route(linearize(parse_netlist(ISLAND)), ("a", "b")) == math.inf


@mason_fails(sfg.ZeroDeterminant, 3)
def test_the_island_is_singular_at_a_port_to_ground(route):
    with pytest.raises(mna.SingularMatrix):
        route(linearize(parse_netlist(ISLAND)), ("a", "0"))


@xfail(mna.SingularMatrix, 3)
@pytest.mark.parametrize("n, seed, ohms", [(20, 8, 4966.493966730433),
                                           (30, 0, 1627.8039030278057)])
def test_a_nonsingular_bjt_cascade_solves(n, seed, ohms):
    lc = linearize(parse_netlist(bjt_cascade(n, seed)))
    assert NODAL(lc, (f"c{n - 1}", "0")) == pytest.approx(ohms, rel=1e-12, abs=0)


@mason_fails(sfg.ZeroDeterminant, 4)
def test_a_transistor_with_a_gain_of_1e14_reads_its_impedance(route):
    lc = linearize(parse_netlist("Q4 a 0 n_1 gm=168258 rpi=2 ro=982236922\nR1 a 0 5978445\n"))
    assert route(lc, ("a", "n_1")) == pytest.approx(5.9794099130909406e-06, rel=1e-12, abs=0)


@xfail(AssertionError, 4)
def test_the_case2_corner_passes():
    p = AmplifierParams(K=1e5, r_out=10, R1=1e7, r_o=10, g_m=1, r_pi=500)
    assert cc.run_case(2, p).passed


@pytest.mark.parametrize("text, port, ohms", [
    pytest.param(RESISTOR_CHAIN, ("n4", "n1"), 20.0, marks=xfail(sfg.ZeroDeterminant, 4),
                 id="resistor-chain"),
    pytest.param(ACTIVE_MESH, ("0", "n3"), 1.3336094093298871, marks=xfail(AssertionError, 4),
                 id="active-mesh"),
])
def test_the_flow_graph_of_an_unreduced_probed_system(text, port, ohms):
    system = mna.probed_system(linearize(parse_netlist(text)), port)
    gain = sfg.elimination_gain(cc.flow_graph_of_system(system), cc.SYSTEM_SOURCE,
                                mna.TEST_CURRENT)
    assert -1 / gain == pytest.approx(ohms, rel=1e-12, abs=0)
