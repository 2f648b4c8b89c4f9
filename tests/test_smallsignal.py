from dataclasses import replace

import pytest

from feedback_lens import mna
from feedback_lens.netlist import Circuit, Resistor, Vccs, Vcvs, VSource, parse_netlist
from feedback_lens.smallsignal import InvalidMacroParams, linearize


def test_bjt_expansion():
    circuit = parse_netlist("Q1 b c e gm=40m rpi=2.5k ro=100k")
    lc = linearize(circuit)
    resistors = [e for e in lc.elements if isinstance(e, Resistor)]
    sources = [e for e in lc.elements if isinstance(e, Vccs)]
    assert len(resistors) == 2 and len(sources) == 1
    gm = sources[0]
    assert (gm.n1, gm.n2, gm.cp, gm.cn) == ("c", "e", "b", "e")
    assert gm.gm * circuit.elements[0].rpi == pytest.approx(100.0)  # beta
    assert lc.nodes == circuit.nodes  # no synthesized node for a bipolar


def test_opamp_expansion_adds_exactly_one_node():
    circuit = parse_netlist("X1 p m out K=1000 rout=500k\nR1 out 0 1k")
    lc = linearize(circuit)
    assert len(lc.nodes) == len(circuit.nodes) + 1
    assert "X1__thev" in lc.nodes
    vcvs = [e for e in lc.elements if isinstance(e, Vcvs)]
    assert len(vcvs) == 1 and vcvs[0].gain == 1000.0
    assert (vcvs[0].cp, vcvs[0].cn) == ("p", "m")
    series = [e for e in lc.elements if isinstance(e, Resistor) and e.ohms == 500e3]
    assert series and {series[0].n1, series[0].n2} == {"X1__thev", "out"}


def test_opamp_rin_expansion():
    lc = linearize(parse_netlist("X1 p m out K=10 rout=1k rin=2M"))
    rin = [e for e in lc.elements if e.name == "X1__rin"]
    assert rin and rin[0].ohms == 2e6 and {rin[0].n1, rin[0].n2} == {"p", "m"}


def test_macro_free_circuit_passes_through():
    circuit = parse_netlist("R1 a 0 1k\nV1 a 0 1")
    lc = linearize(circuit)
    assert lc.elements == circuit.elements


def test_only_an_annotated_circuit_hands_its_feedback_network_over():
    bare = parse_netlist("Q1 b c 0 gm=40m rpi=2.5k ro=100k\nRF c b 47k\nRL c 0 1k")
    linearize(bare)
    assert "feedback_network" not in vars(bare)  # its network is never built
    annotated = parse_netlist("Q1 b c 0 gm=40m rpi=2.5k ro=100k\nRF c b 47k\nRL c 0 1k\n"
                              ".input b 0\n.output c 0\n.feedback RF")
    assert vars(linearize(annotated))["feedback_network"] is annotated.feedback_network


def test_invalid_macro_params():
    with pytest.raises(InvalidMacroParams):
        linearize(parse_netlist("Q1 b c e gm=-1m rpi=2.5k ro=100k"))
    with pytest.raises(InvalidMacroParams):
        linearize(parse_netlist("X1 p m o K=0 rout=1k"))
    with pytest.raises(InvalidMacroParams):
        linearize(parse_netlist("X1 p m o K=10 rout=1k rin=0"))


def _zeroed_gains(lc: Circuit) -> Circuit:
    elements = []
    for e in lc.elements:
        if isinstance(e, Vccs):
            elements.append(replace(e, gm=0.0))
        elif isinstance(e, Vcvs):
            elements.append(replace(e, gain=0.0))
        else:
            elements.append(e)
    return Circuit(tuple(elements))


def _passive_skeleton(lc: Circuit) -> Circuit:
    elements = []
    for e in lc.elements:
        if isinstance(e, Vccs):
            continue  # a dead transconductance is an open circuit
        if isinstance(e, Vcvs):
            elements.append(VSource(e.name, e.n1, e.n2, 0.0))
        else:
            elements.append(e)
    return Circuit(tuple(elements))


def test_zero_gain_solution_equals_passive_skeleton():
    text = """
V1 vin 0 1
Rs vin b 1k
Q1 b c e gm=40m rpi=2.5k ro=100k
Re e 0 330
Rc c 0 4.7k
X2 c 0 d K=50 rout=2k
Rl d 0 10k
"""
    lc = linearize(parse_netlist(text))
    dead = mna.solve(mna.assemble(_zeroed_gains(lc)))
    skeleton = mna.solve(mna.assemble(_passive_skeleton(lc)))
    assert dead.keys() == skeleton.keys()
    for name, value in dead.items():
        assert value == pytest.approx(skeleton[name], rel=1e-12, abs=1e-15)
