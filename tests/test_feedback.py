import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from feedback_lens import crosscheck, feedback as fb, mna
from feedback_lens.feedback import AmplifierParams, Mixing, Validity
from feedback_lens.netlist import (
    GROUND,
    BjtPi,
    ISource,
    OpAmp,
    Resistor,
    Vccs,
    Vcvs,
    VSource,
    parse_netlist,
    parse_netlist_file,
)
from feedback_lens.smallsignal import LinearCircuit, linearize, restrict
from support import draw_params, resistor_meshes

TYPICAL = AmplifierParams.typical()


# --------------------------------------------------------------------------
# Parameters
# --------------------------------------------------------------------------

def test_typical_params():
    assert TYPICAL.beta == pytest.approx(100.0)
    assert TYPICAL.R_in == math.inf and TYPICAL.R2 == math.inf


def test_param_validation():
    with pytest.raises(ValueError):
        AmplifierParams.typical(R1=-1.0)
    with pytest.raises(ValueError):
        AmplifierParams.typical(g_m=0.0)
    with pytest.raises(ValueError):
        AmplifierParams.typical(K=math.inf)


# --------------------------------------------------------------------------
# Classification
# --------------------------------------------------------------------------

EXPECTED_LABELS = {
    "fig3a.net": "shunt-shunt",
    "fig3b.net": "series-shunt",
    "fig3c.net": "series-series",
    "fig3d.net": "shunt-series",
    "fig4.net": "series-series",
    "fig5.net": "series-series",
}


def test_fixture_classification(netlists_dir):
    for name, label in EXPECTED_LABELS.items():
        topo = fb.classify_topology(parse_netlist_file(str(netlists_dir / name)))
        assert topo.label == label, name
        assert topo.validity is Validity.VALID, name


def test_collector_return_is_irrelevant(netlists_dir):
    topo = fb.classify_topology(parse_netlist_file(str(netlists_dir / "irrelevant.net")))
    assert topo.validity is Validity.IRRELEVANT


def _rename_nodes(circuit, mapping):
    def m(node):
        return mapping.get(node, node)

    renamed = []
    for e in circuit.elements:
        if isinstance(e, Resistor):
            renamed.append(replace(e, n1=m(e.n1), n2=m(e.n2)))
        elif isinstance(e, BjtPi):
            renamed.append(
                replace(e, base=m(e.base), collector=m(e.collector), emitter=m(e.emitter))
            )
        elif isinstance(e, OpAmp):
            renamed.append(replace(e, plus=m(e.plus), minus=m(e.minus), out=m(e.out)))
        elif isinstance(e, (Vcvs, Vccs)):
            renamed.append(replace(e, n1=m(e.n1), n2=m(e.n2), cp=m(e.cp), cn=m(e.cn)))
        else:
            renamed.append(replace(e, n1=m(e.n1), n2=m(e.n2)))
    ann = circuit.annotations
    annotations = replace(
        ann,
        input_port=(m(ann.input_port[0]), m(ann.input_port[1])),
        output_port=(m(ann.output_port[0]), m(ann.output_port[1])),
    )
    nodes = frozenset(m(n) for n in circuit.nodes)
    return replace(circuit, nodes=nodes, elements=tuple(renamed), annotations=annotations)


def test_classification_invariant_under_renaming_and_reordering(netlists_dir):
    for name, label in EXPECTED_LABELS.items():
        circuit = parse_netlist_file(str(netlists_dir / name))
        mapping = {n: f"zz_{n}" for n in circuit.nodes if n != GROUND}
        renamed = _rename_nodes(circuit, mapping)
        shuffled = replace(renamed, elements=tuple(reversed(renamed.elements)))
        assert fb.classify_topology(shuffled).label == label, name


def test_unclassifiable_feedback_raises():
    text = """
Q1 b c e gm=40m rpi=2.5k ro=100k
RC c 0 4.7k
RE e 0 1k
RX m1 m2 1k
.input b 0
.output c 0
.feedback RX
"""
    with pytest.raises(fb.UnclassifiableTopology):
        fb.classify_topology(parse_netlist(text))


def test_classify_requires_annotations():
    with pytest.raises(fb.UnclassifiableTopology):
        fb.classify_topology(parse_netlist("R1 a 0 1k"))


# --------------------------------------------------------------------------
# Loading
# --------------------------------------------------------------------------

def _bridge_network(r1, r2):
    """Input-node to sense-node bridge r1, sense-node to ground r2."""
    return LinearCircuit.of(
        [Resistor("R1", "in", "m", r1), Resistor("R2", "m", GROUND, r2)]
    )


SHUNT_SERIES = fb.FeedbackTopology(Mixing.SHUNT, Mixing.SERIES, Validity.VALID)
SERIES_SERIES = fb.FeedbackTopology(Mixing.SERIES, Mixing.SERIES, Validity.VALID)
SHUNT_SHUNT = fb.FeedbackTopology(Mixing.SHUNT, Mixing.SHUNT, Validity.VALID)
SERIES_SHUNT = fb.FeedbackTopology(Mixing.SERIES, Mixing.SHUNT, Validity.VALID)


def test_bridge_network_loading_golden():
    rng = np.random.default_rng(17)
    for _ in range(50):
        r1 = float(10 ** rng.uniform(1, 7))
        r2 = float(10 ** rng.uniform(1, 7))
        loading = fb.loading_effect(
            _bridge_network(r1, r2), SHUNT_SERIES, ("in", GROUND), ("m", GROUND)
        )
        assert loading.R_if == pytest.approx(r1 + r2, rel=1e-12)
        assert loading.R_of == pytest.approx(r1 * r2 / (r1 + r2), rel=1e-12)
        assert loading.f == pytest.approx(-r2 / (r1 + r2), rel=1e-12)


def test_single_resistor_shunt_shunt():
    net = LinearCircuit.of([Resistor("RF", "in", "out", 47e3)])
    loading = fb.loading_effect(net, SHUNT_SHUNT, ("in", GROUND), ("out", GROUND))
    assert loading.R_if == pytest.approx(47e3, rel=1e-12)
    assert loading.R_of == pytest.approx(47e3, rel=1e-12)
    assert loading.f == pytest.approx(-1.0 / 47e3, rel=1e-12)


def test_single_resistor_series_series():
    net = LinearCircuit.of([Resistor("R1", "e", GROUND, 1e3)])
    loading = fb.loading_effect(net, SERIES_SERIES, ("e", GROUND), ("e", GROUND))
    assert loading.R_if == pytest.approx(1e3, rel=1e-12)
    assert loading.R_of == pytest.approx(1e3, rel=1e-12)
    assert loading.f == pytest.approx(1e3, rel=1e-12)  # transresistance


def test_t_network_series_series_matches_z_parameters():
    # T network between ports: ra from port 1 to the tee, rb from the tee to
    # port 2, rc from the tee to ground; z11 = ra+rc, z22 = rb+rc, z12 = rc.
    rng = np.random.default_rng(23)
    for _ in range(25):
        ra, rb, rc = (float(10 ** rng.uniform(1, 6)) for _ in range(3))
        net = LinearCircuit.of(
            [
                Resistor("Ra", "p1", "t", ra),
                Resistor("Rb", "t", "p2", rb),
                Resistor("Rc", "t", GROUND, rc),
            ]
        )
        loading = fb.loading_effect(net, SERIES_SERIES, ("p1", GROUND), ("p2", GROUND))
        assert loading.R_if == pytest.approx(ra + rc, rel=1e-12)
        assert loading.R_of == pytest.approx(rb + rc, rel=1e-12)
        assert loading.f == pytest.approx(rc, rel=1e-12)


def test_divider_series_shunt():
    # series-shunt divider: voltage sensed at the output, fraction fed back
    rng = np.random.default_rng(29)
    for _ in range(10):
        ra, rb = (float(10 ** rng.uniform(1, 6)) for _ in range(2))
        net = LinearCircuit.of(
            [Resistor("Ra", "out", "e", ra), Resistor("Rb", "e", GROUND, rb)]
        )
        loading = fb.loading_effect(net, SERIES_SHUNT, ("e", GROUND), ("out", GROUND))
        assert loading.f == pytest.approx(rb / (ra + rb), rel=1e-12)
        assert loading.R_if == pytest.approx(ra * rb / (ra + rb), rel=1e-12)
        assert loading.R_of == pytest.approx(ra + rb, rel=1e-12)


def test_loading_rejects_active_feedback():
    net = LinearCircuit.of(
        [Resistor("R1", "a", GROUND, 1e3), VSource("V1", "a", GROUND, 1.0)]
    )
    with pytest.raises(ValueError):
        fb.loading_effect(net, SERIES_SERIES, ("a", GROUND), ("a", GROUND))


def three_probe_loading(net, topo, input_port, output_port):
    """The loading as defined: R_if and R_of each from its own probe, f from
    a unit excitation of the sensed quantity (a current into the output
    side for series sensing, a voltage across it for shunt sensing)."""
    def dpi(port, shorted):
        probe = net if shorted is None else net.with_elements(
            VSource("__short", shorted[0], shorted[1], 0.0))
        return mna.driving_point_impedance(probe, port)

    r_if = dpi(input_port, output_port if topo.output_sense is Mixing.SHUNT else None)
    r_of = dpi(output_port, input_port if topo.input_mix is Mixing.SHUNT else None)
    if topo.output_sense is Mixing.SERIES:
        excitation = ISource("__excite", output_port[1], output_port[0], 1.0)
    else:
        excitation = VSource("__excite", output_port[0], output_port[1], 1.0)
    if topo.input_mix is Mixing.SHUNT:
        short = VSource("__mix_short", input_port[0], input_port[1], 0.0)
        f = -mna.solve_circuit(net.with_elements(excitation, short)).branch_currents["__mix_short"]
    else:
        f = mna.solve_circuit(net.with_elements(excitation)).across(input_port)
    return fb.LoadingModel(R_if=r_if, R_of=r_of, f=f)


@st.composite
def resistive_feedback_networks(draw):
    """A ``resistor_meshes`` mesh on p, q, up to four inner nodes and, when
    ``grounded`` is drawn, ground, with input side (p, 0) and output side
    (q, 0).  Without ground, only a probe or a short at the input side gives
    the output side a return path."""
    grounded = draw(st.booleans())
    names = ["p", "q"] + [f"m{i}" for i in range(draw(st.integers(0, 4)))]
    names = draw(st.permutations(names + [GROUND] if grounded else names))
    mesh = LinearCircuit.of(draw(resistor_meshes(names)))
    return mesh, ("p", GROUND), ("q", GROUND), grounded


TOPOLOGIES = [fb.FeedbackTopology(i, o, Validity.VALID) for i in Mixing for o in Mixing]


@pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: t.label)
@given(case=resistive_feedback_networks())
def test_loading_matches_the_three_probe_definition(topo, case):
    net, input_port, output_port, grounded = case
    open_output = not grounded and topo.input_mix is Mixing.SERIES
    if open_output and topo.output_sense is Mixing.SERIES:
        # a unit current into an open port has no solution
        for loading in (fb.loading_effect, three_probe_loading):
            with pytest.raises(mna.SingularMatrix):
                loading(net, topo, input_port, output_port)
        return
    got = fb.loading_effect(net, topo, input_port, output_port)
    expected = three_probe_loading(net, topo, input_port, output_port)
    assert got.R_if == expected.R_if  # the same probe
    assert got.R_of == expected.R_of
    assert (got.R_of == math.inf) == open_output
    assert got.f == pytest.approx(expected.f, rel=1e-12, abs=0.0)


def test_input_side_outside_the_feedback_network_raises_unknown_node(netlists_dir):
    # RC moved off ground and the input port taken to its far end: the
    # series-mixed input side (e, r) names a node the network RA/RB lacks
    text = ((netlists_dir / "fig3b.net").read_text()
            .replace("RC c 0 4.7k", "RC c r 4.7k").replace(".input b 0", ".input b r"))
    circuit = parse_netlist(text)
    input_side, output_side = fb.feedback_ports(circuit)
    assert input_side == ("e", "r")
    network = restrict(linearize(circuit), circuit.annotations.feedback_elements)
    with pytest.raises(mna.UnknownNode, match="'r'"):
        fb.loading_effect(network, fb.classify_topology(circuit), input_side, output_side)


def test_loading_of_circuit_on_bridge_fixture(netlists_dir):
    circuit = parse_netlist_file(str(netlists_dir / "fig3d.net"))
    loading = fb.loading_of_circuit(circuit)
    assert loading.R_if == pytest.approx(11e3, rel=1e-12)
    assert loading.R_of == pytest.approx(10e3 / 11.0, rel=1e-12)
    assert loading.f == pytest.approx(-1.0 / 11.0, rel=1e-12)


def test_feedback_ports_inference(netlists_dir):
    circuit = parse_netlist_file(str(netlists_dir / "fig4.net"))
    input_side, output_side = fb.feedback_ports(circuit)
    assert input_side == ("e", "0")
    assert output_side == ("e", "0")


# --------------------------------------------------------------------------
# Closed forms (frozen against hand arithmetic on the printed expressions)
# --------------------------------------------------------------------------

def test_one_plus_af_case1():
    assert fb.one_plus_af_case1(TYPICAL) == pytest.approx(203207.0 / 1207.0, rel=1e-12)
    assert fb.one_plus_af_case1(replace(TYPICAL, K=0.0)) == pytest.approx(1.0, rel=1e-15)
    big_r1 = fb.one_plus_af_case1(replace(TYPICAL, R1=1e12))
    assert big_r1 == pytest.approx(TYPICAL.K + 1.0, rel=1e-4)


def test_branch_current_openloop():
    assert fb.branch_current_openloop(TYPICAL) == pytest.approx(202.0 / 1207.0, rel=1e-12)
    assert fb.branch_current_openloop(replace(TYPICAL, K=0.0)) == 0.0


def test_branch_resistance_feedback_case1():
    assert fb.branch_resistance_feedback(TYPICAL, 1) == pytest.approx(
        1005975.2475247525, rel=1e-12
    )
    k0 = fb.branch_resistance_feedback(replace(TYPICAL, K=0.0), 1)
    assert k0 == pytest.approx(1e3 + 502.5e3 / 101.0, rel=1e-12)


def test_branch_resistance_feedback_case2_r2_cancels():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = replace(TYPICAL, R2=float(10 ** rng.uniform(1, 6)))
        r_x = fb.rx_from_branch_case2(p)
        assert r_x == pytest.approx(fb.closed_form_rx_case2(p), rel=1e-9)
    with pytest.raises(ValueError):
        fb.rx_from_branch_case2(TYPICAL)  # R2 defaults to infinity


def test_closed_form_rx_case1():
    assert fb.closed_form_rx_case1(TYPICAL) == pytest.approx(6723980.678746291, rel=1e-12)
    # with no driver gain and a vanishing sense resistor the boost collapses
    # to the printed limit 2 r_o beta / (beta + 1)
    tiny = replace(TYPICAL, K=0.0, R1=1e-9)
    assert fb.closed_form_rx_case1(tiny) == pytest.approx(
        2.0 * 1e5 * 100.0 / 101.0, rel=1e-6
    )


def test_exact_rx_case1():
    assert fb.exact_rx_case1(TYPICAL) == pytest.approx(6758132.690389091, rel=1e-12)
    # all feedback action removed: R_X falls back to r_o
    passive = AmplifierParams(K=0.0, r_out=1e3, R1=1e-9, g_m=1e-9, r_pi=1.0, r_o=1e5)
    assert fb.exact_rx_case1(passive) == pytest.approx(1e5, rel=1e-6)


def test_closed_form_rx_case2():
    assert fb.closed_form_rx_case2(TYPICAL) == pytest.approx(1005025.0, rel=1e-12)
    assert fb.closed_form_rx_case2(replace(TYPICAL, K=0.0)) == pytest.approx(
        5025.0, rel=1e-12
    )
    other = AmplifierParams(K=100.0, r_out=1e3, R1=10e3, g_m=0.025, r_pi=2e3, r_o=1e5)
    assert other.beta == pytest.approx(50.0)
    assert fb.closed_form_rx_case2(other) == pytest.approx(1000060.0, rel=1e-12)


def test_exact_rx_case2():
    assert fb.exact_rx_case2(TYPICAL) == pytest.approx(956986.6698405142, rel=1e-12)
    low = replace(TYPICAL, K=0.0, R1=1e-9)
    s = TYPICAL.r_out + TYPICAL.r_pi
    expected = TYPICAL.r_o * s / (TYPICAL.r_o * TYPICAL.beta + s)
    assert fb.exact_rx_case2(low) == pytest.approx(expected, rel=1e-6)


def test_degeneration_rx():
    assert fb.degeneration_rx(1e5, 0.04, 100.0, 0.0, 0.0) == 1e5
    boost = fb.degeneration_rx(1e5, 0.04, 100.0, 1e15, 0.0)
    assert boost == pytest.approx(1e5 * 100.0, rel=1e-9)
    assert fb.degeneration_rx(1e5, 0.04, 100.0, 1e3, 0.0) == pytest.approx(
        2928571.4285714286, rel=1e-12
    )


def test_degeneration_substitution_differs_from_printed_closed_form():
    # the printed case-1 closed form is not the degeneration substitution;
    # both exist, and at the typical point they differ by ~0.3%
    via = fb.rx_case1_via_degeneration(TYPICAL)
    assert via == pytest.approx(6702160.0, rel=1e-4)
    assert via != pytest.approx(fb.closed_form_rx_case1(TYPICAL), rel=1e-3)


def test_output_resistance():
    assert fb.output_resistance(2e3, 2e3) == pytest.approx(1e3, rel=1e-15)
    assert fb.output_resistance(math.inf, 4.7e3) == 4.7e3
    assert fb.output_resistance(4.7e3, math.inf) == 4.7e3
    assert fb.output_resistance(1.005e6, 1e4) == pytest.approx(
        9901.477832512315, rel=1e-12
    )


def test_exact_rx_case2_monotone_in_gain_and_sense_resistor():
    for axis in ("K", "R1"):
        grid = [10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0]
        values = [fb.exact_rx_case2(replace(TYPICAL, **{axis: v})) for v in grid]
        assert all(b > a for a, b in zip(values, values[1:])), axis


def test_agreement_bands_at_typical_point():
    err1 = abs(fb.closed_form_rx_case1(TYPICAL) - fb.exact_rx_case1(TYPICAL)) / fb.exact_rx_case1(TYPICAL)
    assert abs(err1 - 0.005) <= 0.0005
    err2 = abs(fb.closed_form_rx_case2(TYPICAL) - fb.exact_rx_case2(TYPICAL)) / fb.exact_rx_case2(TYPICAL)
    assert abs(err2 - 0.0501) <= 0.001


def test_exact_formulas_match_nodal_models_on_random_draws():
    rng = np.random.default_rng(37)
    for _ in range(100):
        p = draw_params(rng)
        assert fb.exact_rx_case1(p) == pytest.approx(crosscheck.mna_rx(1, p), rel=1e-9)
        assert fb.exact_rx_case2(p) == pytest.approx(crosscheck.mna_rx(2, p), rel=1e-9)


def test_open_loop_current_matches_nodal_transfer():
    lc = LinearCircuit.of(
        [
            VSource("Vin", "vin", GROUND, 1.0),
            Vcvs("Eop", "t", GROUND, "vin", GROUND, TYPICAL.K),
            Resistor("Rout", "t", "b", TYPICAL.r_out),
            Resistor("Rpi", "b", "e", TYPICAL.r_pi),
            Vccs("Gm", GROUND, "e", "b", "e", TYPICAL.g_m),
            Resistor("R1", "e", GROUND, TYPICAL.R1),
        ]
    )
    i_per_volt = mna.transfer(lc, "Vin", ("e", GROUND)) / TYPICAL.R1
    assert fb.branch_current_openloop(TYPICAL) == pytest.approx(i_per_volt, rel=1e-9)


def test_simplified_form_inside_its_validity_region():
    # All three dominance conditions of the derivation at ratio >= 500 and
    # beta >= 250 hold the simplification within 1% of the nodal value; the
    # single printed predicate at ratio 100 does not bound it (see ledger).
    rng = np.random.default_rng(5)
    kept = 0
    while kept < 40:
        p = draw_params(rng)
        if p.beta < 250 or not fb.simplification_holds_case1(p, ratio=500):
            continue
        if p.r_pi < 500 * p.r_out:
            continue
        if p.r_o * (p.beta + 1) * (p.K + 1) < 500 * (p.r_out + p.r_pi):
            continue
        kept += 1
        exact = crosscheck.mna_rx(1, p)
        assert abs(fb.simplified_rx_case1(p) - exact) / exact < 0.01
        assert abs(fb.closed_form_rx_case1(p) - exact) / exact < 0.01
    assert not fb.simplification_holds_case1(TYPICAL)  # typical ratio is ~2


def test_analyze_case_summary():
    analysis = fb.analyze_case(replace(TYPICAL, R2=10e3), 2)
    assert analysis.topology.label == "series-series"
    assert analysis.R_X == pytest.approx(fb.exact_rx_case2(TYPICAL), rel=1e-12)
    assert analysis.R_out == pytest.approx(
        fb.output_resistance(analysis.R_X, 10e3), rel=1e-12
    )
    assert analysis.loading.f == TYPICAL.R1
