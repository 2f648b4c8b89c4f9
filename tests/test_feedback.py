import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from feedback_lens import cli, crosscheck, feedback as fb, mna
from feedback_lens.feedback import AmplifierParams, Mixing, Validity
from feedback_lens.netlist import (
    GROUND,
    BjtPi,
    Circuit,
    OpAmp,
    Resistor,
    Vccs,
    Vcvs,
    VSource,
    parse_netlist,
    parse_netlist_file,
    serialize,
)
from feedback_lens.smallsignal import linearize
from support import (FIG3, draw_params, exact_solve, feedback_amplifiers, fig3_amplifier,
                     outcome, resistor_meshes, three_probe_loading)

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
    with pytest.raises(ValueError, match="beta"):
        AmplifierParams.typical(g_m=1e-9, r_pi=5e-324)  # beta underflows to 0


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
    return replace(circuit, elements=tuple(renamed), annotations=annotations)


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


@pytest.mark.parametrize("text, message", [
    ("R1 a 0 1k\n.input a 0\n.output a 0\n.feedback RX", r"unknown feedback elements \['RX'\]"),
    # the input node is on no device's comparison terminal
    ("Q1 b c 0 gm=0.04 rpi=2.5k ro=100k\nRC c 0 4.7k\nRF c x 10k\nRX x 0 1k\nRB in 0 1k\n"
     ".input in 0\n.output c 0\n.feedback RF RX",
     "no difference-forming device found at the input port"),
    ("Q1 b c e gm=0.04 rpi=2.5k ro=100k\nRC c 0 4.7k\nRE e 0 1k\nRF c x 10k\nRX x 0 1k\n"
     ".input b 0\n.output c 0\n.feedback RF RX",
     "feedback network does not reach the input comparison"),
])
def test_an_unclassifiable_topology_says_why(text, message):
    with pytest.raises(fb.UnclassifiableTopology, match=f"^{message}$"):
        fb.classify_topology(parse_netlist(text))


def test_a_circuit_is_classified_once_and_a_failure_is_never_kept(monkeypatch, netlists_dir):
    checked = []
    require = fb._require_annotations
    monkeypatch.setattr(fb, "_require_annotations", lambda c: checked.append(c) or require(c))
    circuit = parse_netlist_file(str(netlists_dir / "fig3d.net"))
    fb.classify_topology(circuit)
    fb.loading_of_circuit(circuit)
    assert checked == [circuit]
    bare = parse_netlist("Q1 b c 0 gm=40m rpi=2.5k ro=100k\nRF c b 47k\n.input b 0\n.output c 0")
    for _ in range(2):
        with pytest.raises(fb.UnclassifiableTopology, match="no feedback elements"):
            fb.classify_topology(bare)
    assert checked == [circuit, bare, bare]


# --------------------------------------------------------------------------
# Loading
# --------------------------------------------------------------------------

def _bridge_network(r1, r2):
    """Input-node to sense-node bridge r1, sense-node to ground r2."""
    return Circuit((Resistor("R1", "in", "m", r1), Resistor("R2", "m", GROUND, r2)))


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
    net = Circuit((Resistor("RF", "in", "out", 47e3),))
    loading = fb.loading_effect(net, SHUNT_SHUNT, ("in", GROUND), ("out", GROUND))
    assert loading.R_if == pytest.approx(47e3, rel=1e-12)
    assert loading.R_of == pytest.approx(47e3, rel=1e-12)
    assert loading.f == pytest.approx(-1.0 / 47e3, rel=1e-12)


def test_single_resistor_series_series():
    net = Circuit((Resistor("R1", "e", GROUND, 1e3),))
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
        net = Circuit(
            (
                Resistor("Ra", "p1", "t", ra),
                Resistor("Rb", "t", "p2", rb),
                Resistor("Rc", "t", GROUND, rc),
            )
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
        net = Circuit((Resistor("Ra", "out", "e", ra), Resistor("Rb", "e", GROUND, rb)))
        loading = fb.loading_effect(net, SERIES_SHUNT, ("e", GROUND), ("out", GROUND))
        assert loading.f == pytest.approx(rb / (ra + rb), rel=1e-12)
        assert loading.R_if == pytest.approx(ra * rb / (ra + rb), rel=1e-12)
        assert loading.R_of == pytest.approx(ra + rb, rel=1e-12)


def test_loading_rejects_active_feedback():
    net = Circuit((Resistor("R1", "a", GROUND, 1e3), VSource("V1", "a", GROUND, 1.0)))
    with pytest.raises(ValueError, match="^feedback network must be purely resistive: V1 is not$"):
        fb.loading_effect(net, SERIES_SERIES, ("a", GROUND), ("a", GROUND))


@st.composite
def resistive_feedback_networks(draw, grounded=st.booleans()):
    """A ``resistor_meshes`` mesh on p, q, up to four inner nodes and, when
    ``grounded`` is drawn, ground, with input side (p, 0) and output side
    (q, 0).  Without ground, only a probe or a short at the input side gives
    the output side a return path."""
    grounded = draw(grounded)
    names = ["p", "q"] + [f"m{i}" for i in range(draw(st.integers(0, 4)))]
    names = draw(st.permutations(names + [GROUND] if grounded else names))
    mesh = Circuit(tuple(draw(resistor_meshes(names))))
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
    assert got.R_if == pytest.approx(expected.R_if, rel=1e-12, abs=0.0)
    assert got.R_of == pytest.approx(expected.R_of, rel=1e-12, abs=0.0)
    assert (got.R_of == math.inf) == open_output
    assert got.f == pytest.approx(expected.f, rel=1e-12, abs=0.0)


def two_port_y(net, ports):
    """Short-circuit admittance matrix of the two-port whose ports join each
    of ``ports`` to ground, by ``exact_solve``: entry (i, j) is the current
    port i draws from a unit voltage at port j, the other port shorted."""
    def drawn(j):
        x = exact_solve(net.elements + tuple(VSource(f"__port{i}", node, GROUND, int(i == j))
                                             for i, node in enumerate(ports)))
        return [-x[f"__port{i}"] for i in range(len(ports))]
    return [list(row) for row in zip(*map(drawn, range(len(ports))))]


def two_port_loading(y, topo):
    """(R_if, R_of, f) from the parameter set of the topology: z for
    series-series, y for shunt-shunt, h for series-shunt and g for
    shunt-series (Gray, Hurst, Lewis and Meyer, *Analysis and Design of
    Analog Integrated Circuits*, ch. 8), each converted from y."""
    (y11, y12), (y21, y22) = y
    det = y11 * y22 - y12 * y21
    z11, z22, z12 = y22 / det, y11 / det, -y12 / det
    h11, h22, h12 = 1 / y11, det / y11, -y12 / y11
    g11, g22, g12 = det / y22, 1 / y22, y12 / y22
    return {
        (Mixing.SERIES, Mixing.SERIES): (z11, z22, z12),
        (Mixing.SHUNT, Mixing.SHUNT): (1 / y11, 1 / y22, y12),
        (Mixing.SERIES, Mixing.SHUNT): (h11, 1 / h22, h12),
        (Mixing.SHUNT, Mixing.SERIES): (1 / g11, g22, g12),
    }[topo.input_mix, topo.output_sense]


@pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: t.label)
@given(case=resistive_feedback_networks(grounded=st.just(True)))
def test_loading_equals_the_two_port_parameters_of_its_topology(topo, case):
    net, input_port, output_port, _ = case
    got = fb.loading_effect(net, topo, input_port, output_port)
    expected = two_port_loading(two_port_y(net, (input_port[0], output_port[0])), topo)
    for value, exact in zip((got.R_if, got.R_of, got.f), expected):
        assert value == pytest.approx(float(exact), rel=1e-12, abs=0.0)


def test_input_side_outside_the_feedback_network_raises_unknown_node(netlists_dir):
    # RC moved off ground and the input port taken to its far end: the
    # series-mixed input side (e, r) names a node the network RA/RB lacks
    text = ((netlists_dir / "fig3b.net").read_text()
            .replace("RC c 0 4.7k", "RC c r 4.7k").replace(".input b 0", ".input b r"))
    circuit = parse_netlist(text)
    input_side, output_side = fb._classify(circuit)[1:]
    assert input_side == ("e", "r")
    network = circuit.feedback_network
    with pytest.raises(mna.UnknownNode, match="'r'"):
        fb.loading_effect(network, fb.classify_topology(circuit), input_side, output_side)


def test_output_side_outside_the_feedback_network_raises_unknown_node():
    network = Circuit((Resistor("RF", "a", "b", 1e3), Resistor("RG", "b", GROUND, 1e3)))
    topo = fb.FeedbackTopology(Mixing.SERIES, Mixing.SERIES, Validity.VALID)
    with pytest.raises(mna.UnknownNode, match="'absent'"):
        fb.loading_effect(network, topo, ("a", GROUND), ("absent", GROUND))


def test_a_side_of_one_node_raises_value_error():
    net = Circuit((Resistor("R1", "a", GROUND, 1e3),))
    with pytest.raises(ValueError, match="^port nodes must differ, got 'a' twice$"):
        fb.loading_effect(net, SERIES_SERIES, ("a", "a"), ("a", GROUND))


def test_one_port_with_a_shunt_side_is_singular():
    net = Circuit((Resistor("R1", "a", GROUND, 1e3),))
    with pytest.raises(mna.SingularMatrix, match="^the two sides are one port"):
        fb.loading_effect(net, SHUNT_SHUNT, ("a", GROUND), ("a", GROUND))


def test_a_coordinate_with_only_zero_entries_moves_nothing():
    # R1 lies along the input side, so b's coordinate gets only zero entries
    net = Circuit((Resistor("R1", "a", "b", 1e3), Resistor("R2", "c", GROUND, 2e3)))
    assert fb.loading_effect(net, SERIES_SERIES, ("a", "b"), ("c", GROUND)) == fb.LoadingModel(
        1000.0, 2000.0, 0.0)


def test_a_zero_pivot_with_a_non_zero_row_is_singular():
    # R1 and R2 cancel at b, which R1 still ties to the input side
    net = Circuit((Resistor("R1", "a", "b", -1e3), Resistor("R2", "b", GROUND, 1e3),
                   Resistor("R3", "c", GROUND, 1e3)))
    with pytest.raises(mna.SingularMatrix, match=r"^zero pivot with a non-zero row at V\(b\)$"):
        fb.loading_effect(net, SERIES_SERIES, ("a", GROUND), ("c", GROUND))


def assert_same_loading(got, expected, topo):
    """``got`` and ``expected``, each a loading or the error ``outcome``
    gives, agree: the same error, or each value within 1e-12."""
    if isinstance(expected, type) or isinstance(got, type):
        assert got == expected
        return
    assert got.R_if == pytest.approx(expected.R_if, rel=1e-12, abs=0.0)
    assert got.R_of == pytest.approx(expected.R_of, rel=1e-12, abs=0.0)
    # f is in ohms, siemens or a ratio: the port resistance to the power
    # (series sensing) - (shunt mixing).  An exactly zero transfer reads 0
    # on the whole network and the residue of the reduction's 34-digit
    # rounding on the reduced one.
    finite = [r for r in (expected.R_if, expected.R_of) if math.isfinite(r)]
    port_scale = math.prod(finite) ** (1 / len(finite)) if finite else 1.0
    power = (topo.output_sense is Mixing.SERIES) - (topo.input_mix is Mixing.SHUNT)
    f_scale = port_scale ** power
    if max(abs(got.f), abs(expected.f)) >= 1e-15 * f_scale:
        assert got.f == pytest.approx(expected.f, rel=1e-12, abs=0.0)


@settings(deadline=None)
@given(circuit=feedback_amplifiers(islands=True))
def test_loading_of_circuit_equals_loading_of_the_whole_network(circuit):
    # the reduced network must give the values and errors that the probes
    # of the whole network define; a floating island changes neither
    topo = fb.classify_topology(circuit)
    input_side, output_side = fb._classify(circuit)[1:]
    whole = circuit.feedback_network
    assert_same_loading(outcome(fb.loading_of_circuit, circuit),
                        outcome(three_probe_loading, whole, topo, input_side, output_side),
                        topo)


@st.composite
def four_port_networks(draw):
    """A ``resistor_meshes`` network on ground and n0 to n3..n7, with an
    input side and an output side on four distinct nodes of it."""
    names = [GROUND] + [f"n{i}" for i in range(draw(st.integers(4, 8)))]
    net = Circuit(tuple(draw(resistor_meshes(draw(st.permutations(names))))))
    a, b, c, d = draw(st.permutations(names))[:4]
    return net, (a, b), (c, d)


# f nearly cancels here (series-shunt): rounding the reduced network's
# resistances to float moved it by 2.1e-11 relative
CANCELLING = Circuit(tuple(Resistor(f"R{i}", a, b, ohms) for i, (a, b, ohms) in enumerate([
    ("n0", "n4", 438.48), (GROUND, "n4", 1706900.0), ("n2", "n4", 178.46),
    ("n5", "n2", 590.64), (GROUND, "n1", 110.18), ("n3", "n1", 2800.8),
    ("n6", "n2", 1483300.0), ("n3", "n2", 108.11), (GROUND, "n2", 9957500.0),
    ("n2", "n4", 5173200.0), ("n4", "n2", 16.423)])))


# f is exactly -RA here (series-series), with an input side off ground:
# reading it as the difference of two rounded node voltages missed by 2e-12
OFF_GROUND = Circuit((Resistor("RA", "n3", "n0", 12.07927323809593),
                      Resistor("RB", "n4", "n3", 204.62286046594238),
                      Resistor("RC", GROUND, "n3", 293308.6548226403),
                      Resistor("RD", "n1", "n0", 5555.64907244657)))


@pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: t.label)
@settings(deadline=None)
@given(case=four_port_networks())
@example(case=(CANCELLING, ("n5", "n0"), ("n3", "n6")))
@example(case=(OFF_GROUND, ("n0", "n3"), (GROUND, "n1")))
def test_loading_of_the_reduced_network_equals_loading_of_the_whole(topo, case):
    net, input_side, output_side = case
    reduced = mna.seen_at(net, input_side + output_side)
    assert_same_loading(outcome(fb.loading_effect, reduced, topo, input_side, output_side),
                        outcome(three_probe_loading, net, topo, input_side, output_side), topo)


def test_loading_with_both_ports_returned_to_a_node_outside_the_network():
    # r is in neither feedback element; each probe's short of the other
    # (shunt) port brings it in, so the loading has a value
    circuit = parse_netlist("Q1 b c 0 gm=40m rpi=2.5k ro=100k\nRF c b 47k\nRG b 0 10k\n"
                            "RC c r 4.7k\nRR r 0 1k\n.input b r\n.output c r\n.feedback RF RG")
    input_side, output_side = fb._classify(circuit)[1:]
    assert (input_side, output_side) == (("b", "r"), ("c", "r"))
    whole = circuit.feedback_network
    assert fb.loading_of_circuit(circuit) == fb.loading_effect(
        whole, fb.classify_topology(circuit), input_side, output_side)


def mesh_feedback_fig3a() -> Circuit:
    """fig3a with an 80-node resistive mesh as its feedback network."""
    rng = np.random.default_rng(80)
    nodes = ["c", "b"] + [f"f{i}" for i in range(1, 79)]
    pairs = [(a, nodes[int(rng.integers(0, i))]) for i, a in enumerate(nodes) if i]
    pairs += [tuple(map(str, rng.choice(nodes, 2, replace=False))) for _ in range(4)]
    feedback = [Resistor(f"RF{i}", a, b, float(10 ** rng.uniform(1, 7)))
                for i, (a, b) in enumerate(pairs)]
    device = (TYPICAL.g_m, TYPICAL.r_pi, TYPICAL.r_o)
    circuit = fig3_amplifier("fig3a", (device, device), (4.7e3, 4.7e3), feedback)
    assert len(circuit.nodes - {GROUND}) == 80
    return circuit


def assembled_dimensions(monkeypatch) -> list[int]:
    """The dimension of each system ``mna.assemble`` builds from now on."""
    dimensions = []
    assemble = mna.assemble

    def counted(lc):
        system = assemble(lc)
        dimensions.append(system.dimension)
        return system

    monkeypatch.setattr(mna, "assemble", counted)
    return dimensions


def test_loading_solves_only_systems_of_the_reduced_network(monkeypatch):
    # loading reads the two-port parameters off the mesh's three-node
    # equivalent, reduced once: it assembles no nodal system at all
    circuit = mesh_feedback_fig3a()
    dimensions = assembled_dimensions(monkeypatch)
    views = []
    seen_at = mna.seen_at

    def spied(lc, nodes):
        views.append(seen_at(lc, nodes))
        return views[-1]

    monkeypatch.setattr(mna, "seen_at", spied)
    loading = fb.loading_of_circuit(circuit)
    assert all(map(math.isfinite, (loading.R_if, loading.R_of, loading.f)))
    assert len(views) == 1 and len(views[0].nodes) <= 3
    assert dimensions == []


@pytest.mark.parametrize("route", [mna.driving_point_impedance,
                                   crosscheck.mason_driving_point_impedance])
def test_impedance_solves_only_systems_of_the_port_reduced_circuit(monkeypatch, route):
    # the mesh's 78 inner nodes are reduced away before either route probes
    circuit = mesh_feedback_fig3a()
    lc = linearize(circuit)
    dimensions = assembled_dimensions(monkeypatch)
    for port in (circuit.annotations.input_port, circuit.annotations.output_port):
        assert math.isfinite(route(lc, port))
    assert dimensions and max(dimensions) <= 8


def spied_circuits(monkeypatch, name: str) -> list[Circuit]:
    """The circuit of each call of the ``mna`` function ``name(lc, port)``
    from now on."""
    calls = []
    original = getattr(mna, name)

    def spied(lc, port):
        calls.append(lc)
        return original(lc, port)

    monkeypatch.setattr(mna, name, spied)
    return calls


ROUTES = (mna.driving_point_impedance, crosscheck.mason_driving_point_impedance)


@pytest.mark.parametrize("routes", [ROUTES, ROUTES[::-1]], ids=["mna-first", "mason-first"])
@pytest.mark.parametrize("side", ["input_port", "output_port"])
def test_both_impedance_routes_reduce_the_port_once(monkeypatch, routes, side):
    # whichever route runs second, or at the reversed port, probes the view
    # the first one built, and it is stamped and searched once for each
    # orientation of the port
    circuit = mesh_feedback_fig3a()
    lc, port = linearize(circuit), getattr(circuit.annotations, side)
    probed = spied_circuits(monkeypatch, "probed_system")
    searched = spied_circuits(monkeypatch, "port_is_open")
    first, second = (route(lc, port) for route in routes)
    assert second == pytest.approx(first, rel=crosscheck.ENGINE_RTOL)
    assert routes[0](lc, port[::-1]) == pytest.approx(first, rel=crosscheck.ENGINE_RTOL)
    view = mna.seen_at(lc, port)
    assert view is not lc and len(view.nodes) < 10
    for calls in (probed, searched):
        assert len(calls) == 2 and all(p is view for p in calls)


@settings(deadline=None)
@given(circuit=feedback_amplifiers())
def test_loading_and_both_routes_reduce_the_feedback_interior_once(circuit):
    # the port view is composed from the view loading keeps on the network:
    # that one view, made of the very resistors the port view holds
    outcome(fb.loading_of_circuit, circuit)
    lc, port = linearize(circuit), circuit.annotations.output_port
    for route in ROUTES:
        outcome(route, lc, port)
    network = circuit.feedback_network
    views = vars(network)["_seen_at"]
    # a network with no inner node has nothing to reduce, and keeps no view
    assert len(views) == bool(network.nodes - set(FIG3[circuit.title][1]) - {GROUND})
    elements = set(map(id, mna.seen_at(lc, port).elements))
    assert all(id(r) in elements for view in views.values() for r in view.elements)


def test_impedance_on_every_engine_reduces_the_port_once(monkeypatch, tmp_path, capsys):
    net = tmp_path / "mesh.net"
    net.write_text(serialize(mesh_feedback_fig3a()))
    probed = spied_circuits(monkeypatch, "probed_system")
    assert cli.main(["impedance", str(net), "--port", "c", "0", "--all-engines"]) == 0
    assert "mason" in capsys.readouterr().out
    assert len(probed) == 1 and len(probed[0].nodes) < 10


@pytest.mark.parametrize("build, port", [
    (lambda: crosscheck.build_case1_circuit(TYPICAL), crosscheck.CASE1_PORT),
    (lambda: linearize(mesh_feedback_fig3a()), ("c", GROUND)),
], ids=["case-circuit", "reduced-mesh"])
def test_a_probed_circuit_goes_with_its_last_reference(build, port):
    # the view kept on a circuit refers to no circuit, so no cycle holds it
    gc.disable()
    try:
        lc = build()
        for route in ROUTES:
            route(lc, port)
        ref = weakref.ref(lc)
        del lc
        assert ref() is None
    finally:
        gc.enable()


def test_loading_of_circuit_on_bridge_fixture(netlists_dir):
    circuit = parse_netlist_file(str(netlists_dir / "fig3d.net"))
    loading = fb.loading_of_circuit(circuit)
    assert loading.R_if == pytest.approx(11e3, rel=1e-12)
    assert loading.R_of == pytest.approx(10e3 / 11.0, rel=1e-12)
    assert loading.f == pytest.approx(-1.0 / 11.0, rel=1e-12)


def test_feedback_ports_inference(netlists_dir):
    circuit = parse_netlist_file(str(netlists_dir / "fig4.net"))
    input_side, output_side = fb._classify(circuit)[1:]
    assert input_side == ("e", "0")
    assert output_side == ("e", "0")


# --------------------------------------------------------------------------
# Closed forms (frozen against hand arithmetic on the printed expressions)
# --------------------------------------------------------------------------

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


def test_simplified_form_inside_its_validity_region():
    # Where R1 (beta+1)(K+1) >> r_out (beta+1) + r_pi the loop gain is
    # large: the printed case-1 closed form tends to r_o beta and the nodal
    # value to r_o (beta+1) + (r_out + r_pi)/(K+1).  beta >= 250 bounds the
    # first gap by 0.4%, and r_o (beta+1)(K+1) >> r_out + r_pi the second.
    # The derivation's third condition, r_pi >> r_out, is kept with them.
    # Each ">>" is a ratio of at least 500.  The first condition alone
    # bounds nothing: the closed form is then up to 98% off.
    rng = np.random.default_rng(5)
    kept = 0
    while kept < 40:
        p = draw_params(rng)
        if p.beta < 250:
            continue
        if p.R1 * (p.beta + 1) * (p.K + 1) < 500 * (p.r_out * (p.beta + 1) + p.r_pi):
            continue
        if p.r_pi < 500 * p.r_out:
            continue
        if p.r_o * (p.beta + 1) * (p.K + 1) < 500 * (p.r_out + p.r_pi):
            continue
        kept += 1
        exact = crosscheck.mna_rx(1, p)
        assert abs(fb.closed_form_rx_case1(p) - exact) / exact < 0.01
