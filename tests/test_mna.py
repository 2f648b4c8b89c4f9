import decimal
import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from feedback_lens import crosscheck as cc, mna
from feedback_lens.feedback import AmplifierParams, _classify, loading_of_circuit
from feedback_lens.netlist import (
    GROUND, BjtPi, Circuit, ISource, OpAmp, Resistor, Vccs, Vcvs, VSource, parse_netlist,
)
from feedback_lens.smallsignal import linearize

from support import (CASES, active_meshes, conductance_impedance_oracle, decades,
                     feedback_amplifiers, outcome, random_resistor_mesh, reference_assemble,
                     reference_reduce_onto, resistive_networks, resistor_meshes,
                     unreduced_impedance)

# Nodal solutions of the two measurement models, computed from their node
# equations with an independent numpy solve before the solver was written.
CASE1_R_X = 6758132.690389155
CASE2_R_X = 956986.6698405142


def test_assemble_dimensions():
    lc = linearize(parse_netlist("V1 a 0 1\nR1 a m 1k\nR2 m 0 1k"))
    system = mna.assemble(lc)
    assert system.dimension == 3  # two node voltages + one branch current
    assert set(system.names) == {"V(a)", "V(m)", "I(V1)"}


def test_assemble_empty_circuit():
    system = mna.assemble(Circuit(()))
    assert system.dimension == 0
    assert mna.solve(system) == {}


@pytest.mark.parametrize("macro", [BjtPi("Q1", "b", "c", GROUND, 0.04, 2500.0, 1e5),
                                   OpAmp("X1", "b", GROUND, "c", 1e3, 500.0)])
def test_a_macro_is_not_stamped(macro):
    # a parsed circuit handed to the solver without linearize
    circuit = Circuit((Resistor("R1", "b", GROUND, 1e3), macro, Resistor("R2", "c", GROUND, 1e3)))
    for _ in range(2):  # no plan is kept for a shape that cannot be stamped
        with pytest.raises(TypeError, match=r"^cannot stamp element (BjtPi|OpAmp)\("):
            mna.assemble(circuit)


def stamped(system):
    """Every entry of ``system`` with its sign, digits and exponent, each
    row's in key order, then the right-hand side's, then the names."""
    return ([[(j, v.as_tuple()) for j, v in row.items()] for row in system.rows],
            [v.as_tuple() for v in system.rhs], system.names)


@st.composite
def stamped_circuits(draw):
    """Two circuits of one shape, each with values of its own: primitives of
    every kind on ground and up to four more nodes, whose resistors may be
    self-looped, infinite or of ``Decimal`` ohms, whose VCCSs may be
    controlled by a node against itself and whose values may be zero or
    need more than 34 digits."""
    node = st.sampled_from([GROUND] + [f"n{i}" for i in range(draw(st.integers(1, 4)))])
    kinds = draw(st.lists(st.sampled_from((Resistor, Vccs, Vcvs, VSource, ISource)),
                          min_size=1, max_size=8))
    shape = [(kind, draw(st.tuples(*[node] * (4 if kind in (Vccs, Vcvs) else 2))))
             for kind in kinds]
    ohms = decades(1, 7) | decades(1, 7).map(Decimal) | st.just(math.inf)
    value = st.floats(-1e3, 1e3) | decades(-4, 3)

    def circuit():
        return Circuit(tuple(kind(f"X{i}", *ends, draw(ohms if kind is Resistor else value))
                             for i, (kind, ends) in enumerate(shape)))

    return circuit(), circuit()


def every_kind(x: float) -> Circuit:
    """Primitives of every kind, with each corner case that
    ``stamped_circuits`` may draw, and each finite value scaled by ``x``."""
    return Circuit((
        Resistor("R1", "a", GROUND, math.inf), Resistor("R2", "b", "b", 1e3 * x),
        Vccs("G1", "a", "b", "b", "b", 1e-3 * x), Vcvs("E1", "b", GROUND, "a", GROUND, 2 * x),
        VSource("V1", "a", "b", 0.1 * x), ISource("I1", GROUND, "b", 0.1 * x),
        ISource("I2", "b", GROUND, 0.3 * x), Resistor("R3", "b", GROUND, Decimal(4.7e3 * x))))


@settings(max_examples=300, deadline=None)
@given(stamped_circuits())
@example((every_kind(1.0), every_kind(0.7)))
def test_a_kept_plan_stamps_as_a_fresh_stamping(circuits):
    # the cache is not cleared: a plan that an earlier example kept for the
    # same shape, or under a wrong key, shows as a difference here
    for lc in circuits:
        assert stamped(mna.assemble(lc)) == stamped(reference_assemble(lc))


@pytest.mark.parametrize("kind, values", [(VSource, (1.0,)), (Vcvs, ("a", GROUND, 2.0))])
def test_renaming_a_voltage_source_renames_its_branch_current(kind, values):
    for name in ("V1", "V2", "V1"):
        lc = Circuit((Resistor("R1", "a", GROUND, 1e3), kind(name, "a", "b", *values),
                      Resistor("R2", "b", GROUND, 1e3)))
        assert mna.assemble(lc).names == ("V(a)", "V(b)", f"I({name})")


def test_an_infinite_resistance_opens_a_port_of_the_same_shape():
    for ohms, is_open in ((2e3, False), (math.inf, True), (3e3, False), (math.inf, True)):
        lc = Circuit((Resistor("R1", "a", GROUND, 1e3), Resistor("R2", "a", "b", ohms)))
        assert mna.port_is_open(lc, ("b", GROUND)) is is_open, ohms


def test_a_plan_is_kept_per_shape_and_never_per_value():
    # the sweep workload revisits its points: a kept value would count as a
    # speed-up that a real sweep never sees
    mna._plan.cache_clear()
    mna._is_open.cache_clear()
    impedances = {mna.driving_point_impedance(cc.build_case2_circuit(
        AmplifierParams(K=1e4, r_out=100.0, R1=1e3, g_m=0.04, r_pi=2500.0, r_o=1e5 + i)),
        cc.CASE2_PORT) for i in range(50)}
    assert len(impedances) == 50
    assert mna._plan.cache_info().currsize == 1
    assert mna._is_open.cache_info().currsize == 1


def test_voltage_divider():
    lc = linearize(parse_netlist("V1 a 0 1\nR1 a m 1k\nR2 m 0 1k"))
    solution = mna.solve(mna.assemble(lc))
    assert solution["V(m)"] == pytest.approx(0.5, rel=1e-12)
    assert solution["V(a)"] == pytest.approx(1.0, rel=1e-12)
    # branch current is defined + to - through the source, so a sourcing
    # supply reads negative
    assert solution["I(V1)"] == pytest.approx(-1.0 / 2000.0, rel=1e-12)


def test_current_source_direction():
    # 1 A drawn from ground and delivered into node a across 50 ohm.
    lc = Circuit((ISource("I1", GROUND, "a", 1.0), Resistor("R1", "a", GROUND, 50.0)))
    solution = mna.solve(mna.assemble(lc))
    assert solution["V(a)"] == pytest.approx(50.0, rel=1e-12)


def test_contradictory_sources_raise():
    lc = Circuit(
        (
            VSource("V1", "a", GROUND, 1.0),
            VSource("V2", "a", GROUND, 2.0),
            Resistor("R1", "a", GROUND, 1e3),
        )
    )
    with pytest.raises(mna.SingularMatrix):
        mna.solve(mna.assemble(lc))


def test_floating_subcircuit_raises():
    lc = Circuit(
        (
            VSource("V1", "a", GROUND, 1.0),
            Resistor("R1", "a", GROUND, 1e3),
            Resistor("R2", "x", "y", 1e3),
        )
    )
    with pytest.raises(mna.SingularMatrix):
        mna.solve(mna.assemble(lc))


def test_zero_row_names_its_unknown(netlists_dir):
    # vin touches only the op-amp's input, so no current enters or leaves it
    lc = linearize(parse_netlist((netlists_dir / "fig4.net").read_text()))
    with pytest.raises(mna.SingularMatrix, match=r"^zero row in system matrix for V\(vin\)$"):
        mna.driving_point_impedance(lc, ("c", GROUND))


def _system(rows, rhs):
    rows = tuple({j: Decimal(v) for j, v in row.items()} for row in rows)
    return mna.MnaSystem(rows, tuple(map(Decimal, rhs)), ("V(a)", "V(b)"))


def test_pivot_is_judged_relative_to_its_row():
    # after elimination the second row keeps 1e-7 of entries of size 1e6:
    # a scaled pivot of 1e-13, numerically singular
    near = _system([{0: 1e6, 1: 1e6}, {0: 1e6, 1: 1e6 + 1e-7}], [1.0, 1.0])
    with pytest.raises(mna.SingularMatrix, match="pivot vanished"):
        mna.solve(near)
    # a row of tiny entries is well scaled: 1 A into 1e15 ohm
    tiny = _system([{0: 1e-15}, {0: -1e-15, 1: 2e-15}], [1.0, 0.0])
    voltages = mna.solve(tiny)
    assert voltages["V(a)"] == pytest.approx(1e15, rel=1e-12)
    assert voltages["V(b)"] == pytest.approx(5e14, rel=1e-12)


def test_assembled_rows_hold_only_non_zero_entries():
    # the VCCS cancels R1's off-diagonal entry in row a exactly
    lc = Circuit((Resistor("R1", "a", "b", 1024.0), Resistor("R2", "b", GROUND, 1e3),
                  Vccs("G1", "a", GROUND, "b", GROUND, 1 / 1024)))
    system = mna.assemble(lc)
    a = system.names.index("V(a)")
    assert set(system.rows[a]) == {a}
    assert all(all(row.values()) for row in system.rows)


def test_a_stamp_that_carries_no_current_leaves_no_entry():
    # G1's control nodes are equal and G2's output nodes are, so neither
    # moves current between nodes.  Stamped, each one's entries in row a
    # would cancel only up to the 34-digit rounding of -0.1 and leave 2e-36
    # there, a pivot on which the flow-graph route reads the mesh's port as
    # open.
    for g in (Vccs("G1", GROUND, "a", "b", "b", 0.1), Vccs("G2", "a", "a", GROUND, "b", 0.1)):
        lc = Circuit((Resistor("R1", "a", GROUND, 10.0), g, Resistor("R2", "b", GROUND, 10.0)))
        assert [set(row) for row in mna.assemble(lc).rows] == [{0}, {1}], g.name
    mesh = parse_netlist("R1 n1 0 10\nR2 n2 0 10\nR5 n5 0 10\nG1 0 n5 n2 n2 0.1\n"
                         "Q1 n5 n2 n1 gm=1 rpi=10 ro=10")
    expected = conductance_impedance_oracle(mesh, (GROUND, "n1"))
    assert expected == pytest.approx(20 / 9, rel=1e-15)
    for route in ROUTES:
        assert route(linearize(mesh), (GROUND, "n1")) == pytest.approx(expected, rel=1e-12)


def test_series_resistors_driving_point():
    lc = linearize(parse_netlist("R1 p m 1k\nR2 m 0 2k"))
    assert mna.driving_point_impedance(lc, ("p", GROUND)) == pytest.approx(3e3, rel=1e-12)


def test_driving_point_zeroes_sources():
    lc = linearize(parse_netlist("V1 p 0 5\nR1 p m 1k\nR2 m 0 2k"))
    # the source shorts p to ground, so only R1 series R2 to the short remains
    assert mna.driving_point_impedance(lc, ("m", GROUND)) == pytest.approx(
        2e3 * 1e3 / 3e3, rel=1e-12
    )


def test_open_port_reports_infinity():
    # x exists, but no current path joins it to ground
    lc = Circuit((Resistor("R1", "a", GROUND, 1e3), Resistor("R2", "x", "y", 1e3)))
    assert mna.driving_point_impedance(lc, ("x", GROUND)) == math.inf


# irrelevant.net with RF split in two: the feedback network's output side
# is an open port, and the solve's rounding residue there must not read as a
# huge (or negative) finite impedance.
SPLIT_FEEDBACK = """\
Q1 b1 c1 0 gm=40m rpi=2.5k ro=100k
Q2 c1 c2 e2 gm=40m rpi=2.5k ro=100k
RC1 c1 0 4.7k
RC2 c2 0 4.7k
RE2 e2 0 1k
RFA c2 m 10k
RFB m c1 12k
.input b1 0
.output c2 0
.feedback RFA RFB
"""

ROUTES = [mna.driving_point_impedance, cc.mason_driving_point_impedance]


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("port", [("absent", GROUND), ("a", "absent")])
def test_absent_port_node_raises_unknown_node(route, port):
    lc = Circuit((Resistor("R1", "a", GROUND, 1e3),))
    with pytest.raises(mna.UnknownNode, match="'absent'"):
        route(lc, port)


@pytest.mark.parametrize("route", ROUTES)
def test_port_with_equal_nodes_is_rejected(route):
    lc = Circuit((Resistor("R1", "a", GROUND, 1e3),))
    with pytest.raises(ValueError, match=r"^port nodes must differ, got 'a' twice$"):
        route(lc, ("a", "a"))


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("r1, r2", [(4.7e3, 2.2e4), (4.7e-3, 4.7e-3), (4.7e9, 4.7e9)])
def test_port_behind_a_floating_resistor_chain_is_open(route, r1, r2):
    lc = Circuit((Resistor("R1", "a", "b", r1), Resistor("R2", "c", "b", r2)))
    assert route(lc, ("a", GROUND)) == math.inf


@pytest.mark.parametrize("route", ROUTES)
def test_open_output_side_of_a_split_feedback_network(route):
    circuit = parse_netlist(SPLIT_FEEDBACK)
    _, output_side = _classify(circuit)[1:]
    network = circuit.feedback_network
    assert route(network, output_side) == math.inf
    assert loading_of_circuit(circuit).R_of == math.inf


def test_stamps_cancel_exactly_on_open_feedback_ports(netlists_dir):
    # Every decimal operation runs at 34 digits; one left at the default 28
    # digits leaves a residue of about 1e-32 A on these ports.
    for text in ((netlists_dir / "irrelevant.net").read_text(), SPLIT_FEEDBACK):
        circuit = parse_netlist(text)
        _, output_side = _classify(circuit)[1:]
        network = circuit.feedback_network
        solution = mna.solve(mna.probed_system(network, output_side))
        assert solution[mna.TEST_CURRENT] == 0.0


# A high-impedance port beside a large conductance elsewhere, |Z G| = 1e15
# and 1e21: its small current is real, not rounding residue.
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("ohms, other", [(1e12, 1e-3), (1e15, 1e-6)])
def test_high_impedance_port_beside_a_large_conductance_is_finite(route, ohms, other):
    lc = Circuit((Resistor("R1", "a", GROUND, ohms), Resistor("R2", "b", GROUND, other)))
    assert route(lc, ("a", GROUND)) == pytest.approx(ohms, rel=1e-12)


@pytest.mark.parametrize("route", ROUTES)
def test_port_on_an_idle_transconductance_draws_no_current(route):
    # G1's output joins a to ground, but its control voltage stays zero
    lc = Circuit((Vccs("G1", "a", GROUND, "c", GROUND, 1e-3), Resistor("R1", "c", GROUND, 1e3)))
    assert not mna.port_is_open(lc, ("a", GROUND))
    assert route(lc, ("a", GROUND)) == math.inf


def test_port_is_open_follows_current_paths():
    elements = [
        Resistor("R1", "a", "b", 1e3),
        Vccs("G1", "b", "c", "a", GROUND, 1e-3),
        Vcvs("E1", "c", "d", "a", GROUND, 2.0),
        VSource("V1", "d", "e", 1.0),
        ISource("I1", "e", GROUND, 1.0),
    ]
    lc = Circuit(tuple(elements))
    # R1, G1's output, E1's output and V1 join a to e; I1 is zeroed to an open
    assert not mna.port_is_open(lc, ("a", "e"))
    assert not mna.port_is_open(lc, ("e", "a"))
    assert mna.port_is_open(lc, ("a", GROUND))
    assert mna.port_is_open(lc, ("a", "absent"))
    assert mna.port_is_open(lc, ("absent", "a"))
    grounded = Circuit(lc.elements + (Resistor("R2", "e", GROUND, 1.0),))
    assert not mna.port_is_open(grounded, ("a", GROUND))
    # an infinite resistance, and a VCCS controlled by a node against
    # itself, move no current, so neither joins e to ground
    for idle in (Resistor("R3", "e", GROUND, math.inf), Resistor("R4", "e", GROUND, -math.inf),
                 Vccs("G2", "e", GROUND, "a", "a", 1e-3), Vccs("G3", GROUND, "e", "e", "e", 1.0)):
        assert mna.port_is_open(Circuit(lc.elements + (idle,)), ("a", GROUND)), idle.name


@st.composite
def ports_bridged_by_no_current(draw):
    """A grounded ``resistor_meshes`` mesh holding port node a and a floating
    one holding port node b, with a VCCS inside it, joined only by an
    element that moves no current: an infinite resistance or a VCCS
    controlled by a node against itself.  The circuit and its port, either
    way round."""
    near = [GROUND, "a"] + [f"g{i}" for i in range(draw(st.integers(0, 3)))]
    far = ["b"] + [f"f{i}" for i in range(draw(st.integers(1, 4)))]
    island = [replace(e, name=f"F{e.name}") for e in draw(resistor_meshes(far))]
    node = st.sampled_from(far)
    gm = decades(-4, 0)
    island.append(Vccs("GF", draw(node), draw(node), draw(node), draw(node), draw(gm)))
    ends = draw(st.permutations([draw(st.sampled_from(near)), draw(node)]))
    control = draw(st.sampled_from(near + far))
    bridge = draw(st.sampled_from((Resistor("RB", *ends, math.inf),
                                   Vccs("GB", *ends, control, control, draw(gm)))))
    circuit = Circuit(tuple(draw(resistor_meshes(near)) + island + [bridge]))
    return circuit, tuple(draw(st.permutations(["a", "b"])))


# Only the infinite R2 joins a to b, so the port is open however the solve
# rounds: each circuit keeps every node in its view, and the solve's residue
# current once read there as a huge negative impedance, on MNA for the first
# and on the flow graph for the second.
BRIDGED_BY_INFINITY = (
    Resistor("R1", "a", GROUND, 1e3), Resistor("R2", "a", "b", math.inf),
    Resistor("R3", "b", "d", 3e3),
)


@given(ports_bridged_by_no_current())
@example((Circuit(BRIDGED_BY_INFINITY + (
    Resistor("R4", "d", "e", 7e3), Resistor("R5", "e", "b", 11e3),
    Vccs("G1", "d", "e", "d", "b", 1e-3))), ("a", "b")))
@example((Circuit(BRIDGED_BY_INFINITY + (
    Resistor("R4", "d", "b", 7e3), Vccs("G1", "d", "b", "d", "b", 1e-3))), ("a", "b")))
# With g_m = 1/R the island's f0 row is identically zero, so a solve of the
# open port's system would find it singular.
@example((Circuit((
    Resistor("R1", "a", GROUND, 10.0), Resistor("FR1", "f0", "b", 10.0),
    Resistor("FR2", "f1", "f0", 10.0), Vccs("GF", "b", "f0", "f1", "b", 0.1),
    Resistor("RB", GROUND, "b", math.inf))), ("a", "b")))
def test_a_port_bridged_only_by_no_current_is_open(case):
    circuit, port = case
    assert mna.port_is_open(circuit, port)
    for route in ROUTES:
        assert route(circuit, port) == math.inf, route.__name__


def test_case1_model_impedance(netlists_dir):
    lc = linearize(parse_netlist((netlists_dir / "fig7.net").read_text()))
    r = mna.driving_point_impedance(lc, ("c", GROUND))
    assert r == pytest.approx(CASE1_R_X, rel=1e-9)


def test_case2_model_impedance(netlists_dir):
    lc = linearize(parse_netlist((netlists_dir / "fig9.net").read_text()))
    r = mna.driving_point_impedance(lc, ("e", GROUND))
    assert r == pytest.approx(CASE2_R_X, rel=1e-9)


@given(active_meshes())
def test_driving_point_equals_the_full_solve(case):
    # the port reduction before the solve keeps 34 digits: equal to the bit
    _, lc, port = case

    def outcome(route):
        try:
            return repr(route())
        except mna.SingularMatrix:
            return "SingularMatrix"

    assert (outcome(lambda: mna.driving_point_impedance(lc, port))
            == outcome(lambda: unreduced_impedance(lc, port)))


@given(active_meshes())
def test_mna_matches_the_exact_oracle_on_active_meshes(case):
    # The flow-graph route is not held here: its double-precision node
    # elimination misses 1e-6, or raises ZeroDeterminant, on about one of
    # these meshes in a thousand.
    circuit, lc, port = case
    try:
        expected = conductance_impedance_oracle(circuit, port)
    except ZeroDivisionError:
        reject()  # the oracle's node matrix is singular
    assert mna.driving_point_impedance(lc, port) == pytest.approx(expected, rel=1e-12, abs=0)


def test_driving_point_matches_conductance_inversion_oracle():
    rng = np.random.default_rng(42)
    for _ in range(25):
        mesh = random_resistor_mesh(rng, n_nodes=5)
        port = ("n1", GROUND) if rng.uniform() < 0.5 else ("n2", "n4")
        expected = conductance_impedance_oracle(mesh, port)
        assert mna.driving_point_impedance(mesh, port) == pytest.approx(
            expected, rel=1e-9
        )


def test_reciprocity_on_passive_networks():
    rng = np.random.default_rng(7)
    for _ in range(20):
        mesh = random_resistor_mesh(rng, n_nodes=6)
        forward = mna.driving_point_impedance(mesh, ("n2", "n5"))
        backward = mna.driving_point_impedance(mesh, ("n5", "n2"))
        assert forward == pytest.approx(backward, rel=1e-12)
        # transfer reciprocity: voltage at (n3,0) per amp into (n1,0) equals
        # voltage at (n1,0) per amp into (n3,0)
        a = Circuit(mesh.elements + (ISource("Iprobe", GROUND, "n1", 1.0),))
        b = Circuit(mesh.elements + (ISource("Iprobe", GROUND, "n3", 1.0),))
        va = mna.solve(mna.assemble(a))["V(n3)"]
        vb = mna.solve(mna.assemble(b))["V(n1)"]
        assert va == pytest.approx(vb, rel=1e-12)


def test_superposition():
    rng = np.random.default_rng(11)
    for _ in range(10):
        mesh = random_resistor_mesh(rng, n_nodes=5)
        v_src = VSource("Vs", "n1", GROUND, float(rng.uniform(0.5, 5.0)))
        i_src = ISource("Is", GROUND, "n3", float(rng.uniform(0.1, 2.0)))
        both = mna.solve(mna.assemble(Circuit(mesh.elements + (v_src, i_src))))
        only_v = mna.solve(mna.assemble(
            Circuit(mesh.elements + (v_src, ISource("Is", GROUND, "n3", 0.0)))))
        only_i = mna.solve(mna.assemble(
            Circuit(mesh.elements + (VSource("Vs", "n1", GROUND, 0.0), i_src))))
        for name in (n for n in both if n.startswith("V(")):
            total = only_v[name] + only_i[name]
            assert both[name] == pytest.approx(total, rel=1e-12, abs=1e-15)


def test_parallel_and_series_composition():
    rng = np.random.default_rng(13)
    for _ in range(25):
        ra = float(10 ** rng.uniform(1, 7))
        rb = float(10 ** rng.uniform(1, 7))
        parallel = Circuit((Resistor("Ra", "p", GROUND, ra), Resistor("Rb", "p", GROUND, rb)))
        series = Circuit((Resistor("Ra", "p", "m", ra), Resistor("Rb", "m", GROUND, rb)))
        assert mna.driving_point_impedance(parallel, ("p", GROUND)) == pytest.approx(
            ra * rb / (ra + rb), rel=1e-12
        )
        assert mna.driving_point_impedance(series, ("p", GROUND)) == pytest.approx(
            ra + rb, rel=1e-12
        )


def test_transfer_open_loop_branch_current():
    # Open-loop drive of the case-1 stage: the controlled source follows the
    # input directly (feedback path cut), the collector is tied to ground and
    # r_o omitted, so i_o/v_in = K / (R1 + (r_out + r_pi)/(beta + 1)).
    from feedback_lens.netlist import Vccs

    beta, k, r_out, r_pi, r1 = 100.0, 1000.0, 500e3, 2.5e3, 1e3
    gm = beta / r_pi
    lc = Circuit(
        (
            VSource("Vin", "vin", GROUND, 1.0),
            Vcvs("Eop", "t", GROUND, "vin", GROUND, k),
            Resistor("Rout", "t", "b", r_out),
            Resistor("Rpi", "b", "e", r_pi),
            Vccs("Gm", GROUND, "e", "b", "e", gm),
            Resistor("R1", "e", GROUND, r1),
        )
    )
    expected = k / (r1 + (r_out + r_pi) / (beta + 1.0))
    i_o_per_volt = mna.solve(mna.assemble(lc))["V(e)"] / r1
    assert i_o_per_volt == pytest.approx(expected, rel=1e-9)
    assert expected == pytest.approx(202.0 / 1207.0, rel=1e-12)


def test_transfer_drops_nodes_of_zeroed_current_sources():
    # x is touched only by I1, which zeroing opens; it must not stay an
    # unknown with an empty row.
    lc = linearize(parse_netlist("I1 0 x 1\nI2 0 a 1\nR1 a 0 1k"))
    assert mna.driving_point_impedance(lc, ("a", GROUND)) == pytest.approx(1000.0, rel=1e-12)


def test_residual_is_tight():
    lc = linearize(parse_netlist("V1 a 0 1\nR1 a m 1k\nR2 m 0 1k\nR3 m b 10k\nR4 b 0 1M"))
    system = mna.assemble(lc)
    solution = mna.solve(system)
    x = np.array([solution[name] for name in system.names])
    matrix = np.zeros((system.dimension, system.dimension))
    for i, row in enumerate(system.rows):
        for j, entry in row.items():
            matrix[i, j] = entry
    rhs = np.array(system.rhs, dtype=float)
    residual = np.max(np.abs(matrix @ x - rhs))
    assert residual <= 1e-9 * np.max(np.abs(rhs))


# --------------------------------------------------------------------------
# Reduction onto kept nodes (star-mesh transform)
# --------------------------------------------------------------------------

def network(*branches):
    return Circuit(tuple(Resistor(f"R{i}", a, b, ohms)
                         for i, (a, b, ohms) in enumerate(branches)))


def equivalents(lc):
    """Ohms of each resistor of ``lc`` by its node pair; a self-looped one
    holding a node with no conductance reads under that node alone."""
    return {frozenset((e.n1, e.n2)): float(e.ohms) for e in lc.elements}


def test_reduce_series_chain():
    reduced = mna.seen_at(network(("a", "m1", 1e3), ("m1", "m2", 2e3), ("m2", "b", 4e3)),
                          {"a", "b"})
    assert reduced.nodes == {GROUND, "a", "b"}
    assert equivalents(reduced) == {frozenset("ab"): pytest.approx(7e3, rel=1e-15),
                                    frozenset(GROUND): math.inf}


def test_reduce_parallel_paths():
    # 3k directly, 1k + 2k through m and 2k + 4k through n: 3k || 3k || 6k
    reduced = mna.seen_at(network(("a", "b", 3e3), ("a", "m", 1e3), ("m", "b", 2e3),
                                  ("a", "n", 2e3), ("n", "b", 4e3)), {"a", "b"})
    assert equivalents(reduced)[frozenset("ab")] == pytest.approx(1.2e3, rel=1e-15)


def test_reduce_star_to_delta():
    ra, rb, rc = 1e3, 2.2e3, 4.7e4
    reduced = mna.seen_at(network(("a", "n", ra), ("b", "n", rb), ("c", "n", rc)),
                          {"a", "b", "c"})
    total = ra * rb + rb * rc + rc * ra
    assert equivalents(reduced) == {
        frozenset(GROUND): math.inf,  # ground, which no resistor touches, stays
        frozenset("ab"): pytest.approx(total / rc, rel=1e-15),
        frozenset("bc"): pytest.approx(total / ra, rel=1e-15),
        frozenset("ac"): pytest.approx(total / rb, rel=1e-15),
    }


def test_reduce_drops_a_dangling_leaf_at_no_cost():
    reduced = mna.seen_at(network(("a", GROUND, 5e3), ("a", "m1", 1e3), ("m1", "m2", 1e3)),
                          {"a", GROUND})
    assert reduced.nodes == {GROUND, "a"}
    assert equivalents(reduced) == {frozenset(("a", GROUND)): 5e3}


def test_reduce_keeps_an_isolated_kept_node_open():
    # c reaches only the interior node m: it stays a node with no conductance
    whole = network(("a", GROUND, 1e3), ("c", "m", 1e3))
    reduced = mna.seen_at(whole, {"a", "c", GROUND})
    assert reduced.nodes == {GROUND, "a", "c"}
    assert equivalents(reduced) == {frozenset(("a", GROUND)): 1e3, frozenset("c"): math.inf}
    for lc in (whole, reduced):
        assert mna.driving_point_impedance(lc, ("c", GROUND)) == math.inf
        with pytest.raises(mna.SingularMatrix):  # c floats once the probe leaves it
            mna.driving_point_impedance(lc, ("a", GROUND))


def test_reduce_leaves_a_floating_island_singular():
    whole = network(("a", GROUND, 1e3), ("m1", "m2", 1e3), ("m2", "m3", 1e3))
    reduced = mna.seen_at(whole, {"a", GROUND})
    assert len(reduced.nodes) == 3  # a, ground and the island's last node
    for lc in (whole, reduced):
        with pytest.raises(mna.SingularMatrix):
            mna.driving_point_impedance(lc, ("a", GROUND))


def test_reduce_preserves_the_driving_point_of_random_meshes():
    rng = np.random.default_rng(12)
    for _ in range(20):
        mesh = random_resistor_mesh(rng, n_nodes=12)
        reduced = mna.seen_at(mesh, {GROUND, "n1", "n2"})
        assert reduced.nodes == {GROUND, "n1", "n2"}
        for port in (("n1", GROUND), ("n2", "n1")):
            assert mna.driving_point_impedance(reduced, port) == pytest.approx(
                unreduced_impedance(mesh, port), rel=1e-14)


def test_reduce_drops_resistors_of_infinite_ohms():
    # m is joined to a and b only through infinite resistances: it floats
    lc = network(("a", GROUND, 1e3), ("a", "m", math.inf), ("m", "b", math.inf),
                 ("b", GROUND, 1e3))
    assert equivalents(mna.seen_at(lc, {"a", GROUND})) == {
        frozenset(("a", GROUND)): 1e3, frozenset("m"): math.inf}
    with pytest.raises(mna.SingularMatrix, match=r"^zero row in system matrix for V\(m\)$"):
        mna.driving_point_impedance(lc, ("a", GROUND))
    with pytest.raises(mna.SingularMatrix, match="structurally singular"):
        cc.mason_driving_point_impedance(lc, ("a", GROUND))


@settings(max_examples=400, deadline=None)
@given(network=resistive_networks())
def test_reduce_equals_the_reduction_that_converts_every_resistor_first(network):
    # dropping dangling branches before any decimal arithmetic moves no value,
    # and every element other than a resistor passes through
    lc, nodes = network
    others = tuple(e for e in lc.elements if not isinstance(e, Resistor))
    keep = {GROUND, *nodes}.union(*(e.terminals for e in others))
    view = mna.seen_at(lc, nodes)
    assert (view is lc) == (keep >= lc.nodes)
    if view is not lc:
        resistors = Circuit(tuple(e for e in lc.elements if isinstance(e, Resistor)))
        assert repr(view) == repr(Circuit(others + reference_reduce_onto(resistors, keep).elements))


def test_reduce_converts_no_resistor_of_a_dropped_branch():
    # a zero resistance, which validate rejects, raises only where it is converted
    dangling = network(("a", GROUND, 1e3), ("a", "m", 1e3), ("m", "n", 0.0))
    assert equivalents(mna.seen_at(dangling, {"a", GROUND})) == {
        frozenset(("a", GROUND)): 1e3}
    with pytest.raises(decimal.DivisionByZero):
        reference_reduce_onto(dangling, {"a", GROUND})
    with pytest.raises(decimal.DivisionByZero):
        mna.seen_at(network(("a", GROUND, 1e3), ("a", "m", 1e3), ("m", GROUND, 0.0)),
                    {"a", GROUND})


@pytest.mark.parametrize("case", [1, 2])
@pytest.mark.parametrize("r_in", [math.inf, 1e6])
def test_a_circuit_with_nothing_to_reduce_is_seen_as_itself(case, r_in):
    build, port = CASES[case]
    lc = build(AmplifierParams.typical(R_in=r_in))
    assert mna.seen_at(lc, port) is lc


def test_seen_at_keeps_the_control_nodes_of_a_vcvs():
    # cp touches only resistors and E1's control input; m only resistors
    lc = Circuit((Resistor("R1", "in", "m", 1e3), Resistor("R2", "m", "cp", 2e3),
                  Resistor("R3", "cp", GROUND, 3e3), Vcvs("E1", "out", GROUND, "cp", GROUND, -10.0),
                  Resistor("R4", "out", "in", 1e4)))
    port = ("in", GROUND)
    assert mna.seen_at(lc, port).nodes == {GROUND, "in", "cp", "out"}
    assert mna.driving_point_impedance(lc, port) == pytest.approx(
        unreduced_impedance(lc, port), rel=1e-12, abs=0)


@pytest.mark.parametrize("side", ["input_port", "output_port"])
@settings(deadline=None)
@given(circuit=feedback_amplifiers())
def test_impedance_of_the_port_reduced_circuit_matches_the_exact_oracle(side, circuit):
    # the feedback network's inner nodes are reduced away before the probe
    port = getattr(circuit.annotations, side)
    try:
        expected = conductance_impedance_oracle(circuit, port)
    except ZeroDivisionError:
        reject()  # the oracle's node matrix is singular
    assert mna.driving_point_impedance(linearize(circuit), port) == pytest.approx(
        expected, rel=1e-12, abs=0)


# Networks joined to the port through infinite resistances, which the parser
# rejects: a port open through its only path, a kept node joined to the
# rest only so, a floating node between two ports of it, a floating pair
# hanging from the port by one, and one in parallel with a finite path.
INFINITE_OHM_NETWORKS = {
    "open": (network(("a", "m", math.inf), ("m", GROUND, 1e3)), ("a", GROUND)),
    "isolated": (network(("a", GROUND, 1e3), ("c", "m", math.inf), ("m", GROUND, 1e3)),
                 ("c", GROUND)),
    "island": (network(("a", GROUND, 1e3), ("a", "m", math.inf), ("m", "b", math.inf),
                       ("b", GROUND, 1e3)), ("a", GROUND)),
    "floating pair": (network(("a", GROUND, 1e3), ("b", "c", 1e3), ("c", "a", math.inf)),
                      ("a", GROUND)),
    "shunted": (network(("a", GROUND, 1e3), ("a", "m", math.inf), ("m", GROUND, 2e3),
                        ("a", GROUND, math.inf)), ("a", GROUND)),
}


def amplifier_port(circuit):
    """``circuit`` at one of its annotated ports or, if it has an island,
    at the open port from the island's node j0 to its output node."""
    ann = circuit.annotations
    ports = [ann.input_port, ann.output_port]
    if "j0" in circuit.nodes:
        ports.append(("j0", ann.output_port[0]))
    return st.tuples(st.just(circuit), st.sampled_from(ports))


amplifier_ports = feedback_amplifiers(islands=True).flatmap(amplifier_port)


# The flow graph's arithmetic is double precision (ROADMAP item 4), so its
# values are held to the engine gate, not to the nodal route's 1e-12.
@pytest.mark.parametrize("route, rel", [(mna.driving_point_impedance, 1e-12),
                                        (cc.mason_driving_point_impedance, cc.ENGINE_RTOL)])
@settings(deadline=None)
@given(probe=amplifier_ports)
@example(probe=INFINITE_OHM_NETWORKS["open"])
@example(probe=INFINITE_OHM_NETWORKS["isolated"])
@example(probe=INFINITE_OHM_NETWORKS["island"])
@example(probe=INFINITE_OHM_NETWORKS["floating pair"])
@example(probe=INFINITE_OHM_NETWORKS["shunted"])
def test_openness_of_the_port_view_is_openness_of_the_whole_circuit(route, rel, probe):
    circuit, port = probe
    lc = linearize(circuit)
    got, expected = outcome(route, lc, port), outcome(unreduced_impedance, lc, port)
    if isinstance(expected, type):
        assert got is expected
    elif math.isinf(expected):
        assert got == expected
    else:
        assert got == pytest.approx(expected, rel=rel, abs=0)


def route_outcome(route, lc, port):
    """``route(lc, port)``, or the class of whatever it raised."""
    try:
        return route(lc, port)
    except Exception as exc:
        return type(exc)


@st.composite
def measured_amplifiers(draw):
    """The linearization of a ``feedback_amplifiers(islands=True)`` draw at
    a port of any two of its nodes, inner and island ones among them, after
    ``loading_of_circuit`` has kept its feedback network's view in a drawn
    half."""
    circuit = draw(feedback_amplifiers(islands=True))
    if draw(st.booleans()):
        outcome(loading_of_circuit, circuit)
    lc = linearize(circuit)
    return lc, tuple(draw(st.permutations(sorted(lc.nodes)))[:2])


# A fresh Circuit(lc.elements) carries no feedback network, so it is reduced
# whole, where the amplifier's linearization is composed from its network's.
shared_probes = st.one_of(active_meshes().map(lambda case: case[1:]), measured_amplifiers())


@settings(deadline=None)
@given(probe=shared_probes, order=st.permutations(range(4)))
@example(probe=INFINITE_OHM_NETWORKS["open"], order=[0, 1, 2, 3])
@example(probe=(Circuit(BRIDGED_BY_INFINITY + (
    Resistor("R4", "d", "b", 7e3), Vccs("G1", "d", "b", "d", "b", 1e-3))), ("a", "b")),
    order=[1, 0, 3, 2])
def test_a_shared_probe_answers_as_a_fresh_circuit(probe, order):
    # each route runs after the other, at the port and at its reverse, on one
    # circuit that keeps its probes; each answer is the one a circuit never
    # probed before gives, bit for bit, or raises the same class
    lc, port = probe
    calls = [(route, p) for route in ROUTES for p in (port, port[::-1])]
    for route, p in map(calls.__getitem__, order):
        fresh = route_outcome(route, Circuit(lc.elements), p)
        assert repr(route_outcome(route, lc, p)) == repr(fresh), (route.__name__, p)


@given(st.floats(allow_nan=False))
@example(5e-324)
@example(-2.2250738573e-308)
@example(1.7976931348623157e308)
@example(0.0)
@example(-0.0)
@example(math.inf)
@example(-math.inf)
def test_conductance_is_the_reciprocal_of_the_exact_decimal(ohms):
    with localcontext(mna.DECIMAL):
        try:
            expected = 1 / Decimal(ohms)
        except decimal.DivisionByZero:
            with pytest.raises(decimal.DivisionByZero):
                mna.conductance(ohms)
            return
        got = mna.conductance(ohms)
    assert got == expected and got.as_tuple() == expected.as_tuple()
