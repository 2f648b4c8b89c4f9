import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given

from feedback_lens import crosscheck as cc, mna
from feedback_lens.feedback import feedback_ports, loading_of_circuit
from feedback_lens.netlist import (
    GROUND, ISource, Resistor, Vccs, Vcvs, VSource, parse_netlist,
)
from feedback_lens.smallsignal import LinearCircuit, linearize, restrict

from support import active_meshes, conductance_impedance_oracle, random_resistor_mesh

# Nodal solutions of the two measurement models, computed from their node
# equations with an independent numpy solve before the solver was written.
CASE1_R_X = 6758132.690389155
CASE2_R_X = 956986.6698405142


def test_assemble_dimensions():
    lc = linearize(parse_netlist("V1 a 0 1\nR1 a m 1k\nR2 m 0 1k"))
    system = mna.assemble(lc)
    assert system.dimension == 3  # two node voltages + one branch current
    assert set(system.index) == {"V(a)", "V(m)", "I(V1)"}


def test_assemble_empty_circuit():
    system = mna.assemble(LinearCircuit.of([]))
    assert system.dimension == 0
    assert mna.solve(system) == mna.Solution({}, {})


def test_voltage_divider():
    lc = linearize(parse_netlist("V1 a 0 1\nR1 a m 1k\nR2 m 0 1k"))
    solution = mna.solve_circuit(lc)
    assert solution.voltage("m") == pytest.approx(0.5, rel=1e-12)
    assert solution.voltage("a") == pytest.approx(1.0, rel=1e-12)
    # branch current is defined + to - through the source, so a sourcing
    # supply reads negative
    assert solution.branch_currents["V1"] == pytest.approx(-1.0 / 2000.0, rel=1e-12)


def test_current_source_direction():
    # 1 A drawn from ground and delivered into node a across 50 ohm.
    lc = LinearCircuit.of([ISource("I1", GROUND, "a", 1.0), Resistor("R1", "a", GROUND, 50.0)])
    solution = mna.solve_circuit(lc)
    assert solution.voltage("a") == pytest.approx(50.0, rel=1e-12)


def test_contradictory_sources_raise():
    lc = LinearCircuit.of(
        [
            VSource("V1", "a", GROUND, 1.0),
            VSource("V2", "a", GROUND, 2.0),
            Resistor("R1", "a", GROUND, 1e3),
        ]
    )
    with pytest.raises(mna.SingularMatrix):
        mna.solve(mna.assemble(lc))


def test_floating_subcircuit_raises():
    lc = LinearCircuit.of(
        [
            VSource("V1", "a", GROUND, 1.0),
            Resistor("R1", "a", GROUND, 1e3),
            Resistor("R2", "x", "y", 1e3),
        ]
    )
    with pytest.raises(mna.SingularMatrix):
        mna.solve(mna.assemble(lc))


def _system(rows, rhs):
    rows = tuple({j: Decimal(v) for j, v in row.items()} for row in rows)
    return mna.MnaSystem(rows, tuple(map(Decimal, rhs)), {"V(a)": 0, "V(b)": 1},
                         ("a", "b"), ())


def test_pivot_is_judged_relative_to_its_row():
    # after elimination the second row keeps 1e-7 of entries of size 1e6:
    # a scaled pivot of 1e-13, numerically singular
    near = _system([{0: 1e6, 1: 1e6}, {0: 1e6, 1: 1e6 + 1e-7}], [1.0, 1.0])
    with pytest.raises(mna.SingularMatrix, match="pivot vanished"):
        mna.solve(near)
    # a row of tiny entries is well scaled: 1 A into 1e15 ohm
    tiny = _system([{0: 1e-15}, {0: -1e-15, 1: 2e-15}], [1.0, 0.0])
    voltages = mna.solve(tiny).node_voltages
    assert voltages["a"] == pytest.approx(1e15, rel=1e-12)
    assert voltages["b"] == pytest.approx(5e14, rel=1e-12)


def test_assembled_rows_hold_only_non_zero_entries():
    # the VCCS cancels R1's off-diagonal entry in row a exactly
    lc = LinearCircuit.of([Resistor("R1", "a", "b", 1024.0), Resistor("R2", "b", GROUND, 1e3),
                           Vccs("G1", "a", GROUND, "b", GROUND, 1 / 1024)])
    system = mna.assemble(lc)
    assert set(system.rows[system.index["V(a)"]]) == {system.index["V(a)"]}
    assert all(all(row.values()) for row in system.rows)


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
    lc = LinearCircuit.of([Resistor("R1", "a", GROUND, 1e3), Resistor("R2", "x", "y", 1e3)])
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
    lc = LinearCircuit.of([Resistor("R1", "a", GROUND, 1e3)])
    with pytest.raises(mna.UnknownNode, match="'absent'"):
        route(lc, port)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("r1, r2", [(4.7e3, 2.2e4), (4.7e-3, 4.7e-3), (4.7e9, 4.7e9)])
def test_port_behind_a_floating_resistor_chain_is_open(route, r1, r2):
    lc = LinearCircuit.of([Resistor("R1", "a", "b", r1), Resistor("R2", "c", "b", r2)])
    assert route(lc, ("a", GROUND)) == math.inf


@pytest.mark.parametrize("route", ROUTES)
def test_open_output_side_of_a_split_feedback_network(route):
    circuit = parse_netlist(SPLIT_FEEDBACK)
    _, output_side = feedback_ports(circuit)
    network = restrict(linearize(circuit), circuit.annotations.feedback_elements)
    assert route(network, output_side) == math.inf
    assert loading_of_circuit(circuit).R_of == math.inf


def test_stamps_cancel_exactly_on_open_feedback_ports(netlists_dir):
    # Every decimal operation runs at 34 digits; one left at the default 28
    # digits leaves a residue of about 1e-32 A on these ports.
    for text in ((netlists_dir / "irrelevant.net").read_text(), SPLIT_FEEDBACK):
        circuit = parse_netlist(text)
        _, output_side = feedback_ports(circuit)
        network = restrict(linearize(circuit), circuit.annotations.feedback_elements)
        solution = mna.solve(mna.probed_system(network, output_side))
        assert solution.branch_currents[mna.TEST_SOURCE] == 0.0


# A high-impedance port beside a large conductance elsewhere, |Z G| = 1e15
# and 1e21: its small current is real, not rounding residue.
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("ohms, other", [(1e12, 1e-3), (1e15, 1e-6)])
def test_high_impedance_port_beside_a_large_conductance_is_finite(route, ohms, other):
    lc = LinearCircuit.of([Resistor("R1", "a", GROUND, ohms),
                           Resistor("R2", "b", GROUND, other)])
    assert route(lc, ("a", GROUND)) == pytest.approx(ohms, rel=1e-12)


@pytest.mark.parametrize("route", ROUTES)
def test_port_on_an_idle_transconductance_draws_no_current(route):
    # G1's output joins a to ground, but its control voltage stays zero
    lc = LinearCircuit.of([Vccs("G1", "a", GROUND, "c", GROUND, 1e-3),
                           Resistor("R1", "c", GROUND, 1e3)])
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
    lc = LinearCircuit.of(elements)
    # R1, G1's output, E1's output and V1 join a to e; I1 is zeroed to an open
    assert not mna.port_is_open(lc, ("a", "e"))
    assert not mna.port_is_open(lc, ("e", "a"))
    assert mna.port_is_open(lc, ("a", GROUND))
    assert mna.port_is_open(lc, ("a", "absent"))
    assert mna.port_is_open(lc, ("absent", "a"))
    grounded = lc.with_elements(Resistor("R2", "e", GROUND, 1.0))
    assert not mna.port_is_open(grounded, ("a", GROUND))


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
    # reading the test branch after forward elimination is the full solve's
    # back substitution of that one unknown: equal to the bit
    lc, port = case

    def outcome(route):
        try:
            return repr(route())
        except mna.SingularMatrix:
            return "SingularMatrix"

    def full_solve():
        solution = mna.solve(mna.probed_system(lc, port))
        return mna.impedance_from_current(-solution.branch_currents[mna.TEST_SOURCE], lc, port)

    assert outcome(lambda: mna.driving_point_impedance(lc, port)) == outcome(full_solve)


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
        a = LinearCircuit.of(mesh.elements + (ISource("Iprobe", GROUND, "n1", 1.0),))
        b = LinearCircuit.of(mesh.elements + (ISource("Iprobe", GROUND, "n3", 1.0),))
        va = mna.solve_circuit(a).voltage("n3")
        vb = mna.solve_circuit(b).voltage("n1")
        assert va == pytest.approx(vb, rel=1e-12)


def test_superposition():
    rng = np.random.default_rng(11)
    for _ in range(10):
        mesh = random_resistor_mesh(rng, n_nodes=5)
        v_src = VSource("Vs", "n1", GROUND, float(rng.uniform(0.5, 5.0)))
        i_src = ISource("Is", GROUND, "n3", float(rng.uniform(0.1, 2.0)))
        both = mna.solve_circuit(LinearCircuit.of(mesh.elements + (v_src, i_src)))
        only_v = mna.solve_circuit(
            LinearCircuit.of(mesh.elements + (v_src, ISource("Is", GROUND, "n3", 0.0)))
        )
        only_i = mna.solve_circuit(
            LinearCircuit.of(mesh.elements + (VSource("Vs", "n1", GROUND, 0.0), i_src))
        )
        for node in both.node_voltages:
            total = only_v.voltage(node) + only_i.voltage(node)
            assert both.voltage(node) == pytest.approx(total, rel=1e-12, abs=1e-15)


def test_parallel_and_series_composition():
    rng = np.random.default_rng(13)
    for _ in range(25):
        ra = float(10 ** rng.uniform(1, 7))
        rb = float(10 ** rng.uniform(1, 7))
        parallel = LinearCircuit.of(
            [Resistor("Ra", "p", GROUND, ra), Resistor("Rb", "p", GROUND, rb)]
        )
        series = LinearCircuit.of(
            [Resistor("Ra", "p", "m", ra), Resistor("Rb", "m", GROUND, rb)]
        )
        assert mna.driving_point_impedance(parallel, ("p", GROUND)) == pytest.approx(
            ra * rb / (ra + rb), rel=1e-12
        )
        assert mna.driving_point_impedance(series, ("p", GROUND)) == pytest.approx(
            ra + rb, rel=1e-12
        )


def test_transfer_divider_and_buffer():
    divider = linearize(parse_netlist("V1 a 0 5\nR1 a m 1k\nR2 m 0 1k"))
    assert mna.transfer(divider, "V1", ("m", GROUND)) == pytest.approx(0.5, rel=1e-12)
    buffer = LinearCircuit.of(
        [
            VSource("V1", "a", GROUND, 2.0),
            Resistor("R1", "a", GROUND, 1e3),
            Vcvs("E1", "out", GROUND, "a", GROUND, 1.0),
            Resistor("R2", "out", GROUND, 1e3),
        ]
    )
    assert mna.transfer(buffer, "V1", ("out", GROUND)) == pytest.approx(1.0, rel=1e-12)


def test_transfer_open_loop_branch_current():
    # Open-loop drive of the case-1 stage: the controlled source follows the
    # input directly (feedback path cut), the collector is tied to ground and
    # r_o omitted, so i_o/v_in = K / (R1 + (r_out + r_pi)/(beta + 1)).
    from feedback_lens.netlist import Vccs

    beta, k, r_out, r_pi, r1 = 100.0, 1000.0, 500e3, 2.5e3, 1e3
    gm = beta / r_pi
    lc = LinearCircuit.of(
        [
            VSource("Vin", "vin", GROUND, 1.0),
            Vcvs("Eop", "t", GROUND, "vin", GROUND, k),
            Resistor("Rout", "t", "b", r_out),
            Resistor("Rpi", "b", "e", r_pi),
            Vccs("Gm", GROUND, "e", "b", "e", gm),
            Resistor("R1", "e", GROUND, r1),
        ]
    )
    expected = k / (r1 + (r_out + r_pi) / (beta + 1.0))
    i_o_per_volt = mna.transfer(lc, "Vin", ("e", GROUND)) / r1
    assert i_o_per_volt == pytest.approx(expected, rel=1e-9)
    assert expected == pytest.approx(202.0 / 1207.0, rel=1e-12)


def test_transfer_drops_nodes_of_zeroed_current_sources():
    # x is touched only by I1, which zeroing opens; it must not stay an
    # unknown with an empty row.
    lc = linearize(parse_netlist("I1 0 x 1\nI2 0 a 1\nR1 a 0 1k"))
    assert mna.transfer(lc, "I2", ("a", GROUND)) == pytest.approx(1000.0, rel=1e-12)
    assert mna.driving_point_impedance(lc, ("a", GROUND)) == pytest.approx(1000.0, rel=1e-12)


def test_transfer_unknown_source():
    lc = linearize(parse_netlist("R1 a 0 1k"))
    with pytest.raises(mna.UnknownSource):
        mna.transfer(lc, "R1", ("a", GROUND))


def test_residual_is_tight():
    lc = linearize(parse_netlist("V1 a 0 1\nR1 a m 1k\nR2 m 0 1k\nR3 m b 10k\nR4 b 0 1M"))
    system = mna.assemble(lc)
    solution = mna.solve(system)
    x = np.zeros(system.dimension)
    for name, i in system.index.items():
        if name.startswith("V("):
            x[i] = solution.node_voltages[name[2:-1]]
        else:
            x[i] = solution.branch_currents[name[2:-1]]
    matrix = np.zeros((system.dimension, system.dimension))
    for i, row in enumerate(system.rows):
        for j, entry in row.items():
            matrix[i, j] = entry
    rhs = np.array(system.rhs, dtype=float)
    residual = np.max(np.abs(matrix @ x - rhs))
    assert residual <= 1e-9 * np.max(np.abs(rhs))


def test_transfer_unknown_observe_node():
    lc = linearize(parse_netlist("V1 a 0 1\nR1 a 0 1k"))
    with pytest.raises(mna.UnknownNode, match="unknown node 'zz'"):
        mna.transfer(lc, "V1", ("zz", GROUND))


def test_transfer_to_a_node_only_a_zeroed_source_touches():
    # q is in the circuit, but once I1 is opened nothing sets its voltage
    lc = linearize(parse_netlist("V1 a 0 1\nR1 a 0 1k\nI1 q 0 1"))
    with pytest.raises(mna.SingularMatrix, match="node 'q' floats"):
        mna.transfer(lc, "V1", ("q", GROUND))
