import math

import numpy as np
import pytest

from feedback_lens import mna
from feedback_lens.netlist import GROUND, ISource, Resistor, Vcvs, VSource, parse_netlist
from feedback_lens.smallsignal import LinearCircuit, linearize

from support import conductance_impedance_oracle, random_resistor_mesh

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
    lc = LinearCircuit.of([Resistor("R1", "a", GROUND, 1e3)])
    assert mna.driving_point_impedance(lc, ("floating", GROUND)) == math.inf


def test_case1_model_impedance(netlists_dir):
    lc = linearize(parse_netlist((netlists_dir / "fig7.net").read_text()))
    r = mna.driving_point_impedance(lc, ("c", GROUND))
    assert r == pytest.approx(CASE1_R_X, rel=1e-9)


def test_case2_model_impedance(netlists_dir):
    lc = linearize(parse_netlist((netlists_dir / "fig9.net").read_text()))
    r = mna.driving_point_impedance(lc, ("e", GROUND))
    assert r == pytest.approx(CASE2_R_X, rel=1e-9)


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
    residual = np.max(np.abs(system.matrix @ x - system.rhs))
    assert residual <= mna.RESIDUAL_RTOL * np.max(np.abs(system.rhs))


def test_transfer_unknown_observe_node():
    lc = linearize(parse_netlist("V1 a 0 1\nR1 a 0 1k"))
    with pytest.raises(mna.UnknownNode, match="unknown node 'zz'"):
        mna.transfer(lc, "V1", ("zz", GROUND))


def test_transfer_to_a_node_only_a_zeroed_source_touches():
    # q is in the circuit, but once I1 is opened nothing sets its voltage
    lc = linearize(parse_netlist("V1 a 0 1\nR1 a 0 1k\nI1 q 0 1"))
    with pytest.raises(mna.SingularMatrix, match="node 'q' floats"):
        mna.transfer(lc, "V1", ("q", GROUND))
