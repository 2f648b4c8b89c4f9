import itertools
import json
import math
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feedback_lens import crosscheck as cc, mna
from feedback_lens.feedback import AmplifierParams, exact_rx_case1, exact_rx_case2
from feedback_lens.netlist import GROUND, Circuit, ISource, Vcvs, VSource, parse_netlist_file
from feedback_lens.smallsignal import linearize

from support import (CASES, amplifier_params, decades, draw_params, feedback_amplifiers,
                     random_resistor_mesh)

TYPICAL = AmplifierParams.typical()


def test_case1_report_golden():
    report = cc.run_case(1, TYPICAL, cc.CrossCheckConfig(closed_error_band=(0.005, 0.0005)))
    assert report.values["closed_form"] == pytest.approx(6723980.678746291, rel=1e-12)
    for engine in ("exact_formula", "mason", "mna"):
        assert report.values[engine] == pytest.approx(6758132.690389, rel=1e-9)
    assert abs(report.closed_form_error - 0.005) <= 0.0005
    assert report.verdict == "pass"


def test_case2_report_golden():
    report = cc.run_case(2, TYPICAL, cc.CrossCheckConfig(closed_error_band=(0.0501, 0.001)))
    assert report.values["closed_form"] == pytest.approx(1005025.0, rel=1e-12)
    for engine in ("exact_formula", "mason", "mna"):
        assert report.values[engine] == pytest.approx(956986.6698405, rel=1e-9)
    assert abs(report.closed_form_error - 0.0501) <= 0.001
    assert report.verdict == "pass"


@pytest.mark.parametrize("engine", [cc.closed_rx, cc.exact_rx, cc.mason_rx, cc.mna_rx])
@pytest.mark.parametrize("case", [0, 3])
def test_engines_reject_unknown_case(engine, case):
    with pytest.raises(ValueError, match="case must be 1 or 2"):
        engine(case, TYPICAL)


def test_mna_rx_exact_on_badly_scaled_port():
    # Conductances span 1.7e-7 to 0.94 S; a LAPACK solve refined in extended
    # precision lands 6.4e-9 from the exact value here.
    values = dict(K=69e3, r_out=30e3, R1=5.8e6, g_m=0.94, r_pi=290.0, r_o=1.6e6)
    exact = exact_rx_case2(AmplifierParams(**{k: Fraction(v) for k, v in values.items()}))
    assert cc.mna_rx(2, AmplifierParams(**values)) == pytest.approx(float(exact), rel=1e-9)


def _exact_rx(case, p):
    """R_X of the exact formula evaluated in rational arithmetic."""
    names = ("K", "r_out", "R1", "g_m", "r_pi", "r_o")
    exact = AmplifierParams(**{f: Fraction(getattr(p, f)) for f in names})
    return float(exact_rx_case1(exact) if case == 1 else exact_rx_case2(exact))


@given(st.sampled_from((1, 2)), amplifier_params)
def test_mna_rx_matches_exact_rational_evaluation(case, p):
    assert cc.mna_rx(case, p) == pytest.approx(_exact_rx(case, p), rel=1e-12)


# Each parameter at either end of the draw_params ranges.
CORNERS = [
    AmplifierParams(K=K, r_out=r_out, R1=R1, g_m=g_m, r_pi=beta / g_m, r_o=r_o)
    for K, r_out, R1, r_o, g_m, beta in itertools.product(
        (10.0, 1e5), (10.0, 1e7), (10.0, 1e7), (10.0, 1e7), (1e-4, 1.0), (20.0, 500.0)
    )
]


@pytest.mark.parametrize("case", [1, 2])
def test_rx_at_the_parameter_corners_is_finite(case):
    # The double-precision flow graph of the nodal system loses up to
    # 2.1e-4 at the case-2 corners.
    circuit, port = CASES[case]
    for p in CORNERS:
        exact = _exact_rx(case, p)
        assert cc.mna_rx(case, p) == pytest.approx(exact, rel=1e-12), p
        assert cc.mason_driving_point_impedance(circuit(p), port) == pytest.approx(
            exact, rel=1e-3), p


def test_case2_error_shrinks_with_small_driver_resistance():
    report = cc.run_case(2, replace(TYPICAL, r_out=10.0))
    assert report.closed_form_error < 0.005
    # oracle arithmetic: closed = 1000025.1, exact = 999774.40762, so the
    # error relative to exact is 250.6924/999774.4
    assert report.closed_form_error == pytest.approx(250.6923763135 / 999774.4076236865, rel=1e-9)
    assert report.verdict == "pass"


def test_band_verdict_fails_when_error_leaves_band():
    config = cc.CrossCheckConfig(closed_error_band=(0.0501, 0.001))
    report = cc.run_case(2, replace(TYPICAL, r_out=10.0), config)
    assert report.verdict == "fail"


def test_engines_agree_on_random_draws():
    rng = np.random.default_rng(101)
    for _ in range(20):
        p = draw_params(rng)
        for case in (1, 2):
            report = cc.run_case(case, p)
            for pair in (
                "exact_formula vs mason",
                "exact_formula vs mna",
                "mason vs mna",
            ):
                assert report.relative_errors[pair] <= 1e-6, (case, pair)


def test_relative_error_is_symmetric_and_normalized():
    assert cc.relative_error(1.0, 2.0) == cc.relative_error(2.0, 1.0) == 0.5
    assert cc.relative_error(0.0, 0.0) == 0.0


def test_relative_error_needs_no_zero_threshold():
    # the scale is 0.0 only when both values are zeros, which agree exactly;
    # any other pair, however small, has a well-defined ratio, so a
    # threshold on the scale would only hide real disagreement
    assert cc.relative_error(0.0, -0.0) == 0.0
    assert cc.relative_error(5e-324, 0.0) == 1.0
    assert cc.relative_error(5e-324, 1e-323) == 0.5
    assert cc.relative_error(1e-310, -1e-310) == 2.0
    assert cc.relative_error(3e-320, 3e-320) == 0.0


def test_sweep_monotone_and_consistent():
    reports = cc.sweep(1, TYPICAL, "K", [10.0, 100.0, 1000.0])
    values = [r.values["exact_formula"] for r in reports]
    assert values == sorted(values) and values[0] < values[-1]
    assert cc.sweep(1, TYPICAL, "K", []) == []
    single = cc.sweep(1, TYPICAL, "R1", [TYPICAL.R1])
    assert cc.report_to_dict(single[0]) == cc.report_to_dict(cc.run_case(1, TYPICAL))
    with pytest.raises(ValueError):
        cc.sweep(1, TYPICAL, "bogus", [1.0])


def test_reports_are_deterministic_bytes():
    a = cc.run_case(1, TYPICAL)
    b = cc.run_case(1, TYPICAL)
    text = json.dumps(cc.report_to_dict(a), sort_keys=True, indent=2)
    assert text == json.dumps(cc.report_to_dict(b), sort_keys=True, indent=2)
    assert cc.report_table(a) == cc.report_table(b)
    payload = json.loads(text)
    assert payload["verdict"] == "pass"
    assert set(payload["values"]) == set(cc.ENGINES)


def test_flow_graph_of_system_reproduces_sensitivities(netlists_dir):
    from feedback_lens import sfg
    from feedback_lens.netlist import VSource

    lc = linearize(parse_netlist_file(str(netlists_dir / "fig7.net")))
    driven = Circuit(lc.elements + (VSource("Vs", "c", GROUND, 1.0),))
    system = mna.assemble(driven)
    graph = cc.flow_graph_of_system(system)
    gain = sfg.mason_gain(graph, "src", "V(e)")
    solution = mna.solve(system)
    assert gain == pytest.approx(solution["V(e)"], rel=1e-9)


def test_mason_driving_point_impedance_matches_lu_route():
    rng = np.random.default_rng(55)
    for _ in range(10):
        mesh = random_resistor_mesh(rng, n_nodes=4, extra_edges=2)
        direct = mna.driving_point_impedance(mesh, ("n1", GROUND))
        via_graph = cc.mason_driving_point_impedance(mesh, ("n1", GROUND))
        assert via_graph == pytest.approx(direct, rel=1e-9)


def test_mason_driving_point_impedance_on_case_models(netlists_dir):
    fig7 = linearize(parse_netlist_file(str(netlists_dir / "fig7.net")))
    assert cc.mason_driving_point_impedance(fig7, ("c", GROUND)) == pytest.approx(
        6758132.690389, rel=1e-6
    )
    fig9 = linearize(parse_netlist_file(str(netlists_dir / "fig9.net")))
    assert cc.mason_driving_point_impedance(fig9, ("e", GROUND)) == pytest.approx(
        956986.6698405, rel=1e-6
    )


def test_fixture_models_match_builders(netlists_dir):
    fig7 = linearize(parse_netlist_file(str(netlists_dir / "fig7.net")))
    assert mna.driving_point_impedance(fig7, cc.CASE1_PORT) == pytest.approx(
        cc.mna_rx(1, TYPICAL), rel=1e-12
    )
    fig9 = linearize(parse_netlist_file(str(netlists_dir / "fig9.net")))
    assert mna.driving_point_impedance(fig9, cc.CASE2_PORT) == pytest.approx(
        cc.mna_rx(2, TYPICAL), rel=1e-12
    )


def test_finite_input_resistance_is_supported():
    loaded = replace(TYPICAL, R_in=1e6)
    r_with = cc.mna_rx(1, loaded)
    r_without = cc.mna_rx(1, TYPICAL)
    assert r_with != pytest.approx(r_without, rel=1e-6)
    assert r_with == pytest.approx(r_without, rel=0.05)  # large R_in: small shift


@given(st.sampled_from((1, 2)), amplifier_params, decades(1, 7))
def test_exact_engines_agree_with_finite_input_resistance(case, p, r_in):
    # R_in sits across R1 in both case circuits; every exact engine models it
    p = replace(p, R_in=r_in)
    values = [cc.exact_rx(case, p), cc.mason_rx(case, p), cc.mna_rx(case, p)]
    for value in values[1:]:
        assert cc.relative_error(value, values[0]) <= 1e-6, (case, p)


# Fields each case circuit reads, and fields it must not: no engine reads
# R2, R_E or R_S.
MOVES_RX = ("K", "r_out", "R1", "g_m", "r_pi", "r_o", "R_in")
LEAVES_RX = ("R2", "R_E", "R_S")


@given(amplifier_params, st.sampled_from((1, 2)), decades(1, 7))
def test_each_field_moves_all_three_exact_engines_or_none(p, case, ohms):
    assert {f.name for f in fields(AmplifierParams)} == {*MOVES_RX, *LEAVES_RX}

    def rx(q):
        return [cc.exact_rx(case, q), cc.mason_rx(case, q), cc.mna_rx(case, q)]

    base = rx(p)
    for field in MOVES_RX:
        value = ohms if field == "R_in" else 2 * getattr(p, field)
        moved = rx(replace(p, **{field: value}))
        assert all(a != b for a, b in zip(moved, base)), (field, moved, base)
    for field in LEAVES_RX:
        assert rx(replace(p, **{field: ohms})) == base, field


def test_case2_flow_graph_rejects_zero_gain():
    # AmplifierParams accepts K = 0, but the case-2 equations divide by K
    with pytest.raises(ValueError, match="K must be nonzero"):
        cc.mason_rx(2, replace(TYPICAL, K=0.0))
    with pytest.raises(ValueError, match="K must be nonzero"):
        cc.run_case(2, replace(TYPICAL, K=0.0))


# --------------------------------------------------------------------------
# Blackman's impedance relation (Blackman, BSTJ 22, 1943)
# --------------------------------------------------------------------------

def blackman_impedance(lc: Circuit, port, reference: str) -> float:
    """Z0 (1 + T_sc) / (1 + T_oc) at ``port`` of ``lc``, with its controlled
    source ``reference`` as the reference element.  Z0 is the port's
    impedance with the source's gain zeroed.  T, the return ratio, is minus
    the control voltage that comes back when the source is replaced by an
    independent one of its gain times a unit control; T_sc is taken with
    the port shorted, T_oc with it open.  None of these three solves stamps
    the reference source as controlled."""
    (source,) = (e for e in lc.elements if e.name == reference)
    others = tuple(e for e in lc.elements if e is not source)
    if isinstance(source, Vcvs):
        zeroed = replace(source, gain=0.0)
        independent = VSource(source.name, source.n1, source.n2, source.gain)
    else:
        zeroed = replace(source, gm=0.0)
        independent = ISource(source.name, source.n1, source.n2, source.gm)
    z0 = mna.driving_point_impedance(Circuit(others + (zeroed,)), port)

    def return_ratio(*shunt):
        driven = Circuit(others + (independent,) + shunt)
        volts = mna.solve(mna.assemble(driven)) | {f"V({GROUND})": 0.0}
        return volts[f"V({source.cn})"] - volts[f"V({source.cp})"]

    return z0 * (1 + return_ratio(VSource("short", *port, 0.0))) / (1 + return_ratio())


@pytest.mark.parametrize("case", [1, 2])
@given(p=amplifier_params, r_in=st.just(math.inf) | decades(1, 7))
def test_case_circuits_satisfy_blackmans_relation_in_the_op_amp_gain(case, p, r_in):
    # a stamping error of the op-amp's Vcvs moves the direct probe alone
    p = replace(p, R_in=r_in)
    build, port = CASES[case]
    lc = build(p)
    assert blackman_impedance(lc, port, "eop") == pytest.approx(cc.mna_rx(case, p), rel=1e-9)


@pytest.mark.parametrize("side", ["input_port", "output_port"])
@settings(deadline=None)
@given(circuit=feedback_amplifiers())
def test_amplifiers_satisfy_blackmans_relation_in_the_transistor_gain(side, circuit):
    lc, port = linearize(circuit), getattr(circuit.annotations, side)
    assert blackman_impedance(lc, port, "Q1__gm") == pytest.approx(
        mna.driving_point_impedance(lc, port), rel=1e-9)
