"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured numbers (run with -s or look at captured output).

Tolerances are fixed here and nowhere else:
  1/2: golden impedances at the typical operating point, absolute windows,
       error bands in percentage points, under 1 s per case.
  3:   exact/mason/mna pairwise within 1e-6 over >= 100 draws per case.
  4:   Mason vs direct solve within 1e-9 over >= 200 systems; chain,
       single-loop and non-touching-pair identities within 1e-12.
  5:   bridge-network loading exact to 1e-12 over random values.
  6:   fixture classification labels, collector-return pattern exits 2.
  7:   reciprocity/superposition/composition within 1e-12; singular inputs
       raise.
  8:   case-2 closed-form error below 0.5% at r_out = 10.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from feedback_lens import crosscheck as cc, feedback as fb, mna, sfg
from feedback_lens.cli import main as cli_main
from feedback_lens.feedback import AmplifierParams, Mixing, Validity
from feedback_lens.netlist import GROUND, Circuit, ISource, Resistor, VSource, parse_netlist_file
from support import (
    draw_params,
    flow_graph,
    random_causal_system,
    random_resistor_mesh,
)

TYPICAL = AmplifierParams.typical()


def _report(n: int, message: str):
    print(f"ACCEPTANCE {n} PASS: {message}")


def test_criterion_1_case1_golden():
    start = time.perf_counter()
    report = cc.run_case(1, TYPICAL, cc.CrossCheckConfig(closed_error_band=cc.CLOSED_FORM_ERROR_BANDS[1]))
    elapsed = time.perf_counter() - start
    closed = report.values["closed_form"]
    assert abs(closed - 6.724e6) <= 0.01e6
    for engine in ("exact_formula", "mason", "mna"):
        assert abs(report.values[engine] - 6.758e6) <= 0.01e6, engine
    assert abs(report.closed_form_error - 0.005) <= 0.0005
    assert report.verdict == "pass"
    assert elapsed < 1.0
    _report(
        1,
        f"case 1 closed {closed/1e6:.4f} MΩ, exact/mason/mna "
        f"{report.values['mna']/1e6:.4f} MΩ, error {report.closed_form_error:.4%}, "
        f"{elapsed*1e3:.1f} ms",
    )


def test_criterion_2_case2_golden():
    start = time.perf_counter()
    report = cc.run_case(2, TYPICAL, cc.CrossCheckConfig(closed_error_band=cc.CLOSED_FORM_ERROR_BANDS[2]))
    elapsed = time.perf_counter() - start
    closed = report.values["closed_form"]
    assert abs(closed - 1.005e6) <= 0.001e6
    for engine in ("exact_formula", "mason", "mna"):
        assert abs(report.values[engine] - 0.956e6) <= 0.001e6, engine
    assert abs(report.closed_form_error - 0.0501) <= 0.001
    assert report.verdict == "pass"
    assert elapsed < 1.0
    _report(
        2,
        f"case 2 closed {closed/1e6:.4f} MΩ, exact/mason/mna "
        f"{report.values['mna']/1e6:.4f} MΩ, error {report.closed_form_error:.4%}, "
        f"{elapsed*1e3:.1f} ms",
    )


def test_criterion_3_engine_equivalence():
    rng = np.random.default_rng(3003)
    worst = 0.0
    for case in (1, 2):
        for _ in range(100):
            p = draw_params(rng)
            values = [cc.exact_rx(case, p), cc.mason_rx(case, p), cc.mna_rx(case, p)]
            for i in range(3):
                for j in range(i + 1, 3):
                    err = cc.relative_error(values[i], values[j])
                    worst = max(worst, err)
                    assert err <= 1e-6, (case, p)
    _report(3, f"exact/mason/mna pairwise over 200 draws, worst {worst:.2e} <= 1e-6")


def test_criterion_4_mason_oracle_suite():
    rng = np.random.default_rng(4004)
    worst = 0.0
    for _ in range(200):
        equations, variables, x = random_causal_system(rng)
        graph = sfg.from_linear_system(equations)
        gain = sfg.mason_gain(graph, "src", variables[-1])
        expected = float(x[-1])
        scale = max(abs(gain), abs(expected), 1e-12)
        err = abs(gain - expected) / scale
        worst = max(worst, err)
        assert err <= 1e-9

    chain = flow_graph([("a", "b", 1.25), ("b", "c", -0.75), ("c", "d", 3.5)])
    assert abs(sfg.mason_gain(chain, "a", "d") - 1.25 * -0.75 * 3.5) <= 1e-12

    looped = flow_graph([("s", "m", 2.0), ("m", "m", -0.6), ("m", "d", 1.0)])
    assert abs(sfg.mason_gain(looped, "s", "d") - 2.0 / 1.6) <= 1e-12

    pair = flow_graph(
        [("a", "b", 1.0), ("b", "a", 0.3), ("c", "d", 1.0), ("d", "c", -0.2)]
    )
    expected = 1 - 0.3 - (-0.2) + 0.3 * -0.2
    assert abs(sfg.graph_determinant(pair) - expected) <= 1e-12
    _report(4, f"200 random systems, worst {worst:.2e} <= 1e-9; identities at 1e-12")


def test_criterion_5_loading_golden():
    rng = np.random.default_rng(5005)
    topo = fb.FeedbackTopology(Mixing.SHUNT, Mixing.SERIES, Validity.VALID)
    worst = 0.0
    for _ in range(100):
        r1 = float(10 ** rng.uniform(1, 7))
        r2 = float(10 ** rng.uniform(1, 7))
        net = Circuit((Resistor("R1", "in", "m", r1), Resistor("R2", "m", GROUND, r2)))
        loading = fb.loading_effect(net, topo, ("in", GROUND), ("m", GROUND))
        for got, want in (
            (loading.R_if, r1 + r2),
            (loading.R_of, r1 * r2 / (r1 + r2)),
            (loading.f, -r2 / (r1 + r2)),
        ):
            err = abs(got - want) / abs(want)
            worst = max(worst, err)
            assert err <= 1e-12
    _report(5, f"bridge loading R_if/R_of/f over 100 draws, worst {worst:.2e} <= 1e-12")


def test_criterion_6_classification_suite(netlists_dir, capsys):
    expected = {
        "fig3a.net": "shunt-shunt",
        "fig3b.net": "series-shunt",
        "fig3c.net": "series-series",
        "fig3d.net": "shunt-series",
        "fig4.net": "series-series",
        "fig5.net": "series-series",
    }
    for name, label in expected.items():
        topo = fb.classify_topology(parse_netlist_file(str(netlists_dir / name)))
        assert topo.label == label, name
        assert topo.validity is Validity.VALID, name
    topo = fb.classify_topology(parse_netlist_file(str(netlists_dir / "irrelevant.net")))
    assert topo.validity is Validity.IRRELEVANT
    code = cli_main(["classify", str(netlists_dir / "irrelevant.net")])
    capsys.readouterr()
    assert code == 2
    _report(6, "six fixtures classified, collector-return pattern irrelevant with exit 2")


def test_criterion_7_mna_property_suite():
    rng = np.random.default_rng(7007)
    worst = 0.0

    def track(a, b):
        nonlocal worst
        err = abs(a - b) / max(abs(a), abs(b))
        worst = max(worst, err)
        assert err <= 1e-12

    for _ in range(40):
        mesh = random_resistor_mesh(rng, n_nodes=5)
        track(
            mna.driving_point_impedance(mesh, ("n2", "n4")),
            mna.driving_point_impedance(mesh, ("n4", "n2")),
        )

    for _ in range(20):
        mesh = random_resistor_mesh(rng, n_nodes=5)
        v_src = VSource("Vs", "n1", GROUND, float(rng.uniform(0.5, 5.0)))
        i_src = ISource("Is", GROUND, "n3", float(rng.uniform(0.1, 2.0)))
        both = mna.solve(mna.assemble(mesh.with_elements(v_src, i_src)))
        only_v = mna.solve(mna.assemble(
            mesh.with_elements(v_src, ISource("Is", GROUND, "n3", 0.0))))
        only_i = mna.solve(mna.assemble(
            mesh.with_elements(VSource("Vs", "n1", GROUND, 0.0), i_src)))
        for node in both.node_voltages:
            total = only_v.voltage(node) + only_i.voltage(node)
            if both.voltage(node) == total == 0.0:
                continue
            track(both.voltage(node), total)

    for _ in range(40):
        ra = float(10 ** rng.uniform(1, 7))
        rb = float(10 ** rng.uniform(1, 7))
        parallel = Circuit((Resistor("Ra", "p", GROUND, ra), Resistor("Rb", "p", GROUND, rb)))
        series = Circuit((Resistor("Ra", "p", "m", ra), Resistor("Rb", "m", GROUND, rb)))
        track(mna.driving_point_impedance(parallel, ("p", GROUND)), ra * rb / (ra + rb))
        track(mna.driving_point_impedance(series, ("p", GROUND)), ra + rb)

    contradictory = Circuit(
        (
            VSource("V1", "a", GROUND, 1.0),
            VSource("V2", "a", GROUND, 2.0),
            Resistor("R1", "a", GROUND, 1e3),
        )
    )
    with pytest.raises(mna.SingularMatrix):
        mna.solve(mna.assemble(contradictory))
    _report(7, f"reciprocity/superposition/composition worst {worst:.2e} <= 1e-12; singular raised")


def test_criterion_8_error_shrink():
    report = cc.run_case(2, replace(TYPICAL, r_out=10.0))
    # pre-build formula oracle: closed = 1000025.1, exact = 999774.40762,
    # error 2.5075e-4
    assert report.closed_form_error < 0.005
    assert report.closed_form_error == pytest.approx(
        250.6923763135 / 999774.4076236865, rel=1e-9
    )
    _report(8, f"case 2 at r_out=10: closed-form error {report.closed_form_error:.4%} < 0.5%")
