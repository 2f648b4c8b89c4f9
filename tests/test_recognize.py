"""crosscheck.recognize_case: a circuit is a case circuit exactly when its
builder rebuilds it up to element and node names."""

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from feedback_lens import crosscheck as cc
from feedback_lens.feedback import AmplifierParams
from feedback_lens.netlist import GROUND, Circuit, Resistor, Vccs, Vcvs, parse_netlist_file
from feedback_lens.smallsignal import linearize

from support import CASES, amplifier_params as params, decades


@st.composite
def disguised(draw, lc, port):
    """``lc`` and ``port`` with nodes and elements renamed (partly to each
    other's names), resistor ends flipped at random and elements shuffled."""
    nodes = sorted(lc.nodes - {GROUND})
    node = dict(zip(nodes, draw(st.permutations(nodes + [f"x{i}" for i in range(len(nodes))]))))
    node[GROUND] = GROUND
    names = [e.name for e in lc.elements]
    names = draw(st.permutations(names + [f"y{i}" for i in range(len(names))]))
    elements = []
    for e, name in zip(lc.elements, names):
        ends = {f: node[getattr(e, f)] for f in ("n1", "n2", "cp", "cn") if hasattr(e, f)}
        if isinstance(e, Resistor) and draw(st.booleans()):
            ends = {"n1": ends["n2"], "n2": ends["n1"]}
        elements.append(replace(e, name=name, **ends))
    return Circuit(tuple(draw(st.permutations(elements)))), (node[port[0]], node[port[1]])


def case_circuit(data, case, p):
    build, port = CASES[case]
    return data.draw(disguised(build(p), port))


@given(st.sampled_from((1, 2)), params, st.data())
def test_renamed_case_circuit_is_recognized(case, p, data):
    lc, port = case_circuit(data, case, p)
    assert cc.recognize_case(lc, port) == (case, p)


@given(st.sampled_from((1, 2)), params, decades(1, 7), st.data())
def test_finite_input_resistance_is_not_recognized(case, p, r_in, data):
    lc, port = case_circuit(data, case, replace(p, R_in=r_in))
    assert cc.recognize_case(lc, port) is None


@given(st.sampled_from((1, 2)), params, st.data())
def test_dropped_element_is_not_recognized(case, p, data):
    lc, port = case_circuit(data, case, p)
    drop = data.draw(st.sampled_from(lc.elements))
    assert cc.recognize_case(Circuit(tuple(e for e in lc.elements if e is not drop)), port) is None


@given(st.sampled_from((1, 2)), params, decades(1, 7), st.data())
def test_extra_resistor_is_not_recognized(case, p, ohms, data):
    lc, port = case_circuit(data, case, p)
    ends = data.draw(st.lists(st.sampled_from(sorted(lc.nodes)), min_size=2, max_size=2))
    extended = Circuit(lc.elements + (Resistor("Rx", *ends, ohms),))
    assert cc.recognize_case(extended, port) is None


@given(st.sampled_from((1, 2)), params, st.data())
def test_swapped_control_pair_is_not_recognized(case, p, data):
    lc, port = case_circuit(data, case, p)
    source = data.draw(st.sampled_from([e for e in lc.elements if isinstance(e, (Vcvs, Vccs))]))
    swapped = [replace(e, cp=e.cn, cn=e.cp) if e is source else e for e in lc.elements]
    assert cc.recognize_case(Circuit(tuple(swapped)), port) is None


@given(st.sampled_from((1, 2)), params, st.data())
def test_wrong_port_is_not_recognized(case, p, data):
    lc, port = case_circuit(data, case, p)
    wrong = data.draw(
        st.tuples(st.sampled_from(sorted(lc.nodes)), st.sampled_from(sorted(lc.nodes)))
        .filter(lambda pair: pair != port)
    )
    assert cc.recognize_case(lc, wrong) is None


@given(st.sampled_from((1, 2)), params, st.data())
def test_merged_nodes_are_not_recognized(case, p, data):
    lc, port = case_circuit(data, case, p)
    gone, kept = data.draw(st.permutations(sorted(lc.nodes)))[:2]
    merge = {gone: kept}
    merged = [
        replace(e, **{f: merge.get(getattr(e, f), getattr(e, f))
                      for f in ("n1", "n2", "cp", "cn") if hasattr(e, f)})
        for e in lc.elements
    ]
    assert cc.recognize_case(Circuit(tuple(merged)), tuple(merge.get(n, n) for n in port)) is None


@given(params, st.floats(0.5, 2.0).filter(lambda gain: gain != 1.0))
def test_case2_rail_gain_other_than_one_is_not_recognized(p, gain):
    lc = cc.build_case2_circuit(p)
    changed = [replace(e, gain=gain) if e.name == "ebuf" else e for e in lc.elements]
    assert cc.recognize_case(Circuit(tuple(changed)), cc.CASE2_PORT) is None


@pytest.mark.parametrize("case", [1, 2])
def test_zero_gain_is_recognized_and_exact_engines_agree(case):
    p = AmplifierParams.typical(K=0.0)
    build, port = CASES[case]
    assert cc.recognize_case(build(p), port) == (case, p)
    assert cc.exact_rx(case, p) == pytest.approx(cc.mna_rx(case, p), rel=1e-9)


def test_case2_zero_gain_value():
    p = AmplifierParams.typical(K=0.0)
    assert cc.exact_rx(2, p) == pytest.approx(4832.4209, rel=1e-8)
    assert cc.mna_rx(2, p) == pytest.approx(4832.4209, rel=1e-8)


def test_fixtures(netlists_dir):
    typical = AmplifierParams.typical()
    expected = {("fig7.net", ("c", GROUND)): (1, typical), ("fig9.net", ("e", GROUND)): (2, typical)}
    for path in sorted(netlists_dir.glob("*.net")):
        lc = linearize(parse_netlist_file(str(path)))
        for port in itertools.product(sorted(lc.nodes), repeat=2):
            assert cc.recognize_case(lc, port) == expected.get((path.name, port)), (path.name, port)


def test_negative_gain_is_not_a_case_circuit():
    lc = cc.build_case1_circuit(AmplifierParams.typical())
    flipped = [replace(e, gain=-e.gain) if isinstance(e, Vcvs) else e for e in lc.elements]
    assert cc.recognize_case(Circuit(tuple(flipped)), cc.CASE1_PORT) is None
