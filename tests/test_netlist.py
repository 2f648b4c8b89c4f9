import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from feedback_lens.netlist import (
    GRAMMAR,
    GROUND,
    BjtPi,
    Circuit,
    DuplicateName,
    ISource,
    NetlistError,
    NetlistSyntaxError,
    OpAmp,
    PortAnnotations,
    Resistor,
    UnknownElementKind,
    Vccs,
    Vcvs,
    VSource,
    parse_netlist,
    parse_value,
    reachable,
    serialize,
    validate,
)

FIG4_TEXT = """\
.title output-series feedback, output at the collector
X1 vin e b K=1000 rout=500k
Q1 b c e gm=40m rpi=2.5k ro=100k
R1 e 0 1k
R2 c 0 10k
.input vin 0
.output c 0
.feedback R1
"""


def test_single_resistor_statement():
    circuit = parse_netlist("R1 a 0 1e3")
    assert len(circuit.elements) == 1
    r = circuit.elements[0]
    assert isinstance(r, Resistor)
    assert (r.n1, r.n2, r.ohms) == ("a", "0", 1000.0)
    assert circuit.nodes == frozenset({"a", "0"})


def test_node_set_is_ground_and_every_terminal_or_none():
    assert parse_netlist("* no elements\n").nodes == frozenset()
    assert Circuit(()).nodes == frozenset()
    assert Circuit((Resistor("R1", "a", "b", 1.0),)).nodes == frozenset({"0", "a", "b"})


def test_case1_schematic_netlist():
    circuit = parse_netlist(FIG4_TEXT)
    assert len(circuit.elements) == 4
    by_name = {e.name: e for e in circuit.elements}
    assert isinstance(by_name["X1"], OpAmp)
    assert isinstance(by_name["Q1"], BjtPi)
    assert by_name["X1"].rout == 500e3
    assert by_name["Q1"].gm * by_name["Q1"].rpi == pytest.approx(100.0)
    ann = circuit.annotations
    assert ann.input_port == ("vin", "0")
    assert ann.output_port == ("c", "0")
    assert ann.feedback_elements == frozenset({"R1"})


def test_missing_value_is_a_syntax_error_with_line():
    with pytest.raises(NetlistSyntaxError) as info:
        parse_netlist("R1 a b")
    assert info.value.line == 1
    assert info.value.format("f.net").startswith("f.net:1:")


def test_error_lines_count_comments_and_blanks():
    text = "* comment\n\nR1 a 0 1k\nR2 a 0 oops\n"
    with pytest.raises(NetlistSyntaxError) as info:
        parse_netlist(text)
    assert info.value.line == 4


def test_duplicate_name_rejected():
    with pytest.raises(DuplicateName) as info:
        parse_netlist("R1 a 0 1k\nR1 b 0 2k")
    assert info.value.line == 2


@pytest.mark.parametrize("directive,first,second", [
    (".title", ".title one", ".title two"),
    (".input", ".input a 0", ".input b 0"),
    (".output", ".output a 0", ".OUTPUT b 0"),
    (".feedback", ".feedback RA", ".feedback RB"),
])
def test_repeated_directive_rejected(directive, first, second):
    text = f"RA a b 1k\nRB b 0 1k\n{first}\n* a comment\n{second}\n"
    message = f"^\\{directive} already given on line 3$"
    with pytest.raises(NetlistSyntaxError, match=message) as info:
        parse_netlist(text)
    assert info.value.line == 5


def test_unknown_element_kind():
    with pytest.raises(UnknownElementKind):
        parse_netlist("Z1 a 0 5")


def test_unknown_directive():
    with pytest.raises(NetlistSyntaxError):
        parse_netlist(".bogus 1 2")


def test_macro_parameter_errors():
    with pytest.raises(NetlistSyntaxError, match="^bipolar device needs base collector"):
        parse_netlist("Q1 b c e gm=40m rpi=2.5k")  # arity
    with pytest.raises(NetlistSyntaxError, match=r"^missing parameters \['ro'\]$"):
        parse_netlist("Q1 b c e gm=40m rpi=2.5k raux=1")  # unknown key in ro's place
    with pytest.raises(NetlistSyntaxError, match=r"^unknown parameters \['rfoo'\]$"):
        parse_netlist("X1 p m o K=10 rfoo=1 rout=1k")
    with pytest.raises(NetlistSyntaxError, match=r"^missing parameters \['rout'\]$"):
        parse_netlist("X1 p m o K=10 rin=1M")
    with pytest.raises(NetlistSyntaxError, match="^expected key=value, got '100k'$"):
        parse_netlist("Q1 b c e gm=40m rpi=2.5k 100k")


@pytest.mark.parametrize(
    "token,expected",
    [
        ("1k", 1e3),
        ("2.5k", 2.5e3),
        ("40m", 40e-3),
        ("1M", 1e6),
        ("3u", 3e-6),
        ("1e3", 1e3),
        ("-4.7", -4.7),
    ],
)
def test_engineering_suffixes(token, expected):
    assert parse_value(token) == pytest.approx(expected, rel=1e-15)


def test_bad_value_token():
    with pytest.raises(NetlistSyntaxError):
        parse_value("12xk", line=7)


@pytest.mark.parametrize("token", ["1e308k", "-1e308M", "inf", "nanm"])
def test_value_that_overflows_with_its_suffix_is_rejected(token):
    with pytest.raises(NetlistSyntaxError, match="non-finite value"):
        parse_value(token)
    with pytest.raises(NetlistSyntaxError, match="non-finite value"):
        parse_netlist(f"V1 a 0 {token}")


def test_parse_serialize_parse_is_identity():
    first = parse_netlist(FIG4_TEXT)
    text = serialize(first)
    second = parse_netlist(text)
    assert second == first
    assert serialize(second) == text


def test_serialize_round_trip_on_awkward_values():
    circuit = parse_netlist("R1 a 0 0.1\nV1 a 0 1e-7\nG1 a 0 b 0 0.3333333333333333")
    assert parse_netlist(serialize(circuit)) == circuit


def test_validate_accepts_good_circuit():
    report = validate(parse_netlist(FIG4_TEXT))
    assert report.ok


def test_validate_flags_floating_node():
    report = validate(parse_netlist("R1 a 0 1k\nR2 x y 1k"))
    assert "floating-node" in {v.code for v in report.violations}
    subjects = {v.subject for v in report.violations}
    assert {"x", "y"} <= subjects


def test_validate_flags_missing_ground():
    report = validate(parse_netlist("R1 a b 1k"))
    assert "no-ground" in {v.code for v in report.violations}


def test_validate_flags_nonpositive_resistance():
    report = validate(parse_netlist("R1 a 0 -5"))
    assert "nonpositive-value" in {v.code for v in report.violations}


def test_validate_value_checks_of_every_kind():
    # V and I values are not checked
    circuit = parse_netlist(
        "R1 a 0 0\nV1 a 0 -1\nI1 a 0 -1\nE1 a 0 a 0 -2\nE2 a 0 a 0 1\n"
        "G1 a 0 a 0 -1m\nQ1 a a 0 gm=0 rpi=-1 ro=1\nX1 a 0 a K=0 rout=1 rin=-1\n"
    )
    infinite = {"E2": {"gain": math.inf}, "Q1": {"ro": math.inf}}
    elements = tuple(replace(e, **infinite.get(e.name, {})) for e in circuit.elements)
    violations = validate(replace(circuit, elements=elements)).violations
    assert [(v.code, v.message) for v in violations] == [
        ("nonpositive-value", "R1: resistance must be > 0"),
        ("nonfinite-value", "E2: gain must be finite"),
        ("nonpositive-value", "G1: transconductance must be > 0"),
        ("nonpositive-value", "Q1: gm must be > 0"),
        ("nonpositive-value", "Q1: rpi must be > 0"),
        ("nonfinite-value", "Q1: ro must be finite"),
        ("nonpositive-value", "X1: K must be > 0"),
        ("nonpositive-value", "X1: rin must be > 0"),
    ]


def test_validate_flags_bad_annotations():
    report = validate(parse_netlist("R1 a 0 1k\n.input a 0\n.output a 0\n.feedback RX"))
    assert "ports-equal" in {v.code for v in report.violations}
    assert "unknown-feedback-element" in {v.code for v in report.violations}
    report = validate(parse_netlist("R1 a 0 1k\n.input zz 0"))
    assert "unknown-port-node" in {v.code for v in report.violations}


def test_fixture_files_parse_validate_and_round_trip(netlists_dir):
    for path in sorted(netlists_dir.glob("*.net")):
        text = path.read_text()
        circuit = parse_netlist(text)
        assert validate(circuit).ok, path.name
        assert parse_netlist(serialize(circuit)) == circuit, path.name


def test_opamp_optional_rin():
    circuit = parse_netlist("X1 p m o K=1000 rout=500k rin=1M")
    (amp,) = circuit.elements
    assert amp.rin == 1e6
    assert parse_netlist(serialize(circuit)) == circuit
    (bare,) = parse_netlist("X1 p m o K=1000 rout=500k").elements
    assert bare.rin is None


# --------------------------------------------------------------------------
# Grammar guards: canonical text, round trip over every kind, fuzzing
# --------------------------------------------------------------------------

ALL_KINDS_TEXT = """\
.title every kind
R1 a 0 1k
V1 a 0 1
I1 0 b 2m
E1 c 0 a b 10
G1 b 0 a 0 40m
Q1 b c e gm=40m rpi=2.5k ro=100k
X1 a e d K=1000 rout=500k
X2 a e f K=1e5 rout=10 rin=1M
.input a 0
.output c 0
.feedback R1 G1
"""

ALL_KINDS_CANONICAL = """\
.title every kind
R1 a 0 1000.0
V1 a 0 1.0
I1 0 b 0.002
E1 c 0 a b 10.0
G1 b 0 a 0 0.04
Q1 b c e gm=0.04 rpi=2500.0 ro=100000.0
X1 a e d K=1000.0 rout=500000.0
X2 a e f K=100000.0 rout=10.0 rin=1000000.0
.input a 0
.output c 0
.feedback G1 R1
"""


def test_readme_documents_every_element_kind():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Netlist format", 1)[1].split("```")[1]
    documented = {line[0] for line in block.splitlines() if line[1:7] == "<name>"}
    assert documented == set(GRAMMAR)


def test_serialize_golden_covers_every_kind():
    circuit = parse_netlist(ALL_KINDS_TEXT)
    assert {type(e) for e in circuit.elements} == {
        Resistor, VSource, ISource, Vcvs, Vccs, BjtPi, OpAmp
    }
    assert serialize(circuit) == ALL_KINDS_CANONICAL
    assert parse_netlist(ALL_KINDS_CANONICAL) == circuit


values = st.floats(allow_nan=False, allow_infinity=False)
positive_values = st.floats(min_value=1e-6, max_value=1e9)  # past validate's value checks
node_names = st.sampled_from((GROUND, "a", "b", "n_1", "out", "x9"))


def _kind(cls, width, *fields):
    """Strategy for an unnamed ``cls`` element: ``width`` nodes, then one
    draw from each strategy in ``fields``."""
    nodes = st.lists(node_names, min_size=width, max_size=width)
    return st.builds(lambda ns, vs: cls("", *ns, *vs), nodes, st.tuples(*fields))


def _kinds(value):
    """Strategy for each element kind, its values drawn from ``value``."""
    return {
        "R": _kind(Resistor, 2, value),
        "V": _kind(VSource, 2, value),
        "I": _kind(ISource, 2, value),
        "E": _kind(Vcvs, 4, value),
        "G": _kind(Vccs, 4, value),
        "Q": _kind(BjtPi, 3, value, value, value),
        "X": _kind(OpAmp, 3, value, value, st.none() | value),
    }


@st.composite
def circuits(draw, value=values):
    """Circuits of every element kind with annotations; ``positive_values``
    as ``value`` gives element values that pass ``validate``."""
    kinds = _kinds(value)
    letters = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=9))
    elements = [
        replace(draw(kinds[letter]), name=f"{letter}{i}")
        for i, letter in enumerate(letters)
    ]
    port = st.none() | st.tuples(node_names, node_names)
    feedback = draw(st.frozensets(st.sampled_from([e.name for e in elements])))
    title = draw(st.from_regex(r"([A-Za-z0-9,.()-]+( [A-Za-z0-9,.()-]+)*)?", fullmatch=True))
    annotations = PortAnnotations(draw(port), draw(port), feedback)
    return Circuit(tuple(elements), title, annotations)


@given(circuits())
def test_parse_serialize_round_trip_over_every_kind(circuit):
    text = serialize(circuit)
    assert parse_netlist(text) == circuit
    assert serialize(parse_netlist(text)) == text


FUZZ_SEEDS = (FIG4_TEXT, ALL_KINDS_TEXT, "R1 a 0 1k\n.end\nR1 x\n")
FUZZ_ALPHABET = " \n*.=0123456789eEkMmu+-RVIEGQXabcKrinoutgmp"


@st.composite
def mutated_netlists(draw):
    text = draw(st.sampled_from(FUZZ_SEEDS))
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("insert", "delete", "replace", "drop_token", "dup_line")))
        if op == "insert":
            text = text[:at] + draw(st.text(FUZZ_ALPHABET, min_size=1, max_size=3)) + text[at:]
        elif op == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 4)):]
        elif op == "replace":
            text = text[:at] + draw(st.sampled_from(FUZZ_ALPHABET)) + text[at + 1:]
        else:
            lines = text.split("\n")
            row = at % len(lines)
            if op == "dup_line":
                lines.insert(row, lines[row])
            elif lines[row].split():
                tokens = lines[row].split()
                del tokens[draw(st.integers(0, len(tokens) - 1))]
                lines[row] = " ".join(tokens)
            text = "\n".join(lines)
    return text


@given(mutated_netlists())
def test_mutated_text_raises_only_netlist_errors(text):
    try:
        circuit = parse_netlist(text)
    except NetlistError:
        return
    validate(circuit)
    serialize(circuit)


def set_search(start, edges):
    """The nodes joined to ``start`` by ``edges``: grow a set by every edge
    that touches it until none adds a node."""
    reached = {start}
    while True:
        grown = reached.union(*({a, b} for a, b in edges if a in reached or b in reached))
        if grown == reached:
            return reached
        reached = grown


NODE_NAMES = st.sampled_from(["0", "a", "b", "c", "d", "e"])


@given(edges=st.lists(st.tuples(NODE_NAMES, NODE_NAMES), max_size=12),
       start=NODE_NAMES | st.just("lone"))
@example(edges=[("a", "b"), ("a", "b"), ("b", "b"), ("c", "c")], start="a")
@example(edges=[("a", "a")], start="a")
@example(edges=[("a", "b")], start="lone")
def test_reachable_matches_a_set_search(edges, start):
    # repeats, self-loops and a start in no edge; the edges are read once
    assert reachable(start, iter(edges)) == set_search(start, edges)
