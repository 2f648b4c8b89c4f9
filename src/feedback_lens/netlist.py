"""Netlist front end: parse, validate and serialize circuit descriptions.

Grammar (one statement per line, ``*`` starts a comment line, blank lines
ignored, ``.end`` optional):

    R<name> n+ n- <ohms>                    resistor
    V<name> n+ n- <volts>                   independent voltage source
    I<name> n+ n- <amps>                    independent current source
                                            (current flows n+ -> n- through
                                            the source)
    E<name> n+ n- nc+ nc- <gain>            voltage-controlled voltage source
                                            v(n+,n-) = gain * v(nc+,nc-)
    G<name> n+ n- nc+ nc- <siemens>         voltage-controlled current source
                                            (gm * v(nc+,nc-) flows n+ -> n-
                                            through the source)
    Q<name> base collector emitter gm=<S> rpi=<ohms> ro=<ohms>
                                            bipolar device, hybrid-pi params
    X<name> plus minus out K=<gain> rout=<ohms> [rin=<ohms>]
                                            op-amp: gain K, output resistance
                                            rout, optional differential input
                                            resistance rin (absent = infinite)

    .title <text>                           circuit title
    .input n+ n-                            amplifier input port
    .output n+ n-                           amplifier output port
    .feedback <elem> [<elem> ...]           elements forming the feedback network

Each element kind is one row of ``GRAMMAR``; the parser, ``serialize``,
``validate`` and each class's ``terminals`` (its node fields) come from it.
Node names are arbitrary identifiers; ``0`` is ground.  Values accept the
case-sensitive engineering suffixes k (1e3), M (1e6), m (1e-3), u (1e-6)
and are stored in SI base units as doubles.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, fields
from decimal import Decimal
from functools import cached_property
from operator import attrgetter


class NetlistError(Exception):
    """Base for netlist problems; carries a 1-based source line number."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(message)
        self.line = line

    def format(self, filename: str = "<netlist>") -> str:
        return f"{filename}:{self.line}: {self}"


class NetlistSyntaxError(NetlistError):
    pass


class DuplicateName(NetlistError):
    pass


class UnknownElementKind(NetlistError):
    pass


GROUND = "0"

_SUFFIXES = {"k": 1e3, "M": 1e6, "m": 1e-3, "u": 1e-6}


def parse_value(token: str, line: int = 0) -> float:
    """Parse a numeric value, allowing a trailing engineering suffix."""
    text = token
    scale = 1.0
    if text and text[-1] in _SUFFIXES:
        scale = _SUFFIXES[text[-1]]
        text = text[:-1]
    try:
        value = float(text) * scale
    except ValueError:
        raise NetlistSyntaxError(f"bad numeric value {token!r}", line) from None
    if not math.isfinite(value):
        raise NetlistSyntaxError(f"non-finite value {token!r}", line)
    return value


def format_value(value: float) -> str:
    return repr(float(value))


@dataclass(frozen=True)
class Resistor:
    """``ohms`` is a float, or a ``Decimal`` in a view ``mna.seen_at``
    builds."""

    name: str
    n1: str
    n2: str
    ohms: float | Decimal


@dataclass(frozen=True)
class VSource:
    name: str
    n1: str
    n2: str
    volts: float


@dataclass(frozen=True)
class ISource:
    """Independent current source; `amps` flows n1 -> n2 through the source."""

    name: str
    n1: str
    n2: str
    amps: float


@dataclass(frozen=True)
class Vcvs:
    name: str
    n1: str
    n2: str
    cp: str
    cn: str
    gain: float


@dataclass(frozen=True)
class Vccs:
    """gm * v(cp, cn) flows n1 -> n2 through the source."""

    name: str
    n1: str
    n2: str
    cp: str
    cn: str
    gm: float


@dataclass(frozen=True)
class BjtPi:
    """Bipolar device described by its hybrid-pi small-signal parameters."""

    name: str
    base: str
    collector: str
    emitter: str
    gm: float
    rpi: float
    ro: float


@dataclass(frozen=True)
class OpAmp:
    """Finite-gain op-amp: output gain*(v(plus)-v(minus)) behind rout.

    rin, when given, is a differential input resistance between plus and
    minus; None models an infinite input resistance.
    """

    name: str
    plus: str
    minus: str
    out: str
    gain: float
    rout: float
    rin: float | None = None


Primitive = Resistor | VSource | ISource | Vcvs | Vccs
Element = Primitive | BjtPi | OpAmp


class Kind:
    """One grammar row: the element class, the message for a wrong token
    count and the number of node fields (the class fields after ``name``).
    The fields after the nodes are the values, and one that defaults to
    None may be absent.  A row has one bare value, the statement's last
    token, which ``validate`` reports under ``label`` (unset: unchecked),
    requiring it to be > 0 when ``positive`` and finite otherwise; or it
    names the ``keys`` of its ``key=value`` tokens, one per value field in
    order, each checked > 0 under its key.  Everything the parser,
    serializer and validator read is worked out here once, and the class's
    ``terminals`` becomes its node fields."""

    def __init__(self, cls: type, arity: str, width: int, label: str | None = None,
                 positive: bool = True, keys: tuple[str, ...] = ()):
        self.cls, self.arity, self.width = cls, arity, width
        nodes, values = fields(cls)[1:1 + width], fields(cls)[1 + width:]
        optional = {f.name for f in values if f.default is None}
        self.lengths = range(1 + width + len(values) - len(optional), 2 + width + len(values))
        self.field_of_key = {key: f.name for key, f in zip(keys, values)}
        self.required = {key for key, field in self.field_of_key.items() if field not in optional}
        if keys:
            self.words = [(field, f"{key}=") for key, field in self.field_of_key.items()]
            self.checked = [(field, key, True) for key, field in self.field_of_key.items()]
        else:
            self.words = [(values[0].name, "")]
            self.checked = [(values[0].name, label, positive)] if label else []
        cls.terminals = property(attrgetter(*[f.name for f in nodes]))


# The SPICE element-card format: a letter, the nodes, then the values.
GRAMMAR = {
    "R": Kind(Resistor, "resistor needs 2 nodes and a value", 2, "resistance"),
    "V": Kind(VSource, "voltage source needs 2 nodes and a value", 2),
    "I": Kind(ISource, "current source needs 2 nodes and a value", 2),
    "E": Kind(Vcvs, "controlled voltage source needs 4 nodes and a gain", 4, "gain",
              positive=False),
    "G": Kind(Vccs, "controlled current source needs 4 nodes and a transconductance", 4,
              "transconductance"),
    "Q": Kind(BjtPi, "bipolar device needs base collector emitter gm= rpi= ro=", 3,
              keys=("gm", "rpi", "ro")),
    "X": Kind(OpAmp, "op-amp needs plus minus out K= rout= [rin=]", 3,
              keys=("K", "rout", "rin")),
}
_KIND_OF = {kind.cls: kind for kind in GRAMMAR.values()}


@dataclass(frozen=True)
class PortAnnotations:
    input_port: tuple[str, str] | None = None
    output_port: tuple[str, str] | None = None
    feedback_elements: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Circuit:
    """A parsed netlist; or, with no title or annotations, the primitives
    ``smallsignal.linearize`` makes of one, which carry the parsed
    circuit's ``feedback_network`` when it is purely resistive, or that
    network itself."""

    elements: tuple[Element, ...]
    title: str = ""
    annotations: PortAnnotations = PortAnnotations()

    @cached_property
    def nodes(self) -> frozenset[str]:
        """Ground plus every terminal of the elements; none for no elements."""
        nodes = {t for e in self.elements for t in e.terminals}
        return frozenset(nodes | {GROUND} if nodes else nodes)

    @cached_property
    def feedback_network(self) -> Circuit:
        """The ``.feedback`` elements as parsed, the same objects in the same
        order: the one network ``feedback.loading_of_circuit`` reduces and
        ``mna.seen_at`` composes a linearization's view from, so both read
        the views kept on it."""
        names = self.annotations.feedback_elements
        return Circuit(tuple(e for e in self.elements if e.name in names))

    def names(self) -> frozenset[str]:
        return frozenset(e.name for e in self.elements)


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def _parse_element(tokens: list[str], line: int) -> Element:
    name = tokens[0]
    try:
        kind = GRAMMAR[name[0]]
    except KeyError:
        raise UnknownElementKind(f"unknown element kind {name!r}", line) from None
    if len(tokens) not in kind.lengths:
        raise NetlistSyntaxError(kind.arity, line)
    if not kind.field_of_key:
        return kind.cls(*tokens[:-1], parse_value(tokens[-1], line))
    params = {}
    for tok in tokens[kind.width + 1:]:
        key, eq, raw = tok.partition("=")
        if not eq:
            raise NetlistSyntaxError(f"expected key=value, got {tok!r}", line)
        params[key] = parse_value(raw, line)
    if missing := kind.required - params.keys():
        raise NetlistSyntaxError(f"missing parameters {sorted(missing)}", line)
    if extra := params.keys() - kind.field_of_key.keys():
        raise NetlistSyntaxError(f"unknown parameters {sorted(extra)}", line)
    values = {kind.field_of_key[key]: value for key, value in params.items()}
    return kind.cls(*tokens[:kind.width + 1], **values)


def parse_netlist(text: str) -> Circuit:
    """Parse a netlist into a Circuit.

    Raises NetlistSyntaxError / DuplicateName / UnknownElementKind with the
    offending 1-based line number attached; a directive given twice is a
    NetlistSyntaxError.
    """
    title = ""
    elements: list[Element] = []
    seen: dict[str, int] = {}  # line of each element name and directive
    ports: dict[str, tuple[str, str]] = {}
    feedback: frozenset[str] = frozenset()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("*"):
            continue
        tokens = stripped.split()
        head = tokens[0]
        if head.startswith("."):
            directive = head.lower()
            if directive in seen:
                raise NetlistSyntaxError(
                    f"{directive} already given on line {seen[directive]}", lineno)
            seen[directive] = lineno
            if directive == ".title":
                title = stripped.split(None, 1)[1] if len(tokens) > 1 else ""
            elif directive in (".input", ".output"):
                if len(tokens) != 3:
                    raise NetlistSyntaxError(f"{directive} needs two nodes", lineno)
                ports[directive] = (tokens[1], tokens[2])
            elif directive == ".feedback":
                if len(tokens) < 2:
                    raise NetlistSyntaxError(".feedback needs element names", lineno)
                feedback = frozenset(tokens[1:])
            elif directive == ".end":
                break
            else:
                raise NetlistSyntaxError(f"unknown directive {head!r}", lineno)
            continue
        element = _parse_element(tokens, lineno)
        if element.name in seen:
            raise DuplicateName(
                f"element {element.name!r} already defined on line {seen[element.name]}",
                lineno,
            )
        seen[element.name] = lineno
        elements.append(element)

    annotations = PortAnnotations(ports.get(".input"), ports.get(".output"), feedback)
    return Circuit(tuple(elements), title, annotations)


def parse_netlist_file(path: str) -> Circuit:
    with open(path, encoding="utf-8") as handle:
        return parse_netlist(handle.read())


def serialize(circuit: Circuit) -> str:
    """Render the canonical netlist text; parse(serialize(c)) == c."""
    lines = []
    if circuit.title:
        lines.append(f".title {circuit.title}")
    for e in circuit.elements:
        words = [e.name, *e.terminals]
        for field, prefix in _KIND_OF[type(e)].words:
            value = getattr(e, field)
            if value is not None:
                words.append(prefix + format_value(value))
        lines.append(" ".join(words))
    ann = circuit.annotations
    for directive, port in ((".input", ann.input_port), (".output", ann.output_port)):
        if port:
            lines.append(f"{directive} {port[0]} {port[1]}")
    if ann.feedback_elements:
        lines.append(".feedback " + " ".join(sorted(ann.feedback_elements)))
    return "\n".join(lines) + "\n"


def _positive_value_violations(e: Element) -> list[Violation]:
    out = []
    for field, label, positive in _KIND_OF[type(e)].checked:
        value = getattr(e, field)
        if value is None:
            continue
        if positive and not value > 0:
            out.append(
                Violation("nonpositive-value", e.name, f"{e.name}: {label} must be > 0")
            )
        elif not math.isfinite(value):
            out.append(
                Violation("nonfinite-value", e.name, f"{e.name}: {label} must be finite")
            )
    return out


def reachable(start: str, edges: Iterable[tuple[str, str]]) -> set[str]:
    """Nodes joined to ``start`` through the undirected ``edges``, by a
    walk of each node's neighbour list."""
    adjacent: dict[str, list[str]] = {}
    for a, b in edges:
        adjacent.setdefault(a, []).append(b)
        adjacent.setdefault(b, []).append(a)
    reached, frontier = {start}, [start]
    while frontier:
        for node in adjacent.get(frontier.pop(), ()):
            if node not in reached:
                reached.add(node)
                frontier.append(node)
    return reached


def validate(circuit: Circuit) -> ValidationReport:
    """Collect all invariant violations; an empty report means valid.

    Checks ground presence, connectivity of every node to ground through
    element terminals, value positivity/finiteness, and port annotations.
    """
    violations: list[Violation] = []

    if not any(GROUND in e.terminals for e in circuit.elements):
        violations.append(
            Violation("no-ground", GROUND, "no element terminal touches ground")
        )
    else:
        # an element joins each of its terminals to its first
        grounded = reachable(GROUND, ((e.terminals[0], t) for e in circuit.elements
                                      for t in e.terminals[1:]))
        for node in sorted(circuit.nodes - grounded):
            violations.append(
                Violation("floating-node", node, f"node {node!r} unreachable from ground")
            )

    for e in circuit.elements:
        violations.extend(_positive_value_violations(e))

    names = circuit.names()
    ann = circuit.annotations
    for missing in sorted(ann.feedback_elements - names):
        violations.append(
            Violation(
                "unknown-feedback-element",
                missing,
                f".feedback names unknown element {missing!r}",
            )
        )
    for label, port in (("input", ann.input_port), ("output", ann.output_port)):
        if port is None:
            continue
        for node in port:
            if node not in circuit.nodes:
                violations.append(
                    Violation(
                        "unknown-port-node", node, f".{label} names unknown node {node!r}"
                    )
                )
    if ann.input_port and ann.output_port and set(ann.input_port) == set(ann.output_port):
        violations.append(
            Violation("ports-equal", "", "input and output ports are the same node pair")
        )

    return ValidationReport(tuple(violations))
