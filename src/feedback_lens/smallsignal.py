"""Expand device macros into primitive linear elements.

A BjtPi device becomes the hybrid-pi trio: rpi between base and emitter, a
transconductance source gm*v(base,emitter) pushing current from collector to
emitter, and ro between collector and emitter (base series resistance
neglected).  An op-amp becomes a controlled voltage source of gain K behind
rout, driving the out terminal through a synthesized internal node named
``<name>__thev`` so expansions are reproducible, and rin, when given,
across its inputs.

``linearize`` expands every element of a parsed circuit, each macro in
place, into a ``Circuit`` of primitives with no title or annotations.  It
hands the circuit's purely resistive feedback network over to it, so that
``mna.seen_at`` reduces that network's interior once for loading and for
both impedance routes.
"""

from __future__ import annotations

import math

from .netlist import GROUND, BjtPi, Circuit, Element, OpAmp, Primitive, Resistor, Vccs, Vcvs


class InvalidMacroParams(Exception):
    def __init__(self, name: str, message: str):
        super().__init__(f"{name}: {message}")
        self.name = name


def _require_positive(name: str, **values: float):
    for label, value in values.items():
        if not (value > 0 and math.isfinite(value)):
            raise InvalidMacroParams(name, f"{label} must be positive and finite")


def _expand(e: Element) -> list[Primitive]:
    """The primitive model of ``e``; a primitive is its own."""
    if isinstance(e, BjtPi):
        _require_positive(e.name, gm=e.gm, rpi=e.rpi, ro=e.ro)
        return [
            Resistor(f"{e.name}__rpi", e.base, e.emitter, e.rpi),
            Vccs(f"{e.name}__gm", e.collector, e.emitter, e.base, e.emitter, e.gm),
            Resistor(f"{e.name}__ro", e.collector, e.emitter, e.ro),
        ]
    if isinstance(e, OpAmp):
        _require_positive(e.name, K=e.gain, rout=e.rout)
        internal = f"{e.name}__thev"
        parts: list[Primitive] = [
            Vcvs(f"{e.name}__gain", internal, GROUND, e.plus, e.minus, e.gain),
            Resistor(f"{e.name}__rout", internal, e.out, e.rout),
        ]
        if e.rin is not None:
            _require_positive(e.name, rin=e.rin)
            parts.append(Resistor(f"{e.name}__rin", e.plus, e.minus, e.rin))
        return parts
    return [e]


def linearize(circuit: Circuit) -> Circuit:
    """Replace every macro with its primitive model; primitives pass through
    as the same objects.  A non-empty, purely resistive
    ``circuit.feedback_network`` is therefore made of elements of the
    result, which carries that same object in its ``__dict__``, where
    ``==``, hash and ``repr`` do not look.  A circuit with no ``.feedback``
    never builds one."""
    lc = Circuit(tuple(p for e in circuit.elements for p in _expand(e)))
    if circuit.annotations.feedback_elements:
        network = circuit.feedback_network
        if network.elements and all(isinstance(e, Resistor) for e in network.elements):
            vars(lc)["feedback_network"] = network
    return lc
