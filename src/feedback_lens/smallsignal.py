"""Expand device macros into primitive linear elements.

A BjtPi device becomes the hybrid-pi trio: rpi between base and emitter, a
transconductance source gm*v(base,emitter) pushing current from collector to
emitter, and ro between collector and emitter (base series resistance
neglected).  An op-amp becomes a controlled voltage source of gain K behind
rout, driving the out terminal through a synthesized internal node named
``<name>__thev`` so expansions are reproducible.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .netlist import (
    GROUND,
    BjtPi,
    Circuit,
    ISource,
    OpAmp,
    Resistor,
    Vccs,
    Vcvs,
    VSource,
)

Primitive = Resistor | VSource | ISource | Vcvs | Vccs


class InvalidMacroParams(Exception):
    def __init__(self, name: str, message: str):
        super().__init__(f"{name}: {message}")
        self.name = name


@dataclass(frozen=True)
class LinearCircuit:
    nodes: frozenset[str]
    elements: tuple[Primitive, ...]
    provenance: dict[str, str]  # primitive element name -> originating macro

    @classmethod
    def of(
        cls, elements: Iterable[Primitive], provenance: dict[str, str] | None = None
    ) -> "LinearCircuit":
        """Circuit whose nodes are ground plus every element terminal."""
        elements = tuple(elements)
        nodes = {GROUND}
        for e in elements:
            nodes.update(e.terminals)
        return cls(frozenset(nodes), elements, dict(provenance or {}))

    def with_elements(self, *extra: Primitive) -> "LinearCircuit":
        """This circuit plus ``extra``, with the node set derived again."""
        return LinearCircuit.of(self.elements + extra, self.provenance)

    def element(self, name: str) -> Primitive:
        for e in self.elements:
            if e.name == name:
                return e
        raise KeyError(name)


def _require_positive(name: str, **values: float):
    for label, value in values.items():
        if not (value > 0 and math.isfinite(value)):
            raise InvalidMacroParams(name, f"{label} must be positive and finite")


def _expand_bjt(q: BjtPi) -> list[Primitive]:
    _require_positive(q.name, gm=q.gm, rpi=q.rpi, ro=q.ro)
    return [
        Resistor(f"{q.name}__rpi", q.base, q.emitter, q.rpi),
        Vccs(f"{q.name}__gm", q.collector, q.emitter, q.base, q.emitter, q.gm),
        Resistor(f"{q.name}__ro", q.collector, q.emitter, q.ro),
    ]


def _expand_opamp(x: OpAmp) -> list[Primitive]:
    _require_positive(x.name, K=x.gain, rout=x.rout)
    internal = f"{x.name}__thev"
    parts: list[Primitive] = [
        Vcvs(f"{x.name}__gain", internal, GROUND, x.plus, x.minus, x.gain),
        Resistor(f"{x.name}__rout", internal, x.out, x.rout),
    ]
    if x.rin is not None:
        _require_positive(x.name, rin=x.rin)
        parts.append(Resistor(f"{x.name}__rin", x.plus, x.minus, x.rin))
    return parts


def linearize(circuit: Circuit) -> LinearCircuit:
    """Replace every macro with its primitive model; primitives pass through."""
    elements: list[Primitive] = []
    provenance: dict[str, str] = {}
    for e in circuit.elements:
        if isinstance(e, BjtPi):
            expansion = _expand_bjt(e)
        elif isinstance(e, OpAmp):
            expansion = _expand_opamp(e)
        else:
            elements.append(e)
            continue
        for part in expansion:
            provenance[part.name] = e.name
        elements.extend(expansion)
    return LinearCircuit.of(elements, provenance)


def restrict(lc: LinearCircuit, names: frozenset[str] | set[str]) -> LinearCircuit:
    """Sub-circuit containing only the named elements (macro names allowed,
    selecting everything they expanded to)."""
    keep = [e for e in lc.elements if e.name in names or lc.provenance.get(e.name) in names]
    provenance = {e.name: lc.provenance[e.name] for e in keep if e.name in lc.provenance}
    return LinearCircuit.of(keep, provenance)
