"""Small-signal feedback amplifier analysis toolkit.

Parses annotated netlists, classifies negative-feedback topologies, extracts
the loading of the feedback network, evaluates closed-form output impedances
of the two output-series cases, and cross-verifies every number with two
independent engines: a modified-nodal-analysis solver and a signal-flow-graph
engine evaluating the transmission-gain rule.
"""

from .feedback import (
    AmplifierParams,
    FeedbackTopology,
    LoadingModel,
    Mixing,
    Validity,
    classify_topology,
    loading_of_circuit,
)
from .netlist import Circuit, parse_netlist, parse_netlist_file, serialize, validate
from .smallsignal import LinearCircuit, linearize

__all__ = [
    "AmplifierParams",
    "Circuit",
    "FeedbackTopology",
    "LinearCircuit",
    "LoadingModel",
    "Mixing",
    "Validity",
    "classify_topology",
    "linearize",
    "loading_of_circuit",
    "parse_netlist",
    "parse_netlist_file",
    "serialize",
    "validate",
]

__version__ = "0.1.0"
