"""Command-line front end.

Subcommands: validate, classify, loading, impedance, crosscheck.  Reports go
to stdout, diagnostics to stderr.  Exit codes: 0 success/pass, 1 error,
2 domain-level rejection (irrelevant topology, failed cross-check verdict,
validation violations).

Each ``cmd_*`` prints nothing to stdout: it returns ``(payload, lines,
exit_code)``, the JSON-ready report and its table lines.  ``main`` prints one
of the two once, and nothing when the command raises.

Output format is ``table`` unless overridden by the FEEDBACK_LENS_FORMAT
environment variable; an explicit --format flag wins over both.  Without
--format, a value of that variable other than table or json is an error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from . import crosscheck, mna, sfg
from .feedback import (
    AmplifierParams,
    UnclassifiableTopology,
    Validity,
    classify_topology,
    loading_of_circuit,
)
from .netlist import NetlistError, NetlistSyntaxError, parse_netlist_file, parse_value, validate
from .smallsignal import InvalidMacroParams, linearize

FORMAT_ENV = "FEEDBACK_LENS_FORMAT"

# --set/--sweep name: a field of AmplifierParams, or it lowercased without "_"
_PARAM_ALIASES = {f.name.lower().replace("_", ""): f.name for f in fields(AmplifierParams)}


def _load_valid_circuit(path: str):
    circuit = parse_netlist_file(path)
    report = validate(circuit)
    if not report.ok:
        for violation in report.violations:
            print(f"{path}: {violation.message}", file=sys.stderr)
        raise SystemExit(1)
    return circuit


def cmd_validate(args):
    report = validate(parse_netlist_file(args.netlist))
    violations = [{"code": v.code, "subject": v.subject, "message": v.message}
                  for v in report.violations]
    payload = {"valid": report.ok, "violations": violations}
    lines = [f"{args.netlist}: {v.message}" for v in report.violations] or ["valid"]
    return payload, lines, 0 if report.ok else 2


def cmd_classify(args):
    topo = classify_topology(_load_valid_circuit(args.netlist))
    payload = {"input_mix": topo.input_mix.value, "output_sense": topo.output_sense.value,
               "validity": topo.validity.value}
    lines = [f"{topo.label} ({topo.validity.value})"]
    return payload, lines, 0 if topo.validity is Validity.VALID else 2


def cmd_loading(args):
    loading = loading_of_circuit(_load_valid_circuit(args.netlist))
    payload = {"R_if": loading.R_if, "R_of": loading.R_of, "f": loading.f}
    lines = [f"R_if  {loading.R_if:.9e} Ω", f"R_of  {loading.R_of:.9e} Ω",
             f"f     {loading.f:.9e}"]
    return crosscheck.json_safe(payload), lines, 0


def cmd_impedance(args):
    lc = linearize(_load_valid_circuit(args.netlist))
    port = tuple(args.port)
    values = {"mna": mna.driving_point_impedance(lc, port)}
    if args.all_engines:
        values["mason"] = crosscheck.mason_driving_point_impedance(lc, port)
        if matched := crosscheck.recognize_case(lc, port):
            case, params = matched
            values["closed_form"] = crosscheck.closed_rx(case, params)
            values["exact_formula"] = crosscheck.exact_rx(case, params)
        lines = [f"{engine:<14}{value:.6e} Ω" for engine, value in values.items()]
    else:
        lines = [f"{values['mna']:.6e} Ω"]
    return crosscheck.json_safe(values), lines, 0


def _option_value(option: str, text: str, raw: str) -> float:
    """``raw``, a value in ``option text``; a bad one is a ``ValueError``
    naming both, not a netlist error."""
    try:
        return parse_value(raw)
    except NetlistSyntaxError as exc:
        raise ValueError(f"{option} {text}: {exc}") from None


def _parse_overrides(pairs: list[str]) -> dict[str, float]:
    overrides = {}
    valid = {f.name for f in fields(AmplifierParams)}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--set expects name=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        field = _PARAM_ALIASES.get(key.lower(), key)
        if field not in valid:
            raise ValueError(f"unknown parameter {key!r}")
        if field in overrides:
            raise ValueError(f"--set {pair}: {field} is already set")
        overrides[field] = _option_value("--set", pair, raw)
    return overrides


def cmd_crosscheck(args):
    overrides = _parse_overrides(args.set or [])
    params = AmplifierParams.typical(**overrides)
    # the documented closed-form error level holds at the typical point only
    typical = args.paper_defaults and not overrides and not args.sweep
    band = crosscheck.CLOSED_FORM_ERROR_BANDS[args.case] if typical else None
    config = crosscheck.CrossCheckConfig(closed_error_band=band)

    if args.sweep:
        axis, _, raw = args.sweep.partition("=")
        if not raw.replace(",", ""):
            raise ValueError("--sweep expects axis=v1,v2,...")
        grid = [_option_value("--sweep", args.sweep, v) for v in raw.split(",")]
        field = _PARAM_ALIASES.get(axis.lower(), axis)
        if field in overrides:
            raise ValueError(f"--sweep {args.sweep}: {field} is already set by --set")
        reports = crosscheck.sweep(args.case, params, field, grid, config)
    else:
        reports = [crosscheck.run_case(args.case, params, config)]

    # a sweep is a list even with one point; a plain run is one object
    payload = [crosscheck.report_to_dict(r) for r in reports]
    lines = "\n".join(crosscheck.report_table(r) for r in reports).splitlines()
    code = 0 if all(r.passed for r in reports) else 2
    return (payload if args.sweep else payload[0]), lines, code


_FORMAT_HELP = "output format (default: $FEEDBACK_LENS_FORMAT or table)"
_ALL_ENGINES_HELP = ("also report the flow-graph value and, when the linearized netlist is a "
                     "case-1 or case-2 circuit up to element and node names (no R_in) probed "
                     "at its case port, the closed form and the exact formula")
_PAPER_DEFAULTS_HELP = ("judge the closed form against its documented error level at the "
                        "typical parameter set, which every run starts from; applied only "
                        "without --set or --sweep")
_COMMANDS = (
    ("validate", cmd_validate, "parse a netlist and report violations"),
    ("classify", cmd_classify, "classify the annotated feedback topology"),
    ("loading", cmd_loading, "loading of the feedback network on the amplifier"),
    ("impedance", cmd_impedance, "driving-point impedance at a port"),
    ("crosscheck", cmd_crosscheck, "compare all engines on one output-series case"),
)


class _Once(argparse.Action):
    """Store a value; a second one is an error, not a silent replacement."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.exit(2, f"error: {option_string} is given more than once\n")
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feedback-lens",
        description="Small-signal feedback circuit analysis with cross-checked engines",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text in _COMMANDS:
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        if func is not cmd_crosscheck:
            p.add_argument("netlist")
        if func is cmd_impedance:
            p.add_argument("--port", nargs=2, metavar=("N+", "N-"), required=True, action=_Once)
            p.add_argument("--all-engines", action="store_true", help=_ALL_ENGINES_HELP)
        if func is cmd_crosscheck:
            p.add_argument("--case", type=int, choices=(1, 2), required=True, action=_Once)
            p.add_argument("--paper-defaults", action="store_true", help=_PAPER_DEFAULTS_HELP)
            p.add_argument("--set", action="append", metavar="NAME=VALUE",
                           help="override one parameter (repeatable)")
            p.add_argument("--sweep", metavar="AXIS=V1,V2,...", action=_Once,
                           help="run once per grid value of one parameter")
        # last, so that each usage line lists the subcommand's own options first
        p.add_argument("--format", choices=("table", "json"), action=_Once, help=_FORMAT_HELP)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for domain rejection
        return 1 if exc.code else 0
    env = os.environ.get(FORMAT_ENV, "").strip().lower()
    if not args.format and env not in ("", "table", "json"):
        print(f"error: {FORMAT_ENV}={env!r} is neither table nor json", file=sys.stderr)
        return 1
    fmt = args.format or env or "table"
    try:
        payload, lines, code = args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except NetlistError as exc:
        print(exc.format(args.netlist), file=sys.stderr)
        return 1
    except (OSError, UnclassifiableTopology, InvalidMacroParams, mna.SingularMatrix,
            mna.UnknownNode, sfg.LimitExceeded, sfg.ZeroDeterminant, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
