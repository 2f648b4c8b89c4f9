"""Command-line front end.

Subcommands: validate, classify, loading, impedance, crosscheck.  Reports go
to stdout, diagnostics to stderr.  Exit codes: 0 success/pass, 1 error,
2 domain-level rejection (irrelevant topology, failed cross-check verdict,
validation violations).

Output format is ``table`` unless overridden by the FEEDBACK_LENS_FORMAT
environment variable; an explicit --format flag wins over both.
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


def cmd_validate(args) -> int:
    circuit = parse_netlist_file(args.netlist)
    report = validate(circuit)
    if args.format == "json":
        payload = {
            "valid": report.ok,
            "violations": [
                {"code": v.code, "subject": v.subject, "message": v.message}
                for v in report.violations
            ],
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        if report.ok:
            print("valid")
        else:
            for violation in report.violations:
                print(f"{args.netlist}: {violation.message}")
    return 0 if report.ok else 2


def cmd_classify(args) -> int:
    circuit = _load_valid_circuit(args.netlist)
    topo = classify_topology(circuit)
    if args.format == "json":
        payload = {
            "input_mix": topo.input_mix.value,
            "output_sense": topo.output_sense.value,
            "validity": topo.validity.value,
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"{topo.label} ({topo.validity.value})")
    return 0 if topo.validity is Validity.VALID else 2


def cmd_loading(args) -> int:
    circuit = _load_valid_circuit(args.netlist)
    loading = loading_of_circuit(circuit)
    if args.format == "json":
        payload = crosscheck.json_safe(
            {"R_if": loading.R_if, "R_of": loading.R_of, "f": loading.f}
        )
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"R_if  {loading.R_if:.9e} Ω")
        print(f"R_of  {loading.R_of:.9e} Ω")
        print(f"f     {loading.f:.9e}")
    return 0


def cmd_impedance(args) -> int:
    lc = linearize(_load_valid_circuit(args.netlist))
    port = tuple(args.port)
    values = {"mna": mna.driving_point_impedance(lc, port)}
    if args.all_engines:
        values["mason"] = crosscheck.mason_driving_point_impedance(lc, port)
        if matched := crosscheck.recognize_case(lc, port):
            case, params = matched
            values["closed_form"] = crosscheck.closed_rx(case, params)
            values["exact_formula"] = crosscheck.exact_rx(case, params)
    if args.format == "json":
        print(json.dumps(crosscheck.json_safe(values), sort_keys=True, indent=2))
    elif args.all_engines:
        for engine in ("mna", "mason", "closed_form", "exact_formula"):
            if engine in values:
                print(f"{engine:<14}{values[engine]:.6e} Ω")
    else:
        print(f"{values['mna']:.6e} Ω")
    return 0


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
        overrides[field] = _option_value("--set", pair, raw)
    return overrides


def cmd_crosscheck(args) -> int:
    overrides = _parse_overrides(args.set or [])
    params = AmplifierParams.typical(**overrides)
    # the documented closed-form error level holds at the typical point only
    typical = args.paper_defaults and not overrides and not args.sweep
    band = crosscheck.CLOSED_FORM_ERROR_BANDS[args.case] if typical else None
    config = crosscheck.CrossCheckConfig(closed_error_band=band)

    if args.sweep:
        axis, _, raw = args.sweep.partition("=")
        grid = [_option_value("--sweep", args.sweep, v) for v in raw.split(",") if v]
        if not grid:
            raise ValueError("--sweep expects axis=v1,v2,...")
        field = _PARAM_ALIASES.get(axis.lower(), axis)
        reports = crosscheck.sweep(args.case, params, field, grid, config)
    else:
        reports = [crosscheck.run_case(args.case, params, config)]

    if args.format == "json":
        # a sweep is a list even with one point; a plain run is one object
        payload = [crosscheck.report_to_dict(r) for r in reports]
        print(json.dumps(payload if args.sweep else payload[0], sort_keys=True, indent=2))
    else:
        print("\n".join(crosscheck.report_table(r) for r in reports), end="")
    return 0 if all(r.passed for r in reports) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feedback-lens",
        description="Small-signal feedback circuit analysis with cross-checked engines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("table", "json"), default=None,
                       help="output format (default: $FEEDBACK_LENS_FORMAT or table)")

    p = sub.add_parser("validate", help="parse a netlist and report violations")
    p.add_argument("netlist")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="classify the annotated feedback topology")
    p.add_argument("netlist")
    add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("loading", help="loading of the feedback network on the amplifier")
    p.add_argument("netlist")
    add_common(p)
    p.set_defaults(func=cmd_loading)

    p = sub.add_parser("impedance", help="driving-point impedance at a port")
    p.add_argument("netlist")
    p.add_argument("--port", nargs=2, metavar=("N+", "N-"), required=True)
    p.add_argument("--all-engines", action="store_true",
                   help="also report the flow-graph value and, when the linearized "
                        "netlist is a case-1 or case-2 circuit up to element and node "
                        "names (no R_in) probed at its case port, the closed form and "
                        "the exact formula")
    add_common(p)
    p.set_defaults(func=cmd_impedance)

    p = sub.add_parser("crosscheck", help="compare all engines on one output-series case")
    p.add_argument("--case", type=int, choices=(1, 2), required=True)
    p.add_argument("--paper-defaults", action="store_true",
                   help="judge the closed form against its documented error level at "
                        "the typical parameter set, which every run starts from; "
                        "applied only without --set or --sweep")
    p.add_argument("--set", action="append", metavar="NAME=VALUE",
                   help="override one parameter (repeatable)")
    p.add_argument("--sweep", metavar="AXIS=V1,V2,...",
                   help="run once per grid value of one parameter")
    add_common(p)
    p.set_defaults(func=cmd_crosscheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for domain rejection
        return 1 if exc.code else 0
    env = os.environ.get(FORMAT_ENV, "").strip().lower()
    args.format = args.format or (env if env in ("table", "json") else "table")
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except NetlistError as exc:
        print(exc.format(args.netlist), file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UnclassifiableTopology, InvalidMacroParams, mna.SingularMatrix, mna.UnknownNode,
            sfg.LimitExceeded, sfg.ZeroDeterminant, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
