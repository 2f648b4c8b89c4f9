import argparse
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import feedback_lens
from feedback_lens import cli, crosscheck, feedback
from feedback_lens.cli import main
from feedback_lens.netlist import serialize

from support import feedback_amplifiers, random_resistor_mesh
from test_netlist import circuits, node_names, positive_values

IMPEDANCE = re.compile(r"([0-9.]+e[+-][0-9]+)")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "name,label",
    [
        ("fig3a.net", "shunt-shunt"),
        ("fig3b.net", "series-shunt"),
        ("fig3c.net", "series-series"),
        ("fig3d.net", "shunt-series"),
        ("fig4.net", "series-series"),
        ("fig5.net", "series-series"),
    ],
)
def test_classify_fixture(capsys, netlists_dir, name, label):
    code, out, _ = run(capsys, "classify", str(netlists_dir / name))
    assert code == 0
    assert out.strip() == f"{label} (valid)"


def test_classify_irrelevant_exits_2(capsys, netlists_dir):
    code, out, _ = run(capsys, "classify", str(netlists_dir / "irrelevant.net"))
    assert code == 2
    assert "(irrelevant)" in out


def test_classify_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.net"
    bad.write_text("R1 a b\n")
    code, out, err = run(capsys, "classify", str(bad))
    assert code == 1
    assert f"{bad}:1:" in err
    assert out == ""


def test_missing_file(capsys):
    code, _, err = run(capsys, "classify", "/no/such/file.net")
    assert code == 1
    assert err


def test_validate_subcommand(capsys, netlists_dir, tmp_path):
    code, out, _ = run(capsys, "validate", str(netlists_dir / "fig4.net"))
    assert code == 0 and out.strip() == "valid"
    floaty = tmp_path / "floaty.net"
    floaty.write_text("R1 a 0 1k\nR2 x y 1k\n")
    code, out, _ = run(capsys, "validate", str(floaty))
    assert code == 2
    assert "unreachable" in out


def test_impedance_series(capsys, tmp_path):
    net = tmp_path / "series.net"
    net.write_text("R1 p m 1k\nR2 m 0 2k\n")
    code, out, _ = run(capsys, "impedance", str(net), "--port", "p", "0")
    assert code == 0
    assert float(IMPEDANCE.search(out).group(1)) == pytest.approx(3e3, rel=1e-6)


def test_impedance_model_fixtures(capsys, netlists_dir):
    code, out, _ = run(capsys, "impedance", str(netlists_dir / "fig7.net"), "--port", "c", "0")
    assert code == 0
    assert float(IMPEDANCE.search(out).group(1)) == pytest.approx(6.758133e6, rel=1e-5)
    code, out, _ = run(capsys, "impedance", str(netlists_dir / "fig9.net"), "--port", "e", "0")
    assert code == 0
    assert float(IMPEDANCE.search(out).group(1)) == pytest.approx(9.569867e5, rel=1e-5)


def test_impedance_all_engines(capsys, netlists_dir):
    code, out, _ = run(
        capsys, "impedance", str(netlists_dir / "fig7.net"),
        "--port", "c", "0", "--all-engines", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mna"] == pytest.approx(6758132.690389, rel=1e-6)
    assert payload["mason"] == pytest.approx(payload["mna"], rel=1e-6)
    assert payload["closed_form"] == pytest.approx(6723980.678746291, rel=1e-6)
    assert payload["exact_formula"] == pytest.approx(payload["mna"], rel=1e-6)


def test_impedance_all_engines_case2_pattern(capsys, netlists_dir):
    code, out, _ = run(
        capsys, "impedance", str(netlists_dir / "fig9.net"),
        "--port", "e", "0", "--all-engines", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form"] == pytest.approx(1005025.0, rel=1e-6)


# Two netlists on which the flow graph of the whole probed system goes
# wrong: 1.348768 Ohm with no error on the mesh, ZeroDeterminant on the
# chain.  Both routes probe the port-reduced circuit, where neither happens.
ACTIVE_MESH = """R1 n1 0 10
R2 n2 0 10
R3 n3 0 10
R4 n4 0 10
R5 n5 0 10
R6 n6 n4 100k
R7 n7 n1 10M
RC0 n2 n7 10
RC1 n3 n6 10
G1 n1 n6 n2 n4 1
Q1 0 n2 n3 gm=1 rpi=10 ro=10
X1 0 n1 n4 K=10k rout=10
"""
RESISTOR_CHAIN = "R1 n1 0 10\nR3 n3 n1 10\nR4 n4 n3 10\nR8 n8 n4 100\n"


@pytest.mark.parametrize("text, port, ohms", [
    (ACTIVE_MESH, ("0", "n3"), "1.333609e+00"),
    (RESISTOR_CHAIN, ("n4", "n1"), "2.000000e+01"),
], ids=["active-mesh", "resistor-chain"])
def test_impedance_all_engines_on_the_port_reduced_circuit(capsys, tmp_path, text, port, ohms):
    net = tmp_path / "mesh.net"
    net.write_text(text)
    code, out, err = run(capsys, "impedance", str(net), "--port", *port, "--all-engines")
    assert (code, out, err) == (0, f"mna           {ohms} Ω\nmason         {ohms} Ω\n", "")


def test_impedance_port_bridged_by_a_self_controlled_vccs_is_open(capsys, tmp_path):
    # G0's control nodes are both x, so it moves no current between a and
    # b, and the port is open however the solve rounds its residue current
    net = tmp_path / "bridge.net"
    net.write_text("R1 a 0 1k\nG0 a b x x 1m\nR3 b d 3k\nR4 d e 7k\nR5 e b 11k\n"
                   "G1 d e d b 1m\nR6 x 0 1k\n")
    assert run(capsys, "validate", str(net))[0] == 0
    code, out, err = run(capsys, "impedance", str(net), "--port", "a", "b", "--all-engines")
    assert (code, out, err) == (0, "mna           inf Ω\nmason         inf Ω\n", "")


def test_impedance_unknown_node(capsys, netlists_dir):
    code, _, err = run(capsys, "impedance", str(netlists_dir / "fig7.net"), "--port", "zz", "0")
    assert code == 1 and "unknown node" in err


def test_impedance_singular_input(capsys, tmp_path):
    net = tmp_path / "contradictory.net"
    net.write_text("V1 a 0 1\nV2 a 0 2\nR1 a 0 1k\n")
    code, _, err = run(capsys, "impedance", str(net), "--port", "a", "0")
    assert code == 1
    assert err


def test_loading_reports_an_open_port_as_infinite(capsys, netlists_dir, tmp_path):
    code, out, _ = run(capsys, "loading", str(netlists_dir / "irrelevant.net"))
    assert code == 0
    assert "R_of  inf Ω" in out
    # RF split in two leaves the output side just as open; its rounding
    # residue must not read as a huge (or negative) R_of
    split = tmp_path / "split.net"
    split.write_text((netlists_dir / "irrelevant.net").read_text()
                     .replace("RF c2 c1 22k", "RFA c2 m 10k\nRFB m c1 12k")
                     .replace(".feedback RF", ".feedback RFA RFB"))
    assert run(capsys, "validate", str(split))[0] == 0
    code, out, _ = run(capsys, "loading", str(split))
    assert code == 0
    assert "R_of  inf Ω" in out


def test_loading_port_node_outside_the_feedback_network(capsys, netlists_dir, tmp_path):
    net = tmp_path / "moved.net"
    net.write_text((netlists_dir / "fig3b.net").read_text()
                   .replace("RC c 0 4.7k", "RC c r 4.7k").replace(".input b 0", ".input b r"))
    assert run(capsys, "classify", str(net))[1].strip() == "series-shunt (valid)"
    code, out, err = run(capsys, "loading", str(net))
    assert code == 1
    assert out == ""
    assert err == "error: unknown node 'r'\n"


def test_loading_rejects_an_active_feedback_element(capsys, tmp_path):
    net = tmp_path / "active.net"
    net.write_text("Q1 b c 0 gm=40m rpi=2.5k ro=100k\nRC c 0 4.7k\nQ2 c b 0 gm=1m rpi=10k ro=1M\n"
                   "RG b 0 10k\n.input b 0\n.output c 0\n.feedback Q2 RG\n")
    code, out, err = run(capsys, "loading", str(net))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Q2" in err and "purely resistive" in err


def test_runs_without_numpy(netlists_dir):
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from feedback_lens.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(feedback_lens.__file__).parents[1])}
    for argv in (["crosscheck", "--case", "1", "--paper-defaults"],
                 ["impedance", str(netlists_dir / "fig7.net"), "--port", "c", "0",
                  "--all-engines"]):
        done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


def test_cli_imports_only_the_package_and_the_standard_library():
    # sys.modules before and after, as site may already import third-party
    # packages (a .pth hook) before any of the package's code runs
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import feedback_lens.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(feedback_lens.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    loaded = done.stdout.split()
    assert "feedback_lens.cli" in loaded
    foreign = [name for name in loaded if name.partition(".")[0] != "feedback_lens"
               and name.partition(".")[0] not in sys.stdlib_module_names]
    assert not foreign


def test_loading_subcommand(capsys, netlists_dir):
    code, out, _ = run(capsys, "loading", str(netlists_dir / "fig3d.net"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["R_if"] == pytest.approx(11e3, rel=1e-9)
    assert payload["R_of"] == pytest.approx(10e3 / 11.0, rel=1e-9)
    assert payload["f"] == pytest.approx(-1.0 / 11.0, rel=1e-9)


def test_crosscheck_case1_defaults(capsys):
    code, out, _ = run(capsys, "crosscheck", "--case", "1", "--paper-defaults")
    assert code == 0
    assert "verdict: pass" in out
    assert "0.5053%" in out


def test_crosscheck_case2_defaults_json(capsys):
    code, out, _ = run(
        capsys, "crosscheck", "--case", "2", "--paper-defaults", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["closed_form_error"] == pytest.approx(0.0501973, rel=1e-4)
    assert payload["values"]["mna"] == pytest.approx(956986.6698405, rel=1e-6)


def test_crosscheck_rout_override_shrinks_error(capsys):
    code, out, _ = run(
        capsys, "crosscheck", "--case", "2", "--paper-defaults",
        "--set", "rout=10", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form_error"] < 0.005
    assert payload["parameters"]["r_out"] == 10.0


def test_crosscheck_sweep(capsys):
    code, out, _ = run(
        capsys, "crosscheck", "--case", "1", "--sweep", "K=10,100,1000",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 3
    values = [r["values"]["exact_formula"] for r in payload]
    assert values == sorted(values)


def test_crosscheck_one_point_sweep_is_a_list(capsys):
    code, out, _ = run(capsys, "crosscheck", "--case", "1", "--sweep", "K=10",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 1
    assert payload[0]["parameters"]["K"] == 10.0


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("sweep", ["K=,", "K=,,"])
def test_crosscheck_sweep_with_no_value_is_a_typed_error(capsys, sweep, fmt):
    code, out, err = run(capsys, "crosscheck", "--case", "1", "--sweep", sweep,
                         "--format", fmt)
    assert (code, out, err) == (1, "", "error: --sweep expects axis=v1,v2,...\n")


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("options, message", [
    (["--set", "k=1", "--set", "K=5"], "--set K=5: K is already set"),
    (["--sweep", "K=1,,2"], "--sweep K=1,,2: bad numeric value ''"),
    (["--sweep", "K=1,"], "--sweep K=1,: bad numeric value ''"),
    (["--set", "k=10", "--sweep", "k=1,2"], "--sweep k=1,2: K is already set by --set"),
])
def test_crosscheck_drops_no_parameter_value(capsys, options, message, fmt):
    code, out, err = run(capsys, "crosscheck", "--case", "1", *options, "--format", fmt)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, option", [
    (["impedance", "fig3a.net", "--port", "c", "0", "--port", "b", "0"], "--port"),
    (["crosscheck", "--case", "1", "--case", "2"], "--case"),
    (["crosscheck", "--case", "1", "--sweep", "K=1,2", "--sweep", "r1=5"], "--sweep"),
    (["loading", "fig3d.net", "--format", "json", "--format", "table"], "--format"),
    (["validate", "fig4.net", "--format", "json", "--format", "json"], "--format"),
])
def test_a_single_valued_option_given_twice_is_an_error(capsys, netlists_dir, argv, option):
    # the first value would be dropped without a word; only --set repeats
    argv = [str(netlists_dir / a) if a.endswith(".net") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {option} is given more than once\n")


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("option, value, problem", [
    ("--set", "k=", "bad numeric value ''"),
    ("--sweep", "K=1,abc", "bad numeric value 'abc'"),
    ("--set", "k=1e400", "non-finite value '1e400'"),
])
def test_crosscheck_bad_number_names_its_option(capsys, option, value, problem, fmt):
    # not a netlist error: no file name and line number
    code, out, err = run(capsys, "crosscheck", "--case", "1", option, value, "--format", fmt)
    assert (code, out, err) == (1, "", f"error: {option} {value}: {problem}\n")


@pytest.mark.parametrize("case", ["1", "2"])
def test_crosscheck_finite_input_resistance_passes(capsys, case):
    code, out, _ = run(
        capsys, "crosscheck", "--case", case, "--set", "rin=1k", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["parameters"]["R_in"] == 1000.0
    for pair in ("exact_formula vs mason", "exact_formula vs mna", "mason vs mna"):
        assert payload["relative_errors"][pair] <= 1e-6


def test_crosscheck_bad_parameter(capsys):
    code, _, err = run(capsys, "crosscheck", "--case", "1", "--set", "zz=1")
    assert code == 1 and "unknown parameter" in err


def test_format_env_variable(capsys, netlists_dir, monkeypatch):
    monkeypatch.setenv("FEEDBACK_LENS_FORMAT", "json")
    code, out, _ = run(capsys, "classify", str(netlists_dir / "fig4.net"))
    assert code == 0
    assert json.loads(out)["validity"] == "valid"
    # explicit flag beats the environment
    code, out, _ = run(capsys, "classify", str(netlists_dir / "fig4.net"),
                       "--format", "table")
    assert out.strip() == "series-series (valid)"


@pytest.mark.parametrize("value", ["xml", " XML ", "yaml"])
def test_unknown_format_env_value_is_an_error(capsys, netlists_dir, monkeypatch, value):
    monkeypatch.setenv("FEEDBACK_LENS_FORMAT", value)
    code, out, err = run(capsys, "classify", str(netlists_dir / "fig4.net"))
    assert code == 1
    assert out == ""
    assert err == (f"error: FEEDBACK_LENS_FORMAT={value.strip().lower()!r} "
                   "is neither table nor json\n")
    # an explicit --format does not read the variable
    code, out, _ = run(capsys, "classify", str(netlists_dir / "fig4.net"),
                       "--format", "table")
    assert (code, out) == (0, "series-series (valid)\n")
    monkeypatch.setenv("FEEDBACK_LENS_FORMAT", " ")
    assert run(capsys, "classify", str(netlists_dir / "fig4.net"))[:2] == (
        0, "series-series (valid)\n")


def test_json_reports_round_trip(capsys, netlists_dir):
    code, out, _ = run(
        capsys, "crosscheck", "--case", "1", "--paper-defaults", "--format", "json"
    )
    payload = json.loads(out)
    assert json.loads(json.dumps(payload)) == payload


NETLISTS = Path(__file__).resolve().parent.parent / "netlists"
FIXTURES = sorted(p.name for p in NETLISTS.glob("*.net"))
IMPEDANCE_PORTS = {"fig3a": ("c", "0"), "fig3b": ("c", "0"), "fig3c": ("c", "0"),
                   "fig3d": ("c2", "0"), "fig7": ("c", "0"), "fig9": ("e", "0"),
                   "irrelevant": ("c2", "0")}
VALUE_LINE = re.compile(r"(\w+(?: vs \w+)?) +(\S+)(?: Ω)?")


def table_values(argv, out):
    """Each value a table report prints, as printed, by name."""
    if argv[0] in ("validate", "classify"):
        return {"report": out.splitlines()}
    if argv[0] == "impedance" and "--all-engines" not in argv:
        out = f"mna {out}"
    values = {}
    for line in out.splitlines():
        if match := VALUE_LINE.fullmatch(line):
            values[match[1]] = match[2]
        elif ": " in line:
            name, _, text = line.partition(": ")
            values[name] = text
    return values


def json_values(argv, payload):
    """Each value of a JSON report, by its table name, at the table's precision."""
    if argv[0] == "validate":
        messages = [f"{argv[1]}: {v['message']}" for v in payload["violations"]]
        return {"report": messages or ["valid"]}
    if argv[0] == "classify":
        return {"report": [f"{payload['input_mix']}-{payload['output_sense']} "
                           f"({payload['validity']})"]}
    if argv[0] != "crosscheck":
        digits = ".9e" if argv[0] == "loading" else ".6e"
        return {name: format(float(v), digits) for name, v in payload.items()}
    if isinstance(payload, list):
        (payload,) = payload
    return {**{name: f"{float(v):.9e}" for name, v in payload["values"].items()},
            **{pair: f"{float(v):.3e}" for pair, v in payload["relative_errors"].items()},
            "quantity": payload["quantity"], "verdict": payload["verdict"],
            "closed-form error vs exact": f"{float(payload['closed_form_error']):.4%}"}


@pytest.mark.parametrize("argv", [
    *([command, f"netlists/{name}"] for name in FIXTURES
      for command in ("validate", "classify", "loading")),
    *(["impedance", f"netlists/{name}.net", "--port", *port, *engines]
      for name, port in IMPEDANCE_PORTS.items() for engines in ([], ["--all-engines"])),
    *(["crosscheck", "--case", case, *sweep] for case in ("1", "2")
      for sweep in ([], ["--sweep", "K=10"])),
], ids=" ".join)
def test_table_and_json_report_the_same_values(capsys, monkeypatch, argv):
    monkeypatch.chdir(NETLISTS.parent)
    code, table, _ = run(capsys, *argv, "--format", "table")
    json_code, out, _ = run(capsys, *argv, "--format", "json")
    assert json_code == code
    if code == 1:
        assert table == out == ""
    else:
        assert table_values(argv, table) == json_values(argv, json.loads(out))


def test_crosscheck_json_has_no_non_finite_literals(capsys):
    # R2 and R_in default to infinity; JSON has no literal for it
    code, out, _ = run(capsys, "crosscheck", "--case", "2", "--format", "json")

    def reject(literal):
        raise ValueError(f"{literal} is not valid JSON")

    payload = json.loads(out, parse_constant=reject)
    assert payload["parameters"]["R2"] == payload["parameters"]["R_in"] == "inf"


def test_crosscheck_sweep_is_not_judged_against_the_typical_band(capsys):
    # the documented closed-form error holds at the typical point only;
    # at K=10 the closed form is 29% off
    code, out, _ = run(
        capsys, "crosscheck", "--case", "1", "--paper-defaults", "--sweep", "K=10,1000",
    )
    assert code == 0
    assert out.count("verdict: pass") == 2


def test_crosscheck_case2_zero_gain_is_a_typed_error(capsys):
    code, out, err = run(capsys, "crosscheck", "--case", "2", "--set", "k=0")
    assert code == 1 and out == ""
    assert err.startswith("error: K must be nonzero")


@pytest.mark.parametrize("case,sets", [
    ("1", ["gm=1e20"]),  # the flow graph's gain v_x -> i_x underflows to 0
    ("2", ["ro=1e-320", "gm=1e-20"]),  # g_m * r_o underflows in the flow graph
    ("2", ["rpi=5e-324", "gm=1e-9"]),  # beta underflows to 0
    ("1", ["rpi=5e-324", "gm=1e-9"]),
    ("2", ["ro=1e308", "r1=1e308"]),  # inf / inf in the exact formula is NaN
])
def test_crosscheck_parameters_out_of_float_range_are_typed_errors(capsys, case, sets):
    argv = ["crosscheck", "--case", case]
    for pair in sets:
        argv += ["--set", pair]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("engines", [[], ["--all-engines"]])
def test_impedance_port_with_equal_nodes_is_a_typed_error(capsys, netlists_dir, engines):
    code, out, err = run(capsys, "impedance", str(netlists_dir / "fig7.net"),
                         "--port", "c", "c", *engines)
    assert (code, out, err) == (1, "", "error: port nodes must differ, got 'c' twice\n")


def test_impedance_on_a_case_circuit_whose_beta_underflows(capsys, netlists_dir, tmp_path):
    # g_m * r_pi is 0 in floating point, so the circuit is no case circuit
    # and only the two general engines report
    text = (netlists_dir / "fig7.net").read_text()
    net = tmp_path / "tiny_beta.net"
    net.write_text(text.replace("Rpi b e 2.5k", "Rpi b e 1e-5").replace("40m", "1e-320"))
    code, out, err = run(capsys, "impedance", str(net), "--port", "c", "0", "--all-engines")
    assert code == 0 and err == ""
    assert [line.split()[0] for line in out.splitlines()] == ["mna", "mason"]


def run_quiet(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


extreme_values = st.one_of(
    st.sampled_from(["0", "-1", "5e-324", "1e308"]),
    st.builds("{}e{}".format, st.integers(1, 9), st.integers(-324, 307)),
)


@given(case=st.sampled_from(["1", "2"]),
       sets=st.lists(st.tuples(st.sampled_from(sorted(cli._PARAM_ALIASES)), extreme_values),
                     max_size=6))
def test_crosscheck_on_extreme_parameters_exits_cleanly(case, sets):
    argv = ["crosscheck", "--case", case]
    for name, value in sets:
        argv += ["--set", f"{name}={value}"]
    code, out, err = run_quiet(*argv)  # a traceback would propagate out of main
    assert code in (0, 1, 2)
    assert code != 1 or out == ""
    assert err.count("\n") == (code == 1)
    assert "nan" not in out and "inf" not in out


def test_readme_documents_exactly_the_cli_options():
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {opt for p in sub.choices.values() for a in p._actions
               for opt in a.option_strings if opt.startswith("--") and a.dest != "help"}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    assert options == set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))


def test_readme_library_sketch_runs(monkeypatch):
    root = Path(__file__).resolve().parent.parent
    monkeypatch.chdir(root)
    (sketch,) = re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(), re.S)
    scope = {}
    exec(sketch, scope)
    assert scope["r"] == scope["report"].values["mna"]


@settings(deadline=None)
@given(circuit=circuits(positive_values), port=st.tuples(node_names, node_names))
def test_every_subcommand_on_generated_netlists_exits_cleanly(circuit, port):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "generated.net")
        Path(path).write_text(serialize(circuit))
        for argv in (["validate", path], ["classify", path], ["loading", path],
                     ["impedance", path, "--port", *port],
                     ["impedance", path, "--port", *port, "--all-engines"]):
            code, out, err = run_quiet(*argv)  # a traceback would propagate out of main
            assert code in (0, 1, 2)
            assert code != 1 or out == ""
            for line in err.splitlines():
                assert line.startswith((f"{path}:", "error: ")), line


@settings(deadline=None)
@given(circuit=feedback_amplifiers())
def test_classify_and_loading_on_generated_feedback_amplifiers(circuit):
    # each call prints the library's values as JSON, or fails with one line
    def classify(c):
        topo = feedback.classify_topology(c)
        return {"input_mix": topo.input_mix.value, "output_sense": topo.output_sense.value,
                "validity": topo.validity.value}

    def loading(c):
        model = feedback.loading_of_circuit(c)
        return crosscheck.json_safe({"R_if": model.R_if, "R_of": model.R_of, "f": model.f})

    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "amplifier.net")
        Path(path).write_text(serialize(circuit))
        for command, library in (("classify", classify), ("loading", loading)):
            code, out, err = run_quiet(command, path, "--format", "json")
            if code == 0:
                assert err == ""
                assert json.loads(out) == library(circuit)
            else:
                assert code == 1 and out == ""
                with pytest.raises(Exception) as raised:
                    library(circuit)
                assert err == f"error: {raised.value}\n"


def test_impedance_all_engines_on_renamed_fixture(capsys, netlists_dir, tmp_path):
    text = (netlists_dir / "fig7.net").read_text()
    renamed = tmp_path / "renamed.net"
    renamed.write_text(re.sub(r"(?<= )([tbce])(?= )", r"node_\1", text))
    code, out, _ = run(capsys, "impedance", str(renamed), "--port", "node_c", "0",
                       "--all-engines")
    assert code == 0
    engines = [line.split()[0] for line in out.splitlines()]
    assert engines == ["mna", "mason", "closed_form", "exact_formula"]


def test_impedance_all_engines_on_a_40_node_mesh(capsys, tmp_path):
    mesh = random_resistor_mesh(np.random.default_rng(40), n_nodes=40)
    net = tmp_path / "mesh40.net"
    net.write_text("".join(f"{e.name} {e.n1} {e.n2} {e.ohms!r}\n" for e in mesh.elements))
    code, out, _ = run(capsys, "impedance", str(net), "--port", "n1", "0",
                       "--all-engines", "--format", "json")
    assert code == 0
    values = json.loads(out)
    assert values["mason"] == pytest.approx(values["mna"], rel=1e-6)
