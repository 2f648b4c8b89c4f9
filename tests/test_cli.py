import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import feedback_lens
from feedback_lens.cli import main

from support import random_resistor_mesh

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


def test_json_reports_round_trip(capsys, netlists_dir):
    code, out, _ = run(
        capsys, "crosscheck", "--case", "1", "--paper-defaults", "--format", "json"
    )
    payload = json.loads(out)
    assert json.loads(json.dumps(payload)) == payload


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
