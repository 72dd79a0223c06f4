import json
from pathlib import Path

import pytest

from seqsteer import (
    GHZ,
    W,
    InequalityKind,
    Optimizer,
    Scenario,
    SearchConfig,
    SettingTriple,
    build_state,
    build_table,
)
from seqsteer.cascade import value_from_state
from seqsteer.cli import main
from seqsteer.qop import XYZ
from util import save_state_file

GOLDEN = Path(__file__).parent / "golden"
CLI_REFERENCE = json.loads(
    (Path(__file__).parents[1] / "bench" / "reference" / "cli_stdout.json").read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cascade_text(capsys):
    code, out, err = run(
        capsys, "cascade", "--state", "ghz", "--scenario", "A",
        "--lambdas", "0.627,0.736",
    )
    assert code == 0 and err == ""
    assert "inequality g1" in out
    assert "observer 3: lambda=1.000000" in out
    assert out.count("violation") >= 3


def test_cascade_appends_projective_final_observer(capsys):
    code, out, _ = run(
        capsys, "cascade", "--lambdas", "0.627", "--format", "json"
    )
    doc = json.loads(out)
    assert [r["lambda"] for r in doc["observers"]] == [0.627, 1.0]
    assert doc["observers"][1]["value"] == pytest.approx(-0.550659, abs=1e-5)
    assert doc["observers"][1]["detected"] is True


def test_cascade_csv(capsys):
    code, out, _ = run(
        capsys, "cascade", "--lambdas", "0.627,1.0", "--format", "csv"
    )
    lines = out.strip().splitlines()
    assert lines[0] == "observer,lambda,value,detected"
    assert lines[1] == "1,0.627000,-0.099300,true"


def test_threshold_default_is_first_observer(capsys):
    code, out, _ = run(capsys, "threshold", "--format", "json")
    doc = json.loads(out)
    assert doc["m"] == 1
    assert doc["status"] == "ok"
    assert doc["lambda_min"] == pytest.approx(0.577393, abs=1e-5)


def test_threshold_with_predecessors(capsys):
    code, out, _ = run(
        capsys, "threshold", "--lambdas", "0.577493,0.657998,0.787698",
        "--format", "csv",
    )
    assert out == "m,lambda_min,status\n4,,none\n"
    assert code == 0


def test_table_csv_matches_golden(capsys):
    code, out, _ = run(
        capsys, "table", "--state", "ghz", "--scenario", "B", "--ineq", "g1",
        "--format", "csv",
    )
    assert code == 0
    assert out == (GOLDEN / "ghz_B_g1.csv").read_text()


def test_table_rejects_lambdas(capsys):
    code, _, err = run(capsys, "table", "--lambdas", "0.6")
    assert code == 2
    assert "drop --lambdas" in err


def test_identical_invocations_are_byte_identical(capsys):
    args = ("table", "--state", "w", "--scenario", "B", "--ineq", "w2",
            "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_unwritable_out_is_a_runtime_error(capsys, tmp_path):
    code, out, err = run(capsys, "cascade", "--out", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write {tmp_path}: ")


def test_threshold_text_when_no_sharpness_violates(capsys):
    code, out, err = run(capsys, "threshold", "--lambdas", "0.577493,0.657998,0.787698")
    assert (code, out, err) == (0, "observer 4: no violating sharpness exists\n", "")


def test_out_writes_file_instead_of_stdout(capsys, tmp_path):
    target = tmp_path / "ladder.csv"
    code, out, _ = run(
        capsys, "table", "--ineq", "g1", "--format", "csv", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == (GOLDEN / "ghz_A_g1.csv").read_text()


def test_direction_picks_the_inequality(capsys):
    code, out, _ = run(
        capsys, "threshold", "--state", "w", "--direction", "2to1",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["lambda_min"] == pytest.approx(0.677673, abs=1e-5)


def test_conflicting_direction_and_ineq(capsys):
    code, _, err = run(capsys, "threshold", "--ineq", "g2", "--direction", "1to2")
    assert code == 2
    assert "contradicts" in err


def test_custom_state_file(capsys, tmp_path):
    path = tmp_path / "ghz.txt"
    save_state_file(path, build_state(GHZ))
    code, out, _ = run(
        capsys, "cascade", "--state", f"custom:{path}", "--ineq", "g1",
        "--lambdas", "1.0", "--format", "json",
    )
    assert code == 0
    value = json.loads(out)["observers"][0]["value"]
    assert value == pytest.approx(-0.8453, abs=1e-5)


def test_custom_state_requires_ineq(capsys, tmp_path):
    path = tmp_path / "ghz.txt"
    save_state_file(path, build_state(GHZ))
    code, _, err = run(capsys, "cascade", "--state", f"custom:{path}")
    assert code == 2
    assert "--ineq" in err


def test_malformed_state_file_is_a_runtime_error(capsys, tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("not a matrix\n")
    code, _, err = run(capsys, "cascade", "--state", f"custom:{path}")
    assert code == 1
    assert "expected 8 matrix rows" in err


def test_state_file_that_is_not_utf8_is_a_malformed_state(capsys, tmp_path):
    path = tmp_path / "utf16.txt"
    save_state_file(path, build_state(GHZ))
    path.write_bytes(path.read_text().encode("utf-16"))
    code, out, err = run(capsys, "cascade", "--state", f"custom:{path}", "--ineq", "g1")
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: not UTF-8 text")


@pytest.mark.parametrize("entry", ["nan+0j", "inf+0j"])
def test_non_finite_state_file_is_a_malformed_state(capsys, tmp_path, entry):
    path = tmp_path / "corrupt.txt"
    save_state_file(path, build_state(GHZ))
    rows = path.read_text().splitlines()
    rows[0] = " ".join([entry] + rows[0].split()[1:])
    path.write_text("\n".join(rows) + "\n")
    code, _, err = run(capsys, "cascade", "--state", f"custom:{path}", "--ineq", "g1")
    assert code == 1
    assert f"state file {path} has a non-finite entry" in err


def test_bad_lambda_rejected(capsys):
    code, _, err = run(capsys, "cascade", "--lambdas", "0.5,1.4")
    assert code == 2
    assert "outside (0, 1]" in err


def test_unknown_state_rejected(capsys):
    code, _, err = run(capsys, "cascade", "--state", "bell")
    assert code == 2
    assert "unknown state" in err


def test_config_file_preloads_flags(capsys, tmp_path):
    cfg = tmp_path / "steer.ini"
    cfg.write_text(
        "[run]\nstate = ghz\nscenario = B\nineq = g1\nformat = csv\n"
        "\n[search]\ntol = 1e-4\n"
    )
    code, out, _ = run(capsys, "table", "--config", str(cfg))
    assert code == 0
    assert out == (GOLDEN / "ghz_B_g1.csv").read_text()


def test_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "steer.ini"
    cfg.write_text("[run]\nstate = ghz\nscenario = B\nineq = g1\nformat = csv\n")
    code, out, _ = run(capsys, "table", "--config", str(cfg), "--scenario", "A")
    assert code == 0
    assert out == (GOLDEN / "ghz_A_g1.csv").read_text()


def test_unknown_config_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "steer.ini"
    cfg.write_text("[run]\nstaet = ghz\n")
    code, _, err = run(capsys, "table", "--config", str(cfg))
    assert code == 2
    assert "unknown key 'staet'" in err
    assert "valid keys" in err


def test_unknown_config_section_rejected(capsys, tmp_path):
    cfg = tmp_path / "steer.ini"
    cfg.write_text("[misc]\nstate = ghz\n")
    code, _, err = run(capsys, "table", "--config", str(cfg))
    assert code == 2
    assert "unknown config section [misc]" in err


def test_default_config_section_rejected(capsys, tmp_path):
    cfg = tmp_path / "steer.ini"
    cfg.write_text("[DEFAULT]\nstate = w\n")
    code, out, err = run(capsys, "table", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "unknown config section [DEFAULT]" in err


@pytest.mark.parametrize(
    "body,message",
    [
        (None, "cannot read config file"),
        (b"state = w\n", "cannot parse config file"),
        (b"[run]\nstate = gh\xffz\n", "cannot parse config file"),
    ],
)
def test_unreadable_config_file_is_a_usage_error(capsys, tmp_path, body, message):
    # a missing file, one whose key sits above any section header, and
    # one that is not UTF-8
    cfg = tmp_path / "steer.ini"
    if body is not None:
        cfg.write_bytes(body)
    code, out, err = run(capsys, "table", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message} {cfg}")


def test_a_config_file_with_a_byte_order_mark_reads_as_one_without(capsys, tmp_path):
    # a UTF-8 file may start with the mark ef bb bf; it is not a character
    # of the first section header
    body = b"[run]\nstate = w\nscenario = B\n[search]\ntol = 1e-3\n"
    plain, marked = tmp_path / "plain.ini", tmp_path / "marked.ini"
    plain.write_bytes(body)
    marked.write_bytes(b"\xef\xbb\xbf" + body)
    want = run(capsys, "table", "--config", str(plain))
    assert want[0] == 0 and want[2] == ""
    assert run(capsys, "table", "--config", str(marked)) == want
    marked.write_bytes(b"\xef\xbb\xbf" + body.replace(b"w", b"\xff"))
    code, out, err = run(capsys, "table", "--config", str(marked))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot parse config file {marked}")


def test_config_optimizer_selects_grid_refine(capsys, tmp_path):
    cfg = tmp_path / "steer.ini"
    cfg.write_text("[search]\noptimizer = grid-refine\n")
    code, out, err = run(capsys, "table", "--config", str(cfg), "--format", "json")
    assert code == 0 and err == ""
    config = SearchConfig(optimizer=Optimizer.GRID_REFINE)
    assert out == build_table(Scenario.A, InequalityKind.G1, GHZ, config).to_json() + "\n"


def test_config_optimizer_selects_fixed_xyz(capsys, tmp_path):
    # optimize defaults to grid-refine; the key keeps the x, y, z settings
    cfg = tmp_path / "steer.ini"
    cfg.write_text("[search]\noptimizer = fixed-xyz\n")
    code, out, err = run(
        capsys, "optimize", "--config", str(cfg), "--state", "w", "--ineq", "w1",
        "--lambdas", "0.83", "--format", "json",
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert [(s["theta"], s["phi"]) for s in doc["settings"]] == [(d.theta, d.phi) for d in XYZ]
    triple = SettingTriple.xyz(0.83)
    assert doc["value"] == value_from_state(build_state(W), Scenario.A, InequalityKind.W1, triple)


def test_config_values_are_read_literally(capsys, tmp_path):
    # a % in an INI value is a plain character, as it is in a flag
    cfg = tmp_path / "steer.ini"
    out_path = tmp_path / "100%.csv"
    cfg.write_text(f"[run]\nformat = csv\nout = {out_path}\n")
    code, out, err = run(capsys, "table", "--config", str(cfg))
    assert code == 0 and out == "" and err == ""
    assert out_path.read_text() == (GOLDEN / "ghz_A_g1.csv").read_text()


def test_audit_passes_on_quantum_model(capsys):
    code, out, _ = run(capsys, "audit", "--lambdas", "0.7", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["pass"] is True
    assert doc["deviation"] <= 1e-10


def test_audit_text_mentions_bound(capsys):
    code, out, _ = run(capsys, "audit", "--state", "w", "--direction", "2to1")
    assert code == 0
    assert "PASS" in out
    assert "1e-10" in out


def test_optimize_json_settings(capsys):
    code, out, _ = run(
        capsys, "optimize", "--state", "ghz", "--ineq", "g1",
        "--lambdas", "1.0", "--format", "json",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["observer"] == 1
    assert doc["value"] == pytest.approx(-0.8453, abs=1e-6)
    assert len(doc["settings"]) == 3
    for entry in doc["settings"]:
        assert set(entry) == {"theta", "phi"}


BAD_VALUES = [
    ("run", "ineq", "zz"),
    ("run", "scenario", "C"),
    ("run", "direction", "3to0"),
    ("run", "format", "xml"),
    ("run", "state", "bell"),
    ("run", "lambdas", "0.5,1.4"),
    ("run", "lambdas", ""),
    ("run", "lambdas", "0.7,,1.0"),
    ("run", "lambdas", "0.7,abc"),
    ("run", "state", "custom:"),
    ("run", "out", ""),
    ("search", "tol", "abc"),
    ("search", "tol", "5"),
    ("search", "tol", "0"),
    ("search", "tol", "nan"),
    ("search", "tol", "1e-16"),
    ("search", "tol", "1e-17"),
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("section,key,value", BAD_VALUES)
def test_bad_values_are_usage_errors(capsys, tmp_path, source, section, key, value):
    if source == "flag":
        argv = [f"--{key}", value]
    else:
        cfg = tmp_path / "steer.ini"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        argv = ["--config", str(cfg)]
    code, out, err = run(capsys, "cascade", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert value.split(",")[-1] in err


def _flag_and_config_runs(capsys, tmp_path, command, section, key, value):
    """(code, out, err) of the value given as a flag, then as an INI key."""
    cfg = tmp_path / "steer.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    return (
        run(capsys, command, f"--{key}", value),
        run(capsys, command, "--config", str(cfg)),
    )


@pytest.mark.parametrize("section,key,value", BAD_VALUES)
def test_bad_value_reads_the_same_from_flag_and_config(capsys, tmp_path, section, key, value):
    # one parser per option: the source of a value never changes the verdict
    from_flag, from_config = _flag_and_config_runs(
        capsys, tmp_path, "cascade", section, key, value
    )
    assert from_flag == from_config


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("run", "state", "w"),
        ("run", "scenario", "B"),
        ("run", "ineq", "g2"),
        ("run", "lambdas", "0.6, 0.7"),
        ("search", "tol", "1e-3"),
        ("run", "format", "json"),
    ],
)
def test_good_value_reads_the_same_from_flag_and_config(capsys, tmp_path, section, key, value):
    from_flag, from_config = _flag_and_config_runs(
        capsys, tmp_path, "threshold", section, key, value
    )
    assert from_flag[0] == 0 and from_flag[2] == ""
    assert from_flag == from_config


def test_retired_search_knobs_are_rejected(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--grid", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid 7" in capsys.readouterr().err
    for body, message in (
        ("optimizer = nelder-mead-like", "unknown optimizer 'nelder-mead-like'"),
        ("grid = 13", "unknown key 'grid'"),
        ("all_violate = false", "unknown key 'all_violate'"),
    ):
        cfg = tmp_path / "steer.ini"
        cfg.write_text(f"[search]\n{body}\n")
        code, _, err = run(capsys, "optimize", "--config", str(cfg))
        assert code == 2
        assert message in err


@pytest.mark.parametrize("command", sorted(CLI_REFERENCE))
def test_stdout_matches_the_recorded_reference(capsys, command):
    # every byte, full-precision floats included, of the README commands
    code, out, err = run(capsys, *command.split())
    assert code == 0 and err == ""
    assert out == CLI_REFERENCE[command]


# negative branches: bytes recorded before the formats shared one renderer
NO_VIOLATION_CASCADE = {
    "text": "inequality w1, state w, scenario A\n"
    "observer 1: lambda=0.300000  value=+0.532047  no violation\n"
    "observer 2: lambda=1.000000  value=-0.702843  violation\n",
    "csv": "observer,lambda,value,detected\n"
    "1,0.300000,0.532047,false\n"
    "2,1.000000,-0.702843,true\n",
    "json": '{\n  "inequality": "w1",\n  "observers": [\n    {\n      "observer": 1,\n'
    '      "lambda": 0.3,\n      "value": 0.5320466666666662,\n      "detected": false\n'
    '    },\n    {\n      "observer": 2,\n      "lambda": 1.0,\n'
    '      "value": -0.7028431705962402,\n      "detected": true\n    }\n  ]\n}\n',
}


@pytest.mark.parametrize("fmt", sorted(NO_VIOLATION_CASCADE))
def test_cascade_reports_an_observer_that_does_not_violate(capsys, fmt):
    code, out, err = run(
        capsys, "cascade", "--state", "w", "--ineq", "w1", "--lambdas", "0.3", "--format", fmt
    )
    assert (code, out, err) == (0, NO_VIOLATION_CASCADE[fmt], "")


def test_threshold_json_when_no_sharpness_violates(capsys):
    code, out, err = run(
        capsys, "threshold", "--state", "w", "--ineq", "w1", "--lambdas", "0.6,0.7,0.82",
        "--format", "json",
    )
    assert (code, err) == (0, "")
    assert out == '{\n  "m": 4,\n  "lambda_min": null,\n  "status": "none"\n}\n'


FAILED_AUDIT = {
    "text": "worst marginal deviation = 1.000e-09 (bound 1e-10): FAIL\n",
    "csv": "deviation,bound,pass\n1.000e-09,1e-10,false\n",
    "json": '{\n  "deviation": 1e-09,\n  "bound": 1e-10,\n  "pass": false\n}\n',
}


@pytest.mark.parametrize("fmt", sorted(FAILED_AUDIT))
def test_audit_above_the_bound_fails_with_exit_code_1(capsys, monkeypatch, fmt):
    monkeypatch.setattr("seqsteer.cli.no_signalling_audit", lambda spec: 1e-9)
    code, out, err = run(capsys, "audit", "--format", fmt)
    assert (code, out, err) == (1, FAILED_AUDIT[fmt], "")
