"""End-to-end tests of the command-line interface."""

import json

import pytest

from qzeta.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# ----------------------------------------------------------------------
# exit codes

def test_linform_pass_and_deterministic_output(capsys):
    args = ("linform", "--A", "4", "--r", "1", "--n", "2", "--eps", "1",
            "--q", "1/3")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reruns
    rep = json.loads(out1)
    assert rep["residual_pass"] is True
    assert rep["denominator_pass"] is True


def test_linform_fails_at_unreachable_tolerance(capsys):
    code, out, _ = run(capsys, "linform", "--A", "4", "--r", "1", "--n", "1",
                       "--q", "1/3", "--tol", "500", "--prec", "80")
    assert code == 1
    assert json.loads(out)["residual_pass"] is False


@pytest.mark.parametrize("argv", [
    ("linform", "--A", "3", "--r", "1", "--n", "2", "--q", "1/3"),
    ("linform", "--A", "4", "--r", "3", "--n", "2", "--q", "1/3"),
    ("linform", "--A", "4", "--r", "1", "--n", "2", "--q", "0.5"),
    ("delta", "--A", "7", "--r", "1"),
    ("zeta3", "--n", "2", "--q", "5/4"),
])
def test_invalid_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "invalid input" in err


@pytest.mark.parametrize("argv,message", [
    (("linform", "--A", "4", "--r", "1", "--n", "2", "--q", "0"),
     "invalid input: need 0 < |q0| < 1, got 0"),
    (("linform", "--A", "4", "--r", "1", "--n", "2", "--q", "1/3", "--prec", "0"),
     "invalid input: --prec must be >= 16"),
    (("zeta3", "--n", "2", "--q", "1/3", "--prec", "15"),
     "invalid input: --prec must be >= 16"),
])
def test_invalid_input_messages(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.strip() == message


def test_delta_reference_value(capsys):
    code, out, _ = run(capsys, "delta", "--A", "12", "--r", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["delta"].startswith("1.08005939")
    assert rep["exceeds_one"] is True
    assert rep["best_r"] == 2


def test_delta_const(capsys):
    code, out, _ = run(capsys, "delta-const")
    assert code == 0
    rep = json.loads(out)
    assert rep["closed_form"].startswith("0.335891809")


def test_zeta3(capsys):
    code, out, _ = run(capsys, "zeta3", "--n", "2", "--q", "1/3")
    assert code == 0
    rep = json.loads(out)
    assert rep["dbar_m"] == 3


def test_eisenstein_weight8(capsys):
    code, out, _ = run(capsys, "eisenstein", "--weight", "8",
                       "--verify", "60")
    assert code == 0
    rep = json.loads(out)
    assert rep["basis"] == [{"a": 2, "b": 0, "c": "1"}]
    assert rep["verified_to"] == 60


def test_eisenstein_weight2_invalid(capsys):
    code, _, err = run(capsys, "eisenstein", "--weight", "2")
    assert code == 2


def test_denom_probe_always_exits_zero(capsys):
    code, out, _ = run(capsys, "denom-probe", "--A", "4", "--r", "1",
                       "--n", "1..3")
    assert code == 0
    rep = json.loads(out)
    assert rep["rows"]


def test_slope_s_max_gap(capsys):
    code, out, _ = run(capsys, "slope-S", "--A", "4", "--r", "1",
                       "--q", "1/2", "--n", "2..14", "--max-gap", "0.05")
    assert code == 0
    code, out, _ = run(capsys, "slope-S", "--A", "4", "--r", "1",
                       "--q", "1/2", "--n", "2..14", "--max-gap", "0.0001")
    assert code == 1


# ----------------------------------------------------------------------
# formats and environment

def test_csv_format(capsys):
    code, out, _ = run(capsys, "slope-D", "--A", "4", "--r", "1",
                       "--q", "1/2", "--n", "1..6", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value,target,gap"
    assert len(lines) == 7
    assert "," in lines[1] and "." in lines[1]


def test_pretty_format(capsys):
    code, out, _ = run(capsys, "delta", "--A", "4", "--r", "1",
                       "--format", "pretty")
    assert code == 0
    assert "delta:" in out


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "delta", "--A", "12", "--r", "2",
                       "--out", str(path))
    assert code == 0
    rep = json.loads(path.read_text())
    assert rep["delta"].startswith("1.08")


def test_prec_env_default(monkeypatch, capsys):
    monkeypatch.setenv("QZETA_PREC", "77")
    code, out, _ = run(capsys, "linform", "--A", "4", "--r", "1", "--n", "1",
                       "--q", "1/2", "--tol", "10")
    assert code == 0
    assert json.loads(out)["prec"] == 77
