"""End-to-end tests of the command-line interface."""

import argparse
import json
from pathlib import Path

import pytest

from qzeta import cli
from qzeta.cli import main
from qzeta.series import DivergenceError, PrecisionError

ROOT = Path(__file__).resolve().parents[1]


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


@pytest.mark.parametrize("error", [PrecisionError, DivergenceError])
def test_precision_exhausted_exits_3(monkeypatch, capsys, error):
    def exhausted(*args):
        raise error("no certified tail after 7 terms")

    monkeypatch.setattr(cli, "zeta3_report", exhausted)
    code, out, err = run(capsys, "zeta3", "--n", "2", "--q", "1/3")
    assert code == 3
    assert out == ""
    assert err == "precision exhausted: no certified tail after 7 terms\n"


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
    (("slope-S", "--A", "4", "--r", "1", "--q", "0", "--n", "2..4"),
     "invalid input: need 0 < |q0| < 1, got 0"),
    (("slope-P", "--A", "4", "--r", "1", "--eps", "0", "--q", "0", "--n", "2..4"),
     "invalid input: need 0 < |q0| < 1, got 0"),
    (("slope-D", "--A", "4", "--r", "1", "--q", "0", "--n", "2..4"),
     "invalid input: need 0 < |q0| < 1, got 0"),
    (("slope-D", "--A", "4", "--r", "1", "--q", "1", "--n", "2..4"),
     "invalid input: need 0 < |q0| < 1, got 1"),
    (("slope-P", "--A", "5", "--r", "1", "--q", "1/2", "--n", "2..4"),
     "invalid input: A must be an even integer >= 2, got 5"),
    (("slope-P", "--A", "4", "--r", "3", "--q", "1/2", "--n", "2..4"),
     "invalid input: need 1 <= r <= A/2, got r=3, A=4"),
    (("zeta3", "--n", "-1", "--q", "1/3"),
     "invalid input: n must be >= 0, got -1"),
    (("slope-D", "--A", "5", "--r", "1", "--q", "1/2", "--n", "2..4"),
     "invalid input: A must be an even integer >= 2, got 5"),
    (("slope-D", "--A", "4", "--r", "3", "--q", "1/2", "--n", "2..4"),
     "invalid input: need 1 <= r <= A/2, got r=3, A=4"),
    (("delta", "--A", "7", "--r", "1"),
     "invalid input: A must be an even integer >= 2, got 7"),
    *[(("linform", "--A", "4", "--r", "1", "--n", "2", "--q", q),
       f"invalid input: expected an exact rational like '1/3', got {q!r}")
      for q in ("1/0", "abc", "1/3/4", "", "1_0/3")],
    (("zeta3", "--n", "2", "--q", "1/0"),
     "invalid input: expected an exact rational like '1/3', got '1/0'"),
    (("linform", "--A", "4", "--r", "1", "--n", "2", "--q", "1/3", "--tol", "-5"),
     "invalid input: --tol must be >= 1, got -5"),
    (("zeta3", "--n", "2", "--q", "1/3", "--tol", "-5"),
     "invalid input: --tol must be >= 1, got -5"),
    *[(("slope-S", "--A", "4", "--r", "1", "--q", "1/2", "--n", n),
       f"invalid input: expected an n range like '2..40', got {n!r}")
      for n in ("abc", "1_0")],
    *[((cmd, "--A", "4", "--r", "1", "--q", "1/2", "--n=-3..2"),
       "invalid input: slope needs n >= 1, got -3")
      for cmd in ("slope-S", "slope-P", "slope-D")],
    # a NaN tolerance would pass every comparison-based check
    (("slope-P", "--A", "4", "--r", "1", "--q", "1/2", "--n", "3..5", "--margin", "nan"),
     "invalid input: --margin must be >= 0, got nan"),
    (("slope-P", "--A", "4", "--r", "1", "--q", "1/2", "--n", "3..5", "--margin", "-1"),
     "invalid input: --margin must be >= 0, got -1.0"),
    (("slope-S", "--A", "4", "--r", "1", "--q", "1/2", "--n", "3..8", "--max-gap", "nan"),
     "invalid input: --max-gap must be >= 0, got nan"),
    (("slope-S", "--A", "4", "--r", "1", "--q", "1/2", "--n", "3..8", "--max-gap", "-1"),
     "invalid input: --max-gap must be >= 0, got -1.0"),
    # precisions that would end in a MemoryError or run until killed
    (("linform", "--A", "4", "--r", "1", "--n", "2", "--eps", "1", "--q", "1/3",
      "--prec", "100000000000"),
     "invalid input: --prec must be between 16 and 1048576"),
    (("zeta3", "--n", "2", "--q", "-1/3", "--prec", "99999999999"),
     "invalid input: --prec must be between 16 and 1048576"),
    (("delta-const", "--prec", "99999999999"),
     "invalid input: --prec must be between 16 and 1048576"),
    (("delta", "--A", "12", "--r", "2", "--prec", "1048577"),
     "invalid input: --prec must be between 16 and 1048576"),
    # float() would read '0_5' as 5.0 and Arabic-Indic or fullwidth digits
    # as theirs; the float options take an ASCII decimal, inf or nan only
    *[(("slope-P", "--A", "4", "--r", "1", "--q", "1/2", "--n", "3..5", "--margin", text),
       f"invalid input: --margin must be a decimal number, got {text!r}")
      for text in ("0_5", "\u0661e-1", "\uff10.5", "", "1e", "0x1p-3")],
    *[((cmd, "--A", "4", "--r", "1", "--q", "1/2", "--n", "3..8", "--max-gap", text),
       f"invalid input: --max-gap must be a decimal number, got {text!r}")
      for cmd in ("slope-S", "slope-D") for text in ("0_5", "\u0661e-1", "\uff11")],
])
def test_invalid_input_messages(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.strip() == message


def test_negative_q_as_separate_word(capsys):
    head = ("linform", "--A", "4", "--r", "1", "--n", "2")
    code1, out1, err1 = run(capsys, *head, "--q", "-1/2")
    code2, out2, _ = run(capsys, *head, "--q=-1/2")
    assert code1 == code2 == 0, err1
    assert out1 == out2
    assert json.loads(out1)["residual_pass"] is True


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


@pytest.mark.parametrize("prec", ["16", "20", "24", "32"])
def test_delta_const_passes_at_low_prec(capsys, prec):
    code, out, _ = run(capsys, "delta-const", "--prec", prec)
    assert code == 0
    assert json.loads(out)["closed_form"].startswith("0.335891809")


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


def test_denom_probe_invalid_inputs(capsys):
    code, out, err = run(capsys, "denom-probe", "--A", "4", "--r", "1", "--n", "0..2")
    assert (code, out) == (2, "")
    assert err == "invalid input: sharpness probe needs n >= 1\n"
    # (A, r) are validated before the n >= 1 rule
    code, out, err = run(capsys, "denom-probe", "--A", "5", "--r", "1", "--n", "0..2")
    assert (code, out) == (2, "")
    assert err == "invalid input: A must be an even integer >= 2, got 5\n"


@pytest.mark.parametrize("argv", [
    ("eisenstein", "--weight", "12", "--prec", "64"),
    ("denom-probe", "--A", "4", "--r", "1", "--n", "1..2", "--prec", "64"),
], ids=lambda argv: argv[0])
def test_exact_commands_reject_prec(capsys, argv):
    """The two exact commands read no working precision, so --prec is an
    unknown flag there, as any other."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "unrecognized arguments: --prec 64" in err


def test_denom_probe_csv(capsys):
    code, out, _ = run(capsys, "denom-probe", "--A", "4", "--r", "1",
                       "--n", "1..2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "n,eps,kind,pass,failing",
        "1,0,exact,True,",
        "1,0,sharpness,False,0",
        "1,1,exact,True,",
        "1,1,sharpness,True,",
        '1,both,conjecture,False,{"0": [0], "1": []}',
        "2,0,exact,True,",
        "2,0,sharpness,False,0",
        "2,1,exact,True,",
        "2,1,sharpness,True,",
        '2,both,conjecture,False,{"0": [0], "1": []}',
    ]


def test_slope_s_max_gap(capsys):
    code, out, _ = run(capsys, "slope-S", "--A", "4", "--r", "1",
                       "--q", "1/2", "--n", "2..14", "--max-gap", "0.05")
    assert code == 0
    code, out, _ = run(capsys, "slope-S", "--A", "4", "--r", "1",
                       "--q", "1/2", "--n", "2..14", "--max-gap", "0.0001")
    assert code == 1
    # odd n at negative q: |S_n| needs no root of q0
    code, out, _ = run(capsys, "slope-S", "--A", "4", "--r", "1",
                       "--q", "-1/2", "--n", "2..6")
    assert code == 0
    assert [n for n, _ in json.loads(out)["points"]] == [2, 3, 4, 5, 6]
    # slope-D shares the rule, on its last-point gap
    code, out, _ = run(capsys, "slope-D", "--A", "4", "--r", "1",
                       "--q", "1/2", "--n", "1..6", "--max-gap", "0.0001")
    assert code == 1 and float(json.loads(out)["last_gap"]) > 0.0001
    # an infinite limit never fails
    code, out, _ = run(capsys, "slope-D", "--A", "4", "--r", "1",
                       "--q", "1/2", "--n", "1..6", "--max-gap", "inf")
    assert code == 0


@pytest.mark.parametrize("text", ["0.5", ".5", "5.", "+1E-1", " 2e+0 ", "0", "inf",
                                  "-inf", "Infinity", "nan"])
def test_float_options_take_ascii_decimals(text):
    """The float options read the ASCII decimals, infinities and NaN that
    float() reads, to the same value; NaN and values below 0 then fail the
    >= 0 rule, not the grammar."""
    value = float(text)
    if value >= 0:
        assert cli._limit(text, "--margin") == value
    else:
        with pytest.raises(ValueError, match="must be >= 0"):
            cli._limit(text, "--margin")


def test_delta_prec_reaches_best_delta(capsys):
    """--prec sets the precision of best_delta too, so at (12, 2), where r
    = 2 is the best r, the two fields print the same value."""
    code, out, _ = run(capsys, "delta", "--A", "12", "--r", "2", "--prec", "16")
    assert code == 0
    rep = json.loads(out)
    assert rep["best_r"] == 2
    assert rep["best_delta"] == rep["delta"]


# the options each command must keep, in order: (flag, dest, required,
# default, choices, type)
_INT, _FORMATS = "integer", ("json", "csv", "pretty")
_COMMON_OPTIONS = [("--format", "format", False, "json", _FORMATS, None),
                   ("--out", "out", False, None, None, None)]
_A_R = [("--A", "A", True, None, None, _INT), ("--r", "r", True, None, None, _INT)]
_EPS = ("--eps", "eps", False, 1, (0, 1), _INT)
_Q = ("--q", "q", True, None, None, None)
_N_RANGE = ("--n", "n", True, None, None, None)
_TOL = ("--tol", "tol", False, 40, None, _INT)
_MAX_GAP = ("--max-gap", "max_gap", False, None, None, None)
_PREC = ("--prec", "prec", False, 256, None, _INT)
PARSER_RECORD = {
    "linform": _A_R + [("--n", "n", True, None, None, _INT), _EPS, _Q, _TOL, _PREC],
    "slope-S": _A_R + [_EPS, _Q, _N_RANGE, _MAX_GAP, _PREC],
    "slope-P": _A_R + [_EPS, _Q, _N_RANGE, ("--margin", "margin", False, "0.02", None, None),
                       _PREC],
    "slope-D": _A_R + [_Q, _N_RANGE, _MAX_GAP, _PREC],
    "delta": _A_R + [_PREC],
    "delta-const": [_PREC],
    "zeta3": [("--n", "n", True, None, None, _INT), _Q, _TOL, _PREC],
    "eisenstein": [("--weight", "weight", True, None, None, _INT),
                   ("--solve", "solve", False, None, None, _INT),
                   ("--verify", "verify", False, None, None, _INT)],
    "denom-probe": _A_R + [_N_RANGE],
}


def _declared_options(parser):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [(a.option_strings[0], a.dest, a.required, a.default, a.choices,
                    getattr(a.type, "__name__", a.type))
                   for a in p._actions if a.option_strings != ["-h", "--help"]]
            for name, p in sub.choices.items()}


def test_parser_keeps_every_option():
    declared = _declared_options(cli.build_parser())
    assert list(declared) == list(PARSER_RECORD)
    for name, options in PARSER_RECORD.items():
        assert declared[name] == options + _COMMON_OPTIONS, name


# ----------------------------------------------------------------------
# formats

def test_csv_format(capsys):
    code, out, _ = run(capsys, "slope-D", "--A", "4", "--r", "1",
                       "--q", "1/2", "--n", "1..6", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value,target,gap"
    assert len(lines) == 7
    assert "," in lines[1] and "." in lines[1]


@pytest.mark.parametrize("argv,lines", [
    (("delta", "--A", "12", "--r", "2"),
     ["key,value",
      "A,12",
      "best_delta,1.0800593919950511878624865858",
      "best_r,2",
      "command,delta",
      "delta,1.0800593919950511878624865858",
      "exceeds_one,True",
      "r,2"]),
    # a list field: its items are JSON, joined by ";"
    (("eisenstein", "--weight", "12", "--verify", "42"),
     ["key,value",
      'basis,{"a": 3, "b": 0, "c": "441/691"};{"a": 0, "b": 2, "c": "250/691"}',
      "command,eisenstein",
      "solved_on,2",
      "verified_to,42",
      "weight,12"]),
])
def test_csv_flattened_report(capsys, argv, lines):
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.splitlines() == lines


def test_pretty_format(capsys):
    code, out, _ = run(capsys, "delta", "--A", "4", "--r", "1",
                       "--format", "pretty")
    assert code == 0
    assert "delta:" in out


def test_nested_report_keys_are_dotted(capsys):
    # the linform report nests {s: P_s} under "P"; pretty and csv flatten it
    args = ("linform", "--A", "4", "--r", "1", "--n", "2", "--q", "1/3")
    p3 = json.loads(run(capsys, *args)[1])["P"]["3"]
    assert p3 == "25093/81"
    assert f"P.3: {p3}" in run(capsys, *args, "--format", "pretty")[1].splitlines()
    assert f"P.3,{p3}" in run(capsys, *args, "--format", "csv")[1].splitlines()


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "delta", "--A", "12", "--r", "2",
                       "--out", str(path))
    assert code == 0
    rep = json.loads(path.read_text())
    assert rep["delta"].startswith("1.08")


def test_out_unwritable_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "delta", "--A", "12", "--r", "2",
                         "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.strip() == f"invalid input: cannot write {path}: No such file or directory"


@pytest.mark.parametrize("argv,text", [
    (("linform", "--A", "4", "--r", "1", "--n", "1_0", "--q", "1/3"), "1_0"),
    (("zeta3", "--n", "\u0663", "--q", "1/3"), "\u0663"),
    (("delta", "--A", "12", "--r", "2", "--prec", "2_56"), "2_56"),
    (("delta", "--A", "1_2", "--r", "2"), "1_2"),
    (("linform", "--A", "4", "--r", "1", "--n", "2", "--eps", "\u0661", "--q", "1/3"),
     "\u0661"),
    (("eisenstein", "--weight", "\uff18"), "\uff18"),
])
def test_integer_options_are_ascii_digits(capsys, argv, text):
    """int() would read '1_0' as 10 and Arabic-Indic or fullwidth digits
    as theirs; every integer option takes [+-]?[0-9]+ only, as parse_rat
    does."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert f"invalid integer value: {text!r}" in err


# ----------------------------------------------------------------------
# README commands against the recorded benchmark output

def _readme_commands():
    """The qzeta lines of README's "Command line" block, comments dropped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].split()[1:]
            for line in block.splitlines() if line.startswith("qzeta ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_commands_match_golden(capsys, argv):
    want = (ROOT / "perfbench" / "golden" / f"{argv[0]}.out").read_text(encoding="ascii")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == want


@pytest.mark.parametrize("value", ["64", "abc"])
@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_commands_ignore_the_environment(monkeypatch, capsys, argv, value):
    """A QZETA_PREC in the environment, an integer or not, moves no
    command off its golden bytes: the working precision is --prec or its
    default, nothing else."""
    monkeypatch.setenv("QZETA_PREC", value)
    test_readme_commands_match_golden(capsys, argv)
