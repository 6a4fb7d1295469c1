"""Smoke tests of the scripts under scripts/: each runs at a small size,
exits 0 and prints a line (compared word by word) whose numbers come
from the exact pipeline."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script,args,words", [
    # the P line comes from slope_P, i.e. the point values P_eps_values_hat
    ("slope_survey.py",
     ["--A", "4", "--r", "1", "--q", "1/2", "--n-max", "8", "--n-max-D", "10",
      "--A-sweep", "6"],
     ["n=", "8", "0.8248292178"]),
    # digits of the exact A_n(1/3), B_n(1/3) from the point partial fractions
    ("weight3_experiments.py", ["--n-max", "3", "--q", "1/3"],
     ["3", "1/3", "11", "17"]),
])
def test_script_runs(script, args, words):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [row.split()[:len(words)] for row in proc.stdout.splitlines()]
    assert words in rows, proc.stdout
