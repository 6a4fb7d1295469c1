"""The benchmark's outside tracer (perfbench/tracer.py) finds the names it
wraps: the ring classes, pf_extract's and _assemble_eps's positional
ring arguments, and the memo tables it reads back."""

import importlib.util
from fractions import Fraction
from pathlib import Path

from qzeta import linform
from qzeta.linform import Params, denominator_check, identity_residual

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_labels_both_rings():
    tracer = _load_tracer()
    # memo tables are shared across the test process: start cold
    for table in (linform._pf_table, linform._p_eps_hat,
                  linform._pf_values, linform.P_eps_values_hat):
        table.cache_clear()
    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        identity_residual(Params(4, 1, 1, 1), Fraction(1, 2))
        denominator_check(Params(4, 1, 1, 1))
    finally:
        tr.restore()
    for span in ("series.pf_extract.fraction", "linform.assemble_eps.fraction",
                 "linform.assemble_eps.qfrac"):
        assert tr.stat(span)[0] > 0, span
