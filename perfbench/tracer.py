"""Per-layer timing from outside the program.

The tracer replaces selected qzeta functions and methods with timing
wrappers, in every qzeta module namespace and class that binds them, so
callers that imported a name (``from .series import pf_extract``) see the
wrapper too.  Each span name accumulates calls, total time (outermost
call of that name only, so recursion is not counted twice) and self time
(duration minus the time spent in wrapped children).  ``restore()`` puts
every original attribute back and fails if any wrapper is still bound.

Nothing under ``src/`` is modified: these spans are recorded from the
benchmark's own files, around the calls into each layer.
"""

from __future__ import annotations

import sys
from time import perf_counter


def _qzeta_owners():
    """Every qzeta module and every class defined in one."""
    owners = []
    for key, mod in list(sys.modules.items()):
        if mod is None or not (key == "qzeta" or key.startswith("qzeta.")):
            continue
        owners.append(mod)
        owners.extend(v for v in vars(mod).values()
                      if isinstance(v, type) and v.__module__.startswith("qzeta"))
    return owners


class Tracer:
    def __init__(self):
        self.spans = {}        # name -> [calls, self_s, total_s]
        self.counts = {}       # name -> number
        self._depth = {}       # name -> current nesting of that name
        self._child = []       # stack: time spent in wrapped children
        self._patched = []     # (owner, attr, original)

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def stat(self, name):
        return self.spans.get(name, [0, 0.0, 0.0])

    def self_s(self, prefixes):
        """Summed self time of the spans whose names start with prefixes."""
        return sum(st[1] for name, st in self.spans.items() if name.startswith(prefixes))

    def wrap(self, fn, name, on_call=None, on_error=None):
        """Timing wrapper around fn.  name is a string or a function of
        (args, kwargs) returning one; on_call(args, kwargs, result) and
        on_error(args, kwargs, seconds) record extra counts."""
        spans, depth, child = self.spans, self._depth, self._child

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            depth[label] = depth.get(label, 0) + 1
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if on_error is not None:
                    on_error(args, kwargs, perf_counter() - t0)
                raise
            finally:
                dt = perf_counter() - t0
                inner = child.pop()
                if child:
                    child[-1] += dt
                depth[label] -= 1
                st = spans.setdefault(label, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += dt - inner
                if not depth[label]:
                    st[2] += dt
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        wrapper._perfbench = True
        return wrapper

    def patch(self, fn, wrapper):
        """Bind wrapper in place of fn wherever a qzeta module or class binds
        fn.  Raises LookupError if fn is bound nowhere."""
        hits = 0
        for owner in _qzeta_owners():
            for attr, val in list(vars(owner).items()):
                if val is fn:
                    self._patched.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
                    hits += 1
        if not hits:
            raise LookupError(f"{fn!r} is bound nowhere in qzeta")

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        leaked = [f"{getattr(owner, '__name__', owner)}.{attr}"
                  for owner in _qzeta_owners()
                  for attr, val in vars(owner).items()
                  if getattr(val, "_perfbench", False)]
        if leaked:
            raise RuntimeError(f"tracer left patched attributes: {leaked}")


# ----------------------------------------------------------------------
# The layers, named after the modules.

EXACT_LAYERS = ("upoly.", "qcomb.")     # the exact Q(u) arithmetic

def install(tr: Tracer) -> dict:
    """Wrap the public functions of each qzeta layer.  Returns the extra
    state the per-layer metrics read back (cached functions, counters)."""
    from qzeta import asymptotics, cli, eisenstein, linform, qcomb, series, upoly, zeta3

    state = {"expand_seen": set(), "prec_bits": [],
             "caches": [linform._pf_table, linform._p_eps_hat,
                        linform._pf_values, linform.P_eps_values_hat]}

    def simple(fn, name, **kw):
        tr.patch(fn, tr.wrap(fn, name, **kw))

    # upoly
    def divexact_fail(args, kwargs, seconds):
        tr.count("upoly.divexact.failed")

    def kronecker_bits(args, kwargs, result):
        # bits of the packed product, sized by the seed's width rule
        a, b = args
        bits_a = max(abs(x).bit_length() for x in a if x)
        bits_b = max(abs(x).bit_length() for x in b if x)
        width = bits_a + bits_b + min(len(a), len(b)).bit_length() + 2
        tr.count("upoly.kronecker.packed_bits", width * (len(a) + len(b) - 1))

    simple(upoly.UPoly.__mul__, "upoly.mul")
    simple(upoly.UPoly.__add__, "upoly.add")
    simple(upoly.UPoly.divexact, "upoly.divexact", on_error=divexact_fail)
    if hasattr(upoly, "_kronecker_mul"):
        simple(upoly._kronecker_mul, "upoly.kronecker", on_call=kronecker_bits)

    # qcomb
    seen = state["expand_seen"]

    def expand_seen(args, kwargs, result):
        key = tuple(sorted(args[0].e.items()))
        if key in seen:
            tr.count("qcomb.expand.repeats")
        seen.add(key)

    simple(qcomb.QFrac.reduced, "qcomb.reduced")
    simple(qcomb.QFrac.__add__, "qcomb.qfrac_add")
    simple(qcomb.PhiProduct.expand, "qcomb.expand", on_call=expand_seen)

    # series
    def pf_ring(args, kwargs):
        ring = args[3] if len(args) > 3 else kwargs["ring"]
        kind = "fraction" if isinstance(ring, series.FractionRing) else "upoly"
        return "series.pf_extract." + kind

    def swt_fail(args, kwargs, seconds):
        tr.count("series.sum_with_tail.failed")
        tr.count("series.sum_with_tail.failed_s", seconds)

    swt = series.sum_with_tail
    swt_span = tr.wrap(swt, "series.sum_with_tail", on_error=swt_fail)

    def counted(terms):
        for t in terms:
            tr.count("series.sum_with_tail.terms")
            yield t

    def sum_with_tail(terms, *args, **kwargs):
        return swt_span(counted(terms), *args, **kwargs)

    sum_with_tail._perfbench = True
    simple(series.pf_extract, pf_ring)
    tr.patch(swt, sum_with_tail)

    # linform
    def eps_ring(args, kwargs):
        ops = args[4] if len(args) > 4 else kwargs["ops"]
        kind = "fraction" if isinstance(ops, linform._FractionOps) else "qfrac"
        return "linform.assemble_eps." + kind

    simple(linform._pf_table, "linform.pf_table")
    simple(linform.reconstruction_check, "linform.reconstruction")
    simple(linform._assemble_eps, eps_ring)
    simple(linform.denominator_check, "linform.denominator_check")
    simple(linform.identity_residual, "linform.identity_residual",
           on_call=lambda a, k, res: state["prec_bits"].append(res["working_prec"]))

    # zeta3, eisenstein, asymptotics, cli
    simple(zeta3.zeta3_partial_fractions, "zeta3.partial_fractions")
    simple(zeta3.qball_numeric, "zeta3.series_pair")
    simple(zeta3.qbgn_numeric, "zeta3.series_pair")
    simple(eisenstein.express_in_E4_E6, "eisenstein.express")
    simple(asymptotics.slope_S, "asymptotics.slope_S")
    simple(asymptotics.slope_P, "asymptotics.slope_P")
    simple(asymptotics.slope_D, "asymptotics.slope_D")
    simple(cli.main, "cli.main")
    return state


# spans reported with calls, self_s and total_s; then those with total_s only
_FULL = ("upoly.mul", "upoly.add", "upoly.kronecker", "upoly.divexact",
         "qcomb.reduced", "qcomb.qfrac_add", "qcomb.expand",
         "series.pf_extract.upoly", "series.pf_extract.fraction",
         "linform.assemble_eps.fraction", "series.sum_with_tail")
_TOTAL_ONLY = ("linform.pf_table", "linform.reconstruction",
               "linform.assemble_eps.qfrac", "linform.denominator_check",
               "linform.identity_residual", "zeta3.partial_fractions",
               "zeta3.series_pair", "eisenstein.express",
               "asymptotics.slope_S", "asymptotics.slope_P",
               "asymptotics.slope_D", "cli.main")


def per_call_cost(n=20000):
    """Seconds a timing wrapper adds to one call of a no-op function."""
    def noop():
        return None
    wrapped = Tracer().wrap(noop, "noop")
    t0 = perf_counter()
    for _ in range(n):
        noop()
    t1 = perf_counter()
    for _ in range(n):
        wrapped()
    return max((perf_counter() - t1) - (t1 - t0), 0.0) / n


def layer_metrics(tr: Tracer, state: dict, wall_s: float) -> dict:
    """Per-layer numbers of one traced pass, as {name: (value, unit)}."""
    out = {}
    for span in _FULL:
        st = tr.stat(span)
        out[f"{span}.calls"] = (st[0], "count")
        out[f"{span}.self_s"] = (st[1], "s")
        out[f"{span}.total_s"] = (st[2], "s")
    for span in _TOTAL_ONLY:
        out[f"{span}.total_s"] = (tr.stat(span)[2], "s")

    def ratio(num, den):
        return num / den if den else 0.0

    c = tr.counts
    out["upoly.kronecker.packed_bits"] = (c.get("upoly.kronecker.packed_bits", 0), "bit")
    out["upoly.divexact.fail_ratio"] = (
        ratio(c.get("upoly.divexact.failed", 0), tr.stat("upoly.divexact")[0]), "1")
    out["qcomb.expand.repeat_ratio"] = (
        ratio(c.get("qcomb.expand.repeats", 0), tr.stat("qcomb.expand")[0]), "1")
    out["series.sum_with_tail.terms"] = (c.get("series.sum_with_tail.terms", 0), "count")
    out["series.sum_with_tail.failed"] = (c.get("series.sum_with_tail.failed", 0), "count")
    out["series.sum_with_tail.failed_s"] = (c.get("series.sum_with_tail.failed_s", 0.0), "s")
    bits = state["prec_bits"]
    out["linform.identity_residual.working_prec_bits"] = (
        ratio(sum(bits), len(bits)), "bit")
    infos = [f.cache_info() for f in state["caches"]]
    hits = sum(i.hits for i in infos)
    out["linform.cache.hit_ratio"] = (ratio(hits, hits + sum(i.misses for i in infos)), "1")

    out["share.upoly_qcomb_self"] = (ratio(tr.self_s(EXACT_LAYERS), wall_s), "1")
    # wrapper cost times wrapped calls: how much of the traced time, and at
    # most of the self times above, the tracing itself accounts for
    calls = sum(st[0] for st in tr.spans.values())
    out["trace.call_overhead_s"] = (per_call_cost() * calls, "s")
    out["share.sum_with_tail"] = (ratio(tr.stat("series.sum_with_tail")[2], wall_s), "1")
    out["share.pf_extract_fraction"] = (
        ratio(tr.stat("series.pf_extract.fraction")[2], wall_s), "1")
    return out
