"""Spans and counters recorded from outside the package.

`Tracer.install` replaces the public module attributes that callers look
up at call time with timing wrappers; `Tracer.remove` puts the originals
back.  Every wrapped call becomes a span (name, start, end, parent); a
layer's self time is its spans' durations minus the time their direct
child spans cover.  Right-hand-side evaluations are counted by summing
``nfev`` over the ``solve_ivp`` that `oracle` and `riccati_lab` import.

`nullclines` is deliberately not wrapped: the claim registry in `verify`
captures the bound functions when it is built, so they are timed by a
separate pass (`closed_forms_pass`) instead.
"""

import os
import time
from collections import Counter, defaultdict

ORACLE_ROWS = ("i_ratio_row", "k_ratio_row")
ORACLE_POINTS = ("i_ratio", "k_ratio", "product")
VERIFY_FNS = ("scan_bound", "scan_monotone", "conjecture_scan",
              "sharpness_battery", "write_report_csv")
RICCATI_FNS = ("solve_riccati", "classify")

# (metric name, unit, better) in report order
PER_LAYER = (
    ("oracle.k_ratio_row.calls", "count", "lower"),
    ("oracle.k_ratio_row.self_s", "s", "lower"),
    ("oracle.k_integrations", "count", "lower"),
    ("oracle.k_rhs_evals", "count", "lower"),
    ("oracle.i_ratio_row.calls", "count", "lower"),
    ("oracle.i_ratio_row.self_s", "s", "lower"),
    ("oracle.point.calls", "count", "lower"),
    ("oracle.point.self_s", "s", "lower"),
    ("verify.OracleTable.self_s", "s", "lower"),
    ("verify.scan_bound.calls", "count", "lower"),
    ("verify.scan_bound.self_s", "s", "lower"),
    ("verify.scan_bound.points", "count", "higher"),
    ("verify.scan_bound.skipped", "count", "lower"),
    ("verify.scan_bound.unverified", "count", "lower"),
    ("verify.scan_monotone.calls", "count", "lower"),
    ("verify.scan_monotone.self_s", "s", "lower"),
    ("verify.scan_monotone.points", "count", "higher"),
    ("verify.conjecture_scan.self_s", "s", "lower"),
    ("verify.conjecture_scan.points", "count", "higher"),
    ("verify.sharpness_battery.self_s", "s", "lower"),
    ("verify.write_report_csv.self_s", "s", "lower"),
    ("verify.write_report_csv.bytes", "B", "lower"),
    ("nullclines.closed_forms.evals", "count", "higher"),
    ("nullclines.closed_forms.s", "s", "lower"),
    ("riccati_lab.solve_riccati.calls", "count", "lower"),
    ("riccati_lab.solve_riccati.self_s", "s", "lower"),
    ("riccati_lab.rhs_evals", "count", "lower"),
    ("riccati_lab.classify.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.out_bytes", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """In-memory span recorder for one traced workload pass."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._open = []        # indices of spans not yet ended
        self._saved = []       # (owner, attribute, original value)

    # -- recording ----------------------------------------------------

    def _current(self) -> str:
        return self.spans[self._open[-1]][0] if self._open else ""

    def _span(self, name, fn, args, kwargs):
        rec = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def _wrap(self, name, fn, inside_ok=None, after=None):
        """Span-recording stand-in for fn.

        A call made from inside a span named `name` (recursion) or whose
        enclosing span name starts with `inside_ok` runs unrecorded, so it
        stays part of the caller's self time.  `after(result, args, kwargs)`
        turns the result into counters.
        """
        def wrapper(*args, **kwargs):
            cur = self._current()
            if cur == name or (inside_ok and cur.startswith(inside_ok)):
                return fn(*args, **kwargs)
            result = self._span(name, fn, args, kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapper

    def _swap(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- hooks --------------------------------------------------------

    def install(self, cli, oracle, verify, riccati_lab):
        counts = self.counts

        def scan_counts(layer):
            def after(rep, args, kwargs):
                counts[layer + ".points"] += rep.points_checked
                counts[layer + ".skipped"] += rep.skipped
                counts[layer + ".unverified"] += len(rep.unverified)
            return after

        def csv_bytes(result, args, kwargs):
            path = args[1] if len(args) > 1 else kwargs["path"]
            counts["verify.write_report_csv.bytes"] += os.path.getsize(path)

        def counting_ivp(solve_ivp, calls_key, evals_key):
            def wrapper(*args, **kwargs):
                sol = solve_ivp(*args, **kwargs)
                if calls_key:
                    counts[calls_key] += 1
                counts[evals_key] += sol.nfev
                return sol
            return wrapper

        for attr in ORACLE_ROWS:
            self._swap(oracle, attr, self._wrap("oracle." + attr, getattr(oracle, attr)))
        for attr in ORACLE_POINTS:
            self._swap(oracle, attr, self._wrap(
                "oracle.point", getattr(oracle, attr), inside_ok="oracle."))
        self._swap(oracle, "solve_ivp", counting_ivp(
            oracle.solve_ivp, "oracle.k_integrations", "oracle.k_rhs_evals"))
        self._swap(riccati_lab, "solve_ivp", counting_ivp(
            riccati_lab.solve_ivp, None, "riccati_lab.rhs_evals"))

        for attr in VERIFY_FNS:
            after = csv_bytes if attr == "write_report_csv" else (
                None if attr == "sharpness_battery" else scan_counts("verify." + attr))
            self._swap(verify, attr, self._wrap("verify." + attr, getattr(verify, attr),
                                                after=after))
        tracer = self

        class TracedOracleTable(verify.OracleTable):
            def __init__(self, *args, **kwargs):
                tracer._span("verify.OracleTable", super().__init__, args, kwargs)

        self._swap(verify, "OracleTable", TracedOracleTable)

        for attr in RICCATI_FNS:
            self._swap(riccati_lab, attr, self._wrap("riccati_lab." + attr,
                                                     getattr(riccati_lab, attr)))
        self._swap(cli, "main", self._wrap("cli", cli.main))

    def remove(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the recorded pass (closed forms and
        overhead are filled in by the caller)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
        out = {}
        for metric, unit, _ in PER_LAYER:
            layer, _, field = metric.rpartition(".")
            if field == "self_s":
                out[metric] = self_s[layer]
            elif field == "calls":
                out[metric] = calls[layer]
            else:
                out[metric] = self.counts[metric]
        return out


def closed_forms_pass(verify, points):
    """Evaluate every registered bound claim's closed form at each (nu, x).

    Returns (evaluations, seconds).  This is how `nullclines` is timed: the
    registry holds the bound functions it captured at import, so wrapping
    the `nullclines` module would miss the calls `scan_bound` makes.
    """
    from besselbounds.nullclines import EvalPoint

    fns = [verify.get_claim(cid).bound_fn for cid in verify.bound_claims()]
    pts = [EvalPoint(nu, x) for nu, x in points]
    start = time.perf_counter()
    for fn in fns:
        for p in pts:
            fn(p)
    return len(fns) * len(pts), time.perf_counter() - start
