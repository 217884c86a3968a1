"""Per-layer spans and counters, installed around joinlab from outside.

``Tracer.install()`` replaces each target function with a timing wrapper
at every name a caller looks it up by: the defining module's attribute,
each ``from .x import name`` copy in another joinlab module, and the
package namespace.  Two ``RationalSimplex`` methods are wrapped on the
class.  ``uninstall()`` puts the originals back.  No program file changes.

A span is (name, start, end, parent span, request), kept in memory; a
layer's self time is its spans' durations minus the time their direct
child spans cover.  Counters are taken from call arguments and results.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

# (metric, module, attribute, counter).  A metric ending in "_s" is the
# self time of spans named after it; counter(args, result) returns counts
# to add.  A target with metric None only counts.
TARGETS = (
    ("cli.self_s", "joinlab.cli", "main", None),
    ("config.parse_s", "joinlab.config", "parse_config", None),
    ("report.render_s", "joinlab.report", "render_report",
     lambda a, r: {"report.bytes_out": len(r.encode("utf-8"))}),
    ("report.render_s", "joinlab.report", "input_digest", None),
    ("simplex.build_s", "joinlab.simplex", "RationalSimplex.__init__",
     lambda a, r: {"simplex.builds": 1, "simplex.rows_in": len(a["rows"]),
                   "simplex.cols": a["num_vars"]}),
    ("simplex.solve_s", "joinlab.simplex", "RationalSimplex.solve_for",
     lambda a, r: {"simplex.lps": 1}),
    ("polytope.self_s", "joinlab.polytope", "certify_triviality",
     lambda a, r: {"polytope.coords": a["spec"].size}),
    ("polytope.self_s", "joinlab.polytope", "optimize",
     lambda a, r: {"polytope.coords": a["spec"].size}),
    ("polytope.recheck_s", "joinlab.polytope", "_as_tensor", None),
    ("joinings.product_s", "joinlab.joinings", "product_joining",
     lambda a, r: {"joinings.entries": r.size}),
    ("joinings.marginal_s", "joinlab.joinings", "marginal",
     lambda a, r: {"joinings.entries": a["v"].size}),
    ("joinings.face_s", "joinlab.joinings", "face_independence_defect", None),
    ("joinings.invariance_s", "joinlab.joinings", "diagonal_invariance_defect",
     lambda a, r: {"joinings.entries": a["v"].size * len(a["action"].generators)}),
    ("joinings.sup_distance_s", "joinlab.joinings", "sup_distance",
     lambda a, r: {"joinings.entries": a["v"].size}),
    ("torus.build_s", "joinlab.torus", "triple_sum_joining", None),
    ("torus.build_s", "joinlab.torus", "full_action", None),
    ("serialize.load_s", "joinlab.serialize", "data_to_raw", None),
    ("serialize.dump_s", "joinlab.serialize", "joining_to_data", None),
    ("mixing.correlation_s", "joinlab.mixing", "correlation",
     lambda a, r: {"mixing.correlations": 1}),
    ("skew.stat_s", "joinlab.skew", "rigidity_statistic", None),
    ("skew.stat_s", "joinlab.skew", "relative_mixing_fraction", None),
    ("skew.stat_s", "joinlab.skew", "relative_weak_mixing_average", None),
    (None, "joinlab.skew", "cocycle_product", lambda a, r: {"skew.cocycle_products": 1}),
    ("skew.sample_s", "joinlab.skew", "sample_random_extension", None),
    ("skew.relative_product_s", "joinlab.skew", "relative_product", None),
    ("spaces.orbit_count_s", "joinlab.spaces", "orbit_count", None),
    ("spaces.orbit_count_s", "joinlab.skew", "is_ergodic", None),
    ("operators.dist_w_s", "joinlab.operators", "koopman", None),
    ("operators.dist_w_s", "joinlab.operators", "dist_w", None),
    ("operators.dist_w_s", "joinlab.operators", "averaging_operator", None),
)

TIME_METRICS = tuple(dict.fromkeys(m for m, *_ in TARGETS if m is not None))
COUNT_METRICS = {
    "simplex.builds": "count", "simplex.lps": "count", "simplex.rows_in": "count",
    "simplex.cols": "count", "polytope.coords": "count", "joinings.entries": "count",
    "serialize.bytes_in": "bytes", "report.bytes_out": "bytes",
    "mixing.correlations": "count", "skew.cocycle_products": "count",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.counts: Counter = Counter()
        self.request = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- installation --------------------------------------------------------

    def install(self):
        self.missing = []
        for metric, module, attr, counter in TARGETS:
            mod = sys.modules.get(module)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or name not in vars(owner):
                self.missing.append(f"{module}.{attr}")
                continue
            original = vars(owner)[name]
            wrapper = self._wrap(metric, original, counter)
            if owner_name:
                self._replace(owner, name, wrapper)
                continue
            for other_name, other in list(sys.modules.items()):
                if other is None or not (other_name == "joinlab" or other_name.startswith("joinlab.")):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._replace(other, key, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore = []

    def _replace(self, owner, name, wrapper):
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _wrap(self, metric, fn, counter):
        signature = inspect.signature(fn) if counter else None
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def count(args, kwargs, result):
            counts.update(counter(signature.bind(*args, **kwargs).arguments, result))

        if metric is None:
            @functools.wraps(fn)
            def counting(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(args, kwargs, result)
                return result

            return counting

        span = metric[:-2]

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            rec = [span, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                count(args, kwargs, result)
            return result

        return timed

    # -- results -------------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """Position to measure from: (span count, copy of the counters)."""
        return len(self.spans), Counter(self.counts)

    def self_times(self, since: int = 0) -> dict[str, float]:
        """Self time per metric over the spans recorded after ``since``."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans[since:]:
            if rec[3] >= since:
                child[rec[3]] += rec[2] - rec[1]
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for i in range(since, len(spans)):
            name, start, end = spans[i][:3]
            out[name + "_s"] += (end - start) - child[i]
        return out

    def to_json(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "request")
        return [dict(zip(keys, rec)) for rec in self.spans]
