"""Layer timing from outside the library.

`Tracer.install()` replaces the traced public functions of bicompat with
timing wrappers, in every module namespace that binds them (a function
imported with `from .linalg import kernel_from_rows` is bound in several
modules, and each binding is replaced).  Spans are kept in memory and
written out as JSON lines by `write_spans`; nothing goes to stdout.

For each traced name the tracer records calls, busy time (outermost calls
only, so recursion is not counted twice) and self time (busy time minus the
time spent in traced children).  Work the tracer itself does inside a call,
such as counting distinct rows, is excluded from every enclosing span.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import bicompat
from bicompat import algebra, builders, cli, compat, freealg, linalg, suite

MODULES = (bicompat, linalg, algebra, compat, builders, freealg, suite, cli)

# metric prefix -> (home module, attribute)
TRACED = {
    "linalg.kernel_from_rows": (linalg, "kernel_from_rows"),
    "algebra.associativity_witness": (algebra, "associativity_witness"),
    "algebra.centroid": (algebra, "centroid"),
    "algebra.centralizer": (algebra, "centralizer"),
    "algebra.annihilator": (algebra, "annihilator"),
    "compat.solve_linear": (compat, "solve_linear"),
    "compat.check": (compat, "check"),
    "compat.remark13_audit": (compat, "remark13_audit"),
    "compat.all_members_associative": (compat, "all_members_associative"),
    "builders.mutation_span": (builders, "mutation_span"),
    "builders.centroid_product_span": (builders, "centroid_product_span"),
    "freealg.identity_witness_truncated": (freealg, "identity_witness_truncated"),
    "freealg.verify_id_matching_truncated": (freealg, "verify_id_matching_truncated"),
    "freealg.cpoly_identity_suite": (freealg, "cpoly_identity_suite"),
    "freealg.truncated_centroid_dim": (freealg, "truncated_centroid_dim"),
}


def replace_everywhere(original, replacement):
    """Rebind every module attribute that is `original`; returns undo records."""
    undo = []
    for mod in MODULES:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def _distinct_up_to_scale(field, rows):
    seen = set()
    for row in rows:
        items = sorted((c, v) for c, v in row.items() if v != field.zero)
        if not items:
            continue
        lead = field.coerce(items[0][1])
        seen.add(tuple((c, field.div(field.coerce(v), lead)) for c, v in items))
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.calls = defaultdict(int)
        self.busy_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.dense_bytes_max = 0
        self._stack = []  # frames: [span index, child_ns, excluded_ns]
        self._depth = defaultdict(int)
        self._undo = []
        self._entries = []  # the suite entries as they were before install()

    # -- span bookkeeping -------------------------------------------------

    def _exclude(self, ns):
        for frame in self._stack:
            frame[2] += ns

    def wrap(self, name, fn, before=None, after=None):
        """Timed wrapper; `before(args, kwargs)` may return replacement args."""
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                t = time.perf_counter_ns()
                args = before(args, kwargs)
                tracer._exclude(time.perf_counter_ns() - t)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            idx = len(tracer.spans)
            tracer.spans.append([name, 0, 0, parent])
            frame = [idx, 0, 0]
            tracer._stack.append(frame)
            tracer._depth[name] += 1
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer._depth[name] -= 1
                busy = end - start - frame[2]
                tracer.spans[idx][1:3] = [start, end]
                tracer.calls[name] += 1
                tracer.self_ns[name] += busy - frame[1]
                if tracer._depth[name] == 0:
                    tracer.busy_ns[name] += busy
                if tracer._stack:
                    tracer._stack[-1][1] += busy
            if after is not None:
                t = time.perf_counter_ns()
                after(args, result)
                tracer._exclude(time.perf_counter_ns() - t)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        hooks = {
            "linalg.kernel_from_rows": (self._kernel_before, self._kernel_after),
            "compat.check": (None, self._check_after),
        }
        for name, (mod, attr) in TRACED.items():
            original = getattr(mod, attr)
            before, after = hooks.get(name, (None, None))
            self._undo += replace_everywhere(original, self.wrap(name, original, before, after))
        init = linalg.Subspace.__init__
        linalg.Subspace.__init__ = self.wrap("linalg.Subspace", init)
        self._undo.append((linalg.Subspace, "__init__", init))
        entries = list(suite.SUITE)
        for i, (entry_id, desc, fn) in enumerate(entries):
            suite.SUITE[i] = (entry_id, desc, self.wrap(f"suite.entry.{entry_id}", fn))
        self._entries = entries

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []
        suite.SUITE[:] = self._entries

    # -- hooks ------------------------------------------------------------

    def _kernel_before(self, args, kwargs):
        field, ncols, sparse_rows = args[:3]
        rows = list(sparse_rows)
        nonempty = [r for r in rows if r]
        self.counts["kernel.rows"] += len(nonempty)
        self.counts["kernel.distinct_rows"] += _distinct_up_to_scale(field, nonempty)
        self.counts["kernel.cols"] += ncols
        self.dense_bytes_max = max(self.dense_bytes_max, 8 * len(nonempty) * ncols)
        return (field, ncols, rows) + tuple(args[3:])

    def _kernel_after(self, args, result):
        self.counts["kernel.rank"] += args[1] - result.dim

    def _check_after(self, args, result):
        self.counts["check.holds"] += bool(result.holds)

    # -- output -----------------------------------------------------------

    def layer_metrics(self):
        """Every per-layer metric the tracer measures, by metric name."""
        out = {}
        for name in list(TRACED) + ["linalg.Subspace"]:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.busy_s"] = self.busy_ns[name] / 1e9
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
        for e in self._entries:
            out[f"suite.entry.{e[0]}_s"] = self.busy_ns[f"suite.entry.{e[0]}"] / 1e9
        k = "linalg.kernel_from_rows"
        for key in ("rows", "distinct_rows", "cols", "rank"):
            out[f"{k}.{key}"] = self.counts[f"kernel.{key}"]
        rows = self.counts["kernel.rows"]
        out[f"{k}.distinct_ratio"] = self.counts["kernel.distinct_rows"] / rows if rows else 0.0
        out[f"{k}.dense_bytes_max"] = self.dense_bytes_max
        out["compat.check.holds"] = self.counts["check.holds"]
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent}) + "\n")
