"""Outside-in tracing of the gftrees layers for the traced benchmark pass.

`Tracer.install()` replaces public functions and methods of the gftrees
modules with wrappers defined here; `Tracer.uninstall()` puts the exact
original objects back.  Nothing inside the package changes.  Wrappers
either open a span (name, start, end, parent index, run id) or only bump a
counter: the scalar gradient runs millions of times per workload, so it is
counted, never spanned.  Spans stay in memory until `write_spans`.

`layer_metrics()` turns spans and counters into the per-layer metrics named
in METRICS; every name is always present, 0 when a workload never enters
that layer.
"""

from __future__ import annotations

import functools
import json
import resource
import time
from collections import Counter

# name -> unit, in BENCHMARK.json order.  The "_computed" suffix marks a
# value derived from other counts rather than observed.
METRICS = {
    "flow.integrations": "count",
    "flow.integrations_event": "count",
    "flow.integrations_terminal": "count",
    "flow.rhs_evals": "count",
    "flow.rhs_per_integration": "rhs/integration",
    "flow.steps_attempted_computed": "count",
    "flow.integrate_s": "s",
    "flow.scan_calls": "count",
    "flow.scan_seeds": "count",
    "flow.scan_s": "s",
    "flow.scan_s_per_seed": "s/seed",
    "flow.scan_outcome.converged": "count",
    "flow.scan_outcome.escaped": "count",
    "flow.scan_outcome.timeout": "count",
    "flow.scan_cache_hits": "count",
    "flow.count_lines_calls": "count",
    "flow.count_lines_s": "s",
    "flow.refine_s": "s",
    "flow.lines_clusters": "count",
    "flow.chart_point_calls": "count",
    "flow.chart_point_s": "s",
    "flow.self_s": "s",
    "trees.solve_calls": "count",
    "trees.solve_s": "s",
    "trees.tabulate_s": "s",
    "trees.newton_s": "s",
    "trees.self_s": "s",
    "trees.residual_evals": "count",
    "trees.endpoint_calls": "count",
    "trees.endpoint_memo_hit_ratio": "ratio",
    "trees.found": "count",
    "critical.find_calls": "count",
    "critical.find_s": "s",
    "critical.points": "count",
    "critical.rho_bound_s": "s",
    "critical.iota_calls": "count",
    "critical.self_s": "s",
    "expr.compile_calls": "count",
    "expr.compile_s": "s",
    "expr.self_s": "s",
    "family.grad_calls": "count",
    "family.hess_calls": "count",
    "family.vec_rows": "count",
    "continuation.path_s": "s",
    "continuation.matrix_calls": "count",
    "continuation.matrix_s": "s",
    "continuation.self_s": "s",
    "complexes.algebra_s": "s",
    "complexes.self_s": "s",
    "gf2.rref_calls": "count",
    "pipeline.prepare_calls": "count",
    "pipeline.prepare_s": "s",
    "pipeline.run_tasks_s": "s",
    "pipeline.tasks": "count",
    "pipeline.children_cpu_s": "s",
    "pipeline.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.untraced_s": "s",
    "trace.flow_trees_share": "ratio",
    "trace.spans": "count",
}

# Span names of the "complexes.algebra" group; diagram_check lives in the
# continuation module but is algebra on finished rings.
_ALGEBRA = ("verify_algebra", "cohomology", "compare_rings",
            "cross_product_classes")


class Tracer:
    """Spans and counters for one traced CLI invocation."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []            # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patches = []         # (owner, attr, original from owner's dict)
        self._integrating = 0
        self._in_endpoint = 0
        self._first_residual = None

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, owner, attr, name, hook=None):
        """Wrap owner.attr in a span.  `hook(args, kwargs)` runs first and
        may return `finish(result, span)`, called once the span is closed
        (with result None when the call raised)."""
        def make(orig):
            def wrapper(*args, **kwargs):
                finish = hook(args, kwargs) if hook else None
                span = self._open(name)
                result = None
                try:
                    result = orig(*args, **kwargs)
                    return result
                finally:
                    self._close(span)
                    if finish is not None:
                        finish(result, span)
            return wrapper
        self._patch(owner, attr, make)

    def _counted(self, owner, attr, name, rows=False):
        counts = self.counts

        def make(orig):
            if rows:
                def wrapper(self_, Z, *a, **k):
                    counts[name] += len(Z)
                    return orig(self_, Z, *a, **k)
            else:
                def wrapper(*a, **k):
                    counts[name] += 1
                    return orig(*a, **k)
            return wrapper
        self._patch(owner, attr, make)

    def install(self):
        from gftrees import complexes, continuation, critical, expr, family
        from gftrees import flow, gf2, pipeline, trees

        counts = self.counts
        tracer = self

        # flow: the integrator and its right-hand side
        def on_integrate(args, kwargs):
            terminal = kwargs.get("terminal_t", args[5] if len(args) > 5 else None)
            counts["flow.integrations_terminal" if terminal is not None
                   else "flow.integrations_event"] += 1
            tracer._integrating += 1

            def finish(result, span):
                tracer._integrating -= 1
            return finish
        self._spanned(flow, "integrate", "flow.integrate", on_integrate)

        def make_grad(orig):
            def grad(self_, z):
                counts["family.grad_calls"] += 1
                if tracer._integrating:
                    counts["flow.rhs_evals"] += 1
                return orig(self_, z)
            return grad
        self._patch(family.ScalarField, "grad", make_grad)
        self._counted(family.ScalarField, "hess", "family.hess_calls")
        for attr in ("value_vec", "grad_vec", "hess_vec"):
            self._counted(family.ScalarField, attr, "family.vec_rows", rows=True)

        # flow: scans, line counting, charts.  A scan that launched no
        # integration was answered from the program's scan cache.
        def on_scan(args, kwargs):
            launched = counts["flow.integrations_event"]

            def finish(result, span):
                if result is None:
                    return
                if counts["flow.integrations_event"] == launched:
                    counts["flow.scan_cache_hits"] += 1
                    return
                scan = result[0]
                counts["flow.scan_seeds"] += len(scan.dirs)
                for kind, _ in scan.outcomes:
                    counts["flow.scan_outcome." + kind] += 1
            return finish
        self._spanned(flow, "sphere_scan", "flow.scan", on_scan)

        def on_lines(args, kwargs):
            def finish(result, span):
                counts["flow.lines_clusters"] += result.clusters if result else 0
            return finish
        self._spanned(flow, "count_lines", "flow.count_lines", on_lines)

        def on_chart_point(args, kwargs):
            if tracer._in_endpoint:
                counts["trees.endpoint_chart_points"] += 1
        self._spanned(flow, "chart_point", "flow.chart_point", on_chart_point)

        # trees: tabulation runs from entry to the first residual, Newton after
        def on_solve(args, kwargs):
            tracer._first_residual = None

            def finish(result, span):
                counts["trees.found"] += len(result or ())
                split = tracer._first_residual or span[2]
                counts["trees.tabulate_s"] += split - span[1]
                counts["trees.newton_s"] += span[2] - split
            return finish
        self._spanned(trees, "solve_trees", "trees.solve", on_solve)

        def make_residual(orig):
            def tree_residual(*a, **k):
                counts["trees.residual_evals"] += 1
                if tracer._first_residual is None:
                    tracer._first_residual = time.perf_counter()
                return orig(*a, **k)
            return tree_residual
        self._patch(trees, "tree_residual", make_residual)

        def make_endpoint(orig):
            def endpoint(*a, **k):
                counts["trees.endpoint_calls"] += 1
                tracer._in_endpoint += 1
                try:
                    return orig(*a, **k)
                finally:
                    tracer._in_endpoint -= 1
            return endpoint
        self._patch(trees.TreeProblem, "endpoint", make_endpoint)

        # critical points
        def on_find(args, kwargs):
            def finish(result, span):
                counts["critical.points"] += len(result or ())
            return finish
        self._spanned(critical, "find_critical_points", "critical.find", on_find)
        self._spanned(critical, "rho_and_perturbation_bound", "critical.rho_bound")
        self._counted(critical, "iota", "critical.iota_calls")

        # expression codegen
        for attr in ("compile_value", "compile_grad", "compile_hess"):
            self._spanned(expr, attr, "expr.compile")

        # continuation
        self._spanned(continuation.FamilyPath, "__init__", "continuation.path")
        self._spanned(continuation, "continuation_matrix", "continuation.matrix")

        # algebra
        for attr in _ALGEBRA:
            self._spanned(complexes, attr, "complexes.algebra")
        self._spanned(continuation, "diagram_check", "complexes.algebra")
        self._counted(gf2, "rref", "gf2.rref_calls")

        # pipeline orchestration; pool workers are reaped inside run_tasks
        self._spanned(pipeline.GFRun, "prepare", "pipeline.prepare")

        def children_cpu_s():
            u = resource.getrusage(resource.RUSAGE_CHILDREN)
            return u.ru_utime + u.ru_stime

        def on_run_tasks(args, kwargs):
            counts["pipeline.tasks"] += len(args[1])
            c0 = children_cpu_s()

            def finish(result, span):
                counts["pipeline.children_cpu_s"] += children_cpu_s() - c0
            return finish
        self._spanned(pipeline.GFRun, "run_tasks", "pipeline.run_tasks",
                      on_run_tasks)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def self_times(self):
        """Per span: its duration minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def layer_metrics(self, wall_s, untraced_wall_s):
        """Every METRICS entry for this pass, given the traced and the
        untraced wall time of the command body."""
        c = self.counts
        m = dict.fromkeys(METRICS, 0)
        for key in METRICS:
            if key in c:
                m[key] = c[key]
        total = Counter()
        calls = Counter()
        for s in self.spans:
            total[s[0]] += s[2] - s[1]
            calls[s[0]] += 1
        own = self.self_times()
        layer_self = Counter()
        for s, t in zip(self.spans, own):
            layer_self[s[0].split(".")[0]] += t

        m["flow.integrations"] = calls["flow.integrate"]
        m["flow.integrate_s"] = total["flow.integrate"]
        if m["flow.integrations"]:
            m["flow.rhs_per_integration"] = m["flow.rhs_evals"] / m["flow.integrations"]
        # Dormand-Prince 4(5) with first-same-as-last: one RHS for the start,
        # then six per attempted step
        m["flow.steps_attempted_computed"] = (m["flow.rhs_evals"]
                                              - m["flow.integrations"]) / 6.0
        m["flow.scan_calls"] = calls["flow.scan"]
        m["flow.scan_s"] = total["flow.scan"]
        if m["flow.scan_seeds"]:
            m["flow.scan_s_per_seed"] = m["flow.scan_s"] / m["flow.scan_seeds"]
        m["flow.count_lines_calls"] = calls["flow.count_lines"]
        m["flow.count_lines_s"] = total["flow.count_lines"]
        m["flow.refine_s"] = m["flow.count_lines_s"] - sum(
            s[2] - s[1] for s in self.spans
            if s[0] == "flow.scan" and s[3] >= 0
            and self.spans[s[3]][0] == "flow.count_lines")
        m["flow.chart_point_calls"] = calls["flow.chart_point"]
        m["flow.chart_point_s"] = total["flow.chart_point"]
        m["trees.solve_calls"] = calls["trees.solve"]
        m["trees.solve_s"] = total["trees.solve"]
        if m["trees.endpoint_calls"]:
            m["trees.endpoint_memo_hit_ratio"] = 1.0 - (
                c["trees.endpoint_chart_points"] / m["trees.endpoint_calls"])
        m["critical.find_calls"] = calls["critical.find"]
        m["critical.find_s"] = total["critical.find"]
        m["critical.rho_bound_s"] = total["critical.rho_bound"]
        m["expr.compile_calls"] = calls["expr.compile"]
        m["expr.compile_s"] = total["expr.compile"]
        m["continuation.path_s"] = total["continuation.path"]
        m["continuation.matrix_calls"] = calls["continuation.matrix"]
        m["continuation.matrix_s"] = total["continuation.matrix"]
        m["complexes.algebra_s"] = sum(
            s[2] - s[1] for s in self.spans if s[0] == "complexes.algebra"
            and (s[3] < 0 or self.spans[s[3]][0] != "complexes.algebra"))
        m["pipeline.prepare_calls"] = calls["pipeline.prepare"]
        m["pipeline.prepare_s"] = total["pipeline.prepare"]
        m["pipeline.run_tasks_s"] = total["pipeline.run_tasks"]
        for layer in ("flow", "trees", "critical", "expr", "continuation",
                      "complexes", "pipeline"):
            m[layer + ".self_s"] = layer_self[layer]
        m["trace.wall_s"] = wall_s
        m["trace.overhead_s"] = wall_s - untraced_wall_s
        m["trace.untraced_s"] = wall_s - sum(
            s[2] - s[1] for s in self.spans if s[3] < 0)
        m["trace.flow_trees_share"] = (layer_self["flow"] + layer_self["trees"]) / wall_s
        m["trace.spans"] = len(self.spans)
        return m

    def work_counts(self):
        """The deterministic part: every counter and per-name span count."""
        out = {k: v for k, v in self.counts.items() if not k.endswith("_s")}
        for s in self.spans:
            out["spans:" + s[0]] = out.get("spans:" + s[0], 0) + 1
        return dict(sorted(out.items()))

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump([{"run": self.run_id, "name": name, "start": start,
                        "end": end, "parent": parent}
                       for name, start, end, parent in self.spans], fh)
