"""Outside-in layer trace for the fixpoint benchmark.

The program is not edited.  Instead each traced public function is replaced,
in every fixpoint module that holds a reference to it, by a wrapper that
records a span.  Modules copy names with ``from .geometry import distance``,
so rebinding only ``geometry.distance`` would miss most calls.

Spans are aggregated per (name, parent) as count, total time and self time
(total minus the time of traced child spans).  verify_all makes more than a
million kernel calls, so one record per call would be too much.
"""

from __future__ import annotations

import functools
import os
import time

MODULES = ("", "geometry", "engine", "diagnostics", "regularity", "scenarios", "cli", "verify")

#: geometry variants whose project_one cost per call is reported
VARIANTS = (
    "AffineSubspace", "Halfspace", "Ball", "Box",
    "FinitePointSet", "SetUnion", "PiecewiseCurve", "Epigraph",
)
DIAGNOSTICS = (
    "check_fejer", "check_linear_monotone", "estimate_q_rate", "estimate_r_rate",
    "verify_r_certificate", "extend_r_certificate", "check_linear_extendible",
    "extract_monotone_subsequence", "check_subsequence_monotone", "check_convex_dichotomy",
)
ESTIMATORS = ("sr_prime", "sr", "kappa", "sigma", "violation")
SCENARIOS = ("build", "random_convex_pair", "load_scenario")
CRITERIA = range(1, 14)
BUNDLE_FILES = ("trace.csv", "trace.json", "report.json", "plot.svg")


def fixpoint_modules() -> list:
    import importlib

    return [importlib.import_module("fixpoint" + ("." + m if m else "")) for m in MODULES]


def rebind(modules, original, replacement) -> None:
    """Point every module-level reference to ``original`` at ``replacement``.

    Module-level lists are searched too: ``verify.ALL_CRITERIA`` holds the
    criterion functions that ``run_suite`` calls.
    """
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)
            elif isinstance(value, list) and any(v is original for v in value):
                value[:] = [replacement if v is original else v for v in value]


class Patches:
    """Replacements installed into the program's modules, undone in reverse."""

    def __init__(self):
        self.modules = fixpoint_modules()
        self._undo: list = []

    def function(self, module: str, attr: str, make) -> None:
        mod = self.modules[MODULES.index(module)]
        original = getattr(mod, attr)
        replacement = functools.wraps(original)(make(original))
        rebind(self.modules, original, replacement)
        self._undo.append(lambda: rebind(self.modules, replacement, original))

    def method(self, module: str, cls: str, attr: str, make) -> None:
        owner = getattr(self.modules[MODULES.index(module)], cls)
        original = vars(owner)[attr]
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._undo.append(lambda: setattr(owner, attr, original))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


class Tracer:
    """Span aggregation plus the counters named in the per-layer metrics."""

    def __init__(self):
        self.stats: dict = {}  # (name, parent name) -> [count, total_s, self_s]
        self._stack: list = []  # open spans as [name, child_s]
        self.counts = {
            "as_vector": 0, "ball_point": 0, "score": 0, "feasible": 0,
            "improving": 0, "estimator_apply": 0, "bundle_bytes": 0, "iterates": 0,
        }
        self._estimators_open = 0

    def span(self, name: str, fn, key=None):
        """Wrap fn so each call records a span; ``key(args)`` may refine the name."""
        stats, stack, clock = self.stats, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            label = name if key is None else key(args)
            frame = [label, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                rec = stats.get((label, parent and parent[0]))
                if rec is None:
                    rec = stats[(label, parent and parent[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]

        return traced

    def _count(self, counter: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def install(self, patches: Patches) -> None:
        span = self.span
        patches.function("geometry", "as_vector", lambda f: self._count("as_vector", f))
        patches.function("geometry", "ball_point", lambda f: self._count("ball_point", f))
        patches.function("geometry", "distance", lambda f: span("geometry.distance", f))
        patches.function(
            "geometry", "project_one",
            lambda f: span("geometry.project_one", f,
                           key=lambda a: "geometry.project_one." + type(a[0]).__name__),
        )
        patches.function("geometry", "project_all", lambda f: span("geometry.project_all", f))
        patches.function("geometry", "pattern_polish",
                         lambda f: span("geometry.pattern_polish", self._counted_polish(f)))

        def apply_under_estimator(f):
            def apply(*args, **kwargs):
                if self._estimators_open:
                    self.counts["estimator_apply"] += 1
                return f(*args, **kwargs)
            return apply

        patches.function("engine", "apply", lambda f: span("engine.apply", apply_under_estimator(f)))

        def iterates_counted(f):
            def run(*args, **kwargs):
                trace = f(*args, **kwargs)
                self.counts["iterates"] += len(trace.x) - 1
                return trace
            return run

        patches.function("engine", "run", lambda f: span("engine.run", iterates_counted(f)))
        for name in ("candidates", "residual_map", "trace_to_json_text"):
            patches.function("engine", name, lambda f, n=name: span("engine." + n, f))
        patches.method("engine", "Trace", "to_csv_text",
                       lambda f: span("engine.Trace.to_csv_text", f))

        for name in DIAGNOSTICS:
            patches.function("diagnostics", name, lambda f, n=name: span("diagnostics." + n, f))

        def estimator(f):
            def estimate(*args, **kwargs):
                self._estimators_open += 1
                try:
                    return f(*args, **kwargs)
                finally:
                    self._estimators_open -= 1
            return estimate

        for kind in ESTIMATORS:
            name = "estimate_" + kind
            patches.function("regularity", name,
                             lambda f, n=name: span("regularity." + n, estimator(f)))
        for name in SCENARIOS:
            patches.function("scenarios", name, lambda f, n=name: span("scenarios." + n, f))

        def bundle_counted(f):
            def execute_run(*args, **kwargs):
                code = f(*args, **kwargs)
                out = kwargs["out_dir"] if "out_dir" in kwargs else args[1]
                for fname in BUNDLE_FILES:
                    path = os.path.join(out, fname)
                    if os.path.exists(path):
                        self.counts["bundle_bytes"] += os.path.getsize(path)
                return code
            return execute_run

        patches.function("cli", "execute_run", lambda f: span("cli.execute_run", bundle_counted(f)))
        for n in CRITERIA:
            patches.function("verify", f"criterion_{n}",
                             lambda f, n=n: span(f"verify.criterion_{n}", f))

    def _counted_polish(self, polish):
        counts = self.counts

        def counted_polish(x0, score, feasible, *args, **kwargs):
            best = [None]

            def counted_score(y):
                counts["score"] += 1
                value = score(y)
                # pattern_polish accepts a trial that beats its best by 1e-15
                if best[0] is None:
                    best[0] = value
                elif value > best[0] + 1e-15:
                    best[0] = value
                    counts["improving"] += 1
                return value

            def counted_feasible(y):
                counts["feasible"] += 1
                return feasible(y)

            return polish(x0, counted_score, counted_feasible, *args, **kwargs)

        return counted_polish

    # -- metrics -----------------------------------------------------------

    def totals(self, name: str, prefix: bool = False) -> tuple[int, float, float]:
        """Calls, total and self seconds of a span name (or every name with
        that prefix), summed over parents."""
        calls = total = own = 0.0
        for (label, _), (c, t, s) in self.stats.items():
            if label == name or (prefix and label.startswith(name)):
                calls += c
                total += t
                own += s
        return int(calls), total, own

    def metrics(self, overhead_ratio: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        out: dict = {}

        def calls_self(metric: str, span: str | None = None, prefix: bool = False) -> None:
            calls, _, own = self.totals(span or metric, prefix)
            out[metric + ".calls"] = (calls, "count")
            out[metric + ".self_s"] = (own, "s")

        def per(numerator: float, denominator: int, scale: float = 1.0) -> float:
            return scale * numerator / denominator if denominator else 0.0

        calls_self("geometry.distance")
        calls_self("geometry.project_all")
        calls_self("geometry.project_one", "geometry.project_one.", prefix=True)
        out["geometry.as_vector.calls"] = (self.counts["as_vector"], "count")
        out["geometry.ball_point.calls"] = (self.counts["ball_point"], "count")
        for variant in VARIANTS:
            calls, total, _ = self.totals("geometry.project_one." + variant)
            out["geometry.project_one.us_per_call." + variant] = (per(total, calls, 1e6), "us")

        for name in ("apply", "candidates", "residual_map", "run"):
            calls_self("engine." + name)
        iterates = self.counts["iterates"]
        out["engine.run.iterates"] = (iterates, "count")
        out["engine.run.us_per_iterate"] = (per(self.totals("engine.run")[1], iterates, 1e6), "us")
        out["engine.Trace.to_csv_text.self_s"] = (self.totals("engine.Trace.to_csv_text")[2], "s")
        out["engine.trace_to_json_text.self_s"] = (self.totals("engine.trace_to_json_text")[2], "s")

        calls_self("diagnostics", "diagnostics.", prefix=True)

        for kind in ESTIMATORS:
            calls_self("regularity.estimate_" + kind)
        out["regularity.apply_calls"] = (self.counts["estimator_apply"], "count")
        calls_self("geometry.pattern_polish")
        out["geometry.pattern_polish.score_calls"] = (self.counts["score"], "count")
        out["geometry.pattern_polish.feasible_calls"] = (self.counts["feasible"], "count")
        out["geometry.pattern_polish.accept_ratio"] = (
            per(self.counts["improving"], self.counts["score"]), "ratio")

        for name in SCENARIOS:
            calls_self("scenarios." + name)

        calls_self("cli.execute_run")
        out["cli.bundle_bytes"] = (self.counts["bundle_bytes"], "bytes")
        for n in CRITERIA:
            out[f"verify.criterion_{n}.s"] = (self.totals(f"verify.criterion_{n}")[1], "s")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out
