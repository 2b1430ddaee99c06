"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of the phaselearn layers from outside
the package.  A wrapper replaces every name the callers look up: the layer
module's own attribute, each ``from .x import y`` binding in the other
phaselearn modules, ``PinningOracle.site_state`` on its class, and the two
SciPy entry points lindblad calls (``phaselearn.lindblad.solve_ivp`` and
``scipy.sparse.linalg.splu``, which lindblad reaches as ``spla.splu``).
Wrappers pass return values and exceptions through unchanged.

Spans live in memory.  Every call is folded into a (name, parent name)
aggregate of calls, inclusive seconds, self seconds and errors; the
low-frequency spans (stages, scans, calibration, shadow I/O, plotting) are
also kept one by one with their parent span.  The tracer assumes one thread,
which holds because every workload runs with ``workers = 1``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from pathlib import Path

LAYERS = ("lindblad", "models", "shadows", "learner", "diagnostics", "plotting",
          "seeding")
SCANS = ("lieb_robinson_scan", "mixing_scan", "ltqo_scan", "compatibility_scan",
         "stability_scan")
STAGES = ("experiment.train", "experiment.predict", "experiment.diagnose")

# Spans kept one by one (everything else is only folded into aggregates).
KEPT = set(STAGES) | {f"diagnostics.{s}" for s in SCANS} | {
    "diagnostics.calibrate_constants", "learner.plan", "learner.coverage_report",
    "shadows.write_shadows", "shadows.read_shadows", "plotting.decay_plot_svg",
    "plotting.sweep_plot_svg",
}
# Spans whose per-call durations are kept for percentiles.
TIMED_CALLS = {"learner.predict"}


class Tracer:
    """In-memory span recorder; ``installed()`` patches the layers while open."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # [name, start, child seconds, span id]
        self._next_id = 0
        self.aggregates: dict[tuple[str, str | None], list] = {}
        self.spans: list[dict] = []
        self.durations: dict[str, list[float]] = {n: [] for n in TIMED_CALLS}
        self.counters: dict[str, float] = {
            "splu_fill_nnz": 0, "ivp_nfev": 0, "predict_cell_samples": 0,
            "predict_terms": 0, "predict_fallbacks": 0, "bundle_bytes": 0,
        }

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [name, time.perf_counter(), 0.0, self._next_id]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, error: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, span_id = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        key = (name, parent[0] if parent else None)
        agg = self.aggregates.get(key)
        if agg is None:
            agg = self.aggregates[key] = [0, 0.0, 0.0, 0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        agg[3] += int(error)
        if name in KEPT:
            self.spans.append({"id": span_id, "parent": parent[3] if parent else None,
                               "name": name, "start": start, "end": end,
                               "error": error})
        if name in TIMED_CALLS:
            self.durations[name].append(dur)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` behind a span called ``name``; ``on_result`` sees each result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._exit(frame, error=True)
                raise
            self._exit(frame, error=False)
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    # -- installation -----------------------------------------------------

    def _on_splu(self, lu) -> None:
        self.counters["splu_fill_nnz"] += lu.nnz

    def _on_ivp(self, sol) -> None:
        self.counters["ivp_nfev"] += sol.nfev

    def _on_predict(self, pred) -> None:
        self.counters["predict_cell_samples"] += sum(pred.counts)
        self.counters["predict_terms"] += len(pred.counts)
        self.counters["predict_fallbacks"] += len(pred.warnings)

    def _targets(self) -> list[tuple]:
        """(span name, original function, result hook or None) per wrapped callee."""
        import scipy.sparse.linalg as spla

        from phaselearn import lindblad, models

        hooks = {"learner.predict": self._on_predict}
        out = []
        for layer in LAYERS:
            mod = importlib.import_module(f"phaselearn.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    out.append((f"{layer}.{attr}", fn, hooks.get(f"{layer}.{attr}")))
        out.append(("lindblad.solve_ivp", lindblad.solve_ivp, self._on_ivp))
        out.append(("lindblad.splu", spla.splu, self._on_splu))
        out.append(("models.site_state", models.PinningOracle.site_state, None))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Patch every lookup site of every target; restore them on exit."""
        import scipy.sparse.linalg as spla

        from phaselearn import models

        wrappers = {}
        for name, fn, hook in self._targets():
            wrappers[id(fn)] = (fn, self.wrap(name, fn, hook))
        owners = [m for n, m in sorted(sys.modules.items())
                  if n == "phaselearn" or n.startswith("phaselearn.")]
        owners += [spla, models.PinningOracle]
        patched = []
        try:
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(owner, attr, hit[1])
                        patched.append((owner, attr, value))
            yield self
        finally:
            for owner, attr, value in reversed(patched):
                setattr(owner, attr, value)

    def stage(self, name: str, fn, *args):
        """Call ``fn(*args)`` as a top-level stage span."""
        return self.wrap(name, fn)(*args)

    # -- reporting --------------------------------------------------------

    def total(self, name: str) -> tuple[int, float]:
        """(calls, inclusive seconds) of ``name`` summed over its parents."""
        calls, secs = 0, 0.0
        for (n, _), (c, t, _, _) in self.aggregates.items():
            if n == name:
                calls += c
                secs += t
        return calls, secs

    def layer_errors(self, layer: str) -> int:
        return sum(a[3] for (n, _), a in self.aggregates.items()
                   if n.startswith(layer + "."))

    def write(self, path: Path) -> None:
        doc = {
            "aggregates": [
                {"name": n, "parent": p, "calls": a[0], "total_s": a[1],
                 "self_s": a[2], "errors": a[3]}
                for (n, p), a in sorted(self.aggregates.items(),
                                        key=lambda kv: (kv[0][0], kv[0][1] or ""))
            ],
            "spans": self.spans,
            "counters": self.counters,
        }
        path.write_text(json.dumps(doc, indent=1) + "\n")


def _quantile_ms(values: list[float], q: int) -> float:
    """The q-th percentile of ``values`` in milliseconds (0 when empty)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


# (metric, unit) in report order; layer_metrics() fills every one.
PER_LAYER = [
    ("lindblad.steady_state.calls", "count"), ("lindblad.steady_state.s", "s"),
    ("lindblad.splu.calls", "count"), ("lindblad.splu.s", "s"),
    ("lindblad.splu.fill_nnz", "count"), ("lindblad.splu_per_steady_state", "ratio"),
    ("lindblad.assemble.calls", "count"), ("lindblad.assemble.s", "s"),
    ("lindblad.solve_ivp.calls", "count"), ("lindblad.solve_ivp.nfev", "count"),
    ("lindblad.solve_ivp.s", "s"), ("lindblad.evolve.s", "s"),
    ("lindblad.heisenberg_evolve.s", "s"), ("lindblad.errors", "count"),
    ("models.site_state.calls", "count"), ("models.site_state.s", "s"),
    ("models.generate_state.calls", "count"), ("models.generate_state.s", "s"),
    ("models.sample_parameters.s", "s"),
    ("shadows.measure_snapshot_product.calls", "count"),
    ("shadows.measure_snapshot_product.s", "s"),
    ("shadows.measure_snapshot.calls", "count"), ("shadows.measure_snapshot.s", "s"),
    ("shadows.write_shadows.s", "s"), ("shadows.bundle_bytes", "bytes"),
    ("shadows.read_shadows.s", "s"), ("shadows.snapshot_local_matrix.calls", "count"),
    ("learner.predict.calls", "count"), ("learner.predict.s", "s"),
    ("learner.predict.p50_ms", "ms"), ("learner.predict.p95_ms", "ms"),
    ("learner.predict.cell_samples", "count"),
    ("learner.predict.fallback_ratio", "ratio"),
    ("learner.select_cell.calls", "count"), ("learner.select_cell.s", "s"),
    ("learner.coverage_report.s", "s"), ("learner.plan.s", "s"),
    *[(f"diagnostics.{s}.s", "s") for s in SCANS],
    ("diagnostics.fit_decay.calls", "count"), ("diagnostics.fit_decay.s", "s"),
    ("diagnostics.operator_norm.s", "s"), ("diagnostics.calibrate_constants.s", "s"),
    ("plotting.svg.s", "s"),
    ("seeding.stream_seed.calls", "count"), ("seeding.stream_seed.s", "s"),
    *[(f"{s}.s", "s") for s in STAGES],
    ("experiment.self_s", "s"),
    ("trace.overhead_s", "s"), ("trace.untraced_run_s", "s"), ("trace.traced_run_s", "s"),
]


def layer_metrics(tr: Tracer, untraced_s: float, traced_s: float
                  ) -> dict[str, tuple[float, str]]:
    """Every PER_LAYER metric from one traced unit of work.

    ``untraced_s`` and ``traced_s`` are the wall seconds of the same unit of
    work run without and with tracing; their difference is the overhead.
    """
    vals: dict[str, float] = {}
    for name, unit in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind in ("calls", "s"):
            calls, secs = tr.total(base)
            vals[name] = calls if kind == "calls" else secs
    ss_calls = vals["lindblad.steady_state.calls"]
    terms = tr.counters["predict_terms"]
    vals.update({
        "lindblad.splu.fill_nnz": (tr.counters["splu_fill_nnz"] / vals["lindblad.splu.calls"]
                                   if vals["lindblad.splu.calls"] else 0.0),
        "lindblad.splu_per_steady_state": (vals["lindblad.splu.calls"] / ss_calls
                                           if ss_calls else 0.0),
        "lindblad.solve_ivp.nfev": tr.counters["ivp_nfev"],
        "lindblad.errors": tr.layer_errors("lindblad"),
        "shadows.bundle_bytes": tr.counters["bundle_bytes"],
        "learner.predict.p50_ms": _quantile_ms(tr.durations["learner.predict"], 50),
        "learner.predict.p95_ms": _quantile_ms(tr.durations["learner.predict"], 95),
        "learner.predict.cell_samples": tr.counters["predict_cell_samples"],
        "learner.predict.fallback_ratio": (tr.counters["predict_fallbacks"] / terms
                                           if terms else 0.0),
        "plotting.svg.s": (tr.total("plotting.decay_plot_svg")[1]
                           + tr.total("plotting.sweep_plot_svg")[1]),
        "experiment.self_s": sum(a[2] for (n, _), a in tr.aggregates.items()
                                 if n in STAGES),
        "trace.overhead_s": traced_s - untraced_s,
        "trace.untraced_run_s": untraced_s,
        "trace.traced_run_s": traced_s,
    })
    units = dict(PER_LAYER)
    return {name: (float(vals[name]), units[name]) for name, _ in PER_LAYER}
