"""In-process layer trace for the rangesim benchmark.

`Tracer.install()` replaces public functions of the `rangesim` modules at
the names their callers look up (for example `rangesim.harness.
metrics_snapshot`, which `MetricsCollector` calls) with wrappers that
record a span per call. Spans nest through a stack: a span's self time is
its duration minus the time its child spans cover. Counts are taken at
the same boundaries. Everything stays in memory; `layer_metrics()`
turns it into the benchmark's per-layer figures.

A name that a later version of rangesim no longer defines is skipped and
listed in `Tracer.missing`; the metrics it fed then read 0.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter_ns

DIFFUSION_PROCESSES = ("si", "complex", "cultural", "potion")


def _rows(tracer, args, kwargs, result):
    tracer.counts["harness.csv_rows"] += int(result)


def _distance_ops(snap) -> int:
    # One distance evaluation runs only when a pair can be connected.
    return snap.n ** 3 if snap.n >= 2 and snap.edge_count > 0 else 0


def _add_distance_ops(tracer, args, kwargs, result):
    tracer.counts["metrics.distance_ops"] += _distance_ops(args[0])


def _small_world_defined(tracer, args, kwargs, result):
    tracer.counts["metrics.small_world_defined"] += result is not None


def _combine_product(tracer, args, kwargs, result):
    tracer.counts["diffusion.combine_products"] += result is not None


# (module, attribute, span name, hook run on the result)
TARGETS = (
    ("rangesim.cli", "main", "cli.main", None),
    ("rangesim.cli", "write_csv", "harness.csv", _rows),
    ("rangesim.cli", "write_timeseries_csv", "harness.csv", _rows),
    ("rangesim.cli", "write_trajectories_csv", "harness.csv", _rows),
    ("rangesim.cli", "run_diffusion_rounds", "harness.diffusion_rounds", None),
    ("rangesim.harness", "run_round", "harness.round", None),
    ("rangesim.harness", "aggregate_rounds", "harness.aggregate", None),
    ("rangesim.harness", "metrics_snapshot", "metrics.snapshot", _add_distance_ops),
    ("rangesim.metrics", "small_world_index", "metrics.small_world", _small_world_defined),
    ("rangesim.metrics", "average_shortest_path_length", "metrics.aspl", _add_distance_ops),
    ("rangesim.metrics", "average_clustering", "metrics.clustering", None),
    ("rangesim.metrics", "sample_gnm", "metrics.sampling", None),
    ("rangesim.range_model", "init_population", "core.init_population", None),
    ("rangesim.range_model", "step_range", "range_model.step", None),
    ("rangesim.range_model", "range_links", "range_model.link", None),
    ("rangesim.null_model", "step_null", "null_model.step", None),
    ("rangesim.diffusion", "si_step", "diffusion.si.step", None),
    ("rangesim.diffusion", "complex_contagion_step", "diffusion.complex.step", None),
    ("rangesim.diffusion", "cultural_step", "diffusion.cultural.step", None),
    ("rangesim.diffusion", "potion_step", "diffusion.potion.step", None),
    ("rangesim.diffusion", "try_combine", "diffusion.combine", _combine_product),
)

# `iter_sweep` is a generator: its work runs while `write_csv` pulls rows,
# so each pull is its own span nested in the CSV span.
GENERATOR_TARGETS = (
    ("rangesim.cli", "iter_sweep", "harness.sweep"),
)

# Per-layer metric name -> (unit, how it is read from the trace).
# "total"/"self"/"calls" read a span; "count" reads a counter.
LAYER_METRICS = {
    "metrics.aspl_s": ("s", "total", "metrics.aspl"),
    "metrics.aspl_calls": ("count", "calls", "metrics.aspl"),
    "metrics.distance_ops": ("ops", "count", "metrics.distance_ops"),
    "metrics.snapshot_self_s": ("s", "self", "metrics.snapshot"),
    "metrics.snapshot_calls": ("count", "calls", "metrics.snapshot"),
    "metrics.sampling_s": ("s", "total", "metrics.sampling"),
    "metrics.reference_graphs": ("count", "calls", "metrics.sampling"),
    "metrics.clustering_s": ("s", "total", "metrics.clustering"),
    "metrics.clustering_calls": ("count", "calls", "metrics.clustering"),
    "metrics.small_world_s": ("s", "total", "metrics.small_world"),
    "metrics.small_world_calls": ("count", "calls", "metrics.small_world"),
    "metrics.small_world_defined": ("count", "count", "metrics.small_world_defined"),
    "range_model.move_self_s": ("s", "self", "range_model.step"),
    "range_model.link_s": ("s", "total", "range_model.link"),
    "range_model.steps": ("count", "calls", "range_model.step"),
    "null_model.step_s": ("s", "total", "null_model.step"),
    "null_model.steps": ("count", "calls", "null_model.step"),
    **{f"diffusion.{p}.{suffix}": (unit, kind, f"diffusion.{p}.step")
       for p in DIFFUSION_PROCESSES
       for suffix, unit, kind in (("step_s", "s", "total"), ("steps", "count", "calls"))},
    "diffusion.combine_calls": ("count", "calls", "diffusion.combine"),
    "diffusion.combine_products": ("count", "count", "diffusion.combine_products"),
    "core.init_population_s": ("s", "total", "core.init_population"),
    "core.init_population_calls": ("count", "calls", "core.init_population"),
    "harness.round_s": ("s", "total", "harness.round"),
    "harness.rounds": ("count", "calls", "harness.round"),
    "harness.aggregate_s": ("s", "total", "harness.aggregate"),
    "harness.aggregate_calls": ("count", "calls", "harness.aggregate"),
    "harness.csv_self_s": ("s", "self", "harness.csv"),
    "harness.csv_rows": ("count", "count", "harness.csv_rows"),
    "cli.self_s": ("s", "self", "cli.main"),
    "cli.commands": ("count", "calls", "cli.main"),
}

# Useful-work ratios: name -> (numerator metric, denominator metric).
RATIOS = {
    "metrics.small_world_defined_ratio": ("metrics.small_world_defined",
                                          "metrics.small_world_calls"),
    "diffusion.combine_success_ratio": ("diffusion.combine_products",
                                        "diffusion.combine_calls"),
}


class Tracer:
    """Span and count accumulators for one traced pass."""

    def __init__(self):
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # (parent span, child span) -> calls; the root parent is "".
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> list:
        frame = [name, 0, perf_counter_ns()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        elapsed = perf_counter_ns() - frame[2]
        self._stack.pop()
        name = frame[0]
        self.total_ns[name] += elapsed
        self.self_ns[name] += elapsed - frame[1]
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        self.edges[(parent[0] if parent else "", name)] += 1
        if parent is not None:
            parent[1] += elapsed

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return traced

    def _wrap_generator(self, name, fn):
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def pulls():
                while True:
                    frame = self._enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit(frame)
                    yield item
            return pulls()
        return traced

    def _patch(self, module_name, attr, make):
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self) -> None:
        for module_name, attr, name, hook in TARGETS:
            self._patch(module_name, attr, lambda fn, n=name, h=hook: self._wrap(n, fn, h))
        for module_name, attr, name in GENERATOR_TARGETS:
            self._patch(module_name, attr, lambda fn, n=name: self._wrap_generator(n, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures by name, as (value, unit)."""
        out = {}
        for metric, (unit, kind, key) in LAYER_METRICS.items():
            if kind == "total":
                out[metric] = (self.total_ns[key] / 1e9, unit)
            elif kind == "self":
                out[metric] = (self.self_ns[key] / 1e9, unit)
            elif kind == "calls":
                out[metric] = (self.calls[key], unit)
            else:
                out[metric] = (self.counts[key], unit)
        for metric, (num, den) in RATIOS.items():
            base = out[den][0]
            out[metric] = (out[num][0] / base if base else 0.0, "ratio")
        return out
