"""In-memory span tracing of cubicforms, installed from outside the package.

`install` replaces each function in TRACED with a wrapper at every place the
function is bound: its defining module, every `from ... import` copy in other
cubicforms modules and the package namespace.  Calls made through any of those
names therefore open a span (name, start, end, parent).  Nothing under `src/`
is changed; `uninstall` puts the originals back.

Per-layer metrics are derived from the spans: `<name>.s` is inclusive time,
`<name>.self_s` is inclusive time minus the time of traced child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, function) pairs; the span name is "<module>.<function>" without the
# package prefix.  Listed outermost layer first.
TRACED = (
    ("cli", "main"),
    ("series", "build_all_series"),
    ("series", "verify_tables"),
    ("series", "verify_relations"),
    ("series", "verify_non_relation"),
    ("series", "verify_decompositions"),
    ("series", "verify_congruence_lemma"),
    ("series", "span_rank"),
    ("series", "euler_product_check"),
    ("series", "lambda_coefficient_identity"),
    ("latclass", "verify_indices_and_duality"),
    ("latclass", "verify_classification"),
    ("analytic", "density_report"),
    ("analytic", "verify_table1_ratios"),
    ("enumeration", "enumerate_classes"),
    ("enumeration", "brute_force_classes"),
    ("enumeration", "master_classes"),
    ("reduction", "orbit_bfs"),
    ("reduction", "stabilizer_order"),
    ("forms", "is_irreducible"),
)

# The self times of all spans must add up to the measured wall time within this
# share of it plus SUM_TOLERANCE_ABS_S (the rest is the loop between CLI calls).
SUM_TOLERANCE_REL = 0.01
SUM_TOLERANCE_ABS_S = 0.005


class Tracer:
    """Spans kept in memory as [name, start, end, parent_index] lists, plus
    counters keyed by metric name."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = {}
        self._stack: list = []

    def call(self, name: str, fn, args, kwargs):
        spans = self.spans
        stack = self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1]
        index = len(spans)
        spans.append(span)
        stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def add(self, key: str, value) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key: str, value) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)


def _count_result(tracer: Tracer, name: str, result) -> None:
    """Work counters measured on the value a layer returns."""
    if name == "enumeration.master_classes":
        # cached calls return slices of the largest master built
        tracer.maximum("enumeration.master_classes.orbits", len(result.reps))
    elif name in ("enumeration.enumerate_classes", "enumeration.brute_force_classes"):
        tracer.add(f"{name}.records", len(result))
    elif name == "reduction.orbit_bfs":
        tracer.add("reduction.orbit_bfs.forms", len(result))


def _wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        _count_result(tracer, name, result)
        return result

    traced.__traced_original__ = fn
    return traced


def _package_modules() -> list:
    return [
        m for key, m in sorted(sys.modules.items())
        if m is not None and (key == "cubicforms" or key.startswith("cubicforms."))
    ]


def install(tracer: Tracer) -> list:
    """Wrap every TRACED function at every binding site; returns the list of
    (module, attribute, original) replacements for `uninstall`."""
    for module, _ in TRACED:
        importlib.import_module(f"cubicforms.{module}")
    modules = _package_modules()
    replaced = []
    for module, func in TRACED:
        original = getattr(sys.modules[f"cubicforms.{module}"], func)
        wrapper = _wrapper(tracer, f"{module}.{func}", original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    replaced.append((mod, attr, original))
    return replaced


def uninstall(replaced: list) -> None:
    for mod, attr, original in replaced:
        setattr(mod, attr, original)


def unwrapped_bindings() -> list:
    """Sites in cubicforms modules still bound to an original TRACED function."""
    originals = {}
    for module, func in TRACED:
        value = getattr(sys.modules[f"cubicforms.{module}"], func)
        originals[id(getattr(value, "__traced_original__", value))] = f"{module}.{func}"
    return [
        f"{mod.__name__}.{attr} -> {originals[id(value)]}"
        for mod in _package_modules()
        for attr, value in vars(mod).items()
        if id(value) in originals
    ]


def self_times(spans: list) -> list:
    """Per span: duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


# Per-layer metric names, in BENCHMARK.json order; units by suffix.
LAYER_METRICS = (
    "enumeration.master_classes.self_s",
    "enumeration.master_classes.calls",
    "enumeration.master_classes.orbits",
    "enumeration.enumerate_classes.self_s",
    "enumeration.enumerate_classes.records",
    "enumeration.enumerate_classes.records_per_orbit",
    "enumeration.brute_force_classes.self_s",
    "enumeration.brute_force_classes.calls",
    "enumeration.brute_force_classes.records",
    "enumeration.brute_force_classes.records_per_bfs",
    "reduction.orbit_bfs.s",
    "reduction.orbit_bfs.calls",
    "reduction.orbit_bfs.forms",
    "reduction.stabilizer_order.s",
    "reduction.stabilizer_order.calls",
    "forms.is_irreducible.s",
    "forms.is_irreducible.calls",
    "series.build_all_series.self_s",
    "series.build_all_series.calls",
    "series.verify_relations.s",
    "series.lambda_coefficient_identity.s",
    "series.verify_decompositions.s",
    "series.verify_tables.s",
    "series.euler_product_check.s",
    "series.verify_non_relation.s",
    "series.verify_congruence_lemma.s",
    "series.span_rank.s",
    "series.span_rank.calls",
    "latclass.verify_indices_and_duality.s",
    "latclass.verify_indices_and_duality.calls",
    "latclass.verify_classification.s",
    "analytic.density_report.self_s",
    "analytic.verify_table1_ratios.s",
    "cli.main.self_s",
    "cli.output_bytes",
    "trace.overhead_s",
)


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if "_per_" in metric:
        return "ratio"
    return "count"


def layer_metrics(spans: list, counters: dict) -> dict:
    """Aggregate spans and counters into every LAYER_METRICS entry except the
    two measured outside the spans (cli.output_bytes, trace.overhead_s).
    A layer that was never called reads 0."""
    incl: dict = {}
    own: dict = {}
    calls: dict = {}
    for (name, start, end, _), self_s in zip(spans, self_times(spans)):
        incl[name] = incl.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
    stats = {}
    for name in calls:
        stats[f"{name}.s"] = incl[name]
        stats[f"{name}.self_s"] = own[name]
        stats[f"{name}.calls"] = calls[name]
    stats.update(counters)
    orbits = stats.get("enumeration.master_classes.orbits", 0)
    bfs = stats.get("reduction.orbit_bfs.calls", 0)
    stats["enumeration.enumerate_classes.records_per_orbit"] = (
        stats.get("enumeration.enumerate_classes.records", 0) / orbits if orbits else 0.0
    )
    stats["enumeration.brute_force_classes.records_per_bfs"] = (
        stats.get("enumeration.brute_force_classes.records", 0) / bfs if bfs else 0.0
    )
    return {
        m: stats.get(m, 0.0 if unit_of(m) == "s" else 0)
        for m in LAYER_METRICS
        if not m.startswith(("cli.output", "trace."))
    }

