"""In-memory span tracing of bactipot's public functions, installed from outside.

The tracer replaces each traced function at every place a caller looks its
name up (a module attribute such as ``harness.simulate_experiment``, or a
class attribute such as ``CtDataset.grouped``), records one span per call in
a plain list, and puts every original object back when the traced block
ends. Nothing under ``src/`` knows it is being traced.

A span is ``[name, start_ns, end_ns, parent, op]``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``op`` the operation id the
benchmark set before the call. High-frequency calls (the Horner evaluations
inside ``mean_total_from_mean``) are counted, never spanned, so tracing them
costs one dictionary increment each.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Iterable, Sequence

#: Functions traced with a span, as (module of definition, attribute) -> span
#: name. The span name's first component is the layer the time is charged to.
SPANNED = {
    ("bactipot.seeding", "spawn_rng"): "seeding.spawn_rng",
    ("bactipot.branching", "simulate_batch"): "branching.simulate_batch",
    ("bactipot.measurement", "simulate_experiment"): "measurement.simulate_experiment",
    ("bactipot.measurement", "read_dataset"): "measurement.read_dataset",
    ("bactipot.measurement", "write_dataset"): "measurement.write_dataset",
    ("bactipot.estimators", "estimate_offspring_mean"): "estimators.estimate_offspring_mean",
    ("bactipot.estimators", "invert_mean_total"): "estimators.invert_mean_total",
    ("bactipot.estimators", "fit_dose_response"): "estimators.fit_dose_response",
    ("bactipot.estimators", "asymptotic_covariance"): "estimators.asymptotic_covariance",
    ("bactipot.estimators", "estimate_calibration"): "estimators.estimate_calibration",
    ("bactipot.estimators", "estimate_noise_sd"): "estimators.estimate_noise_sd",
    ("bactipot.estimators", "estimate_generations"): "estimators.estimate_generations",
    ("bactipot.harness", "run_mc_study"): "harness.run_mc_study",
    ("bactipot.harness", "fit_dataset"): "harness.fit_dataset",
}

#: Methods traced with a span, as (module, class, method) -> span name.
SPANNED_METHODS = {
    ("bactipot.measurement", "CtDataset", "grouped"): "measurement.grouped",
}

#: Functions counted per call, never spanned.
COUNTED = {
    ("bactipot.branching", "mean_total_from_mean"): "branching.horner_evals",
}

#: Every module whose namespace is searched for lookup sites of the above.
SITE_MODULES = (
    "bactipot",
    "bactipot.seeding",
    "bactipot.branching",
    "bactipot.measurement",
    "bactipot.estimators",
    "bactipot.harness",
    "bactipot.cli",
)

LAYERS = ("seeding", "branching", "measurement", "estimators", "harness", "cli")

_INVERSION = "estimators.invert_mean_total"
_NUISANCE = (
    "estimators.estimate_calibration",
    "estimators.estimate_noise_sd",
    "estimators.estimate_generations",
)


class Tracer:
    """Span and count recorder; ``install`` swaps the wrappers in and out."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        #: (namespace, attribute, original) for every lookup site replaced now.
        self.sites: list[tuple[object, str, object]] = []
        #: The same triples once put back, kept so tests can check them.
        self.restored: list[tuple[object, str, object]] = []

    def spanned(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """Wrap ``fn`` so each call records a span; ``observe`` sees the result."""
        spans, stack, counts = self.spans, self._stack, self.counts
        failed = name + ".failed"

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0, 0, stack[-1] if stack else -1, self.op]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[failed] += 1
                raise
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call only increments ``name`` (and, inside an
        inversion span, the bisection-evaluation count)."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if stack and spans[stack[-1]][0] == _INVERSION:
                counts["estimators.bisection_evals"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def streamed(self, counter: str, position: int, inner: Callable) -> Callable:
        """Wrap ``inner`` so the characters it moves through the text stream
        passed as positional argument ``position`` add to ``counter``. The
        stream position is read outside the span, so it costs the span
        nothing."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            stream = args[position] if len(args) > position else None
            start = stream.tell() if hasattr(stream, "tell") else None
            result = inner(*args, **kwargs)
            if start is not None:
                counts[counter] += stream.tell() - start
            return result

        wrapper.__wrapped__ = inner.__wrapped__
        return wrapper

    @contextmanager
    def install(self, extra: Iterable[tuple[object, str, str]] = ()):
        """Swap wrappers in at every lookup site, and restore them on exit.

        ``extra`` names benchmark-side functions to span, as
        ``(namespace, attribute, span name)``.
        """
        modules = [importlib.import_module(name) for name in SITE_MODULES]
        replacements: dict[int, Callable] = {}
        for (home, attr), name in SPANNED.items():
            original = getattr(importlib.import_module(home), attr)
            wrapper = self.spanned(name, original, _OBSERVERS.get(name))
            if name in _STREAM_BYTES:
                wrapper = self.streamed(*_STREAM_BYTES[name], wrapper)
            replacements[id(original)] = wrapper
        for (home, attr), name in COUNTED.items():
            original = getattr(importlib.import_module(home), attr)
            replacements[id(original)] = self.counted(name, original)
        try:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    wrapper = replacements.get(id(value))
                    if wrapper is not None:
                        self._replace(module, attr, value, wrapper)
            for (home, cls_name, attr), name in SPANNED_METHODS.items():
                cls = getattr(importlib.import_module(home), cls_name)
                original = vars(cls)[attr]
                self._replace(cls, attr, original, self.spanned(name, original))
            for namespace, attr, name in extra:
                original = getattr(namespace, attr)
                self._replace(namespace, attr, original, self.spanned(name, original))
            yield self
        finally:
            self.restore()

    def _replace(self, namespace, attr: str, original, wrapper) -> None:
        self.sites.append((namespace, attr, original))
        setattr(namespace, attr, wrapper)

    def restore(self) -> None:
        """Put every original object back, newest replacement first."""
        while self.sites:
            namespace, attr, original = site = self.sites.pop()
            setattr(namespace, attr, original)
            self.restored.append(site)

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )


def _observe_batch(counts, args, kwargs, result) -> None:
    # simulate_batch(x0, dist, n_generations, replicates, rng)
    n_generations = kwargs.get("n_generations", args[2] if len(args) > 2 else None)
    replicates = kwargs.get("replicates", args[3] if len(args) > 3 else None)
    counts["branching.wells"] += replicates
    counts["branching.generation_steps"] += n_generations


def _observe_fit(counts, args, kwargs, result) -> None:
    estimates = kwargs.get("estimates", args[0] if args else ())
    counts["estimators.lanes_offered"] += len(estimates)
    counts["estimators.lanes_used"] += len(result.used_concentrations)


def _observe_estimate(counts, args, kwargs, result) -> None:
    counts["estimators.clamped"] += bool(result.clamped)


def _observe_read(counts, args, kwargs, result) -> None:
    counts["measurement.rows_read"] += len(result)


# span name -> (byte counter, positional index of the text stream argument)
_STREAM_BYTES = {
    "measurement.read_dataset": ("measurement.bytes_read", 0),
    "measurement.write_dataset": ("measurement.bytes_written", 1),
}

_OBSERVERS = {
    "branching.simulate_batch": _observe_batch,
    "estimators.fit_dose_response": _observe_fit,
    "estimators.estimate_offspring_mean": _observe_estimate,
    "measurement.read_dataset": _observe_read,
}


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def covered_ns(start: int, end: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals if e > start and s < end)
    total = 0
    cursor = start
    for s, e in clipped:
        s = max(s, cursor)
        if e > s:
            total += e - s
            cursor = e
    return total


def self_times_ns(spans: Sequence[Sequence]) -> list[int]:
    """Per span: its duration minus the time its direct children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered_ns(start, end, children.get(index, ()))
        for index, (_, start, end, _, _) in enumerate(spans)
    ]


def summarize(spans: Sequence[Sequence], counts: Counter) -> dict[str, float]:
    """Per-layer metrics from one traced pass; every name is always present."""
    selves = self_times_ns(spans)
    calls: Counter = Counter()
    total_ns: Counter = Counter()
    self_ns: Counter = Counter()
    for (name, start, end, _, _), own in zip(spans, selves):
        calls[name] += 1
        total_ns[name] += end - start
        self_ns[name] += own

    def ms(ns: int) -> float:
        return ns / 1e6

    def ratio(numerator: float, base: float) -> float:
        return numerator / base if base else 0.0

    m: dict[str, float] = {}
    for name in (
        "seeding.spawn_rng",
        "branching.simulate_batch",
        "measurement.write_dataset",
        "measurement.read_dataset",
        "measurement.grouped",
        "estimators.estimate_offspring_mean",
        "estimators.invert_mean_total",
        "estimators.fit_dose_response",
        "estimators.asymptotic_covariance",
    ):
        m[name + ".calls"] = calls[name]
        m[name + ".ms"] = ms(total_ns[name])
    m["estimators.fit_dose_response.failed"] = counts["estimators.fit_dose_response.failed"]
    m["branching.wells"] = counts["branching.wells"]
    m["branching.generation_steps"] = counts["branching.generation_steps"]
    m["branching.horner_evals"] = counts["branching.horner_evals"]
    m["measurement.simulate_experiment.calls"] = calls["measurement.simulate_experiment"]
    m["measurement.simulate_experiment.self_ms"] = ms(self_ns["measurement.simulate_experiment"])
    m["measurement.bytes_written"] = counts["measurement.bytes_written"]
    m["measurement.rows_read"] = counts["measurement.rows_read"]
    m["measurement.bytes_read"] = counts["measurement.bytes_read"]
    m["estimators.bisection_evals_per_inversion"] = ratio(
        counts["estimators.bisection_evals"], calls[_INVERSION]
    )
    m["estimators.nuisance.ms"] = ms(sum(total_ns[name] for name in _NUISANCE))
    m["estimators.lanes_offered"] = counts["estimators.lanes_offered"]
    m["estimators.lanes_used_ratio"] = ratio(
        counts["estimators.lanes_used"], counts["estimators.lanes_offered"]
    )
    m["estimators.clamped_ratio"] = ratio(
        counts["estimators.clamped"], calls["estimators.estimate_offspring_mean"]
    )
    for name in ("harness.run_mc_study", "harness.fit_dataset"):
        m[name + ".calls"] = calls[name]
        m[name + ".self_ms"] = ms(self_ns[name])
    m["cli.serialize_ms"] = ms(total_ns["cli.serialize"])
    for layer in LAYERS:
        m[layer + ".self_ms"] = ms(
            sum(ns for name, ns in self_ns.items() if name.split(".", 1)[0] == layer)
        )
    m["trace.spans"] = len(spans)
    return m
