"""Tests of the benchmark's own machinery: span arithmetic, wrapper
restoration, and the purity of the workload generators.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import importlib
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT / "bench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import bactipot  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent, op=0):
    return [name, start, end, parent, op]


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        span("harness.fit_dataset", 0, 100, -1),
        span("estimators.invert_mean_total", 10, 30, 0),
        # overlaps the first child: the covered time is the union 10..50
        span("estimators.fit_dose_response", 20, 50, 0),
        # a grandchild is charged to its own parent, not to the root
        span("measurement.grouped", 12, 18, 1),
        # a child that runs past its parent is clipped to the parent
        span("seeding.spawn_rng", 90, 120, 0),
    ]
    assert tracing.self_times_ns(spans) == [100 - 40 - 10, 20 - 6, 30, 6, 30]
    assert tracing.covered_ns(0, 10, [(2, 4), (3, 6), (8, 20)]) == 4 + 2
    assert tracing.covered_ns(0, 10, []) == 0


def test_summary_charges_self_time_to_layers():
    spans = [
        span("measurement.simulate_experiment", 0, 1_000_000, -1),
        span("branching.simulate_batch", 100_000, 700_000, 0),
    ]
    counts = Counter({"branching.wells": 3, "branching.generation_steps": 10})
    m = tracing.summarize(spans, counts)
    assert m["measurement.simulate_experiment.self_ms"] == 0.4
    assert m["branching.simulate_batch.ms"] == 0.6
    assert m["measurement.self_ms"] == 0.4
    assert m["branching.self_ms"] == 0.6
    assert m["branching.wells"] == 3
    assert m["estimators.lanes_used_ratio"] == 0.0


def test_every_per_layer_metric_is_computed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    from_run = {"trace.ops", "trace.overhead_ms", "cli.import_ms"}
    computed = set(tracing.summarize([], Counter())) | from_run
    assert {m["name"] for m in spec["per_layer"]} == computed


def _snapshot():
    modules = [importlib.import_module(name) for name in tracing.SITE_MODULES]
    namespaces = modules + [bactipot.CtDataset, workloads]
    return {(id(ns), attr): value for ns in namespaces for attr, value in vars(ns).items()}


def test_traced_run_restores_every_original():
    before = _snapshot()
    original_batch = bactipot.measurement.simulate_batch
    tracer = tracing.Tracer()
    pool = workloads.build_pool(3, 2)
    with tracer.install([(workloads, "serialize_fit", "cli.serialize")]):
        assert bactipot.measurement.simulate_batch is not original_batch
        for i, (spec, text) in enumerate(pool):
            tracer.op = i
            workloads.synth_plate(spec)
            workloads.fit_plate(text, workloads.pipeline_of(spec))
        bactipot.run_mc_study(workloads.mc_config(5, repetitions=4))
    assert tracer.sites == []
    assert tracer.restored, "nothing was wrapped"
    for namespace, attr, original in tracer.restored:
        assert vars(namespace)[attr] is original, attr
    assert _snapshot() == before
    names = {s[0] for s in tracer.spans}
    assert {"branching.simulate_batch", "measurement.grouped", "cli.serialize"} <= names
    assert tracer.counts["branching.horner_evals"] > 0


def test_workload_generators_are_pure_functions_of_the_seed():
    assert [workloads.plate_spec(7, i) for i in range(6)] == [
        workloads.plate_spec(7, i) for i in range(6)
    ]
    first = workloads.build_pool(7, 4)
    assert workloads.build_pool(7, 4) == first
    assert [text for _, text in workloads.build_pool(8, 4)] != [text for _, text in first]
    assert workloads.mc_config(workloads.mc_study_seed(7, 2)) == workloads.mc_config(
        workloads.mc_study_seed(7, 2)
    )
    assert workloads.mc_study_seed(7, 2) != workloads.mc_study_seed(8, 2)


def test_plates_alternate_between_the_lane_policies():
    specs = [workloads.plate_spec(1, i) for i in range(4)]
    assert [s.auto_band for s in specs] == [True, False, True, False]
    assert {(s.alpha, s.beta) for s in specs[1::2]} == {(9.1, 1.12), (71.8, 2.46)}


def test_windows_are_whole_spans_of_operation_time():
    import run

    second = 10**9
    # windows: [0.5 s, 0.5 s] -> 2/s, [0.25 s x 4] -> 4/s, [1 s] -> 1/s; the
    # trailing partial window is dropped
    latencies = [second // 2] * 2 + [second // 4] * 4 + [second] + [second // 10]
    assert run.op_windows(latencies, second) == [(2.0, second // 2), (4.0, second // 4), (1.0, second)]
    # a run shorter than one window is one window
    assert run.op_windows([second // 10] * 3, second) == [(10.0, second // 10)]


def test_op_metrics_take_the_fastest_window_or_the_median_study():
    import run

    ms = 10**6
    # plate-like: 2 ms operations, then a spell at 1 ms; 100 ms windows
    plates = [2 * ms] * 200 + [1 * ms] * 100 + [2 * ms] * 100
    assert run.op_metrics(plates) == (1.0, 1000.0)
    # study-like: every operation fills a window of its own
    studies = [900 * ms, 1300 * ms, 1200 * ms, 800 * ms, 1250 * ms]
    p50, rate = run.op_metrics(studies)
    assert p50 == 1200.0
    assert abs(rate - 1 / 1.2) < 1e-12

