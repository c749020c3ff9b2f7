"""Benchmark of bactipot: end-to-end timings per workload, or a traced run
with per-layer metrics.

Run from the repository root::

    python3 bench/run.py --workload plate-fit --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced for ``--seconds`` seconds and
prints the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs a
fixed amount of the same work once untraced and twice traced and prints the
per-layer metrics. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record (the
environment, host-speed probe, gates and tail latency) goes to ``bench/out/``.
See ``bench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

#: Set-ups per untraced run: one before the timed loop, the rest spread
#: evenly over it.
SETUPS = 5
#: Fresh interpreters timed for ``cli.import_ms``.
IMPORTS = 5
WORKLOAD_NAMES = ("mc-study", "plate-fit", "plate-synth")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bactipot" / "__init__.py").is_file():
        print(f"bench: no bactipot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    probe_start = host_probe_s()
    # byte-compile first so no run pays for compilation inside set-up
    compileall.compile_dir(str(ROOT / "src" / "bactipot"), quiet=1)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        record = traced_run(workload, spec["per_layer"])
    else:
        record = timed_run(workload, args.seconds, spec["end_to_end"])
    record["environment"] = environment(args)
    record["environment"]["probe_start_ms"] = probe_start * 1e3
    record["environment"]["probe_end_ms"] = host_probe_s() * 1e3

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if "tracer" in record:
        record.pop("tracer").write(OUT / f"spans-{stem}.jsonl")
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print_summary(args, record)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def timed_run(workload, seconds: float, metric_specs: list[dict]) -> dict:
    import bactipot

    setups = [timed_setup(workload)]
    latencies: list[int] = []
    cli_seconds: list[float] = []
    failed = attempted = 0
    begin = time.perf_counter()
    deadline = begin + seconds
    # the cold CLI runs and the other set-ups, spread evenly over the loop and
    # kept out of the operation timings, so that their medians cover the
    # whole run rather than its first seconds
    events = sorted(
        [(begin + seconds * (k + 0.5) / workload.cli_runs, "cli") for k in range(workload.cli_runs)]
        + [(begin + seconds * k / SETUPS, "setup") for k in range(1, SETUPS)]
    )

    def run_event(kind: str, i: int, out) -> None:
        nonlocal attempted, failed
        if kind == "setup":
            setups.append(timed_setup(workload))
            return
        attempted += 1
        took, ok = workload.cli(i, out)
        cli_seconds.append(took)
        failed += not ok

    i, out = 0, None
    while i == 0 or time.perf_counter() < deadline:
        attempted += 1
        t0 = time.perf_counter_ns()
        try:
            out = workload.op(i)
        except bactipot.BactipotError:
            failed += 1
            out = None
        else:
            latencies.append(time.perf_counter_ns() - t0)
            failed += not workload.check(i, out)
        while events and out is not None and time.perf_counter() >= events[0][0]:
            run_event(events.pop(0)[1], i, out)
        i += 1
    if out is not None:
        for _, kind in events:
            run_event(kind, i - 1, out)

    gates = workload.finish()
    failed += sum(not passed for passed in gates.values())
    op_p50_ms, ops_per_s = op_metrics(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": op_p50_ms,
        "ops_per_s": ops_per_s,
        "cli_ms": statistics.median(cli_seconds) * 1e3,
    }
    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs},
        "samples": {"ops": len(latencies), "cli": len(cli_seconds), "setups": len(setups)},
        "whole_run_op_p50_ms": statistics.median(latencies) / 1e6,
        "tail": tail_ms(latencies),
        "gates": gates,
        "setup_samples_s": setups,
        "cli_samples_ms": [s * 1e3 for s in cli_seconds],
        "window_p50_ms": [p50 / 1e6 for _, p50 in op_windows(latencies)],
    }
    if hasattr(workload, "coverage"):
        record["auto_band_coverage"] = list(workload.coverage())
    return record


def timed_setup(workload) -> float:
    """Seconds of one set-up: the import of ``bactipot.cli`` in a fresh
    interpreter plus the workload's own set-up in process."""
    import workloads

    start = time.perf_counter()
    workload.setup()
    return workloads.fresh_import_s() + time.perf_counter() - start


def op_metrics(latencies_ns: list[int]) -> tuple[float, float]:
    """``op_p50_ms`` and ``ops_per_s`` of a run.

    The host switches, for seconds to minutes at a time, between two speeds
    about 1.6x apart, and every timing moves with it. A plate operation lasts
    milliseconds, so a window of them fits inside one spell of either speed:
    the run reports its fastest window, which reads the faster speed whenever
    the run catches it, where a whole-run median reads whatever mix of speeds
    the run fell in. A study lasts about as long as a spell and so averages
    over the speeds itself; when each window is one operation, the run
    reports the median window.
    """
    windows = op_windows(latencies_ns)
    p50s = [p50 / 1e6 for _, p50 in windows]
    rates = [rate for rate, _ in windows]
    if len(windows) < len(latencies_ns):
        return min(p50s), max(rates)
    return statistics.median(p50s), statistics.median(rates)


#: Operation time per window of ``op_p50_ms`` and ``ops_per_s``: short, so
#: a brief spell of the faster host state fills a window, yet tens of plate
#: operations long.
WINDOW_NS = 100_000_000


def op_windows(latencies_ns: list[int], window_ns: int = WINDOW_NS) -> list[tuple[float, int]]:
    """Cut the operations, in order, into consecutive windows of at least
    ``window_ns`` of operation time, and give each window's (operations per
    second, median latency in ns). Whole windows only, unless the run is
    shorter than one window; a window holds at least one operation, so on
    mc-study each window is one study."""
    windows = []
    start = busy = 0
    for end, latency in enumerate(latencies_ns, 1):
        busy += latency
        if busy >= window_ns:
            windows.append(((end - start) / (busy / 1e9), statistics.median(latencies_ns[start:end])))
            start, busy = end, 0
    if not windows:
        windows.append((len(latencies_ns) / (busy / 1e9), statistics.median(latencies_ns)))
    return windows


def tail_ms(latencies_ns: list[int]) -> dict | None:
    """The highest of p99.9/p99/p95/p90 with at least ten samples beyond it."""
    ordered = sorted(latencies_ns)
    n = len(ordered)
    for q in (99.9, 99.0, 95.0, 90.0):
        if n * (100.0 - q) / 100.0 >= 10:
            return {"percentile": q, "ms": ordered[math.ceil(n * q / 100.0) - 1] / 1e6, "n": n}
    return None


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------


def traced_run(workload, metric_specs: list[dict]) -> dict:
    import tracing
    import workloads

    workload.setup()
    import_ms = statistics.median(workloads.fresh_import_s() for _ in range(IMPORTS)) * 1e3

    base_ns, base_out = _pass(workload, None)
    gates = {"untraced_outputs_correct": all(workload.check(i, o) for i, o in enumerate(base_out))}
    gates.update(workload.finish())
    reference = [workload.fingerprint(o) for o in base_out]

    passes = []
    identical = restored = True
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer.install(workload.trace_extra()):
            latencies, outs = _pass(workload, tracer)
        passes.append((tracer, latencies, outs))
        identical &= [workload.fingerprint(o) for o in outs] == reference
        restored &= all(vars(ns)[attr] is original for ns, attr, original in tracer.restored)
    gates["traced_outputs_identical"] = identical
    gates["originals_restored"] = restored

    tracer, latencies, _ = passes[0]
    computed = tracing.summarize(tracer.spans, tracer.counts)
    computed["trace.ops"] = workload.trace_ops
    computed["trace.overhead_ms"] = (statistics.median(latencies) - statistics.median(base_ns)) / 1e6
    computed["cli.import_ms"] = import_ms
    again = tracing.summarize(passes[1][0].spans, passes[1][0].counts)
    again["trace.ops"] = workload.trace_ops
    counts = [m["name"] for m in metric_specs if m["unit"] in ("count", "ratio")]
    gates["counts_repeat_exactly"] = all(computed[name] == again[name] for name in counts)

    failed = sum(not passed for passed in gates.values())
    return {
        "correct": failed == 0,
        "attempted": 3 * workload.trace_ops,
        "failed": failed,
        "metrics": {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in metric_specs},
        "gates": gates,
        "untraced_op_p50_ms": statistics.median(base_ns) / 1e6,
        "traced_op_p50_ms": statistics.median(latencies) / 1e6,
        "tracer": tracer,
    }


def _pass(workload, tracer) -> tuple[list[int], list]:
    latencies, outs = [], []
    for i in range(workload.trace_ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter_ns()
        out = workload.op(i)
        latencies.append(time.perf_counter_ns() - t0)
        outs.append(out)
    return latencies, outs


# ---------------------------------------------------------------------------
# environment, host probe, reporting
# ---------------------------------------------------------------------------


def host_probe_s() -> float:
    """Median of three timings of a fixed pure-Python loop. A diagnostic of
    host speed only: no metric is ever rescaled by it."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for k in range(200_000):
            acc = (acc * 31 + k) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
    }


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def print_summary(args, record: dict) -> None:
    env = record["environment"]
    print(
        f"bench: {args.workload} seed={args.seed} trace={args.trace} nproc={env['nproc']} "
        f"python={env['python']} numpy={env['numpy']} git={env['git_sha']} "
        f"probe={env['probe_start_ms']:.1f}->{env['probe_end_ms']:.1f} ms"
    )
    for name, metric in record["metrics"].items():
        print(f"bench:   {name} = {metric['value']:.6g} {metric['unit']}")
    if record.get("tail"):
        tail = record["tail"]
        print(f"bench:   p{tail['percentile']:g}_ms = {tail['ms']:.6g} ms (n={tail['n']})")
    print(
        f"bench:   failed_frac = {record['failed']}/{record['attempted']}"
        f" = {record['failed'] / record['attempted']:.6g}"
    )
    for gate, passed in record["gates"].items():
        print(f"bench:   gate {gate}: {'pass' if passed else 'FAIL'}")


def run_all(args) -> int:
    """Each workload in its own interpreter, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"bench: {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}:{metric}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
