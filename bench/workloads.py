"""The three bench workloads: inputs from the seed, one timed operation each,
and the checks every output must pass.

Every workload is a closed loop with a single caller: the next operation
starts when the previous one has returned. The program only ever sees the
generated inputs; the seed itself never reaches it except as the seed of a
study or plate, exactly as a user would pass one.

- ``mc-study``: one 1000-repetition ``run_mc_study`` on the acceptance
  suite's N=10 design. About 80% of its time is the ``branching`` kernel,
  called with many wells per call.
- ``plate-fit``: the biologist's path, ``bactipot fit`` on a 12-lane plate
  held in memory as CSV text. No simulation at all; inversion dominates.
- ``plate-synth``: ``simulate_experiment`` and ``write_dataset`` on the same
  plate shape, so the kernel runs with 3 wells per call and per-call overhead
  dominates. No estimator calls.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import bactipot
from bactipot import GrowthParams, McStudyConfig, MeasurementConfig, PipelineConfig

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# -- plate shape, shared by plate-fit and plate-synth ------------------------

#: The acceptance suite's 12-lane two-fold dilution ladder, 2^-7 .. 16.
LADDER = tuple(2.0**k for k in range(-7, 5))
#: Untreated control lane, below the ladder.
SENTINEL = 2.0**-8
PLATE = MeasurementConfig(a=20.0, sigma_eps=0.2, x0=10_000, n_generations=10, replicates=3)

#: Lane policies of the acceptance suite: the auto band of
#: ``test_end_to_end_interval_coverage`` and the explicit lanes of its
#: ``RECOVERY_SCENARIOS``, as (alpha, beta, high_c, low_c, fit lanes).
AUTO_BAND = (10.0, 1.0, 2.0, 2.0**-7, None)
RECOVERY = (
    (9.1, 1.12, 1.0, SENTINEL, (2.0**-5, 2.0**-4, 2.0**-2, 2.0**-1)),
    (71.8, 2.46, 1.0, SENTINEL, (2.0**-4, 2.0**-3, 2.0**-2)),
)

#: Plates in the plate-fit pool, built once per set-up.
POOL_SIZE = 200

# -- mc-study ----------------------------------------------------------------

MC_GRID = (2.0**-6, 2.0**-4, 2.0**-2)
MC_MEASUREMENT = MeasurementConfig(a=0.0, sigma_eps=0.2, x0=10_000, n_generations=10, replicates=10)
MC_REPETITIONS = 1000
#: The acceptance suite's frozen N=10 row: mean alpha, beta and MIC.
MC_REFERENCE = (10.106, 1.002, 0.1)
#: Worker count of the CLI study, the CLI default on a 2-CPU host.
MC_CLI_WORKERS = 2


@dataclass(frozen=True)
class PlateSpec:
    """Inputs of one plate: truth, lane policy and its random stream key."""

    alpha: float
    beta: float
    high_c: float
    low_c: float
    fit_c: tuple[float, ...] | None
    seed: int
    index: int

    @property
    def auto_band(self) -> bool:
        return self.fit_c is None


def plate_spec(seed: int, index: int) -> PlateSpec:
    """Plate ``index`` of a run: even plates use the auto band, odd plates
    alternate between the two explicit-lane recovery scenarios."""
    policy = AUTO_BAND if index % 2 == 0 else RECOVERY[(index // 2) % 2]
    return PlateSpec(*policy, seed=seed, index=index)


def mc_study_seed(seed: int, index: int) -> int:
    """Master seed of study ``index``; studies run back to back."""
    return seed * 1000 + index


def mc_config(study_seed: int, repetitions: int = MC_REPETITIONS) -> McStudyConfig:
    return McStudyConfig(
        params=GrowthParams(10.0, 1.0),
        grid=MC_GRID,
        measurement=MC_MEASUREMENT,
        n_measurements=repetitions,
        seed=study_seed,
    )


def pipeline_of(spec: PlateSpec) -> PipelineConfig:
    return PipelineConfig(
        high_c_threshold=spec.high_c,
        low_c_choice=spec.low_c,
        x0=PLATE.x0,
        fit_concentrations=spec.fit_c,
    )


# -- the timed operations ----------------------------------------------------
# Each looks bactipot's functions up at call time, so the tracer's wrappers
# are seen without the operation knowing about them.


def synth_plate(spec: PlateSpec):
    """Synthesize one plate and write it as CSV text: (dataset, text)."""
    rng = bactipot.spawn_rng(spec.seed, spec.index)
    dataset = bactipot.simulate_experiment(
        GrowthParams(spec.alpha, spec.beta), LADDER, PLATE, rng, untreated_lane=SENTINEL
    )
    sink = io.StringIO()
    bactipot.write_dataset(dataset, sink)
    return dataset, sink.getvalue()


def fit_plate(text: str, pipeline: PipelineConfig):
    """``bactipot fit`` in process: (fit, the JSON text the CLI would print)."""
    dataset = bactipot.read_dataset(io.StringIO(text))
    result = bactipot.fit_dataset(dataset, pipeline)
    return result, serialize_fit(result)


def serialize_fit(result) -> str:
    """Stdout of ``bactipot fit --no-timestamp`` for this result."""
    return json.dumps({"meta": {"command": "fit"}, **result.to_dict()}, indent=2) + "\n"


# -- cold CLI runs -----------------------------------------------------------


def cli_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_cli(args: list[str], stdin: str | None = None) -> tuple[float, str | None]:
    """Run ``bactipot`` in a fresh interpreter: (wall seconds, stdout), with
    None for the stdout of a run that exited with an error."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bactipot.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=cli_env(),
        cwd=ROOT,
        timeout=150,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        print(f"bench: bactipot {args[0]} exited {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
        return elapsed, None
    return elapsed, proc.stdout


def fresh_import_s() -> float:
    """Seconds to import ``bactipot.cli`` in a fresh interpreter, timed inside it."""
    code = (
        "import time\nstart = time.perf_counter()\n"
        "import bactipot.cli\nprint(time.perf_counter() - start)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=cli_env(),
        cwd=ROOT,
        timeout=60,
        check=True,
    )
    return float(proc.stdout)


def _num(value: float) -> str:
    return repr(float(value))


def _grid(values) -> str:
    return ",".join(_num(c) for c in values)


# -- workloads ---------------------------------------------------------------


class Workload:
    """One workload: set-up, a timed operation, and the checks on its output.

    Subclasses define ``setup()``, which a run may repeat and which leaves
    the run-level gate state alone; ``op(i)``, the only code inside the timed
    region; ``check(i, out)``, True when the output is correct; ``cli(i,
    out)``, one cold ``bactipot`` subprocess next to operation ``i``,
    returning ``(seconds, correct)``; and ``fingerprint(out)``, the exact text
    compared between traced and untraced runs.
    """

    name = ""
    #: Operations in one traced pass; fixed, so the counts repeat exactly.
    trace_ops = 0
    #: Cold ``bactipot`` CLI runs per timed loop, the samples of ``cli_ms``.
    cli_runs = 41

    def __init__(self, seed: int):
        self.seed = seed

    def finish(self) -> dict[str, bool]:
        """Run-level gates, as ``{name: passed}``."""
        return {}

    def trace_extra(self) -> list[tuple[object, str, str]]:
        """Benchmark-side functions to span, as (namespace, attribute, name)."""
        return []


class McStudy(Workload):
    """1000-repetition studies at workers=1, each repeated by the CLI at
    workers=2 on the same seed."""

    name = "mc-study"
    trace_ops = 2
    # each CLI run is a whole study, so fewer leave time for the timed ones
    cli_runs = 5

    def setup(self) -> None:
        bactipot.run_mc_study(mc_config(mc_study_seed(self.seed, 999), repetitions=100), workers=1)

    def op(self, i: int):
        return bactipot.run_mc_study(mc_config(mc_study_seed(self.seed, i)), workers=1)

    def check(self, i: int, report) -> bool:
        means = (report.mean_alpha, report.mean_beta, report.mean_theta)
        return report.failures == 0 and all(
            abs(value - ref) / ref < 0.05 for value, ref in zip(means, MC_REFERENCE)
        )

    def cli(self, i: int, report) -> tuple[float, bool]:
        config = mc_config(mc_study_seed(self.seed, i))
        m = config.measurement
        seconds, stdout = run_cli(
            [
                "mc-study",
                "--alpha", _num(config.params.alpha),
                "--beta", _num(config.params.beta),
                "--grid", _grid(config.grid),
                "--sigma-eps", _num(m.sigma_eps),
                "--x0", str(m.x0),
                "--gens", str(m.n_generations),
                "--reps", str(m.replicates),
                "--measurements", str(config.n_measurements),
                "--threads", str(MC_CLI_WORKERS),
                "--seed", str(config.seed),
                "--no-timestamp",
            ]
        )
        if stdout is None:
            return seconds, False
        payload = json.loads(stdout)
        payload.pop("meta")
        # the determinism contract: same seed, same report, any worker count
        return seconds, payload == json.loads(self.fingerprint(report))

    def fingerprint(self, report) -> str:
        return json.dumps(report.to_dict())


class PlateFit(Workload):
    """``bactipot fit`` on pre-synthesized plates, cycling through a pool."""

    name = "plate-fit"
    trace_ops = 4 * POOL_SIZE

    def __init__(self, seed: int):
        super().__init__(seed)
        # run-level gate state; a repeated set-up rebuilds the same pool
        self._texts: dict[int, str] = {}
        self._auto = self._covered = 0

    def setup(self) -> None:
        self.pool = build_pool(self.seed, POOL_SIZE)
        self.pipelines = [pipeline_of(spec) for spec, _ in self.pool]
        for i in range(20):
            self.op(i)

    def op(self, i: int):
        p = i % len(self.pool)
        return fit_plate(self.pool[p][1], self.pipelines[p])

    def check(self, i: int, out) -> bool:
        result, text = out
        fit = result.fit
        ok = len(fit.used_concentrations) >= 2 and all(
            math.isfinite(v) for v in (fit.alpha_hat, fit.beta_hat, fit.mic_hat)
        )
        p = i % len(self.pool)
        first = self._texts.setdefault(p, text)
        if first is text:
            self._score_coverage(self.pool[p][0], result)
        return ok and text == first

    def _score_coverage(self, spec: PlateSpec, result) -> None:
        # test_end_to_end_interval_coverage: alpha within 3 sigma / sqrt(N)
        # of the truth, sigma from the design actually used
        if not spec.auto_band:
            return
        truth = GrowthParams(spec.alpha, spec.beta)
        cov = bactipot.asymptotic_covariance(
            result.fit.used_concentrations, truth, PLATE.n_generations, PLATE.sigma_eps
        )
        band = 3.0 * math.sqrt(cov.sigma2_alpha / PLATE.replicates)
        self._auto += 1
        self._covered += abs(result.fit.alpha_hat - truth.alpha) <= band

    def coverage(self) -> tuple[int, int]:
        return self._covered, self._auto

    def cli(self, i: int, out) -> tuple[float, bool]:
        spec, text = self.pool[0]
        args = ["fit", "--input", "-", "--high-c", _num(spec.high_c), "--low-c", _num(spec.low_c)]
        if spec.fit_c is not None:
            args += ["--fit-c", _grid(spec.fit_c)]
        args += ["--x0", str(PLATE.x0), "--no-timestamp"]
        seconds, stdout = run_cli(args, stdin=text)
        return seconds, stdout == fit_plate(text, self.pipelines[0])[1]

    def finish(self) -> dict[str, bool]:
        covered, auto = self.coverage()
        return {"auto_band_alpha_coverage_ge_90pct": auto > 0 and covered >= 0.9 * auto}

    def fingerprint(self, out) -> str:
        return out[1]

    def trace_extra(self) -> list[tuple[object, str, str]]:
        return [(sys.modules[__name__], "serialize_fit", "cli.serialize")]


class PlateSynth(Workload):
    """Synthesize and write one new plate per operation."""

    name = "plate-synth"
    trace_ops = 600

    def setup(self) -> None:
        for i in range(30):
            synth_plate(plate_spec(self.seed, i))

    def op(self, i: int):
        return synth_plate(plate_spec(self.seed, i))

    def check(self, i: int, out) -> bool:
        dataset, text = out
        return _bits(bactipot.read_dataset(io.StringIO(text))) == _bits(dataset)

    def cli(self, i: int, out) -> tuple[float, bool]:
        spec = plate_spec(self.seed, 0)
        seconds, stdout = run_cli(
            [
                "synth",
                "--alpha", _num(spec.alpha),
                "--beta", _num(spec.beta),
                "--grid", _grid(LADDER),
                "--untreated-lane", _num(SENTINEL),
                "--a", _num(PLATE.a),
                "--sigma-eps", _num(PLATE.sigma_eps),
                "--x0", str(PLATE.x0),
                "--gens", str(PLATE.n_generations),
                "--reps", str(PLATE.replicates),
                "--seed", str(self.seed),
            ]
        )
        # the CLI seeds its stream with spawn_rng(seed) and no key
        dataset = bactipot.simulate_experiment(
            GrowthParams(spec.alpha, spec.beta),
            LADDER,
            PLATE,
            bactipot.spawn_rng(self.seed),
            untreated_lane=SENTINEL,
        )
        sink = io.StringIO()
        bactipot.write_dataset(dataset, sink)
        return seconds, stdout == sink.getvalue()

    def fingerprint(self, out) -> str:
        return out[1]


def _bits(dataset) -> list[tuple[str, int, str]]:
    return [(o.concentration.hex(), o.replicate, o.ct.hex()) for o in dataset.observations]


def build_pool(seed: int, size: int) -> list[tuple[PlateSpec, str]]:
    """The plate-fit pool: ``size`` plates as (spec, CSV text)."""
    return [(spec, synth_plate(spec)[1]) for spec in (plate_spec(seed, i) for i in range(size))]


WORKLOADS = {w.name: w for w in (McStudy, PlateFit, PlateSynth)}
