"""Command-line front end.

Subcommands::

    simulate     trajectories of the branching process (CSV)
    synth        synthetic Ct dataset for a dose-response experiment (CSV)
    fit          full pipeline fit of a Ct dataset (JSON)
    mc-study     Monte Carlo estimator validation (JSON)
    design-eval  asymptotic variances for candidate designs (CSV)
    curve        tabulated dose-response curve (CSV)

Concentration grids accept ``2^k`` power notation, with an unsigned base,
alongside plain decimals, e.g. ``--grid "2^-6,2^-4,2^-2"``. Every
concentration flag, both ``curve --range`` bounds included, follows
``check_grid``. Every subcommand takes ``-o/--output``; only ``simulate``,
``synth`` and ``mc-study`` take ``--seed`` (falling back to the BACTIPOT_SEED
environment variable, then 0, and logged to stderr), only ``mc-study`` and
``design-eval`` take ``--pretty``, and only ``fit`` and ``mc-study`` take
``--no-timestamp``.

Each handler returns its whole output as text, and ``main`` alone writes it,
to stdout or in one ``open`` of the ``-o`` file. So a run that fails writes
nothing.

Exit status: 0 on success, 1 on data errors, an ``-o`` path that cannot be
written, a closed stdout or running out of memory, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import sys
from typing import Iterable, Sequence

from .branching import (
    GrowthParams,
    OffspringDistribution,
    dist_from_mean,
    mean_from_concentration,
    simulate,
    simulate_batch,
)
from .errors import BactipotError, InvalidParameterError
from .harness import (
    McStudyConfig,
    PipelineConfig,
    evaluate_designs,
    fit_dataset,
    log_spaced_grid,
    run_mc_study,
)
from .measurement import (
    MeasurementConfig,
    check_grid,
    read_dataset,
    simulate_experiment,
    write_dataset,
)
from .seeding import spawn_rng

# the base takes no sign: "-2^2" is not a number, where "2^-2" is
_POWER = re.compile(r"^(\d+(?:\.\d+)?)\^([+-]?\d+(?:\.\d+)?)$")


class UsageError(Exception):
    """Bad flag values; maps to exit status 2."""


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text = args.handler(args)
        if args.output == "-":
            # in pieces: an unbuffered stdout (python -u) drops the rest of a
            # short write to a pipe whose reader left, and only the next write
            # fails with BrokenPipeError
            for start in range(0, len(text), io.DEFAULT_BUFFER_SIZE):
                sys.stdout.write(text[start : start + io.DEFAULT_BUFFER_SIZE])
            # flush here, so a reader that closes late fails inside this try
            sys.stdout.flush()
        else:
            with open(args.output, "w", encoding="utf-8", newline="") as out:
                out.write(text)
        return 0
    except BrokenPipeError:
        # the reader of stdout is gone; point stdout at devnull so the flush
        # at interpreter exit cannot fail again (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print(f"bactipot: usage error: {exc}", file=sys.stderr)
        return 2
    except (BactipotError, OSError) as exc:
        print(f"bactipot: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"bactipot: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: a prefix of a flag, "--a" of "--alpha", is not that flag
    parser = argparse.ArgumentParser(
        prog="bactipot",
        description="Branching-process dose-response modeling and MIC estimation.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help, allow_abbrev=False)

    defaults = MeasurementConfig()

    p = command("simulate", help="simulate branching-process trajectories")
    group = p.add_argument_group("offspring distribution (either --m or --p0/--p1/--p2)")
    group.add_argument("--m", type=float, help="offspring mean for the death-or-divide rule")
    group.add_argument("--p0", type=float, help="death probability")
    group.add_argument("--p1", type=float, help="survive-as-one probability")
    group.add_argument("--p2", type=float, help="divide-in-two probability")
    p.add_argument("--x0", type=int, default=1, help="initial live cells (default 1)")
    p.add_argument("--gens", type=int, default=10, help="generations (default 10)")
    p.add_argument("--reps", type=int, default=1, help="replicate trajectories (default 1)")
    _add_common(p, seed=True)
    p.set_defaults(handler=_cmd_simulate)

    p = command("synth", help="synthesize a Ct dataset")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--grid", required=True, help="comma-separated concentrations")
    p.add_argument("--a", type=float, default=defaults.a, help="calibration constant")
    p.add_argument("--sigma-eps", type=float, default=defaults.sigma_eps, help="Ct noise s.d.")
    p.add_argument("--x0", type=int, default=defaults.x0)
    p.add_argument("--gens", type=int, default=defaults.n_generations)
    p.add_argument("--reps", type=int, default=defaults.replicates, help="replicates per lane")
    p.add_argument(
        "--untreated-lane",
        default=None,
        help="sentinel concentration for an antibiotic-free control lane",
    )
    _add_common(p, seed=True)
    p.set_defaults(handler=_cmd_synth)

    p = command("fit", help="fit a Ct dataset end to end")
    p.add_argument("--input", required=True, help="dataset CSV path, or - for stdin")
    p.add_argument("--high-c", required=True, help="growth-suppressed threshold concentration")
    p.add_argument("--low-c", required=True, help="free-growth lane concentration")
    p.add_argument(
        "--fit-c",
        default="auto",
        help='regression lanes: "auto" or an explicit comma-separated list',
    )
    p.add_argument("--x0", type=int, required=True)
    _add_common(p, timestamp=True)
    p.set_defaults(handler=_cmd_fit)

    p = command("mc-study", help="Monte Carlo estimator validation")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--sigma-eps", type=float, default=defaults.sigma_eps)
    p.add_argument("--x0", type=int, default=defaults.x0)
    p.add_argument("--gens", type=int, default=defaults.n_generations)
    p.add_argument("--reps", type=int, default=defaults.replicates, help="replicates per lane")
    p.add_argument("--measurements", type=int, default=1000, help="study repetitions")
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        help="accepted for compatibility, >= 1; a study runs its blocks on every usable CPU",
    )
    _add_common(p, seed=True, pretty=True, timestamp=True)
    # mc-study takes no --a: its plates keep the default calibration constant
    p.set_defaults(handler=_cmd_mc_study, a=defaults.a)

    p = command("design-eval", help="rank concentration designs analytically")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gens", type=int, default=defaults.n_generations)
    p.add_argument("--sigma-eps", type=float, default=defaults.sigma_eps)
    p.add_argument(
        "--designs",
        action="append",
        required=True,
        help="design grid; repeat the flag or separate designs with ';'",
    )
    _add_common(p, pretty=True)
    p.set_defaults(handler=_cmd_design_eval)

    p = command("curve", help="tabulate a dose-response curve")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--range", required=True, help="concentration span LOW:HIGH")
    p.add_argument("--points", type=int, default=200, help="log-spaced points (default 200)")
    _add_common(p)
    p.set_defaults(handler=_cmd_curve)

    return parser


def _add_common(p: argparse.ArgumentParser, *, seed=False, pretty=False, timestamp=False) -> None:
    p.add_argument("-o", "--output", default="-", help="output path (default stdout)")
    if seed:
        p.add_argument("--seed", type=int, help="master seed (env BACTIPOT_SEED, then 0)")
    if pretty:
        p.add_argument("--pretty", action="store_true", help="human-readable table output")
    if timestamp:
        p.add_argument("--no-timestamp", action="store_true", help="omit the JSON timestamp")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace) -> str:
    dist = _offspring_from_args(args)
    if args.reps < 1:
        raise UsageError(f"--reps must be >= 1, got {args.reps}")
    seed = _seed(args)
    if args.reps == 1:
        index, start = "generation", 0
        alive, dead = simulate(args.x0, dist, args.gens, spawn_rng(seed, 0))
    else:
        index, start = "replicate", 1
        alive, dead = simulate_batch(args.x0, dist, args.gens, args.reps, spawn_rng(seed, 0))
    rows = [
        [i, a, d, a + d]
        for i, (a, d) in enumerate(zip(alive.tolist(), dead.tolist()), start=start)
    ]
    return _csv([index, "alive", "dead", "total"], rows)


def _cmd_synth(args: argparse.Namespace) -> str:
    grid = _parse_grid(args.grid, "--grid")
    sentinel = None
    if args.untreated_lane is not None:
        sentinel = _parse_number(args.untreated_lane, "--untreated-lane")
        _check_grid([sentinel, grid[0]], "--untreated-lane")
    seed = _seed(args)
    dataset = simulate_experiment(
        GrowthParams(args.alpha, args.beta),
        grid,
        _measurement_config(args),
        spawn_rng(seed),
        untreated_lane=sentinel,
    )
    out = io.StringIO()
    write_dataset(dataset, out)
    return out.getvalue()


def _cmd_fit(args: argparse.Namespace) -> str:
    fit_c = None
    if args.fit_c != "auto":
        fit_c = tuple(_parse_grid(args.fit_c, "--fit-c"))
    high_c = _parse_number(args.high_c, "--high-c")
    _check_grid([high_c], "--high-c")
    low_c = _parse_number(args.low_c, "--low-c")
    _check_grid([low_c], "--low-c")
    _check_grid([low_c, high_c], "--low-c and --high-c")
    pipeline = PipelineConfig(
        high_c_threshold=high_c, low_c_choice=low_c, x0=args.x0, fit_concentrations=fit_c
    )
    try:
        dataset = read_dataset(sys.stdin if args.input == "-" else args.input)
    except FileNotFoundError as exc:
        raise UsageError(f"--input file not found: {exc.filename}") from None
    result = fit_dataset(dataset, pipeline)
    return _json({"meta": _meta(args, seed=None), **result.to_dict()})


def _cmd_mc_study(args: argparse.Namespace) -> str:
    grid = _parse_grid(args.grid, "--grid")
    seed = _seed(args)
    if args.threads is not None and args.threads < 1:
        raise UsageError(f"--threads must be >= 1, got {args.threads}")
    config = McStudyConfig(
        params=GrowthParams(args.alpha, args.beta),
        grid=tuple(grid),
        measurement=_measurement_config(args),
        n_measurements=args.measurements,
        seed=seed,
    )
    report = run_mc_study(config)
    if args.pretty:
        return _mc_table(report)
    return _json({"meta": _meta(args, seed=seed), **report.to_dict()})


def _cmd_design_eval(args: argparse.Namespace) -> str:
    designs = []
    for chunk in args.designs:
        for item in chunk.split(";"):
            if item.strip():
                designs.append(tuple(_parse_grid(item, "--designs")))
    if not designs:
        raise UsageError("--designs named no design")
    rows = evaluate_designs(
        designs, GrowthParams(args.alpha, args.beta), args.gens, args.sigma_eps
    )
    if args.pretty:
        header = ("design", "s2_alpha", "s_alphabeta", "s2_beta", "s2_theta", "status")
        return _table([header, *_design_cells(rows, _sig3, ", ", "-", "")])
    header = ("design", "sigma2_alpha", "sigma_alphabeta", "sigma2_beta", "sigma2_theta", "status")
    return _csv(header, _design_cells(rows, repr, " ", "", "ok"))


def _cmd_curve(args: argparse.Namespace) -> str:
    low, high = _parse_range(args.range, "--range")
    if args.points < 2:
        raise UsageError(f"--points must be >= 2, got {args.points}")
    params = GrowthParams(args.alpha, args.beta)
    rows = [(c, mean_from_concentration(params, c)) for c in log_spaced_grid(low, high, args.points)]
    return _csv(["concentration", "offspring_mean"], rows)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _offspring_from_args(args: argparse.Namespace) -> OffspringDistribution:
    probs = (args.p0, args.p1, args.p2)
    if args.m is not None:
        if any(p is not None for p in probs):
            raise UsageError("give either --m or --p0/--p1/--p2, not both")
        return dist_from_mean(args.m)
    if any(p is None for p in probs):
        raise UsageError("give either --m or all of --p0, --p1, --p2")
    return OffspringDistribution(*probs)


def _measurement_config(args: argparse.Namespace) -> MeasurementConfig:
    return MeasurementConfig(
        a=args.a,
        sigma_eps=args.sigma_eps,
        x0=args.x0,
        n_generations=args.gens,
        replicates=args.reps,
    )


def _seed(args: argparse.Namespace) -> int:
    # --seed, else BACTIPOT_SEED, else 0; logged, so every seeded run can be repeated
    seed = args.seed
    if seed is None:
        raw = os.environ.get("BACTIPOT_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            raise UsageError(f"BACTIPOT_SEED must be an integer, got {raw!r}") from None
    print(f"bactipot: seed={seed}", file=sys.stderr)
    return seed


def _meta(args: argparse.Namespace, seed: int | None) -> dict:
    meta: dict = {"command": args.subcommand}
    if seed is not None:
        meta["seed"] = seed
    if not args.no_timestamp:
        from datetime import datetime, timezone  # only here: --no-timestamp never loads it
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    return meta


def _parse_number(token: str, flag: str) -> float:
    text = token.strip()
    match = _POWER.match(text)
    try:
        if match:
            # math.pow raises where ** would give a complex or divide by zero
            return math.pow(float(match.group(1)), float(match.group(2)))
        return float(text)
    except (ValueError, OverflowError):
        raise UsageError(f"{flag}: cannot parse number {token!r}") from None


def _parse_grid(text: str, flag: str) -> list[float]:
    grid = sorted(_parse_number(t, flag) for t in text.split(",") if t.strip())
    _check_grid(grid, flag)
    return grid


def _check_grid(grid: list[float], flag: str) -> None:
    try:
        check_grid(grid)
    except InvalidParameterError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _parse_range(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"{flag}: expected LOW:HIGH, got {text!r}")
    low, high = (_parse_number(part, flag) for part in parts)
    _check_grid([low, high], flag)
    return low, high


def _json(payload: dict) -> str:
    """``payload`` as strict JSON: NaN and infinities become null."""
    return json.dumps(_finite_or_null(payload), indent=2, allow_nan=False) + "\n"


def _finite_or_null(value):
    # a copy of a JSON-able value with every non-finite float replaced by None
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _sig3(value: float) -> str:
    if value == 0.0:
        return "0"
    return f"{value:.3g}"


def _csv(header: Sequence, rows: Iterable[Sequence]) -> str:
    # joined by hand, as write_dataset is: no cell holds a comma, quote or
    # newline, and str writes a float as repr does
    return "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))


def _table(rows: Sequence[Sequence[str]]) -> str:
    """Rows of cells as left-aligned columns two spaces apart."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "".join(
        "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() + "\n" for r in rows
    )


def _design_cells(rows, number, sep: str, blank: str, ok: str):
    # one row of cells per design, for both the CSV and the --pretty table
    for row in rows:
        design = sep.join(number(c) for c in row.design)
        if row.covariance is None:
            yield (design, blank, blank, blank, blank, "singular")
        else:
            cov = row.covariance
            variances = (
                cov.sigma2_alpha, cov.sigma_alphabeta, cov.sigma2_beta, cov.sigma2_theta
            )
            yield (design, *map(number, variances), "best" if row.best else ok)


def _mc_table(report) -> str:
    theory = report.theoretical
    rows = [
        ("", "mean", "emp var (scaled)", "asymptotic"),
        ("alpha", _sig3(report.mean_alpha), _sig3(report.emp_var_alpha), _sig3(theory.sigma2_alpha)),
        ("beta", _sig3(report.mean_beta), _sig3(report.emp_var_beta), _sig3(theory.sigma2_beta)),
        ("mic", _sig3(report.mean_theta), _sig3(report.emp_var_theta), _sig3(theory.sigma2_theta)),
        ("alpha-beta cov", "", _sig3(report.emp_cov_alphabeta), _sig3(theory.sigma_alphabeta)),
    ]
    footer = f"measurements: {report.n_measurements}  failures: {report.failures}\n"
    return _table(rows) + footer


if __name__ == "__main__":
    sys.exit(main())
