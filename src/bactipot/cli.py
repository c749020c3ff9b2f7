"""Command-line front end.

Subcommands::

    simulate     trajectories of the branching process (CSV)
    synth        synthetic Ct dataset for a dose-response experiment (CSV)
    fit          full pipeline fit of a Ct dataset (JSON)
    mc-study     Monte Carlo estimator validation (JSON)
    design-eval  asymptotic variances for candidate designs (CSV)
    curve        tabulated dose-response curve (CSV)

Concentration grids accept ``2^k`` power notation, with an unsigned base,
alongside plain decimals, e.g. ``--grid "2^-6,2^-4,2^-2"``. Every subcommand
takes ``-o/--output``; only ``simulate``, ``synth`` and ``mc-study`` take
``--seed`` (falling back to the BACTIPOT_SEED environment variable, then 0,
and logged to stderr), only ``mc-study`` and ``design-eval`` take
``--pretty``, and only ``fit`` and ``mc-study`` take ``--no-timestamp``.

Exit status: 0 on success, 1 on data errors, a closed stdout or running out
of memory, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import re
import sys
from datetime import datetime, timezone
from typing import IO, Sequence

from .branching import (
    GrowthParams,
    OffspringDistribution,
    dist_from_mean,
    simulate,
    simulate_batch,
)
from .errors import BactipotError, InvalidParameterError
from .harness import (
    McStudyConfig,
    PipelineConfig,
    emit_curve,
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
        status = args.handler(args)
        # flush here, so a reader that closes late fails inside this try
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader of stdout is gone; point stdout at devnull so the flush
        # at interpreter exit cannot fail again (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print(f"bactipot: usage error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"bactipot: usage error: --input file not found: {exc.filename}", file=sys.stderr)
        return 2
    except (BactipotError, OSError) as exc:
        print(f"bactipot: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"bactipot: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bactipot",
        description="Branching-process dose-response modeling and MIC estimation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    defaults = MeasurementConfig()

    p = sub.add_parser("simulate", help="simulate branching-process trajectories")
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

    p = sub.add_parser("synth", help="synthesize a Ct dataset")
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

    p = sub.add_parser("fit", help="fit a Ct dataset end to end")
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

    p = sub.add_parser("mc-study", help="Monte Carlo estimator validation")
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
        help="accepted for compatibility, >= 1; studies always run in one process",
    )
    _add_common(p, seed=True, pretty=True, timestamp=True)
    p.set_defaults(handler=_cmd_mc_study)

    p = sub.add_parser("design-eval", help="rank concentration designs analytically")
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

    p = sub.add_parser("curve", help="tabulate a dose-response curve")
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


def _cmd_simulate(args: argparse.Namespace) -> int:
    dist = _offspring_from_args(args)
    if args.reps < 1:
        raise UsageError(f"--reps must be >= 1, got {args.reps}")
    seed = _effective_seed(args)
    _log_seed(seed)
    # simulate first, so a run that fails leaves no partial output file
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
    with _out_stream(args.output) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([index, "alive", "dead", "total"])
        writer.writerows(rows)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.grid, "--grid")
    sentinel = None
    if args.untreated_lane is not None:
        sentinel = _parse_number(args.untreated_lane, "--untreated-lane")
        _check_grid([sentinel, *grid], "--untreated-lane")
    seed = _effective_seed(args)
    _log_seed(seed)
    dataset = simulate_experiment(
        GrowthParams(args.alpha, args.beta),
        grid,
        _measurement_config(args),
        spawn_rng(seed),
        untreated_lane=sentinel,
    )
    with _out_stream(args.output) as out:
        write_dataset(dataset, out)
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    fit_c = None
    if args.fit_c != "auto":
        fit_c = tuple(_parse_grid(args.fit_c, "--fit-c"))
    pipeline = PipelineConfig(
        high_c_threshold=_parse_number(args.high_c, "--high-c"),
        low_c_choice=_parse_number(args.low_c, "--low-c"),
        x0=args.x0,
        fit_concentrations=fit_c,
    )
    if args.input == "-":
        dataset = read_dataset(sys.stdin)
    else:
        dataset = read_dataset(args.input)
    result = fit_dataset(dataset, pipeline)
    payload = {"meta": _meta(args, seed=None), **result.to_dict()}
    with _out_stream(args.output) as out:
        _write_json(payload, out)
    return 0


def _cmd_mc_study(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.grid, "--grid")
    seed = _effective_seed(args)
    _log_seed(seed)
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
    with _out_stream(args.output) as out:
        if args.pretty:
            _print_mc_table(report, out)
        else:
            _write_json({"meta": _meta(args, seed=seed), **report.to_dict()}, out)
    return 0


def _cmd_design_eval(args: argparse.Namespace) -> int:
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
    with _out_stream(args.output) as out:
        if args.pretty:
            _print_design_table(rows, out)
            return 0
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["design", "sigma2_alpha", "sigma_alphabeta", "sigma2_beta", "sigma2_theta", "status"]
        )
        for row in rows:
            design_text = " ".join(repr(c) for c in row.design)
            if row.singular:
                writer.writerow([design_text, "", "", "", "", "singular"])
            else:
                cov = row.covariance
                writer.writerow(
                    [
                        design_text,
                        repr(cov.sigma2_alpha),
                        repr(cov.sigma_alphabeta),
                        repr(cov.sigma2_beta),
                        repr(cov.sigma2_theta),
                        "best" if row.best else "ok",
                    ]
                )
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    low, high = _parse_range(args.range, "--range")
    if args.points < 2:
        raise UsageError(f"--points must be >= 2, got {args.points}")
    rows = emit_curve(
        GrowthParams(args.alpha, args.beta), log_spaced_grid(low, high, args.points)
    )
    with _out_stream(args.output) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["concentration", "offspring_mean"])
        for c, m in rows:
            writer.writerow([repr(c), repr(m)])
    return 0


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
    # mc-study takes no --a: its plates keep the default calibration constant
    return MeasurementConfig(
        a=getattr(args, "a", MeasurementConfig.a),
        sigma_eps=args.sigma_eps,
        x0=args.x0,
        n_generations=args.gens,
        replicates=args.reps,
    )


def _effective_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("BACTIPOT_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"BACTIPOT_SEED must be an integer, got {raw!r}") from None


def _log_seed(seed: int) -> None:
    print(f"bactipot: seed={seed}", file=sys.stderr)


def _meta(args: argparse.Namespace, seed: int | None) -> dict:
    meta: dict = {"command": args.subcommand}
    if seed is not None:
        meta["seed"] = seed
    if not args.no_timestamp:
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
    low = _parse_number(parts[0], flag)
    high = _parse_number(parts[1], flag)
    if not (0.0 < low < high):
        raise UsageError(f"{flag}: need 0 < LOW < HIGH, got {text!r}")
    return low, high


def _out_stream(target: str) -> contextlib.AbstractContextManager[IO[str]]:
    # stdout is not ours to close
    if target == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(target, "w", encoding="utf-8", newline="")


def _write_json(payload: dict, out: IO[str]) -> None:
    """Write ``payload`` as strict JSON: NaN and infinities become null."""
    # floats round-trip through their repr, so finite values keep their bytes
    strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    json.dump(strict, out, indent=2, allow_nan=False)
    out.write("\n")


def _sig3(value: float) -> str:
    if value == 0.0:
        return "0"
    return f"{value:.3g}"


def _write_table(rows: Sequence[Sequence[str]], out: IO[str]) -> None:
    """Write rows of cells as left-aligned columns two spaces apart."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        out.write("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() + "\n")


def _print_design_table(rows, out: IO[str]) -> None:
    table = [("design", "s2_alpha", "s_alphabeta", "s2_beta", "s2_theta", "status")]
    for row in rows:
        design_text = ", ".join(_sig3(c) for c in row.design)
        if row.singular:
            table.append((design_text, "-", "-", "-", "-", "singular"))
        else:
            cov = row.covariance
            table.append(
                (
                    design_text,
                    _sig3(cov.sigma2_alpha),
                    _sig3(cov.sigma_alphabeta),
                    _sig3(cov.sigma2_beta),
                    _sig3(cov.sigma2_theta),
                    "best" if row.best else "",
                )
            )
    _write_table(table, out)


def _print_mc_table(report, out: IO[str]) -> None:
    theory = report.theoretical
    rows = [
        ("", "mean", "emp var (scaled)", "asymptotic"),
        ("alpha", _sig3(report.mean_alpha), _sig3(report.emp_var_alpha), _sig3(theory.sigma2_alpha)),
        ("beta", _sig3(report.mean_beta), _sig3(report.emp_var_beta), _sig3(theory.sigma2_beta)),
        ("mic", _sig3(report.mean_theta), _sig3(report.emp_var_theta), _sig3(theory.sigma2_theta)),
        ("alpha-beta cov", "", _sig3(report.emp_cov_alphabeta), _sig3(theory.sigma_alphabeta)),
    ]
    _write_table(rows, out)
    out.write(f"measurements: {report.n_measurements}  failures: {report.failures}\n")


if __name__ == "__main__":
    sys.exit(main())
