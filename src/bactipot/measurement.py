"""qPCR cycle-threshold observation model and dataset I/O.

A qPCR run reports a Ct value that is linear in the base-2 log of the genome
count: ``ct = a - log2(total) + noise``, where ``a`` is an instrument
calibration constant and the noise is centered Gaussian. Lower Ct means more
genomes. This module synthesizes Ct observations from simulated populations
and reads/writes the CSV interchange format used for real plate data.

CSV schema (UTF-8, header required)::

    concentration,replicate,ct
    0.015625,1,-21.97
    ...

Concentrations are written as plain decimal literals (never exponent
notation), replicates are positive integers, and each (concentration,
replicate) pair appears at most once. An untreated control lane, when
present, is recorded at a sentinel concentration below the treated grid.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .branching import (
    GrowthParams,
    _check_x0,
    dist_from_mean,
    mean_from_concentration,
    simulate_batch,
)
from .errors import DatasetFormatError, InvalidParameterError

CSV_COLUMNS = ("concentration", "replicate", "ct")


def same_concentration(a: float, b: float) -> bool:
    """Whether two concentrations name the same lane: equal to a relative 1e-9."""
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0)


def check_grid(concentrations: Sequence[float]) -> None:
    """The one rule for a concentration grid: non-empty, finite and positive,
    strictly increasing, and no two concentrations naming the same lane.

    Twins, two distinct concentrations that ``same_concentration`` calls the
    same, would be two lanes to ``CtDataset.grouped`` but one lane to
    ``CtDataset.cts_at``. Checking neighbours suffices: if ``a < b < c`` and
    ``a`` matches ``c``, then ``a`` also matches ``b``.
    """
    grid = list(concentrations)
    if not grid:
        raise InvalidParameterError("concentration grid must be non-empty")
    for c in grid:
        if not 0.0 < c < math.inf:
            raise InvalidParameterError(f"concentrations must be finite and positive, got {c!r}")
    for a, b in zip(grid, grid[1:]):
        if b <= a:
            raise InvalidParameterError(
                f"concentrations must be strictly increasing, got {a!r} then {b!r}"
            )
        if same_concentration(a, b):
            raise InvalidParameterError(
                f"concentrations {a!r} and {b!r} are distinct but name the same lane"
            )


@dataclass(frozen=True)
class MeasurementConfig:
    """Parameters of one synthetic qPCR experiment.

    Attributes:
        a: Calibration constant (Ct units). Zero for plain synthetic data.
        sigma_eps: Standard deviation of the Ct measurement noise, >= 0.
        x0: Initial live cells per well, in [1, ``MAX_COUNT``].
        n_generations: Generations grown before measurement.
        replicates: Independent wells per concentration.
    """

    a: float = 0.0
    sigma_eps: float = 0.2
    x0: int = 10_000
    n_generations: int = 10
    replicates: int = 3

    def __post_init__(self):
        if self.sigma_eps < 0.0 or math.isnan(self.sigma_eps):
            raise InvalidParameterError(f"sigma_eps must be >= 0, got {self.sigma_eps!r}")
        _check_x0(self.x0)
        if self.n_generations < 1:
            raise InvalidParameterError(
                f"n_generations must be >= 1, got {self.n_generations!r}"
            )
        if self.replicates < 1:
            raise InvalidParameterError(f"replicates must be >= 1, got {self.replicates!r}")


@dataclass(frozen=True)
class CtObservation:
    """One well: concentration, replicate index, measured Ct."""

    concentration: float
    replicate: int
    ct: float

    def __post_init__(self):
        if not (0.0 < self.concentration < math.inf):
            raise InvalidParameterError(
                f"concentration must be finite and positive, got {self.concentration!r}"
            )
        if self.replicate < 1:
            raise InvalidParameterError(f"replicate must be >= 1, got {self.replicate!r}")
        if not math.isfinite(self.ct):
            raise InvalidParameterError(f"ct must be finite, got {self.ct!r}")


@dataclass(frozen=True)
class CtDataset:
    """An ordered collection of Ct observations over a concentration grid.

    Each (concentration, replicate) pair appears at most once, and no two
    distinct concentrations name the same lane by ``same_concentration``.
    ``config`` is carried along for synthetic data and absent (None) for
    ingested lab data.
    """

    observations: tuple[CtObservation, ...]
    config: MeasurementConfig | None = None

    def __post_init__(self):
        object.__setattr__(self, "observations", tuple(self.observations))
        seen = set()
        for obs in self.observations:
            key = (obs.concentration, obs.replicate)
            if key in seen:
                raise InvalidParameterError(
                    f"duplicate (concentration, replicate) pair {key!r}"
                )
            seen.add(key)
        if seen:
            check_grid(sorted({c for c, _ in seen}))

    def __len__(self) -> int:
        return len(self.observations)

    def concentrations(self) -> tuple[float, ...]:
        """Distinct concentrations in increasing order."""
        return tuple(sorted({obs.concentration for obs in self.observations}))

    def cts_at(self, concentration: float) -> tuple[float, ...]:
        """Ct values of the lane ``same_concentration`` matches, in input order."""
        return tuple(
            obs.ct
            for obs in self.observations
            if same_concentration(obs.concentration, concentration)
        )

    def grouped(self) -> dict[float, tuple[float, ...]]:
        """Ct values keyed by the exact recorded concentration, in increasing order."""
        groups: dict[float, list[float]] = {}
        for obs in self.observations:
            groups.setdefault(obs.concentration, []).append(obs.ct)
        return {c: tuple(groups[c]) for c in sorted(groups)}


def synthesize_ct(
    total_count: int | np.ndarray, config: MeasurementConfig, rng: np.random.Generator
) -> float | np.ndarray:
    """Ct values for wells holding ``total_count`` genomes.

    Returns ``a - log2(total_count) + sigma_eps * N(0, 1)``, one independent
    noise draw per well: a float for a single count, an array of the same
    shape for an array of counts. With zero noise the result is exact, bit
    for bit.

    Raises:
        InvalidParameterError: if some count is not >= 1 (the process never
            produces fewer genomes than it started with, so a zero count
            signals caller error).
    """
    totals = np.asarray(total_count, dtype=float)
    if not np.all(totals >= 1.0):
        raise InvalidParameterError(f"total_count must be >= 1, got {float(np.min(totals))!r}")
    cts = config.a - np.log2(totals) + config.sigma_eps * rng.standard_normal(totals.shape)
    return float(cts) if cts.ndim == 0 else cts


def synthesize_plates(
    means: Sequence[float], config: MeasurementConfig, plates: int, rng: np.random.Generator
) -> np.ndarray:
    """Ct values of ``plates`` independent plates, one lane per offspring mean.

    Every well starts from ``config.x0`` live cells and grows under the
    death-or-divide law of its lane. All wells go through one
    ``simulate_batch`` call, then through one ``synthesize_ct`` call.

    Returns:
        Array of shape ``(plates, len(means), config.replicates)``.
    """
    dists = [dist_from_mean(m) for m in means]
    alive, dead = simulate_batch(
        config.x0, dists, config.n_generations, plates * config.replicates, rng
    )
    cts = synthesize_ct(alive + dead, config, rng)
    return cts.reshape(len(dists), plates, config.replicates).transpose(1, 0, 2)


def simulate_experiment(
    params: GrowthParams,
    concentrations: Sequence[float],
    config: MeasurementConfig,
    rng: np.random.Generator,
    untreated_lane: float | None = None,
) -> CtDataset:
    """Synthesize a full Ct dataset for one plate.

    For each concentration the offspring mean is computed from the
    dose-response law, ``config.replicates`` independent populations are
    grown for ``config.n_generations`` generations from ``config.x0`` cells,
    and each final total count is turned into one Ct observation. All wells
    are independent and are simulated in one ``synthesize_plates`` call.

    Args:
        params: True dose-response parameters.
        concentrations: Treated lanes; non-empty, positive, strictly
            increasing.
        config: Experiment dimensions and noise level.
        rng: Source of randomness.
        untreated_lane: Optional sentinel concentration, strictly below the
            grid, at which an antibiotic-free control lane (offspring mean 2)
            is recorded. None synthesizes treated lanes only.

    Returns:
        Dataset with ``config`` attached; replicates are numbered from 1.
    """
    lanes = list(concentrations)
    check_grid(lanes)
    means = [mean_from_concentration(params, c) for c in lanes]
    if untreated_lane is not None:
        if not (0.0 < untreated_lane < lanes[0]):
            raise InvalidParameterError(
                "untreated sentinel concentration must lie strictly below the grid"
            )
        lanes.insert(0, untreated_lane)
        means.insert(0, 2.0)
    cts = synthesize_plates(means, config, 1, rng)[0].tolist()
    return CtDataset(
        tuple(
            CtObservation(c, i + 1, ct)
            for c, row in zip(lanes, cts)
            for i, ct in enumerate(row)
        ),
        config=config,
    )


# ---------------------------------------------------------------------------
# CSV ingestion / serialization
# ---------------------------------------------------------------------------


def read_dataset(source: str | Path | IO[str]) -> CtDataset:
    """Parse a Ct dataset from CSV.

    Rows are preserved in input order. Errors report the 1-based line number
    of the offending record.

    Args:
        source: Path or open text stream holding CSV per the module schema.

    Raises:
        DatasetFormatError: on text that is not UTF-8 or not CSV (such as a
            field over the csv module's size limit), a bad header, malformed
            number, out-of-domain value, duplicate (concentration, replicate)
            pair, or two distinct concentrations that name the same lane.
    """
    with _open_text(source, "r") as stream:
        reader = csv.reader(stream)
        try:
            header = next(reader, None)
            if header is None:
                raise DatasetFormatError("empty file: missing header")
            _check_header(header)

            observations: list[CtObservation] = []
            seen: set[tuple[float, int]] = set()
            for line, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 3:
                    raise DatasetFormatError(
                        f"expected 3 fields, got {len(row)}", line=line
                    )
                concentration = _parse_float(row[0], "concentration", line)
                replicate = _parse_int(row[1], "replicate", line)
                ct = _parse_float(row[2], "ct", line)
                try:
                    obs = CtObservation(concentration, replicate, ct)
                except InvalidParameterError as exc:
                    raise DatasetFormatError(str(exc), line=line) from None
                key = (obs.concentration, obs.replicate)
                if key in seen:
                    raise DatasetFormatError(
                        f"duplicate (concentration, replicate) pair {key!r}", line=line
                    )
                seen.add(key)
                observations.append(obs)
        except csv.Error as exc:
            raise DatasetFormatError(f"malformed CSV: {exc}", line=reader.line_num) from None
        except UnicodeDecodeError as exc:
            raise DatasetFormatError(f"text is not UTF-8: {exc.reason}") from None
    try:
        return CtDataset(tuple(observations), config=None)
    except InvalidParameterError as exc:  # two concentrations name one lane
        raise DatasetFormatError(str(exc)) from None


def write_dataset(dataset: CtDataset, sink: str | Path | IO[str]) -> None:
    """Write a dataset as CSV, the inverse of ``read_dataset``.

    Floats are rendered in canonical positional-decimal form: the shortest
    decimal literal that round-trips exactly, never exponent notation.
    """
    with _open_text(sink, "w") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for obs in dataset.observations:
            writer.writerow(
                [_format_float(obs.concentration), obs.replicate, _format_float(obs.ct)]
            )


def _format_float(value: float) -> str:
    return np.format_float_positional(value, unique=True, trim="0")


def _check_header(header: Iterable[str]) -> None:
    names = [h.strip() for h in header]
    if names == list(CSV_COLUMNS):
        return
    missing = [c for c in CSV_COLUMNS if c not in names]
    if missing:
        raise DatasetFormatError(f"missing column(s) {missing!r} in header", line=1)
    raise DatasetFormatError(
        f"header must be exactly {','.join(CSV_COLUMNS)!r}, got {names!r}", line=1
    )


def _parse_float(text: str, column: str, line: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise DatasetFormatError(
            f"malformed number {text!r} in column {column!r}", line=line
        ) from None


def _parse_int(text: str, column: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise DatasetFormatError(
            f"malformed integer {text!r} in column {column!r}", line=line
        ) from None


@contextmanager
def _open_text(target: str | Path | IO[str], mode: str) -> Iterator[IO[str]]:
    if isinstance(target, (str, Path)):
        with open(target, mode, encoding="utf-8", newline="") as handle:
            yield handle
    elif isinstance(target, io.TextIOBase) or hasattr(target, "read" if "r" in mode else "write"):
        yield target
    else:
        raise InvalidParameterError(f"expected path or text stream, got {target!r}")
