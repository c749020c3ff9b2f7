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
import operator
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from .branching import (
    GrowthParams,
    _check_generations,
    _check_integer,
    _check_x0,
    _checked_record,
    dist_from_mean,
    mean_from_concentration,
    simulate_batch,
)
from .errors import DatasetFormatError, InvalidParameterError

if TYPE_CHECKING:
    import numpy as np

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


def check_sigma_eps(sigma_eps: float) -> None:
    """The one rule for a Ct noise standard deviation: finite and >= 0."""
    if not 0.0 <= sigma_eps < math.inf:  # NaN fails every comparison
        raise InvalidParameterError(f"sigma_eps must be finite and >= 0, got {sigma_eps!r}")


class MeasurementConfig(_checked_record("a sigma_eps x0 n_generations replicates")):
    """Parameters of one synthetic qPCR experiment.

    Attributes:
        a: Calibration constant (Ct units), finite. Zero for plain synthetic data.
        sigma_eps: Standard deviation of the Ct measurement noise, finite, >= 0.
        x0: Initial live cells per well, an integer in [1, ``MAX_COUNT``].
        n_generations: Generations grown before measurement, an integer in [1, 1023].
        replicates: Independent wells per concentration, an integer >= 1.
    """

    __slots__ = ()

    def __new__(
        cls,
        a: float = 0.0,
        sigma_eps: float = 0.2,
        x0: int = 10_000,
        n_generations: int = 10,
        replicates: int = 3,
    ):
        if not math.isfinite(a):
            raise InvalidParameterError(f"a must be finite, got {a!r}")
        check_sigma_eps(sigma_eps)
        _check_x0(x0)
        _check_generations(n_generations, minimum=1)
        _check_integer("replicates", replicates, minimum=1)
        return super().__new__(cls, a, sigma_eps, x0, n_generations, replicates)


class CtObservation(NamedTuple):
    """One well: concentration, replicate index, measured Ct; ``CtDataset`` checks it."""

    concentration: float
    replicate: int
    ct: float


def _check_columns(concentration, replicate, ct, lines: Sequence[int] | None = None) -> tuple:
    # the row rules, each once over a whole column, giving the replicates as plain ints
    # (True as 1); only if a rule fails are the rows walked in order, to report the first
    # faulty row (by its line, given ``lines``)
    with suppress(TypeError):  # a replicate that is no integer, for the walk to name
        replicates = tuple(map(operator.index, replicate))
        if (
            all(0.0 < c < math.inf for c in set(concentration))
            and min(replicates, default=1) >= 1
            and all(map(math.isfinite, ct))
            and len(set(zip(concentration, replicates))) == len(ct)
        ):
            return replicates
    seen: set[tuple[float, int]] = set()
    for i, (c, r, x) in enumerate(zip(concentration, replicate, ct)):
        try:
            if not 0.0 < c < math.inf:
                raise InvalidParameterError(f"concentration must be finite and positive, got {c!r}")
            _check_integer("replicate", r, minimum=1)
            if not math.isfinite(x):
                raise InvalidParameterError(f"ct must be finite, got {x!r}")
            if (c, r) in seen:
                raise InvalidParameterError(f"duplicate (concentration, replicate) pair {(c, r)!r}")
        except InvalidParameterError as exc:
            raise (DatasetFormatError(str(exc), line=lines[i]) if lines else exc) from None
        seen.add((c, r))


class CtDataset(_checked_record("concentration replicate ct config")):
    """A plate: Ct observations over a concentration grid, held as three columns.

    ``concentration``, ``replicate`` and ``ct`` are equal-length tuples, one
    entry per well, in input order; replicates are plain ints >= 1. Each
    (concentration, replicate) pair appears at most once, and no two distinct
    concentrations name the same lane by ``same_concentration``. ``config`` is
    carried along for synthetic data and absent (None) for ingested lab data.
    ``len`` is the well count, while ``tuple(dataset)`` is the four fields.
    """

    __slots__ = ()

    def __new__(cls, concentration, replicate, ct, config: MeasurementConfig | None = None):
        columns = tuple(concentration), tuple(replicate), tuple(ct)
        lengths = tuple(map(len, columns))
        if min(lengths) != max(lengths):
            raise InvalidParameterError(f"columns must be of equal length, got {lengths!r}")
        replicate = _check_columns(*columns)
        if columns[0]:
            check_grid(sorted(set(columns[0])))
        return super().__new__(cls, columns[0], replicate, columns[2], config)

    @property
    def observations(self) -> tuple[CtObservation, ...]:
        """The wells as ``CtObservation`` rows, built from the columns on each access."""
        return tuple(map(CtObservation, self.concentration, self.replicate, self.ct))

    def __len__(self) -> int:
        return len(self.ct)

    def concentrations(self) -> tuple[float, ...]:
        """Distinct concentrations in increasing order."""
        return tuple(sorted(set(self.concentration)))

    def cts_at(self, concentration: float) -> tuple[float, ...]:
        """Ct values of the lane ``same_concentration`` matches, in input order."""
        return _lane_at(self.grouped(), concentration)

    def grouped(self) -> dict[float, tuple[float, ...]]:
        """The lanes, grouped anew on each call: Ct values by exact concentration, increasing."""
        lanes: dict[float, list[float]] = {c: [] for c in sorted(set(self.concentration))}
        for c, x in zip(self.concentration, self.ct):
            lanes[c].append(x)
        return {c: tuple(cts) for c, cts in lanes.items()}


def _lane_at(lanes: dict[float, tuple[float, ...]], concentration: float) -> tuple[float, ...]:
    # the Ct values of the lane in ``grouped()`` that ``same_concentration`` matches, or ()
    for lane, cts in lanes.items():
        if same_concentration(lane, concentration):
            return cts
    return ()


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
    import numpy as np
    totals = np.asarray(total_count, dtype=float)
    if not totals.min(initial=1.0) >= 1.0:  # NaN fails, as in every comparison
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
        untreated_lane: Optional sentinel concentration, below the grid's
            lowest lane by ``check_grid``, at which an antibiotic-free control
            lane (offspring mean 2) is recorded. None: treated lanes only.

    Returns:
        Dataset with ``config`` attached; replicates are numbered from 1.
    """
    lanes = list(concentrations)
    check_grid(lanes)
    means = [mean_from_concentration(params, c) for c in lanes]
    if untreated_lane is not None:
        check_grid([untreated_lane, lanes[0]])  # below the grid, and no twin of its lowest lane
        lanes.insert(0, untreated_lane)
        means.insert(0, 2.0)
    cts = synthesize_plates(means, config, 1, rng)[0]
    return CtDataset(
        sorted(lanes * config.replicates),  # lanes increase: one per well, in a row
        tuple(range(1, config.replicates + 1)) * len(lanes),
        cts.ravel().tolist(),
        config,
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
    concentration, replicate, ct, lines = [], [], [], []
    with _open_text(source, "r") as stream:
        reader = csv.reader(stream, strict=True)  # so an unclosed quote is an error
        try:
            header = next(reader, None)
            if header is None:
                raise DatasetFormatError("empty file: missing header")
            if header:  # less one leading byte-order mark, as Excel's "CSV UTF-8" writes
                header[0] = header[0].removeprefix("\ufeff")
            _check_header(header)
            for row in filter(None, reader):  # a blank line holds no row
                line = reader.line_num  # a quoted field may span lines; name the last
                if len(row) != 3:
                    raise DatasetFormatError(f"expected 3 fields, got {len(row)}", line=line)
                concentration.append(_parse(row[0], float, "number", "concentration", line))
                replicate.append(_parse(row[1], int, "integer", "replicate", line))
                ct.append(_parse(row[2], float, "number", "ct", line))
                lines.append(line)
        except csv.Error as exc:
            fault = DatasetFormatError(f"malformed CSV: {exc}", line=reader.line_num)
        except UnicodeDecodeError as exc:
            fault = DatasetFormatError(f"text is not UTF-8: {exc.reason}")
        except DatasetFormatError as exc:
            fault = exc
        else:
            try:
                return CtDataset(concentration, replicate, ct)
            except InvalidParameterError as exc:  # a faulty row, or twin lanes
                fault = DatasetFormatError(str(exc))
    n = len(lines)  # the rows read whole: a row's fault, by its line, comes first
    _check_columns(concentration[:n], replicate[:n], ct[:n], lines)
    raise fault


def write_dataset(dataset: CtDataset, sink: str | Path | IO[str]) -> None:
    """Write a dataset as CSV, the inverse of ``read_dataset``.

    Floats are rendered in canonical positional-decimal form: the shortest
    decimal literal that round-trips exactly, never exponent notation.
    """
    # repr writes a float as _format_float does unless it writes an exponent;
    # each lane is formatted once, and no field holds a comma, quote or newline
    for form in (repr, _format_float):
        lanes = {c: form(float(c)) for c in set(dataset.concentration)}
        rows = zip(dataset.concentration, dataset.replicate, map(form, map(float, dataset.ct)))
        text = "".join([f"{lanes[c]},{r},{x}\n" for c, r, x in rows])
        if "e" not in text:
            break
    with _open_text(sink, "w") as stream:
        stream.write(",".join(CSV_COLUMNS) + "\n" + text)


def _format_float(value: float) -> str:
    # the shortest digits that round-trip, as repr gives them, in positional
    # form with at least one digit after the point
    text = repr(float(value))
    if "e" not in text:
        return text
    from decimal import Decimal  # only here: its import costs the CLI ~2 ms
    text = format(Decimal(text), "f")
    return text if "." in text else text + ".0"


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


def _parse(text: str, convert: Callable[[str], float], noun: str, column: str, line: int) -> float:
    try:
        return convert(text)
    except ValueError:
        raise DatasetFormatError(
            f"malformed {noun} {text!r} in column {column!r}", line=line
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
