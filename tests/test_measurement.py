"""Ct synthesis and dataset CSV round-tripping."""

import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bactipot import (
    CSV_COLUMNS,
    CtDataset,
    DatasetFormatError,
    GrowthParams,
    InvalidParameterError,
    MeasurementConfig,
    mean_total_from_mean,
    read_dataset,
    simulate_experiment,
    spawn_rng,
    synthesize_ct,
    write_dataset,
)
from bactipot.measurement import _format_float
from helpers import plate


#: Names the lane at 2**-5 by ``same_concentration`` without being equal to it.
TWIN = 2**-5 * (1 + 1e-10)


def reference_first_fault(rows):
    """The message a dataset of ``rows`` is refused with, or None: the rows
    walked in order against a seen-set, then the grid's twins."""
    seen = set()
    for c, replicate, ct in rows:
        if not 0.0 < c < math.inf:
            return f"concentration must be finite and positive, got {c!r}"
        if replicate < 1:
            return f"replicate must be >= 1, got {replicate!r}"
        if not math.isfinite(ct):
            return f"ct must be finite, got {ct!r}"
        if (c, replicate) in seen:
            return f"duplicate (concentration, replicate) pair {(c, replicate)!r}"
        seen.add((c, replicate))
    lanes = sorted({c for c, _ in seen})
    for a, b in zip(lanes, lanes[1:]):
        if math.isclose(a, b, rel_tol=1e-9):
            return f"concentrations {a!r} and {b!r} are distinct but name the same lane"
    return None


def noiseless_config(**overrides):
    base = dict(a=0.0, sigma_eps=0.0, x0=10_000, n_generations=10, replicates=3)
    base.update(overrides)
    return MeasurementConfig(**base)


@pytest.mark.parametrize("sigma_eps", [-0.1, math.inf, math.nan])
def test_noise_sd_must_be_finite_and_non_negative(sigma_eps):
    with pytest.raises(InvalidParameterError, match="sigma_eps"):
        noiseless_config(sigma_eps=sigma_eps)


def test_replicates_below_one_are_invalid():
    with pytest.raises(InvalidParameterError, match="replicates"):
        noiseless_config(replicates=0)


class TestSynthesizeCt:
    def test_noiseless_all_dead(self):
        ct = synthesize_ct(10**4, noiseless_config(), spawn_rng(0))
        assert ct == -math.log2(10**4)

    def test_noiseless_free_growth_adds_generations(self):
        ct = synthesize_ct(2**10 * 10**4, noiseless_config(), spawn_rng(0))
        assert ct == -math.log2(2**10 * 10**4)
        assert ct == pytest.approx(-math.log2(10**4) - 10, abs=1e-12)

    def test_noise_scale(self):
        config = noiseless_config(sigma_eps=0.2)
        rng = spawn_rng(123)
        draws = np.array([synthesize_ct(10**4, config, rng) for _ in range(10_000)])
        assert 0.19 < draws.std(ddof=1) < 0.21

    def test_zero_count_rejected(self):
        with pytest.raises(InvalidParameterError):
            synthesize_ct(0, noiseless_config(), spawn_rng(0))

    def test_array_of_counts_matches_the_scalar_form(self):
        # one noise draw per well, in row-major order
        config = noiseless_config(a=2.0, sigma_eps=0.3)
        totals = np.array([[10**4, 3 * 10**4], [2**10 * 10**4, 12345]])
        cts = synthesize_ct(totals, config, spawn_rng(9))
        rng = spawn_rng(9)
        expected = [synthesize_ct(int(t), config, rng) for t in totals.ravel()]
        assert cts.shape == (2, 2) and cts.ravel().tolist() == expected

    def test_noiseless_is_bit_reproducible(self):
        config = noiseless_config()
        assert synthesize_ct(12345, config, spawn_rng(5)) == synthesize_ct(
            12345, config, spawn_rng(5)
        )


class TestSimulateExperiment:
    def test_total_kill_everywhere(self):
        # alpha so large every cell dies in generation one: ct = a - log2(x0)
        params = GrowthParams(1e12, 1.0)
        config = noiseless_config(a=3.0)
        dataset = simulate_experiment(params, [0.5, 1.0, 2.0], config, spawn_rng(1))
        for obs in dataset.observations:
            assert obs.ct == 3.0 - math.log2(10**4)

    def test_free_growth_everywhere(self):
        # alpha so small no cell ever dies: ct = a - log2(x0) - n
        params = GrowthParams(1e-300, 1.0)
        config = noiseless_config()
        dataset = simulate_experiment(params, [0.5, 1.0], config, spawn_rng(1))
        for obs in dataset.observations:
            assert obs.ct == -math.log2(2**10 * 10**4)

    def test_mean_ct_follows_the_dose_response_sigmoid(self):
        # mean Ct rises with concentration and tracks a - log2(x0 * mu_n(m(c)))
        params = GrowthParams(10.0, 1.0)
        config = MeasurementConfig(a=0.0, sigma_eps=0.2, x0=10_000, n_generations=10, replicates=5)
        grid = [2.0**k for k in range(-7, 1)]
        dataset = simulate_experiment(params, grid, config, spawn_rng(8))
        means = [np.mean(dataset.cts_at(c)) for c in grid]
        assert all(b > a for a, b in zip(means, means[1:]))
        for c, observed in zip(grid, means):
            m = 2.0 / (1.0 + 10.0 * c)
            predicted = -math.log2(10**4 * mean_total_from_mean(m, 10))
            assert observed == pytest.approx(predicted, abs=5 * 0.2 / math.sqrt(5))

    def test_noiseless_mean_ct_increases_with_concentration(self):
        # zero noise: lanes with more expected growth (smaller c) read lower
        config = noiseless_config(replicates=4)
        grid = [2.0**k for k in range(-7, 3)]
        dataset = simulate_experiment(GrowthParams(10, 1), grid, config, spawn_rng(21))
        means = [np.mean(dataset.cts_at(c)) for c in grid]
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_replicate_numbering_and_config_attached(self):
        config = noiseless_config(replicates=4)
        dataset = simulate_experiment(GrowthParams(10, 1), [0.25], config, spawn_rng(2))
        assert [obs.replicate for obs in dataset.observations] == [1, 2, 3, 4]
        assert dataset.config == config

    def test_untreated_sentinel_lane(self):
        config = noiseless_config()
        dataset = simulate_experiment(
            GrowthParams(10, 1), [0.25, 0.5], config, spawn_rng(2), untreated_lane=2**-8
        )
        assert dataset.concentrations()[0] == 2**-8
        # the control lane grows freely: exactly n doublings when noiseless
        for ct in dataset.cts_at(2**-8):
            assert ct == -math.log2(2**10 * 10**4)

    def test_sentinel_must_sit_below_grid(self):
        # the sentinel and the lowest lane are a grid, refused by its rule before any draw
        for sentinel, message in [
            (0.5, "concentrations must be strictly increasing, got 0.5 then 0.25"),
            (0.25, "concentrations must be strictly increasing, got 0.25 then 0.25"),
            (math.nan, "concentrations must be finite and positive, got nan"),
            (0.0, "concentrations must be finite and positive, got 0.0"),
        ]:
            rng = spawn_rng(2)
            state = rng.bit_generator.state
            with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
                simulate_experiment(
                    GrowthParams(10, 1), [0.25, 1.0], noiseless_config(), rng,
                    untreated_lane=sentinel,
                )
            assert rng.bit_generator.state == state

    def test_twin_sentinel_is_refused_before_any_draw(self):
        # a sentinel a relative 1e-10 below the grid names the grid's lowest lane
        rng = spawn_rng(2)
        state = rng.bit_generator.state
        message = r"^concentrations 0\.249999999975 and 0\.25 are distinct but name the same lane$"
        with pytest.raises(InvalidParameterError, match=message):
            simulate_experiment(
                GrowthParams(10, 1),
                [0.25, 0.5],
                noiseless_config(),
                rng,
                untreated_lane=0.25 * (1 - 1e-10),
            )
        assert rng.bit_generator.state == state

    def test_grid_validation(self):
        config = noiseless_config()
        with pytest.raises(InvalidParameterError):
            simulate_experiment(GrowthParams(10, 1), [], config, spawn_rng(0))
        # the ordering message names the two values that collide
        with pytest.raises(InvalidParameterError, match=r"0\.5 then 0\.5"):
            simulate_experiment(GrowthParams(10, 1), [0.5, 0.5], config, spawn_rng(0))
        with pytest.raises(InvalidParameterError, match=r"0\.5 then 0\.25"):
            simulate_experiment(GrowthParams(10, 1), [0.125, 0.5, 0.25], config, spawn_rng(0))
        with pytest.raises(InvalidParameterError):
            simulate_experiment(GrowthParams(10, 1), [-1.0, 0.5], config, spawn_rng(0))
        with pytest.raises(InvalidParameterError, match="same lane"):
            simulate_experiment(GrowthParams(10, 1), [2**-5, TWIN], config, spawn_rng(0))


class TestDatasetType:
    @pytest.mark.parametrize(
        "row, message",
        [
            ((0.25, 0, -10.0), "replicate must be >= 1, got 0"),
            ((0.25, 1, math.nan), "ct must be finite, got nan"),
            ((-0.25, 1, -10.0), "concentration must be finite and positive, got -0.25"),
            # a replicate is an integer: a float or a digit string once wrote
            # a plate that read_dataset refused
            ((0.25, 1.5, -10.0), "replicate must be an integer, got 1.5"),
            ((0.25, 1.0, -10.0), "replicate must be an integer, got 1.0"),
            ((0.25, "1", -10.0), "replicate must be an integer, got '1'"),
        ],
        ids=["zero-replicate", "nan-ct", "negative-concentration", "fractional-replicate",
             "float-replicate", "text-replicate"],
    )
    def test_row_rules_are_checked_by_the_dataset(self, row, message):
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            plate([(0.5, 1, -9.0), row])
        # the first faulty row is named, whichever rule the later one breaks
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            plate([(0.5, np.int64(1), -9.0), row, (-1.0, 2.5, math.nan)])

    @pytest.mark.parametrize("replicate", [True, np.int64(2), np.uint8(3), 4])
    def test_an_integer_replicate_is_held_as_an_int_and_reads_back(self, replicate):
        dataset = plate([(0.25, replicate, -10.0), (0.5, 1, -9.0)])
        assert type(dataset.replicate[0]) is int and dataset.replicate[0] == replicate
        buffer = io.StringIO()
        write_dataset(dataset, buffer)
        assert read_dataset(io.StringIO(buffer.getvalue())) == dataset

    def test_grouped_returns_a_copy(self):
        dataset = plate([(0.25, 1, -2.0), (0.5, 1, -1.0)])
        groups = dataset.grouped()
        groups[0.25] = (99.0,)
        del groups[0.5]
        assert dataset.grouped() == {0.25: (-2.0,), 0.5: (-1.0,)}
        assert dataset.cts_at(0.25) == (-2.0,) and dataset.concentrations() == (0.25, 0.5)

    def test_duplicate_pairs_rejected(self):
        with pytest.raises(InvalidParameterError):
            plate([(0.25, 1, -10.0), (0.25, 1, -11.0)])

    def test_grouping(self):
        dataset = plate([(0.5, 1, -1.0), (0.25, 1, -2.0), (0.5, 2, -3.0)])
        assert dataset.concentrations() == (0.25, 0.5)
        assert dataset.grouped() == {0.25: (-2.0,), 0.5: (-1.0, -3.0)}

    def test_twin_lanes_rejected(self):
        # grouped() would see two lanes where cts_at(2**-5) sees one
        with pytest.raises(InvalidParameterError, match="same lane"):
            plate([(2**-5, 1, -10.0), (2**-5, 2, -10.5), (TWIN, 1, -11.0)])

    def test_lanes_a_millionth_apart_are_distinct(self):
        near = 2**-5 * (1 + 1e-6)
        dataset = plate([(2**-5, 1, -10.0), (near, 1, -11.0)])
        assert dataset.grouped() == {2**-5: (-10.0,), near: (-11.0,)}
        assert dataset.cts_at(2**-5) == (-10.0,)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.25, 0.5, 2**-5, TWIN, 0.0, -0.25, math.inf, math.nan]),
                st.integers(min_value=-1, max_value=3),
                st.one_of(st.sampled_from([-10.0, -9.5]), st.floats()),
            ),
            max_size=10,
        ),
        st.sampled_from([None, 0, 1, 2]),
    )
    @example([(0.25, 1, -10.0), (0.25, 0, math.nan), (0.25, 1, -9.5)], None)
    @example([(0.5, 1, -10.0), (0.25, 2, -9.5), (0.5, 1, math.inf)], None)
    @example([(0.25, 1, -10.0), (2**-5, 1, -9.5), (TWIN, 2, -9.5)], None)
    @example([(0.25, 1, -10.0), (0.25, 0, math.nan)], 2)
    @settings(max_examples=300)
    def test_rows_give_their_columns_or_the_first_fault(self, rows, short):
        # the rows' columns, as lists; the one ``short`` names lacks its last well
        columns = [list(column) for column in zip(*rows)] or [[], [], []]
        if short is not None and rows:
            del columns[short][-1]
            expected = f"columns must be of equal length, got {tuple(map(len, columns))!r}"
        else:
            expected = reference_first_fault(rows)
        try:
            dataset = CtDataset(*columns)
        except InvalidParameterError as exc:
            assert str(exc) == expected
        else:
            assert expected is None
            # a plate equals the plain tuple of its columns, as tuples, and its config
            assert dataset == (*map(tuple, columns), None)

    def test_lane_lookup_follows_the_concentration_rule(self):
        dataset = plate([(0.5, 1, -1.0), (0.5, 2, -3.0)])
        assert dataset.cts_at(0.5 * (1 + 1e-10)) == (-1.0, -3.0)
        assert dataset.cts_at(0.5 * (1 + 1e-6)) == ()


class TestCsvRoundTrip:
    def test_header_only_is_empty(self):
        dataset = read_dataset(io.StringIO("concentration,replicate,ct\n"))
        assert len(dataset) == 0 and dataset.config is None

    def test_three_replicates_one_lane(self):
        text = "concentration,replicate,ct\n0.25,1,-10.5\n0.25,2,-10.6\n0.25,3,-10.4\n"
        dataset = read_dataset(io.StringIO(text))
        assert dataset.concentrations() == (0.25,)
        assert [obs.replicate for obs in dataset.observations] == [1, 2, 3]

    def test_write_then_read_is_identity(self):
        config = MeasurementConfig(a=20.0, sigma_eps=0.2)
        dataset = simulate_experiment(
            GrowthParams(10, 1), [2**-6, 2**-4, 2**-2], config, spawn_rng(77)
        )
        buffer = io.StringIO()
        write_dataset(dataset, buffer)
        recovered = read_dataset(io.StringIO(buffer.getvalue()))
        assert recovered.observations == dataset.observations

    def test_serialization_is_canonical(self):
        # a second write of the parsed file reproduces the bytes exactly
        text = "concentration,replicate,ct\n0.015625,1,-21.5\n0.0625,1,-18.25\n"
        first = io.StringIO()
        write_dataset(read_dataset(io.StringIO(text)), first)
        second = io.StringIO()
        write_dataset(read_dataset(io.StringIO(first.getvalue())), second)
        assert first.getvalue() == second.getvalue()

    def test_concentrations_written_as_decimal_literals(self):
        dataset = plate([(2**-20, 1, -5.0)])
        buffer = io.StringIO()
        write_dataset(dataset, buffer)
        assert "e" not in buffer.getvalue().lower().splitlines()[1]

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-30, max_value=8),
                st.integers(min_value=1, max_value=6),
                st.floats(min_value=-60.0, max_value=60.0, allow_nan=False),
            ),
            max_size=30,
            unique_by=lambda t: (t[0], t[1]),
        )
    )
    @settings(max_examples=100)
    def test_round_trip_property(self, rows):
        dataset = plate((2.0**e, rep, ct) for e, rep, ct in rows)
        buffer = io.StringIO()
        write_dataset(dataset, buffer)
        recovered = read_dataset(io.StringIO(buffer.getvalue()))
        assert recovered.observations == dataset.observations

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(1e16)
    @example(1e22)
    @example(1.7976931348623157e308)
    @settings(max_examples=500)
    def test_floats_are_written_as_numpy_writes_them(self, value):
        # the positional form numpy's shortest-repr formatter gives, byte for byte
        assert _format_float(value) == np.format_float_positional(value, unique=True, trim="0")

    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with U+FEFF
        text = "concentration,replicate,ct\n0.25,1,-10.5\n"
        expected = read_dataset(io.StringIO(text))
        path = tmp_path / "excel.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert read_dataset(path) == expected
        assert read_dataset(io.StringIO("\ufeff" + text)) == expected
        # one mark, at the start of the first name, and no more
        with pytest.raises(DatasetFormatError, match=r"^line 1: missing column\(s\) \['concentration'\]"):
            read_dataset(io.StringIO("\ufeff\ufeff" + text))

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "lanes.csv"
        dataset = plate([(0.125, 1, -12.75)])
        write_dataset(dataset, path)
        assert read_dataset(path).observations == dataset.observations


class TestCsvErrors:
    def test_malformed_number_names_the_line(self):
        text = "concentration,replicate,ct\n0.25,1,-10.5\noops,2,-10.6\n"
        with pytest.raises(DatasetFormatError, match="line 3") as exc_info:
            read_dataset(io.StringIO(text))
        assert exc_info.value.line == 3

    def test_malformed_replicate(self):
        text = "concentration,replicate,ct\n0.25,first,-10.5\n"
        with pytest.raises(DatasetFormatError) as exc_info:
            read_dataset(io.StringIO(text))
        assert str(exc_info.value) == "line 2: malformed integer 'first' in column 'replicate'"

    def test_missing_column(self):
        with pytest.raises(DatasetFormatError, match="ct"):
            read_dataset(io.StringIO("concentration,replicate\n0.25,1\n"))

    def test_reordered_header(self):
        with pytest.raises(DatasetFormatError, match="header must be exactly") as exc_info:
            read_dataset(io.StringIO("replicate,concentration,ct\n1,0.25,-10.5\n"))
        assert exc_info.value.line == 1

    def test_source_that_is_neither_path_nor_stream(self):
        with pytest.raises(InvalidParameterError, match="path or text stream"):
            read_dataset(42)

    def test_duplicate_key_names_the_line(self):
        text = "concentration,replicate,ct\n0.25,1,-10.5\n0.25,1,-10.6\n"
        with pytest.raises(DatasetFormatError, match="line 3") as exc_info:
            read_dataset(io.StringIO(text))
        assert exc_info.value.line == 3
        assert str(exc_info.value) == "line 3: duplicate (concentration, replicate) pair (0.25, 1)"

    def test_twin_lanes_rejected(self):
        text = f"concentration,replicate,ct\n0.03125,1,-10.5\n0.03125,2,-10.6\n{TWIN!r},1,-10.4\n"
        with pytest.raises(DatasetFormatError, match="same lane") as exc_info:
            read_dataset(io.StringIO(text))
        # a fault of the whole grid, not of its last row
        assert exc_info.value.line is None
        assert str(exc_info.value).startswith("concentrations 0.03125 and ")

    @pytest.mark.parametrize(
        "rows, expected",
        [
            (["0.25,1,-10.5", "0.25,1,-10.6", "oops,2,-10.6"],
             "line 3: duplicate (concentration, replicate) pair (0.25, 1)"),
            (["0.25,1,-10.5", "oops,2,-10.6", "0.25,1,-10.6"],
             "line 3: malformed number 'oops' in column 'concentration'"),
            # a quoted field spans lines 2-3, so the duplicate sits on line 4
            (['1,1,"3\n"', "1,1,5"],
             "line 4: duplicate (concentration, replicate) pair (1.0, 1)"),
        ],
        ids=["rule-first", "parse-first", "record-spans-lines"],
    )
    def test_the_first_faulty_row_is_reported(self, rows, expected):
        text = "concentration,replicate,ct\n" + "\n".join(rows) + "\n"
        with pytest.raises(DatasetFormatError) as exc_info:
            read_dataset(io.StringIO(text))
        assert str(exc_info.value) == expected

    def test_the_columns_are_checked_once(self, monkeypatch):
        # one check of the parsed columns per file, whether it holds or a
        # later row fails to parse
        from bactipot import measurement

        checked = []
        check = measurement._check_columns
        def counted(*columns):
            checked.append(tuple(map(tuple, columns[:3])))
            return check(*columns)

        monkeypatch.setattr(measurement, "_check_columns", counted)
        text = "concentration,replicate,ct\n0.25,1,-10.5\n0.25,2,-10.6\n0.5,1,-9.0\n"
        dataset = read_dataset(io.StringIO(text))
        assert checked == [(dataset.concentration, dataset.replicate, dataset.ct)]
        checked.clear()
        with pytest.raises(DatasetFormatError, match="^line 3: malformed number 'oops'"):
            read_dataset(io.StringIO("concentration,replicate,ct\n0.25,1,-10.5\noops,1,-9.0\n"))
        assert checked == [((0.25,), (1,), (-10.5,))]

    @pytest.mark.parametrize(
        "row", ['1,1,"3\n', '1,1,"3"x\n'], ids=["ends-inside-a-quote", "text-after-a-quote"]
    )
    def test_a_quote_must_close_its_field(self, row):
        # a file cut inside a quoted field once gave a dataset of the rows before the cut
        with pytest.raises(DatasetFormatError, match="^line 2: malformed CSV: ") as exc_info:
            read_dataset(io.StringIO("concentration,replicate,ct\n" + row))
        assert exc_info.value.line == 2

    def test_wrong_field_count(self):
        with pytest.raises(DatasetFormatError, match="3 fields"):
            read_dataset(io.StringIO("concentration,replicate,ct\n0.25,1\n"))

    def test_empty_file(self):
        with pytest.raises(DatasetFormatError, match="header"):
            read_dataset(io.StringIO(""))

    def test_infinite_concentration_names_the_line(self):
        text = "concentration,replicate,ct\n0.5,1,3.0\ninf,1,3.0\n"
        with pytest.raises(DatasetFormatError, match="line 3") as exc_info:
            read_dataset(io.StringIO(text))
        assert "finite" in str(exc_info.value)

    def test_nonpositive_concentration(self):
        with pytest.raises(DatasetFormatError, match="line 2"):
            read_dataset(io.StringIO("concentration,replicate,ct\n-0.25,1,-10.5\n"))


#: Text shaped like a dataset: the header, then rows of CSV-ish fields.
csv_like_text = st.builds(
    lambda body: ",".join(CSV_COLUMNS) + "\n" + body,
    st.text(alphabet="0123456789.,-+e\"\n\r infa_"),
)


@given(st.one_of(st.text(), csv_like_text))
@settings(max_examples=300)
def test_any_text_gives_a_dataset_or_a_format_error(text):
    try:
        dataset = read_dataset(io.StringIO(text))
    except DatasetFormatError:
        return
    assert isinstance(dataset, CtDataset)
