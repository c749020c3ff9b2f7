"""Ct synthesis and dataset CSV round-tripping."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bactipot import (
    CtDataset,
    CtObservation,
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


#: Names the lane at 2**-5 by ``same_concentration`` without being equal to it.
TWIN = 2**-5 * (1 + 1e-10)


def noiseless_config(**overrides):
    base = dict(a=0.0, sigma_eps=0.0, x0=10_000, n_generations=10, replicates=3)
    base.update(overrides)
    return MeasurementConfig(**base)


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
        with pytest.raises(InvalidParameterError):
            simulate_experiment(
                GrowthParams(10, 1), [0.25], noiseless_config(), spawn_rng(2), untreated_lane=0.5
            )

    def test_grid_validation(self):
        config = noiseless_config()
        with pytest.raises(InvalidParameterError):
            simulate_experiment(GrowthParams(10, 1), [], config, spawn_rng(0))
        with pytest.raises(InvalidParameterError):
            simulate_experiment(GrowthParams(10, 1), [0.5, 0.5], config, spawn_rng(0))
        with pytest.raises(InvalidParameterError):
            simulate_experiment(GrowthParams(10, 1), [-1.0, 0.5], config, spawn_rng(0))
        with pytest.raises(InvalidParameterError, match="same lane"):
            simulate_experiment(GrowthParams(10, 1), [2**-5, TWIN], config, spawn_rng(0))


class TestDatasetType:
    def test_duplicate_pairs_rejected(self):
        obs = (CtObservation(0.25, 1, -10.0), CtObservation(0.25, 1, -11.0))
        with pytest.raises(InvalidParameterError):
            CtDataset(obs)

    def test_grouping(self):
        dataset = CtDataset(
            (
                CtObservation(0.5, 1, -1.0),
                CtObservation(0.25, 1, -2.0),
                CtObservation(0.5, 2, -3.0),
            )
        )
        assert dataset.concentrations() == (0.25, 0.5)
        assert dataset.grouped() == {0.25: (-2.0,), 0.5: (-1.0, -3.0)}

    def test_twin_lanes_rejected(self):
        # grouped() would see two lanes where cts_at(2**-5) sees one
        obs = (
            CtObservation(2**-5, 1, -10.0),
            CtObservation(2**-5, 2, -10.5),
            CtObservation(TWIN, 1, -11.0),
        )
        with pytest.raises(InvalidParameterError, match="same lane"):
            CtDataset(obs)

    def test_lanes_a_millionth_apart_are_distinct(self):
        near = 2**-5 * (1 + 1e-6)
        dataset = CtDataset((CtObservation(2**-5, 1, -10.0), CtObservation(near, 1, -11.0)))
        assert dataset.grouped() == {2**-5: (-10.0,), near: (-11.0,)}
        assert dataset.cts_at(2**-5) == (-10.0,)

    def test_lane_lookup_follows_the_concentration_rule(self):
        dataset = CtDataset((CtObservation(0.5, 1, -1.0), CtObservation(0.5, 2, -3.0)))
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
        dataset = CtDataset((CtObservation(2**-20, 1, -5.0),))
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
        observations = tuple(
            CtObservation(2.0**e, rep, ct) for e, rep, ct in rows
        )
        dataset = CtDataset(observations)
        buffer = io.StringIO()
        write_dataset(dataset, buffer)
        recovered = read_dataset(io.StringIO(buffer.getvalue()))
        assert recovered.observations == dataset.observations

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "lanes.csv"
        dataset = CtDataset((CtObservation(0.125, 1, -12.75),))
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
        with pytest.raises(DatasetFormatError, match="replicate"):
            read_dataset(io.StringIO(text))

    def test_missing_column(self):
        with pytest.raises(DatasetFormatError, match="ct"):
            read_dataset(io.StringIO("concentration,replicate\n0.25,1\n"))

    def test_duplicate_key_names_the_line(self):
        text = "concentration,replicate,ct\n0.25,1,-10.5\n0.25,1,-10.6\n"
        with pytest.raises(DatasetFormatError, match="line 3"):
            read_dataset(io.StringIO(text))

    def test_twin_lanes_rejected(self):
        text = f"concentration,replicate,ct\n0.03125,1,-10.5\n0.03125,2,-10.6\n{TWIN!r},1,-10.4\n"
        with pytest.raises(DatasetFormatError, match="same lane"):
            read_dataset(io.StringIO(text))

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
