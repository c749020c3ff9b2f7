"""Command-line interface: parsing, outputs, exit codes, determinism."""

import contextlib
import csv
import functools
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from bactipot import (
    MAX_COUNT,
    InvalidParameterError,
    dist_from_mean,
    simulate_batch,
    spawn_rng,
)
from bactipot.cli import UsageError, _parse_grid, _parse_number, main
from bactipot.measurement import check_grid


@pytest.fixture()
def run(capsys, monkeypatch):
    """Invoke the CLI in-process and capture (exit status, stdout, stderr)."""

    monkeypatch.delenv("BACTIPOT_SEED", raising=False)

    def invoke(*argv, stdin=None):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        status = main(list(argv))
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    return invoke


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


ROOT = Path(__file__).resolve().parents[1]


def cli_env():
    """Environment for a ``python -m bactipot.cli`` subprocess on this checkout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestSimulate:
    def test_pure_doubling_trajectory(self, run):
        status, out, err = run(
            "simulate", "--m", "2", "--x0", "1", "--gens", "10", "--reps", "1"
        )
        assert status == 0
        rows = parse_csv(out)
        assert rows[0] == ["generation", "alive", "dead", "total"]
        assert rows[-1] == ["10", "1024", "0", "1024"]
        assert "seed=0" in err

    def test_replicate_summary(self, run):
        status, out, _ = run(
            "simulate", "--m", "1.5", "--x0", "100", "--gens", "5", "--reps", "4", "--seed", "9"
        )
        rows = parse_csv(out)
        assert rows[0] == ["replicate", "alive", "dead", "total"]
        assert [r[0] for r in rows[1:]] == ["1", "2", "3", "4"]

    def test_replicates_are_one_batch(self, run):
        _, out, _ = run(
            "simulate", "--m", "1.5", "--x0", "100", "--gens", "5", "--reps", "4", "--seed", "9"
        )
        alive, dead = simulate_batch(100, dist_from_mean(1.5), 5, 4, spawn_rng(9, 0))
        assert parse_csv(out)[1:] == [
            [str(i), str(a), str(d), str(a + d)]
            for i, (a, d) in enumerate(zip(alive.tolist(), dead.tolist()), start=1)
        ]

    def test_replicates_below_one_is_usage_error(self, run):
        status, out, err = run("simulate", "--m", "1.5", "--reps", "0")
        assert status == 2 and out == "" and "--reps" in err

    def test_explicit_probabilities(self, run):
        status, out, _ = run(
            "simulate", "--p0", "1", "--p1", "0", "--p2", "0", "--x0", "5", "--gens", "3"
        )
        assert status == 0
        assert parse_csv(out)[-1] == ["3", "0", "5", "5"]

    def test_m_and_probabilities_conflict(self, run):
        status, _, err = run("simulate", "--m", "1.5", "--p0", "0.25")
        assert status == 2 and "usage error" in err

    def test_incomplete_probabilities_are_usage_error(self, run):
        status, out, err = run("simulate", "--p0", "0.5")
        assert status == 2 and out == ""
        assert err == "bactipot: usage error: give either --m or all of --p0, --p1, --p2\n"

    @pytest.mark.parametrize(
        "args, expected",
        [
            (
                "--m 1.73 --x0 10000 --gens 10 --reps 1 --seed 7",
                "generation,alive,dead,total\n"
                "0,10000,0,10000\n"
                "1,17356,1322,18678\n"
                "2,30040,3658,33698\n"
                "3,51766,7815,59581\n"
                "4,89760,14701,104461\n"
                "5,155386,26768,182154\n"
                "6,268898,47705,316603\n"
                "7,465412,83897,549309\n"
                "8,805006,146806,951812\n"
                "9,1392280,255672,1647952\n"
                "10,2407438,444233,2851671\n",
            ),
            (
                "--p0 0.2 --p1 0.3 --p2 0.5 --x0 1000 --gens 12 --seed 3",
                "generation,alive,dead,total\n"
                "0,1000,0,1000\n"
                "1,1261,212,1473\n"
                "2,1642,464,2106\n"
                "3,2065,818,2883\n"
                "4,2688,1217,3905\n"
                "5,3436,1778,5214\n"
                "6,4397,2488,6885\n"
                "7,5784,3309,9093\n"
                "8,7444,4540,11984\n"
                "9,9668,5995,15663\n"
                "10,12599,7920,20519\n"
                "11,16239,10521,26760\n"
                "12,21078,13798,34876\n",
            ),
            (
                "--m 1.73 --x0 10000 --gens 10 --reps 5 --seed 7",
                "replicate,alive,dead,total\n"
                "1,2408372,444336,2852708\n"
                "2,2410696,442760,2853456\n"
                "3,2386552,440946,2827498\n"
                "4,2412536,444333,2856869\n"
                "5,2387744,441093,2828837\n",
            ),
        ],
        ids=["death-or-divide", "general-law", "replicates"],
    )
    def test_seeded_trajectory_bytes(self, run, args, expected):
        # a single seeded trajectory keeps its exact bytes
        status, out, _ = run("simulate", *args.split())
        assert status == 0 and out == expected


class TestSynthAndFit:
    def test_synth_emits_dataset_csv(self, run):
        status, out, _ = run(
            "synth",
            "--alpha", "10", "--beta", "1",
            "--grid", "2^-6,2^-4,2^-2",
            "--reps", "3", "--seed", "4",
        )
        assert status == 0
        rows = parse_csv(out)
        assert rows[0] == ["concentration", "replicate", "ct"]
        assert len(rows) == 1 + 9
        assert rows[1][0] == "0.015625"

    def test_synth_fit_pipe_noiseless_composition(self, run):
        # a noiseless synth piped into fit recovers the generating curve up
        # to branching noise: calibration lanes sit deep in the kill zone,
        # the untreated control lane pins the generation count, and the fit
        # uses the informative middle of the curve
        status, dataset_csv, _ = run(
            "synth",
            "--alpha", "10", "--beta", "1",
            "--grid", "2^-6,2^-5,2^-4,2^-3,2^-2,2^-1,64,128,256,512",
            "--untreated-lane", "2^-8",
            "--a", "20", "--sigma-eps", "0", "--x0", "1000000",
            "--reps", "3", "--seed", "11",
        )
        assert status == 0
        status, out, _ = run(
            "fit",
            "--input", "-",
            "--high-c", "64", "--low-c", "2^-8", "--x0", "1000000",
            "--fit-c", "2^-6,2^-5,2^-4,2^-3,2^-2,2^-1",
            "--no-timestamp",
            stdin=dataset_csv,
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["n_used"] == 10
        assert payload["a_hat"] == pytest.approx(20.0, abs=0.01)
        assert payload["alpha_hat"] == pytest.approx(10.0, rel=0.02)
        assert payload["beta_hat"] == pytest.approx(1.0, rel=0.02)
        assert payload["mic_hat"] == pytest.approx(0.1, rel=0.02)

    def test_fit_from_file_with_explicit_lanes(self, run, tmp_path):
        status, dataset_csv, _ = run(
            "synth",
            "--alpha", "10", "--beta", "1",
            "--grid", "2^-7,2^-6,2^-5,2^-4,2^-3,2^-2,2^-1,1,2,4,8,16",
            "--a", "20", "--seed", "2",
        )
        path = tmp_path / "plate.csv"
        path.write_text(dataset_csv)
        status, out, _ = run(
            "fit",
            "--input", str(path),
            "--high-c", "2", "--low-c", "2^-7", "--x0", "10000",
            "--fit-c", "2^-5,2^-4,2^-2,2^-1",
            "--no-timestamp",
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["used_concentrations"] == [2**-5, 2**-4, 2**-2, 2**-1]
        assert payload["covariance"] is not None

    @pytest.mark.parametrize("source", ["stdin", "path"])
    def test_fit_accepts_a_byte_order_mark(self, run, tmp_path, source):
        # Excel's "CSV UTF-8" export starts the file with U+FEFF
        _, dataset_csv, _ = run(
            "synth",
            "--alpha", "10", "--beta", "1",
            "--grid", "2^-7,2^-6,2^-5,2^-4,2^-3,2^-2,2^-1,1,2,4,8,16",
            "--a", "20", "--seed", "2",
        )
        argv = ["fit", "--high-c", "2", "--low-c", "2^-7", "--x0", "10000", "--no-timestamp"]
        _, plain, _ = run(*argv, "--input", "-", stdin=dataset_csv)
        if source == "stdin":
            status, out, err = run(*argv, "--input", "-", stdin="\ufeff" + dataset_csv)
        else:
            path = tmp_path / "plate.csv"
            path.write_bytes(b"\xef\xbb\xbf" + dataset_csv.encode())
            status, out, err = run(*argv, "--input", str(path))
        assert (status, err) == (0, "")
        assert out == plain and json.loads(out)["n_used"] > 0

    def test_synth_fit_pipe_noisy_within_band(self, run):
        # realistic noise: the recovered scale parameter lands inside the
        # reported 3 sigma / sqrt(N) plug-in band
        status, dataset_csv, _ = run(
            "synth",
            "--alpha", "10", "--beta", "1",
            "--grid", "2^-7,2^-6,2^-5,2^-4,2^-3,2^-2,2^-1,1,2,4,8,16",
            "--a", "20", "--sigma-eps", "0.2", "--x0", "10000",
            "--reps", "3", "--seed", "13",
        )
        assert status == 0
        status, out, _ = run(
            "fit",
            "--input", "-",
            "--high-c", "2", "--low-c", "2^-7", "--x0", "10000",
            "--no-timestamp",
            stdin=dataset_csv,
        )
        assert status == 0
        payload = json.loads(out)
        band = 3 * (payload["covariance"]["sigma2_alpha"] / 3) ** 0.5
        assert abs(payload["alpha_hat"] - 10.0) <= band

    def test_fit_accepts_shuffled_rows(self, run, tmp_path):
        # row order in the CSV is irrelevant to the fit
        status, dataset_csv, _ = run(
            "synth",
            "--alpha", "10", "--beta", "1",
            "--grid", "2^-7,2^-6,2^-5,2^-4,2^-3,2^-2,2^-1,1,2,4,8,16",
            "--a", "20", "--seed", "6",
        )
        lines = dataset_csv.strip().splitlines()
        shuffled = [lines[0]] + lines[:0:-1]
        fit_args = (
            "fit", "--high-c", "2", "--low-c", "2^-7", "--x0", "10000", "--no-timestamp"
        )
        status, out_sorted, _ = run(*fit_args, "--input", "-", stdin=dataset_csv)
        assert status == 0
        status, out_shuffled, _ = run(
            *fit_args, "--input", "-", stdin="\n".join(shuffled) + "\n"
        )
        assert status == 0
        assert json.loads(out_sorted)["alpha_hat"] == json.loads(out_shuffled)["alpha_hat"]

    def test_fit_missing_file_is_usage_error(self, run):
        status, _, err = run(
            "fit", "--input", "/nonexistent.csv", "--high-c", "2", "--low-c", "1", "--x0", "10"
        )
        assert status == 2 and "--input" in err

    @pytest.mark.parametrize(
        "low, high",
        [
            ((3.0, 4.0), (1e308,) * 4),  # the calibration sum overflows
            ((-1.7e308,), (8e307, 8e307)),  # the generation count overflows
        ],
    )
    def test_fit_huge_ct_values_is_data_error(self, run, low, high):
        lanes = ((0.25, low), (0.5, high[:2]), (1, high[2:]))
        rows = [f"{c},{r},{ct!r}" for c, cts in lanes for r, ct in enumerate(cts, 1)]
        status, out, err = run(
            "fit", "--input", "-", "--high-c", "0.5", "--low-c", "0.25", "--x0", "10",
            stdin="concentration,replicate,ct\n" + "\n".join(rows) + "\n",
        )
        assert status == 1 and out == ""
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def test_fit_oversized_field_is_data_error(self, run):
        text = "concentration,replicate,ct\n0.25,1," + "9" * 200_000 + "\n"
        status, out, err = run(
            "fit", "--input", "-", "--high-c", "2", "--low-c", "1", "--x0", "10", stdin=text
        )
        assert status == 1 and out == "" and "line 2" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "row", ['1,1,"3\n', '1,1,"3"x\n'], ids=["ends-inside-a-quote", "text-after-a-quote"]
    )
    def test_fit_unclosed_quote_is_data_error(self, run, row):
        status, out, err = run(
            "fit", "--input", "-", "--high-c", "2", "--low-c", "1", "--x0", "10",
            stdin="concentration,replicate,ct\n" + row,
        )
        assert status == 1 and out == ""
        assert err.startswith("bactipot: error: line 2: malformed CSV: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("source", ["path", "stdin"])
    def test_fit_text_that_is_not_utf8_is_data_error(self, run, tmp_path, monkeypatch, source):
        raw = "concentration,replicate,ct\n0.25,1,3.0 \u00b5g\n".encode("latin-1")
        path = tmp_path / "latin1.csv"
        path.write_bytes(raw)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
        status, out, err = run(
            "fit", "--input", str(path) if source == "path" else "-",
            "--high-c", "2", "--low-c", "1", "--x0", "10",
        )
        assert status == 1 and out == "" and "UTF-8" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def test_fit_header_only_is_data_error(self, run):
        status, out, err = run(
            "fit", "--input", "-", "--high-c", "2", "--low-c", "1", "--x0", "10",
            stdin="concentration,replicate,ct\n",
        )
        assert status == 1 and out == ""
        assert err == "bactipot: error: dataset holds no observations\n"

    def test_fit_bad_data_is_data_error(self, run, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("concentration,replicate,ct\n0.25,1,oops\n")
        status, _, err = run(
            "fit", "--input", str(path), "--high-c", "2", "--low-c", "1", "--x0", "10"
        )
        assert status == 1 and "line 2" in err


#: SHA-256 of the concatenated ``fit --no-timestamp`` output of the 50
#: ``golden_fit_runs`` plates. A change that moves any byte of ``fit``'s
#: output changes it; a speedup must leave it alone.
FIT_GOLDEN_SHA256 = "b2371aa331de0e8ac306ff856c99ff7eda21caccdfa5dce4d9a48f227f0923a4"


def golden_fit_runs():
    """50 plates on the 12-lane ladder with an untreated lane, as (CSV, fit argv).

    Plates cycle through 8, 10 and 12 generations (so ``n_used`` takes three
    values) and alternate the auto band with explicit ``--fit-c`` lanes.
    """
    from bactipot import GrowthParams, MeasurementConfig, simulate_experiment, write_dataset

    ladder = [2.0**k for k in range(-7, 5)]
    for i in range(50):
        gens = (8, 10, 12)[i % 3]
        config = MeasurementConfig(a=20.0, sigma_eps=0.2, x0=10_000, n_generations=gens)
        if i % 2 == 0:
            params, lanes = GrowthParams(10.0, 1.0), ["--high-c", "2"]
        else:
            params = GrowthParams(9.1, 1.12)
            lanes = ["--high-c", "1", "--fit-c", "2^-5,2^-4,2^-2,2^-1"]
        dataset = simulate_experiment(
            params, ladder, config, spawn_rng(1100, i), untreated_lane=2.0**-8
        )
        out = io.StringIO()
        write_dataset(dataset, out)
        argv = ["fit", "--input", "-", "--low-c", "2^-8", "--x0", "10000", *lanes]
        yield out.getvalue(), [*argv, "--no-timestamp"]


def test_fit_output_bytes_are_pinned(run):
    digest = hashlib.sha256()
    n_used = set()
    for text, argv in golden_fit_runs():
        status, out, _ = run(*argv, stdin=text)
        assert status == 0
        n_used.add(json.loads(out)["n_used"])
        digest.update(out.encode())
    assert n_used == {8, 10, 12}
    assert digest.hexdigest() == FIT_GOLDEN_SHA256


#: SHA-256 of the concatenated ``write_dataset`` text of the 50
#: ``golden_fit_runs`` plates: the synthesized CSV bytes, and so the random
#: stream that draws them, must stay as they are.
SYNTH_GOLDEN_SHA256 = "4da663327476b611f92972e2e56384af40b1efa8b5efc1d84ad800b843724385"


def test_synth_csv_bytes_are_pinned():
    digest = hashlib.sha256()
    for text, _ in golden_fit_runs():
        digest.update(text.encode())
    assert digest.hexdigest() == SYNTH_GOLDEN_SHA256


#: README's CLI commands, as argv, with the SHA-256 of the stdout each prints.
#: ``fit`` is pinned above; ``mc-study`` also runs as JSON, without the
#: timestamp, and ``design-eval`` also as CSV.
README_PINS = {
    "synth": (
        ["synth", "--alpha", "10", "--beta", "1",
         "--grid", "2^-7,2^-6,2^-5,2^-4,2^-3,2^-2,2^-1,1,2,4,8,16",
         "--untreated-lane", "2^-8", "--a", "20", "--sigma-eps", "0.2", "--x0", "10000",
         "--gens", "10", "--reps", "3", "--seed", "1"],
        "628848b5f4abcd892b4bc2d1932c1cea98131dc3d61cc7ab9856e894104733cc",
    ),
    "mc-study-json": (
        ["mc-study", "--alpha", "10", "--beta", "1", "--grid", "2^-6,2^-4,2^-2",
         "--reps", "100", "--measurements", "1000", "--seed", "0", "--no-timestamp"],
        "05015c99522f45f73fb36130e5722e6c685b6f03e059ac9c6070400c7f390d1f",
    ),
    "mc-study-pretty": (
        ["mc-study", "--alpha", "10", "--beta", "1", "--grid", "2^-6,2^-4,2^-2",
         "--reps", "100", "--measurements", "1000", "--seed", "0", "--pretty"],
        "2b38269358e4a2254c112b3c864846fd76fb20de908e197e5dc46df9765a99e6",
    ),
    "design-eval-csv": (
        ["design-eval", "--alpha", "10", "--beta", "1", "--gens", "10", "--sigma-eps", "0.2",
         "--designs", "2^-6,2^-4,2^-2;2^-2,2^-1,1"],
        "b8a603f6223b649042463c910bf0bce74dd4d7c9748f59f1de1d82eec8c335e8",
    ),
    "design-eval-pretty": (
        ["design-eval", "--alpha", "10", "--beta", "1", "--gens", "10", "--sigma-eps", "0.2",
         "--designs", "2^-6,2^-4,2^-2;2^-2,2^-1,1", "--pretty"],
        "9146f419e867810fabc61aa2a4db43f5a4eab505a5d0913a97f817e62a057daa",
    ),
    "curve": (
        ["curve", "--alpha", "10", "--beta", "1", "--range", "2^-9:1", "--points", "200"],
        "35d08951e7c321940aca6d6301642918cdd5f9872247e33f96853d203fb607af",
    ),
}


@pytest.mark.parametrize("name", README_PINS)
def test_readme_output_bytes_are_pinned(run, name):
    argv, expected = README_PINS[name]
    status, out, _ = run(*argv)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected


#: SHA-256 of ``mc-study --no-timestamp`` on the 12-lane ladder. With 8 or
#: more lanes, the order in which the batched fit adds its lanes shows in the
#: last bits of the report.
MC_STUDY_LADDER_SHA256 = "1018fd08ae6bea2bce8edf5c3b3ca57cc8e7c10f29a3b84d9c367779eeec2792"


def test_mc_study_ladder_bytes_are_pinned(run):
    status, out, _ = run(
        "mc-study", "--alpha", "10", "--beta", "1",
        "--grid", "2^-7,2^-6,2^-5,2^-4,2^-3,2^-2,2^-1,1,2,4,8,16",
        "--seed", "1", "--no-timestamp",
    )
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MC_STUDY_LADDER_SHA256


class TestMcStudy:
    def test_small_study_json(self, run):
        status, out, _ = run(
            "mc-study",
            "--alpha", "10", "--beta", "1",
            "--grid", "2^-6,2^-4,2^-2",
            "--reps", "3", "--measurements", "20",
            "--seed", "1", "--threads", "1", "--no-timestamp",
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["meta"]["seed"] == 1
        assert payload["n_measurements"] == 20
        assert payload["theoretical"]["sigma2_alpha"] == pytest.approx(8.6325, rel=1e-3)

    def test_deterministic_output(self, run):
        argv = (
            "mc-study",
            "--alpha", "10", "--beta", "1",
            "--grid", "2^-6,2^-4,2^-2",
            "--reps", "3", "--measurements", "10",
            "--seed", "7", "--threads", "1", "--no-timestamp",
        )
        assert run(*argv)[1] == run(*argv)[1]

    def test_too_few_successes_is_strict_json(self, run):
        # 4 of 5 fits fail, so the empirical moments are undefined; the one
        # success has a positive slope
        status, out, _ = run(
            "mc-study",
            "--alpha", "10", "--beta", "1",
            "--grid", "2,4", "--measurements", "5", "--seed", "2", "--no-timestamp",
        )
        assert status == 0

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        payload = json.loads(out, parse_constant=reject)
        assert payload["failures"] == 4
        assert payload["emp_var_alpha"] is None
        assert payload["mean_alpha"] is not None and payload["mean_beta"] > 0

    def test_a_non_positive_slope_is_a_failure(self, run):
        # sigma_eps 2 on two close lanes: 53 fits fail outright and 74 more fit a
        # slope <= 0, which fit_dataset refuses; the study counts both as failures
        status, out, _ = run(
            "mc-study",
            "--alpha", "10", "--beta", "1",
            "--grid", "2^-6,2^-5", "--sigma-eps", "2", "--reps", "1",
            "--measurements", "250", "--seed", "0", "--no-timestamp",
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["failures"] == 127
        assert payload["mean_beta"] == pytest.approx(1.5904, abs=1e-4)

    def test_zero_threads_is_usage_error(self, run):
        status, _, err = run(
            "mc-study", "--alpha", "10", "--beta", "1", "--grid", "2^-6,2^-4", "--threads", "0"
        )
        assert status == 2 and "--threads" in err

    def test_pretty_table(self, run):
        status, out, _ = run(
            "mc-study",
            "--alpha", "10", "--beta", "1",
            "--grid", "2^-6,2^-4,2^-2",
            "--reps", "3", "--measurements", "10",
            "--seed", "7", "--threads", "1", "--pretty",
        )
        assert status == 0
        assert "asymptotic" in out and "failures: 0" in out


class TestDesignEval:
    def test_reference_row_matches_published_values(self, run):
        status, out, _ = run(
            "design-eval",
            "--alpha", "10", "--beta", "1",
            "--gens", "10", "--sigma-eps", "0.2",
            "--designs", "2^-6,2^-4,2^-2",
        )
        assert status == 0
        rows = parse_csv(out)
        assert rows[0][0] == "design"
        values = [float(v) for v in rows[1][1:5]]
        assert values[0] == pytest.approx(8.63, abs=0.005)
        assert values[1] == pytest.approx(0.25, abs=0.005)
        assert values[2] == pytest.approx(0.00767, abs=5e-6)
        assert values[3] == pytest.approx(0.00012, abs=5e-6)
        assert rows[1][5] == "best"

    def test_multiple_designs_semicolon_and_repeat(self, run):
        status, out, _ = run(
            "design-eval",
            "--alpha", "10", "--beta", "1",
            "--designs", "2^-6,2^-4,2^-2;2^-2,2^-1,1",
            "--designs", "2^-9,2^-8,2^-7",
        )
        rows = parse_csv(out)
        assert len(rows) == 4
        assert [r[5] for r in rows[1:]] == ["best", "ok", "ok"]

    @pytest.mark.parametrize(
        "args, expected",
        [
            (
                "--alpha 1e300 --beta 1 --designs 2^-6,2^-4,2^-2;1,2,4",
                "design,sigma2_alpha,sigma_alphabeta,sigma2_beta,sigma2_theta,status\n"
                "0.015625 0.0625 0.25,,,,,singular\n"
                "1.0 2.0 4.0,,,,,singular\n",
            ),
            (
                "--alpha 1e300 --beta 1 --designs 2^-6,2^-4,2^-2;1,2,4 --pretty",
                "design                s2_alpha  s_alphabeta  s2_beta  s2_theta  status\n"
                "0.0156, 0.0625, 0.25  -         -            -        -         singular\n"
                "1, 2, 4               -         -            -        -         singular\n",
            ),
            (
                # equal variances: the first design stays best
                "--alpha 10 --beta 1 --sigma-eps 0 --designs 2^-6,2^-4,2^-2;2^-2,2^-1,1",
                "design,sigma2_alpha,sigma_alphabeta,sigma2_beta,sigma2_theta,status\n"
                "0.015625 0.0625 0.25,0.0,0.0,0.0,0.0,best\n"
                "0.25 0.5 1.0,0.0,0.0,0.0,0.0,ok\n",
            ),
            (
                "--alpha 10 --beta 1 --sigma-eps 0 --designs 2^-6,2^-4,2^-2;2^-2,2^-1,1 --pretty",
                "design                s2_alpha  s_alphabeta  s2_beta  s2_theta  status\n"
                "0.0156, 0.0625, 0.25  0         0            0        0         best\n"
                "0.25, 0.5, 1          0         0            0        0\n",
            ),
            (
                "--alpha 10 --beta 1 --designs 2^-6,2^-4,2^-2;2^-6,2^-4,2^-2",
                "design,sigma2_alpha,sigma_alphabeta,sigma2_beta,sigma2_theta,status\n"
                "0.015625 0.0625 0.25,8.632510717437967,0.24959896443258844,"
                "0.007668528239327162,0.00012038291610772766,best\n"
                "0.015625 0.0625 0.25,8.632510717437967,0.24959896443258844,"
                "0.007668528239327162,0.00012038291610772766,ok\n",
            ),
            (
                "--alpha 10 --beta 1 --designs 2^-6,2^-4,2^-2;2^-6,2^-4,2^-2 --pretty",
                "design                s2_alpha  s_alphabeta  s2_beta  s2_theta  status\n"
                "0.0156, 0.0625, 0.25  8.63      0.25         0.00767  0.00012   best\n"
                "0.0156, 0.0625, 0.25  8.63      0.25         0.00767  0.00012\n",
            ),
        ],
        ids=["singular", "singular-pretty", "zero", "zero-pretty", "twice", "twice-pretty"],
    )
    def test_output_bytes_are_pinned(self, run, args, expected):
        status, out, _ = run("design-eval", *args.split())
        assert status == 0 and out == expected

    def test_pretty_table(self, run):
        status, out, _ = run(
            "design-eval", "--alpha", "10", "--beta", "1",
            "--designs", "2^-6,2^-4,2^-2", "--pretty",
        )
        assert status == 0 and "best" in out

    def test_pretty_table_prints_zero_as_zero(self, run):
        status, out, _ = run(
            "design-eval", "--alpha", "10", "--beta", "1", "--sigma-eps", "0",
            "--designs", "2^-6,2^-4,2^-2", "--pretty",
        )
        assert status == 0
        cells = out.splitlines()[1].split()
        assert cells == ["0.0156,", "0.0625,", "0.25", "0", "0", "0", "0", "best"]

    def test_pretty_table_marks_a_singular_row(self, run):
        status, out, _ = run(
            "design-eval", "--alpha", "10", "--beta", "1", "--gens", "1023",
            "--designs", "2^-6,2^-4,2^-2;2^-12,2^-11", "--pretty",
        )
        assert status == 0
        cells = out.splitlines()[2].split()
        assert cells == ["0.000244,", "0.000488", "-", "-", "-", "-", "singular"]

    @pytest.mark.parametrize(
        "alpha, beta",
        [("1e10", "1e-3"), ("1e-300", "1e-300")],
        ids=["mic-underflows", "mic-overflows"],
    )
    def test_designs_whose_mic_leaves_the_float_range_are_singular(self, run, alpha, beta):
        status, out, _ = run(
            "design-eval", "--alpha", alpha, "--beta", beta, "--gens", "10",
            "--designs", "1,2,4;2,4,8",
        )
        assert status == 0
        assert [r[5] for r in parse_csv(out)[1:]] == ["singular", "singular"]

    @pytest.mark.parametrize("designs", ["0.25", "2^-6,2^-4,2^-2;0.25"])
    def test_one_lane_design_is_data_error(self, run, designs):
        # a line needs two lanes: the design is refused, not ranked singular
        status, out, err = run("design-eval", "--alpha", "10", "--beta", "1", "--designs", designs)
        assert status == 1 and out == ""
        assert err == "bactipot: error: need at least 2 regression points, got 1\n"

    def test_designs_naming_no_design_is_usage_error(self, run):
        status, out, err = run("design-eval", "--alpha", "10", "--beta", "1", "--designs", ";")
        assert status == 2 and out == ""
        assert err == "bactipot: usage error: --designs named no design\n"

    def test_generation_count_out_of_range_is_data_error(self, run):
        status, out, err = run(
            "design-eval", "--alpha", "10", "--beta", "1", "--gens", "2000",
            "--designs", "2^-6,2^-4,2^-2",
        )
        assert status == 1 and "n_generations" in err and out == ""

    def test_overflowing_design_is_singular_not_nan(self, run):
        # over 1023 generations the near-free-growth lanes overflow the gain
        status, out, _ = run(
            "design-eval", "--alpha", "10", "--beta", "1", "--gens", "1023",
            "--designs", "2^-6,2^-4,2^-2;2^-12,2^-11",
        )
        rows = parse_csv(out)
        assert status == 0 and "nan" not in out
        assert [r[5] for r in rows[1:]] == ["best", "singular"]

    def test_underflowing_mic_variance_is_singular_not_best(self, run):
        # the MIC 1e-200 is a float, but the MIC variance underflows to 0 on
        # both designs, which would rank the worse one best
        status, out, _ = run(
            "design-eval", "--alpha", "1e10", "--beta", "0.05", "--gens", "10",
            "--designs", "5e-201,1e-200,2e-200;1e-220,1e-200,1e-180",
        )
        assert status == 0
        assert [r[5] for r in parse_csv(out)[1:]] == ["singular", "singular"]

    def test_malformed_grid_is_usage_error(self, run):
        status, _, err = run(
            "design-eval", "--alpha", "10", "--beta", "1", "--designs", "2^-6,banana"
        )
        assert status == 2 and "--designs" in err


class TestCurve:
    def test_tabulates_monotone_curve(self, run):
        status, out, _ = run(
            "curve", "--alpha", "10", "--beta", "1", "--range", "2^-9:1", "--points", "50"
        )
        assert status == 0
        rows = parse_csv(out)
        assert rows[0] == ["concentration", "offspring_mean"]
        values = [float(r[1]) for r in rows[1:]]
        assert len(values) == 50
        assert values[0] == pytest.approx(1.96, abs=0.005)
        assert values[-1] == pytest.approx(0.18, abs=0.005)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_bad_range_is_usage_error(self, run):
        status, _, err = run("curve", "--alpha", "10", "--beta", "1", "--range", "1:0.5")
        assert status == 2 and "--range" in err

    @pytest.mark.parametrize("span", ["0.5:inf", "2^-9:1e400", "0.5:nan", "nan:1"])
    def test_range_bounds_must_be_finite(self, run, span):
        status, out, err = run(
            "curve", "--alpha", "10", "--beta", "1", "--range", span, "--points", "3"
        )
        assert status == 2 and out == ""
        assert err.startswith("bactipot: usage error: --range: ") and len(err.splitlines()) == 1

    def test_twin_range_bounds_are_usage_error(self, run):
        status, out, err = run(
            "curve", "--alpha", "10", "--beta", "1", "--range", "1:1.0000000001", "--points", "3"
        )
        assert status == 2 and out == ""
        assert err.startswith("bactipot: usage error: --range: ") and "same lane" in err
        assert len(err.splitlines()) == 1

    def test_range_without_a_colon_is_usage_error(self, run):
        status, out, err = run("curve", "--alpha", "10", "--beta", "1", "--range", "1")
        assert status == 2 and out == ""
        assert err == "bactipot: usage error: --range: expected LOW:HIGH, got '1'\n"

    def test_fewer_than_two_points_is_usage_error(self, run):
        status, out, err = run(
            "curve", "--alpha", "10", "--beta", "1", "--range", "1:2", "--points", "1"
        )
        assert status == 2 and out == ""
        assert err == "bactipot: usage error: --points must be >= 2, got 1\n"


class TestFlags:
    VALID = {
        "simulate": ("--m", "1.5", "--x0", "10", "--gens", "2"),
        "synth": ("--alpha", "10", "--beta", "1", "--grid", "2^-6,2^-4"),
        "fit": ("--input", "-", "--high-c", "2", "--low-c", "2^-7", "--x0", "10000"),
        "design-eval": ("--alpha", "10", "--beta", "1", "--designs", "2^-6,2^-4,2^-2"),
        "curve": ("--alpha", "10", "--beta", "1", "--range", "2^-4:1", "--points", "5"),
    }

    @pytest.mark.parametrize(
        "subcommand, flag",
        [
            ("simulate", "--pretty"),
            ("simulate", "--no-timestamp"),
            ("simulate", "--se"),
            ("synth", "--pretty"),
            ("synth", "--no-timestamp"),
            ("fit", "--seed"),
            ("fit", "--pretty"),
            ("design-eval", "--seed"),
            ("design-eval", "--no-timestamp"),
            ("design-eval", "--a"),
            ("curve", "--a"),
            ("curve", "--seed"),
            ("curve", "--pretty"),
            ("curve", "--no-timestamp"),
        ],
    )
    def test_flag_the_handler_never_reads_is_usage_error(self, run, subcommand, flag):
        _, plate, _ = run(
            "synth", "--alpha", "10", "--beta", "1", "--a", "20", "--seed", "1",
            "--grid", "2^-7,2^-6,2^-5,2^-4,2^-3,2^-2,2^-1,1,2,4,8,16",
        )
        args = self.VALID[subcommand]
        assert run(subcommand, *args, stdin=plate)[0] == 0
        extra = (flag, "3") if flag == "--seed" else (flag,)
        status, out, err = run(subcommand, *args, *extra, stdin=plate)
        assert status == 2 and out == ""
        assert "unrecognized arguments" in err and flag in err


#: 2^-5 and this value would be two lanes that name the same one.
TWIN = 2**-5 * (1 + 1e-10)


class TestTwinLanes:
    @pytest.mark.parametrize("subcommand", ["synth", "mc-study"])
    def test_twin_grid_lanes_fail_before_simulating(self, run, subcommand):
        status, out, err = run(
            subcommand, "--alpha", "10", "--beta", "1", "--grid", f"2^-6,2^-5,{TWIN!r}"
        )
        assert status == 2 and out == ""
        # the usage error comes before the seed= line
        assert "same lane" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "args, message",
        [
            (("design-eval", "--alpha", "10", "--beta", "1",
              "--designs", f"2^-6,2^-5,{TWIN!r}"), "same lane"),
            (("design-eval", "--alpha", "10", "--beta", "1",
              "--designs", "2^-6,2^-5,1e400"), "finite"),
            (("fit", "--input", "-", "--high-c", "2", "--low-c", "2^-7", "--x0", "10",
              "--fit-c", f"2^-5,{TWIN!r}"), "same lane"),
        ],
        ids=["designs-twin", "designs-infinite", "fit-c-twin"],
    )
    def test_bad_grid_flag_is_usage_error(self, run, args, message):
        status, out, err = run(*args, stdin="concentration,replicate,ct\n")
        assert status == 2 and out == ""
        assert message in err and args[-2] in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "lane, message",
        [("1", "strictly increasing"), ("nan", "finite"), ("0.0078124999999", "same lane")],
        ids=["above-grid", "nan", "twin-of-lowest"],
    )
    def test_bad_untreated_lane_fails_before_simulating(self, run, lane, message):
        status, out, err = run(
            "synth", "--alpha", "10", "--beta", "1", "--grid", "2^-7,2^-6",
            "--untreated-lane", lane,
        )
        assert status == 2 and out == ""
        # the usage error comes before the seed= line
        assert "--untreated-lane" in err and message in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("flag", ["--high-c", "--low-c"])
    def test_bad_fit_threshold_is_usage_error(self, run, tmp_path, flag, value):
        # --high-c 0 would take every lane, the free-growth one included, as suppressed
        lanes = {"--high-c": "2", "--low-c": "2^-7", flag: value}
        target = tmp_path / "fit.json"
        status, out, err = run(
            "fit", "--input", "-", "--x0", "10000", "-o", str(target),
            *(f"{f}={v}" for f, v in lanes.items()), stdin=plate_text(),
        )
        assert status == 2 and out == "" and not target.exists()
        assert err.startswith(f"bactipot: usage error: {flag}: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "low, high, message",
        [("2^-7", "2^-7", "strictly increasing"), ("4", "2", "strictly increasing"),
         ("1.99999999999", "2", "same lane")],
        ids=["equal", "above", "twin"],
    )
    def test_free_growth_lane_at_or_above_threshold_is_usage_error(
        self, run, tmp_path, low, high, message
    ):
        # the free-growth lane would also calibrate a: alpha_hat 117.3 where the truth is 10
        target = tmp_path / "fit.json"
        status, out, err = run(
            "fit", "--input", "-", "--x0", "10000", "-o", str(target),
            "--high-c", high, "--low-c", low, stdin=plate_text(),
        )
        assert status == 2 and out == "" and not target.exists()
        assert err.startswith("bactipot: usage error: --low-c and --high-c: ")
        assert message in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("design", ["-2^2,2^-4", "+2^2,2^-4"])
    def test_signed_power_base_is_usage_error(self, run, design):
        status, out, err = run("design-eval", "--alpha", "10", "--beta", "1", f"--designs={design}")
        assert status == 2 and out == ""
        assert "cannot parse number" in err and len(err.strip().splitlines()) == 1

    def test_twin_lanes_in_a_dataset_are_data_error(self, run):
        text = "concentration,replicate,ct\n0.03125,1,-10.5\n0.031250000003125,1,-10.4\n"
        status, out, err = run(
            "fit", "--input", "-", "--high-c", "2", "--low-c", "2^-7", "--x0", "10", stdin=text
        )
        assert status == 1 and out == "" and "same lane" in err


@given(st.one_of(st.text(), st.text(alphabet="0123456789.,^+-e infa")))
@settings(max_examples=300)
def test_any_grid_text_is_a_valid_grid_or_a_usage_error(text):
    try:
        grid = _parse_grid(text, "--grid")
    except UsageError:
        return
    check_grid(grid)


#: Every flag of each subcommand, besides -o.
SUBCOMMAND_FLAGS = {
    "simulate": ("--m", "--p0", "--p1", "--p2", "--x0", "--gens", "--reps", "--seed"),
    "synth": ("--alpha", "--beta", "--grid", "--a", "--sigma-eps", "--x0", "--gens", "--reps",
              "--untreated-lane", "--seed"),
    "fit": ("--input", "--high-c", "--low-c", "--fit-c", "--x0", "--no-timestamp"),
    "mc-study": ("--alpha", "--beta", "--grid", "--sigma-eps", "--x0", "--gens", "--reps",
                 "--measurements", "--threads", "--seed", "--pretty", "--no-timestamp"),
    "design-eval": ("--alpha", "--beta", "--gens", "--sigma-eps", "--designs", "--pretty"),
    "curve": ("--alpha", "--beta", "--range", "--points"),
}
SWITCHES = {"--pretty", "--no-timestamp"}
#: The -o value that stands for a path in a fresh temporary directory.
OUT = "OUT"

extremes = ["nan", "inf", "-inf", "1e400", "-1", "0", "1023", "1024", "2^-4", "banana", ""]
#: Values of the float flags, which take no 2^k, and of the concentration flags, which do.
numbers = st.one_of(st.sampled_from(["0.05", "0.5", "1", "2", "10"]), st.sampled_from(extremes))
concentrations = st.one_of(
    st.sampled_from(["2^-7", "2^-4", "2^0", "2^4", "0.5", "10"]), st.sampled_from(extremes)
)
#: Kept small, so that no drawn run allocates or loops for long.
counts = st.sampled_from(["1", "2", "3", "50", "0", "-1", "nan", "2^3", "x"])
integers = st.one_of(
    st.sampled_from(["1", "2", "10", "1023", "10000"]),
    st.sampled_from(["0", "-1", "1024", str(2**62), str(2**70), "2^3", "nan", "x"]),
)
grids = st.lists(concentrations, min_size=1, max_size=4).map(",".join)
FLAG_VALUES = {
    **dict.fromkeys(
        ("--m", "--p0", "--p1", "--p2", "--alpha", "--beta", "--a", "--sigma-eps", "--bogus"),
        numbers,
    ),
    **dict.fromkeys(("--high-c", "--low-c", "--untreated-lane"), concentrations),
    **dict.fromkeys(("--x0", "--gens", "--seed", "--threads"), integers),
    **dict.fromkeys(("--reps", "--measurements", "--points"), counts),
    "--grid": grids,
    "--fit-c": st.one_of(st.just("auto"), grids),
    "--designs": st.lists(grids, min_size=1, max_size=2).map(";".join),
    "--range": st.lists(concentrations, min_size=1, max_size=2).map(":".join),
    "--input": st.sampled_from(["-", "/nonexistent/plate.csv"]),
    "-o": st.sampled_from(["-", OUT]),
}


#: Flags that make a run of each subcommand succeed, for the drawn flags to vary.
VALID_ARGS = {
    **TestFlags.VALID,
    "mc-study": ("--alpha", "10", "--beta", "1", "--grid", "2^-6,2^-4,2^-2"),
}


@st.composite
def argvs(draw):
    """A subcommand, mostly its valid flags, then flags drawn from its own and
    now and then a foreign one."""
    subcommand = draw(st.sampled_from(sorted(SUBCOMMAND_FLAGS)))
    argv = [subcommand]
    if draw(st.integers(0, 3)) > 0:
        argv += VALID_ARGS[subcommand]
    if subcommand == "mc-study":
        argv += ["--measurements", draw(counts)]
    flags = draw(st.lists(st.sampled_from(SUBCOMMAND_FLAGS[subcommand] + ("-o",)), max_size=5))
    if draw(st.integers(0, 3)) == 0:
        flags.append(draw(st.sampled_from(sorted(FLAG_VALUES))))
    for flag in flags:
        argv.append(flag)
        if flag not in SWITCHES:
            argv.append(draw(FLAG_VALUES[flag]))
    return argv


@functools.cache
def plate_text():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(["synth", "--alpha", "10", "--beta", "1", "--a", "20", "--seed", "1",
              "--grid", "2^-7,2^-6,2^-5,2^-4,2^-3,2^-2,2^-1,1,2,4,8,16"])
    return out.getvalue()


@given(argvs(), st.sampled_from(["plate", "junk\n", ""]))
@settings(max_examples=250, deadline=None)
def test_any_argv_exits_0_1_or_2_and_a_failed_run_writes_nothing(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("BACTIPOT_SEED", None)
        target = os.path.join(tmp, "out.txt")
        argv = [target if a == OUT else a for a in argv]
        text = plate_text() if stdin == "plate" else stdin
        with mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            status = main(argv)
        written = os.path.exists(target)
    event(f"{argv[0]} exit {status}")
    assert status in (0, 1, 2) and "Traceback" not in err.getvalue()
    if status != 0:
        assert out.getvalue() == "" and not written
        return
    # the last -o wins
    to_file = [v for flag, v in zip(argv, argv[1:]) if flag == "-o"][-1:] == [target]
    assert written == to_file and (out.getvalue() == "") == to_file


#: Per single-value concentration flag: a run with the other flags valid and
#: the flag's value in place of VALUE; the lanes that check_grid sees, with
#: None for the flag's values; and the flags that a refusal of those lanes names.
CONCENTRATION_FLAGS = {
    # the free-growth lane lies below the threshold
    "--high-c": (("fit", "--input", "-", "--low-c", "2^-7", "--x0", "10000",
                  "--high-c=VALUE"), [2**-7, None], "--low-c and --high-c"),
    "--low-c": (("fit", "--input", "-", "--high-c", "2", "--x0", "10000",
                 "--low-c=VALUE"), [None, 2.0], "--low-c and --high-c"),
    # the sentinel comes before the grid's lowest lane
    "--untreated-lane": (("synth", "--alpha", "10", "--beta", "1", "--grid", "2^-4,1,16",
                          "--untreated-lane=VALUE"), [None, 2**-4], "--untreated-lane"),
    # both bounds are the grid
    "--range": (("curve", "--alpha", "10", "--beta", "1", "--points", "3", "--range=VALUE"),
                [None], "--range"),
}


@given(
    st.sampled_from(sorted(CONCENTRATION_FLAGS)).flatmap(
        lambda flag: st.tuples(st.just(flag), FLAG_VALUES[flag])
    )
)
@settings(max_examples=150, deadline=None)
def test_a_concentration_the_rule_refuses_is_a_usage_error(flag_value):
    flag, value = flag_value
    args, lanes, named = CONCENTRATION_FLAGS[flag]
    parts = value.split(":")
    prefix = flag
    try:
        if flag == "--range" and len(parts) != 2:
            raise UsageError("expected LOW:HIGH")
        values = [_parse_number(part, flag) for part in parts]
        check_grid(values)
        prefix = named
        check_grid([v for lane in lanes for v in (values if lane is None else [lane])])
        refused = False
    except (UsageError, InvalidParameterError):
        refused = True
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "out.txt")
        argv = [a.replace("VALUE", value) for a in args] + ["-o", target]
        with mock.patch("sys.stdin", io.StringIO(plate_text())), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
        written = os.path.exists(target)
    event(f"{flag} {'refused' if refused else 'accepted'} exit {status}")
    if refused:
        assert status == 2 and out.getvalue() == "" and not written
        # one line, before any seed= line
        assert err.getvalue().startswith(f"bactipot: usage error: {prefix}: ")
        assert len(err.getvalue().splitlines()) == 1
    else:
        assert status in (0, 1) and "usage error" not in err.getvalue()
        assert written == (status == 0)


class TestClosedPipe:
    @pytest.mark.parametrize(
        "points, lines_read",
        [
            (100_000, 1),  # the reader leaves while the handler still writes
            (5, 0),  # the reader leaves before the handler's output is flushed
        ],
    )
    def test_closed_stdout_exits_one_quietly(self, points, lines_read):
        env = cli_env()
        env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe is block-buffered by default
        assert self.closed_run(env, points, lines_read) == (1, b"")

    def test_closed_unbuffered_stdout_exits_one_quietly(self):
        # unbuffered, one write of the whole output would end short without an error
        assert self.closed_run({**cli_env(), "PYTHONUNBUFFERED": "1"}, 100_000, 1) == (1, b"")

    @staticmethod
    def closed_run(env, points, lines_read):
        """(exit status, stderr) of a ``curve`` whose reader closes stdout early."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "bactipot.cli", "curve", "--alpha", "10", "--beta", "1",
             "--range", "2^-9:1", "--points", str(points)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        for _ in range(lines_read):
            proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        return proc.returncode, err


def test_readme_cli_examples_run(tmp_path):
    # every command of README's CLI block, continuation lines joined
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", text, re.S | re.M).group(1)
    lines = re.sub(r"\\\n\s*", "", block).splitlines()
    commands = [line for line in lines if line.strip() and not line.startswith("#")]
    assert len(commands) >= 6
    module = f"{shlex.quote(sys.executable)} -m bactipot.cli "
    failures = []
    for command in commands:
        # pipefail: the synth | fit example fails if either side does
        shell = re.sub(r"(^|\| )bactipot ", lambda m: m.group(1) + module, command)
        proc = subprocess.run(
            ["bash", "-o", "pipefail", "-c", shell],
            capture_output=True, text=True, env=cli_env(), cwd=tmp_path, timeout=120,
        )
        if proc.returncode != 0:
            failures.append((command, proc.returncode, proc.stderr.strip()))
    assert failures == []


class TestColdStart:
    """``import bactipot`` loads none of numpy, dataclasses, inspect and datetime;
    only the commands that sample load numpy, and only a timestamp loads datetime."""

    #: Modules the import leaves out; ``inspect`` came with ``dataclasses``.
    UNLOADED = ("numpy", "dataclasses", "inspect", "datetime")

    @staticmethod
    def child(code, *argv):
        return subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True, text=True, env=cli_env(), timeout=120,
        )

    def test_import_loads_no_numpy(self):
        proc = self.child(
            "import bactipot, bactipot.cli, sys\n"
            f"print(sorted(set({self.UNLOADED!r}) & set(sys.modules)))\n"
        )
        assert proc.returncode == 0 and proc.stdout == "[]\n"

    def test_a_study_loads_no_executor(self, tmp_path):
        # a study's threads come from threading, which loads anyway;
        # concurrent.futures would bring logging with it at every cold start
        proc = self.child(
            "import sys\n"
            "from bactipot.cli import main\n"
            "main(sys.argv[1:])\n"
            "print(sorted({'concurrent.futures', 'logging', 'queue'} & set(sys.modules)))\n",
            "mc-study", "--alpha", "10", "--beta", "1", "--grid", "2^-6,2^-4",
            "--measurements", "600", "-o", str(tmp_path / "study.json"),
        )
        assert proc.returncode == 0 and proc.stdout == "[]\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("fit", "--high-c", "2", "--low-c", "2^-7", "--x0", "10000", "--no-timestamp"),
            ("design-eval", "--alpha", "10", "--beta", "1", "--designs", "2^-6,2^-4,2^-2;1,2,4"),
            ("design-eval", "--alpha", "10", "--beta", "1", "--designs", "2^-6,2^-4,2^-2;1,2,4",
             "--pretty"),
        ],
        ids=["fit", "design-eval", "design-eval-pretty"],
    )
    def test_runs_with_numpy_unimportable(self, run, tmp_path, argv):
        if argv[0] == "fit":
            plate = tmp_path / "plate.csv"
            run("synth", "--alpha", "10", "--beta", "1", "--a", "20", "--seed", "1",
                "--grid", "2^-7,2^-6,2^-5,2^-4,2^-3,2^-2,2^-1,1,2,4,8,16", "-o", str(plate))
            argv = (*argv, "--input", str(plate))
        status, expected, _ = run(*argv)
        assert status == 0
        proc = self.child(
            "import sys\n"
            f"sys.modules.update(dict.fromkeys({self.UNLOADED!r}))  # each import of them raises\n"
            "import bactipot.cli\n"
            "sys.exit(bactipot.cli.main(sys.argv[1:]))\n",
            *argv,
        )
        assert (proc.returncode, proc.stdout) == (0, expected)

    def test_synth_imports_numpy_when_it_first_samples(self, run):
        argv = ("synth", "--alpha", "10", "--beta", "1", "--grid", "2^-6,2^-4,2^-2", "--seed", "3")
        proc = self.child(
            "import sys, bactipot.cli\n"
            "assert 'numpy' not in sys.modules\n"
            "sys.exit(bactipot.cli.main(sys.argv[1:]))\n",
            *argv,
        )
        assert (proc.returncode, proc.stdout) == (0, run(*argv)[1])


class TestSeedsAndErrors:
    def test_env_seed_is_honored(self, run, monkeypatch):
        monkeypatch.setenv("BACTIPOT_SEED", "42")
        _, out_env, err = run("simulate", "--m", "1.5", "--x0", "100", "--gens", "5")
        assert "seed=42" in err
        _, out_flag, _ = run("simulate", "--m", "1.5", "--x0", "100", "--gens", "5", "--seed", "42")
        assert out_env == out_flag

    def test_flag_overrides_env(self, run, monkeypatch):
        monkeypatch.setenv("BACTIPOT_SEED", "42")
        _, _, err = run("simulate", "--m", "1.5", "--x0", "10", "--gens", "2", "--seed", "7")
        assert "seed=7" in err

    def test_malformed_env_seed(self, run, monkeypatch):
        monkeypatch.setenv("BACTIPOT_SEED", "not-a-seed")
        status, _, err = run("simulate", "--m", "1.5", "--x0", "10", "--gens", "2")
        assert status == 2 and "BACTIPOT_SEED" in err

    def test_unknown_flag_exits_two(self, run, capsys):
        status = main(["simulate", "--m", "1.5", "--bogus"])
        capsys.readouterr()
        assert status == 2

    def test_unknown_subcommand_exits_two(self, run, capsys):
        status = main(["frobnicate"])
        capsys.readouterr()
        assert status == 2

    def test_output_file(self, run, tmp_path):
        target = tmp_path / "curve.csv"
        status, out, _ = run(
            "curve", "--alpha", "10", "--beta", "1", "--range", "2^-4:1",
            "--points", "5", "-o", str(target),
        )
        assert status == 0 and out == ""
        assert target.read_text().startswith("concentration,offspring_mean")

    @pytest.mark.parametrize(
        "args",
        [
            ("curve", "--alpha", "10", "--beta", "1", "--range", "1:2", "--points", "2"),
            ("design-eval", "--alpha", "10", "--beta", "1", "--designs", "1,2,4"),
        ],
        ids=["curve", "design-eval"],
    )
    def test_output_in_a_missing_directory_is_data_error(self, run, tmp_path, args):
        # the -o path is at fault, not a --input these subcommands lack
        target = tmp_path / "no" / "such" / "out.csv"
        status, out, err = run(*args, "-o", str(target))
        assert status == 1 and out == ""
        assert err.startswith("bactipot: error: ") and len(err.splitlines()) == 1
        assert str(target) in err and "--input" not in err
        assert not target.parent.exists()

    def test_overflow_is_data_error(self, run):
        status, _, err = run(
            "simulate", "--m", "2", "--x0", str(2**62), "--gens", "2", "--reps", "1"
        )
        assert status == 1 and "overflow" in err.lower()

    def test_failed_simulation_leaves_no_output_file(self, run, tmp_path):
        target = tmp_path / "out.csv"
        status, _, err = run(
            "simulate", "--m", "2", "--x0", str(2**62), "--gens", "2", "-o", str(target)
        )
        assert status == 1 and "overflow" in err.lower()
        assert not target.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ("simulate", "--m", "1.5", "--reps", "1"),
            ("simulate", "--m", "1.5", "--reps", "2"),
            ("synth", "--alpha", "10", "--beta", "1", "--grid", "2^-7,2^-6"),
            ("mc-study", "--alpha", "10", "--beta", "1", "--grid", "2^-6,2^-4,2^-2",
             "--measurements", "5"),
        ],
        ids=["simulate-reps-1", "simulate-reps-2", "synth", "mc-study"],
    )
    def test_x0_beyond_the_count_range_is_data_error(self, run, args):
        # 2**70 fits no int64 array; it is refused before any array holds it
        status, out, err = run(*args, "--x0", str(2**70))
        assert status == 1 and out == ""
        seed_line, error_line = err.strip().splitlines()
        assert seed_line == "bactipot: seed=0" and error_line.startswith("bactipot: error: ")

    @pytest.mark.parametrize(
        "args, minimum",
        [
            (("simulate", "--m", "0.5", "--reps", "1"), 0),
            (("simulate", "--m", "0.5", "--reps", "2"), 0),
            (("synth", "--alpha", "10", "--beta", "1", "--grid", "1,2,4"), 1),
            (("mc-study", "--alpha", "10", "--beta", "1", "--grid", "1,2,4",
              "--measurements", "3"), 1),
        ],
        ids=["simulate-reps-1", "simulate-reps-2", "synth", "mc-study"],
    )
    def test_generation_count_past_1023_is_data_error(self, run, args, minimum):
        # refused before anything is simulated, however long the run would be
        status, out, err = run(*args, "--gens", "1024")
        assert status == 1 and out == ""
        assert err.splitlines() == [
            "bactipot: seed=0",
            f"bactipot: error: n_generations must lie in [{minimum}, 1023], got 1024",
        ]

    def test_mc_study_overflowing_mic_is_data_error(self, run):
        status, out, err = run(
            "mc-study", "--alpha", "1e-300", "--beta", "1e-300", "--grid", "1,2,4",
            "--measurements", "3",
        )
        assert status == 1 and out == ""
        assert err.splitlines() == [
            "bactipot: seed=0",
            "bactipot: error: the MIC of alpha 1e-300 and beta 1e-300 overflows the "
            "floating-point range",
        ]

    def test_fit_x0_beyond_the_count_range_is_data_error(self, run):
        _, plate, _ = run(
            "synth", "--alpha", "10", "--beta", "1", "--a", "20", "--seed", "1",
            "--grid", "2^-7,2^-6,2^-5,2^-4,2^-3,2^-2,2^-1,1,2,4,8,16",
        )
        status, out, err = run(
            "fit", "--input", "-", "--high-c", "2", "--low-c", "2^-7",
            "--x0", str(MAX_COUNT + 1), stdin=plate,
        )
        assert status == 1 and out == ""
        assert err == f"bactipot: error: x0 must be <= {MAX_COUNT}, got {MAX_COUNT + 1}\n"

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize(
        "args",
        [
            ("synth", "--alpha", "10", "--beta", "1", "--grid", "1,2,4"),
            ("mc-study", "--alpha", "10", "--beta", "1", "--grid", "1,2,4",
             "--measurements", "3"),
            ("design-eval", "--alpha", "10", "--beta", "1", "--designs", "1,2,4"),
        ],
        ids=["synth", "mc-study", "design-eval"],
    )
    def test_non_finite_noise_is_data_error(self, run, args, value):
        status, out, err = run(*args, "--sigma-eps", value)
        lines = [line for line in err.splitlines() if not line.startswith("bactipot: seed=")]
        assert status == 1 and out == ""
        assert lines == [f"bactipot: error: sigma_eps must be finite and >= 0, got {value}"]

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_calibration_is_data_error(self, run, value):
        status, out, err = run(
            "synth", "--alpha", "10", "--beta", "1", "--grid", "1,2", f"--a={value}"
        )
        lines = [line for line in err.splitlines() if not line.startswith("bactipot: seed=")]
        assert status == 1 and out == ""
        assert lines == [f"bactipot: error: a must be finite, got {value}"]

    @pytest.mark.parametrize(
        "args, callee, exc",
        [
            (("simulate", "--m", "1"), "simulate_batch",
             MemoryError("Unable to allocate 7.28 TiB for an array")),
            (("synth", "--alpha", "10", "--beta", "1", "--grid", "2^-7,2^-6"),
             "simulate_experiment", MemoryError()),
        ],
        ids=["simulate", "synth"],
    )
    def test_out_of_memory_is_data_error(self, run, monkeypatch, args, callee, exc):
        # the callee raises in place of allocating, so nothing is allocated
        def exhausted(*_args, **_kwargs):
            raise exc

        monkeypatch.setattr(f"bactipot.cli.{callee}", exhausted)
        status, out, err = run(*args, "--reps", "1000000000000")
        assert status == 1 and out == ""
        error_line = err.strip().splitlines()[-1]
        assert error_line == f"bactipot: error: {str(exc) or 'out of memory'}"
        assert "Traceback" not in err
