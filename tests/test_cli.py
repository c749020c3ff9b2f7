"""Command-line interface: parsing, outputs, exit codes, determinism."""

import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bactipot import dist_from_mean, simulate_batch, spawn_rng
from bactipot.cli import UsageError, _parse_grid, main
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
        ],
        ids=["death-or-divide", "general-law"],
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

    def test_fit_bad_data_is_data_error(self, run, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("concentration,replicate,ct\n0.25,1,oops\n")
        status, _, err = run(
            "fit", "--input", str(path), "--high-c", "2", "--low-c", "1", "--x0", "10"
        )
        assert status == 1 and "line 2" in err


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
        # 4 of 5 fits fail, so the empirical moments are undefined
        status, out, _ = run(
            "mc-study",
            "--alpha", "10", "--beta", "1",
            "--grid", "1e6,2e6", "--measurements", "5", "--no-timestamp",
        )
        assert status == 0

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        payload = json.loads(out, parse_constant=reject)
        assert payload["failures"] == 4
        assert payload["emp_var_alpha"] is None
        assert payload["mean_alpha"] is not None

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

    def test_pretty_table(self, run):
        status, out, _ = run(
            "design-eval", "--alpha", "10", "--beta", "1",
            "--designs", "2^-6,2^-4,2^-2", "--pretty",
        )
        assert status == 0 and "best" in out

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
            ("synth", "--pretty"),
            ("synth", "--no-timestamp"),
            ("fit", "--seed"),
            ("fit", "--pretty"),
            ("design-eval", "--seed"),
            ("design-eval", "--no-timestamp"),
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
        assert proc.returncode == 1 and err == b""


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
