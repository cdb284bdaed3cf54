import collections
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steinsim
from steinsim import assess, cli, estimators, hyptest, mc
from steinsim.cli import main

SMALL = ["--samples", "30000", "--seed", "42"]

# sha256 of the five data CSVs of `all --samples 70000 --seed 7 --workers 1`,
# recorded before the sweep formed each theta's draws once and gave each
# chunk a workspace, and of its table3_eigenvalues.json, recorded before the
# assessment report was slimmed to the information (on x86-64 with numpy 2.4
# and scipy-openblas 0.3.31; another BLAS may round the moment GEMMs
# differently)
GOLDEN_CSV_SHA256 = {
    "table1.csv": "a50a4441d8fc51200a136997c3429608acbfe57fa17936976c577a2f4b601e33",
    "table2.csv": "b3d0356dffb79dc5397ddf754828df25d4ffadfd08d192a0dfdc4f91734861bd",
    "table3.csv": "cae1ab91103b3e53e60383be19e4ec05024ed09b19f412cd653289790fb19449",
    "figure_theta_0.5.csv": "99a66b5dc5e2fe638390686134a8817e5b07fd83dff30f688f12225ad77689c9",
    "figure_theta_2.csv": "85eeb8787459872da758b8d7f607c80dda93f41e50e92e00e2e6d6af85c2b54f",
    "table3_eigenvalues.json":
        "13e77c56000af0ac8697d6a86179639ff1f3ddf27ac0e6381f6edc14805c4b8f",
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# Schemas and values
# ---------------------------------------------------------------------------


def test_table1_csv_schema_and_values(capsys):
    code, out, err = run(capsys, ["table1", *SMALL])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["estimator", "theta", "mse", "stderr"]
    assert len(rows) == 10
    data = {(r[0], float(r[1])): float(r[2]) for r in rows}
    assert data[("JS", 0.0)] == pytest.approx(2.0, abs=0.15)
    assert data[("ML", 2.5)] == pytest.approx(14.0, abs=0.2)
    # progress stays out of the data stream
    assert "table1" in err and "table1" not in out


def test_table2_csv_schema(capsys):
    code, out, _ = run(capsys, ["table2", "--samples", "20000", "--seed", "42",
                                "--theta", "1.25", "--theta", "2.0"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["test", "alpha", "theta", "power", "stderr"]
    assert len(rows) == 8  # 2 tests x 2 alphas x 2 thetas
    null_cells = [float(r[3]) for r in rows if float(r[2]) == 1.25]
    for p, alpha in zip(null_cells, (0.01, 0.01, 0.05, 0.05)):
        assert p == pytest.approx(alpha, abs=0.01)


def test_table3_csv_schema(capsys):
    code, out, _ = run(capsys, ["table3", *SMALL, "--theta", "0"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["estimator", "theta", "scalar_lambda", "mean_efficiency",
                      "eigen_min", "eigen_max"]
    assert len(rows) == 2
    js = rows[0]
    assert js[0] == "JS"
    assert float(js[2]) == pytest.approx(2.0, abs=0.5)
    assert float(js[4]) <= float(js[5])


def test_figure_csv_schema(capsys):
    code, out, _ = run(capsys, ["figure", *SMALL, "--theta", "2", "--points", "20"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["index", "s_js", "s_ml", "shrinkage"]
    assert [r[0] for r in rows] == [str(i) for i in range(20)]
    assert all(float(r[1]) >= 0 and float(r[2]) >= 0 for r in rows)


def test_output_is_locale_independent(capsys):
    code, out, _ = run(capsys, ["table1", *SMALL, "--theta", "0.5"])
    assert code == 0
    assert "," in out and ";" not in out
    for line in out.splitlines():
        assert line == line.strip()
    assert "0.5" in out  # decimal point, never a decimal comma


def test_json_format_mirrors_columns(capsys):
    code, out, _ = run(capsys, ["table1", *SMALL, "--theta", "1.25",
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "table1"
    assert payload["columns"] == ["estimator", "theta", "mse", "stderr"]
    assert {row["estimator"] for row in payload["rows"]} == {"JS", "ML"}
    manifest = payload["manifest"]
    for field in ("command", "k", "thetas", "samples", "seed", "workers",
                  "alphas", "version", "duration_seconds"):
        assert field in manifest
    assert manifest["samples"] == 30000


def test_table3_json_carries_eigenvalues_and_stderr(capsys):
    code, out, _ = run(capsys, ["table3", "--samples", "140000", "--seed", "42",
                                "--theta", "0", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    report = payload["eigenvalue_report"]
    assert len(report) == 2
    assert all(len(entry["eigenvalues"]) == 14 for entry in report)
    assert all(entry["lambda_stderr"] is not None for entry in report)


def test_figure_json_includes_reference_lines(capsys):
    code, out, _ = run(capsys, ["figure", *SMALL, "--theta", "0.5",
                                "--points", "10", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    lines = payload["reference_lines"]
    assert lines["equality"] == {"slope": 1.0, "intercept": 0.0}
    assert lines["one_unit_shift"] == {"slope": 1.0, "intercept": 1.0}


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_usage_errors_exit_1(capsys):
    assert run(capsys, ["table1", "--samples", "0"])[0] == 1
    assert run(capsys, ["figure", "--theta", "2", "--points", "0"])[0] == 1
    assert run(capsys, ["table2", "--alpha", "1.5"])[0] == 1
    assert run(capsys, ["table1", "--k", "0"])[0] == 1
    assert run(capsys, ["table1", "--seed", "-1"])[0] == 1
    assert run(capsys, ["table1", "--workers", "0"])[0] == 1
    assert run(capsys, ["no-such-command"])[0] == 1
    assert run(capsys, ["figure"])[0] == 1  # --theta is required


@pytest.mark.parametrize("command", ["table3", "all"])
def test_one_sample_is_a_usage_error_for_covariance_reports(tmp_path, capsys, command):
    # table3's covariances need two samples; a single one used to end in a
    # raw ValueError traceback after `all` had written table1 and table2
    target = tmp_path / "out"
    code, out, err = run(capsys, [command, "--samples", "1", "--output", str(target)])
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "--samples must be at least 2" in err
    assert list(tmp_path.iterdir()) == []


def test_numerical_failures_exit_2(capsys):
    code, _, err = run(capsys, ["table2", "--samples", "5000"])
    assert code == 2
    assert "insufficient null resolution" in err


def test_overflowing_moments_are_a_numerical_failure():
    # estimates near 1e170 overflow the centered cross products to inf,
    # which must fail as a singular covariance (a numerical failure of the
    # CLI), not as a LinAlgError
    def huge(y):
        return 1e170 * y

    cfg = mc.SimulationConfig(k=14, theta=0.0, n_samples=2000, seed=42)
    with np.errstate(over="ignore", invalid="ignore"):
        cell, = mc.collect_cells([(huge, 0.5)], cfg)
        with pytest.raises(assess.SingularCovarianceError) as err:
            assess.assess_moments(huge, 0.5, cell)
    assert isinstance(err.value, cli.NUMERICAL_ERRORS)
    assert str(err.value) == ("covariance of the huge estimate at theta=0.5 is "
                              "singular or ill-conditioned (condition number ~ inf)")


@pytest.mark.parametrize("argv", [["table1", "--theta", "1e200"],
                                  ["figure", "--theta=-1e200"],
                                  ["table3", "--theta", "0.5", "--theta", "8.8e12"]],
                         ids=["table1", "figure", "table3"])
def test_a_theta_beyond_the_bound_fails_before_any_draw(capsys, monkeypatch, argv):
    # theta + z rounds to theta there, so every error would read 0
    draws = []
    monkeypatch.setattr(mc, "draw_block", lambda *args: draws.append(args))
    code, out, err = run(capsys, [*argv, "--samples", "20000"])
    assert code == 2 and out == "" and draws == []
    failures = [line for line in err.splitlines() if "numerical failure" in line]
    assert len(failures) == 1 and "is not below 2**43" in failures[0]


def test_a_large_theta_inside_the_bound_still_runs(capsys):
    code, out, _ = run(capsys, ["table3", "--theta", "1e10", "--samples", "2000"])
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 2 and all(math.isfinite(float(r[2])) for r in rows)


@pytest.mark.parametrize("alpha", ["1e-300", "1e-310"])
def test_a_tiny_alpha_fails_on_null_resolution(capsys, alpha):
    # 100 / alpha has 302 digits at 1e-300 and is infinite at 1e-310
    code, out, err = run(capsys, ["table2", "--alpha", alpha, "--samples", "20000"])
    assert code == 2 and out == ""
    failures = [line for line in err.splitlines() if not line.startswith("[steinsim]")]
    assert len(failures) == 1 and len(failures[0]) < 160
    assert failures[0].startswith("steinsim: numerical failure: insufficient null resolution")


def test_figure_reads_no_critical_value(capsys):
    # the semi-tail reads the sorted null only, so no alpha bounds --samples
    code, out, _ = run(capsys, ["figure", "--samples", "5000", "--theta", "2",
                                "--points", "10"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["index", "s_js", "s_ml", "shrinkage"] and len(rows) == 10


def test_file_output_with_manifest_sidecar(tmp_path, capsys):
    out_file = tmp_path / "t1.csv"
    code, _, _ = run(capsys, ["table1", *SMALL, "--theta", "0",
                              "--output", str(out_file)])
    assert code == 0
    assert out_file.exists()
    manifest = json.loads((tmp_path / "t1.csv.manifest.json").read_text())
    assert manifest["command"] == "table1"
    assert manifest["seed"] == 42


# ---------------------------------------------------------------------------
# The `all` command
# ---------------------------------------------------------------------------


DATA_FILES = ("table1.csv", "table2.csv", "table3.csv",
              "table3_eigenvalues.json", "figure_theta_0.5.csv",
              "figure_theta_2.csv")


def test_all_writes_six_data_files_and_manifest(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, _, _ = run(capsys, ["all", *SMALL, "--output", str(out_dir)])
    assert code == 0
    sidecars = {f"{name}.manifest.json" for name in DATA_FILES if name.endswith(".csv")}
    assert {p.name for p in out_dir.iterdir()} == {*DATA_FILES, "manifest.json", *sidecars}
    assert len(sidecars) == 5
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "all"
    assert manifest["failures"] == []
    # each CSV's sidecar records the parameters of its own report
    expected = {
        "table1": (list(cli.TABLE1_THETAS), None),
        "table2": (list(cli.TABLE2_THETAS), [0.01, 0.05]),
        "table3": (list(cli.TABLE3_THETAS), None),
        "figure_theta_0.5": ([0.5], None),
        "figure_theta_2": ([2.0], None),
    }
    for name, (thetas, alphas) in expected.items():
        sidecar = json.loads((out_dir / f"{name}.csv.manifest.json").read_text())
        assert (sidecar["command"], sidecar["thetas"], sidecar["alphas"]) == (
            name.split("_")[0], thetas, alphas), name
    assert json.loads((out_dir / "table3.csv.manifest.json").read_text())[
        "eigenvalue_report"] == json.loads((out_dir / "table3_eigenvalues.json").read_text())


def test_all_rerun_is_byte_identical(tmp_path, capsys):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, ["all", *SMALL, "--output", str(dir_a)])[0] == 0
    assert run(capsys, ["all", *SMALL, "--output", str(dir_b)])[0] == 0
    for name in DATA_FILES:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


def test_all_other_seed_stays_inside_widened_bands(tmp_path, capsys):
    # Monte Carlo stability: independent seeds agree within 2x the scaled
    # tolerance band 0.05 * sqrt(10^6 / n)
    dirs = {}
    for seed in ("42", "4242"):
        out_dir = tmp_path / seed
        assert run(capsys, ["all", "--samples", "100000", "--seed", seed,
                            "--output", str(out_dir)])[0] == 0
        dirs[seed] = out_dir
    band = 2 * 0.05 * math.sqrt(1_000_000 / 100_000)

    def table1_values(path):
        rows = list(csv.reader(path.read_text().splitlines()))[1:]
        return {(r[0], r[1]): float(r[2]) for r in rows}

    a = table1_values(dirs["42"] / "table1.csv")
    b = table1_values(dirs["4242"] / "table1.csv")
    assert a != b  # different draws
    for key in a:
        assert abs(a[key] - b[key]) <= band, key


def test_all_marks_failed_steps_and_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "partial"
    code, _, _ = run(capsys, ["all", "--samples", "6000", "--seed", "42",
                              "--output", str(out_dir)])
    assert code == 2
    # only table2 reads critical values, so only it fails on null
    # resolution at this sample count; the figures read the sorted nulls
    assert (out_dir / "table1.csv").exists()
    assert (out_dir / "table2.FAILED").exists()
    assert (out_dir / "figure_theta_0.5.csv").exists()
    assert (out_dir / "figure_theta_2.csv").exists()
    assert (out_dir / "manifest.json").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert "table2" in manifest["failures"]


def test_all_singular_covariance_fails_table3_only(tmp_path, monkeypatch, capsys):
    # table1 and table3 share the stream-0 cells; only table3 inverts V
    def singular(moments, kind, theta):
        raise assess.SingularCovarianceError(kind, theta, float("inf"))

    monkeypatch.setattr(assess, "_lambda_from_moments", singular)
    out_dir = tmp_path / "run"
    code, _, _ = run(capsys, ["all", "--samples", "20000", "--output", str(out_dir)])
    assert code == 2
    assert (out_dir / "table3.FAILED").exists()
    assert not (out_dir / "table1.FAILED").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["failures"] == ["table3"]
    assert "table1" in manifest["outputs"]

def test_all_lets_programming_errors_propagate(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise TypeError("not a numerical failure")

    monkeypatch.setattr(cli, "_table1", broken)
    with pytest.raises(TypeError, match="not a numerical failure"):
        main(["all", "--samples", "20000", "--output", str(tmp_path / "run")])
    assert not (tmp_path / "run" / "table1.FAILED").exists()


def test_all_json_manifests_record_their_parameters(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, _, _ = run(capsys, ["all", "--samples", "20000", "--seed", "42",
                              "--alpha", "0.05", "--format", "json",
                              "--output", str(out_dir)])
    assert code == 0
    expected = {
        "table1": (list(cli.TABLE1_THETAS), None),
        "table2": (list(cli.TABLE2_THETAS), [0.05]),
        "table3": (list(cli.TABLE3_THETAS), None),
        "figure_theta_0.5": ([0.5], None),
        "figure_theta_2": ([2.0], None),
    }
    for name, (thetas, alphas) in expected.items():
        manifest = json.loads((out_dir / f"{name}.json").read_text())["manifest"]
        assert manifest["thetas"] == thetas, name
        assert manifest["alphas"] == alphas, name
        assert manifest["samples"] == 20000 and manifest["seed"] == 42, name


@pytest.mark.parametrize("workers", ["1", "2", "8"])
def test_all_equals_the_single_report_commands(tmp_path, capsys, workers):
    # 70,000 samples span two chunks, so the shared sweep's merge order counts
    common = ["--samples", "70000", "--seed", "42", "--workers", workers]
    out_dir = tmp_path / "all"
    assert run(capsys, ["all", *common, "--output", str(out_dir)])[0] == 0
    singles = {
        "table1.csv": ["table1"],
        "table2.csv": ["table2"],
        "table3.csv": ["table3"],
        "figure_theta_0.5.csv": ["figure", "--theta", "0.5"],
        "figure_theta_2.csv": ["figure", "--theta", "2"],
    }
    for name, argv in singles.items():
        code, out, _ = run(capsys, [*argv, *common])
        assert code == 0, name
        assert (out_dir / name).read_text() == out, name


@pytest.mark.parametrize("workers", ["1", "2"])
def test_all_csvs_match_the_pinned_digests(tmp_path, capsys, workers):
    # the byte-identity contract: refactors and worker counts change no byte
    out_dir = tmp_path / "all"
    code, _, _ = run(capsys, ["all", "--samples", "70000", "--seed", "7",
                              "--workers", workers, "--output", str(out_dir)])
    assert code == 0
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
               for name in GOLDEN_CSV_SHA256}
    assert digests == GOLDEN_CSV_SHA256


def test_all_draws_each_shared_chunk_once(tmp_path, monkeypatch, capsys):
    calls = collections.Counter()
    draw = mc.draw_block

    def counting(config, start, count, stream=0):
        calls[stream, start, count] += 1
        return draw(config, start, count, stream)

    monkeypatch.setattr(mc, "draw_block", counting)
    code, _, _ = run(capsys, ["all", "--samples", "70000", "--seed", "42",
                              "--workers", "2", "--output", str(tmp_path / "run")])
    assert code == 0
    shared = {key: n for key, n in calls.items() if key[0] in (0, 1, 2)}
    assert sorted(shared) == [(stream, start, count) for stream in (0, 1, 2)
                              for start, count in ((0, 65536), (65536, 4464))]
    assert set(shared.values()) == {1}


def test_all_builds_one_calibration_per_estimator(tmp_path, monkeypatch, capsys):
    # table2 and both figures read the same two calibrations
    built, keys = [], []
    post_init = hyptest.NullCalibration.__post_init__
    calibrate = hyptest.null_calibrations

    def counting(self):
        built.append(self)
        post_init(self)

    def recording(*args):
        calibrations = calibrate(*args)
        keys.append(set(calibrations))
        return calibrations

    monkeypatch.setattr(hyptest.NullCalibration, "__post_init__", counting)
    monkeypatch.setattr(hyptest, "null_calibrations", recording)
    code, _, _ = run(capsys, ["all", "--samples", "20000", "--seed", "42",
                              "--output", str(tmp_path / "run")])
    assert code == 0
    assert len(built) == 2
    assert keys == [{estimators.EstimatorKind.JS, estimators.EstimatorKind.ML}]


def test_importing_the_cli_does_not_load_scipy_stats():
    probe = "import sys, steinsim.cli; print('scipy.stats' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, check=True, timeout=60,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.stdout.strip() == "False"


def test_package_attributes_are_the_submodules():
    for name, module in (("assess", assess), ("mc", mc), ("hyptest", hyptest),
                         ("estimators", estimators)):
        assert getattr(steinsim, name) is module is sys.modules[f"steinsim.{name}"]
    # and so right after a bare `import steinsim`, in a fresh interpreter
    probe = ("import steinsim; print([type(getattr(steinsim, n)).__name__ for n in "
             "('assess', 'mc', 'hyptest', 'estimators')])")
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, check=True, timeout=60,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.stdout.strip() == str(["module"] * 4)
