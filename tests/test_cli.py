import collections
import csv
import ctypes
import hashlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import steinsim
from steinsim import assess, cli, estimators, hyptest, mc
from steinsim.cli import main

SMALL = ["--samples", "30000", "--seed", "42"]

# sha256 of the six data files of `all --samples 70000 --seed 7`, the same
# for every worker count, OpenBLAS kernel and OpenBLAS thread count: each
# float is written at six significant digits, far above the last bits in
# which kernels round the moment GEMMs and LAPACK's eigvalsh and solve
GOLDEN_SHA256 = {
    "table1.csv": "a50a4441d8fc51200a136997c3429608acbfe57fa17936976c577a2f4b601e33",
    "table2.csv": "6f203d2834d15d6397ef90c6a9777006e9023ecbe965cefeca83244ffb390028",
    "table3.csv": "cae1ab91103b3e53e60383be19e4ec05024ed09b19f412cd653289790fb19449",
    "figure_theta_0.5.csv": "ef1155e235a55a518b09cbd9f4ecec0eeee770a0a78c26ff441ec4a722f36e59",
    "figure_theta_2.csv": "576e028d7fd09f52dfdc664d9965fc26be70b179ef6981b441bc49f64de13a26",
    "table3_eigenvalues.json": "a844092fcae447c97422a33c170f45d1bbcd59be626b7e167dfca60f84337802",
}

# sha256 of the same six files of `all` at the defaults: k = 14, N = 10^6, seed 42
DEFAULTS_SHA256 = {
    "table1.csv": "aecd45b4361ba845ba0bf546412e84a227688e94821738d56c349f5ba19118bd",
    "table2.csv": "87d2ea7f0501a3d73dd6f2037db23e2edcda14b2ccef4e18163b9349452fa918",
    "table3.csv": "0b674af1c8dcda949e2d8cff0b88cf456d187d65fc6ada1947b868c8d0204900",
    "figure_theta_0.5.csv": "5ff00c60c15e05fb5a01e961b166cd150fe23d54833b7da2f1bd0f1ef12a8b13",
    "figure_theta_2.csv": "b593b06ba313e8dfb723cf9e8317a52f6a918e32d7006fc329f127eac8b483b0",
    "table3_eigenvalues.json": "9be5f4cb6a8ad5e13baebb1b8abef66c554767905288709e12849fa3a8286cfb",
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


def _strict_json(text):
    """Parse RFC 8259 JSON, which has no NaN or Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_json_output_writes_a_missing_stderr_as_null(tmp_path, capsys):
    # one sample has no standard error of the MSE
    argv = ["table1", "--samples", "1", "--theta", "0"]
    code, out, _ = run(capsys, [*argv, "--format", "json"])
    assert code == 0
    assert [row["stderr"] for row in _strict_json(out)["rows"]] == [None, None]
    table = tmp_path / "t1.csv"
    assert run(capsys, [*argv, "--output", str(table)])[0] == 0
    assert "nan" in table.read_text()  # CSV keeps nan
    assert _strict_json((tmp_path / "t1.csv.manifest.json").read_text())["samples"] == 1


@settings(derandomize=True, max_examples=2000, deadline=None)
@given(st.floats())
@example(float("nan"))
@example(float("inf"))
@example(float("-inf"))
@example(-0.0)
@example(5e-324)
@example(1.7976931348623157e308)
def test_a_rounded_float_prints_as_the_float(value):
    # so rounding a report's data before the CSV writer moves no CSV byte
    rounded = cli._rounded(value)
    assert cli._fmt(rounded) == cli._fmt(value)
    if math.isfinite(value):
        assert json.loads(cli._json([rounded])) == [rounded]
    else:  # nan in the CSV, null in JSON
        assert cli._fmt(rounded) == str(value) and json.loads(cli._json([rounded])) == [None]


@pytest.mark.parametrize("argv, repeat", [
    (["table1", "--theta", "0.5"], ["--theta", "0.5"]),
    (["table2", "--theta", "0", "--alpha", "0.05"], ["--alpha", "0.05"]),
    (["table2", "--theta", "0", "--alpha", "0.05"], ["--theta", "0"]),
    (["table3", "--theta", "0.5"], ["--theta", "0.5"]),
    (["figure", "--theta", "2", "--points", "5"], ["--theta", "2"]),
], ids=["table1-theta", "table2-alpha", "table2-theta", "table3-theta", "figure-theta"])
def test_a_repeated_value_gives_its_rows_once(capsys, argv, repeat):
    common = ["--samples", "20000", "--seed", "42"]
    code, once, _ = run(capsys, [*argv, *common])
    assert code == 0
    code, twice, _ = run(capsys, [*argv, *repeat, *common])
    assert code == 0 and twice == once


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
    # one figure per command: a second distinct theta is refused, not dropped
    code, out, err = run(capsys, ["figure", "--theta", "0.5", "--theta", "2",
                                  "--samples", "2000", "--points", "5"])
    assert (code, out) == (1, "") and "one --theta" in err


def test_all_refuses_stdout_before_any_draw(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where a fallback directory would appear
    draws = count_draws(monkeypatch)
    code, out, err = run(capsys, ["all", "--samples", "20000", "--output", "-"])
    assert (code, out) == (1, "") and not draws
    assert err.count("\n") == 1 and "all writes a directory" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target", ["missing/x.csv", "file/x.csv", "dir"])
def test_an_unwritable_output_is_refused_before_any_draw(tmp_path, monkeypatch,
                                                         capsys, target):
    # a missing parent, a parent that is a file, and a target that is a
    # directory are refused before the sweep, not at the write after it
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    draws = count_draws(monkeypatch)
    code, out, err = run(capsys, ["table1", "--samples", "2000",
                                  "--output", str(tmp_path / target)])
    assert (code, out) == (1, "") and not draws
    assert err.count("\n") == 1 and "--output" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
    assert list((tmp_path / "dir").iterdir()) == []


def test_a_directory_at_the_csv_sidecar_is_refused_before_any_draw(tmp_path, monkeypatch,
                                                                   capsys):
    # the sidecar is written after the report, so this used to leave a CSV
    # without its manifest after a full sweep
    (tmp_path / "x.csv.manifest.json").mkdir()
    draws = count_draws(monkeypatch)
    code, out, err = run(capsys, ["table1", "--samples", "2000",
                                  "--output", str(tmp_path / "x.csv")])
    assert (code, out) == (1, "") and not draws
    assert err.count("\n") == 1 and "x.csv.manifest.json is a directory" in err
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv.manifest.json"]


@pytest.mark.parametrize("name", ["table3.csv.manifest.json", "table3_eigenvalues.json",
                                  "figure_theta_2.FAILED", "manifest.json"])
def test_all_refuses_a_directory_at_any_file_it_writes_before_any_draw(
        tmp_path, monkeypatch, capsys, name):
    # each used to be found only when `all` reached it, after the sweeps of
    # the reports before it, leaving no manifest.json
    out_dir = tmp_path / "out"
    (out_dir / name).mkdir(parents=True)
    draws = count_draws(monkeypatch)
    code, out, err = run(capsys, ["all", "--samples", "3000", "--output", str(out_dir)])
    assert (code, out) == (1, "") and not draws
    assert err.count("\n") == 1 and f"{name} is a directory" in err
    assert [p.name for p in out_dir.iterdir()] == [name]


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
    # errors near 1e170 overflow the centered cross products to inf,
    # which must fail as a singular covariance (a numerical failure of the
    # CLI), not as a LinAlgError
    cfg = mc.SimulationConfig(k=14, n_samples=2000, seed=42)
    z = mc.draw_block(cfg, 0, cfg.n_samples)
    with np.errstate(over="ignore", invalid="ignore"):
        moments = mc.StreamingMoments.from_batch(1e170 * z, z)
        cell = mc.CellMoments(moments, 0.0, 0.0, ())
        with pytest.raises(assess.SingularCovarianceError) as err:
            assess.assess_moments(estimators.EstimatorKind.JS, 0.5, cell)
    assert isinstance(err.value, steinsim.NumericalError)
    assert str(err.value) == ("covariance of the JS estimate at theta=0.5 is "
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


@pytest.mark.parametrize("argv", [["table1", "--theta", "nan"], ["figure", "--theta", "inf"]],
                         ids=["table1", "figure"])
def test_a_non_finite_theta_is_a_usage_error_before_any_draw(capsys, monkeypatch, argv):
    draws = []
    monkeypatch.setattr(mc, "draw_block", lambda *args, **kwargs: draws.append(args))
    code, out, err = run(capsys, [*argv, "--samples", "20000"])
    assert code == 1 and out == "" and draws == []
    assert "must be finite" in err


def test_a_large_theta_inside_the_bound_still_runs(capsys):
    code, out, _ = run(capsys, ["table3", "--theta", "1e10", "--samples", "2000"])
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 2 and all(math.isfinite(float(r[2])) for r in rows)


@pytest.mark.parametrize("argv, theta", [
    (["figure", "--theta", "-1e5", "--samples", "2000", "--points", "5"], -1e5),
    (["table1", "--theta", "-2.5e-1", "--samples", "2000"], -0.25),
], ids=["figure", "table1"])
def test_a_negative_theta_in_exponent_form_is_a_value(capsys, argv, theta):
    # argparse's own negative-number pattern knows only plain decimals, so
    # "-1e5" after a space used to be read as an unknown option (exit 1)
    code, out, err = run(capsys, [*argv, "--format", "json"])
    assert code == 0, err
    assert json.loads(out)["manifest"]["thetas"] == [theta]


@pytest.mark.parametrize("argv", [["--theta=-0"], ["--theta=-0", "--theta", "0"]],
                         ids=["alone", "first"])
def test_a_negative_zero_theta_is_labelled_zero(tmp_path, capsys, argv):
    path = tmp_path / "table1.csv"
    code, _, err = run(capsys, ["table1", "--samples", "100", *argv, "--output", str(path)])
    assert code == 0, err
    assert [row[:2] for row in parse_csv(path.read_text())[1]] == [["JS", "0"], ["ML", "0"]]
    thetas = json.loads(Path(str(path) + ".manifest.json").read_text())["thetas"]
    assert [math.copysign(1.0, t) for t in thetas] == [1.0]


@pytest.mark.parametrize("argv", [["--samples", "5000"], ["--samples", "20000", "--alpha", "1e-300"]],
                         ids=["samples", "alpha"])
def test_an_unresolvable_alpha_fails_before_any_draw(capsys, monkeypatch, argv):
    # table2 checks --samples against its alphas before the null pass
    draws = count_draws(monkeypatch)
    code, out, err = run(capsys, ["table2", *argv])
    assert code == 2 and out == "" and not draws
    assert "steinsim: numerical failure: insufficient null resolution" in err


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


def test_all_json_rows_equal_the_csv_cells(tmp_path, capsys):
    # one precision for both formats: a JSON value is the CSV cell read back
    dirs = {fmt: tmp_path / fmt for fmt in ("csv", "json")}
    for fmt, out_dir in dirs.items():
        assert run(capsys, ["all", *SMALL, "--format", fmt, "--output", str(out_dir)])[0] == 0
    for name in (name for name in GOLDEN_SHA256 if name.endswith(".csv")):
        header, cells = parse_csv((dirs["csv"] / name).read_text())
        payload = _strict_json((dirs["json"] / name.replace(".csv", ".json")).read_text())
        assert payload["columns"] == header and len(payload["rows"]) == len(cells), name
        for row, line in zip(payload["rows"], cells):
            for column, cell in zip(header, line):
                value = row[column]
                if isinstance(value, str):
                    assert value == cell, (name, column)
                elif value is None:
                    assert cell == "nan", (name, column)
                else:
                    assert value == float(cell), (name, column)


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


def test_all_leaves_no_file_of_an_earlier_run_in_a_reused_directory(tmp_path, capsys):
    # each run's files are exactly its own reports': a failing table2 takes
    # the earlier table2.csv and its sidecar away, and a later success its
    # table2.FAILED
    out_dir = tmp_path / "reused"
    sidecars = {f"{name}.manifest.json" for name in DATA_FILES if name.endswith(".csv")}
    complete = {*DATA_FILES, *sidecars, "manifest.json"}
    for samples, code, files in [
        ("20000", 0, complete),
        ("6000", 2, complete - {"table2.csv", "table2.csv.manifest.json"} | {"table2.FAILED"}),
        ("20000", 0, complete),
    ]:
        assert run(capsys, ["all", "--samples", samples, "--seed", "1",
                            "--output", str(out_dir)])[0] == code, samples
        assert {p.name for p in out_dir.iterdir()} == files, samples
        for manifest in out_dir.glob("*manifest.json"):
            assert json.loads(manifest.read_text())["samples"] == int(samples), manifest


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


@pytest.mark.parametrize("error", [mc.ThetaResolutionError, hyptest.NullResolutionError,
                                   assess.SingularCovarianceError,
                                   estimators.ShrinkageDomainError])
def test_every_numerical_failure_is_a_numerical_error_and_no_bad_argument(error):
    assert issubclass(error, steinsim.NumericalError)
    assert not issubclass(error, ValueError)


class _UnresolvedPower(steinsim.NumericalError):
    """A numerical failure that no module of the package raises."""


def _unresolvable_power_table(*args, **kwargs):
    raise _UnresolvedPower("power cannot be resolved")


def test_any_numerical_error_makes_a_report_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(hyptest, "power_table", _unresolvable_power_table)
    code, out, err = run(capsys, ["table2", *SMALL])
    assert (code, out) == (2, "")
    assert err.endswith("\nsteinsim: numerical failure: power cannot be resolved\n")


def test_any_numerical_error_fails_only_its_report_in_all(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(hyptest, "power_table", _unresolvable_power_table)
    out_dir = tmp_path / "run"
    code, _, _ = run(capsys, ["all", *SMALL, "--output", str(out_dir)])
    assert code == 2
    failed = (out_dir / "table2.FAILED").read_text()
    assert failed == "_UnresolvedPower: power cannot be resolved\n"
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["failures"] == ["table2"]
    assert manifest["outputs"] == ["table1", "table3", "figure_theta_0.5", "figure_theta_2"]
    for name in manifest["outputs"]:
        assert (out_dir / f"{name}.csv").exists()
    assert (out_dir / "table3_eigenvalues.json").exists()


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
    # the null mean is recorded where a report reads the null, and only there
    expected = {
        "table1": (list(cli.TABLE1_THETAS), None, False),
        "table2": (list(cli.TABLE2_THETAS), [0.05], True),
        "table3": (list(cli.TABLE3_THETAS), None, False),
        "figure_theta_0.5": ([0.5], None, True),
        "figure_theta_2": ([2.0], None, True),
    }
    for name, (thetas, alphas, reads_null) in expected.items():
        manifest = json.loads((out_dir / f"{name}.json").read_text())["manifest"]
        assert manifest["thetas"] == thetas, name
        assert manifest["alphas"] == alphas, name
        assert manifest["samples"] == 20000 and manifest["seed"] == 42, name
        if reads_null:
            assert manifest["mu0"] == hyptest.MU0, name
        else:
            assert "mu0" not in manifest, name
    run_manifest = json.loads((out_dir / "manifest.json").read_text())
    assert run_manifest["mu0"] == hyptest.MU0 == 1.25


@pytest.mark.parametrize("workers", ["1", "2", "8"])
def test_all_equals_the_single_report_commands(tmp_path, capsys, workers):
    # 70,000 samples span 32 chunks, so the shared sweep's merge order counts
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


def assert_pinned_digests(out_dir, golden=GOLDEN_SHA256):
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
               for name in golden}
    assert digests == golden


@pytest.mark.parametrize("workers", ["1", "2"])
def test_all_csvs_match_the_pinned_digests(tmp_path, capsys, workers):
    # the byte-identity contract: refactors and worker counts change no byte
    out_dir = tmp_path / "all"
    code, _, _ = run(capsys, ["all", "--samples", "70000", "--seed", "7",
                              "--workers", workers, "--output", str(out_dir)])
    assert code == 0
    assert_pinned_digests(out_dir)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_the_chunk_size_changes_no_byte(tmp_path, monkeypatch, capsys, workers):
    # the error-bar batches are cut by sample index, and chunks within them,
    # so every data file keeps its pinned bytes at any chunk size
    for chunk_samples in (1000, 4096, 5000):
        monkeypatch.setattr(mc, "CHUNK_SAMPLES", chunk_samples)
        out_dir = tmp_path / str(chunk_samples)
        code, _, _ = run(capsys, ["all", "--samples", "70000", "--seed", "7",
                                  "--workers", workers, "--output", str(out_dir)])
        assert code == 0
        assert_pinned_digests(out_dir)


def test_all_at_the_defaults_matches_its_pinned_digests(tmp_path, capsys):
    # the paper's run itself, whose bytes the smaller pin above only samples
    out_dir = tmp_path / "all"
    code, _, _ = run(capsys, ["all", "--workers", "2", "--output", str(out_dir)])
    assert code == 0
    assert_pinned_digests(out_dir, DEFAULTS_SHA256)


def test_all_matches_the_pinned_digests_under_the_haswell_kernel(tmp_path):
    # a child that forces OpenBLAS's AVX2 kernel on two threads, whose full
    # precision eigenvalues differ from those of one thread
    out_dir = tmp_path / "all"
    argv = ["all", "--samples", "70000", "--seed", "7", "--output", str(out_dir)]
    code = _fresh_environment(f"import steinsim.cli; print(steinsim.cli.main({argv!r}))",
                              OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="2")
    assert code == "0"
    assert_pinned_digests(out_dir)


def count_draws(monkeypatch) -> collections.Counter:
    """Count each ``mc.draw_block(config, start, count, stream)`` call by
    ``(stream, start, count)``."""
    calls = collections.Counter()
    draw = mc.draw_block

    def counting(config, start, count, stream=0, out=None):
        calls[stream, start, count] += 1
        return draw(config, start, count, stream, out)

    monkeypatch.setattr(mc, "draw_block", counting)
    return calls


def chunks(streams: dict) -> list:
    """The ``(stream, start, count)`` chunks of a sweep over the first
    ``streams[stream]`` samples of each stream, in order."""
    return [(stream, start, count) for stream, n in sorted(streams.items())
            for start, count in mc._chunk_ranges(n)]


def test_all_draws_each_shared_chunk_once(tmp_path, monkeypatch, capsys):
    calls = count_draws(monkeypatch)
    code, _, _ = run(capsys, ["all", "--samples", "70000", "--seed", "42",
                              "--workers", "2", "--output", str(tmp_path / "run")])
    assert code == 0
    # two full streams: 0 for the cells and the nulls, 2 for the power cells
    shared = {key: n for key, n in calls.items() if key[0] != hyptest.PAIR_STREAM}
    assert sorted(shared) == chunks({0: 70_000, 2: 70_000})
    assert set(shared.values()) == {1}


@pytest.mark.parametrize("argv, streams, built", [
    (["table1"], {0: 70_000}, ["collect_cells"]),
    (["table3"], {0: 70_000}, ["collect_cells"]),
    (["table2"], {0: 70_000, 2: 70_000}, ["null_calibrations"]),
    (["figure", "--theta", "2"], {0: 70_000, 3: 100}, ["null_calibrations"]),
], ids=["table1", "table3", "table2", "figure"])
def test_a_single_report_sweeps_only_the_streams_it_reads(monkeypatch, capsys,
                                                          argv, streams, built):
    # a single command reads the lazily cached passes of `all` it needs, and
    # its stream-0 sweep builds only the passes it reads: a single table1
    # takes no null statistic, and a single figure no cell
    calls = count_draws(monkeypatch)
    names = []
    for module, name in ((mc, "collect_cells"), (hyptest, "null_calibrations")):
        def recording(*args, name=name, build=getattr(module, name)):
            names.append(name)
            return build(*args)

        monkeypatch.setattr(module, name, recording)
    code, _, _ = run(capsys, [*argv, "--samples", "70000", "--seed", "42",
                              "--workers", "2"])
    assert code == 0
    assert sorted(calls) == chunks(streams)
    assert set(calls.values()) == {1}
    assert names == built


def test_all_builds_one_calibration_per_estimator(tmp_path, monkeypatch, capsys):
    # table2 and both figures read the same two calibrations, from the one
    # sweep of stream 0, which also takes the cells
    streams, keys = [], []
    sweep, calibrate = mc.sweep, hyptest.null_calibrations

    def counting(config, passes, stream=0):
        streams.append(stream)
        return sweep(config, passes, stream)

    def recording(config):
        fold, take, result = calibrate(config)

        def kept():
            calibrations = result()
            keys.append(set(calibrations))
            return calibrations

        return fold, take, kept

    monkeypatch.setattr(mc, "sweep", counting)
    monkeypatch.setattr(hyptest, "null_calibrations", recording)
    code, _, _ = run(capsys, ["all", "--samples", "20000", "--seed", "42",
                              "--output", str(tmp_path / "run")])
    assert code == 0
    assert streams.count(0) == 1
    assert keys == [{estimators.EstimatorKind.JS, estimators.EstimatorKind.ML}]


def test_importing_the_cli_loads_no_scipy_or_numpy_package_it_does_not_use():
    # scipy.special's __init__ would clone numpy's namespace, f2py included
    unused = ("scipy.stats", "scipy.special", "numpy.f2py", "numpy.testing", "numpy.ma")
    probe = f"import sys, steinsim.cli; print([m for m in {unused} if m in sys.modules])"
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, check=True, timeout=60,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.stdout.strip() == "[]"


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


def _fresh_environment(probe: str, **env) -> str:
    """stdout of ``probe`` in a fresh interpreter on these sources, with no
    OPENBLAS_NUM_THREADS unless ``env`` sets it."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, check=True, timeout=60,
                            env={**base, **env, "PYTHONPATH": src})
    return result.stdout.strip()


PRINT_BLAS_THREADS = "import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"


def test_the_cli_starts_blas_on_one_thread():
    assert _fresh_environment("import steinsim.cli; " + PRINT_BLAS_THREADS) == "1"


def test_the_cli_keeps_a_blas_thread_count_from_the_environment():
    probe = "import steinsim.cli; " + PRINT_BLAS_THREADS
    assert _fresh_environment(probe, OPENBLAS_NUM_THREADS="3") == "3"


def test_the_library_leaves_the_blas_threads_alone():
    probe = "import steinsim; steinsim.mc; " + PRINT_BLAS_THREADS
    assert _fresh_environment(probe) == "None"


def test_manifests_record_the_provenance_of_the_run(tmp_path, capsys):
    import scipy

    out_dir = tmp_path / "all"
    code, _, _ = run(capsys, ["all", "--samples", "20000", "--seed", "42",
                              "--output", str(out_dir)])
    assert code == 0
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # the kernel and threads numpy's bundled OpenBLAS runs, read from the
    # library itself
    libs = list((Path(np.__file__).parent.parent / "numpy.libs")
                .glob("libscipy_openblas64_*.so"))
    kernel = threads = None
    if libs:
        lib = ctypes.CDLL(str(libs[0]))
        corename = lib.scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        kernel = corename().decode()
        threads = lib.scipy_openblas_get_num_threads64_()
        assert kernel and threads >= 1
    expected = {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas["name"], "version": blas["version"], "kernel": kernel,
                 "threads": threads},
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "chunk_samples": mc.CHUNK_SAMPLES,
        "stderr_batches": mc.STDERR_BATCHES,
        # the mc contract's RNG: Philox keyed [seed, stream], w = 4 * ceil(14 / 4)
        # words per sample, mapped to normals by ndtri
        "rng": {"bit_generator": "Philox", "key": ["seed", "stream"],
                "words_per_sample": 16, "normal_map": "ndtri"},
        "source_sha256": hashlib.sha256(b"".join(
            path.read_bytes() for path in sorted(Path(steinsim.__file__).parent.glob("*.py"),
                                                 key=lambda path: path.name))).hexdigest(),
    }
    assert "OPENBLAS_NUM_THREADS" in expected["threads_env"]
    for name in ("manifest.json", "table1.csv.manifest.json"):
        assert json.loads((out_dir / name).read_text())["provenance"] == expected, name


def test_the_console_script_runs_the_cli(monkeypatch, capsys):
    # the target that `pip install` makes the `steinsim` command run
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["steinsim"]
    entry = pkgutil.resolve_name(target)
    assert entry is cli.entry
    monkeypatch.setattr(sys, "argv", ["steinsim", "--version"])
    with pytest.raises(SystemExit) as exit_:
        entry()
    assert exit_.value.code == 0
    assert capsys.readouterr().out == f"{steinsim.__version__}\n"


# the threads numpy's bundled OpenBLAS runs, as the library reports them,
# read without steinsim.cli (None if numpy bundles no OpenBLAS)
PRINT_OPENBLAS_THREADS = (
    "import ctypes, pathlib, numpy; "
    "libs = sorted((pathlib.Path(numpy.__file__).parent.parent / 'numpy.libs')"
    ".glob('libscipy_openblas64_*.so')); "
    "print(ctypes.CDLL(str(libs[0])).scipy_openblas_get_num_threads64_() if libs else None)")


def _manifest_blas(out, probe: str = "pass") -> tuple[str, dict]:
    """stdout of ``probe`` then ``table1 --output out`` in a fresh
    interpreter, and the ``provenance.blas`` of the run's manifest."""
    argv = ["table1", "--samples", "2000", "--output", str(out)]
    printed = _fresh_environment(f"{probe}; import steinsim.cli; "
                                 f"print(steinsim.cli.main({argv!r}))")
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    return printed, manifest["provenance"]["blas"]


def test_a_cli_run_records_its_one_blas_thread(tmp_path):
    printed, blas = _manifest_blas(tmp_path / "table1.csv")
    assert printed == "0"
    assert blas["threads"] == (None if blas["kernel"] is None else 1)


def test_a_manifest_records_the_blas_threads_of_numpy_loaded_first(tmp_path):
    # numpy loaded before steinsim.cli starts OpenBLAS on its own count,
    # whatever OPENBLAS_NUM_THREADS the CLI then sets
    printed, blas = _manifest_blas(tmp_path / "table1.csv", PRINT_OPENBLAS_THREADS)
    threads, code = printed.splitlines()
    assert code == "0"
    assert str(blas["threads"]) == threads
