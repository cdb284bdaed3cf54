"""End-to-end reproduction targets at the default scale (k = 14, N = 10^6,
default seed).

Each test covers one numbered target with its fixed tolerance and prints a
single pass/fail line.  Tolerance bands are Monte Carlo standard-error
budgets at N = 10^6 and are pinned here, not tuned.
"""

import math

import numpy as np

from conftest import estimate, ml_power_oracle, null_calibrations, statistics, sweep_values
from steinsim.cli import main as cli_main
from steinsim.estimators import EstimatorKind
from steinsim.hyptest import (
    ALT_STREAM,
    _critical_value,
    paired_semitail,
    semitail,
)
from steinsim.mc import DEFAULT_SEED, SimulationConfig, tabulate_mean_function

JS, ML = EstimatorKind.JS, EstimatorKind.ML

THETAS = (0.0, 0.5, 1.25, 2.0, 2.5)
POWER_THETAS = (0.0, 0.5, 1.0, 1.25, 1.5, 2.0, 2.5)

MSE_JS_TARGET = {0.0: 2.00, 0.5: 4.45, 1.25: 9.58, 2.0: 11.83, 2.5: 12.53}
MSE_TOL = 0.05

POWER_TARGET = {
    (JS, 0.01): {0.0: .922, 0.5: .470, 1.0: .046, 1.25: .01, 1.5: .009, 2.0: .112, 2.5: .630},
    (ML, 0.01): {0.0: .720, 0.5: .168, 1.0: .017, 1.25: .01, 1.5: .017, 2.0: .168, 2.5: .719},
    (JS, 0.05): {0.0: .994, 0.5: .792, 1.0: .174, 1.25: .05, 1.5: .038, 2.0: .238, 2.5: .789},
    (ML, 0.05): {0.0: .880, 0.5: .369, 1.0: .073, 1.25: .05, 1.5: .073, 2.0: .369, 2.5: .881},
}
POWER_TOL = 0.01

LAMBDA_JS_TARGET = {0.0: 1.99, 0.5: 7.47, 1.25: 13.57, 2.0: 13.96, 2.5: 13.99}
LAMBDA_JS_TOL = 0.15
LAMBDA_ML_TOL = 0.10
JS_EFF_AT_ZERO = 0.14
JS_EFF_AT_ZERO_TOL = 0.01
ML_EIGEN_RANGE = (0.99, 1.01)
JS_EIGEN_RANGE_AT_ZERO = (0.13, 0.16)
EFFICIENCY_EIGEN_LIMIT = 1.02

S_BAND = (3.32, 9.97)  # semi-tail window for p in [0.001, 0.1]


def _finish(name: str, failures: list) -> None:
    print(f"ACCEPTANCE {name}: {'FAIL' if failures else 'PASS'}")
    assert not failures, f"{name}: " + "; ".join(failures)


def test_01_table1_mse_reproduction(full_cells):
    failures = []
    for theta, target in MSE_JS_TARGET.items():
        got = full_cells[JS, theta].mse
        if abs(got - target) > MSE_TOL:
            failures.append(f"JS theta={theta}: mse={got:.4f} target={target}")
    for theta in THETAS:
        cell = full_cells[ML, theta]
        if abs(cell.mse - 14.0) > MSE_TOL:
            failures.append(f"ML theta={theta}: mse={cell.mse:.4f}")
        if abs(cell.mse - 14.0) > 3 * cell.mse_stderr:
            failures.append(f"ML theta={theta}: off the analytic value by "
                            f"more than 3 stderr ({cell.mse:.4f})")
    _finish("1 table1-mse", failures)


def exact_js_risk(theta: float, k: int) -> float:
    """Exact JS risk k - (k - 2)² E[1 / χ²_k(kθ²)] (James & Stein 1961), the
    expectation as the Poisson mixture Σ_j Pois(j; kθ²/2) / (k - 2 + 2j)."""
    lam = k * theta * theta / 2
    pmf, mixture = math.exp(-lam), 0.0
    for j in range(int(lam + 12 * math.sqrt(lam)) + 40):
        mixture += pmf / (k - 2 + 2 * j)
        pmf *= lam / (j + 1)
    return k - (k - 2) ** 2 * mixture


EXACT_JS_RISK = {0.0: 2.00000, 0.5: 4.45212, 1.25: 9.57762, 2.0: 11.82870, 2.5: 12.52630}


def test_01b_mse_lies_within_3_stderr_of_the_exact_risk(full_cells):
    # stream 0 gives every theta the same z, so the ten deviations are
    # correlated: together they are one check of the pass, not ten
    failures = []
    for theta, pinned in EXACT_JS_RISK.items():
        exact = exact_js_risk(theta, 14)
        if abs(exact - pinned) > 5e-6:
            failures.append(f"exact JS risk at theta={theta}: {exact:.6f} != {pinned}")
        for kind, risk in ((JS, exact), (ML, 14.0)):
            cell = full_cells[kind, theta]
            if abs(cell.mse - risk) > 3 * cell.mse_stderr:
                failures.append(f"{kind.value} theta={theta}: mse={cell.mse:.5f} exact="
                                f"{risk:.5f} (3 stderr={3 * cell.mse_stderr:.5f})")
    _finish("1b exact-risk", failures)


def test_02_table2_power_reproduction(full_powers):
    failures = []
    for (kind, alpha), by_theta in POWER_TARGET.items():
        for theta, target in by_theta.items():
            got = full_powers[kind, theta][alpha]
            if abs(got - target) > POWER_TOL:
                failures.append(
                    f"{kind.value} alpha={alpha} theta={theta}: "
                    f"power={got:.4f} target={target}")
    for alpha in (0.01, 0.05):
        got = full_powers[JS, 1.5][alpha]
        if not got < alpha:
            failures.append(f"JS theta=1.5 power {got:.4f} not below alpha={alpha}")
    _finish("2 table2-power", failures)


def test_03_ml_power_matches_oracle(full_powers):
    n = 1_000_000
    failures = []
    for theta in POWER_THETAS:
        for alpha in (0.01, 0.05):
            got = full_powers[ML, theta][alpha]
            exact = ml_power_oracle(theta, alpha, 14)
            se = max(math.sqrt(exact * (1 - exact) / n), 1e-9)
            if abs(got - exact) > 3 * se:
                failures.append(
                    f"theta={theta} alpha={alpha}: power={got:.5f} "
                    f"oracle={exact:.5f} (3se={3 * se:.5f})")
    _finish("3 ml-power-oracle", failures)


def test_04_table3_information_reproduction(full_reports):
    failures = []
    for theta, target in LAMBDA_JS_TARGET.items():
        got = full_reports[JS, theta].scalar_lambda
        if abs(got - target) > LAMBDA_JS_TOL:
            failures.append(f"JS theta={theta}: lambda={got:.4f} target={target}")
    for theta in THETAS:
        got = full_reports[ML, theta].scalar_lambda
        if abs(got - 14.0) > LAMBDA_ML_TOL:
            failures.append(f"ML theta={theta}: lambda={got:.4f}")
    eff0 = full_reports[JS, 0.0].mean_efficiency
    if abs(eff0 - JS_EFF_AT_ZERO) > JS_EFF_AT_ZERO_TOL:
        failures.append(f"JS mean efficiency at 0: {eff0:.4f}")
    for theta in (2.0, 2.5):
        eff = full_reports[JS, theta].mean_efficiency
        if not eff >= 0.99:
            failures.append(f"JS mean efficiency at {theta}: {eff:.4f} < 0.99")
    _finish("4 table3-information", failures)


def test_05_eigenvalue_ranges(full_reports):
    failures = []
    lo, hi = ML_EIGEN_RANGE
    for theta in THETAS:
        report = full_reports[ML, theta]
        if report.eigen_min < lo or report.eigen_max > hi:
            failures.append(
                f"ML theta={theta}: eigenvalues [{report.eigen_min:.4f}, "
                f"{report.eigen_max:.4f}] outside [{lo}, {hi}]")
    report = full_reports[JS, 0.0]
    lo, hi = JS_EIGEN_RANGE_AT_ZERO
    if report.eigen_min < lo or report.eigen_max > hi:
        failures.append(
            f"JS theta=0: eigenvalues [{report.eigen_min:.4f}, "
            f"{report.eigen_max:.4f}] outside [{lo}, {hi}]")
    _finish("5 eigenvalue-ranges", failures)


def test_06_paired_semitail_at_theta_2(full_calibrations, full_config):
    failures = []
    s_js, s_ml, _ = paired_semitail(2.0, 100, full_calibrations, full_config)
    above = int(np.count_nonzero(s_ml > s_js))
    if above < 95:
        failures.append(f"only {above}/100 pairs have s_ml > s_js")
    in_band = (s_ml - s_js)[(S_BAND[0] <= s_js) & (s_js <= S_BAND[1])]
    if not in_band.size:
        failures.append("no pairs landed in the semi-tail band")
    elif float(np.median(in_band)) < 1.0:
        failures.append(f"median gap in band {np.median(in_band):.3f} < 1")
    _finish("6 figure-theta-2", failures)


def test_07_paired_semitail_at_theta_half(full_calibrations, full_config):
    failures = []
    s_js, s_ml, shrinkage = paired_semitail(0.5, 100, full_calibrations, full_config)
    extreme = int(np.count_nonzero((s_ml < 2.0) & (s_js > 4.3)))
    if not 10 <= extreme <= 40:
        failures.append(f"{extreme} extreme-disagreement pairs outside [10, 40]")
    if not np.any((shrinkage < 0) & (s_js - s_ml > 8.0)):
        failures.append("no negative-shrinkage pair with s_js - s_ml > 8")
    _finish("7 figure-theta-0.5", failures)


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------


def test_08b_efficiency_eigenvalues_bounded(full_reports):
    failures = []
    for (kind, theta), report in full_reports.items():
        top = float(np.linalg.eigvalsh(report.lambda_matrix)[-1])
        if top > EFFICIENCY_EIGEN_LIMIT:
            failures.append(f"{kind.value} theta={theta}: eigenvalue {top:.4f}")
    _finish("8b information-bound", failures)


def test_08c_mean_slope_finite_difference_vs_covariance():
    # d/dtheta E[JS_1] two ways: central differences of the tabulated mean
    # function (step 1e-2) against the score-covariance identity
    theta, h = 1.25, 1e-2
    n = 1_000_000
    cfg = SimulationConfig(k=14, n_samples=n, seed=DEFAULT_SEED, n_workers=2)
    grid = np.array([theta - h, theta + h])
    mean_fn = tabulate_mean_function(JS, grid, cfg)[:, 0]
    fd = (mean_fn[1] - mean_fn[0]) / (2 * h)

    y = sweep_values(cfg, theta, lambda y, start, _: y.copy())
    first = estimate(JS, y)[:, 0]
    subfamily_score = (y - theta).sum(axis=1)
    cov = float(np.cov(first, subfamily_score)[0, 1])

    products = (first - first.mean()) * (subfamily_score - subfamily_score.mean())
    se_cov = products.std(ddof=1) / math.sqrt(n)
    se_fd = first.std(ddof=1) * math.sqrt(2.0 / n) / (2 * h)
    combined = math.sqrt(se_cov**2 + se_fd**2)

    failures = []
    if abs(fd - cov) > 3 * combined:
        failures.append(f"fd={fd:.5f} cov={cov:.5f} 3se={3 * combined:.5f}")
    _finish("8c slope-identity", failures)


def test_08d_monotone_transform_invariance():
    n = 100_000
    cfg = SimulationConfig(k=14, n_samples=n, seed=DEFAULT_SEED)
    failures = []
    calibrations = null_calibrations(cfg)
    for kind in (JS, ML):
        plain = calibrations[kind]
        alt = sweep_values(cfg, 2.0, lambda y, start, _: statistics(
            kind, y, index_offset=start), stream=ALT_STREAM)
        mapped = np.exp(plain)
        for alpha in (0.01, 0.05):
            p1 = int((alt > _critical_value(plain, alpha)).sum())
            p2 = int((np.exp(alt) > _critical_value(mapped, alpha)).sum())
            if p1 != p2:
                failures.append(f"{kind.value} alpha={alpha}: {p1} != {p2}")
        if not np.array_equal(semitail(alt, plain), semitail(np.exp(alt), mapped)):
            failures.append(f"{kind.value}: semi-tail values changed")
    _finish("8d transform-invariance", failures)


def test_08e_worker_count_determinism(tmp_path, capsys):
    outputs = {}
    for workers in (1, 2, 8):
        path = tmp_path / f"t1_w{workers}.csv"
        code = cli_main(["table1", "--samples", "200000",
                         "--seed", str(DEFAULT_SEED),
                         "--workers", str(workers), "--output", str(path)])
        capsys.readouterr()
        assert code == 0
        outputs[workers] = path.read_bytes()
    failures = []
    for workers in (2, 8):
        if outputs[workers] != outputs[1]:
            failures.append(f"workers={workers} output differs from workers=1")
    _finish("8e determinism", failures)
