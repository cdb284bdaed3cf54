"""Correctness gates for the benchmark's workload outputs.

Every gate is a band around an exact value or a pinned paper target. The
band is a few of the cell's own Monte Carlo standard errors, so a correct
program passes it at any seed; a value outside it fails the operation that
produced it.

* JS cells are checked against the paper targets pinned in the project's
  acceptance tests (copied here, not imported). Those tolerances are
  standard-error budgets at N = 10^6, so they are scaled by sqrt(10^6 / N).
* ML cells are checked against exact values: MSE = Lambda = k, and the
  power from the noncentral chi-square law. The power band includes the
  noise of the empirical critical value, which dominates at small alpha.
* Mean-function rows are checked against the exact James-Stein mean map
  theta * (1 - (k - 2) E[1 / chi2_{k+2}(k theta^2)]), evaluated through its
  Poisson mixture, with the exact per-component variance.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import gammaln
from scipy.stats import chi2, ncx2

# Band width in standard errors; at 5 the chance that a correct cell fails
# is below 1e-6.
Z = 5.0
PINNED_N = 1_000_000

MU0 = 1.25
MSE_JS_TARGET = {0.0: 2.00, 0.5: 4.45, 1.25: 9.58, 2.0: 11.83, 2.5: 12.53}
POWER_JS_TARGET = {
    0.01: {0.0: .922, 0.5: .470, 1.0: .046, 1.25: .01, 1.5: .009, 2.0: .112, 2.5: .630},
    0.05: {0.0: .994, 0.5: .792, 1.0: .174, 1.25: .05, 1.5: .038, 2.0: .238, 2.5: .789},
}
POWER_TOL = 0.01
LAMBDA_JS_TARGET = {0.0: 1.99, 0.5: 7.47, 1.25: 13.57, 2.0: 13.96, 2.5: 13.99}
LAMBDA_JS_TOL = 0.15

REPORTS = ("table1", "table2", "table3", "figure_theta_0.5", "figure_theta_2")


class Band:
    """Collects band checks for one operation; records the worst one."""

    def __init__(self):
        self.failures: list[str] = []
        self.worst = 0.0  # largest |deviation| / half-width seen

    def check(self, label: str, got: float, want: float, half_width: float) -> None:
        dev = abs(got - want)
        ratio = dev / half_width if half_width > 0 else math.inf
        if not math.isfinite(got) or not ratio <= 1.0:
            self.failures.append(f"{label}: got {got!r}, want {want:.6g} +- {half_width:.3g}")
        if math.isfinite(ratio):
            self.worst = max(self.worst, ratio)


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _pinned_scale(n: int) -> float:
    return math.sqrt(PINNED_N / n)


def ml_power_exact(theta: float, alpha: float, k: int) -> tuple[float, float]:
    """Exact ML power and the density ratio of the statistic at the critical value."""
    crit = chi2.ppf(1.0 - alpha, k)
    ncp = k * (theta - MU0) ** 2
    if ncp == 0:
        return alpha, 1.0
    return float(ncx2.sf(crit, k, ncp)), float(ncx2.pdf(crit, k, ncp) / chi2.pdf(crit, k))


def _check_table1(path: Path, k: int, n: int, band: Band) -> None:
    for row in _rows(path):
        theta, mse, se = float(row["theta"]), float(row["mse"]), float(row["stderr"])
        label = f"table1 {row['estimator']} theta={theta:g}"
        if row["estimator"] == "JS":
            band.check(label, mse, MSE_JS_TARGET[theta], 0.005 + Z * se)
        else:
            band.check(label, mse, float(k), Z * math.sqrt(2.0 * k / n))


def _check_table2(path: Path, k: int, n: int, band: Band) -> None:
    for row in _rows(path):
        alpha, theta = float(row["alpha"]), float(row["theta"])
        got = float(row["power"])
        label = f"table2 {row['test']} alpha={alpha:g} theta={theta:g}"
        if row["test"] == "JS":
            band.check(label, got, POWER_JS_TARGET[alpha][theta],
                       0.0005 + POWER_TOL * _pinned_scale(n))
        else:
            exact, ratio = ml_power_exact(theta, alpha, k)
            # alternative draws plus the critical value's own quantile noise
            var = exact * (1 - exact) / n + ratio**2 * alpha * (1 - alpha) / n
            band.check(label, got, exact, Z * math.sqrt(var) + 1e-6)


def _check_table3(path: Path, k: int, n: int, band: Band) -> None:
    for row in _rows(path):
        theta, lam = float(row["theta"]), float(row["scalar_lambda"])
        label = f"table3 {row['estimator']} theta={theta:g}"
        if row["estimator"] == "JS":
            band.check(label, lam, LAMBDA_JS_TARGET[theta],
                       0.005 + LAMBDA_JS_TOL * _pinned_scale(n))
        else:
            # ML: Lambda is the trace of the sample covariance of y
            band.check(label, lam, float(k), Z * math.sqrt(2.0 * k / (n - 1)))


def _check_figure(path: Path, k: int, n: int, points: int, band: Band) -> None:
    rows = _rows(path)
    if [int(r["index"]) for r in rows] != list(range(points)):
        band.failures.append(f"{path.name}: expected indices 0..{points - 1}")
        return
    # the CSV keeps 6 significant digits, which may round the top value up
    top = math.log2(n + 1) * (1 + 1e-5)
    for r in rows:
        for col in ("s_js", "s_ml"):
            if not 0.0 <= float(r[col]) <= top:
                band.failures.append(f"{path.name} {col}[{r['index']}] outside [0, log2(n + 1)]")
        if not float(r["shrinkage"]) < 1.0:
            band.failures.append(f"{path.name} shrinkage[{r['index']}] >= 1")


def check_paper_outputs(out_dir: Path, k: int, n: int, points: int
                        ) -> tuple[dict[str, list[str]], float]:
    """Failures per report of one `all` run, and the worst band usage."""
    failures: dict[str, list[str]] = {}
    worst = 0.0
    for name in REPORTS:
        band = Band()
        path = out_dir / f"{name}.csv"
        if (out_dir / f"{name}.FAILED").exists():
            band.failures.append(f"{name}.FAILED marker present")
        elif not path.is_file():
            band.failures.append(f"{name}.csv missing")
        else:
            try:
                if name == "table1":
                    _check_table1(path, k, n, band)
                elif name == "table2":
                    _check_table2(path, k, n, band)
                elif name == "table3":
                    _check_table3(path, k, n, band)
                else:
                    _check_figure(path, k, n, points, band)
            except (KeyError, ValueError) as exc:
                band.failures.append(f"{name}.csv unreadable: {exc!r}")
        failures[name] = band.failures
        worst = max(worst, band.worst)
    return failures, worst


def _inv_chi2_moment(dof: int, lam: float) -> float:
    """E[1 / chi2_dof(lam)] for dof > 2, by the Poisson mixture over dof + 2j."""
    if lam == 0:
        return 1.0 / (dof - 2)
    half = lam / 2.0
    j = np.arange(0, int(half + 40 * math.sqrt(half) + 60))
    weights = np.exp(j * math.log(half) - half - gammaln(j + 1))
    return float(np.sum(weights / (dof + 2.0 * j - 2.0)))


def js_mean_map(theta: float, k: int) -> tuple[float, float]:
    """Exact E[JS_j] and Var[JS_j] for one component at mean theta * 1."""
    lam = k * theta * theta
    mean = theta * (1.0 - (k - 2.0) * _inv_chi2_moment(k + 2, lam))
    # by exchangeability E[JS_j^2] = E[||JS||^2] / k
    second = (k + lam - 2.0 * (k - 2.0)
              + (k - 2.0) ** 2 * _inv_chi2_moment(k, lam)) / k
    return mean, max(second - mean * mean, 0.0)


def check_meanfn_rows(path: Path, grid, k: int, n: int
                      ) -> tuple[list[list[str]], float]:
    """Failures per grid row of a mean-function table, and the worst band usage."""
    try:
        payload = json.loads(path.read_text())
        rows = np.asarray(payload["rows"], dtype=np.float64)
    except (OSError, KeyError, ValueError) as exc:
        return [[f"rows unreadable: {exc!r}"] for _ in grid], 0.0
    failures = []
    worst = 0.0
    for i, theta in enumerate(grid):
        band = Band()
        if rows.ndim != 2 or i >= rows.shape[0] or rows.shape[1] != k:
            band.failures.append(f"row {i} missing or not of length {k}")
        else:
            mean, var = js_mean_map(theta, k)
            half = Z * math.sqrt(var / n) + 1e-12
            for j, value in enumerate(rows[i]):
                band.check(f"row {i} (theta={theta:g})[{j}]", float(value), mean, half)
        failures.append(band.failures)
        worst = max(worst, band.worst)
    return failures, worst
