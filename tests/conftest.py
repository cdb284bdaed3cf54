"""Shared fixtures: full-scale (N = 10^6) runs are expensive, so null
calibrations, assessment cells and their reports, and power evaluations
at the default seed are computed once per session, the cells and the
nulls from one shared sweep of stream 0, as the command line takes them.
The one-pass sweeps ``collect_cells`` and ``null_calibrations`` return
what the library's passes of those names return as their results."""

# first, so that the CLI's OPENBLAS_NUM_THREADS default is set before numpy
# loads: the tests run under the BLAS threads of the command line
import steinsim.cli  # noqa: F401

import numpy as np
import pytest
from scipy.stats import chi2, ncx2

from steinsim import hyptest, mc
from steinsim.assess import assess_moments
from steinsim.estimators import EstimatorKind, row_reductions, shrinkage_gaps
from steinsim.hyptest import MU0, _statistics, power_table
from steinsim.mc import DEFAULT_SEED, SimulationConfig

K = 14
FULL_N = 1_000_000
KINDS = (EstimatorKind.JS, EstimatorKind.ML)
ASSESS_THETAS = (0.0, 0.5, 1.25, 2.0, 2.5)
POWER_THETAS = (0.0, 0.5, 1.0, 1.25, 1.5, 2.0, 2.5)
ALPHAS = (0.01, 0.05)

# Tolerance of a JS quantity taken from the row scalars of z against the
# reference from y = theta + z at bias-sized thetas, where both round alike:
# the largest difference measured was 2.2e-15 for the JS error c·z -
# theta·g·1 (``mc._js_error``, on two 4,096 x 14 chunks) and 2.7e-15 for
# the figure pass's shrinkage (on one).
JS_ERROR_ATOL = 1e-14


def collect_cells(cells, config, stream=0):
    """The ``CellMoments`` of ``cells`` from a sweep of ``stream`` that runs
    ``mc.collect_cells``' pass alone."""
    return mc.sweep(config, [mc.collect_cells(cells, config)], stream)[0]


def null_calibrations(config):
    """The calibrations of a sweep of stream 0 that runs
    ``hyptest.null_calibrations``' pass alone."""
    return mc.sweep(config, [hyptest.null_calibrations(config)])[0]


def shared_stream_0(cells, config):
    """``[cell moments, calibrations]`` of one sweep of stream 0 that runs
    the pass of ``cells`` and then the null pass, as the command line does."""
    return mc.sweep(config, [mc.collect_cells(cells, config),
                             hyptest.null_calibrations(config)])


def sweep_values(config, theta, fold, stream=0):
    """The per-chunk values of ``fold(y, start, workspace)`` over one
    ``mc.sweep``, with ``y = theta + z`` formed read-only in an array of its
    own, since the chunk's z is read-only, taken in chunk order and
    concatenated."""
    parts = []

    def at_theta(z, reductions, start, workspace):
        y = z + theta
        y.flags.writeable = False
        return fold(y, start, workspace)

    def take(start, result):
        parts.append(result)

    return mc.sweep(config, [(at_theta, take, lambda: np.concatenate(parts))], stream)[0]


def statistics(kind, y, index_offset=0):
    """Row-wise test statistics ‖estimate(y) - MU0·1‖² of an (n, k) array,
    by the formula of every pass (``hyptest._statistics`` at theta = 0)."""
    return _statistics(kind, *row_reductions(y), 0.0, y.shape[1], index_offset)


def estimate(kind, y):
    """Row-wise estimates of an (n, k) array, formed from y itself: y for
    ML, and c·y for JS with c = 1 - (k - 2) / ‖y‖² from ``einsum(y, y)``.
    The passes take c from the row scalars of z instead, and form the error
    c·z - theta·g·1 and never y (``mc._js_error``); this is the reference
    they are checked against."""
    y = np.asarray(y, dtype=np.float64)
    if kind is EstimatorKind.ML:
        return y
    return (1.0 - shrinkage_gaps(np.einsum("ij,ij->i", y, y), y.shape[1]))[:, None] * y


def ml_power_oracle(theta_alt, alpha, k, mu0=MU0):
    """Exact power of the ML test from the noncentral chi-square law.

    The ML statistic at theta is chi-square with k degrees of freedom and
    noncentrality k * (theta - mu0)^2; its exceedance of the central
    (1 - alpha) quantile is the power.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly in (0, 1)")
    ncp = k * (theta_alt - mu0) ** 2
    if ncp == 0:
        return float(alpha)
    return float(ncx2.sf(chi2.ppf(1.0 - alpha, k), k, ncp))


@pytest.fixture(scope="session")
def full_config():
    return SimulationConfig(k=K, n_samples=FULL_N,
                            seed=DEFAULT_SEED, n_workers=2)


@pytest.fixture(scope="session")
def full_stream_0(full_config):
    keys = [(kind, theta) for kind in KINDS for theta in ASSESS_THETAS]
    cells, calibrations = shared_stream_0(keys, full_config)
    return dict(zip(keys, cells)), calibrations


@pytest.fixture(scope="session")
def full_calibrations(full_stream_0):
    return full_stream_0[1]


@pytest.fixture(scope="session")
def full_cells(full_stream_0):
    return full_stream_0[0]


@pytest.fixture(scope="session")
def full_reports(full_cells):
    return {(kind, theta): assess_moments(kind, theta, cell)
            for (kind, theta), cell in full_cells.items()}


@pytest.fixture(scope="session")
def full_powers(full_config, full_calibrations):
    keys = [(kind, theta) for kind in KINDS for theta in POWER_THETAS]
    return power_table(keys, full_calibrations, ALPHAS, full_config)
