"""Shared fixtures: full-scale (N = 10^6) runs are expensive, so null
calibrations, assessment cells and their reports, and power evaluations
at the default seed are computed once per session, each from one shared
pass over its stream."""

import numpy as np
import pytest

from steinsim import mc
from steinsim.assess import assess_moments
from steinsim.estimators import EstimatorKind
from steinsim.hyptest import null_calibrations, power_table
from steinsim.mc import DEFAULT_SEED, SimulationConfig, collect_cells

K = 14
FULL_N = 1_000_000
MU0 = 1.25
KINDS = (EstimatorKind.JS, EstimatorKind.ML)
ASSESS_THETAS = (0.0, 0.5, 1.25, 2.0, 2.5)
POWER_THETAS = (0.0, 0.5, 1.0, 1.25, 1.5, 2.0, 2.5)
ALPHAS = (0.01, 0.05)


def sweep_values(config, theta, fold, stream=0):
    """The per-chunk values of ``fold(y, start, workspace)`` over one
    ``mc.sweep``, with ``y = theta + z`` formed read-only in each chunk's z,
    taken in chunk order and concatenated."""
    parts = []

    def at_theta(z, start, workspace):
        return fold(mc._read_only(np.add(z, theta, out=z)), start, workspace)

    mc.sweep(config, at_theta, lambda start, result: parts.append(result), stream)
    return np.concatenate(parts)


@pytest.fixture(scope="session")
def full_config():
    return SimulationConfig(k=K, theta=0.0, n_samples=FULL_N,
                            seed=DEFAULT_SEED, n_workers=2)


@pytest.fixture(scope="session")
def full_calibrations(full_config):
    return null_calibrations(KINDS, MU0, full_config)


@pytest.fixture(scope="session")
def full_cells(full_config):
    keys = [(kind, theta) for kind in KINDS for theta in ASSESS_THETAS]
    return dict(zip(keys, collect_cells(keys, full_config)))


@pytest.fixture(scope="session")
def full_reports(full_cells):
    return {(kind, theta): assess_moments(kind, theta, cell)
            for (kind, theta), cell in full_cells.items()}


@pytest.fixture(scope="session")
def full_powers(full_config, full_calibrations):
    keys = [(kind, theta) for kind in KINDS for theta in POWER_THETAS]
    return power_table(keys, full_calibrations, ALPHAS, full_config)
