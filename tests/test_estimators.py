import math

import numpy as np
import pytest

from conftest import JS_ERROR_ATOL, collect_cells, estimate
from steinsim import mc
from steinsim.estimators import (
    EstimatorKind,
    ShrinkageDomainError,
    row_reductions,
    shrinkage_from_norms,
)
from steinsim.mc import SimulationConfig, tabulate_mean_function


def _ml_estimate(y):
    return estimate(EstimatorKind.ML, np.asarray(y, dtype=np.float64)[None])[0]


def _js_estimate(y):
    return estimate(EstimatorKind.JS, np.asarray(y, dtype=np.float64)[None])[0]


def _js_formula(y):
    """(1 - (k - 2) / ||y||^2) * y, written out for one observation."""
    k = len(y)
    return (1.0 - (k - 2.0) / float(y @ y)) * y


def _shrinkage_factor(y):
    return float(shrinkage_from_norms(np.array([y @ y]), len(y))[0])


def test_ml_estimate_is_the_observation():
    assert np.array_equal(_ml_estimate(np.zeros(3)), np.zeros(3))
    y = np.array([1.1, -0.3])
    assert np.array_equal(_ml_estimate(y), y)


def test_ml_estimate_is_unbiased_monte_carlo():
    # law-of-large-numbers oracle at the default scale: a cell's mean_a is
    # the mean of its error, the bias
    cfg = SimulationConfig(k=14, n_samples=1_000_000, seed=11, n_workers=2)
    cell, = collect_cells([(EstimatorKind.ML, 1.25)], cfg)
    bias = cell.moments.mean_a
    assert np.abs(bias).max() <= 0.004


def test_shrinkage_factor_zero_at_k_minus_2():
    y = np.zeros(14)
    y[0] = math.sqrt(12.0)
    assert _shrinkage_factor(y) == pytest.approx(0.0, abs=1e-12)


def test_shrinkage_factor_negative_regime():
    y = np.zeros(14)
    y[0] = math.sqrt(6.0)
    assert _shrinkage_factor(y) == pytest.approx(-1.0, abs=1e-12)


def test_js_estimate_zero_when_factor_vanishes():
    y = np.full(14, math.sqrt(12.0 / 14.0))
    assert np.allclose(_js_estimate(y), 0.0, atol=1e-12)
    assert np.allclose(_js_estimate(y), _js_formula(y), atol=1e-12)


def test_js_estimate_halves_at_double_norm():
    y = np.full(14, math.sqrt(24.0 / 14.0))
    assert np.allclose(_js_estimate(y), y / 2.0, atol=1e-12)


def test_js_estimate_flips_all_signs_inside_the_ball():
    rng = np.random.default_rng(3)
    y = rng.normal(size=14)
    y *= math.sqrt(6.0) / np.linalg.norm(y)  # ||y||^2 = 6 < k - 2
    est = _js_estimate(y)
    assert np.all(np.sign(est) == -np.sign(y))


def test_js_estimate_is_a_scalar_multiple_of_y():
    rng = np.random.default_rng(4)
    for _ in range(25):
        y = rng.normal(size=9) * rng.uniform(0.1, 5)
        est = _js_estimate(y)
        factor = _shrinkage_factor(y)
        assert np.allclose(est, factor * y, rtol=1e-14)
        assert np.allclose(est, _js_formula(y), rtol=1e-14)
        # strict contraction whenever the factor is inside (0, 1)
        if 0 < factor < 1:
            assert np.linalg.norm(est) < np.linalg.norm(y)


def test_js_estimate_small_k_still_defined():
    # dominance needs k >= 3, but the formula itself is fine below that:
    # k = 1 gives factor 1 - (-1)/4 = 1.25
    assert np.allclose(_js_estimate(np.array([2.0])), np.array([2.5]))


def test_js_domain_error_at_zero():
    with pytest.raises(ShrinkageDomainError):
        _js_estimate(np.zeros(14))
    with pytest.raises(ShrinkageDomainError):
        _shrinkage_factor(np.full(14, 1e-160))  # squared norm underflows the guard


def test_js_batch_matches_single_and_reports_index():
    rng = np.random.default_rng(5)
    y = rng.normal(size=(40, 14))
    batch = estimate(EstimatorKind.JS, y)
    for i in (0, 17, 39):
        assert np.allclose(batch[i], _js_formula(y[i]), rtol=1e-14)
    # a pass's error at theta = 0.5 on a row z = -0.5 * 1, whose y and
    # ‖y‖² = Q + 2 theta S + k theta² are exactly 0, names that row's sample
    z = rng.normal(size=(40, 14))
    z[23] = -0.5
    with pytest.raises(ShrinkageDomainError) as err:
        mc._error(EstimatorKind.JS, 0.5, z, row_reductions(z), 1000, np.empty_like(z))
    assert err.value.index == 1023


def test_estimate_batch_dispatch():
    # a pass refuses an estimator kind it does not know
    cfg = SimulationConfig(k=14, n_samples=1000)
    with pytest.raises(TypeError, match="unknown estimator kind"):
        collect_cells([("nope", 0.5)], cfg)


@pytest.mark.parametrize("theta", [0.0, 0.5, 2.5, 1e3, 1e6, 2.0**43 - 1])
def test_js_error_from_the_row_scalars_matches_the_reference(theta):
    # mc._error takes c from ‖y‖² = Q + 2 theta S + k theta², the reference
    # from einsum(y, y): the same bits at theta = 0, within JS_ERROR_ATOL at
    # bias-sized thetas, and at large thetas no farther from a long-double
    # reference than the reference path, since both errors are dominated by
    # the rounding of y = theta + z
    cfg = SimulationConfig(k=14, n_samples=2 * mc.CHUNK_SAMPLES, seed=31)
    for start in (0, mc.CHUNK_SAMPLES):
        z = mc.draw_block(cfg, start, mc.CHUNK_SAMPLES)
        reference = estimate(EstimatorKind.JS, z + theta) - theta
        got = mc._error(EstimatorKind.JS, theta, z, row_reductions(z), start, np.empty_like(z))
        if theta == 0.0:
            assert got.tobytes() == reference.tobytes()
        elif theta < 10:
            assert np.abs(got - reference).max() <= JS_ERROR_ATOL
        else:
            y = z.astype(np.longdouble) + np.longdouble(theta)
            c = 1 - (cfg.k - 2) / np.einsum("ij,ij->i", y, y)
            exact = c[:, None] * y - np.longdouble(theta)
            assert np.abs(got - exact).max() <= np.abs(reference - exact).max()
        assert mc._error(EstimatorKind.ML, theta, z, row_reductions(z), start,
                         np.empty_like(z)) is z


# ---------------------------------------------------------------------------
# Tabulated mean functions
# ---------------------------------------------------------------------------


def test_js_component_curve_from_tabulated_means():
    # the JS first-component mean function rises strictly with theta
    k = 14
    cfg = SimulationConfig(k=k, n_samples=200_000, seed=22)
    grid = np.arange(0.0, 2.5 + 1e-9, 0.25)
    mean_fn = tabulate_mean_function(EstimatorKind.JS, grid, cfg)[:, 0]
    assert np.all(np.diff(mean_fn) > 0)
