import math

import numpy as np
import pytest

from steinsim.estimators import (
    EstimatorKind,
    ShrinkageDomainError,
    estimate_batch,
    js_estimate_batch,
    shrinkage_factor_batch,
)
from steinsim.mc import (
    CHUNK_SAMPLES,
    SimulationConfig,
    collect_cells,
    tabulate_mean_function,
)


def _ml_estimate(y):
    return estimate_batch(EstimatorKind.ML, np.asarray(y, dtype=np.float64)[None])[0]


def _js_estimate(y):
    return js_estimate_batch(np.asarray(y, dtype=np.float64)[None])[0]


def _js_formula(y):
    """(1 - (k - 2) / ||y||^2) * y, written out for one observation."""
    k = len(y)
    return (1.0 - (k - 2.0) / float(y @ y)) * y


def _shrinkage_factor(y):
    return float(shrinkage_factor_batch(y[None])[0])


def test_ml_estimate_is_the_observation():
    assert np.array_equal(_ml_estimate(np.zeros(3)), np.zeros(3))
    y = np.array([1.1, -0.3])
    assert np.array_equal(_ml_estimate(y), y)


@pytest.mark.parametrize("kind", [EstimatorKind.ML, EstimatorKind.JS, lambda b: 2.0 * b],
                         ids=["ml", "js", "callable"])
def test_estimate_batch_writes_into_out(kind):
    # the ML estimate is y itself and leaves out untouched
    y = np.random.default_rng(4).normal(size=(16, 5))
    out = np.full_like(y, 7.0)
    ml = kind == EstimatorKind.ML
    assert estimate_batch(kind, y, out=out) is (y if ml else out)
    assert np.array_equal(out, np.full_like(y, 7.0) if ml else estimate_batch(kind, y))


def test_ml_estimate_into_its_own_input_is_the_input():
    y = np.array([[1.0, 2.0]])
    y.flags.writeable = False
    assert estimate_batch(EstimatorKind.ML, y, out=y) is y


def test_ml_estimate_is_unbiased_monte_carlo():
    # law-of-large-numbers oracle at the default scale
    cfg = SimulationConfig(k=14, theta=1.25, n_samples=1_000_000, seed=11, n_workers=2)
    cell, = collect_cells([(EstimatorKind.ML, 1.25)], cfg)
    mean_est = cell.moments.mean_a
    assert np.abs(mean_est - 1.25).max() <= 0.004


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
    batch = js_estimate_batch(y)
    for i in (0, 17, 39):
        assert np.allclose(batch[i], _js_formula(y[i]), rtol=1e-14)
    y[23] = 0.0
    with pytest.raises(ShrinkageDomainError) as err:
        js_estimate_batch(y, index_offset=1000)
    assert err.value.index == 1023


def test_estimate_batch_dispatch():
    y = np.random.default_rng(6).normal(size=(8, 14))
    assert np.array_equal(estimate_batch(EstimatorKind.ML, y), y)
    assert np.allclose(estimate_batch(EstimatorKind.JS, y), js_estimate_batch(y))
    const = estimate_batch(lambda b: np.ones_like(b), y)
    assert np.all(const == 1.0)
    with pytest.raises(TypeError):
        estimate_batch("nope", y)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_custom_estimate_fails_with_its_sample_index(bad):
    # one bad row in the second chunk of a 70,000-sample cell (one worker,
    # so chunks arrive in order): the error names its absolute index
    calls = []

    def poisoned(y):
        calls.append(len(y))
        est = y.copy()
        if len(calls) == 2:
            est[10, 1] = bad
        return est

    cfg = SimulationConfig(k=4, theta=0.0, n_samples=70_000, seed=3)
    with pytest.raises(ValueError, match=f"sample index {CHUNK_SAMPLES + 10}$"):
        collect_cells([(poisoned, 0.0)], cfg)
    assert calls == [CHUNK_SAMPLES, 70_000 - CHUNK_SAMPLES]
    calls.clear()  # the mean-only pass of the mean-function table checks too
    with pytest.raises(ValueError, match=f"sample index {CHUNK_SAMPLES + 10}$"):
        tabulate_mean_function(poisoned, [0.5], cfg)
    assert calls == [CHUNK_SAMPLES, 70_000 - CHUNK_SAMPLES]


@pytest.mark.parametrize("reshape", [lambda b: b[:-1], lambda b: b[:, :2], lambda b: b[:, 0]],
                         ids=["fewer-rows", "fewer-columns", "one-dimensional"])
def test_custom_estimate_of_another_shape_fails(reshape):
    y = np.random.default_rng(7).normal(size=(8, 4))
    with pytest.raises(ValueError, match="shape"):
        estimate_batch(reshape, y)
    cfg = SimulationConfig(k=4, theta=0.0, n_samples=1000, seed=3)
    with pytest.raises(ValueError, match="shape"):
        tabulate_mean_function(reshape, [0.5], cfg)


# ---------------------------------------------------------------------------
# Tabulated mean functions
# ---------------------------------------------------------------------------


def test_js_component_curve_from_tabulated_means():
    # the JS first-component mean function rises strictly with theta
    k = 14
    cfg = SimulationConfig(k=k, theta=1.25, n_samples=200_000, seed=22)
    grid = np.arange(0.0, 2.5 + 1e-9, 0.25)
    mean_fn = tabulate_mean_function(EstimatorKind.JS, grid, cfg)[:, 0]
    assert np.all(np.diff(mean_fn) > 0)
