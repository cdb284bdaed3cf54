import numpy as np
import pytest

from steinsim.assess import SingularCovarianceError, assess_moments
from steinsim.estimators import EstimatorKind
from steinsim.mc import (
    CellMoments,
    SimulationConfig,
    StreamingMoments,
    collect_cells,
    draw_block,
)


def _cfg(n=100_000, seed=42, workers=1):
    return SimulationConfig(k=14, theta=0.0, n_samples=n, seed=seed,
                            n_workers=workers)


def _assess(kind, theta, cfg):
    cell, = collect_cells([(kind, theta)], cfg)
    return assess_moments(kind, theta, cell)


def _report_from_covariances(d, v):
    """Report of a cell whose covariances are exactly D = Cov(est, score)
    and V = Cov(est): with two samples the sums equal the covariances."""
    d = np.atleast_2d(np.asarray(d, dtype=np.float64))
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    k = d.shape[0]
    moments = StreamingMoments(2, np.zeros(k), v, np.zeros(k), d)
    cell = CellMoments(moments, err_sum=0.0, err_sumsq=0.0, chunk_moments=())
    return assess_moments(EstimatorKind.ML, 0.0, cell)


def test_lambda_scalar_univariate_unbiased_case():
    # slope 1 collapses to the reciprocal-variance rule
    assert _report_from_covariances(1.0, 0.25).scalar_lambda == pytest.approx(4.0)


def test_lambda_scalar_univariate_constant_statistic():
    assert _report_from_covariances(0.0, 3.0).scalar_lambda == 0.0


def test_lambda_scalar_univariate_score_attains_fisher():
    # the score of a unit-variance normal mean: slope 1, variance 1
    assert _report_from_covariances(1.0, 1.0).scalar_lambda == 1.0


def test_lambda_scalar_univariate_rejects_bad_variance():
    with pytest.raises(SingularCovarianceError):
        _report_from_covariances(1.0, 0.0)
    with pytest.raises(SingularCovarianceError):
        _report_from_covariances(1.0, -2.0)


def test_ml_mse_matches_dimension():
    cell, = collect_cells([(EstimatorKind.ML, 0.7)], _cfg())
    value, stderr = cell.mse, cell.mse_stderr
    assert abs(value - 14.0) <= 3 * stderr
    assert value == pytest.approx(14.0, abs=0.1)


def test_lambda_matrix_ml_attains_fisher_information(full_reports):
    # k = 14, N = 10^6, seed 42, 2 workers, theta = 1.25 on stream 0
    lam = full_reports[EstimatorKind.ML, 1.25].lambda_matrix
    assert np.abs(lam - np.eye(14)).max() <= 0.01


def test_lambda_matrix_constant_estimator_is_singular():
    with pytest.raises(SingularCovarianceError) as err:
        _assess(lambda y: np.full_like(y, 2.0), 0.5, _cfg(n=20_000))
    assert "theta=0.5" in str(err.value)


def test_efficiency_with_identity_fisher_is_lambda():
    # V = I and D = diag(sqrt(lam)) give Lambda = diag(lam); the unit
    # Fisher information whitens nothing, so the efficiency is Lambda
    lam = np.diag([0.2, 0.5, 0.9])
    report = _report_from_covariances(np.sqrt(lam), np.eye(3))
    assert np.allclose(report.lambda_matrix, lam, atol=1e-14)
    assert report.mean_efficiency == report.scalar_lambda / 3
    assert report.mean_efficiency == pytest.approx(lam.trace() / 3)


def test_scalar_lambda_is_the_exact_trace():
    rng = np.random.default_rng(5)
    d = rng.normal(size=(4, 4))
    report = _report_from_covariances(d, np.diag([1.0, 2.0, 3.0, 4.0]))
    assert report.scalar_lambda == np.trace(report.lambda_matrix)


def test_fisher_information_helper_feeds_efficiency():
    # the unit Fisher information of N(theta, I_k) whitens nothing
    report = _report_from_covariances(np.eye(14) * np.sqrt(0.5), np.eye(14))
    assert report.mean_efficiency == pytest.approx(0.5)


def test_component_slopes_respect_the_information_bound():
    # along the equal-means line the scalar score is sum(y - theta) with
    # information k; each component statistic's standardized slope is
    # bounded by sqrt(k)
    from steinsim.estimators import estimate_batch

    cfg = SimulationConfig(k=14, theta=1.25, n_samples=100_000, seed=23)
    y = draw_block(cfg, 0, cfg.n_samples)
    subfamily_score = (y - 1.25).sum(axis=1)
    for kind in (EstimatorKind.ML, EstimatorKind.JS):
        est = estimate_batch(kind, y)
        for i in range(14):
            cov = np.cov(est[:, i], subfamily_score)
            slope = cov[0, 1]
            assert slope**2 / cov[0, 0] <= 14.0 * 1.02


def test_assess_report_consistency(full_reports):
    for (kind, theta), report in full_reports.items():
        assert report.scalar_lambda == np.trace(report.lambda_matrix)
        assert report.eigen_min <= report.eigen_max
        assert np.allclose(report.lambda_matrix, report.lambda_matrix.T)
        # identity Fisher information makes efficiency equal information
        assert report.mean_efficiency == report.scalar_lambda / 14
        assert np.isfinite(report.lambda_stderr)


def test_js_scalar_information_increases_with_theta(full_reports):
    thetas = (0.0, 0.5, 1.25, 2.0, 2.5)
    values = [full_reports[EstimatorKind.JS, t].scalar_lambda for t in thetas]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_assess_accepts_custom_estimators():
    report = _assess(lambda y: 0.5 * y, 0.7, _cfg(n=20_000))
    # halving the data halves the slope and quarters the variance, so the
    # information matrix stays at the identity
    assert np.abs(report.lambda_matrix - np.eye(14)).max() <= 0.05


@pytest.mark.parametrize("theta", [1e5, 1e7])
def test_js_information_matches_ml_far_from_the_origin(theta):
    # far from 0 the JS shrinkage is ~1e-10 or less, so JS and ML carry the
    # same information; the moments pair the estimate with y ~ theta, and
    # the rounding residue of the centered estimate's column sums, times
    # theta, must not leak into Cov(estimate, score)
    cfg = _cfg(n=70_000, seed=7)
    js = _assess(EstimatorKind.JS, theta, cfg).scalar_lambda
    ml = _assess(EstimatorKind.ML, theta, cfg).scalar_lambda
    assert js == pytest.approx(ml, rel=1e-9)
