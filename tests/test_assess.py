import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import collect_cells, estimate
from steinsim.assess import SingularCovarianceError, assess_moments
from steinsim.estimators import EstimatorKind
from steinsim import mc
from steinsim.mc import (
    CHUNK_SAMPLES,
    CellMoments,
    SimulationConfig,
    StreamingMoments,
    draw_block,
)


def _cfg(n=100_000, seed=42, workers=1):
    return SimulationConfig(k=14, n_samples=n, seed=seed,
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
    cell = CellMoments(moments, err_sum=0.0, err_sumsq=0.0, batch_moments=())
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


def _cell_of(err, z):
    """The one-batch cell that pairs the errors ``err`` with the score z."""
    return CellMoments(StreamingMoments.from_batch(err, z), 0.0, 0.0, ())


def test_lambda_matrix_constant_estimator_is_singular():
    # the error of the constant estimate 2 at theta = 0.5 has no variance
    z = draw_block(_cfg(n=20_000), 0, 20_000)
    cell = _cell_of(np.full_like(z, 2.0 - 0.5), z)
    assert not cell.moments.m_aa.any() and not cell.moments.m_ab.any()
    assert np.all(cell.moments.mean_a == 2.0 - 0.5)
    with pytest.raises(SingularCovarianceError) as err:
        assess_moments(EstimatorKind.JS, 0.5, cell)
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
    cfg = SimulationConfig(k=14, n_samples=100_000, seed=23)
    y = draw_block(cfg, 0, cfg.n_samples) + 1.25
    subfamily_score = (y - 1.25).sum(axis=1)
    for kind in (EstimatorKind.ML, EstimatorKind.JS):
        est = estimate(kind, y)
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


# Tolerance fixed before the property was written: the two Lambdas are the
# same matrix in exact arithmetic, and A's condition number is below e^4
LAMBDA_INVARIANCE_RTOL = 1e-10


@settings(derandomize=True, max_examples=25, deadline=None)
@given(k=st.integers(3, 7), theta=st.sampled_from([0.0, 0.5, 2.0]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_lambda_is_invariant_under_an_invertible_linear_map_of_the_estimate(
        k, theta, seed, data):
    # estimate A e: V becomes A V A^T and D becomes A D, so
    # Lambda = D^T V^-1 D is unchanged (the information does not depend on
    # how the estimate is parametrized)
    log_s = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k))
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(k, k)))
    a = q * np.exp(log_s)  # Q diag(s)
    z = draw_block(SimulationConfig(k=k, n_samples=CHUNK_SAMPLES, seed=seed), 0, CHUNK_SAMPLES)
    err = estimate(EstimatorKind.JS, z + theta) - theta
    lam = assess_moments(EstimatorKind.JS, theta, _cell_of(err, z)).lambda_matrix
    mapped = assess_moments(EstimatorKind.JS, theta, _cell_of(err @ a.T, z)).lambda_matrix
    assert np.abs(mapped - lam).max() <= LAMBDA_INVARIANCE_RTOL * np.abs(lam).max()


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


def _batch_counts(n):
    """The sample counts of the error-bar batches of an n-sample cell:
    floor((b + 1) n / B) - floor(b n / B) for batch b < B = min(32, n)."""
    n_batches = min(mc.STDERR_BATCHES, n)
    return [(b + 1) * n // n_batches - b * n // n_batches for b in range(n_batches)]


@pytest.mark.parametrize("n_chunks", [1, 2, 5, 32, 33, 70])
def test_lambda_stderr_uses_at_most_32_contiguous_batches(n_chunks):
    # n spans n_chunks chunks of CHUNK_SAMPLES with a short last one; the
    # batches are cut by sample index whatever the chunk size, and each
    # chunk lies in one batch (several chunks per batch from 33 on)
    n = (n_chunks - 1) * CHUNK_SAMPLES + 1000
    starts = np.cumsum([0] + _batch_counts(n))
    assert all(np.searchsorted(starts, start, "right") == np.searchsorted(starts, start + count)
               for start, count in mc._chunk_ranges(n))
    stderrs = []
    for workers in (1, 2):
        cell, = collect_cells([(EstimatorKind.JS, 0.5)],
                              SimulationConfig(k=4, n_samples=n, seed=27,
                                               n_workers=workers))
        assert [m.count for m in cell.batch_moments] == _batch_counts(n)
        total = cell.batch_moments[0]
        for batch in cell.batch_moments[1:]:
            total = total.merge(batch)
        assert all(np.array_equal(getattr(total, f), getattr(cell.moments, f))
                   for f in ("mean_a", "m_aa", "mean_b", "m_ab"))
        stderrs.append(assess_moments(EstimatorKind.JS, 0.5, cell).lambda_stderr)
    assert stderrs[0] == stderrs[1] and np.isfinite(stderrs[0])


@pytest.mark.parametrize("n", [31, 100])
def test_lambda_stderr_is_nan_below_two_batches_that_give_an_information(n):
    # below 32 samples every batch is one sample, and at k = 4 batches of 3
    # or 4 samples have singular covariances
    cell, = collect_cells([(EstimatorKind.JS, 0.5)], SimulationConfig(k=4, n_samples=n, seed=27))
    assert [m.count for m in cell.batch_moments] == _batch_counts(n)
    assert np.isnan(assess_moments(EstimatorKind.JS, 0.5, cell).lambda_stderr)


@pytest.mark.parametrize("short, error", [(1, ValueError), (10, SingularCovarianceError)])
def test_lambda_stderr_skips_a_batch_that_gives_no_information(short, error):
    # at k = short and n = 32 short + 31 the first batch holds `short`
    # samples and the other 31 one more; a batch of one sample has no
    # covariance, and one of k samples a singular one, so the stderr is
    # that of the 31 longer batches
    k, n = short, 32 * short + 31
    cell, = collect_cells([(EstimatorKind.JS, 0.5)], SimulationConfig(k=k, n_samples=n, seed=5))
    assert [m.count for m in cell.batch_moments] == [short] + [short + 1] * 31
    first, *rest = [CellMoments(m, 0.0, 0.0, ()) for m in cell.batch_moments]
    with pytest.raises(error):
        assess_moments(EstimatorKind.JS, 0.5, first)
    traces = [assess_moments(EstimatorKind.JS, 0.5, batch).scalar_lambda for batch in rest]
    stderr = assess_moments(EstimatorKind.JS, 0.5, cell).lambda_stderr
    assert stderr == np.std(traces, ddof=1) / np.sqrt(31)
    assert stderr == pytest.approx({1: 0.183629, 10: 0.273256}[short], abs=1e-6)
