import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from conftest import (
    JS_ERROR_ATOL,
    estimate,
    ml_power_oracle,
    null_calibrations,
    statistics,
    sweep_values,
)
from steinsim import mc
from steinsim.estimators import EstimatorKind, row_reductions, shrinkage_from_norms
from steinsim.hyptest import (
    ALT_STREAM,
    MU0,
    PAIR_STREAM,
    NullResolutionError,
    _critical_value,
    _statistics,
    paired_semitail,
    power_table,
    semitail,
)
from steinsim.mc import SimulationConfig

JS, ML = EstimatorKind.JS, EstimatorKind.ML


def _statistic(kind, y):
    return float(statistics(kind, y[None])[0])


def _alternative_statistics(kind, theta, config):
    """Statistics at theta from one pass over the evaluation stream."""
    return sweep_values(config, theta, lambda y, start, _: statistics(
        kind, y, index_offset=start), stream=ALT_STREAM)


def _read_only(values):
    """``values`` as a hand-built calibration: a read-only float64 array,
    ascending like every null that ``null_calibrations`` returns."""
    null = np.array(values, dtype=np.float64)
    null.flags.writeable = False
    return null


def _powers(kind, config, alphas):
    """Power at MU0 from a calibration of its own null pass."""
    return power_table([(kind, MU0)], null_calibrations(config), alphas, config)


def test_statistic_vanishes_at_the_null_for_ml():
    assert _statistic(ML, np.full(14, 1.25)) == 0.0


def test_statistic_ml_arithmetic():
    assert _statistic(ML, np.full(14, 2.0)) == pytest.approx(7.875, abs=1e-12)


def test_statistic_js_through_the_zero_estimate():
    # squared norm k - 2 shrinks the estimate to zero, leaving k * MU0^2
    y = np.full(14, math.sqrt(12.0 / 14.0))
    assert _statistic(JS, y) == pytest.approx(21.875, abs=1e-10)


def test_statistics_from_row_sums_match_the_direct_norm():
    # the passes read y only through its row sums and squared row norms;
    # against ‖estimate(y) - MU0‖² formed directly they may differ by
    # rounding only (the float64 terms are below 1e3 here)
    y = np.random.default_rng(5).normal(1.0, 1.0, size=(64, 6))
    for kind in (JS, ML):
        diff = estimate(kind, y) - MU0
        np.testing.assert_allclose(statistics(kind, y),
                                   np.einsum("ij,ij->i", diff, diff), rtol=0, atol=1e-12)


# The longdouble reference forms y = theta + z and the estimate in 64-bit
# precision. The float64 statistic sums three terms, each a product of a
# few rounded factors, so its error is a few ulps of the terms' magnitudes:
# at most 2.4 eps times STATISTIC_SCALE on these rows, bounded at 8.
STATISTIC_ULPS = 8


def _statistic_scale(kind, row_sum, row_norm, theta, k):
    """Sum of the magnitudes of the terms that ``_statistics`` adds."""
    if kind is ML:
        d = theta - MU0
        return row_norm + 2 * np.abs(d * row_sum) + k * d * d
    c = 1 - (k - 2) / (row_norm + 2 * theta * row_sum + k * theta * theta)
    norm_bound = row_norm + 2 * np.abs(theta * row_sum) + k * theta * theta
    return (c * c * norm_bound + 2 * np.abs(c * MU0) * (np.abs(row_sum) + k * abs(theta))
            + k * MU0 * MU0)


@pytest.mark.parametrize("theta", [0.0, 1.25, 2.5, 1e3, 1e7])
def test_statistics_from_row_sums_match_a_longdouble_reference(theta):
    # eight chunks of the evaluation stream, plus rows where c * y = MU0 * 1
    # (y = a * 1 with a - (k - 2) / (k a) = MU0), where the JS statistic
    # cancels to about 0, and three rows beside them
    k = 14
    cfg = SimulationConfig(k=k, n_samples=8 * mc.CHUNK_SAMPLES, seed=3)
    a = (MU0 + math.sqrt(MU0 * MU0 + 4 * (k - 2) / k)) / 2
    z = np.vstack([mc.draw_block(cfg, 0, cfg.n_samples, ALT_STREAM),
                   a - theta + 1e-9 * np.arange(4)[:, None] * np.ones(k)])
    row_sum, row_norm = row_reductions(z)
    y = z.astype(np.longdouble) + np.longdouble(theta)
    for kind in (JS, ML):
        est = y
        if kind is JS:
            est = (1 - (k - 2) / np.einsum("ij,ij->i", y, y))[:, None] * y
        reference = ((est - MU0) ** 2).sum(axis=1)
        got = _statistics(kind, row_sum, row_norm, theta, k)
        scale = _statistic_scale(kind, row_sum, row_norm, theta, k)
        error = np.abs(got - reference).astype(np.float64)
        assert np.all(error <= STATISTIC_ULPS * np.finfo(np.float64).eps * scale), kind


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_power_counts_equal_the_direct_statistic_counts(seed):
    # power_table folds every cell from each chunk's S and Q; the counts
    # must be those of ‖estimate(y) - MU0‖² formed from y itself, against
    # the same critical values
    cfg = SimulationConfig(k=14, n_samples=3 * mc.CHUNK_SAMPLES + 1000,
                           seed=seed, n_workers=2)
    calibrations = null_calibrations(cfg)
    cells = [(kind, theta) for kind in (JS, ML) for theta in (0.0, 0.5, 1.25, 2.0, 2.5)]
    alphas = (0.01, 0.05)
    table = power_table(cells, calibrations, alphas, cfg)
    z = mc.draw_block(cfg, 0, cfg.n_samples, ALT_STREAM)
    for kind, theta in cells:
        diff = estimate(kind, z + theta) - MU0
        direct = np.einsum("ij,ij->i", diff, diff)
        for alpha in alphas:
            crit = _critical_value(calibrations[kind], alpha)
            count = int(np.count_nonzero(direct > crit))
            assert table[kind, theta][alpha] == count / cfg.n_samples, (kind, theta, alpha)


# ---------------------------------------------------------------------------
# Null calibration
# ---------------------------------------------------------------------------


def test_ml_critical_values_match_chi_square(full_calibrations):
    # t_ML under the null is a central chi-square with k degrees of freedom
    calib = full_calibrations[ML]
    n = calib.size
    for alpha in (0.01, 0.05):
        q = chi2.ppf(1.0 - alpha, 14)
        quantile_se = math.sqrt(alpha * (1 - alpha) / n) / chi2.pdf(q, 14)
        assert abs(_critical_value(calib, alpha) - q) <= 3 * quantile_se


def test_rejection_fraction_matches_alpha(full_calibrations):
    for calib in full_calibrations.values():
        n = calib.size
        for alpha in (0.01, 0.05):
            crit = _critical_value(calib, alpha)
            fraction = float((calib > crit).mean())
            assert alpha - 2 / math.sqrt(n) <= fraction <= alpha + 2 / math.sqrt(n)


def test_js_critical_values_finite_positive(full_calibrations):
    for alpha in (0.01, 0.05):
        crit = _critical_value(full_calibrations[JS], alpha)
        assert np.isfinite(crit) and crit > 0


# Exact critical values of the JS test at k = 14 and MU0 = 1.25. Split y
# into u, its coordinate along 1/sqrt(k), and W = ‖y‖² - u², a chi-square
# with k - 1 degrees of freedom; given u the JS statistic exceeds t outside
# the two roots of a quadratic in ‖y‖², so P0(T > t) is a 1-D integral over
# u of two chi-square CDFs (scipy quad), solved for t by brentq.
JS_EXACT_CRITICAL = {0.01: 19.82392, 0.05: 15.95580}


def test_js_null_exceeds_its_exact_critical_values_at_rate_alpha(full_calibrations):
    # both alphas read the same null draws, so the two checks are not independent
    values = full_calibrations[JS]
    n = values.size
    for alpha, crit in JS_EXACT_CRITICAL.items():
        share = float(np.count_nonzero(values > crit)) / n
        assert abs(share - alpha) <= 3 * math.sqrt(alpha * (1 - alpha) / n), alpha


def _order_statistic_rank(n, alpha):
    """Smallest rank j in 1..n with j >= (1 - alpha)(n + 1), found by search
    in exact arithmetic on alpha's binary value (n when none is)."""
    bound = (1 - Fraction(alpha)) * (n + 1)
    return next((j for j in range(1, n + 1) if j >= bound), n)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(n=st.integers(1, 2000),
       alpha=st.floats(0, 1, exclude_min=True, exclude_max=True))
# (1 - alpha)(n + 1) lies a hair above an integer that the float product
# rounds onto; the float formula picked the rank below in these cases
@example(n=9, alpha=0.3)
@example(n=199, alpha=0.015)
@example(n=999, alpha=0.009)
def test_critical_value_is_the_exact_order_statistic(n, alpha):
    values = np.arange(n, dtype=np.float64)  # value i sits at rank i + 1
    assert _critical_value(values, alpha) == _order_statistic_rank(n, alpha) - 1


def test_insufficient_null_resolution():
    cfg = SimulationConfig(k=14, n_samples=5000, seed=1)
    with pytest.raises(NullResolutionError, match="insufficient null resolution"):
        _powers(ML, cfg, alphas=(0.01, 0.05))


def test_calibration_rejects_bad_alphas():
    cfg = SimulationConfig(k=14, n_samples=20_000, seed=1)
    with pytest.raises(ValueError):
        _powers(ML, cfg, alphas=(0.0,))
    with pytest.raises(ValueError):
        _powers(ML, cfg, alphas=())


def test_calibrations_share_the_read_only_null():
    # each calibration is the null its pass filled: n_samples ascending
    # float64 statistics in memory of its own, which no reader can change
    cfg = SimulationConfig(k=5, n_samples=20_000, seed=2)
    calibrations = null_calibrations(cfg)
    assert set(calibrations) == {JS, ML}
    for null in calibrations.values():
        assert isinstance(null, np.ndarray) and null.dtype == np.float64
        assert null.shape == (cfg.n_samples,)
        assert null.flags.owndata and not null.flags.writeable
        assert np.all(null[1:] >= null[:-1])


# ---------------------------------------------------------------------------
# Power
# ---------------------------------------------------------------------------


def test_power_at_the_null_equals_alpha(full_powers):
    for kind in (JS, ML):
        for alpha, p in full_powers[kind, 1.25].items():
            # evaluation draws are disjoint from the calibration draws
            assert abs(p - alpha) <= 4 * math.sqrt(2 * alpha * (1 - alpha) / 1_000_000)


def test_power_table_names_a_missing_calibration(monkeypatch):
    draws = []
    monkeypatch.setattr(mc, "draw_block", lambda *args: draws.append(args))
    calib = _read_only(np.arange(1.0, 201.0))
    cfg = SimulationConfig(k=5, n_samples=1000, seed=2)
    with pytest.raises(ValueError, match=r"no calibration for the estimator EstimatorKind\.ML$"):
        power_table([(JS, 0.5), (ML, 0.5)], {JS: calib}, (0.05,), cfg)
    assert draws == []  # before any draw


def _no_statistic(y):
    return y


def _recording_draws(monkeypatch) -> list:
    """The arguments of every ``mc.draw_block`` call, which still draws."""
    draws = []
    original = mc.draw_block

    def recording(*args, **kwargs):
        draws.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(mc, "draw_block", recording)
    return draws


def test_power_table_refuses_an_estimator_with_no_statistic_before_any_draw(monkeypatch):
    # calibrations are keyed by EstimatorKind, so any other estimator keys
    # none, and the missing calibration names it
    draws = _recording_draws(monkeypatch)
    calib = _read_only(np.arange(1.0, 201.0))
    cfg = SimulationConfig(k=5, n_samples=1000, seed=2)
    with pytest.raises(ValueError,
                       match="no calibration for the estimator <function _no_statistic"):
        power_table([(_no_statistic, 0.5)], {JS: calib}, (0.05,), cfg)
    assert draws == []


def test_power_table_checks_null_resolution_before_any_draw(monkeypatch):
    draws = []
    monkeypatch.setattr(mc, "draw_block", lambda *args: draws.append(args))
    calib = _read_only(np.arange(1.0, 201.0))
    cfg = SimulationConfig(k=5, n_samples=1000, seed=2)
    with pytest.raises(NullResolutionError, match=r"alpha=0\.05 \(need at least 2000\)"):
        power_table([(ML, 0.5)], {ML: calib}, (0.5, 0.05), cfg)
    assert draws == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_power_table_rejects_a_non_finite_theta(bad):
    calib = _read_only(np.arange(1.0, 201.0))
    cfg = SimulationConfig(k=5, n_samples=1000, seed=2)
    with pytest.raises(ValueError, match="finite"):
        power_table([(ML, 0.5), (ML, bad)], {ML: calib}, (0.5,), cfg)


def test_ml_power_is_symmetric_about_the_null(full_powers):
    n = 1_000_000
    for delta in (0.25, 0.75, 1.25):
        below = full_powers[ML, 1.25 - delta]
        above = full_powers[ML, 1.25 + delta]
        for alpha in (0.01, 0.05):
            se = math.sqrt((below[alpha] * (1 - below[alpha])
                            + above[alpha] * (1 - above[alpha])) / n)
            assert abs(below[alpha] - above[alpha]) <= 3 * max(se, 1e-6)


def test_ml_power_never_drops_below_alpha(full_powers):
    n = 1_000_000
    for theta in (0.0, 0.5, 1.0, 1.25, 1.5, 2.0, 2.5):
        for alpha, p in full_powers[ML, theta].items():
            assert p >= alpha - 2 * math.sqrt(alpha / n)


def test_js_power_asymmetry_at_equal_divergence(full_powers):
    # equal KL distance from the null, strongly unequal power
    assert full_powers[JS, 1.0][0.01] >= 3 * full_powers[JS, 1.5][0.01]


# ---------------------------------------------------------------------------
# Semi-tail standardization
# ---------------------------------------------------------------------------


def _linear_calibration(n=99_999):
    return _read_only(np.arange(1.0, n + 1.0))


def test_semitail_add_one_rule_exact():
    calib = _linear_calibration(n=7)
    # t = 6 leaves two null values >= t, so p = 3/8
    assert semitail(6.0, calib) == pytest.approx(-math.log2(3.0 / 8.0), abs=1e-14)


def test_semitail_quarter_tail_is_two_units():
    n = 99_999
    calib = _linear_calibration(n)
    # choose t so that (#{null >= t} + 1) is exactly (n + 1) / 4
    t = float(n + 2 - (n + 1) // 4)
    assert semitail(t, calib) == pytest.approx(2.0, abs=1e-12)


def test_semitail_at_the_median_is_about_one(full_calibrations):
    calib = full_calibrations[ML]
    s = semitail(float(np.median(calib)), calib)
    assert s == pytest.approx(1.0, abs=0.01)


def test_semitail_unit_difference_halves_the_tail():
    calib = _linear_calibration(n=4095)
    t1, t2 = 3000.0, 3500.0
    n = calib.size
    count1 = int((calib >= t1).sum())
    count2 = int((calib >= t2).sum())
    expected = -math.log2((count2 + 1) / (count1 + 1))
    assert semitail(t2, calib) - semitail(t1, calib) == pytest.approx(expected, abs=1e-12)


def test_semitail_monotone_and_nonnegative(full_calibrations):
    calib = full_calibrations[JS]
    ts = np.array([0.0, 1.0, 10.0, 40.0, 1e6])
    ss = semitail(ts, calib)
    assert np.all(np.diff(ss) >= 0)
    assert np.all(ss >= 0)
    assert np.all(np.isfinite(ss))


# Tolerance fixed before the property was written: -log2(1 / (n + 1))
# rounds 1 / (n + 1) and the logarithm, so the largest value may exceed
# log2(n + 1) by a few units in the last place.
SEMITAIL_TOP_RTOL = 4 * np.finfo(np.float64).eps


@settings(derandomize=True, max_examples=100, deadline=None)
@given(null=st.lists(st.floats(allow_nan=False), min_size=1, max_size=300),
       ts=st.lists(st.floats(allow_nan=False), min_size=1, max_size=50))
def test_semitail_is_monotone_and_bounded_for_any_sorted_null(null, ts):
    values = np.sort(np.array(null))
    n = values.size
    calib = _read_only(values)
    ss = semitail(np.sort(np.array(ts)), calib)
    assert np.all(np.diff(ss) >= 0)
    assert np.all(ss >= 0)
    assert np.all(ss <= np.log2(n + 1) * (1 + SEMITAIL_TOP_RTOL))


def test_semitail_at_or_below_every_null_draw_is_positive_zero():
    # -log2(1) is -0.0, which a report would print as "-0"
    calib = _linear_calibration(n=7)
    for t in (1.0, -5.0, -np.inf):
        s = semitail(t, calib)
        assert s == 0.0 and math.copysign(1.0, s) == 1.0, t
    assert not np.signbit(semitail(np.array([-5.0, 1.0]), calib)).any()
    assert semitail(1.5, calib) == -math.log2(7.0 / 8.0)


@pytest.mark.parametrize("n", [105, 111])
def test_semitail_beyond_every_null_draw_is_exactly_the_bound(n):
    # sizes where -log2(1 / (n + 1)) rounds one ulp above log2(n + 1)
    calib = _linear_calibration(n)
    assert semitail(np.inf, calib) == np.log2(n + 1)
    assert semitail(np.array([np.inf]), calib)[0] == np.log2(n + 1)


# ---------------------------------------------------------------------------
# Paired semi-tail samples
# ---------------------------------------------------------------------------


def test_paired_semitail_null_case_shows_no_ordering(full_calibrations, full_config):
    s_js, s_ml, shrinkage = paired_semitail(1.25, 100, full_calibrations, full_config)
    assert len(s_js) == len(s_ml) == len(shrinkage) == 100
    assert np.median(s_js) <= 2.5
    assert np.median(s_ml) <= 2.5
    assert 0.3 <= (s_ml > s_js).mean() <= 0.7


@pytest.mark.parametrize("n_points", [0, -1])
def test_paired_semitail_refuses_no_points_before_any_draw(monkeypatch, n_points):
    draws = []
    monkeypatch.setattr(mc, "draw_block", lambda *args, **kwargs: draws.append(args))
    calibrations = {JS: _read_only(np.arange(1.0, 201.0)),
                    ML: _read_only(np.arange(1.0, 201.0))}
    with pytest.raises(ValueError, match="n_points must be positive"):
        paired_semitail(2.0, n_points, calibrations, SimulationConfig(k=5, seed=2))
    assert draws == []


@pytest.mark.parametrize("bad, error", [(math.nan, ValueError), (math.inf, ValueError),
                                        (1e200, mc.ThetaResolutionError)])
def test_paired_semitail_refuses_a_bad_theta_before_any_draw(monkeypatch, bad, error):
    draws = []
    monkeypatch.setattr(mc, "draw_block", lambda *args, **kwargs: draws.append(args))
    calibrations = {JS: _read_only(np.arange(1.0, 201.0)),
                    ML: _read_only(np.arange(1.0, 201.0))}
    cfg = SimulationConfig(k=5, n_samples=1000, seed=2)
    with pytest.raises(error):
        paired_semitail(bad, 10, calibrations, cfg)
    assert draws == []


def test_paired_semitail_is_deterministic(full_calibrations, full_config):
    first = paired_semitail(2.0, 25, full_calibrations, full_config)
    second = paired_semitail(2.0, 25, full_calibrations, full_config)
    assert np.array_equal(first, second)


@pytest.mark.parametrize("workers", [1, 2])
def test_paired_semitail_reads_the_pair_stream_across_chunks(full_calibrations, workers):
    # several chunks: every pair comes from the same sample of stream 3 as a
    # direct draw of the whole range.  The pass takes both statistics and the
    # shrinkage at theta from z's S and Q, so against the reference from
    # y = theta + z the semi-tails keep their bits, the shrinkage is within
    # JS_ERROR_ATOL, and at large thetas no farther from a long-double
    # reference than the reference is, which rounds y first
    n_points = mc.CHUNK_SAMPLES + 300
    config = SimulationConfig(k=14, seed=42, n_workers=workers)
    z = mc.draw_block(SimulationConfig(k=14, n_samples=n_points, seed=42),
                      0, n_points, PAIR_STREAM)
    for theta in (0.5, 2.0, 1e3, 1e6):
        got_js, got_ml, shrinkage = paired_semitail(theta, n_points, full_calibrations, config)
        y = theta + z
        assert np.array_equal(got_js, semitail(statistics(JS, y), full_calibrations[JS])), theta
        assert np.array_equal(got_ml, semitail(statistics(ML, y), full_calibrations[ML])), theta
        reference = shrinkage_from_norms(np.einsum("ij,ij->i", y, y), 14)
        assert np.abs(shrinkage - reference).max() <= JS_ERROR_ATOL, theta
        if theta > 10:
            exact_y = z.astype(np.longdouble) + np.longdouble(theta)
            exact = 1 - 12 / np.einsum("ij,ij->i", exact_y, exact_y)
            assert np.abs(shrinkage - exact).max() <= np.abs(reference - exact).max(), theta


def test_a_figure_pass_reduces_each_chunk_once(monkeypatch):
    # both statistics and the shrinkage of a chunk come from one S and one Q,
    # taken by the sweep in mc
    calibrations = {JS: _read_only(np.arange(1.0, 201.0)),
                    ML: _read_only(np.arange(1.0, 201.0))}
    config = SimulationConfig(k=5, seed=2, n_workers=2)
    n_points = mc.CHUNK_SAMPLES + 300
    expected = paired_semitail(2.0, n_points, calibrations, config)
    calls = []
    reductions = mc.row_reductions

    def counting(z):
        calls.append(len(z))
        return reductions(z)

    monkeypatch.setattr(mc, "row_reductions", counting)
    assert np.array_equal(paired_semitail(2.0, n_points, calibrations, config), expected)
    assert sorted(calls) == sorted(count for _, count in mc._chunk_ranges(n_points))


def test_visible_pairs_thin_out_as_theta_grows(full_calibrations, full_config):
    counts = []
    for theta in (2.5, 3.0, 3.5):
        s_js, s_ml, _ = paired_semitail(theta, 100, full_calibrations, full_config)
        counts.append(int(np.count_nonzero((s_js <= 14) & (s_ml <= 14))))
    assert counts[0] > counts[1] > counts[2]


# ---------------------------------------------------------------------------
# Noncentral chi-square oracle
# ---------------------------------------------------------------------------


def test_oracle_equals_alpha_at_the_null():
    assert ml_power_oracle(1.25, 0.01, 14) == 0.01
    assert ml_power_oracle(1.25, 0.05, 14) == 0.05


def test_oracle_is_symmetric():
    for delta in (0.1, 0.5, 1.25):
        assert ml_power_oracle(1.25 - delta, 0.05, 14) == pytest.approx(
            ml_power_oracle(1.25 + delta, 0.05, 14), rel=1e-12)


def test_oracle_reference_value():
    assert ml_power_oracle(2.0, 0.05, 14) == pytest.approx(0.369, abs=0.003)


def test_oracle_rejects_bad_alpha():
    with pytest.raises(ValueError):
        ml_power_oracle(2.0, 0.0, 14)
    with pytest.raises(ValueError):
        ml_power_oracle(2.0, 1.0, 14)


# ---------------------------------------------------------------------------
# Invariance under strictly increasing transformations
# ---------------------------------------------------------------------------


def test_power_and_semitail_invariant_under_increasing_maps():
    n = 100_000
    cfg = SimulationConfig(k=14, n_samples=n, seed=42)
    calibrations = null_calibrations(cfg)
    for kind in (JS, ML):
        calib = calibrations[kind]
        alt = _alternative_statistics(kind, 2.0, cfg)
        calib_t = _read_only(np.exp(calib))
        for alpha in (0.01, 0.05):
            p = float((alt > _critical_value(calib, alpha)).mean())
            p_t = float((np.exp(alt) > _critical_value(calib_t, alpha)).mean())
            assert p == p_t
        assert np.array_equal(semitail(alt, calib), semitail(np.exp(alt), calib_t))


# ---------------------------------------------------------------------------
# Shared passes over the null and evaluation streams
# ---------------------------------------------------------------------------


def test_shared_passes_match_one_cell_passes_bitwise():
    # many chunks per stream; shared passes must reproduce the per-cell
    # results exactly, and power must equal the exceedance fraction
    cfg = SimulationConfig(k=14, n_samples=70_000, seed=8, n_workers=2)
    calibrations = null_calibrations(cfg)
    for kind in (JS, ML):
        assert np.all(np.diff(calibrations[kind]) >= 0)
    cells = [(kind, theta) for kind in (JS, ML) for theta in (0.0, 1.25, 2.5)]
    table = power_table(cells, calibrations, (0.01, 0.05), cfg)
    for kind, theta in cells:
        alt = _alternative_statistics(kind, theta, cfg)
        expected = {alpha: float((alt > _critical_value(calibrations[kind],
                                                        alpha)).mean())
                    for alpha in (0.01, 0.05)}
        assert table[kind, theta] == expected
        alone = power_table([(kind, theta)], {kind: calibrations[kind]}, (0.01, 0.05), cfg)
        assert alone[kind, theta] == expected
