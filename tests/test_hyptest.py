import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from steinsim import mc
from steinsim.estimators import EstimatorKind, estimate_batch, shrinkage_factor_batch
from steinsim.hyptest import (
    ALT_STREAM,
    DEFAULT_MU0,
    PAIR_STREAM,
    NullCalibration,
    NullResolutionError,
    _critical_value,
    ml_power_oracle,
    null_calibrations,
    paired_semitail,
    power_table,
    semitail,
    statistics_batch,
)
from steinsim.mc import SimulationConfig

JS, ML = EstimatorKind.JS, EstimatorKind.ML


def _statistic(kind, y, mu0):
    return float(statistics_batch(kind, y[None], mu0)[0])


def _alternative_statistics(kind, theta, config):
    """Statistics at theta from one pass over the evaluation stream."""
    parts, = mc.sweep(config, [(theta, lambda y, start, _: statistics_batch(
        kind, y, DEFAULT_MU0, index_offset=start))], stream=ALT_STREAM)
    return np.concatenate(parts)


def _powers(kind, config, alphas):
    """Power at mu0 from a calibration of its own null pass."""
    calibrations = null_calibrations([kind], DEFAULT_MU0, config)
    return power_table([(kind, DEFAULT_MU0)], calibrations, alphas, config)


def test_statistic_vanishes_at_the_null_for_ml():
    assert _statistic(ML, np.full(14, 1.25), 1.25) == 0.0


def test_statistic_ml_arithmetic():
    assert _statistic(ML, np.full(14, 2.0), 1.25) == pytest.approx(7.875, abs=1e-12)


def test_statistic_js_through_the_zero_estimate():
    # squared norm k - 2 shrinks the estimate to zero, leaving k * mu0^2
    y = np.full(14, math.sqrt(12.0 / 14.0))
    assert _statistic(JS, y, 1.25) == pytest.approx(21.875, abs=1e-10)


def test_statistics_through_a_buffer_are_bit_identical():
    y = np.random.default_rng(5).normal(1.0, 1.0, size=(64, 6))
    for kind in (JS, ML):
        out = np.empty_like(y)
        assert np.array_equal(statistics_batch(kind, y, 1.25, out=out),
                              statistics_batch(kind, y, 1.25))
        assert np.array_equal(out, estimate_batch(kind, y) - 1.25)


def test_statistic_input_checks():
    with pytest.raises(ValueError):
        statistics_batch(ML, np.ones(3), 1.25)
    with pytest.raises(ValueError):
        statistics_batch(ML, np.ones((2, 3)), np.inf)


# ---------------------------------------------------------------------------
# Null calibration
# ---------------------------------------------------------------------------


def test_ml_critical_values_match_chi_square(full_calibrations):
    # t_ML under the null is a central chi-square with k degrees of freedom
    calib = full_calibrations[ML]
    n = calib.sorted_null.size
    for alpha in (0.01, 0.05):
        q = chi2.ppf(1.0 - alpha, 14)
        quantile_se = math.sqrt(alpha * (1 - alpha) / n) / chi2.pdf(q, 14)
        assert abs(_critical_value(calib.sorted_null, alpha) - q) <= 3 * quantile_se


def test_rejection_fraction_matches_alpha(full_calibrations):
    for calib in full_calibrations.values():
        n = calib.sorted_null.size
        for alpha in (0.01, 0.05):
            crit = _critical_value(calib.sorted_null, alpha)
            fraction = float((calib.sorted_null > crit).mean())
            assert alpha - 2 / math.sqrt(n) <= fraction <= alpha + 2 / math.sqrt(n)


def test_js_critical_values_finite_positive(full_calibrations):
    for alpha in (0.01, 0.05):
        crit = _critical_value(full_calibrations[JS].sorted_null, alpha)
        assert np.isfinite(crit) and crit > 0


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
    cfg = SimulationConfig(k=14, theta=1.25, n_samples=5000, seed=1)
    with pytest.raises(NullResolutionError, match="insufficient null resolution"):
        _powers(ML, cfg, alphas=(0.01, 0.05))


def test_calibration_rejects_bad_alphas():
    cfg = SimulationConfig(k=14, theta=1.25, n_samples=20_000, seed=1)
    with pytest.raises(ValueError):
        _powers(ML, cfg, alphas=(0.0,))
    with pytest.raises(ValueError):
        _powers(ML, cfg, alphas=())


def test_calibration_validates_sorted_null():
    with pytest.raises(ValueError, match="ascending"):
        NullCalibration(1.25, np.array([2.0, 1.0]))


def test_calibrations_share_the_read_only_null():
    cfg = SimulationConfig(k=5, theta=1.25, n_samples=20_000, seed=2)
    for calibration in null_calibrations([JS, ML], 1.25, cfg).values():
        values = calibration.sorted_null
        assert not values.flags.writeable
        calib = NullCalibration(1.25, values)
        assert np.shares_memory(calib.sorted_null, values)


def test_calibration_copies_a_writable_null():
    values = np.arange(1.0, 201.0)
    calib = NullCalibration(1.25, values)
    values[:] = 0.0
    assert not np.shares_memory(calib.sorted_null, values)
    assert np.array_equal(calib.sorted_null, np.arange(1.0, 201.0))
    assert not calib.sorted_null.flags.writeable


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
    calib = NullCalibration(1.25, np.arange(1.0, 201.0))
    cfg = SimulationConfig(k=5, theta=1.25, n_samples=1000, seed=2)
    with pytest.raises(ValueError, match="no calibration for the ML estimator"):
        power_table([(JS, 0.5), (ML, 0.5)], {JS: calib}, (0.05,), cfg)
    assert draws == []  # before any draw


def test_power_table_checks_null_resolution_before_any_draw(monkeypatch):
    draws = []
    monkeypatch.setattr(mc, "draw_block", lambda *args: draws.append(args))
    calib = NullCalibration(1.25, np.arange(1.0, 201.0))
    cfg = SimulationConfig(k=5, theta=1.25, n_samples=1000, seed=2)
    with pytest.raises(NullResolutionError, match=r"alpha=0\.05 \(need at least 2000\)"):
        power_table([(ML, 0.5)], {ML: calib}, (0.5, 0.05), cfg)
    assert draws == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_power_table_rejects_a_non_finite_theta(bad):
    calib = NullCalibration(1.25, np.arange(1.0, 201.0))
    cfg = SimulationConfig(k=5, theta=1.25, n_samples=1000, seed=2)
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
    values = np.arange(1.0, n + 1.0)
    return NullCalibration(1.25, values)


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
    s = semitail(float(np.median(calib.sorted_null)), calib)
    assert s == pytest.approx(1.0, abs=0.01)


def test_semitail_unit_difference_halves_the_tail():
    calib = _linear_calibration(n=4095)
    t1, t2 = 3000.0, 3500.0
    n = calib.sorted_null.size
    count1 = int((calib.sorted_null >= t1).sum())
    count2 = int((calib.sorted_null >= t2).sum())
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
    calib = NullCalibration(1.25, values)
    ss = semitail(np.sort(np.array(ts)), calib)
    assert np.all(np.diff(ss) >= 0)
    assert np.all(ss >= 0)
    assert np.all(ss <= np.log2(n + 1) * (1 + SEMITAIL_TOP_RTOL))


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
    pairs = paired_semitail(1.25, 100, full_calibrations, full_config)
    assert len(pairs) == 100
    s_js = np.array([p.s_js for p in pairs])
    s_ml = np.array([p.s_ml for p in pairs])
    assert np.median(s_js) <= 2.5
    assert np.median(s_ml) <= 2.5
    assert 0.3 <= (s_ml > s_js).mean() <= 0.7


def test_paired_semitail_rejects_calibrations_at_different_null_means(monkeypatch):
    draws = []
    monkeypatch.setattr(mc, "draw_block", lambda *args: draws.append(args))
    calibrations = {JS: NullCalibration(1.25, np.arange(1.0, 201.0)),
                    ML: NullCalibration(1.5, np.arange(1.0, 201.0))}
    cfg = SimulationConfig(k=5, theta=0.0, n_samples=1000, seed=2)
    with pytest.raises(ValueError, match="different null means"):
        paired_semitail(2.0, 10, calibrations, cfg)
    assert draws == []  # before any draw


def test_paired_semitail_is_deterministic(full_calibrations, full_config):
    first = paired_semitail(2.0, 25, full_calibrations, full_config)
    second = paired_semitail(2.0, 25, full_calibrations, full_config)
    assert first == second


@pytest.mark.parametrize("workers", [1, 2])
def test_paired_semitail_reads_the_pair_stream_across_chunks(full_calibrations, workers):
    # two chunks: every pair comes from the same sample of stream 3 as a
    # direct draw of the whole range
    theta, n_points = 2.0, mc.CHUNK_SAMPLES + 300
    config = SimulationConfig(k=14, theta=0.0, seed=42, n_workers=workers)
    pairs = paired_semitail(theta, n_points, full_calibrations, config)
    y = mc.draw_block(SimulationConfig(k=14, theta=theta, n_samples=n_points, seed=42),
                      0, n_points, PAIR_STREAM)
    s_js = semitail(statistics_batch(JS, y, DEFAULT_MU0), full_calibrations[JS])
    s_ml = semitail(statistics_batch(ML, y, DEFAULT_MU0), full_calibrations[ML])
    assert [p.sample_index for p in pairs] == list(range(n_points))
    assert np.array_equal([p.s_js for p in pairs], s_js)
    assert np.array_equal([p.s_ml for p in pairs], s_ml)
    assert np.array_equal([p.shrinkage for p in pairs], shrinkage_factor_batch(y))


def test_visible_pairs_thin_out_as_theta_grows(full_calibrations, full_config):
    counts = []
    for theta in (2.5, 3.0, 3.5):
        pairs = paired_semitail(theta, 100, full_calibrations, full_config)
        counts.append(sum(1 for p in pairs if p.s_js <= 14 and p.s_ml <= 14))
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
    cfg = SimulationConfig(k=14, theta=DEFAULT_MU0, n_samples=n, seed=42)
    for kind in (JS, ML):
        calib = null_calibrations([kind], DEFAULT_MU0, cfg)[kind]
        alt = _alternative_statistics(kind, 2.0, cfg)
        calib_t = NullCalibration(DEFAULT_MU0, np.exp(calib.sorted_null))
        for alpha in (0.01, 0.05):
            p = float((alt > _critical_value(calib.sorted_null, alpha)).mean())
            p_t = float((np.exp(alt) > _critical_value(calib_t.sorted_null, alpha)).mean())
            assert p == p_t
        assert np.array_equal(semitail(alt, calib), semitail(np.exp(alt), calib_t))


# ---------------------------------------------------------------------------
# Shared passes over the null and evaluation streams
# ---------------------------------------------------------------------------


def test_shared_passes_match_one_cell_passes_bitwise():
    # two chunks per stream; shared passes must reproduce the per-cell
    # results exactly, and power must equal the exceedance fraction
    cfg = SimulationConfig(k=14, theta=DEFAULT_MU0, n_samples=70_000, seed=8,
                           n_workers=2)
    calibrations = null_calibrations([JS, ML], DEFAULT_MU0, cfg)
    for kind in (JS, ML):
        nulls = calibrations[kind].sorted_null
        alone = null_calibrations([kind], DEFAULT_MU0, cfg)[kind].sorted_null
        assert np.array_equal(nulls, alone)
        assert np.all(np.diff(nulls) >= 0)
    cells = [(kind, theta) for kind in (JS, ML) for theta in (0.0, 1.25, 2.5)]
    table = power_table(cells, calibrations, (0.01, 0.05), cfg)
    for kind, theta in cells:
        alt = _alternative_statistics(kind, theta, cfg)
        expected = {alpha: float((alt > _critical_value(calibrations[kind].sorted_null,
                                                        alpha)).mean())
                    for alpha in (0.01, 0.05)}
        assert table[kind, theta] == expected
        alone = power_table([(kind, theta)], {kind: calibrations[kind]}, (0.01, 0.05), cfg)
        assert alone[kind, theta] == expected
