import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import Philox
from scipy.special import ndtri

from steinsim import mc
from steinsim.estimators import EstimatorKind
from steinsim.hyptest import null_calibrations, power_table
from steinsim.mc import (
    CHUNK_SAMPLES,
    SimulationConfig,
    StreamingMoments,
    collect_cells,
    draw_block,
    standard_normal_block,
    tabulate_mean_function,
)


def _cfg(**kw):
    base = dict(k=14, theta=1.25, n_samples=200_000, seed=42, n_workers=1)
    base.update(kw)
    return SimulationConfig(**base)


def _draw_sample(config, index, stream=0):
    return draw_block(config, index, 1, stream)[0]


def _cell(kind, config, stream=0):
    cell, = collect_cells([(kind, config.theta)], config, stream)
    return cell


def _accumulate(a, b, block):
    """Moments of paired rows, merged block by block in row order."""
    total = StreamingMoments.from_batch(a[:block], b[:block])
    for start in range(block, len(a), block):
        total = total.merge(StreamingMoments.from_batch(a[start:start + block],
                                                        b[start:start + block]))
    return total


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def test_same_seed_and_index_give_identical_draws():
    cfg = _cfg()
    a = _draw_sample(cfg, 12345)
    b = _draw_sample(cfg, 12345)
    assert np.array_equal(a, b)


def test_different_indices_and_streams_differ():
    cfg = _cfg()
    assert not np.array_equal(_draw_sample(cfg, 0), _draw_sample(cfg, 1))
    assert not np.array_equal(_draw_sample(cfg, 0, stream=0), _draw_sample(cfg, 0, stream=1))


def test_draws_do_not_depend_on_block_boundaries():
    cfg = _cfg()
    whole = draw_block(cfg, 1000, 50)
    for index in (1000, 1017, 1049):
        assert np.array_equal(_draw_sample(cfg, index), whole[index - 1000])
    split = np.concatenate([draw_block(cfg, 1000, 13), draw_block(cfg, 1013, 37)])
    assert np.array_equal(whole, split)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(k=st.integers(1, 70), start=st.integers(0, 3 * CHUNK_SAMPLES - 1),
       count=st.integers(1, 300), cuts=st.lists(st.floats(0, 1), max_size=5))
def test_draws_are_invariant_under_any_split_of_a_range(k, start, count, cuts):
    # any in-order split into at most 6 pieces, concatenated, equals one call
    cfg = SimulationConfig(k=k, theta=0.0, n_samples=3 * CHUNK_SAMPLES + 300, seed=7)
    edges = [0, *sorted({int(c * count) for c in cuts}), count]
    pieces = [draw_block(cfg, start + lo, hi - lo, stream=4)
              for lo, hi in zip(edges, edges[1:])]
    assert len(pieces) <= 6
    assert np.array_equal(np.concatenate(pieces), draw_block(cfg, start, count, stream=4))


def _one_shot_normals(seed, stream, start, count, k):
    # the contract's formula in one call: all words of the range at once,
    # the top 53 bits of the first k of each sample's w as an open-interval
    # uniform, mapped through the inverse normal CDF
    words = 4 * ((k + 3) // 4)
    bg = Philox(key=[seed, stream])
    bg.advance(start * words // 4)
    raw = bg.random_raw(count * words).reshape(count, words)[:, :k]
    return ndtri(((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(k=st.integers(1, 70), start=st.integers(0, 3 * CHUNK_SAMPLES - 1),
       count=st.integers(0, 3 * mc._DRAW_ROWS + 17))
@example(k=14, start=CHUNK_SAMPLES - 1, count=0)
@example(k=1, start=0, count=1)
@example(k=64, start=5, count=mc._DRAW_ROWS - 1)
@example(k=70, start=3 * CHUNK_SAMPLES - 1, count=mc._DRAW_ROWS + 1)
def test_blocked_draws_equal_the_one_shot_formula(k, start, count):
    # the draw maps its words block by block and in place; every bit must
    # be that of the one-shot formula (compared as integers, so -0.0 and
    # NaN payloads count)
    z = standard_normal_block(7, 4, start, count, k)
    expected = _one_shot_normals(7, 4, start, count, k)
    assert z.shape == (count, k) and z.dtype == np.float64
    assert np.array_equal(z.view(np.uint64), expected.view(np.uint64))


def _peak_bytes(fn) -> int:
    """Peak of the memory traced while fn runs (numpy reports its buffers)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_chunk_draw_holds_its_result_and_one_block_of_words():
    nbytes = CHUNK_SAMPLES * 64 * 8
    peak = _peak_bytes(lambda: standard_normal_block(3, 0, 0, CHUNK_SAMPLES, 64))
    assert peak <= 1.25 * nbytes


def test_a_mean_pass_holds_about_two_chunk_arrays():
    # z and the worker's estimate buffer, which the second chunk reuses
    # (each row's pass frees its own), plus one block of words and some
    # row vectors
    cfg = SimulationConfig(k=64, theta=0.0, n_samples=2 * CHUNK_SAMPLES, seed=3)
    peak = _peak_bytes(lambda: tabulate_mean_function(EstimatorKind.JS, [0.0, 1.0], cfg))
    assert peak <= 2.25 * CHUNK_SAMPLES * 64 * 8


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_sweep_builds_at_most_one_workspace_per_worker(monkeypatch, workers):
    built = []
    init = mc.Workspace.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(mc.Workspace, "__init__", counting)
    cfg = SimulationConfig(k=3, theta=0.0, n_samples=3 * CHUNK_SAMPLES + 123, seed=24,
                           n_workers=workers)
    collect_cells([(EstimatorKind.JS, 0.0), (EstimatorKind.ML, 1.0)], cfg)
    assert 1 <= len(built) <= workers


def test_block_straddling_chunk_sized_offsets():
    cfg = _cfg(n_samples=3 * CHUNK_SAMPLES)
    start = CHUNK_SAMPLES - 2
    blk = draw_block(cfg, start, 4)
    for j in range(4):
        assert np.array_equal(blk[j], _draw_sample(cfg, start + j))


def test_index_out_of_range():
    cfg = _cfg(n_samples=100)
    with pytest.raises(IndexError):
        draw_block(cfg, 100, 1)
    with pytest.raises(IndexError):
        draw_block(cfg, -1, 1)
    with pytest.raises(IndexError):
        draw_block(cfg, 90, 11)


def test_results_identical_across_worker_counts():
    stats = {}
    moments = {}
    for workers in (1, 2, 8):
        cfg = _cfg(n_workers=workers)
        parts, = mc.sweep(cfg, [(cfg.theta, lambda y, s, _: y.sum(axis=1))], stream=9)
        stats[workers] = np.concatenate(parts)
        moments[workers] = _cell(EstimatorKind.JS, cfg)
    for workers in (2, 8):
        assert np.array_equal(stats[1], stats[workers])
        assert np.array_equal(moments[1].moments.mean_a, moments[workers].moments.mean_a)
        assert np.array_equal(moments[1].moments.m_aa, moments[workers].moments.m_aa)
        assert np.array_equal(moments[1].moments.m_ab, moments[workers].moments.m_ab)
        assert moments[1].err_sum == moments[workers].err_sum
        assert moments[1].err_sumsq == moments[workers].err_sumsq


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(k=0, theta=0.0)
    with pytest.raises(ValueError):
        SimulationConfig(k=3, theta=np.nan)
    with pytest.raises(ValueError):
        SimulationConfig(k=3, theta=0.0, n_samples=0)
    with pytest.raises(ValueError):
        SimulationConfig(k=3, theta=0.0, seed=-1)
    with pytest.raises(ValueError):
        SimulationConfig(k=3, theta=0.0, seed=2**64)
    with pytest.raises(ValueError):
        SimulationConfig(k=3, theta=0.0, n_workers=0)


@pytest.mark.parametrize("field", ["k", "n_samples", "seed", "n_workers"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, True, np.True_, 2.5, "3"])
def test_config_rejects_non_integers(field, bad):
    kw = dict(k=3, theta=0.0)
    kw[field] = bad
    with pytest.raises(ValueError):
        SimulationConfig(**kw)


def test_config_accepts_integral_numbers():
    cfg = SimulationConfig(k=np.int64(3), theta=0, n_samples=10.0, seed=np.uint64(7),
                           n_workers=2.0)
    assert (cfg.k, cfg.n_samples, cfg.seed, cfg.n_workers) == (3, 10, 7, 2)
    assert all(type(v) is int for v in (cfg.k, cfg.n_samples, cfg.seed, cfg.n_workers))


# ---------------------------------------------------------------------------
# Marginal distribution of the draws
# ---------------------------------------------------------------------------


def test_draw_moments_match_the_model():
    n = 1_000_000
    cfg = SimulationConfig(k=14, theta=1.25, n_samples=n, seed=13, n_workers=2)
    parts, = mc.sweep(cfg, [(cfg.theta, lambda y, s, _: y)])
    y = np.concatenate(parts)
    mean = y.mean(axis=0)
    assert np.abs(mean - 1.25).max() <= 0.004
    var = y.var(axis=0, ddof=1)
    assert np.abs(var - 1.0).max() <= 0.005
    centered = y - mean
    m2 = (centered**2).mean(axis=0)
    skew = (centered**3).mean(axis=0) / m2**1.5
    kurt = (centered**4).mean(axis=0) / m2**2 - 3.0
    assert np.abs(skew).max() <= 0.02
    assert np.abs(kurt).max() <= 0.05


def test_normals_are_inside_the_open_interval():
    z = standard_normal_block(seed=1, stream=0, start=0, count=4096, k=16)
    assert np.all(np.isfinite(z))


# ---------------------------------------------------------------------------
# Streaming moments
# ---------------------------------------------------------------------------


def test_accumulate_identical_pairs_has_zero_covariance():
    a = np.tile([1.0, -2.0, 3.0], (10, 1))
    moments = _accumulate(a, a, block=4)
    assert np.array_equal(moments.cov_aa, np.zeros((3, 3)))
    assert np.array_equal(moments.cov_ab, np.zeros((3, 3)))


def test_accumulate_equal_streams_share_covariance():
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(500, 4))
    moments = _accumulate(rows, rows, block=64)
    assert np.allclose(moments.cov_ab, moments.cov_aa, rtol=1e-12, atol=1e-12)


def test_accumulate_needs_two_samples_for_covariance():
    moments = StreamingMoments.from_batch(np.ones((1, 2)), np.ones((1, 2)))
    with pytest.raises(ValueError, match="at least two"):
        _ = moments.cov_aa
    with pytest.raises(ValueError):
        StreamingMoments.from_batch(np.ones((0, 2)), np.ones((0, 2)))


def test_accumulate_matches_direct_covariance():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(5000, 3))
    b = rng.normal(size=(5000, 2)) + 0.5 * a[:, :2]
    moments = _accumulate(a, b, block=512)
    direct = np.cov(a, rowvar=False)
    assert np.allclose(moments.cov_aa, direct, rtol=1e-9)
    cross = np.cov(np.hstack([a, b]), rowvar=False)[:3, 3:]
    assert np.allclose(moments.cov_ab, cross, rtol=1e-9)


def test_merge_of_halves_matches_full_accumulation():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(4000, 3)) * 3 + 100.0
    b = rng.normal(size=(4000, 3))
    full = StreamingMoments.from_batch(a, b)
    merged = StreamingMoments.from_batch(a[:1700], b[:1700]).merge(
        StreamingMoments.from_batch(a[1700:], b[1700:]))
    assert merged.count == full.count
    for attr in ("mean_a", "mean_b", "m_aa", "m_ab"):
        lhs, rhs = getattr(merged, attr), getattr(full, attr)
        assert np.allclose(lhs, rhs, rtol=1e-10)


def test_merge_rejects_mismatched_shapes():
    narrow = StreamingMoments.from_batch(np.ones((3, 1)), np.ones((3, 1)))
    wide = StreamingMoments.from_batch(np.ones((3, 2)), np.ones((3, 2)))
    with pytest.raises(ValueError):
        narrow.merge(wide)


# Tolerance fixed before the property was written: float64 sums over at most
# 400 rows of entries below 1e3 in magnitude.
MERGE_RTOL, MERGE_ATOL = 1e-9, 1e-9


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(2, 400), cuts=st.lists(st.floats(0, 1), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1), shift=st.floats(-500, 500))
def test_merge_of_any_in_order_partition_matches_one_batch(n, cuts, seed, shift):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, 3)) * 2.0 + shift
    b = rng.normal(size=(n, 2)) + 0.3 * a[:, :2]
    bounds = sorted({int(c * (n - 2)) + 1 for c in cuts})  # inside [1, n - 1]
    edges = [0, *bounds, n]
    parts = [StreamingMoments.from_batch(a[lo:hi], b[lo:hi])
             for lo, hi in zip(edges, edges[1:])]
    assert len(parts) >= 2
    merged = parts[0]
    for part in parts[1:]:
        merged = merged.merge(part)
    whole = StreamingMoments.from_batch(a, b)
    assert merged.count == whole.count == n
    for attr in ("mean_a", "mean_b", "m_aa", "m_ab"):
        np.testing.assert_allclose(getattr(merged, attr), getattr(whole, attr),
                                   rtol=MERGE_RTOL, atol=MERGE_ATOL)


# Tolerance fixed before the property was written: float64 products over at
# most 400 rows of entries below 1e3 in magnitude (b shifted by |c| <= 1e3,
# a by |shift| <= 100). The columns of a - mean_a then sum to at most about
# 400 * 100 * 2.2e-16 each, so the shift adds under 1e-8 to any entry of m_ab.
SHIFT_RTOL, SHIFT_ATOL = 1e-9, 1e-7


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(2, 400), cut=st.floats(0, 1), seed=st.integers(0, 2**32 - 1),
       shift=st.floats(-100, 100), c=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2))
def test_cross_moments_do_not_change_under_a_shift_of_b(n, cut, seed, shift, c):
    # from_batch takes m_ab against the uncentered b, and collect_cells pairs
    # the estimate with y instead of the score y - theta: both rest on m_ab
    # and the merge being invariant under a constant shift of b
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, 3)) * 2.0 + shift
    b = rng.normal(size=(n, 2)) + 0.3 * a[:, :2]
    shifted = b + np.asarray(c)
    two_pass = (a - a.mean(axis=0)).T @ (b - b.mean(axis=0))
    lo = int(cut * (n - 2)) + 1  # split inside [1, n - 1]
    for moments in (StreamingMoments.from_batch(a, b),
                    StreamingMoments.from_batch(a, shifted),
                    StreamingMoments.from_batch(a[:lo], shifted[:lo]).merge(
                        StreamingMoments.from_batch(a[lo:], shifted[lo:]))):
        np.testing.assert_allclose(moments.m_ab, two_pass,
                                   rtol=SHIFT_RTOL, atol=SHIFT_ATOL)


def test_moments_of_a_stream_with_itself_share_their_halves_bitwise():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(3000, 5)) + 7.0
    moments = StreamingMoments.from_batch(a, a)
    assert np.array_equal(moments.m_ab, moments.m_aa)
    assert np.array_equal(moments.mean_b, moments.mean_a)
    parts = [a[start:start + 700] for start in range(0, len(a), 700)]
    merged = StreamingMoments.from_batch(parts[0], parts[0])
    for part in parts[1:]:
        merged = merged.merge(StreamingMoments.from_batch(part, part))
    assert np.array_equal(merged.m_ab, merged.m_aa)
    assert np.array_equal(merged.mean_b, merged.mean_a)


@pytest.mark.parametrize("workers", [1, 2])
def test_ml_cell_cross_covariance_equals_its_covariance_bitwise(workers):
    # the ML estimate is y itself, so its cell pairs y with y
    cfg = _cfg(n_samples=CHUNK_SAMPLES + 4000, n_workers=workers)
    cell, = collect_cells([(EstimatorKind.ML, 0.5)], cfg, stream=5)
    assert np.array_equal(cell.moments.cov_ab, cell.moments.cov_aa)
    assert np.array_equal(cell.moments.mean_b, cell.moments.mean_a)


def test_sample_covariance_is_positive_semidefinite():
    rng = np.random.default_rng(11)
    # heavy-tailed, correlated stream
    a = rng.standard_t(df=3, size=(2000, 5))
    a[:, 0] = a[:, 1] * 2.0 + a[:, 2]
    moments = StreamingMoments.from_batch(a, a)
    eigs = np.linalg.eigvalsh(moments.cov_aa)
    assert eigs.min() >= -1e-10


def test_score_cross_covariance_is_identity():
    # Cov(y, y - mu) has identity covariance under the model
    n = 1_000_000
    cfg = SimulationConfig(k=14, theta=0.5, n_samples=n, seed=15, n_workers=2)
    moments = _cell(EstimatorKind.ML, cfg).moments
    d, v, mean_est = moments.cov_ab, moments.cov_aa, moments.mean_a
    assert np.abs(d - np.eye(14)).max() <= 0.01
    assert np.abs(v - np.eye(14)).max() <= 0.01
    assert np.abs(mean_est - 0.5).max() <= 0.005


def test_cross_covariance_constant_estimator_is_degenerate():
    cfg = _cfg(n_samples=10_000)
    moments = _cell(lambda y: np.full_like(y, 2.0), cfg).moments
    d, v, mean_est = moments.cov_ab, moments.cov_aa, moments.mean_a
    assert np.array_equal(d, np.zeros((14, 14)))
    assert np.array_equal(v, np.zeros((14, 14)))
    assert np.all(mean_est == 2.0)


def test_cell_moments_error_norms():
    cfg = _cfg(n_samples=50_000)
    cell = _cell(EstimatorKind.ML, cfg)
    # E||y - mu||^2 = k for the ML estimator
    assert cell.mse == pytest.approx(14.0, abs=0.15)
    assert 0.0 < cell.mse_stderr < 0.1
    assert sum(m.count for m in cell.chunk_moments) == 50_000


def _same_cell(a, b):
    return (np.array_equal(a.moments.mean_a, b.moments.mean_a)
            and np.array_equal(a.moments.m_aa, b.moments.m_aa)
            and np.array_equal(a.moments.mean_b, b.moments.mean_b)
            and np.array_equal(a.moments.m_ab, b.moments.m_ab)
            and a.err_sum == b.err_sum and a.err_sumsq == b.err_sumsq)


@pytest.mark.parametrize("workers", [1, 2])
def test_shared_sweep_matches_one_cell_passes_bitwise(workers):
    # two chunks, so the in-order merge is exercised; a cell's moments must
    # not depend on its position in the sweep or on the other cells in it
    cfg = _cfg(n_samples=CHUNK_SAMPLES + 4000, n_workers=workers)
    cells = [(EstimatorKind.JS, 0.0), (EstimatorKind.ML, 0.5), (EstimatorKind.JS, 2.0)]
    forward = collect_cells(cells, cfg, stream=5)
    backward = collect_cells(cells[::-1], cfg, stream=5)[::-1]
    for (kind, theta), a, b in zip(cells, forward, backward):
        alone = _cell(kind, replace(cfg, theta=theta), stream=5)
        assert _same_cell(a, alone) and _same_cell(b, alone), (kind, theta)


@pytest.mark.parametrize("workers", [1, 2])
def test_cells_sharing_a_theta_match_one_cell_passes_bitwise(workers):
    # cells at one theta share a read-only y, its score and the chunk's
    # workspace; neither that, nor a duplicate cell, nor the order may
    # change a bit of any cell
    cfg = _cfg(n_samples=CHUNK_SAMPLES + 4000, n_workers=workers)
    js, ml = EstimatorKind.JS, EstimatorKind.ML
    cells = [(js, 0.5), (ml, 0.5), (js, 2.0), (ml, 2.0), (js, 0.5)]
    forward = collect_cells(cells, cfg, stream=5)
    backward = collect_cells(cells[::-1], cfg, stream=5)[::-1]
    for (kind, theta), a, b in zip(cells, forward, backward):
        alone = _cell(kind, replace(cfg, theta=theta), stream=5)
        assert _same_cell(a, alone) and _same_cell(b, alone), (kind, theta)


def _writes_into_its_input(y):
    y += 1.0
    return y


@pytest.mark.parametrize("cells", [
    [(_writes_into_its_input, 0.5)],
    [(_writes_into_its_input, 0.5), (EstimatorKind.ML, 2.0)],
    [(EstimatorKind.JS, 0.5), (_writes_into_its_input, 0.5)],
], ids=["only-cell", "earlier-theta", "shared-theta"])
def test_an_estimator_cannot_write_into_the_shared_draws(cells):
    # cells at one theta share y, so a write would change its siblings'
    # draws; y is read-only whether it is z itself or theta + z
    cfg = _cfg(n_samples=1000)
    with pytest.raises(ValueError, match="read-only"):
        collect_cells(cells, cfg)
    with pytest.raises(ValueError, match="read-only"):
        tabulate_mean_function(_writes_into_its_input, [0.5], cfg)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(k=st.integers(2, 6), n=st.integers(CHUNK_SAMPLES + 1, CHUNK_SAMPLES + 5000),
       cells=st.lists(st.tuples(st.sampled_from([EstimatorKind.JS, EstimatorKind.ML]),
                                st.sampled_from([0.0, 0.5, 1.25, 2.0])),
                      min_size=1, max_size=6))
def test_sweeps_do_not_depend_on_the_worker_count(k, n, cells):
    # random cell lists repeat thetas (and whole cells); moments and power
    # must be bit-identical at 1, 2 and 3 workers
    null_cfg = SimulationConfig(k=k, theta=1.25, n_samples=2000, seed=21)
    calibrations = null_calibrations([EstimatorKind.JS, EstimatorKind.ML], 1.25, null_cfg)
    results = {}
    for workers in (1, 2, 3):
        cfg = SimulationConfig(k=k, theta=0.0, n_samples=n, seed=22, n_workers=workers)
        results[workers] = (collect_cells(cells, cfg),
                            power_table(cells, calibrations, (0.05,), cfg))
    for workers in (2, 3):
        assert all(_same_cell(a, b) for a, b in zip(results[1][0], results[workers][0]))
        assert results[workers][1] == results[1][1]


# ---------------------------------------------------------------------------
# Mean-function tabulation
# ---------------------------------------------------------------------------


def test_tabulate_ml_mean_function_is_unbiased():
    n = 100_000
    cfg = SimulationConfig(k=14, theta=0.0, n_samples=n, seed=16)
    grid = np.array([0.0, 0.5, 1.25, 2.0])
    rows = tabulate_mean_function(EstimatorKind.ML, grid, cfg)
    assert rows.shape == (4, 14)
    for i, theta in enumerate(grid):
        assert np.abs(rows[i] - theta).max() <= 5.0 / math.sqrt(n)


def test_tabulate_js_mean_function_ends():
    from scipy.integrate import quad
    from scipy.stats import ncx2

    cfg = SimulationConfig(k=14, theta=0.0, n_samples=100_000, seed=17)
    rows = tabulate_mean_function(EstimatorKind.JS, np.array([0.0, 2.5]), cfg)
    # antisymmetry about the origin kills the mean at theta = 0
    assert np.abs(rows[0]).max() <= 0.01
    # quadrature oracle: E[JS_i] = theta * (1 - (k - 2) E[1 / chi2_{k+2}(k theta^2)])
    e_inv, _ = quad(lambda x: ncx2.pdf(x, 16, 14 * 2.5**2) / x, 1e-9, 1500, limit=200)
    expected = 2.5 * (1.0 - 12.0 * e_inv)
    assert np.abs(rows[1] - expected).max() <= 0.02


def test_tabulate_rejects_empty_grid():
    with pytest.raises(ValueError):
        tabulate_mean_function(EstimatorKind.ML, [], _cfg())


def test_tabulate_rows_are_reproducible_independently():
    cfg = SimulationConfig(k=5, theta=0.0, n_samples=20_000, seed=18)
    both = tabulate_mean_function(EstimatorKind.ML, [0.3, 0.9], cfg)
    second_only = tabulate_mean_function(EstimatorKind.ML, [0.1, 0.9], cfg)
    # row streams are keyed by grid position, not by the grid values
    assert np.array_equal(both[1], second_only[1])


def _custom_estimate(y):
    return np.tanh(y) + 0.25 * y


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", [EstimatorKind.ML, EstimatorKind.JS, _custom_estimate],
                         ids=["ml", "js", "callable"])
def test_tabulated_rows_equal_the_moments_pass_mean_bitwise(kind, workers):
    # a partial last chunk, so the pooled-mean merge sees unequal counts
    cfg = SimulationConfig(k=5, theta=0.0, n_samples=CHUNK_SAMPLES + 4000, seed=19,
                           n_workers=workers)
    grid = [0.0, 0.7, 2.0]
    rows = tabulate_mean_function(kind, grid, cfg)
    for i, theta in enumerate(grid):
        cell, = collect_cells([(kind, theta)], cfg,
                              stream=mc.MEAN_FUNCTION_STREAM_BASE + i)
        assert np.array_equal(rows[i], cell.moments.mean_a), (i, theta)


def test_mean_pass_draws_each_chunk_once_and_computes_no_moments(monkeypatch):
    draws, batches = [], []
    draw, from_batch = mc.draw_block, mc.StreamingMoments.from_batch.__func__

    def counting_draw(config, start, count, stream=0):
        draws.append((stream, start, count))
        return draw(config, start, count, stream)

    def counting_from_batch(cls, a, b):
        batches.append(len(a))
        return from_batch(cls, a, b)

    monkeypatch.setattr(mc, "draw_block", counting_draw)
    monkeypatch.setattr(mc.StreamingMoments, "from_batch", classmethod(counting_from_batch))
    cfg = SimulationConfig(k=5, theta=0.0, n_samples=CHUNK_SAMPLES + 4000, seed=20,
                           n_workers=2)
    tabulate_mean_function(EstimatorKind.JS, [0.0, 1.0, 2.0], cfg)
    assert batches == []
    base = mc.MEAN_FUNCTION_STREAM_BASE
    assert sorted(draws) == [(base + row, start, count) for row in range(3)
                             for start, count in ((0, CHUNK_SAMPLES), (CHUNK_SAMPLES, 4000))]
    collect_cells([(EstimatorKind.JS, 0.0)], cfg)
    assert sorted(batches) == [4000, CHUNK_SAMPLES]  # the wrapper sees the moments pass


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sweeps_reject_a_non_finite_cell_theta(bad):
    cfg = _cfg(n_samples=1000)
    with pytest.raises(ValueError, match="finite"):
        collect_cells([(EstimatorKind.ML, 0.0), (EstimatorKind.ML, bad)], cfg)
    with pytest.raises(ValueError, match="finite"):
        tabulate_mean_function(EstimatorKind.JS, [0.0, bad], cfg)


def test_tabulate_checks_the_grid_before_any_pass(monkeypatch):
    draws = []
    monkeypatch.setattr(mc, "draw_block", lambda *args: draws.append(args))
    with pytest.raises(ValueError, match="finite"):
        tabulate_mean_function(EstimatorKind.JS, [0.0, 1.0, math.nan], _cfg(n_samples=1000))
    assert draws == []


@settings(derandomize=True, max_examples=60, deadline=None)
@given(theta=st.floats(allow_nan=False, allow_infinity=False))
@example(theta=mc.THETA_LIMIT)
@example(theta=-mc.THETA_LIMIT)
@example(theta=math.nextafter(mc.THETA_LIMIT, 0.0))
@example(theta=1e200)
def test_a_finite_theta_is_refused_or_gives_a_positive_ml_mse(theta):
    # beyond the bound theta + z rounds to theta and the ML MSE (exactly k)
    # would read 0; it must be refused, never reported
    cfg = _cfg(k=3, n_samples=64)
    if abs(theta) >= mc.THETA_LIMIT:
        with pytest.raises(mc.ThetaResolutionError):
            collect_cells([(EstimatorKind.ML, theta)], cfg)
    else:
        cell, = collect_cells([(EstimatorKind.ML, theta)], cfg)
        assert math.isfinite(cell.mse) and cell.mse > 0


FOUR_CHUNKS = 3 * CHUNK_SAMPLES + 123


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_reused_workspaces_keep_one_cell_results_bitwise(workers):
    # four chunks, the last one short: every worker folds several chunks
    # into its one workspace, and the short chunk reuses full-size buffers.
    # Shared passes at `workers` must equal one-cell passes at one worker.
    cfg = SimulationConfig(k=5, theta=0.0, n_samples=FOUR_CHUNKS, seed=23,
                           n_workers=workers)
    single = replace(cfg, n_workers=1)
    js, ml = EstimatorKind.JS, EstimatorKind.ML
    cells = [(js, 0.5), (ml, 0.5), (js, 2.0), (ml, 2.0), (js, 0.0), (ml, 1.25)]
    for (kind, theta), cell in zip(cells, collect_cells(cells, cfg, stream=5)):
        alone, = collect_cells([(kind, theta)], single, stream=5)
        assert _same_cell(cell, alone), (kind, theta)

    calibrations = null_calibrations([js, ml], 1.25, cfg)
    for kind in (js, ml):
        alone = null_calibrations([kind], 1.25, single)[kind]
        assert np.array_equal(calibrations[kind].sorted_null, alone.sorted_null)
    table = power_table(cells, calibrations, (0.01, 0.05), cfg)
    for kind, theta in cells:
        alone = power_table([(kind, theta)], calibrations, (0.01, 0.05), single)
        assert table[kind, theta] == alone[kind, theta], (kind, theta)

    grid = [0.0, 0.7, 2.0]
    for kind in (js, ml):
        rows = tabulate_mean_function(kind, grid, cfg)
        for i, theta in enumerate(grid):
            cell, = collect_cells([(kind, theta)], single,
                                  stream=mc.MEAN_FUNCTION_STREAM_BASE + i)
            assert np.array_equal(rows[i], cell.moments.mean_a), (kind, theta)
