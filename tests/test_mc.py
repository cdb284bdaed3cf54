import functools
import math
import os
import pickle
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import Philox
from scipy.special import ndtri

from conftest import collect_cells, null_calibrations, shared_stream_0, sweep_values
from steinsim import hyptest, mc
from steinsim.estimators import EstimatorKind, row_reductions
from steinsim.hyptest import paired_semitail, power_table
from steinsim.mc import (
    CHUNK_SAMPLES,
    SimulationConfig,
    StreamingMoments,
    draw_block,
    tabulate_mean_function,
)


def _cfg(**kw):
    base = dict(k=14, n_samples=200_000, seed=42, n_workers=1)
    base.update(kw)
    return SimulationConfig(**base)


def _draw_sample(config, index, stream=0):
    return draw_block(config, index, 1, stream)[0]


def _cell(kind, theta, config):
    cell, = collect_cells([(kind, theta)], config)
    return cell


def _cell_on_stream(kind, theta, config, stream):
    """The one cell of a ``mc.collect_cells`` pass swept over ``stream``
    instead of stream 0, for the mean-function rows, which read streams of
    their own."""
    cell, = collect_cells([(kind, theta)], config, stream)
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
    cfg = SimulationConfig(k=k, n_samples=3 * CHUNK_SAMPLES + 300, seed=7)
    edges = [0, *sorted({int(c * count) for c in cuts}), count]
    pieces = [draw_block(cfg, start + lo, hi - lo, stream=4)
              for lo, hi in zip(edges, edges[1:])]
    assert len(pieces) <= 6
    assert np.array_equal(np.concatenate(pieces), draw_block(cfg, start, count, stream=4))


def _one_shot_normals(seed, stream, start, count, k):
    # the contract's formula in one call: all words of the range at once,
    # the top 53 bits of the first k of each sample's w as an open-interval
    # uniform, clamped below 1, mapped through the inverse normal CDF
    words = 4 * ((k + 3) // 4)
    bg = Philox(key=[seed, stream])
    bg.advance(start * words // 4)
    raw = bg.random_raw(count * words).reshape(count, words)[:, :k]
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(np.minimum(u, np.nextafter(1.0, 0.0)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(k=st.integers(1, 70), start=st.integers(0, 3 * CHUNK_SAMPLES - 1),
       count=st.integers(0, 3 * CHUNK_SAMPLES + 17))
@example(k=14, start=CHUNK_SAMPLES - 1, count=0)
@example(k=1, start=0, count=1)
@example(k=64, start=5, count=CHUNK_SAMPLES - 1)
@example(k=70, start=3 * CHUNK_SAMPLES - 1, count=CHUNK_SAMPLES + 1)
def test_blocked_draws_equal_the_one_shot_formula(k, start, count):
    # the draw maps its words in place, shift, conversion, add, scale and
    # ndtri in turn; every bit must be that of the one-shot formula
    # (compared as integers, so -0.0 and NaN payloads count)
    cfg = SimulationConfig(k=k, n_samples=6 * CHUNK_SAMPLES + 17, seed=7)
    z = draw_block(cfg, start, count, stream=4)
    expected = _one_shot_normals(7, 4, start, count, k)
    assert z.shape == (count, k) and z.dtype == np.float64
    assert np.array_equal(z.view(np.uint64), expected.view(np.uint64))
    out = np.full((count, k), np.nan)  # a sweep draws into a reused buffer
    assert draw_block(cfg, start, count, stream=4, out=out) is out
    assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))


def _fresh_interpreter(probe: str) -> str:
    """stdout of ``probe`` in a fresh interpreter on these sources."""
    src = str(Path(mc.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, check=True, timeout=60,
                            env={**os.environ, "PYTHONPATH": src})
    return result.stdout.strip()


def test_ndtri_is_scipys_when_scipy_special_is_imported_later():
    # mc loads the ufunc without the package and leaves behind neither the
    # stand-in nor the private modules that _ufuncs loads under it, so a
    # later import runs the full package, which shares the same ufunc and
    # carries those modules as attributes
    private = ("_gufuncs", "_special_ufuncs", "_ufuncs_cxx", "_ellip_harm_2")
    probe = ("import sys, steinsim.mc as mc; left = 'scipy.special' in sys.modules; "
             f"import scipy.special; import {', '.join('scipy.special.' + p for p in private)}; "
             "print(left, hasattr(scipy.special, 'ndtr'), scipy.special.ndtri is mc.ndtri, "
             f"all(hasattr(scipy.special, p) for p in {private!r}))")
    assert _fresh_interpreter(probe) == "False True True True"


def test_ndtri_is_scipys_when_scipy_special_is_imported_first():
    probe = ("import sys, scipy.special; special = sys.modules['scipy.special']; "
             "import steinsim.mc as mc; "
             "print(sys.modules['scipy.special'] is special, mc.ndtri is special.ndtri)")
    assert _fresh_interpreter(probe) == "True True"


def _peak_bytes(fn) -> int:
    """Peak of the memory traced while fn runs (numpy reports its buffers)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_chunk_draw_holds_its_result_and_one_block_of_words():
    # the block is the chunk's own words, which at k = 64 (a multiple of 4)
    # take as many bytes as the normals they become
    nbytes = CHUNK_SAMPLES * 64 * 8
    cfg = SimulationConfig(k=64, n_samples=CHUNK_SAMPLES, seed=3)
    peak = _peak_bytes(lambda: draw_block(cfg, 0, CHUNK_SAMPLES))
    assert peak <= 2.25 * nbytes


def test_a_mean_pass_holds_about_two_chunk_arrays():
    # z and its words while the chunk is drawn; y and its estimate are
    # written over z, so the rest is row vectors
    cfg = SimulationConfig(k=64, n_samples=2 * CHUNK_SAMPLES, seed=3)
    peak = _peak_bytes(lambda: tabulate_mean_function(EstimatorKind.JS, [0.0, 1.0], cfg))
    assert peak <= 2.25 * CHUNK_SAMPLES * 64 * 8


def test_a_stream_0_pass_holds_one_cell_buffer_per_worker():
    # the ten cells that table1 and table3 share, on one worker: z, the
    # cell buffer that holds each cell's y, estimate and error in turn, the
    # centered buffer, and z's words while a chunk is drawn (16 words per
    # sample at k = 14), plus vectors and k x k moments
    cells = [(kind, theta) for kind in (EstimatorKind.JS, EstimatorKind.ML)
             for theta in (0.0, 0.5, 1.25, 2.0, 2.5)]
    cfg = SimulationConfig(k=14, n_samples=2 * CHUNK_SAMPLES, seed=3)
    peak = _peak_bytes(lambda: collect_cells(cells, cfg))
    assert peak <= 4.6 * CHUNK_SAMPLES * 14 * 8


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_sweep_builds_at_most_one_workspace_per_worker(monkeypatch, workers):
    built = []
    init = mc.Workspace.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(mc.Workspace, "__init__", counting)
    cfg = SimulationConfig(k=3, n_samples=3 * CHUNK_SAMPLES + 123, seed=24,
                           n_workers=workers)
    collect_cells([(EstimatorKind.JS, 0.0), (EstimatorKind.ML, 1.0)], cfg)
    assert 1 <= len(built) <= workers


@pytest.mark.parametrize("workers", [1, 2])
def test_a_sweep_folds_the_standard_normals_of_each_chunk(workers):
    # each fold sees draw_block's z bit for bit, and the row scalars of that
    # z, even after the folds before it wrote over their z in the reused
    # buffer; results reach take in chunk order, the shorter chunks too
    cfg = SimulationConfig(k=3, n_samples=3 * CHUNK_SAMPLES + 123, seed=29,
                           n_workers=workers)
    taken = []

    def overwriting(z, reductions, start, workspace):
        seen = z.copy(), [r.copy() for r in reductions]
        z[...] = np.nan
        return seen

    mc.sweep(cfg, [(overwriting, lambda start, seen: taken.append((start, *seen)),
                    lambda: None)], stream=6)
    assert [(start, len(z)) for start, z, _ in taken] == mc._chunk_ranges(cfg.n_samples)
    for start, z, reductions in taken:
        drawn = draw_block(cfg, start, len(z), stream=6)
        assert np.array_equal(z, drawn), start
        for got, expected in zip(reductions, row_reductions(drawn), strict=True):
            assert got.tobytes() == expected.tobytes(), start


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
        stats[workers] = sweep_values(cfg, 1.25, lambda y, s, _: y.sum(axis=1), stream=9)
        moments[workers] = _cell(EstimatorKind.JS, 1.25, cfg)
    for workers in (2, 8):
        assert np.array_equal(stats[1], stats[workers])
        assert np.array_equal(moments[1].moments.mean_a, moments[workers].moments.mean_a)
        assert np.array_equal(moments[1].moments.m_aa, moments[workers].moments.m_aa)
        assert np.array_equal(moments[1].moments.m_ab, moments[workers].moments.m_ab)
        assert moments[1].err_sum == moments[workers].err_sum
        assert moments[1].err_sumsq == moments[workers].err_sumsq


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(k=0)
    with pytest.raises(ValueError):
        SimulationConfig(k=3, n_samples=0)
    with pytest.raises(ValueError):
        SimulationConfig(k=3, seed=-1)
    with pytest.raises(ValueError):
        SimulationConfig(k=3, seed=2**64)
    with pytest.raises(ValueError):
        SimulationConfig(k=3, n_workers=0)


def test_a_config_holds_no_theta():
    # every draw is z and every pass takes its thetas as arguments: the
    # constructor accepts theta=0.0 only, and no field keeps it
    assert [f.name for f in fields(SimulationConfig)] == ["k", "n_samples", "seed", "n_workers"]
    cfg = SimulationConfig(k=3)
    assert SimulationConfig(k=3, theta=0.0) == cfg
    assert hash(SimulationConfig(k=3, theta=0.0)) == hash(cfg)
    assert "theta" not in repr(cfg) and "theta" not in vars(cfg)
    for bad in (0.5, -1.25, math.nan, math.inf):
        with pytest.raises(ValueError, match="every pass takes its thetas as arguments"):
            SimulationConfig(k=3, theta=bad)
    with pytest.raises(ValueError, match="every pass takes its thetas as arguments"):
        replace(cfg, theta=0.5)


@pytest.mark.parametrize("field", ["k", "n_samples", "seed", "n_workers"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, True, np.True_, 2.5, "3"])
def test_config_rejects_non_integers(field, bad):
    kw = dict(k=3)
    kw[field] = bad
    with pytest.raises(ValueError):
        SimulationConfig(**kw)


def test_config_accepts_integral_numbers():
    cfg = SimulationConfig(k=np.int64(3), n_samples=10.0, seed=np.uint64(7),
                           n_workers=2.0)
    assert (cfg.k, cfg.n_samples, cfg.seed, cfg.n_workers) == (3, 10, 7, 2)
    assert all(type(v) is int for v in (cfg.k, cfg.n_samples, cfg.seed, cfg.n_workers))


# ---------------------------------------------------------------------------
# Marginal distribution of the draws
# ---------------------------------------------------------------------------


def test_draw_moments_match_the_model():
    n = 1_000_000
    cfg = SimulationConfig(k=14, n_samples=n, seed=13, n_workers=2)
    y = sweep_values(cfg, 1.25, lambda y, s, _: y.copy())
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
    z = draw_block(SimulationConfig(k=16, n_samples=4096, seed=1), 0, 4096)
    assert np.all(np.isfinite(z))


def test_the_extreme_words_give_finite_normals(monkeypatch):
    # the top 53 bits m = 2**53 - 1 of an all-ones word: m + 0.5 rounds
    # half-to-even to 2**53, so without the clamp u = 1 and z = +inf
    class Extremes:
        def __init__(self, key):
            pass

        def advance(self, delta):
            pass

        def random_raw(self, size):
            return np.resize(np.array([2**64 - 1, 0], dtype=np.uint64), size)

    monkeypatch.setattr(mc, "Philox", Extremes)
    z = draw_block(SimulationConfig(k=14, n_samples=8, seed=1), 0, 8)
    assert np.all(np.isfinite(z))
    assert z.max() == ndtri(np.nextafter(1.0, 0.0)) and z.min() == ndtri(2.0**-54)


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


def test_from_batch_refuses_rows_that_are_not_paired():
    with pytest.raises(ValueError, match="paired with a"):
        StreamingMoments.from_batch(np.ones((5, 2)), np.ones((4, 2)))


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
    # from_batch takes m_ab against the uncentered b, the score z in every
    # pass; a b with a large mean leaves in m_ab the rounding residue
    # (sum of ca) mean_b^T, which stays inside these tolerances, in one batch
    # and across the merge
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
def test_ml_cells_take_their_moments_from_the_score(workers):
    # the ML error is z at every theta, so each chunk's ML moments are
    # from_batch(z, z) and its error sums those of the norms ||z_i||^2: every
    # ML cell is their in-order merge and sum bit for bit, whatever its theta
    # (here each batch is one chunk, so the batched merge is the plain one)
    cfg = _cfg(n_samples=CHUNK_SAMPLES + 4000, n_workers=workers)
    z = draw_block(cfg, 0, cfg.n_samples)
    parts = [z[start:start + count] for start, count in mc._chunk_ranges(cfg.n_samples)]
    assert len(parts) == mc.STDERR_BATCHES
    expected = functools.reduce(StreamingMoments.merge,
                                [StreamingMoments.from_batch(part, part) for part in parts])
    err_sum = err_sumsq = 0.0
    for norms in (np.einsum("ij,ij->i", part, part) for part in parts):
        err_sum += float(norms.sum())
        err_sumsq += float((norms * norms).sum())
    cells = collect_cells([(EstimatorKind.ML, theta) for theta in (0.0, 0.5, 2.0, -1e6)], cfg)
    for cell in cells:
        for f in ("mean_a", "m_aa", "mean_b", "m_ab"):
            assert np.array_equal(getattr(cell.moments, f), getattr(expected, f)), f
        assert cell.err_sum == err_sum
        assert cell.err_sumsq == err_sumsq


@settings(derandomize=True, max_examples=40, deadline=None)
@given(theta=st.floats(-mc.THETA_LIMIT, mc.THETA_LIMIT,
                       exclude_min=True, exclude_max=True))
@example(theta=math.nextafter(mc.THETA_LIMIT, 0.0))
@example(theta=-math.nextafter(mc.THETA_LIMIT, 0.0))
def test_every_ml_cell_is_the_theta_0_cell_bitwise(theta):
    # chunks of two lengths and a JS cell between the ML cells: no theta below
    # the bound moves a bit of an ML cell
    cfg = _cfg(k=3, n_samples=CHUNK_SAMPLES + 100)
    at_zero = _cell(EstimatorKind.ML, 0.0, cfg)
    cells = collect_cells([(EstimatorKind.ML, theta), (EstimatorKind.JS, theta),
                           (EstimatorKind.ML, -theta)], cfg)
    assert _same_cell(cells[0], at_zero) and _same_cell(cells[2], at_zero)


def test_sample_covariance_is_positive_semidefinite():
    rng = np.random.default_rng(11)
    # heavy-tailed, correlated stream
    a = rng.standard_t(df=3, size=(2000, 5))
    a[:, 0] = a[:, 1] * 2.0 + a[:, 2]
    moments = StreamingMoments.from_batch(a, a)
    eigs = np.linalg.eigvalsh(moments.cov_aa)
    assert eigs.min() >= -1e-10


def test_score_cross_covariance_is_identity():
    # Cov(y, y - mu) has identity covariance under the model, and the ML
    # estimate is unbiased: its cell's mean_a is the bias
    n = 1_000_000
    cfg = SimulationConfig(k=14, n_samples=n, seed=15, n_workers=2)
    moments = _cell(EstimatorKind.ML, 0.5, cfg).moments
    d, v, bias = moments.cov_ab, moments.cov_aa, moments.mean_a
    assert np.abs(d - np.eye(14)).max() <= 0.01
    assert np.abs(v - np.eye(14)).max() <= 0.01
    assert np.abs(bias).max() <= 0.005


def test_cross_covariance_constant_estimator_is_degenerate():
    # the error of the constant estimate 2 at theta = 1.25, against drawn z
    z = draw_block(_cfg(n_samples=10_000), 0, 10_000)
    moments = StreamingMoments.from_batch(np.full_like(z, 2.0 - 1.25), z)
    d, v, bias = moments.cov_ab, moments.cov_aa, moments.mean_a
    assert np.array_equal(d, np.zeros((14, 14)))
    assert np.array_equal(v, np.zeros((14, 14)))
    assert np.all(bias == 2.0 - 1.25)  # mean_a is the error's mean, exact here


def test_cell_moments_error_norms():
    cfg = _cfg(n_samples=50_000)
    cell = _cell(EstimatorKind.ML, 1.25, cfg)
    # E||y - mu||^2 = k for the ML estimator
    assert cell.mse == pytest.approx(14.0, abs=0.15)
    assert 0.0 < cell.mse_stderr < 0.1
    assert sum(m.count for m in cell.batch_moments) == 50_000


def _same_cell(a, b):
    return (np.array_equal(a.moments.mean_a, b.moments.mean_a)
            and np.array_equal(a.moments.m_aa, b.moments.m_aa)
            and np.array_equal(a.moments.mean_b, b.moments.mean_b)
            and np.array_equal(a.moments.m_ab, b.moments.m_ab)
            and a.err_sum == b.err_sum and a.err_sumsq == b.err_sumsq)


@pytest.mark.parametrize("workers", [1, 2])
def test_shared_sweep_matches_one_cell_passes_bitwise(workers):
    # several chunks, so the in-order merge is exercised; a cell's moments must
    # not depend on its position in the sweep or on the other cells in it
    cfg = _cfg(n_samples=CHUNK_SAMPLES + 4000, n_workers=workers)
    cells = [(EstimatorKind.JS, 0.0), (EstimatorKind.ML, 0.5), (EstimatorKind.JS, 2.0)]
    forward = collect_cells(cells, cfg)
    backward = collect_cells(cells[::-1], cfg)[::-1]
    for (kind, theta), a, b in zip(cells, forward, backward):
        alone = _cell(kind, theta, cfg)
        assert _same_cell(a, alone) and _same_cell(b, alone), (kind, theta)


@pytest.mark.parametrize("workers", [1, 2])
def test_cells_sharing_a_theta_match_one_cell_passes_bitwise(workers):
    # cells share the chunk's read-only z, their score, and the worker's
    # workspace: each cell at a nonzero theta forms its y in the same y
    # buffer, and the ML cells share the moments of z; neither that, nor a
    # duplicate cell, nor the order may change a bit of any cell
    cfg = _cfg(n_samples=CHUNK_SAMPLES + 4000, n_workers=workers)
    js, ml = EstimatorKind.JS, EstimatorKind.ML
    cells = [(js, 0.5), (ml, 0.5), (js, 2.0), (ml, 2.0), (js, 0.5)]
    forward = collect_cells(cells, cfg)
    backward = collect_cells(cells[::-1], cfg)[::-1]
    for (kind, theta), a, b in zip(cells, forward, backward):
        alone = _cell(kind, theta, cfg)
        assert _same_cell(a, alone) and _same_cell(b, alone), (kind, theta)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(k=st.integers(2, 6), n=st.integers(CHUNK_SAMPLES + 1, CHUNK_SAMPLES + 5000),
       cells=st.lists(st.tuples(st.sampled_from([EstimatorKind.JS, EstimatorKind.ML]),
                                st.sampled_from([0.0, 0.5, 1.25, 2.0])),
                      min_size=1, max_size=6))
def test_sweeps_do_not_depend_on_the_worker_count(k, n, cells):
    # random cell lists repeat thetas (and whole cells); moments and power
    # must be bit-identical at 1, 2 and 3 workers
    null_cfg = SimulationConfig(k=k, n_samples=2000, seed=21)
    calibrations = null_calibrations(null_cfg)
    results = {}
    for workers in (1, 2, 3):
        cfg = SimulationConfig(k=k, n_samples=n, seed=22, n_workers=workers)
        results[workers] = (collect_cells(cells, cfg),
                            power_table(cells, calibrations, (0.05,), cfg))
    for workers in (2, 3):
        assert all(_same_cell(a, b) for a, b in zip(results[1][0], results[workers][0]))
        assert results[workers][1] == results[1][1]


def _same_batches(a, b):
    return len(a.batch_moments) == len(b.batch_moments) and all(
        x.count == y.count and all(np.array_equal(getattr(x, f), getattr(y, f))
                                   for f in ("mean_a", "m_aa", "mean_b", "m_ab"))
        for x, y in zip(a.batch_moments, b.batch_moments))


@settings(derandomize=True, max_examples=8, deadline=None)
@given(k=st.integers(2, 5), n_chunks=st.integers(2, 40),
       last=st.integers(1, CHUNK_SAMPLES - 1),
       cells=st.lists(st.tuples(st.sampled_from([EstimatorKind.JS, EstimatorKind.ML]),
                                st.sampled_from([0.0, 0.5, 1.25, 2.0])),
                      min_size=1, max_size=4))
@example(k=3, n_chunks=33, last=1,
         cells=[(EstimatorKind.JS, 0.5), (EstimatorKind.ML, 0.5), (EstimatorKind.JS, 2.0)])
def test_every_pass_gives_the_same_bits_at_1_2_and_3_workers(k, n_chunks, last, cells):
    # several chunks of unequal lengths: at 2 and 3 workers chunks finish
    # out of order, and every pass must still merge them in chunk order; the
    # cells and the nulls of one shared stream-0 sweep are, at every worker
    # count, those of each pass swept alone
    n = (n_chunks - 1) * CHUNK_SAMPLES + last
    kinds = [EstimatorKind.JS, EstimatorKind.ML]
    results = []
    for workers in (1, 2, 3):
        cfg = SimulationConfig(k=k, n_samples=n, seed=25, n_workers=workers)
        shared, calibrations = shared_stream_0(cells, cfg)
        assert all(_same_cell(a, b) and _same_batches(a, b)
                   for a, b in zip(shared, collect_cells(cells, cfg), strict=True))
        assert pickle.dumps(calibrations) == pickle.dumps(null_calibrations(cfg))
        results.append((shared, calibrations,
                        power_table(cells, calibrations, (0.05,), cfg),
                        tabulate_mean_function(EstimatorKind.JS, [0.0, 1.25], cfg),
                        paired_semitail(2.0, n, calibrations, cfg)))
    (cells1, nulls1, power1, rows1, pairs1), *others = results
    for cells_w, nulls_w, power_w, rows_w, pairs_w in others:
        assert all(_same_cell(a, b) and _same_batches(a, b)
                   for a, b in zip(cells1, cells_w))
        assert all(np.array_equal(nulls1[kind], nulls_w[kind])
                   for kind in kinds)
        assert power_w == power1
        assert np.array_equal(rows_w, rows1)
        assert np.array_equal(pairs_w, pairs1)


def test_in_order_merge_holds_under_frequent_thread_switches():
    # more workers than cores and a very short switch interval, so chunks
    # finish and reach the merge in many orders; a lost or reordered chunk
    # changes the bits
    cells = [(EstimatorKind.JS, 0.5), (EstimatorKind.ML, 2.0)]
    single = SimulationConfig(k=3, n_samples=40 * CHUNK_SAMPLES + 7, seed=28)
    expected = collect_cells(cells, single)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = collect_cells(cells, replace(single, n_workers=8))
    finally:
        sys.setswitchinterval(interval)
    assert all(_same_cell(a, b) and _same_batches(a, b) for a, b in zip(expected, got))


def _no_op(start, count):
    return lambda: None


def test_a_pooled_map_holds_a_fixed_number_of_futures():
    # at 2 workers at most 4 ranges are in flight, so the peak of a no-op
    # map must not grow from 16 to 244 ranges (N = 10^6 at 4,096 samples)
    peaks = {}
    for n_ranges in (16, 244):
        ranges = [(start, 1) for start in range(n_ranges)]
        peaks[n_ranges] = _peak_bytes(lambda: mc._map_ordered(_no_op, ranges, 2))
    assert peaks[244] <= 1.25 * peaks[16]


def test_a_pooled_map_raises_the_first_failing_range_and_submits_no_further():
    # fn returns a callable, which runs on the calling thread in range order
    ran = set()
    called = []
    lock = threading.Lock()

    def fn(start, count):
        with lock:
            ran.add(start)
        if start == 3:
            time.sleep(0.05)  # range 5 fails first, but range 3 comes first
            raise ValueError("range 3")
        if start == 5:
            raise ValueError("range 5")
        return lambda: called.append(start)

    with pytest.raises(ValueError, match="range 3"):
        mc._map_ordered(fn, [(start, 1) for start in range(100)], 2)
    assert max(ran) < 3 + 2 * 2  # the window after range 3, no more
    assert called == [0, 1, 2]
    called.clear()
    mc._map_ordered(fn, [(start, 1) for start in (0, 1, 2, 4)], 2)
    assert called == [0, 1, 2, 4]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_sweep_takes_every_chunk_once_in_order_on_the_calling_thread(workers):
    # the folds may run on worker threads; each pass's take runs only where
    # sweep was called, so the pass's merges need no lock, and sees only its
    # own fold's results; each result runs once its pass has taken every
    # chunk, and the sweep returns the results in pass order
    cfg = SimulationConfig(k=3, n_samples=5 * CHUNK_SAMPLES + 9, seed=30,
                           n_workers=workers)
    ranges = mc._chunk_ranges(cfg.n_samples)
    taken = {name: [] for name in "abc"}

    def make_pass(name):
        def fold(z, reductions, start, workspace):
            time.sleep(0.002 * (start // CHUNK_SAMPLES % 2))  # odd chunks finish late
            return name, len(z)

        def take(start, result):
            taken[name].append((start, result, threading.current_thread()))

        def result():
            assert len(taken[name]) == len(ranges)
            return name

        return fold, take, result

    assert mc.sweep(cfg, [make_pass(name) for name in "abc"], stream=6) == list("abc")
    for name, seen in taken.items():
        assert seen == [(start, (name, count), threading.current_thread())
                        for start, count in ranges], name


def test_a_stream_0_pass_keeps_no_chunk_results():
    # the ten cells that table1 and table3 share; a pass holds its workspace
    # buffers, the chunks not yet merged and each cell's 32 batch moments,
    # so its peak less what its result keeps must not grow with the chunk
    # count (both sample counts cut into full chunks: 1 and 2 per batch)
    cells = [(kind, theta) for kind in (EstimatorKind.JS, EstimatorKind.ML)
             for theta in (0.0, 0.5, 1.25, 2.0, 2.5)]
    working = {}
    for n_chunks in (32, 64):
        cfg = SimulationConfig(k=14, n_samples=n_chunks * CHUNK_SAMPLES, seed=26)
        tracemalloc.start()
        try:
            result = collect_cells(cells, cfg)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(len(cell.batch_moments) == mc.STDERR_BATCHES for cell in result)
        working[n_chunks] = peak - kept
    assert working[64] <= 1.05 * working[32]


def test_a_null_pass_keeps_no_chunk_list_or_copy_of_its_nulls():
    # each null is filled in place and sorted there, so the pass's peak less
    # the two nulls it returns must not grow with the chunk count (both
    # sample counts cut into full chunks)
    kinds = [EstimatorKind.JS, EstimatorKind.ML]
    working = {}
    for n_chunks in (32, 64):
        cfg = SimulationConfig(k=14, n_samples=n_chunks * CHUNK_SAMPLES, seed=27)
        tracemalloc.start()
        try:
            result = null_calibrations(cfg)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(result[kind].size == cfg.n_samples for kind in kinds)
        working[n_chunks] = peak - kept
    assert working[64] <= 1.05 * working[32]


# ---------------------------------------------------------------------------
# Mean-function tabulation
# ---------------------------------------------------------------------------


def test_tabulate_ml_mean_function_is_unbiased():
    n = 100_000
    cfg = SimulationConfig(k=14, n_samples=n, seed=16)
    grid = np.array([0.0, 0.5, 1.25, 2.0])
    rows = tabulate_mean_function(EstimatorKind.ML, grid, cfg)
    assert rows.shape == (4, 14)
    for i, theta in enumerate(grid):
        assert np.abs(rows[i] - theta).max() <= 5.0 / math.sqrt(n)


def test_tabulate_js_mean_function_ends():
    from scipy.integrate import quad
    from scipy.stats import ncx2

    cfg = SimulationConfig(k=14, n_samples=100_000, seed=17)
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
    cfg = SimulationConfig(k=5, n_samples=20_000, seed=18)
    both = tabulate_mean_function(EstimatorKind.ML, [0.3, 0.9], cfg)
    second_only = tabulate_mean_function(EstimatorKind.ML, [0.1, 0.9], cfg)
    # row streams are keyed by grid position, not by the grid values
    assert np.array_equal(both[1], second_only[1])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", [EstimatorKind.ML, EstimatorKind.JS], ids=["ml", "js"])
def test_tabulated_rows_equal_the_moments_pass_mean_bitwise(kind, workers):
    # batches of 263 and 264 samples, so the pooled-mean merge sees unequal counts
    cfg = SimulationConfig(k=5, n_samples=CHUNK_SAMPLES + 4333, seed=19,
                           n_workers=workers)
    grid = [0.0, 0.7, 2.0, 1e6]
    rows = tabulate_mean_function(kind, grid, cfg)
    for i, theta in enumerate(grid):
        cell = _cell_on_stream(kind, theta, cfg, mc.MEAN_FUNCTION_STREAM_BASE + i)
        assert np.array_equal(rows[i], cell.moments.mean_a + theta), (i, theta)


def test_mean_pass_draws_each_chunk_once_and_computes_no_moments(monkeypatch):
    draws, batches = [], []
    draw, from_batch = mc.draw_block, mc.StreamingMoments.from_batch.__func__

    def counting_draw(config, start, count, stream=0, out=None):
        draws.append((stream, start, count))
        return draw(config, start, count, stream, out)

    def counting_from_batch(cls, a, b, out=None):
        batches.append(len(a))
        return from_batch(cls, a, b, out=out)

    monkeypatch.setattr(mc, "draw_block", counting_draw)
    monkeypatch.setattr(mc.StreamingMoments, "from_batch", classmethod(counting_from_batch))
    cfg = SimulationConfig(k=5, n_samples=CHUNK_SAMPLES + 4000, seed=20,
                           n_workers=2)
    tabulate_mean_function(EstimatorKind.JS, [0.0, 1.0, 2.0], cfg)
    assert batches == []
    base = mc.MEAN_FUNCTION_STREAM_BASE
    ranges = mc._chunk_ranges(cfg.n_samples)
    assert sorted(draws) == [(base + row, start, count) for row in range(3)
                             for start, count in ranges]
    collect_cells([(EstimatorKind.JS, 0.0)], cfg)
    # the wrapper sees the moments pass: per chunk, the JS cell's batch only,
    # since a pass with no ML cell takes no moments of z
    assert sorted(batches) == sorted(count for _, count in ranges)


def test_a_stream_0_pass_centers_every_batch_in_a_workspace_buffer(monkeypatch):
    # JS and ML cells, several chunks: no from_batch call may allocate its own
    # centered copy of a chunk
    outs = []
    from_batch = mc.StreamingMoments.from_batch.__func__

    def recording(cls, a, b, out=None):
        outs.append((np.shape(a), None if out is None else out.shape))
        return from_batch(cls, a, b, out=out)

    monkeypatch.setattr(mc.StreamingMoments, "from_batch", classmethod(recording))
    cfg = _cfg(n_samples=CHUNK_SAMPLES + 4000, n_workers=2)
    collect_cells([(EstimatorKind.JS, 0.5), (EstimatorKind.ML, 0.0),
                   (EstimatorKind.ML, 2.0)], cfg)
    # per chunk, one JS batch and one shared ML batch
    assert len(outs) == 2 * len(mc._chunk_ranges(cfg.n_samples))
    assert all(out == shape for shape, out in outs)


def _each_chunk_reduced_once(monkeypatch, runs):
    # runs maps a name to (run, the sample counts of the chunks it sweeps);
    # each run must take one row_reductions per chunk and give the same bits
    # as without the counter (a pickle holds every array's bytes)
    expected = {name: pickle.dumps(run()) for name, (run, _) in runs.items()}
    calls = []
    reductions = mc.row_reductions

    def counting(z):
        calls.append(len(z))
        return reductions(z)

    monkeypatch.setattr(mc, "row_reductions", counting)
    for name, (run, counts) in runs.items():
        calls.clear()
        assert pickle.dumps(run()) == expected[name], name
        assert sorted(calls) == counts, name


_REDUCE_CELLS = [(kind, theta) for theta in (0.0, 0.5, 2.0)
                 for kind in (EstimatorKind.JS, EstimatorKind.ML)]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_stream_0_pass_reduces_each_chunk_once(monkeypatch, workers):
    # every JS multiplier and the ML norms of a chunk come from one S and one
    # Q, and the cells and the nulls of one shared stream-0 sweep share them
    cfg = _cfg(n_samples=CHUNK_SAMPLES + 4000, n_workers=workers)
    chunks = sorted(count for _, count in mc._chunk_ranges(cfg.n_samples))
    assert pickle.dumps(shared_stream_0(_REDUCE_CELLS, cfg)) == pickle.dumps(
        [collect_cells(_REDUCE_CELLS, cfg), null_calibrations(cfg)])
    _each_chunk_reduced_once(monkeypatch, {
        "cells": (lambda: collect_cells(_REDUCE_CELLS, cfg), chunks),
        "cells and nulls": (lambda: shared_stream_0(_REDUCE_CELLS, cfg), chunks),
    })


@pytest.mark.parametrize("workers", [1, 2])
def test_null_power_and_mean_passes_reduce_each_chunk_once(monkeypatch, workers):
    # the sweep takes each chunk's S and Q once and hands them to the fold:
    # every test statistic and mean-function row of these passes comes from
    # them, and no fold reduces its chunk again (the cells and the figure
    # pairs have tests of their own)
    cfg = _cfg(n_samples=CHUNK_SAMPLES + 4000, n_workers=workers)
    grid = (0.0, 2.0)
    calibrations = null_calibrations(cfg)
    chunks = sorted(count for _, count in mc._chunk_ranges(cfg.n_samples))
    _each_chunk_reduced_once(monkeypatch, {
        "nulls": (lambda: null_calibrations(cfg), chunks),
        "power": (lambda: power_table(_REDUCE_CELLS, calibrations, (0.05,), cfg), chunks),
        "mean function": (lambda: tabulate_mean_function(EstimatorKind.JS, grid, cfg),
                          sorted(chunks * len(grid))),
    })


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sweeps_reject_a_non_finite_cell_theta(bad):
    cfg = _cfg(n_samples=1000)
    with pytest.raises(ValueError, match="finite"):
        collect_cells([(EstimatorKind.ML, 0.0), (EstimatorKind.ML, bad)], cfg)
    with pytest.raises(ValueError, match="finite"):
        tabulate_mean_function(EstimatorKind.JS, [0.0, bad], cfg)


def test_empty_requests_return_before_any_draw(monkeypatch):
    # building a pass draws nothing, and the pass of no cells has the result
    # [] unswept; a power table of no cells sweeps nothing
    draws = []
    monkeypatch.setattr(mc, "draw_block", lambda *args, **kwargs: draws.append(args))
    cfg = _cfg(n_samples=1000)
    _, _, result = mc.collect_cells([], cfg)
    hyptest.null_calibrations(cfg)
    assert result() == []
    assert power_table([], {}, (0.05,), cfg) == {}
    assert draws == []


def test_tabulate_checks_the_grid_before_any_pass(monkeypatch):
    draws = []
    monkeypatch.setattr(mc, "draw_block", lambda *args: draws.append(args))
    with pytest.raises(ValueError, match="finite"):
        tabulate_mean_function(EstimatorKind.JS, [0.0, 1.0, math.nan], _cfg(n_samples=1000))
    assert draws == []


@pytest.mark.parametrize("bad", [1e200, -mc.THETA_LIMIT])
def test_tabulate_refuses_an_unresolvable_theta_before_any_pass(monkeypatch, bad):
    # row 0 is fine; it must not be drawn and thrown away before row 1 fails
    draws = []
    monkeypatch.setattr(mc, "draw_block", lambda *args, **kwargs: draws.append(args))
    with pytest.raises(mc.ThetaResolutionError):
        tabulate_mean_function(EstimatorKind.JS, [0.0, bad], _cfg(n_samples=1000))
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


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_reused_workspaces_keep_one_cell_results_bitwise(workers):
    # chunks of 387 and 388 samples: every worker folds several chunks into
    # its one workspace, and a shorter chunk reuses a longer one's buffers.
    # Shared passes at `workers` must equal one-cell passes at one worker.
    cfg = SimulationConfig(k=5, n_samples=3 * CHUNK_SAMPLES + 123, seed=23,
                           n_workers=workers)
    single = replace(cfg, n_workers=1)
    js, ml = EstimatorKind.JS, EstimatorKind.ML
    cells = [(js, 0.5), (ml, 0.5), (js, 2.0), (ml, 2.0), (js, 0.0), (ml, 1.25)]
    for (kind, theta), cell in zip(cells, collect_cells(cells, cfg)):
        alone, = collect_cells([(kind, theta)], single)
        assert _same_cell(cell, alone), (kind, theta)

    calibrations = null_calibrations(cfg)
    for kind, alone in null_calibrations(single).items():
        assert np.array_equal(calibrations[kind], alone)
    table = power_table(cells, calibrations, (0.01, 0.05), cfg)
    for kind, theta in cells:
        alone = power_table([(kind, theta)], calibrations, (0.01, 0.05), single)
        assert table[kind, theta] == alone[kind, theta], (kind, theta)

    grid = [0.0, 0.7, 2.0]
    for kind in (js, ml):
        rows = tabulate_mean_function(kind, grid, cfg)
        for i, theta in enumerate(grid):
            cell = _cell_on_stream(kind, theta, single, mc.MEAN_FUNCTION_STREAM_BASE + i)
            assert np.array_equal(rows[i], cell.moments.mean_a + theta), (kind, theta)
