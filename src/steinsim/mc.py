"""Deterministic Monte Carlo engine for the normal-means simulations.

Reproducibility contract
------------------------
Every draw is a pure function of ``(seed, stream, sample index)`` and never
depends on chunking or worker count:

* stream keying: the bit generator is ``Philox(key=[seed, stream])``.
  Distinct pipeline stages (table cells, null calibration, power
  evaluation, figure pairs, mean-function rows) use distinct ``stream``
  ids, so their draws never overlap.
* sample substreams: sample ``i`` of dimension ``k`` owns the 64-bit
  output words ``[i * w, (i + 1) * w)`` with ``w = 4 * ceil(k / 4)``.
  Padding to a whole Philox counter block (4 words) means any contiguous
  range of samples can be generated by advancing the counter, with no
  serial dependence between ranges.
* normals: each word maps to the open-interval uniform
  ``u = (top 53 bits + 0.5) / 2**53`` and through the inverse normal CDF
  (``scipy.special.ndtri``); the first ``k`` of the ``w`` words are used.
  The inverse-CDF map is part of the contract: it consumes a fixed number
  of words per sample and reproduces the normal tails exactly.
* accumulation: samples are processed in fixed chunks of
  ``CHUNK_SAMPLES``; partial moments are merged on the coordinator in
  chunk order, so the floating-point reduction order is independent of
  ``n_workers``.
* chunk-major sweep: every pass over a stream goes through ``sweep``.
  Each chunk's ``z`` is drawn once and every requested cell is folded
  into it, in the order the cells were given; a single-cell pass is the
  one-cell case of the same sweep.  Cell ``i`` sees ``y = theta_i + z``;
  the last (or only) cell of a chunk gets ``z`` with its theta added in
  place, which is bit-identical to ``theta + z`` and spares a copy, so a
  one-cell pass never holds ``z`` and ``y`` together.  A cell's result
  therefore does not depend on which other cells share its pass.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from .estimators import EstimatorFn, EstimatorKind, estimate_batch

DEFAULT_SAMPLES = 1_000_000
DEFAULT_SEED = 42

# Fixed accumulation granularity; results must not change if this does,
# except for floating-point reassociation in the merge.
CHUNK_SAMPLES = 65536

# Mean-function tabulation reserves one stream per grid row.
MEAN_FUNCTION_STREAM_BASE = 1000


@dataclass(frozen=True)
class SimulationConfig:
    """Determinism contract of a pass: k, n_samples, seed and n_workers.

    A sweep reads every cell's theta from the cell itself; ``theta`` is the
    mean of the single-cell passes ``map_samples`` and
    ``hyptest.null_statistics_by_kind``.
    """

    k: int
    theta: float
    n_samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED
    n_workers: int = 1

    def __post_init__(self):
        k = _integer(self.k)
        if k is None or k < 1:
            raise ValueError("k must be a positive integer")
        if not np.isfinite(self.theta):
            raise ValueError("theta must be finite")
        n_samples = _integer(self.n_samples)
        if n_samples is None or n_samples < 1:
            raise ValueError("n_samples must be a positive integer")
        seed = _integer(self.seed)
        if seed is None or not 0 <= seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        n_workers = _integer(self.n_workers)
        if n_workers is None or n_workers < 1:
            raise ValueError("n_workers must be a positive integer")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "n_samples", n_samples)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "n_workers", n_workers)

    def with_theta(self, theta: float) -> "SimulationConfig":
        return replace(self, theta=theta)


def _integer(value) -> int | None:
    """``value`` as an int if it is a non-boolean integral number, else None."""
    if isinstance(value, (bool, np.bool_)):
        return None
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return as_int if as_int == value else None


def _words_per_sample(k: int) -> int:
    return 4 * ((k + 3) // 4)


def standard_normal_block(seed: int, stream: int, start: int, count: int,
                          k: int) -> np.ndarray:
    """Standard normals for samples [start, start + count) of a stream.

    Counter-based: the result depends only on (seed, stream, k) and the
    absolute sample indices, never on how the range is split into calls.
    """
    words = _words_per_sample(k)
    bg = Philox(key=[seed, stream])
    bg.advance(start * words // 4)
    raw = bg.random_raw(count * words).reshape(count, words)[:, :k]
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(u)


def draw_block(config: SimulationConfig, start: int, count: int,
               stream: int = 0) -> np.ndarray:
    """Observations y = theta * 1 + z for samples [start, start + count)."""
    if start < 0 or count < 0 or start + count > config.n_samples:
        raise IndexError(
            f"sample range [{start}, {start + count}) outside "
            f"[0, {config.n_samples})"
        )
    z = standard_normal_block(config.seed, stream, start, count, config.k)
    return np.add(z, config.theta, out=z)


# ---------------------------------------------------------------------------
# Streaming moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StreamingMoments:
    """Means and centered cross-product sums of two paired streams.

    ``m_aa`` and ``m_ab`` hold sums of centered outer products, so
    covariances are ``m / (count - 1)``.  Merging follows the pairwise
    (Chan et al.) update; the caller fixes the merge order.
    """

    count: int
    mean_a: np.ndarray
    m_aa: np.ndarray
    mean_b: np.ndarray
    m_ab: np.ndarray

    @classmethod
    def from_batch(cls, a: np.ndarray, b: np.ndarray) -> "StreamingMoments":
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] < 1:
            raise ValueError("a must be a nonempty (n, k) array")
        b = np.asarray(b, dtype=np.float64)
        if b.ndim != 2 or b.shape[0] != a.shape[0]:
            raise ValueError("b must be an (n, m) array paired with a")
        mean_a = a.mean(axis=0)
        ca = a - mean_a
        m_aa = ca.T @ ca
        mean_b = b.mean(axis=0)
        m_ab = ca.T @ (b - mean_b)
        return cls(a.shape[0], mean_a, m_aa, mean_b, m_ab)

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Combine with a later block; ``self`` precedes ``other``."""
        if self.m_ab.shape != other.m_ab.shape:
            raise ValueError("cannot merge moments of different shapes")
        n = self.count + other.count
        frac = other.count / n
        weight = self.count * frac  # n_a * n_b / n
        da = other.mean_a - self.mean_a
        mean_a = self.mean_a + da * frac
        m_aa = self.m_aa + other.m_aa + np.outer(da, da) * weight
        db = other.mean_b - self.mean_b
        mean_b = self.mean_b + db * frac
        m_ab = self.m_ab + other.m_ab + np.outer(da, db) * weight
        return StreamingMoments(n, mean_a, m_aa, mean_b, m_ab)

    def _require_pairs(self) -> None:
        if self.count < 2:
            raise ValueError("need at least two samples for a covariance")

    @property
    def cov_aa(self) -> np.ndarray:
        self._require_pairs()
        return self.m_aa / (self.count - 1)

    @property
    def cov_ab(self) -> np.ndarray:
        self._require_pairs()
        return self.m_ab / (self.count - 1)


# ---------------------------------------------------------------------------
# Chunked execution
# ---------------------------------------------------------------------------


def _chunk_ranges(n_samples: int) -> list[tuple[int, int]]:
    return [
        (start, min(CHUNK_SAMPLES, n_samples - start))
        for start in range(0, n_samples, CHUNK_SAMPLES)
    ]


def _map_ordered(fn: Callable[[int, int], object],
                 ranges: Sequence[tuple[int, int]], n_workers: int) -> list:
    """Apply fn(start, count) to every range; results in range order."""
    if n_workers <= 1 or len(ranges) <= 1:
        return [fn(start, count) for start, count in ranges]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(lambda rc: fn(*rc), ranges))


def sweep(config: SimulationConfig,
          cells: Sequence[tuple[float, Callable[[np.ndarray, int], object]]],
          stream: int = 0) -> list[list]:
    """One chunk-major pass over a stream, folding every cell into each chunk.

    ``config`` supplies k, n_samples, seed and n_workers; each cell is a
    ``(theta, fn)`` pair and sees ``fn(theta * 1 + z, start)`` for every
    chunk.  Each chunk's ``z`` is drawn once; the last cell receives it with
    theta added in place (see the module contract).  Returns, per cell, its
    chunk results in chunk order, so the caller's merge order is fixed.
    """
    if not cells:
        raise ValueError("a sweep needs at least one cell")
    origin = config.with_theta(0.0)
    last = len(cells) - 1

    def chunk(start: int, count: int) -> list:
        z = draw_block(origin, start, count, stream)
        return [fn(np.add(z, theta, out=z) if i == last else theta + z, start)
                for i, (theta, fn) in enumerate(cells)]

    parts = _map_ordered(chunk, _chunk_ranges(config.n_samples), config.n_workers)
    return [list(column) for column in zip(*parts)]


def map_samples(config: SimulationConfig,
                fn: Callable[[np.ndarray, int], np.ndarray],
                stream: int = 0) -> np.ndarray:
    """Evaluate ``fn(y_chunk, start)`` over all samples of a stream.

    Rows of the concatenated result keep sample order, so the output is
    identical for every worker count.
    """
    return np.concatenate(sweep(config, [(config.theta, fn)], stream)[0], axis=0)


@dataclass(frozen=True)
class CellMoments:
    """Moments of (estimate, score) pairs plus squared-error norms for one
    (estimator, theta) simulation cell, all from a single sample stream.
    ``chunk_moments`` keeps each chunk's moments, in chunk order."""

    moments: StreamingMoments  # a = estimate, b = score
    err_sum: float
    err_sumsq: float
    chunk_moments: tuple[StreamingMoments, ...]

    @property
    def count(self) -> int:
        return self.moments.count

    @property
    def mse(self) -> float:
        return self.err_sum / self.count

    @property
    def mse_stderr(self) -> float:
        n = self.count
        if n < 2:
            return float("nan")
        var = (self.err_sumsq - self.err_sum**2 / n) / (n - 1)
        return float(np.sqrt(max(var, 0.0) / n))


def collect_cells(cells: Sequence[tuple["EstimatorKind | EstimatorFn", float]],
                  config: SimulationConfig, stream: int = 0) -> list[CellMoments]:
    """Moments of every (estimator, theta) cell from one pass over a stream.

    Per-chunk moments are merged in chunk order (Chan, Golub & LeVeque
    1979), so each cell's result is independent of the worker count and of
    the other cells in the pass.  Estimator domain errors abort the run and
    carry the offending sample index.
    """

    def fold(kind, mu: float):
        def chunk(y: np.ndarray, start: int):
            est = estimate_batch(kind, y, index_offset=start)
            score = y - mu
            err = est - mu
            err_sq = np.einsum("ij,ij->i", err, err)
            return (
                StreamingMoments.from_batch(est, score),
                float(err_sq.sum()),
                float((err_sq * err_sq).sum()),
            )
        return chunk

    columns = sweep(config, [(theta, fold(kind, theta)) for kind, theta in cells],
                    stream)
    return [_merge_cell(parts) for parts in columns]


def _merge_cell(parts) -> CellMoments:
    total, err_sum, err_sumsq = parts[0]
    for mom, s1, s2 in parts[1:]:
        total = total.merge(mom)
        err_sum += s1
        err_sumsq += s2
    return CellMoments(total, err_sum, err_sumsq, tuple(p[0] for p in parts))


def tabulate_mean_function(kind: "EstimatorKind | EstimatorFn", grid,
                           config: SimulationConfig) -> np.ndarray:
    """Monte Carlo estimate of E[estimate] at each theta of ``grid``.

    Row ``i`` uses the dedicated stream ``MEAN_FUNCTION_STREAM_BASE + i``,
    so rows are mutually independent and reproducible individually.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("grid must be a nonempty 1-D vector")
    rows = np.empty((grid.size, config.k))
    for i, theta in enumerate(grid):
        cell, = collect_cells([(kind, float(theta))], config,
                              stream=MEAN_FUNCTION_STREAM_BASE + i)
        rows[i] = cell.moments.mean_a
    return rows
