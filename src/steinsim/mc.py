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
  of words per sample and reproduces the normal tails exactly.  A draw
  fetches the words of ``_DRAW_ROWS`` samples at a time and maps them in
  place into its result (shift, exact conversion, add, scale, ``ndtri``),
  so it holds its result plus one block of words; the operations and their
  order are those of the one-shot formula, so the bits are too.
* accumulation: samples are processed in fixed chunks of
  ``CHUNK_SAMPLES``; partial moments are merged on the coordinator in
  chunk order, so the floating-point reduction order is independent of
  ``n_workers``.  A cell's moments pair its estimate with the observation
  ``y`` rather than the score ``y - theta``: a constant shift of ``b``
  changes neither ``m_ab`` nor the differences of ``mean_b`` that the
  merge reads, so Cov(estimate, score) is read off unchanged and no score
  is formed for the moments.  The mean-function table runs a mean-only
  pass: each chunk yields its count and estimate mean, merged in chunk
  order by the same pooled-mean update (``_pooled_mean``) that
  ``StreamingMoments.merge`` applies, so each row equals the moments
  pass's ``mean_a`` bit for bit.
* chunk-major sweep: every pass over a stream goes through ``sweep``.
  Each chunk's ``z`` is drawn once and every requested cell is folded
  into it; a single-cell pass is the one-cell case of the same sweep.
  The cells are grouped by theta (in order of first appearance, keeping
  their given order inside a group), and ``y = theta + z`` is formed once
  per distinct theta, read-only, and handed to every cell at that theta.
  The last distinct theta gets ``z`` with its theta added in place, which
  is bit-identical to ``theta + z`` and spares a copy, so a one-cell pass
  never holds ``z`` and ``y`` together.  Every other theta's ``y`` is
  written into the ``y`` buffer of the worker's ``Workspace``.
* workspaces: each worker thread of a sweep gets one ``Workspace`` on its
  first chunk and reuses it for every later chunk of the pass.  Its named
  buffers are allocated on first use and grown only for a larger request,
  so a cell writes its temporaries (the estimate, then its error in the
  same buffer) with ``out=`` into the same memory chunk after chunk, and
  a pass holds a fixed set of buffers per worker instead of fresh arrays
  per chunk.  Workers never share one.  A fold must not keep ``y`` or a
  workspace buffer after it returns: the next theta or chunk overwrites
  them, so a fold that needs them later returns a copy.  Forming ``y``
  once and reusing buffers changes no floating-point operation, so a
  cell's result does not depend on which other cells share its pass or
  on which worker folds its chunks.
* theta bound: every cell needs ``|theta| < THETA_LIMIT = 2**43``, where
  ulp(theta) <= 2**-10 keeps the rounding of ``theta + z`` below 1e-3 of
  z's unit scale (at 1e200, ``y == theta`` and every error is 0); ``sweep``
  raises ``ThetaResolutionError`` before any draw.
"""

from __future__ import annotations

import math
import threading
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

THETA_LIMIT = 2.0**43  # every cell needs |theta| below it (see the contract)

# Samples drawn per Philox call: the words of one block are mapped to
# normals in place, so a draw holds its result plus one block of words.
_DRAW_ROWS = 4096


@dataclass(frozen=True)
class SimulationConfig:
    """Determinism contract of a pass: k, n_samples, seed and n_workers.

    ``theta`` is only the mean that ``draw_block`` adds: a sweep reads every
    cell's theta from the cell itself, and the null pass takes its mean as
    an argument.
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


class ThetaResolutionError(ValueError):
    """|theta| is too large for ``theta + z`` to resolve the draws z."""

    def __init__(self, theta: float):
        super().__init__(f"|theta| = {abs(theta):g} is not below 2**43, where "
                         "theta + z no longer resolves the normal draws z")


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
    z = np.empty((count, k))
    for lo in range(0, count, _DRAW_ROWS):
        part = z[lo:lo + _DRAW_ROWS]
        # w is a multiple of 4, so each call ends on a counter block and the
        # next one continues the stream where this one stopped
        raw = bg.random_raw(len(part) * words).reshape(len(part), words)
        np.right_shift(raw, 11, out=raw)
        np.copyto(part, raw[:, :k], casting="unsafe")  # exact below 2**53
        np.add(part, 0.5, out=part)
        np.multiply(part, 2.0**-53, out=part)
        ndtri(part, out=part)
    return z


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


def _pooled_mean(count: int, mean: np.ndarray, other_count: int,
                 other_mean: np.ndarray) -> tuple[int, float, np.ndarray, np.ndarray]:
    """Pooled mean of a block followed by a later one (Chan et al.).

    Returns ``(n, frac, delta, mean)``: the pooled count, the later block's
    share ``other_count / n``, the difference ``other_mean - mean`` and the
    pooled mean ``mean + delta * frac``.
    """
    n = count + other_count
    frac = other_count / n
    delta = other_mean - mean
    return n, frac, delta, mean + delta * frac


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
        """Moments of one block of paired rows.

        ``m_ab`` is ``caᵀ b - (Σ ca) mean_bᵀ`` with ``ca = a - mean_a`` and
        ``b`` uncentered: the rank-one term removes the rounding residue of
        ``Σ ca`` times a large ``mean_b`` without a centering copy of ``b``.
        When ``b is a``, the ``b`` half repeats ``mean_a`` and ``m_aa``
        without a second mean or product.
        """
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] < 1:
            raise ValueError("a must be a nonempty (n, k) array")
        mean_a = a.mean(axis=0)
        ca = a - mean_a
        m_aa = ca.T @ ca
        if b is a:
            return cls(a.shape[0], mean_a, m_aa, mean_a, m_aa)
        b = np.asarray(b, dtype=np.float64)
        if b.ndim != 2 or b.shape[0] != a.shape[0]:
            raise ValueError("b must be an (n, m) array paired with a")
        mean_b = b.mean(axis=0)
        m_ab = ca.T @ b - np.outer(ca.sum(axis=0), mean_b)
        return cls(a.shape[0], mean_a, m_aa, mean_b, m_ab)

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Combine with a later block; ``self`` precedes ``other``."""
        if self.m_ab.shape != other.m_ab.shape:
            raise ValueError("cannot merge moments of different shapes")
        n, frac, da, mean_a = _pooled_mean(self.count, self.mean_a,
                                           other.count, other.mean_a)
        _, _, db, mean_b = _pooled_mean(self.count, self.mean_b,
                                        other.count, other.mean_b)
        weight = self.count * frac  # n_a * n_b / n
        m_aa = self.m_aa + other.m_aa + np.outer(da, da) * weight
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


class Workspace:
    """Scratch buffers of one worker, reused by every cell of every chunk it
    folds in one sweep.

    ``buffer(name, shape)`` is a view of the worker's flat array of that
    name, grown to the largest request so far, so a short last chunk reuses
    the buffer of a full one.  It holds whatever its last user wrote.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def buffer(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        flat = self._buffers.get(name)
        if flat is None or flat.size < size:
            flat = self._buffers[name] = np.empty(size)
        return flat[:size].reshape(shape)


Fold = Callable[[np.ndarray, int, Workspace], object]


def sweep(config: SimulationConfig, cells: Sequence[tuple[float, Fold]],
          stream: int = 0) -> list[list]:
    """One chunk-major pass over a stream, folding every cell into each chunk.

    ``config`` supplies k, n_samples, seed and n_workers; each cell is a
    ``(theta, fn)`` pair and sees ``fn(y, start, workspace)`` for every
    chunk, with ``y = theta * 1 + z`` read-only and shared by the cells at
    its theta, and ``workspace`` the ``Workspace`` of the worker thread
    that folds the chunk, one per worker for the whole pass.  A fold must
    not keep ``y`` or a workspace buffer after it returns (see the module
    contract).  Returns, per cell, its chunk results in chunk order, so the
    caller's merge order is fixed.
    """
    if not cells:
        raise ValueError("a sweep needs at least one cell")
    if not all(np.isfinite(theta) for theta, _ in cells):
        raise ValueError("every cell theta must be finite")
    for theta, _ in cells:
        if abs(theta) >= THETA_LIMIT:
            raise ThetaResolutionError(theta)
    origin = replace(config, theta=0.0)
    groups: dict[str, list[int]] = {}
    for i, (theta, _) in enumerate(cells):  # keyed by the bits: 0.0 and -0.0 stay apart
        groups.setdefault(float(theta).hex(), []).append(i)
    last = len(groups) - 1
    local = threading.local()

    def chunk(start: int, count: int) -> list:
        workspace = getattr(local, "workspace", None)
        if workspace is None:
            workspace = local.workspace = Workspace()
        z = draw_block(origin, start, count, stream)
        results = [None] * len(cells)
        for g, members in enumerate(groups.values()):
            theta = cells[members[0]][0]
            y = np.add(z, theta, out=z if g == last else workspace.buffer("y", z.shape))
            y.flags.writeable = False
            for i in members:
                results[i] = cells[i][1](y, start, workspace)
        return results

    parts = _map_ordered(chunk, _chunk_ranges(config.n_samples), config.n_workers)
    return [list(column) for column in zip(*parts)]


@dataclass(frozen=True)
class CellMoments:
    """Moments of (estimate, observation) pairs, whose cross covariance is
    Cov(estimate, score), and squared-error norms of one (estimator, theta)
    cell from one stream; ``chunk_moments`` keeps each chunk's, in order."""

    moments: StreamingMoments  # a = estimate, b = observation y
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
        def chunk(y: np.ndarray, start: int, workspace: Workspace):
            buffer = workspace.buffer("estimate", y.shape)
            est = estimate_batch(kind, y, index_offset=start, out=buffer)
            # b = y: the moments do not change under the shift to the score
            moments = StreamingMoments.from_batch(est, y)
            # the error replaces the estimate in its buffer (for ML, the score)
            err = np.subtract(est, mu, out=buffer)
            err_sq = np.einsum("ij,ij->i", err, err,
                               out=workspace.buffer("err_sq", (len(y),)))
            err_sum = float(err_sq.sum())
            return moments, err_sum, float(np.multiply(err_sq, err_sq, out=err_sq).sum())
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
    so rows are mutually independent and reproducible individually.  Each
    row is a mean-only pass: per chunk, the count and the mean of the
    estimates, formed as ``collect_cells`` forms them (``estimate_batch``
    into the ``estimate`` buffer of the worker's workspace), and
    merged in chunk order by ``_pooled_mean`` (the update
    ``StreamingMoments.merge`` applies), so a row equals the ``mean_a`` of
    ``collect_cells`` on the same stream bit for bit without computing any
    covariance.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("grid must be a nonempty 1-D vector")
    if not np.isfinite(grid).all():  # before any row's pass runs
        raise ValueError("grid values must be finite")

    def chunk(y: np.ndarray, start: int, workspace: Workspace):
        out = workspace.buffer("estimate", y.shape)
        return len(y), estimate_batch(kind, y, index_offset=start, out=out).mean(axis=0)

    rows = np.empty((grid.size, config.k))
    for i, theta in enumerate(grid):
        parts, = sweep(config, [(float(theta), chunk)],
                       stream=MEAN_FUNCTION_STREAM_BASE + i)
        count, mean = parts[0]
        for other_count, other_mean in parts[1:]:
            count, _, _, mean = _pooled_mean(count, mean, other_count, other_mean)
        rows[i] = mean
    return rows
