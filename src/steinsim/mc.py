"""Deterministic Monte Carlo engine for the normal-means simulations.

Reproducibility contract
------------------------
Every draw is a pure function of ``(seed, stream, sample index)`` and never
depends on chunking or worker count:

* stream keying: the bit generator is ``Philox(key=[seed, stream])``.  One
  sweep reads each stream: 0 for the estimator cells and the JS and ML
  nulls (``collect_cells``, ``hyptest.null_calibrations``), 2 for the power
  cells, 3 for the figure pairs and 1000 + i for mean-function row i
  (``MEAN_FUNCTION_STREAM_BASE``), so no rejection fraction reads the
  nulls' draws; stream 1 is unused.
* sample substreams: sample ``i`` of dimension ``k`` owns the 64-bit
  output words ``[i * w, (i + 1) * w)`` with ``w = 4 * ceil(k / 4)``
  (``words_per_sample``).  Padding to a whole Philox counter block (4
  words) means any contiguous range of samples can be generated by
  advancing the counter, with no serial dependence between ranges.
* normals: each word's top 53 bits m map to the open-interval uniform
  ``u = min((m + 0.5) / 2**53, 1 - 2**-53)``, whose clamp moves only
  m = 2**53 - 1 (``m + 0.5`` rounds half-to-even for m >= 2**52, here up
  to 2**53, u = 1 and z = +inf), and through the inverse normal CDF
  ``ndtri`` (``_scipy_ndtri``); the first ``k`` of the ``w`` words are
  used, and these standard normals z are the draw, with no mean added.
  The inverse-CDF map is part of the contract: it consumes a fixed number
  of words per sample and reproduces the normal tails exactly.  A draw
  fetches all the words of its range in one Philox call and maps them in
  place into its result (shift, exact conversion, add, scale, clamp,
  ``ndtri``), so it holds its result plus its words; the operations and
  their order are those of the one-shot formula, so the bits are too.
* accumulation: every pass cuts its n samples into
  B = min(STDERR_BATCHES, n) contiguous batches by sample index, batch b
  from ``b * n // B`` on (``_batch_starts``), and each batch into chunks of
  at most ``CHUNK_SAMPLES`` (4,096, so that a worker's chunk-sized arrays
  stay in cache across a chunk's passes, and a worker's draws reuse one
  buffer).  A cell's batch is the in-order merge of its chunks, and the
  in-order merge of its batches the cell's total, so the reduction order
  does not depend on ``n_workers`` nor the batches on ``CHUNK_SAMPLES``,
  and a pass keeps no chunk's result once it is merged.
* chunk-major sweep: every pass goes through ``sweep``, and the passes of
  one stream through the same sweep, which draws each chunk once, takes its
  row scalars S = Σ_j z_j and Q = ‖z‖² once (``estimators.row_reductions``)
  and hands z, read-only, and them to each pass's fold in turn; no fold
  writes z or takes them again, nor keeps z or a buffer of its worker's
  ``Workspace`` after it returns.  Each pass's ``take`` gets its own fold's
  result of each chunk in chunk order, on the thread that called ``sweep``,
  so the workers only draw and fold.  No result depends on which worker
  folds a chunk or on which other cells or passes share its sweep.  Each
  pass that takes thetas checks them when it is built, before any draw.
* theta bound: every cell needs ``|theta| < THETA_LIMIT = 2**43``, where
  ulp(theta) <= 2**-10 keeps y = theta + z within 1e-3 of z's unit scale;
  no fold forms y, and below the bound at k = 14 a JS cell's moments and
  error sums lie within 2e-14 relative of a long-double reference
  (``collect_cells``).
  The bound and finiteness have one check, ``check_thetas``, which every
  pass that takes thetas (the cells, the power pass, the figure pairs and
  the mean-function table) and the command line run before any draw; the
  null pass takes none, and its ``hyptest.MU0`` lies within the bound.

Scope: reports are byte-identical across refactors and worker counts.  The
command line writes every float of a report's data at six significant
digits, so its data files are also the same bytes under every BLAS kernel
and thread count, unless a value lies within about 1e-13 relative of a
six-digit rounding boundary (a chance of about 1e-7 per value).
"""

from __future__ import annotations

import collections
import functools
import importlib.util
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.random import Philox

from . import NumericalError
from .estimators import EstimatorKind, row_reductions, shifted_norms, shrinkage_gaps


def _scipy_ndtri():
    """``scipy.special.ndtri``, the same ufunc object, but loaded from
    ``scipy.special._ufuncs`` without running ``scipy/special/__init__.py``
    unless ``scipy.special`` is already imported.

    That ``__init__`` loads scipy's array-API layer, which clones numpy's
    namespace with ``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``, and
    took over half of ``import steinsim.cli``, while the ufunc module loads
    in about 7 ms.  A later ``import scipy.special`` runs the full package,
    whose fresh ``_ufuncs`` holds the same ufunc, so the map is the same
    object either way.  Only scipy 1.17 has been checked.

    A bare module of the package's spec stands in for ``scipy.special``
    while ``_ufuncs`` loads, and is removed again with every
    ``scipy.special.*`` module loaded under it, so that a later
    ``import scipy.special`` loads them again as its attributes.
    """
    special = sys.modules.get("scipy.special")
    if special is not None:
        return special.ndtri
    before = set(sys.modules)
    sys.modules["scipy.special"] = importlib.util.module_from_spec(
        importlib.util.find_spec("scipy.special"))
    try:
        from scipy.special._ufuncs import ndtri
    finally:
        for name in set(sys.modules) - before:
            if name.split(".")[:2] == ["scipy", "special"]:
                del sys.modules[name]
    return ndtri


ndtri = _scipy_ndtri()

DEFAULT_SAMPLES = 1_000_000
DEFAULT_SEED = 42

# Most samples per chunk; chunks are cut within the batches, so a change to
# this moves no batch and changes results only by reassociation in the merge.
CHUNK_SAMPLES = 4096

# A cell's samples are merged in at most this many contiguous batches, whose
# moments give the batch-means error of the scalar information.
STDERR_BATCHES = 32

# Mean-function tabulation reserves one stream per grid row.
MEAN_FUNCTION_STREAM_BASE = 1000

THETA_LIMIT = 2.0**43  # every cell needs |theta| below it (see the contract)


@dataclass(frozen=True)
class SimulationConfig:
    """Determinism contract of a pass: k, n_samples, seed and n_workers.

    Every draw is z, and every pass takes its thetas as arguments; no field
    keeps a theta, and only ``theta=0.0`` (``perfbench/meanfn.py``) is taken.
    """

    k: int
    theta: InitVar[float] = 0.0
    n_samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED
    n_workers: int = 1

    def __post_init__(self, theta):
        if theta != 0.0:
            raise ValueError("a config has no theta: every pass takes its thetas as arguments")
        for name in ("k", "n_samples", "seed", "n_workers"):
            value = _integer(getattr(self, name))
            if name == "seed" and (value is None or not 0 <= value < 2**64):
                raise ValueError("seed must be a 64-bit unsigned integer")
            if name != "seed" and (value is None or value < 1):
                raise ValueError(f"{name} must be a positive integer")
            object.__setattr__(self, name, value)


class ThetaResolutionError(NumericalError):
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


def words_per_sample(k: int) -> int:
    """w = 4 * ceil(k / 4), the Philox words of one sample: whole blocks."""
    return 4 * ((k + 3) // 4)


def draw_block(config: SimulationConfig, start: int, count: int,
               stream: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """Standard normals z for samples [start, start + count) of a stream,
    written into ``out`` (a float64 (count, k) array) if given."""
    if start < 0 or count < 0 or start + count > config.n_samples:
        raise IndexError(
            f"sample range [{start}, {start + count}) outside "
            f"[0, {config.n_samples})"
        )
    words = words_per_sample(config.k)
    bg = Philox(key=[config.seed, stream])
    bg.advance(start * words // 4)
    raw = bg.random_raw(count * words).reshape(count, words)
    np.right_shift(raw, 11, out=raw)
    z = np.empty((count, config.k)) if out is None else out
    np.add(raw[:, :config.k], 0.5, out=z, casting="unsafe")  # exact below 2**53
    np.multiply(z, 2.0**-53, out=z)
    np.minimum(z, 1.0 - 2.0**-53, out=z)  # the open interval (see the contract)
    return ndtri(z, out=z)


# ---------------------------------------------------------------------------
# Streaming moments
# ---------------------------------------------------------------------------


def _column_mean(x: np.ndarray) -> np.ndarray:
    """Column means of an (n, k) array: its column sums over n."""
    return np.einsum("ij->j", x) / len(x)


def _pooled_mean(count: int, mean: np.ndarray, other_count: int,
                 other_mean: np.ndarray) -> tuple[int, np.ndarray, float, np.ndarray]:
    """Pooled mean of a block followed by a later one (Chan et al.).

    Returns ``(n, mean, frac, delta)``: the pooled count, the pooled mean
    ``mean + delta * frac``, the later block's share ``other_count / n`` and
    the difference ``other_mean - mean``.
    """
    n = count + other_count
    frac = other_count / n
    delta = other_mean - mean
    return n, mean + delta * frac, frac, delta


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
    def from_batch(cls, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None, *,
                   mean_b: np.ndarray | None = None) -> "StreamingMoments":
        """Moments of one block of paired rows, given b's column mean
        ``mean_b`` (``_column_mean``) if it serves several batches.

        ``m_ab`` is ``caᵀ b`` with ``ca = a - mean_a`` and ``b`` uncentered.
        In every pass ``b`` is the score z, whose mean is near 0.  A ``b``
        with a large mean would leave in ``m_ab`` the rounding residue
        ``(Σ ca) mean_bᵀ``, where ``Σ ca`` is zero but for rounding.  ``ca``
        is written into ``out`` (a float64 array of ``a``'s shape) if given,
        else into a fresh array, so with a reused ``out`` a batch allocates
        only its means and k x k products.  When ``b is a``, the ``b`` half
        repeats ``mean_a`` and ``m_aa`` without a second mean or product.
        """
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] < 1:
            raise ValueError("a must be a nonempty (n, k) array")
        mean_a = _column_mean(a)
        ca = np.subtract(a, mean_a, out=out)
        # np.dot, not @: matmul holds the GIL through one 2-D product, dot does not
        m_aa = np.dot(ca.T, ca)
        if b is a:
            return cls(a.shape[0], mean_a, m_aa, mean_a, m_aa)
        b = np.asarray(b, dtype=np.float64)
        if b.ndim != 2 or b.shape[0] != a.shape[0]:
            raise ValueError("b must be an (n, m) array paired with a")
        mean_b = _column_mean(b) if mean_b is None else mean_b
        return cls(a.shape[0], mean_a, m_aa, mean_b, np.dot(ca.T, b))

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Combine with a later block; ``self`` precedes ``other``."""
        if self.m_ab.shape != other.m_ab.shape:
            raise ValueError("cannot merge moments of different shapes")
        n, mean_a, frac, da = _pooled_mean(self.count, self.mean_a,
                                           other.count, other.mean_a)
        _, mean_b, _, db = _pooled_mean(self.count, self.mean_b,
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


def _batch_starts(n_samples: int) -> list[int]:
    """The first sample ``b * n_samples // B`` of each batch b < B, where
    B = ``min(STDERR_BATCHES, n_samples)``."""
    n_batches = min(STDERR_BATCHES, n_samples)
    return [b * n_samples // n_batches for b in range(n_batches)]


def _chunk_ranges(n_samples: int) -> list[tuple[int, int]]:
    """``(start, count)`` of every chunk: each batch cut into chunks of at
    most ``CHUNK_SAMPLES``, so no chunk straddles a batch."""
    starts = _batch_starts(n_samples)
    return [(start, min(CHUNK_SAMPLES, end - start))
            for begin, end in zip(starts, starts[1:] + [n_samples])
            for start in range(begin, end, CHUNK_SAMPLES)]


class _BatchedMerge:
    """In-order merge of one cell's chunk results in the batches of
    ``_batch_starts``: ``add(start, part)`` opens a batch at a batch start
    and otherwise merges into the last one, so each batch is the left fold
    of its chunks by ``merge``, and ``total()`` the left fold of the batches."""

    def __init__(self, n_samples: int, merge: Callable):
        self._starts = set(_batch_starts(n_samples))
        self._merge = merge
        self.batches: list = []

    def add(self, start: int, part) -> None:
        if start in self._starts:
            self.batches.append(part)
        else:
            self.batches[-1] = self._merge(self.batches[-1], part)

    def total(self):
        return functools.reduce(self._merge, self.batches)


def _map_ordered(fn: Callable[[int, int], Callable[[], None]],
                 ranges: Sequence[tuple[int, int]], n_workers: int) -> None:
    """fn(start, count)() for every range: ``fn`` possibly on a worker
    thread, the callable it returns on the calling thread, in range order.

    With more than one worker, at most ``2 * n_workers`` ranges are
    submitted and not yet waited on, so a pass holds a fixed number of
    futures whatever its length.  They are waited on in range order, so the
    first failing range raises first; ranges not yet started are then
    cancelled.
    """
    if n_workers <= 1 or len(ranges) <= 1:
        for start, count in ranges:
            fn(start, count)()
        return
    pending: collections.deque = collections.deque()
    pool = ThreadPoolExecutor(max_workers=n_workers)
    try:
        for start, count in ranges:
            if len(pending) == 2 * n_workers:
                pending.popleft().result()()
            pending.append(pool.submit(fn, start, count))
        for future in pending:
            future.result()()
    finally:
        pool.shutdown(cancel_futures=True)


class Workspace:
    """Scratch buffers of one worker, reused by every cell of every chunk it
    folds in one sweep.

    ``sweep`` gives each worker thread one on its first chunk, draws each
    chunk's z into its ``z`` buffer, and reuses it for every later chunk of
    the pass; workers never share one.  ``buffer(name, shape)`` is a view of
    the worker's flat array of that name, allocated on first use and grown
    only for a larger request, so a short last chunk reuses the buffer of a
    full one, and a pass holds a fixed set of buffers per worker instead of
    fresh arrays per chunk.  A buffer holds whatever its last user wrote: z,
    each JS cell's error in ``cell``, or each batch that ``from_batch``
    centers into ``centered``.  Reusing buffers changes no floating-point
    operation.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def buffer(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        flat = self._buffers.get(name)
        if flat is None or flat.size < size:
            flat = self._buffers[name] = np.empty(size)
        return flat[:size].reshape(shape)


Fold = Callable[[np.ndarray, tuple, int, Workspace], object]
Pass = tuple[Fold, Callable[[int, object], None], Callable[[], object]]  # fold, take, result


def check_thetas(thetas) -> None:
    """``ValueError`` unless every theta is finite, then
    ``ThetaResolutionError`` for the first with ``|theta| >= THETA_LIMIT``."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    if not np.isfinite(thetas).all():
        raise ValueError("theta values must be finite")
    for theta in thetas:
        if abs(theta) >= THETA_LIMIT:
            raise ThetaResolutionError(float(theta))


def sweep(config: SimulationConfig, passes: Sequence[Pass], stream: int = 0) -> list:
    """One chunk-major sweep over a stream that runs every pass over each
    chunk and, once the last chunk is taken, returns each pass's ``result()``.

    ``config`` supplies k, n_samples, seed and n_workers, and each pass is a
    ``(fold, take, result)`` triple.  For every chunk, each pass's
    ``fold(z, reductions, start, workspace)``, in the order of ``passes``,
    gets the chunk's standard normals ``z``, a read-only view of the ``z``
    buffer of ``workspace`` (the ``Workspace`` of the worker thread that
    folds the chunk), and z's row scalars ``reductions = (S, Q)``
    (``estimators.row_reductions``), taken once before the folds run.  A
    fold that writes z raises ``ValueError``, and none may keep z or a
    workspace buffer after it returns (see the module contract).  Each
    pass's ``take(start, result)`` receives each chunk's first sample index
    and its own fold's result, in chunk order, on the thread that called
    ``sweep`` (``_map_ordered`` keeps the order); none is kept once taken.
    """
    local = threading.local()

    def taken(start: int, results: list) -> None:
        for (_, take, _), result in zip(passes, results):
            take(start, result)

    def chunk(start: int, count: int) -> Callable[[], None]:
        workspace = getattr(local, "workspace", None)
        if workspace is None:
            workspace = local.workspace = Workspace()
        z = draw_block(config, start, count, stream,
                       out=workspace.buffer("z", (count, config.k)))
        z.flags.writeable = False  # a view: the next chunk draws into a fresh one
        reductions = row_reductions(z)
        return functools.partial(taken, start, [fold(z, reductions, start, workspace)
                                                for fold, _, _ in passes])

    _map_ordered(chunk, _chunk_ranges(config.n_samples), config.n_workers)
    return [result() for _, _, result in passes]


@dataclass(frozen=True)
class CellMoments:
    """Moments of (estimate, score) pairs and squared-error norms of one
    (estimator, theta) cell from one stream; ``batch_moments`` keeps the
    moments of each of its batches of samples (``_batch_starts``), in order."""

    moments: StreamingMoments  # a = error (estimate - theta), b = score z
    err_sum: float
    err_sumsq: float
    batch_moments: tuple[StreamingMoments, ...]

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


def _squared_error_sums(err_sq: np.ndarray) -> tuple[float, float]:
    """Sums of the squared error norms ``err_sq`` and of their squares."""
    return float(err_sq.sum()), float((err_sq * err_sq).sum())


def _js_error(theta: float, z: np.ndarray, reductions: tuple, start: int,
              out: np.ndarray) -> np.ndarray:
    """Write the JS error e = c·y - theta·1 = c·z - theta·g·1 of the rows
    y = theta·1 + z into ``out`` and return it, with the gaps g = (k - 2) /
    ‖y‖² = 1 - c taken directly from z's row scalars ``reductions``."""
    g = shrinkage_gaps(shifted_norms(*reductions, theta, z.shape[1]), z.shape[1], start)
    np.multiply(z, (1.0 - g)[:, None], out=out)
    return np.subtract(out, (theta * g)[:, None], out=out)


def collect_cells(cells: Sequence[tuple[EstimatorKind, float]],
                  config: SimulationConfig) -> Pass:
    """The stream-0 pass of every (estimator, theta) cell, whose result is
    their ``CellMoments`` in order; the thetas and kinds are checked here,
    before any draw.

    A cell pairs its error ``estimate - theta`` with the score ``z = y -
    theta``, the chunk's draw.  A shift by theta changes no covariance, so
    ``mean_a`` is the cell's bias, ``mean_b`` is near 0, and neither the
    merge nor ``m_ab``, taken against the uncentered score
    (``StreamingMoments.from_batch``), takes a residue of a large mean.  Each
    cell's moments are its error's: a JS cell writes its error c·z -
    theta·g·1 once (``_js_error``) and takes ``from_batch`` of it against z,
    whose column mean is taken once per chunk, and the squared norms of its
    rows; the ML error is z itself, so one ``from_batch(z, z)`` and Q serve
    every ML cell.  Chunk moments are merged as they are taken, in chunk
    order and in the batches of ``_batch_starts`` (Chan, Golub & LeVeque
    1979), so no cell depends on the worker count or on what else shares
    its sweep.  A domain error carries its sample index.
    """
    check_thetas([theta for _, theta in cells])
    if unknown := [kind for kind, _ in cells if not isinstance(kind, EstimatorKind)]:
        raise TypeError(f"unknown estimator kind: {unknown[0]!r}")

    any_ml = any(kind is EstimatorKind.ML for kind, _ in cells)

    def fold(z: np.ndarray, reductions: tuple, start: int, workspace: Workspace) -> list:
        mean_z, centered = _column_mean(z), workspace.buffer("centered", z.shape)
        ml = (StreamingMoments.from_batch(z, z, centered),
              *_squared_error_sums(reductions[1])) if any_ml else None  # every ML cell's, error z

        def js(theta: float) -> tuple:
            e = _js_error(theta, z, reductions, start, workspace.buffer("cell", z.shape))
            return (StreamingMoments.from_batch(e, z, centered, mean_b=mean_z),
                    *_squared_error_sums(np.einsum("ij,ij->i", e, e)))

        return [ml if kind is EstimatorKind.ML else js(theta) for kind, theta in cells]

    merges = [_BatchedMerge(config.n_samples, StreamingMoments.merge) for _ in cells]
    err_sums = [[0.0, 0.0] for _ in cells]

    def take(start: int, results: list) -> None:
        for merge, sums, (moments, s1, s2) in zip(merges, err_sums, results):
            merge.add(start, moments)
            sums[0] += s1
            sums[1] += s2

    def result() -> list[CellMoments]:
        return [CellMoments(merge.total(), *sums, tuple(merge.batches))
                for merge, sums in zip(merges, err_sums)]

    return fold, take, result


def tabulate_mean_function(kind: EstimatorKind, grid,
                           config: SimulationConfig) -> np.ndarray:
    """Monte Carlo estimate of E[estimate] at each theta of ``grid``.

    Row ``i`` uses the dedicated stream ``MEAN_FUNCTION_STREAM_BASE + i``,
    so rows are mutually independent and reproducible individually.  Each
    row is a mean-only pass, alone on its stream: per chunk, the count and
    the column mean of the errors, z for ML and for JS the error of
    ``_js_error`` in the worker's ``cell`` buffer, merged in the batches of
    ``collect_cells`` by ``_pooled_mean``, as ``StreamingMoments.merge``
    pools them.  The row is theta plus that bias, so it equals the ``mean_a
    + theta`` of ``collect_cells`` on the same stream bit for bit without
    computing any covariance.  The kind and every grid value (finite, and
    below ``THETA_LIMIT``) are checked first.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("grid must be a nonempty 1-D vector")
    check_thetas(grid)
    if not isinstance(kind, EstimatorKind):
        raise TypeError(f"unknown estimator kind: {kind!r}")

    def chunk(theta: float, z: np.ndarray, reductions: tuple, start: int, workspace: Workspace):
        if kind is EstimatorKind.ML:
            return len(z), _column_mean(z)
        return len(z), _column_mean(_js_error(theta, z, reductions, start,
                                              workspace.buffer("cell", z.shape)))

    rows = np.empty((grid.size, config.k))
    for i, theta in enumerate(grid):
        merge = _BatchedMerge(config.n_samples, lambda a, b: _pooled_mean(*a, *b)[:2])
        rows[i] = theta + sweep(config, [(functools.partial(chunk, float(theta)), merge.add,
                                          merge.total)], MEAN_FUNCTION_STREAM_BASE + i)[0][1]
    return rows
