"""Hypothesis-testing pipeline for the point null mu = mu0 * 1.

Test statistics are squared distances between the point estimate and the
null mean (for the ML estimate this is the log likelihood ratio statistic
up to a monotone map).  Critical values and tail probabilities come from
an empirical null distribution simulated at mu0, so every downstream
quantity is invariant under strictly increasing transformations of the
statistics.

Semi-tail units standardize a statistic ``t`` as ``s = -log2
P0(T >= t)``: one extra unit means the null tail area halved.

Streams: null calibration, power evaluation, and figure pairs draw from
the disjoint streams 1, 2 and 3 of the configured seed, so rejection
fractions are never computed on the draws that set the critical values.
Each stream is read by one chunk-major sweep (``mc.sweep``): one pass over
stream 1 at an explicit mu0 yields the calibration of every estimator
(``null_calibrations``), and every power cell shares one pass over stream
2, counting exceedances of the critical values that ``power_table`` reads
off each calibration for the requested alphas.  The sweep forms each
chunk's draws at a theta once, read-only, for every cell at that theta
(the last theta gets the draws with its theta added in place), and each
cell writes the difference of its estimate from mu0 into a buffer of the
workspace that its worker reuses for every chunk of the pass; no cell's
result depends on which other cells share its pass.  Each null is sorted
once, when its pass ends, and made read-only; its calibration shares those
sorted values instead of copying them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from . import mc
from .estimators import EstimatorKind, estimate_batch, shrinkage_factor_batch

DEFAULT_MU0 = 1.25
DEFAULT_ALPHAS = (0.01, 0.05)

NULL_STREAM = 1
ALT_STREAM = 2
PAIR_STREAM = 3


class NullResolutionError(ValueError):
    """Too few null samples to resolve the requested significance level."""


@dataclass(frozen=True)
class NullCalibration:
    """Empirical null distribution of one estimator's test statistic at
    ``mu0``: the ascending ``sorted_null`` that ``power_table`` reads its
    critical values off and ``semitail`` its tail areas.  Its estimator is
    its key in the mapping that ``null_calibrations`` returns."""

    mu0: float
    sorted_null: np.ndarray

    def __post_init__(self):
        values = self.sorted_null
        # a read-only float64 array that owns its data cannot change under
        # the calibration, so it is shared; anything else is copied
        if not (isinstance(values, np.ndarray) and values.dtype == np.float64
                and values.flags.owndata and not values.flags.writeable):
            values = np.array(values, dtype=np.float64)
            values.flags.writeable = False
        if values.ndim != 1:
            raise ValueError("sorted_null must be 1-D")
        if np.any(values[1:] < values[:-1]):
            raise ValueError("sorted_null must be ascending")
        object.__setattr__(self, "sorted_null", values)


def statistics_batch(kind: EstimatorKind, y: np.ndarray, mu0: float,
                     index_offset: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise test statistics for an (n, k) observation array.

    ``out``, a float64 array of ``y``'s shape, receives the estimate minus
    mu0 (the statistic is its squared row norm); without it that difference
    is a fresh array.  ``out`` is passed on to ``estimate_batch`` whatever
    the estimator: it writes the estimate there first, except that the ML
    estimate is ``y`` itself, never copied.
    """
    if np.ndim(y) != 2:
        raise ValueError("y must be an (n, k) array")
    if not np.isfinite(mu0):
        raise ValueError("mu0 must be finite")
    y = np.asarray(y, dtype=np.float64)
    est = estimate_batch(kind, y, index_offset=index_offset, out=out)
    diff = np.subtract(est, mu0, out=out)
    return np.einsum("ij,ij->i", diff, diff)


def _statistic_fold(kind: EstimatorKind, mu0: float):
    return lambda y, start, workspace: statistics_batch(
        kind, y, mu0, index_offset=start, out=workspace.buffer("difference", y.shape))


def null_calibrations(kinds: Sequence[EstimatorKind], mu0: float,
                      config: mc.SimulationConfig) -> dict[EstimatorKind, NullCalibration]:
    """The calibration of each estimator at ``mu0``, from one pass over the
    calibration stream.  Each null is sorted once and made read-only, and
    its calibration shares that memory."""
    mu0 = float(mu0)
    columns = mc.sweep(config, [(mu0, _statistic_fold(kind, mu0)) for kind in kinds],
                       stream=NULL_STREAM)
    calibrations = {}
    for kind, parts in zip(kinds, columns):
        values = np.sort(np.concatenate(parts))
        values.flags.writeable = False
        calibrations[kind] = NullCalibration(mu0, values)
    return calibrations


def _critical_value(sorted_values: np.ndarray, alpha: float) -> float:
    # ceil((1 - alpha)(n + 1)) - 1 = n - floor(alpha (n + 1)), in exact
    # integer arithmetic on alpha's binary value: float rounding of the
    # product can land on the integer below the exact one
    n = sorted_values.size
    num, den = float(alpha).as_integer_ratio()
    idx = n - num * (n + 1) // den
    return float(sorted_values[min(max(idx, 0), n - 1)])


def power_table(cells: Sequence[tuple[EstimatorKind, float]],
                calibrations: dict[EstimatorKind, NullCalibration],
                alphas: Iterable[float],
                config: mc.SimulationConfig) -> dict[tuple[EstimatorKind, float],
                                                     dict[float, float]]:
    """Power at each alpha of every (estimator, theta_alt) cell, from one
    pass over the evaluation stream.

    Before any draw, each cell's calibration must hold at least
    100 / min(alpha) null draws (else ``NullResolutionError``).  Its
    critical value at alpha is the order statistic
    ``sorted_null[ceil((1 - alpha) * (n + 1)) - 1]``, exact for alpha's
    binary value.  Each cell counts, chunk by chunk, the draws whose
    statistic strictly exceeds each critical value; the power is the total
    count over n_samples.  The alternative draws are shared by all cells
    (common random numbers) and disjoint from the calibration draws.
    """
    alphas = list(dict.fromkeys(float(a) for a in alphas))
    if not alphas or any(not 0 < a < 1 for a in alphas):
        raise ValueError("significance levels must lie strictly in (0, 1)")
    for kind, _ in cells:
        if kind not in calibrations:
            raise ValueError(f"no calibration for the {kind.name} estimator")
    need = 100 / min(alphas)
    critical = {}
    for kind in dict.fromkeys(kind for kind, _ in cells):
        values = calibrations[kind].sorted_null
        if values.size < need:  # need may be inf: format it, never int() it
            raise NullResolutionError(
                f"insufficient null resolution: {values.size} samples cannot "
                f"calibrate alpha={min(alphas):g} (need at least {np.ceil(need):.15g})")
        critical[kind] = [_critical_value(values, a) for a in alphas]

    def fold(kind: EstimatorKind):
        crits = critical[kind]
        statistic = _statistic_fold(kind, calibrations[kind].mu0)

        def chunk(y: np.ndarray, start: int, workspace: mc.Workspace) -> list[int]:
            stats = statistic(y, start, workspace)
            return [int(np.count_nonzero(stats > crit)) for crit in crits]
        return chunk

    columns = mc.sweep(config, [(theta, fold(kind)) for kind, theta in cells],
                       stream=ALT_STREAM)
    return {
        (kind, theta): {alpha: count / config.n_samples
                        for alpha, count in zip(alphas, map(sum, zip(*parts)))}
        for (kind, theta), parts in zip(cells, columns)
    }


def semitail(t, calibration: NullCalibration):
    """Semi-tail value s = -log2(p) with p = (#{null >= t} + 1) / (n + 1).

    The add-one rule keeps p positive, so statistics beyond the largest
    null draw still get a finite value, exactly log2(n + 1).  Accepts
    scalars or arrays.
    """
    t = np.asarray(t, dtype=np.float64)
    n = calibration.sorted_null.size
    count_ge = n - np.searchsorted(calibration.sorted_null, t, side="left")
    # the rounded ratio can put -log2 one ulp above its bound log2(n + 1)
    s = np.minimum(-np.log2((count_ge + 1.0) / (n + 1.0)), np.log2(n + 1.0))
    return float(s) if s.ndim == 0 else s


@dataclass(frozen=True)
class SemiTailPair:
    """Both estimators' semi-tail coordinates for one shared sample."""

    sample_index: int
    s_js: float
    s_ml: float
    shrinkage: float


def paired_semitail(theta_alt: float, n_points: int,
                    calibrations: dict[EstimatorKind, NullCalibration],
                    config: mc.SimulationConfig) -> list[SemiTailPair]:
    """Per-sample (s_js, s_ml) pairs at the alternative theta.

    The draws are the first ``n_points`` samples of the pair stream (3),
    read by a single one-cell sweep at ``theta_alt`` whose fold copies each
    chunk's draws, since a fold may not keep its ``y``.  Both statistics are
    computed on the same draws; each is standardized against its own entry
    of ``calibrations``, keyed by estimator as ``null_calibrations`` returns
    them (the JS and ML entries must share mu0).
    """
    calib_js, calib_ml = calibrations[EstimatorKind.JS], calibrations[EstimatorKind.ML]
    if calib_js.mu0 != calib_ml.mu0:
        raise ValueError("calibrations target different null means")
    if n_points < 1:
        raise ValueError("n_points must be positive")
    mu0 = calib_js.mu0
    parts, = mc.sweep(replace(config, n_samples=n_points),
                      [(theta_alt, lambda y, start, _: y.copy())],
                      stream=PAIR_STREAM)
    y = np.concatenate(parts)
    t_js = statistics_batch(EstimatorKind.JS, y, mu0)
    t_ml = statistics_batch(EstimatorKind.ML, y, mu0)
    s_js = semitail(t_js, calib_js)
    s_ml = semitail(t_ml, calib_ml)
    shrink = shrinkage_factor_batch(y)
    return [
        SemiTailPair(i, float(s_js[i]), float(s_ml[i]), float(shrink[i]))
        for i in range(n_points)
    ]


def ml_power_oracle(theta_alt: float, alpha: float, k: int,
                    mu0: float = DEFAULT_MU0) -> float:
    """Exact power of the ML test from the noncentral chi-square law.

    The ML statistic at theta is chi-square with k degrees of freedom and
    noncentrality k * (theta - mu0)^2; its exceedance of the central
    (1 - alpha) quantile is the power.
    """
    from scipy.stats import chi2, ncx2  # deferred: slow to import, only needed here

    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly in (0, 1)")
    ncp = k * (theta_alt - mu0) ** 2
    if ncp == 0:
        return float(alpha)
    crit = chi2.ppf(1.0 - alpha, k)
    return float(ncx2.sf(crit, k, ncp))
