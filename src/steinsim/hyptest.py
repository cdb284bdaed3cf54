"""Hypothesis-testing pipeline for the paper's point null mu = MU0 * 1,
with MU0 = 1.25.

Test statistics are squared distances between the point estimate and the
null mean (for the ML estimate this is the log likelihood ratio statistic
up to a monotone map).  Critical values and tail probabilities come from
an empirical null distribution simulated at MU0, so every downstream
quantity is invariant under strictly increasing transformations of the
statistics.

Semi-tail units standardize a statistic ``t`` as ``s = -log2
P0(T >= t)``: one extra unit means the null tail area halved.

Streams: rejection fractions are never taken on the draws of the nulls,
which come from stream 0 (in the sweep of ``mc.collect_cells`` when a run
needs both); the power cells read stream 2 and the figure pairs stream 3.
Every statistic at every theta, like the figure pairs' shrinkage, is
arithmetic on the S and Q that ``mc.sweep`` takes of each chunk's z
(``_statistics``).  The power and figure passes check their thetas before
any draw; the null pass takes no theta, since it runs at the constant MU0.
No cell's result depends on which other cells or passes share its sweep.
Each null is filled in place chunk by chunk, sorted once when its sweep
ends and made read-only: that ascending float64 array is the estimator's
calibration, keyed by its ``EstimatorKind``, and nothing can change it
under a reader.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Sequence

import numpy as np

from . import NumericalError, mc
from .estimators import EstimatorKind, shifted_norms, shrinkage_from_norms

MU0 = 1.25
DEFAULT_ALPHAS = (0.01, 0.05)

ALT_STREAM = 2
PAIR_STREAM = 3


class NullResolutionError(NumericalError):
    """Too few null samples to resolve the requested significance level."""


def _statistics(kind: EstimatorKind, row_sum: np.ndarray, row_norm: np.ndarray,
                theta: float, k: int, index_offset: int = 0) -> np.ndarray:
    """Test statistics ‖estimate(y) - MU0·1‖² of the rows y = theta·1 + z,
    from S = Σ_j z_j and Q = ‖z‖² alone.

    With Σy = S + k·theta and ‖y‖² = Q + 2·theta·S + k·theta², the ML
    statistic is Q + 2dS + kd² for d = theta - MU0, and the JS statistic,
    with shrinkage c = 1 - (k - 2) / ‖y‖², is c²‖y‖² - 2c·MU0·Σy + k·MU0².
    At theta = 0, ‖y‖² is Q bit for bit.
    """
    if kind is EstimatorKind.ML:
        d = theta - MU0
        return row_norm + (2.0 * d) * row_sum + k * d * d
    norm_sq = shifted_norms(row_sum, row_norm, theta, k)
    c = shrinkage_from_norms(norm_sq, k, index_offset)
    return c * c * norm_sq - (2.0 * MU0) * c * (row_sum + k * theta) + k * MU0 * MU0


def null_calibrations(config: mc.SimulationConfig) -> mc.Pass:
    """The stream-0 pass of the JS and ML calibrations at ``MU0``, whose
    fold takes both null statistics at theta = MU0 from each chunk's S and
    Q, and whose result is the calibrations keyed by estimator.  Each
    calibration is its null: the float64 array of ``n_samples`` statistics
    filled in place chunk by chunk, then sorted once and made read-only."""
    kinds = (EstimatorKind.JS, EstimatorKind.ML)
    nulls = [np.empty(config.n_samples) for _ in kinds]

    def fold(z: np.ndarray, reductions: tuple, start: int, workspace: mc.Workspace) -> list:
        return [_statistics(kind, *reductions, MU0, config.k, start) for kind in kinds]

    def fill(start: int, results: list) -> None:
        for null, stats in zip(nulls, results):
            null[start:start + len(stats)] = stats

    def result() -> dict[EstimatorKind, np.ndarray]:
        for null in nulls:
            null.sort()
            null.flags.writeable = False
        return dict(zip(kinds, nulls))

    return fold, fill, result


def check_alphas(alphas: Iterable[float]) -> list[float]:
    """The distinct ``alphas`` as floats, in order; ``ValueError`` unless
    there is one and all lie strictly in (0, 1)."""
    alphas = list(dict.fromkeys(float(a) for a in alphas))
    if not alphas or any(not 0 < a < 1 for a in alphas):
        raise ValueError("significance levels must lie strictly in (0, 1)")
    return alphas


def check_null_resolution(n_null: int, alphas: Sequence[float]) -> None:
    """``NullResolutionError`` unless ``n_null`` null draws can calibrate
    every alpha: a critical value needs at least 100 / min(alpha) of them."""
    need = 100 / min(alphas)
    if n_null < need:  # need may be inf: format it, never int() it
        raise NullResolutionError(
            f"insufficient null resolution: {n_null} samples cannot "
            f"calibrate alpha={min(alphas):g} (need at least {np.ceil(need):.15g})")


def _critical_value(sorted_values: np.ndarray, alpha: float) -> float:
    # ceil((1 - alpha)(n + 1)) - 1 = n - floor(alpha (n + 1)), in exact
    # integer arithmetic on alpha's binary value: float rounding of the
    # product can land on the integer below the exact one
    n = sorted_values.size
    num, den = float(alpha).as_integer_ratio()
    idx = n - num * (n + 1) // den
    return float(sorted_values[min(max(idx, 0), n - 1)])


def power_table(cells: Sequence[tuple[EstimatorKind, float]],
                calibrations: dict[EstimatorKind, np.ndarray],
                alphas: Iterable[float],
                config: mc.SimulationConfig) -> dict[tuple[EstimatorKind, float],
                                                     dict[float, float]]:
    """Power at each alpha of every (estimator, theta_alt) cell, from one
    pass over the evaluation stream.

    Before any draw, the alphas must pass ``check_alphas``, and each cell's
    estimator must key a calibration, an ascending null as the pass of
    ``null_calibrations`` returns it, that resolves every alpha
    (``check_null_resolution``).  Its critical value at alpha is the order
    statistic ``null[ceil((1 - alpha) * (n + 1)) - 1]``, exact for alpha's
    binary value.  Every theta is checked before any draw, and no cells
    return ``{}`` without one.  Each cell counts, chunk by chunk, the draws
    whose statistic at its theta, from the chunk's S and Q, strictly
    exceeds each critical value, and the power is the total count over
    n_samples.  The alternative draws are shared by all cells (common
    random numbers) and disjoint from the calibration draws.
    """
    mc.check_thetas([theta for _, theta in cells])
    alphas = check_alphas(alphas)
    for kind, _ in cells:
        if kind not in calibrations:
            raise ValueError(f"no calibration for the estimator {kind}")
    critical = {}
    for kind in dict.fromkeys(kind for kind, _ in cells):
        null = calibrations[kind]
        check_null_resolution(null.size, alphas)
        critical[kind] = [_critical_value(null, a) for a in alphas]
    if not cells:
        return {}

    def fold(z: np.ndarray, reductions: tuple, start: int,
             workspace: mc.Workspace) -> list[list[int]]:
        counts = []
        for kind, theta in cells:
            stats = _statistics(kind, *reductions, theta, config.k, start)
            counts.append([int(np.count_nonzero(stats > crit)) for crit in critical[kind]])
        return counts

    counts = np.zeros((len(cells), len(alphas)), dtype=np.int64)
    powers, = mc.sweep(config, [(fold, lambda start, result: np.add(counts, result, out=counts),
                                 lambda: (counts / config.n_samples).tolist())],
                       stream=ALT_STREAM)
    return {(kind, theta): dict(zip(alphas, row)) for (kind, theta), row in zip(cells, powers)}


def semitail(t, null: np.ndarray):
    """Semi-tail value s = -log2(p) with p = (#{null >= t} + 1) / (n + 1),
    against the ascending ``null`` of ``n`` draws (a calibration).

    The add-one rule keeps p positive, so statistics beyond the largest
    null draw still get a finite value, exactly log2(n + 1); one at or
    below every null draw gets +0.0.  Accepts scalars or arrays.
    """
    t = np.asarray(t, dtype=np.float64)
    n = null.size
    count_ge = n - np.searchsorted(null, t, side="left")
    # the rounded ratio can put -log2 one ulp above its bound log2(n + 1);
    # + 0.0 turns the -0.0 of -log2(1) into +0.0
    s = np.minimum(-np.log2((count_ge + 1.0) / (n + 1.0)), np.log2(n + 1.0)) + 0.0
    return float(s) if s.ndim == 0 else s


def paired_semitail(theta_alt: float, n_points: int,
                    calibrations: dict[EstimatorKind, np.ndarray],
                    config: mc.SimulationConfig) -> tuple[np.ndarray, ...]:
    """The columns (s_js, s_ml, shrinkage) of per-sample pairs at the
    alternative theta: row i of each is sample i of the pair stream.

    The draws are the first ``n_points`` samples of the pair stream (3),
    read by one sweep whose fold takes both statistics and the shrinkage at
    ``theta_alt`` from each chunk's S and Q, as ``power_table`` does;
    ``theta_alt`` is checked before any draw.  Each statistic is
    standardized against its own entry of ``calibrations``, keyed by
    estimator as the pass of ``null_calibrations`` returns them.
    """
    null_js, null_ml = calibrations[EstimatorKind.JS], calibrations[EstimatorKind.ML]
    if n_points < 1:
        raise ValueError("n_points must be positive")
    mc.check_thetas([theta_alt])
    columns = np.empty((3, n_points))  # t_js, t_ml and the shrinkage

    def fold(z: np.ndarray, reductions: tuple, start: int, workspace: mc.Workspace):
        return (_statistics(EstimatorKind.JS, *reductions, theta_alt, config.k, start),
                _statistics(EstimatorKind.ML, *reductions, theta_alt, config.k, start),
                shrinkage_from_norms(shifted_norms(*reductions, theta_alt, config.k),
                                     config.k, start))

    def fill(start: int, chunk: tuple) -> None:
        columns[:, start:start + len(chunk[0])] = chunk

    (t_js, t_ml, shrink), = mc.sweep(replace(config, n_samples=n_points),
                                     [(fold, fill, lambda: columns)], stream=PAIR_STREAM)
    return semitail(t_js, null_js), semitail(t_ml, null_ml), shrink
