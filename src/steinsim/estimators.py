"""Point estimators for the normal mean, plus the generalized-curve extension.

The two point estimators are the maximum-likelihood estimate (the
observation itself) and the James-Stein shrinkage estimate

    (1 - (k - 2) / ||y||^2) * y,

which pulls the observation toward the origin and flips every component's
sign when ||y||^2 < k - 2.  A point estimator extends to a function over
the parameter grid by subtracting its mean function; the resulting curve's
zero crossing recovers a point estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

# Squared norms below this threshold are treated as the (measure-zero)
# origin; the shrinkage factor would overflow long before reaching it.
NORM_SQ_FLOOR = 1e-300


class EstimatorKind(Enum):
    ML = "ml"
    JS = "js"


class ShrinkageDomainError(ValueError):
    """Shrinkage is undefined at (numerically) zero observations."""

    def __init__(self, norm_sq: float, index: int | None = None):
        self.norm_sq = norm_sq
        self.index = index
        where = f" at sample index {index}" if index is not None else ""
        super().__init__(
            f"squared norm {norm_sq!r} is too close to zero for shrinkage{where}"
        )


class NoCrossingError(ValueError):
    """A generalized-estimator curve never changes sign on its grid."""

    def __init__(self, first_value: float, last_value: float):
        self.first_value = float(first_value)
        self.last_value = float(last_value)
        super().__init__(
            "no zero crossing on grid: curve runs from "
            f"{self.first_value!r} to {self.last_value!r} without a sign change"
        )


def shrinkage_factor_batch(y: np.ndarray, index_offset: int = 0) -> np.ndarray:
    """Row-wise multipliers 1 - (k - 2) / ||y||^2 for an (n, k) array.

    A factor is negative whenever ||y||^2 < k - 2, in which case shrinkage
    overshoots the origin and flips every component's sign.
    ``index_offset`` shifts the sample index reported when a row's squared
    norm underflows the shrinkage domain.
    """
    y = np.asarray(y, dtype=np.float64)
    k = y.shape[1]
    norm_sq = np.einsum("ij,ij->i", y, y)
    bad = norm_sq < NORM_SQ_FLOOR
    if bad.any():
        row = int(np.argmax(bad))
        raise ShrinkageDomainError(float(norm_sq[row]), index=index_offset + row)
    return 1.0 - (k - 2.0) / norm_sq


def js_estimate_batch(y: np.ndarray, index_offset: int = 0) -> np.ndarray:
    """Row-wise James-Stein estimates for an (n, k) observation array.

    The classical risk-dominance guarantee needs k >= 3; smaller k is
    accepted because the formula stays well defined and is useful in tests.
    """
    y = np.asarray(y, dtype=np.float64)
    return shrinkage_factor_batch(y, index_offset)[:, None] * y


EstimatorFn = Callable[[np.ndarray], np.ndarray]


def estimate_batch(kind: "EstimatorKind | EstimatorFn", y: np.ndarray,
                   index_offset: int = 0) -> np.ndarray:
    """Dispatch an (n, k) observation array to the chosen estimator.

    ``kind`` may also be a callable mapping an (n, k) array to an (n, k)
    array, which lets tests push synthetic estimators (e.g. constants)
    through the same pipelines.  A callable that returns NaN or inf fails
    with the index of the first such sample (``index_offset`` plus its row).
    """
    if kind is EstimatorKind.ML:
        return np.array(y, dtype=np.float64)  # the observation itself, copied
    if kind is EstimatorKind.JS:
        return js_estimate_batch(y, index_offset=index_offset)
    if not callable(kind):
        raise TypeError(f"unknown estimator kind: {kind!r}")
    est = np.asarray(kind(np.asarray(y, dtype=np.float64)), dtype=np.float64)
    finite = np.isfinite(est).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"estimator returned a non-finite estimate at sample "
                         f"index {index_offset + row}")
    return est


@dataclass(frozen=True)
class GeneralizedEstimatorCurve:
    """A statistic minus its tabulated mean function, as a function of theta.

    ``values[i]`` is statistic(y) - mean_function(grid[i]); the provenance
    string records how the mean function was produced (seed, sample count).
    """

    grid: np.ndarray
    values: np.ndarray
    mean_function_provenance: str = ""

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if grid.ndim != 1 or values.ndim != 1 or grid.size != values.size:
            raise ValueError("grid and values must be 1-D and equally long")
        if grid.size < 2:
            raise ValueError("curve needs at least two grid points")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        grid = grid.copy()
        values = values.copy()
        grid.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


def build_generalized(statistic: Callable[[np.ndarray], float], y,
                      grid, mean_function,
                      provenance: str = "") -> GeneralizedEstimatorCurve:
    """Curve of statistic(y) minus the mean function tabulated on ``grid``."""
    grid = np.asarray(grid, dtype=np.float64)
    mean_function = np.asarray(mean_function, dtype=np.float64)
    if mean_function.shape != grid.shape:
        raise ValueError(
            f"mean_function length {mean_function.shape} does not match "
            f"grid length {grid.shape}"
        )
    value = float(statistic(np.asarray(y, dtype=np.float64)))
    return GeneralizedEstimatorCurve(grid, value - mean_function, provenance)


def zero_crossing(curve: GeneralizedEstimatorCurve) -> float:
    """Theta at the curve's first exact zero, else linear interpolation
    inside the first sign-change interval.

    Curves in this model are monotone near their crossing, so the first
    change is the only one that matters.
    """
    grid, values = curve.grid, curve.values
    exact = np.flatnonzero(values == 0.0)
    sign_change = np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)
    first_exact = exact[0] if exact.size else None
    first_change = sign_change[0] if sign_change.size else None
    if first_exact is not None and (first_change is None or first_exact <= first_change):
        return float(grid[first_exact])
    if first_change is None:
        raise NoCrossingError(values[0], values[-1])
    i = first_change
    g0, g1 = grid[i], grid[i + 1]
    v0, v1 = values[i], values[i + 1]
    return float(g0 - v0 * (g1 - g0) / (v1 - v0))
