"""Point estimators for the normal mean.

The two point estimators are the maximum-likelihood estimate (the
observation itself) and the James-Stein shrinkage estimate

    (1 - (k - 2) / ||y||^2) * y,

which pulls the observation toward the origin and flips every component's
sign when ||y||^2 < k - 2.
"""

from __future__ import annotations

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


def js_estimate_batch(y: np.ndarray, index_offset: int = 0,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise James-Stein estimates for an (n, k) observation array,
    written into ``out`` if given.

    The classical risk-dominance guarantee needs k >= 3; smaller k is
    accepted because the formula stays well defined and is useful in tests.
    """
    y = np.asarray(y, dtype=np.float64)
    return np.multiply(shrinkage_factor_batch(y, index_offset)[:, None], y, out=out)


EstimatorFn = Callable[[np.ndarray], np.ndarray]


def estimate_batch(kind: "EstimatorKind | EstimatorFn", y: np.ndarray,
                   index_offset: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """Dispatch an (n, k) observation array to the chosen estimator.

    ``kind`` may also be a callable mapping an (n, k) array to an (n, k)
    array, which lets tests push synthetic estimators (e.g. constants)
    through the same pipelines.  A callable that returns another shape
    fails, and one that returns NaN or inf fails with the index of the
    first such sample (``index_offset`` plus its row).

    Every estimate but ML is written into ``out`` (a float64 array of
    ``y``'s shape) if given, and returned.  The ML estimate is ``y`` itself
    as a float64 array, and ``out`` is left untouched, so callers pass the
    same buffer whatever the estimator.  The sweep folds never write to or
    keep ``y``, which every cell at one theta shares read-only (see
    ``mc.sweep``), so a callable that writes into its input fails there.
    """
    if kind is EstimatorKind.ML:
        return np.asarray(y, dtype=np.float64)
    if kind is EstimatorKind.JS:
        return js_estimate_batch(y, index_offset=index_offset, out=out)
    if not callable(kind):
        raise TypeError(f"unknown estimator kind: {kind!r}")
    est = np.asarray(kind(np.asarray(y, dtype=np.float64)), dtype=np.float64)
    if est.shape != np.shape(y):
        raise ValueError(f"estimator returned shape {est.shape} for observations "
                         f"of shape {np.shape(y)}")
    finite = np.isfinite(est).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"estimator returned a non-finite estimate at sample "
                         f"index {index_offset + row}")
    if out is None:
        return est
    np.copyto(out, est)
    return out
