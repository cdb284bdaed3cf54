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

from . import NumericalError

# Squared norms below this threshold are treated as the (measure-zero)
# origin; the shrinkage factor would overflow long before reaching it.
NORM_SQ_FLOOR = 1e-300


class EstimatorKind(Enum):
    ML = "ml"
    JS = "js"


class ShrinkageDomainError(NumericalError):
    """Shrinkage is undefined at (numerically) zero observations."""

    def __init__(self, norm_sq: float, index: int | None = None):
        self.index = index
        where = f" at sample index {index}" if index is not None else ""
        super().__init__(
            f"squared norm {norm_sq!r} is too close to zero for shrinkage{where}"
        )


def shrinkage_from_norms(norm_sq: np.ndarray, k: int, index_offset: int = 0) -> np.ndarray:
    """The multipliers 1 - (k - 2) / norm_sq of rows with squared norms
    ``norm_sq``; ``ShrinkageDomainError`` names the first row (plus
    ``index_offset``) whose norm underflows the shrinkage domain."""
    bad = norm_sq < NORM_SQ_FLOOR
    if bad.any():
        row = int(np.argmax(bad))
        raise ShrinkageDomainError(float(norm_sq[row]), index=index_offset + row)
    return 1.0 - (k - 2.0) / norm_sq


EstimatorFn = Callable[[np.ndarray], np.ndarray]


def estimate_batch(kind: "EstimatorKind | EstimatorFn", y: np.ndarray,
                   index_offset: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """Dispatch an (n, k) observation array to the chosen estimator.

    The JS estimate of each row is its ``shrinkage_from_norms`` multiplier
    times the row.  The risk-dominance guarantee needs k >= 3; smaller k is
    accepted because the formula stays well defined.

    ``kind`` may also be a callable mapping an (n, k) array to an (n, k)
    array, which lets tests push synthetic estimators (e.g. constants)
    through the same pipelines.  A callable that returns another shape
    fails, and one that returns NaN or inf fails with the index of the
    first such sample (``index_offset`` plus its row).

    Every estimate but ML is written into ``out`` (a float64 array of
    ``y``'s shape, which may be ``y`` itself) if given, and returned.  The
    ML estimate is ``y`` itself as a float64 array, and ``out`` is left
    untouched.  No pass asks for it, since ``mc._error`` takes the ML error
    to be z itself; the tests keep it as the reference for that rule.  A
    callable gets a read-only view of ``y``, so one that writes into its
    input fails, and its result is copied into ``out`` only once it returns.
    """
    if kind is EstimatorKind.ML:
        return np.asarray(y, dtype=np.float64)
    if kind is EstimatorKind.JS:
        y = np.asarray(y, dtype=np.float64)
        c = shrinkage_from_norms(np.einsum("ij,ij->i", y, y), y.shape[1], index_offset)
        return np.multiply(c[:, None], y, out=out)
    if not callable(kind):
        raise TypeError(f"unknown estimator kind: {kind!r}")
    view = np.asarray(y, dtype=np.float64).view()
    view.flags.writeable = False  # foreign code must not write into y
    est = np.asarray(kind(view), dtype=np.float64)
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
