"""Point estimators for the normal mean.

The two point estimators are the maximum-likelihood estimate (the
observation itself) and the James-Stein shrinkage estimate

    (1 - (k - 2) / ||y||^2) * y,

which pulls the observation toward the origin and flips every component's
sign when ||y||^2 < k - 2.  ``EstimatorKind`` names the two, and it is the
only estimator type that the passes, ``assess`` and ``hyptest`` take.
"""

from __future__ import annotations

from enum import Enum

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


def estimate_batch(kind: EstimatorKind, y: np.ndarray,
                   index_offset: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """Dispatch an (n, k) observation array to the chosen estimator.

    The JS estimate of each row is its ``shrinkage_from_norms`` multiplier
    times the row.  The risk-dominance guarantee needs k >= 3; smaller k is
    accepted because the formula stays well defined.  Any ``kind`` but the
    two ``EstimatorKind`` members is a ``TypeError``.

    The JS estimate is written into ``out`` (a float64 array of ``y``'s
    shape, which may be ``y`` itself) if given, and returned.  The ML
    estimate is ``y`` itself as a float64 array, and ``out`` is left
    untouched.  No pass asks for it, since ``mc._error`` takes the ML error
    to be z itself; the tests keep it as the reference for that rule.
    """
    if kind is EstimatorKind.ML:
        return np.asarray(y, dtype=np.float64)
    if kind is not EstimatorKind.JS:
        raise TypeError(f"unknown estimator kind: {kind!r}")
    y = np.asarray(y, dtype=np.float64)
    c = shrinkage_from_norms(np.einsum("ij,ij->i", y, y), y.shape[1], index_offset)
    return np.multiply(c[:, None], y, out=out)
