"""Point estimators for the normal mean.

The two point estimators are the maximum-likelihood estimate (the
observation itself) and the James-Stein shrinkage estimate

    (1 - (k - 2) / ||y||^2) * y,

which pulls the observation toward the origin and flips every component's
sign when ||y||^2 < k - 2.  ``EstimatorKind`` names the two, and it is the
only estimator type that the passes, ``assess`` and ``hyptest`` take.  No
array estimator is kept: every pass takes the JS multiplier of a row
y = theta·1 + z from z's row scalars (``row_reductions``, which
``mc.sweep`` takes once per chunk) through ||y||^2 (``shifted_norms``, then
``shrinkage_from_norms``)."""

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

    def __init__(self, norm_sq: float, index: int):
        self.index = index
        super().__init__(f"squared norm {norm_sq!r} is too close to zero for shrinkage "
                         f"at sample index {index}")


def row_reductions(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums S = Σ_j z_j and squared row norms Q = ‖z‖² of an (n, k) array."""
    return np.einsum("ij->i", z), np.einsum("ij,ij->i", z, z)


def shifted_norms(row_sum: np.ndarray, row_norm: np.ndarray, theta: float,
                  k: int) -> np.ndarray:
    """Squared norms ‖y‖² = Q + 2·theta·S + k·theta² of the rows y = theta·1 + z,
    from S = Σ_j z_j and Q = ‖z‖²; at theta = 0 they are Q bit for bit."""
    return row_norm + (2.0 * theta) * row_sum + k * theta * theta


def shrinkage_from_norms(norm_sq: np.ndarray, k: int, index_offset: int = 0) -> np.ndarray:
    """The multipliers 1 - (k - 2) / norm_sq of rows with squared norms
    ``norm_sq``; ``ShrinkageDomainError`` names the first row (plus
    ``index_offset``) whose norm underflows the shrinkage domain."""
    bad = norm_sq < NORM_SQ_FLOOR
    if bad.any():
        row = int(np.argmax(bad))
        raise ShrinkageDomainError(float(norm_sq[row]), index=index_offset + row)
    return 1.0 - (k - 2.0) / norm_sq
