"""Estimator assessment by information: the report is Lambda only.

The information matrix of an estimator is built from two sample
covariances of the same stream,

    Lambda = D^T V^{-1} D,   D = Cov(estimate, score),  V = Cov(estimate),

where D is the derivative-free estimate of the Jacobian of the estimator's
mean map.  Its trace is the scalar information.  Efficiency is Lambda
whitened by the Fisher information, which for N(theta * 1, I) is the
identity, so the efficiency matrix is Lambda itself: its eigenvalues are
bounded by one up to Monte Carlo noise, and the mean efficiency is the
scalar information over k.  The MSE is no part of the report: it is read
off the cell (``mc.CellMoments.mse``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import NumericalError, mc
from .estimators import EstimatorKind

# Sample covariances beyond this condition number are treated as singular.
V_CONDITION_LIMIT = 1e12


class SingularCovarianceError(NumericalError):
    """The estimate covariance cannot be inverted reliably."""

    def __init__(self, kind: EstimatorKind, theta: float, condition: float):
        super().__init__(
            f"covariance of the {kind.value.upper()} estimate at theta={theta:g} "
            f"is singular or ill-conditioned (condition number ~ {condition:.3g})"
        )


def _lambda_from_moments(moments: mc.StreamingMoments, kind, theta: float) -> np.ndarray:
    """Information matrix D^T V^{-1} D of the estimator at theta * 1,
    symmetrized since sampling noise breaks exact symmetry.  Moments that
    overflowed (V or D not finite) count as singular."""
    v = moments.cov_aa
    d = moments.cov_ab
    if not (np.isfinite(v).all() and np.isfinite(d).all()):
        raise SingularCovarianceError(kind, theta, float("inf"))
    v = 0.5 * (v + v.T)
    eigs = np.linalg.eigvalsh(v)
    if eigs[0] <= 0 or eigs[-1] / eigs[0] > V_CONDITION_LIMIT:
        condition = float("inf") if eigs[0] <= 0 else float(eigs[-1] / eigs[0])
        raise SingularCovarianceError(kind, theta, condition)
    lam = d.T @ np.linalg.solve(v, d)
    return 0.5 * (lam + lam.T)


@dataclass(frozen=True)
class AssessmentReport:
    """The information of one (estimator, theta) cell, as table3 reports it."""

    lambda_matrix: np.ndarray
    scalar_lambda: float
    lambda_stderr: float
    mean_efficiency: float
    eigenvalues: np.ndarray
    eigen_min: float
    eigen_max: float


def _lambda_batch_stderr(batches, kind, theta: float) -> float:
    """Approximate batch-means standard error of the scalar information over
    batches of samples, NaN below two batches that give an information."""
    traces = []
    for mom in batches:
        if mom.count < 2:
            continue
        try:
            traces.append(np.trace(_lambda_from_moments(mom, kind, theta)))
        except SingularCovarianceError:
            continue
    if len(traces) < 2:
        return float("nan")
    traces = np.asarray(traces)
    return float(traces.std(ddof=1) / np.sqrt(len(traces)))


def assess_moments(kind: EstimatorKind, theta: float,
                   cell: mc.CellMoments) -> AssessmentReport:
    """Information of one cell from its merged moments.

    The cell pairs its error, the estimate minus theta, with the score (see
    the ``mc`` contract); a shift by theta changes no covariance, so V and D
    are the estimate's.  ``kind`` and ``theta`` only name the cell in a
    ``SingularCovarianceError``.  The batch-means standard error of the
    scalar information uses the moments of the cell's contiguous batches of
    samples, cut by sample index (see the ``mc`` contract); it is NaN below
    two batches that give an information.
    """
    lam = _lambda_from_moments(cell.moments, kind, theta)
    scalar_lambda = float(np.trace(lam))
    eigenvalues = np.linalg.eigvalsh(lam)
    return AssessmentReport(
        lambda_matrix=lam,
        scalar_lambda=scalar_lambda,
        lambda_stderr=_lambda_batch_stderr(cell.batch_moments, kind, theta),
        mean_efficiency=scalar_lambda / len(lam),  # Lambda is k x k
        eigenvalues=eigenvalues,
        eigen_min=float(eigenvalues[0]),
        eigen_max=float(eigenvalues[-1]),
    )

