"""Estimator assessment: MSE, mean KL divergence, and information.

The information matrix of an estimator is built from two sample
covariances of the same stream,

    Lambda = D^T V^{-1} D,   D = Cov(estimate, score),  V = Cov(estimate),

where D is the derivative-free estimate of the Jacobian of the estimator's
mean map.  Its trace is the scalar information; relative to the Fisher
information it yields the efficiency matrix, whose eigenvalues are bounded
by one up to Monte Carlo noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mc
from .estimators import EstimatorFn, EstimatorKind

# Sample covariances beyond this condition number are treated as singular.
V_CONDITION_LIMIT = 1e12


class SingularCovarianceError(ArithmeticError):
    """The estimate covariance cannot be inverted reliably."""

    def __init__(self, kind, theta: float, condition: float):
        self.kind = kind
        self.theta = theta
        self.condition = condition
        super().__init__(
            f"covariance of the {_kind_label(kind)} estimate at theta={theta:g} "
            f"is singular or ill-conditioned (condition number ~ {condition:.3g})"
        )


def _kind_label(kind) -> str:
    return kind.value.upper() if isinstance(kind, EstimatorKind) else getattr(
        kind, "__name__", repr(kind))


def mse(kind: "EstimatorKind | EstimatorFn", theta: float,
        config: mc.SimulationConfig) -> float:
    """Monte Carlo estimate of E ||estimate - theta * 1||^2."""
    return mc.collect_cell_moments(kind, config.with_theta(theta)).mse


def mse_with_stderr(kind: "EstimatorKind | EstimatorFn", theta: float,
                    config: mc.SimulationConfig) -> tuple[float, float]:
    cell = mc.collect_cell_moments(kind, config.with_theta(theta))
    return cell.mse, cell.mse_stderr


def mkl(kind: "EstimatorKind | EstimatorFn", theta: float,
        config: mc.SimulationConfig) -> float:
    """Mean KL divergence from the estimated to the true distribution.

    Uses the family's closed form KL = ||mu1 - mu2||^2 / 2, which makes it
    exactly half the MSE computed on the same stream.
    """
    return 0.5 * mse(kind, theta, config)


def lambda_scalar_univariate(mean_slope: float, variance: float) -> float:
    """Scalar information of a statistic: squared mean slope over variance."""
    if not variance > 0:
        raise ValueError("variance must be positive")
    return mean_slope**2 / variance


def _lambda_from_moments(moments: mc.StreamingMoments, kind, theta: float) -> np.ndarray:
    v = moments.cov_aa
    d = moments.cov_ab
    v = 0.5 * (v + v.T)
    eigs = np.linalg.eigvalsh(v)
    if eigs[0] <= 0 or eigs[-1] / eigs[0] > V_CONDITION_LIMIT:
        condition = float("inf") if eigs[0] <= 0 else float(eigs[-1] / eigs[0])
        raise SingularCovarianceError(kind, theta, condition)
    lam = d.T @ np.linalg.solve(v, d)
    return 0.5 * (lam + lam.T)


def lambda_matrix(kind: "EstimatorKind | EstimatorFn", theta: float,
                  config: mc.SimulationConfig) -> np.ndarray:
    """Information matrix D^T V^{-1} D of the estimator at theta * 1.

    Symmetrized before being returned, since sampling noise breaks exact
    symmetry.
    """
    cell = mc.collect_cell_moments(kind, config.with_theta(theta))
    return _lambda_from_moments(cell.moments, kind, theta)


def scalar_lambda(lam: np.ndarray) -> float:
    """Trace of an information matrix (the sum of its eigenvalues)."""
    lam = np.asarray(lam, dtype=np.float64)
    if lam.ndim != 2 or lam.shape[0] != lam.shape[1]:
        raise ValueError("lambda must be a square matrix")
    return float(np.trace(lam))


def efficiency(lam: np.ndarray, fisher: np.ndarray) -> tuple[np.ndarray, float]:
    """Efficiency matrix I^{-1/2} Lambda I^{-1/2} and its trace over k.

    The second value is the mean efficiency across the k eigendirections.
    """
    lam = np.asarray(lam, dtype=np.float64)
    fisher = np.asarray(fisher, dtype=np.float64)
    if fisher.shape != lam.shape or fisher.ndim != 2:
        raise ValueError("fisher and lambda must be square matrices of equal size")
    if not np.allclose(fisher, fisher.T):
        raise ValueError("fisher information must be symmetric")
    w, u = np.linalg.eigh(fisher)
    if w[0] <= 0:
        raise ValueError("fisher information must be positive definite")
    inv_sqrt = (u / np.sqrt(w)) @ u.T
    eff = inv_sqrt @ lam @ inv_sqrt
    eff = 0.5 * (eff + eff.T)
    return eff, float(np.trace(eff) / lam.shape[0])


@dataclass(frozen=True)
class AssessmentReport:
    """Every assessment quantity for one (estimator, theta) cell."""

    estimator: EstimatorKind
    theta: float
    mse: float
    mse_stderr: float
    mkl: float
    lambda_matrix: np.ndarray
    scalar_lambda: float
    lambda_stderr: float
    efficiency_matrix: np.ndarray
    mean_efficiency: float
    eigenvalues: np.ndarray
    eigen_min: float
    eigen_max: float
    n_samples: int
    seed: int


def _lambda_batch_stderr(chunks, kind, theta: float) -> float:
    """Approximate batch-means standard error of the scalar information."""
    traces = []
    for mom in chunks:
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


def assess_moments(kind: "EstimatorKind | EstimatorFn", theta: float,
                   cell: mc.CellMoments, config: mc.SimulationConfig) -> AssessmentReport:
    """Full assessment of one cell from its merged moments.

    ``cell`` must have been collected with ``keep_chunks=True``, since the
    batch standard error of the scalar information uses the chunk moments.
    """
    if cell.chunk_moments is None:
        raise ValueError("the cell's chunk moments were not kept")
    lam = _lambda_from_moments(cell.moments, kind, theta)
    eff, mean_eff = efficiency(lam, np.eye(config.k))
    eigenvalues = np.linalg.eigvalsh(lam)
    mse_value = cell.mse
    return AssessmentReport(
        estimator=kind if isinstance(kind, EstimatorKind) else None,
        theta=float(theta),
        mse=mse_value,
        mse_stderr=cell.mse_stderr,
        mkl=0.5 * mse_value,
        lambda_matrix=lam,
        scalar_lambda=float(np.trace(lam)),
        lambda_stderr=_lambda_batch_stderr(cell.chunk_moments, kind, theta),
        efficiency_matrix=eff,
        mean_efficiency=mean_eff,
        eigenvalues=eigenvalues,
        eigen_min=float(eigenvalues[0]),
        eigen_max=float(eigenvalues[-1]),
        n_samples=config.n_samples,
        seed=config.seed,
    )


def assess(kind: "EstimatorKind | EstimatorFn", theta: float,
           config: mc.SimulationConfig) -> AssessmentReport:
    """Full assessment of one cell from a single pass over its stream."""
    cell = mc.collect_cell_moments(kind, config.with_theta(theta),
                                   keep_chunks=True)
    return assess_moments(kind, theta, cell, config)
