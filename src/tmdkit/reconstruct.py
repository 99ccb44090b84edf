"""Loss-tolerant reconstruction of photon statistics from click data.

The click model is linear, rho = C L(eta) p, so reconstruction is a
least-squares inversion of the composite response.  For the default
square system (n_max equal to the bin count) the two stages are
triangular and are solved by back-substitution, which stays accurate
even when the composite condition number is astronomically large at low
efficiency.  An optional non-negativity-constrained solver is available
for users who prefer a physical estimate over an unbiased one.

A joint signal-idler click matrix is the same problem with one detector
per axis (signal rows, idler columns), so single-arm and joint data go
through one inverse; the two arms may differ in bins and efficiency.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .detector import TMDConfig, _along_axes, convolution_matrix, loss_matrix
from .errors import (
    ConditioningError,
    DegenerateConditionError,
    DomainError,
    TruncationError,
)
from .stats import ClickStatistics, JointPhotonDistribution, PhotonDistribution

# Central finite-difference step for the efficiency sensitivity.
EFFICIENCY_FD_STEP = 1e-6


@dataclass(frozen=True)
class CalibrationRecord:
    """Klyshko efficiency estimate for one arm."""

    eta: float
    eta_uncertainty: float | None
    coincidences: float
    singles: float


@dataclass(frozen=True)
class ReconstructionResult:
    """Reconstructed distribution together with inversion diagnostics."""

    dist: PhotonDistribution | JointPhotonDistribution
    condition_number: float
    residual: float
    method: str


def klyshko_efficiency(coincidences: float, singles: float) -> CalibrationRecord:
    """Arm efficiency as the coincidence-to-singles ratio.

    ``singles`` are counted on the opposite arm, so the ratio estimates
    the detection efficiency of the arm the coincidences were gated on.
    When both arguments are integer counts, a binomial standard error is
    attached; for rates the uncertainty is left unset.
    """
    if not math.isfinite(coincidences) or not math.isfinite(singles):
        raise DomainError("coincidences and singles must be finite")
    if singles <= 0:
        raise DegenerateConditionError("singles rate must be positive")
    if coincidences < 0:
        raise DomainError("coincidences must be non-negative")
    if coincidences > singles:
        raise DomainError(
            f"coincidences {coincidences!r} exceed singles {singles!r}; ratio would leave [0, 1]"
        )
    eta = coincidences / singles
    uncertainty = None
    if float(coincidences).is_integer() and float(singles).is_integer():
        uncertainty = math.sqrt(eta * (1.0 - eta) / singles)
    return CalibrationRecord(eta, uncertainty, float(coincidences), float(singles))


def _stages(tmd: TMDConfig) -> tuple[np.ndarray, np.ndarray]:
    """Occupation and loss stages of a detector the inversion can use."""
    if tmd.n_max > tmd.bins:
        raise TruncationError(
            f"n_max={tmd.n_max} exceeds the {tmd.bins}-bin click range; "
            "the inversion would be underdetermined"
        )
    if tmd.efficiency <= 0.0:
        raise ConditioningError("zero efficiency leaves the loss stage rank deficient")
    effective_bins = int(np.count_nonzero(tmd.bin_probs))
    if tmd.n_max > effective_bins:
        raise ConditioningError(
            f"only {effective_bins} bins have non-zero probability; "
            f"rank is insufficient for n_max={tmd.n_max}"
        )
    conv = convolution_matrix(tmd.bin_probs, tmd.n_max)
    loss = loss_matrix(tmd.efficiency, tmd.n_max)
    return conv, loss


def _solve_stages(conv: np.ndarray, loss: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Least-squares solution of (conv @ loss) p = rho, rho may be a matrix."""
    if conv.shape[0] == conv.shape[1]:
        # both stages are upper triangular, so LU pivots nowhere: this is
        # back-substitution, accurate where an SVD pseudo-inverse collapses
        return np.linalg.solve(loss, np.linalg.solve(conv, rho))
    solution, *_ = np.linalg.lstsq(conv @ loss, rho, rcond=None)
    return solution


def _direct(stages: list, rho: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares inverse along each detector axis, renormalized, with the raw mass."""
    for conv, loss in stages:
        # solve along the leading axis, then bring the next one to the front;
        # two transposes restore the order and a vector's transpose is itself
        rho = _solve_stages(conv, loss, rho).T
    return _renormalized(rho)


def _constrained_solve(composite: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Non-negative least squares with a normalization row, renormalized."""
    # imported here so that only the constrained path loads the optimizer
    from scipy.optimize import nnls

    augmented = np.vstack([composite, np.ones((1, composite.shape[1]))])
    solution, _ = nnls(augmented, np.append(rho, 1.0))
    probs, _ = _renormalized(solution)
    return probs


ClickInput = ClickStatistics | PhotonDistribution | np.ndarray


def _click_frequencies(tmds: tuple[TMDConfig, ...], clicks) -> tuple[np.ndarray, int | None]:
    """Click frequencies, one axis per detector, plus the shot count when one exists.

    Exact click distributions (from the forward model or the
    infinite-data limit) carry no shot count and hence no counting
    noise.
    """
    if isinstance(clicks, ClickStatistics):
        rho, shots = clicks.frequencies, clicks.total_shots
    elif isinstance(clicks, (PhotonDistribution, JointPhotonDistribution)):
        rho, shots = clicks.probs, None
    else:
        rho, shots = np.asarray(clicks, dtype=float), None
    expected = tuple(tmd.bins + 1 for tmd in tmds)
    if rho.shape != expected:
        raise DomainError(f"click array shape {rho.shape} does not match {expected}")
    return rho, shots


def _renormalized(raw: np.ndarray) -> tuple[np.ndarray, float]:
    total = float(raw.sum())
    if total <= 0.0:
        raise ConditioningError(f"reconstructed probability mass {total!r} is non-positive")
    return raw / total, total


def _invert(tmds: tuple[TMDConfig, ...], clicks, constrained: bool) -> ReconstructionResult:
    """Invert one detector per axis: a vector for one arm, signal rows by idler columns for two."""
    stages = [_stages(tmd) for tmd in tmds]
    rho, _ = _click_frequencies(tmds, clicks)
    composites = [conv @ loss for conv, loss in stages]
    condition = math.prod(float(np.linalg.cond(composite)) for composite in composites)
    if constrained:
        # the composite of independent axes is their Kronecker product
        probs = _constrained_solve(functools.reduce(np.kron, composites), rho.ravel())
        probs = probs.reshape(tuple(tmd.n_max + 1 for tmd in tmds))
    else:
        probs, _ = _direct(stages, rho)
    residual = float(np.linalg.norm(_along_axes(composites, probs) - rho))
    dist_type = PhotonDistribution if probs.ndim == 1 else JointPhotonDistribution
    method = "constrained" if constrained else "direct"
    return ReconstructionResult(dist_type(probs), condition, residual, method)


def invert_single(
    tmd: TMDConfig, clicks: ClickInput, constrained: bool = False
) -> ReconstructionResult:
    """Reconstruct a photon-number distribution from one detector's clicks.

    The direct method is the unbiased least-squares inverse followed by
    renormalization; ``constrained`` switches to an active-set solver
    restricted to non-negative, normalized distributions.  Error bars of
    the direct estimate, from counting noise and calibration uncertainty,
    come from :func:`propagate_errors`.
    """
    return _invert((tmd,), clicks, constrained)


def invert_joint(
    tmd_signal: TMDConfig,
    tmd_idler: TMDConfig,
    clicks: ClickStatistics | JointPhotonDistribution | np.ndarray,
    constrained: bool = False,
) -> ReconstructionResult:
    """Reconstruct a joint photon-number distribution from a click matrix.

    The two detector responses act on separate axes, so the inversion is
    applied per axis.  Error propagation is deliberately restricted to
    the marginals (propagate each arm separately); a full joint
    covariance would grow quadratically in the matrix size.
    """
    return _invert((tmd_signal, tmd_idler), clicks, constrained)


def propagate_errors(
    tmd: TMDConfig,
    clicks: ClickInput,
    sigma_eta: float,
    shots: int | None = None,
) -> np.ndarray:
    """First-order covariance of the directly reconstructed distribution.

    Two independent contributions are summed: the multinomial counting
    covariance of the click frequencies pushed through the linearized
    inverse, and the sensitivity to the calibrated efficiency scaled by
    ``sigma_eta``.  ``clicks`` may be raw statistics (shot count taken
    from them) or an exact click distribution, in which case ``shots``
    sets the counting term; leaving it unset models the infinite-data
    limit where only the efficiency term survives.

    Args:
        tmd: detector model used for the inversion.
        clicks: click histogram or exact click frequency vector.
        sigma_eta: one-sigma uncertainty of the detector efficiency.
        shots: shot count for the counting term when ``clicks`` is exact.

    Returns:
        Symmetric positive semi-definite covariance matrix over the
        reconstructed probabilities.
    """
    if sigma_eta < 0.0 or not math.isfinite(sigma_eta):
        raise DomainError("sigma_eta must be finite and non-negative")
    conv, loss = _stages(tmd)
    rho, counted = _click_frequencies((tmd,), clicks)
    if shots is None:
        shots = counted

    probs, total = _direct([(conv, loss)], rho)
    size = probs.size
    covariance = np.zeros((size, size))

    if shots is not None:
        if shots <= 0:
            raise DomainError("shots must be positive")
        # d(normalized p)/d(rho), renormalization projects out total-mass shifts
        inverse = _solve_stages(conv, loss, np.eye(rho.size))
        jacobian = (np.eye(size) - np.outer(probs, np.ones(size))) @ inverse
        jacobian /= total
        freq_cov = (np.diag(rho) - np.outer(rho, rho)) / float(shots)
        covariance += jacobian @ freq_cov @ jacobian.T

    if sigma_eta > 0.0:
        eta = tmd.efficiency
        hi = min(1.0, eta + EFFICIENCY_FD_STEP)
        lo = max(0.0, eta - EFFICIENCY_FD_STEP)
        if lo <= 0.0:
            raise ConditioningError("efficiency too small for a finite-difference sensitivity")
        p_hi, _ = _direct([_stages(tmd.with_efficiency(hi))], rho)
        p_lo, _ = _direct([_stages(tmd.with_efficiency(lo))], rho)
        sensitivity = (p_hi - p_lo) / (hi - lo)
        covariance += sigma_eta**2 * np.outer(sensitivity, sensitivity)

    return (covariance + covariance.T) / 2.0
