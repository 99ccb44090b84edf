"""Loss-tolerant reconstruction of photon statistics from click data.

The click model is linear, rho = C L(eta) p, so reconstruction is a
least-squares inversion of the composite response.  For the default
square system (n_max equal to the bin count) the two stages are
triangular and are solved by back-substitution, which stays accurate
even when the composite condition number is astronomically large at low
efficiency.  An optional non-negativity-constrained solver is available
for users who prefer a physical estimate over an unbiased one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import TMDConfig, convolution_matrix, loss_matrix
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


def _check_invertible(tmd: TMDConfig) -> None:
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


def _stages(tmd: TMDConfig) -> tuple[np.ndarray, np.ndarray]:
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


def _constrained_solve(composite: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Non-negative least squares with a normalization row, renormalized."""
    # imported here so that only the constrained path loads the optimizer
    from scipy.optimize import nnls

    augmented = np.vstack([composite, np.ones((1, composite.shape[1]))])
    solution, _ = nnls(augmented, np.append(rho, 1.0))
    probs, _ = _renormalized(solution)
    return probs


ClickInput = ClickStatistics | PhotonDistribution | np.ndarray


def _click_frequencies(tmd: TMDConfig, clicks: ClickInput) -> tuple[np.ndarray, int | None]:
    """Click frequency vector plus the shot count when one exists.

    Exact click distributions (from the forward model or the
    infinite-data limit) carry no shot count and hence no counting
    noise.
    """
    if isinstance(clicks, ClickStatistics):
        rho = clicks.frequencies
        shots = clicks.total_shots
    elif isinstance(clicks, PhotonDistribution):
        rho, shots = clicks.probs, None
    else:
        rho, shots = np.asarray(clicks, dtype=float), None
    if rho.ndim != 1:
        raise DomainError("expected a 1-d click histogram")
    if rho.size != tmd.bins + 1:
        raise DomainError(
            f"click histogram has {rho.size} entries, "
            f"expected {tmd.bins + 1} for a {tmd.bins}-bin detector"
        )
    return rho, shots


def _renormalized(raw: np.ndarray) -> tuple[np.ndarray, float]:
    total = float(raw.sum())
    if total <= 0.0:
        raise ConditioningError(f"reconstructed probability mass {total!r} is non-positive")
    return raw / total, total


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
    _check_invertible(tmd)
    rho, _ = _click_frequencies(tmd, clicks)
    conv, loss = _stages(tmd)
    composite = conv @ loss
    condition = float(np.linalg.cond(composite))
    if constrained:
        probs = _constrained_solve(composite, rho)
        method = "constrained"
    else:
        probs, _ = _renormalized(_solve_stages(conv, loss, rho))
        method = "direct"
    residual = float(np.linalg.norm(composite @ probs - rho))
    return ReconstructionResult(PhotonDistribution(probs), condition, residual, method)


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
    _check_invertible(tmd_signal)
    _check_invertible(tmd_idler)
    if isinstance(clicks, ClickStatistics):
        rho = clicks.frequencies
    elif isinstance(clicks, JointPhotonDistribution):
        rho = clicks.probs
    else:
        rho = np.asarray(clicks, dtype=float)
    expected = (tmd_signal.bins + 1, tmd_idler.bins + 1)
    if rho.ndim != 2 or rho.shape != expected:
        raise DomainError(f"click matrix shape {rho.shape} does not match {expected}")
    conv_s, loss_s = _stages(tmd_signal)
    conv_i, loss_i = _stages(tmd_idler)
    composite_s = conv_s @ loss_s
    composite_i = conv_i @ loss_i
    condition = float(np.linalg.cond(composite_s) * np.linalg.cond(composite_i))
    if constrained:
        probs = _constrained_solve(np.kron(composite_s, composite_i), rho.ravel())
        probs = probs.reshape(tmd_signal.n_max + 1, tmd_idler.n_max + 1)
        method = "constrained"
    else:
        half = _solve_stages(conv_s, loss_s, rho)
        full = _solve_stages(conv_i, loss_i, half.T).T
        probs, _ = _renormalized(full)
        method = "direct"
    residual = float(np.linalg.norm(composite_s @ probs @ composite_i.T - rho))
    return ReconstructionResult(JointPhotonDistribution(probs), condition, residual, method)


def _normalized_solution(tmd: TMDConfig, rho: np.ndarray) -> np.ndarray:
    conv, loss = _stages(tmd)
    probs, _ = _renormalized(_solve_stages(conv, loss, rho))
    return probs


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
    _check_invertible(tmd)
    rho, counted = _click_frequencies(tmd, clicks)
    if shots is None:
        shots = counted

    conv, loss = _stages(tmd)
    raw = _solve_stages(conv, loss, rho)
    probs, total = _renormalized(raw)
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
        p_hi = _normalized_solution(tmd.with_efficiency(hi), rho)
        p_lo = _normalized_solution(tmd.with_efficiency(lo), rho)
        sensitivity = (p_hi - p_lo) / (hi - lo)
        covariance += sigma_eta**2 * np.outer(sensitivity, sensitivity)

    return (covariance + covariance.T) / 2.0
