"""Loss-tolerant reconstruction of photon statistics from click data.

The click model is linear, rho = C L(eta) p, so reconstruction is a
least-squares inversion of the composite response.  For the default
square system (n_max equal to the bin count) the two stages are
triangular and are solved by back-substitution, which stays accurate
at low efficiency where an SVD pseudo-inverse of the composite
collapses.  For users who prefer a physical estimate over an unbiased
one, the constrained estimate is the multinomial maximum-likelihood
distribution, returned only with a duality-gap certificate.

Error bars of the direct estimate need no second inversion: loss stages
compose, L(a) L(b) = L(ab), so the estimate's sensitivity to the
calibrated efficiency is a closed form in the estimate itself.

A joint signal-idler click matrix is the same problem with one detector
per axis (signal rows, idler columns), so single-arm and joint data go
through one inverse; the two arms may differ in bins and efficiency.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .detector import TMDConfig, _along_axes
from .errors import (
    ConditioningError,
    DegenerateConditionError,
    DomainError,
    NumericalError,
    TruncationError,
)
from .stats import ClickStatistics, JointPhotonDistribution, PhotonDistribution
from .stats import _count, _non_negative, _uncertainty


@dataclass(frozen=True)
class CalibrationRecord:
    """Klyshko efficiency estimate for one arm."""

    eta: float
    eta_uncertainty: float | None
    coincidences: float
    singles: float


# The maximum-likelihood estimate is returned once its duality gap, a bound on
# how far its log-likelihood per shot lies below the maximum, is at most
# MLE_GAP; one that needs more than MLE_MAX_STEPS Newton steps raises.
MLE_GAP = 1e-10
MLE_MAX_STEPS = 100
# interior-point centring after a step that was cut short and after a full
# one, and the share of the way to the boundary a step may go
_CENTRING = 0.1
_CENTRING_AFTER_FULL_STEP = 0.01
_TO_BOUNDARY = 0.99


@dataclass(frozen=True)
class ReconstructionResult:
    """Reconstructed distribution and the norm of its click-space residual.

    A constrained estimate also carries its duality gap and the Newton
    steps it took (0 when the clipped direct inverse was certified).
    """

    dist: PhotonDistribution | JointPhotonDistribution
    residual: float
    duality_gap: float | None = None
    newton_steps: int | None = None


def klyshko_efficiency(coincidences: float, singles: float) -> CalibrationRecord:
    """Arm efficiency as the coincidence-to-singles ratio.

    ``singles`` are counted on the opposite arm, so the ratio estimates
    the detection efficiency of the arm the coincidences were gated on.
    When both arguments are integer counts, a binomial standard error is
    attached; for rates the uncertainty is left unset.
    """
    _non_negative(coincidences, "coincidences")
    if _non_negative(singles, "singles") == 0.0:
        raise DegenerateConditionError("singles rate must be positive")
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
    return tmd._model[:2]


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


def _step_length(shrink: float) -> float:
    """Longest step, at most 1, that keeps every entry positive with room to spare.

    ``shrink`` is the smallest ratio of an entry's change to the entry.
    """
    return 1.0 if shrink >= -_TO_BOUNDARY else -_TO_BOUNDARY / float(shrink)


def _mle(composite: np.ndarray, freq: np.ndarray, direct: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Maximum-likelihood law over the simplex, its duality gap and its Newton steps.

    Maximizes l(p) = sum f log(A p) over p >= 0, sum p = 1.  l is concave
    and p . g = 1 for g = A^T (f / A p), so l(p*) - l(p) <= max g - 1 at
    any feasible p: the solver stops once that gap is at most MLE_GAP,
    and raises rather than return an estimate it could not certify.
    Cells without clicks drop out of l, and so do cells no photon number
    up to the cutoff can produce (more clicks than photons), the rest
    renormalized.  The clipped direct inverse is returned as it is when
    it certifies, as it does on exact laws.  Otherwise it starts a
    primal-dual interior-point method (duals z, multiplier lam of the
    sum) on the bordered Newton system [H + Z/P, 1; 1^T, 0], with
    H = A^T diag(f / q^2) A and q = A p.
    """
    keep = freq > 0.0
    if composite.shape[0] > composite.shape[1]:
        # a tall composite has rows past the cutoff, which are all zero
        keep &= composite.any(axis=1)
    composite, freq = composite[keep], freq[keep]
    freq = freq / freq.sum()
    probs = np.maximum(direct, 0.0)
    total = float(probs.sum())
    if math.isfinite(total):
        probs /= total
    else:
        # a direct inverse that overflowed says nothing: start from the uniform law
        probs = np.full(probs.size, 1.0 / probs.size)
    if (composite @ probs).min() > 0.0:
        gap = float(((freq / (composite @ probs)) @ composite).max()) - 1.0
        if gap <= MLE_GAP:
            return probs, gap, 0
    # start strictly inside: 1 % of the uniform law mixed in, duals from the gradient
    size = probs.size
    probs = 0.99 * probs + 0.01 / size
    dual = np.maximum(1.0 - (freq / (composite @ probs)) @ composite, 1e-3)
    multiplier, centring = 1.0, _CENTRING
    # the bordered system, its right-hand side and the weighted rows, built once
    system = np.zeros((size + 1, size + 1))
    system[size, :size] = system[:size, size] = 1.0
    hessian, diagonal = system[:size, :size], system.reshape(-1)[: size * (size + 2) : size + 2]
    rhs = np.zeros(size + 1)
    top = rhs[:size]
    transposed = composite.T.copy()
    weighted = np.empty_like(transposed)
    for steps in range(MLE_MAX_STEPS + 1):
        # a step keeps the sum up to rounding; the certificate is for a law
        probs /= probs.sum()
        # .dot, not @: these small products are dominated by call overhead
        clicks = composite.dot(probs)
        ratio = freq / clicks
        gradient = ratio.dot(composite)
        gap = float(gradient.max()) - 1.0
        if gap <= MLE_GAP:
            return probs, gap, steps
        if steps == MLE_MAX_STEPS:
            break
        ratio /= clicks
        np.multiply(transposed, ratio, out=weighted)
        np.matmul(weighted, composite, out=hessian)
        inverse = 1.0 / probs
        scaled = dual * inverse
        diagonal += scaled
        # perturbed complementarity: p z moves towards a share of its mean
        centre = (centring * float(probs.dot(dual)) / size) * inverse
        np.subtract(gradient, multiplier, out=top)
        top += centre
        step = np.linalg.solve(system, rhs)
        dprobs = step[:size]
        ddual = centre - dual - scaled * dprobs
        primal = _step_length((dprobs * inverse).min())
        dual_step = _step_length((ddual / dual).min())
        centring = _CENTRING_AFTER_FULL_STEP if primal == dual_step == 1.0 else _CENTRING
        probs += primal * dprobs
        dual += dual_step * ddual
        multiplier += dual_step * float(step[size])
    raise NumericalError(
        f"maximum-likelihood estimate not certified within {MLE_MAX_STEPS} Newton steps "
        f"(duality gap {gap!r} above {MLE_GAP!r})"
    )


ClickInput = ClickStatistics | PhotonDistribution | np.ndarray


def _click_frequencies(tmds: tuple[TMDConfig, ...], clicks) -> tuple[np.ndarray, int | None]:
    """Click frequencies, one axis per detector, plus the shot count when one exists.

    Exact click distributions (from the forward model or the
    infinite-data limit) carry no shot count and hence no counting
    noise.  Neither does a bare array, so raw counts and frequencies
    alike are scaled to sum to one.
    """
    if isinstance(clicks, ClickStatistics):
        rho, shots = clicks.frequencies, clicks.total_shots
    elif isinstance(clicks, (PhotonDistribution, JointPhotonDistribution)):
        rho, shots = clicks.probs, None
    else:
        rho, shots = np.asarray(clicks, dtype=float), None
        total = float(rho.sum())
        if not total > 0.0:
            raise DomainError(f"click array sums to {total!r}; expected a positive total")
        rho = rho / total
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
    probs, _ = _direct(stages, rho)
    gap = steps = None
    if constrained:
        # the composite of independent axes is their Kronecker product
        flat, gap, steps = _mle(functools.reduce(np.kron, composites), rho.ravel(), probs.ravel())
        probs = flat.reshape(probs.shape)
    residual = float(np.linalg.norm(_along_axes(composites, probs) - rho))
    dist_type = PhotonDistribution if probs.ndim == 1 else JointPhotonDistribution
    return ReconstructionResult(dist_type(probs), residual, gap, steps)


def invert_single(
    tmd: TMDConfig, clicks: ClickInput, constrained: bool = False
) -> ReconstructionResult:
    """Reconstruct a photon-number distribution from one detector's clicks.

    The direct method is the unbiased least-squares inverse followed by
    renormalization; ``constrained`` switches to the maximum-likelihood
    distribution, non-negative and normalized, certified to a duality gap
    of ``MLE_GAP`` (see :class:`ReconstructionResult`).  Error bars of the
    direct estimate, from counting noise and calibration uncertainty, come
    from :func:`propagate_errors`.
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
    inverse, and the calibration term (sigma_eta / eta)^2 (G p)(G p)^T,
    where p is the estimate and (G p)_n = n p_n - (n+1) p_{n+1}.  The
    calibration term is the exact first-order sensitivity to the
    efficiency, for square and rectangular detectors alike, and holds for
    any efficiency above zero.  ``clicks`` may be raw statistics (shot
    count taken from them, so ``shots`` must be unset) or an exact click
    distribution, in which case ``shots`` sets the counting term; leaving
    it unset models the infinite-data limit where only the efficiency
    term survives.

    Args:
        tmd: detector model used for the inversion.
        clicks: click histogram or exact click frequency vector.
        sigma_eta: one-sigma uncertainty of the detector efficiency, in [0, 1).
        shots: shot count (a positive integer) for the counting term when ``clicks`` is exact.

    Returns:
        Symmetric positive semi-definite covariance matrix over the
        reconstructed probabilities.
    """
    _uncertainty(sigma_eta, "sigma_eta")
    conv, loss = _stages(tmd)
    rho, counted = _click_frequencies((tmd,), clicks)
    if shots is not None:
        if counted is not None:
            raise DomainError("shots is for exact clicks; a ClickStatistics carries its own count")
        counted = _count(shots, "shots", 1)

    probs, total = _direct([(conv, loss)], rho)
    size = probs.size
    covariance = np.zeros((size, size))

    if counted is not None:
        # d(normalized p)/d(rho), renormalization projects out total-mass shifts
        inverse = _solve_stages(conv, loss, np.eye(rho.size))
        jacobian = (np.eye(size) - np.outer(probs, np.ones(size))) @ inverse
        jacobian /= total
        freq_cov = (np.diag(rho) - np.outer(rho, rho)) / float(counted)
        covariance += jacobian @ freq_cov @ jacobian.T

    if sigma_eta > 0.0:
        # loss stages compose, L(a) L(b) = L(ab), so dL/deta = G L / eta where
        # (G p)_n = n p_n - (n+1) p_{n+1} commutes with L; the least-squares
        # step before L^-1 does not depend on eta, so the estimate moves by
        # -G p / eta, whose entries sum to zero and leave the total unchanged
        flux = np.arange(size) * probs
        sensitivity = (np.append(flux[1:], 0.0) - flux) / tmd.efficiency
        covariance += sigma_eta**2 * np.outer(sensitivity, sensitivity)

    return (covariance + covariance.T) / 2.0
