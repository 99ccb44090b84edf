"""Photon-number distributions and the statistics derived from them.

Distributions are plain probability vectors (or matrices for two-arm
joints) indexed by photon number starting at 0.  Reconstruction can
produce slightly negative entries, so the types tolerate small
negativity and expose a physicality predicate instead of rejecting it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DegenerateConditionError, DomainError, NumericalError

NORMALIZATION_ATOL = 1e-9
# Absolute negativity tolerated in reconstructed distributions before
# they are flagged non-physical.
NEGATIVITY_TOL = 1e-3

GOLDEN_MAX_ITER = 200
GOLDEN_XTOL = 1e-9
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _freeze(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class _Distribution:
    """Read-only, normalized probability array with one photon-number axis per arm."""

    probs: np.ndarray

    # axis count and the wording of validation errors, set by each subclass
    _ndim: ClassVar[int]
    _what: ClassVar[str]

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != self._ndim or probs.size == 0:
            form = "vector" if self._ndim == 1 else "matrix"
            raise DomainError(f"{self._what} must be a non-empty {self._ndim}-d {form}")
        if not np.all(np.isfinite(probs)):
            raise DomainError(f"{self._what} contains non-finite entries")
        total = float(probs.sum())
        if abs(total - 1.0) > NORMALIZATION_ATOL:
            raise DomainError(
                f"{self._what} sums to {total!r}, expected 1 within {NORMALIZATION_ATOL}"
            )
        object.__setattr__(self, "probs", _freeze(probs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return bool(np.array_equal(self.probs, other.probs))

    @property
    def is_physical(self) -> bool:
        return bool(self.probs.min() >= -NEGATIVITY_TOL)


class PhotonDistribution(_Distribution):
    """Probability vector over photon (or click) number 0..n_max."""

    _ndim, _what = 1, "distribution"

    @property
    def n_max(self) -> int:
        return self.probs.size - 1

    @property
    def mean(self) -> float:
        return moment(self, 1)


class JointPhotonDistribution(_Distribution):
    """Joint probability matrix, axis 0 = signal number, axis 1 = idler number."""

    _ndim, _what = 2, "joint distribution"

    @property
    def n_max_signal(self) -> int:
        return self.probs.shape[0] - 1

    @property
    def n_max_idler(self) -> int:
        return self.probs.shape[1] - 1


@dataclass(frozen=True, eq=False)
class ClickStatistics:
    """Histogram of click outcomes over a finite number of shots.

    ``counts`` is a vector indexed by click number for a single
    detector, or a matrix indexed by (signal clicks, idler clicks) for a
    pair of detectors.
    """

    counts: np.ndarray
    total_shots: int

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClickStatistics):
            return NotImplemented
        return self.total_shots == other.total_shots and bool(
            np.array_equal(self.counts, other.counts)
        )

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.ndim not in (1, 2) or counts.size == 0:
            raise DomainError("click counts must be a 1-d or 2-d array")
        if not np.issubdtype(counts.dtype, np.integer):
            if not np.all(counts == np.floor(counts)):
                raise DomainError("click counts must be integers")
            counts = counts.astype(np.int64)
        if counts.min() < 0:
            raise DomainError("click counts must be non-negative")
        total = int(self.total_shots)
        if total <= 0:
            raise DomainError("total_shots must be positive")
        if int(counts.sum()) != total:
            raise DomainError(
                f"click counts sum to {int(counts.sum())}, expected total_shots={total}"
            )
        counts = np.array(counts, dtype=np.int64, copy=True)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total_shots", total)

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / float(self.total_shots)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a one-parameter family fit to a distribution."""

    family: str
    mean: float
    residual_l2: float
    per_bin_deviation: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_bin_deviation", _freeze(self.per_bin_deviation))


def default_n_max(mean: float) -> int:
    """Truncation that keeps even thermal tails negligible for the given mean."""
    if mean < 0:
        raise DomainError("mean must be non-negative")
    return max(10, math.ceil(mean + 15.0 * math.sqrt(mean * (1.0 + mean))))


def moment(dist: PhotonDistribution, order: int) -> float:
    """m-th raw moment sum(n^m p_n); order 0 returns the total probability."""
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise DomainError("moment order must be a non-negative integer")
    n = np.arange(dist.probs.size, dtype=float)
    return float(np.power(n, order) @ dist.probs)


def marginals(joint: JointPhotonDistribution) -> tuple[PhotonDistribution, PhotonDistribution]:
    """Signal and idler marginal distributions of a joint."""
    signal = joint.probs.sum(axis=1)
    idler = joint.probs.sum(axis=0)
    return PhotonDistribution(signal), PhotonDistribution(idler)


def conditional(
    joint: JointPhotonDistribution, herald_arm: str, herald_value: int
) -> PhotonDistribution:
    """Distribution of one arm given an exact photon number on the other.

    ``herald_arm`` names the arm being conditioned on ("signal" or
    "idler"); the returned distribution describes the opposite arm.
    """
    if herald_arm not in ("signal", "idler"):
        raise DomainError(f"herald_arm must be 'signal' or 'idler', got {herald_arm!r}")
    # the herald's axis first
    probs = joint.probs if herald_arm == "signal" else joint.probs.T
    if not 0 <= herald_value < probs.shape[0]:
        raise DomainError(f"herald value {herald_value} outside 0..{probs.shape[0] - 1}")
    slice_ = probs[herald_value]
    total = float(slice_.sum())
    if total <= 0.0:
        raise DegenerateConditionError(
            f"herald {herald_arm}={herald_value} has non-positive probability {total!r}"
        )
    return PhotonDistribution(slice_ / total)


def combine_collective(joint: JointPhotonDistribution) -> PhotonDistribution:
    """Distribution of the total photon number n_signal + n_idler."""
    ns, ni = joint.probs.shape
    idx = (np.arange(ns)[:, None] + np.arange(ni)[None, :]).ravel()
    q = np.bincount(idx, weights=joint.probs.ravel(), minlength=ns + ni - 1)
    return PhotonDistribution(q)


def _joint_moments(joint: JointPhotonDistribution):
    p = joint.probs
    n = np.arange(p.shape[0], dtype=float)
    m = np.arange(p.shape[1], dtype=float)
    pn = p.sum(axis=1)
    pm = p.sum(axis=0)
    mean_n = float(n @ pn)
    mean_m = float(m @ pm)
    var_n = float((n * n) @ pn) - mean_n**2
    var_m = float((m * m) @ pm) - mean_m**2
    cov = float(n @ p @ m) - mean_n * mean_m
    return mean_n, mean_m, var_n, var_m, cov


def correlation(joint: JointPhotonDistribution) -> float:
    """Pearson correlation coefficient of the two photon numbers."""
    _, _, var_n, var_m, cov = _joint_moments(joint)
    if var_n <= 0.0 or var_m <= 0.0:
        raise DegenerateConditionError(
            f"correlation undefined: variances ({var_n!r}, {var_m!r}) must be positive"
        )
    return cov / math.sqrt(var_n * var_m)


def number_squeezing_db(joint: JointPhotonDistribution) -> float:
    """Variance of the photon-number difference relative to the shot-noise level, in dB.

    Returns ``-inf`` when the difference variance is zero (or estimated
    below zero by a noisy reconstruction), i.e. squeezing below any
    measurable floor.
    """
    mean_n, mean_m, var_n, var_m, cov = _joint_moments(joint)
    if mean_n <= 0.0 or mean_m <= 0.0:
        raise DegenerateConditionError("squeezing undefined for zero mean photon number")
    var_diff = var_n + var_m - 2.0 * cov
    if var_diff <= 0.0:
        return float("-inf")
    return 10.0 * math.log10(var_diff / (mean_n * mean_m))


def thermal_probs(mean: float, n_max: int) -> np.ndarray:
    """Truncated, renormalized thermal (geometric) probability vector."""
    if mean < 0:
        raise DomainError("thermal mean must be non-negative")
    if n_max < 0:
        raise DomainError("n_max must be non-negative")
    n = np.arange(n_max + 1, dtype=float)
    if mean == 0.0:
        p = (n == 0).astype(float)
    else:
        # exp form avoids overflow for large means
        p = np.exp(n * math.log(mean) - (n + 1.0) * math.log1p(mean))
    return p / p.sum()


def poisson_probs(mean: float, n_max: int) -> np.ndarray:
    """Truncated, renormalized Poissonian probability vector."""
    return negative_binomial_probs(mean, n_max)


def negative_binomial_probs(mean: float, n_max: int, modes: float = math.inf) -> np.ndarray:
    """Negative binomial: photon number of ``modes`` identical thermal modes, renormalized.

    Built in log space from p(n)/p(n-1) = (n + modes - 1) / (modes + mean)
    * mean / n; infinitely many modes give the Poissonian, mean / n.
    """
    if mean < 0:
        raise DomainError("mean must be non-negative")
    if n_max < 0:
        raise DomainError("n_max must be non-negative")
    if mean == 0.0:
        return (np.arange(n_max + 1) == 0).astype(float)
    n = np.arange(1, n_max + 1, dtype=float)
    ratio = mean / n
    if not math.isinf(modes):
        ratio *= (n + (modes - 1.0)) / (modes + mean)
    log_p = np.concatenate([[0.0], np.cumsum(np.log(ratio))])
    # shift by the largest term so large means do not overflow
    p = np.exp(log_p - log_p.max())
    return p / p.sum()


def _golden_minimize(objective, lo: float, hi: float) -> float:
    """Golden-section search for the minimizer of a unimodal objective."""
    a, b = float(lo), float(hi)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = objective(c), objective(d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    for _ in range(GOLDEN_MAX_ITER):
        if b - a <= GOLDEN_XTOL:
            return best_x
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = objective(c)
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = objective(d)
            if fd < best_f:
                best_x, best_f = d, fd
    raise NumericalError(
        f"1-d fit search did not converge within {GOLDEN_MAX_ITER} iterations "
        f"(bracket [{a!r}, {b!r}])"
    )


def _fit_family(dist: PhotonDistribution, family, name: str) -> FitResult:
    target = dist.probs
    n_max = dist.n_max

    def objective(mu: float) -> float:
        return float(np.linalg.norm(target - family(mu, n_max)))

    hi = max(1.0, 3.0 * max(moment(dist, 1), 0.0) + 1.0)
    for _ in range(8):
        best = _golden_minimize(objective, 0.0, hi)
        if hi - best > 1e-6 * hi:
            break
        hi *= 4.0  # minimizer pinned at the bracket edge, widen and retry
    else:
        raise NumericalError(f"{name} fit mean kept escaping the search bracket (hi={hi!r})")
    model = family(best, n_max)
    return FitResult(
        family=name,
        mean=best,
        residual_l2=objective(best),
        per_bin_deviation=target - model,
    )


def fit_poisson(dist: PhotonDistribution) -> FitResult:
    """Least-squares fit of a truncated Poissonian, searching over its mean."""
    return _fit_family(dist, poisson_probs, "poisson")


def fit_thermal(dist: PhotonDistribution) -> FitResult:
    """Least-squares fit of a truncated thermal distribution, searching over its mean."""
    return _fit_family(dist, thermal_probs, "thermal")
