"""Photon-number distributions and the statistics derived from them.

Distributions are plain probability vectors (or matrices for two-arm
joints) indexed by photon number starting at 0.  Reconstruction can
produce slightly negative entries, so the types tolerate small
negativity and expose a physicality predicate instead of rejecting it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DegenerateConditionError, DomainError, NumericalError

NORMALIZATION_ATOL = 1e-9
_EPS = float(np.finfo(float).eps)
# Absolute negativity tolerated in reconstructed distributions before
# they are flagged non-physical.
NEGATIVITY_TOL = 1e-3

# Integers become numpy sizes and indices, so a count is at most _INT64_MAX.
_INT64_MAX = int(np.iinfo(np.int64).max)

GOLDEN_MAX_ITER = 200
GOLDEN_XTOL = 1e-9
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _is_int(value: object) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value: object) -> bool:
    """True for a number a float holds; an integer too large for one is not."""
    if _is_int(value):
        return abs(value) <= sys.float_info.max
    return isinstance(value, (float, np.floating))


def _count(value: object, name: str, least: int, most: int = _INT64_MAX) -> int:
    """``value`` as an integer in [least, most], else DomainError naming ``name``; least is 0 or 1."""
    if not _is_int(value) or value < least:
        rule = "a positive" if least else "a non-negative"
        raise DomainError(f"{name} must be {rule} integer")
    if value > most:
        raise DomainError(f"{name} must be at most {most}")
    return int(value)


# Like _count, each checker states one numeric rule of the config file in its words, for
# the config types and the public functions alike, and returns the value as a float.  A
# function that computes with the number as given calls it for the check alone.
def _non_negative(value: object, name: str) -> float:
    if not _is_real(value) or not 0.0 <= value < math.inf:
        raise DomainError(f"{name} must be a finite non-negative number")
    return float(value)


def _efficiency(value: object) -> float:
    if not _is_real(value):
        raise DomainError("efficiency must be a number")
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"efficiency {value!r} outside [0, 1]")
    return value


def _uncertainty(value: object, name: str) -> float:
    if not _is_real(value) or not 0.0 <= value < 1.0:
        raise DomainError(f"{name} must lie in [0, 1)")
    return float(value)


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
        # every partial sum is at most sum|p|, so no sum of entries this small
        # overflows; a nan or infinite entry fails the bound too
        magnitudes = np.abs(probs)
        largest = float(magnitudes.max())
        if not largest <= sys.float_info.max / (2 * probs.size):
            if not math.isfinite(largest):
                raise DomainError(f"{self._what} contains non-finite entries")
            raise DomainError(f"{self._what} has an entry of magnitude {largest!r}, too large to sum")
        total = float(probs.sum())
        # a renormalized estimate with huge entries of both signs misses 1 by
        # the rounding of its own sum, about eps * size * sum|p|, not by more
        tolerance = NORMALIZATION_ATOL + _EPS * probs.size * float(magnitudes.sum())
        if abs(total - 1.0) > tolerance:
            raise DomainError(f"{self._what} sums to {total!r}, expected 1 within {tolerance!r}")
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
        total = _count(self.total_shots, "total_shots", 1)
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
    _non_negative(mean, "mean")
    tail = mean + 15.0 * math.sqrt(mean * (1.0 + mean))
    if not math.isfinite(tail):
        raise DomainError(f"mean {mean!r} implies no finite photon-number cutoff")
    return max(10, math.ceil(tail))


def moment(dist: PhotonDistribution, order: int) -> float:
    """m-th raw moment sum(n^m p_n); order 0 returns the total probability."""
    _count(order, "order", 0)
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
    herald_value = _count(herald_value, "herald_value", 0, probs.shape[0] - 1)
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


def _thermal_pmf(n_max: int):
    """Truncated thermal law at any mean, written over one vector that each call returns.

    The photon-number grids and the vector are built once, so a fit that
    evaluates the law at many means allocates nothing per mean.
    """
    n = np.arange(n_max + 1, dtype=float)
    shifted = n + 1.0
    scratch, out = np.empty_like(n), np.empty_like(n)

    def pmf(mean: float) -> np.ndarray:
        if mean == 0.0:
            out.fill(0.0)
            out[0] = 1.0
            return out
        # exp form avoids overflow for large means:
        # exp(n log(mean) - (n + 1) log1p(mean))
        np.multiply(n, math.log(mean), out=out)
        np.multiply(shifted, math.log1p(mean), out=scratch)
        np.subtract(out, scratch, out=out)
        np.exp(out, out=out)
        return np.divide(out, np.add.reduce(out), out=out)

    return pmf


def _negative_binomial_pmf(n_max: int, modes: float = math.inf):
    """Truncated negative binomial law at any mean, written over one vector that each call returns.

    Built in log space from p(n)/p(n-1) = (n + modes - 1) / (modes + mean)
    * mean / n; infinitely many modes give the Poissonian, mean / n.  The
    grids and the vector are built once, as in :func:`_thermal_pmf`.
    """
    n = np.arange(1, n_max + 1, dtype=float)
    growth = None if math.isinf(modes) else n + (modes - 1.0)
    out = np.empty(n_max + 1)
    ratio, tail = np.empty(n_max), out[1:]

    def pmf(mean: float) -> np.ndarray:
        if mean == 0.0:
            out.fill(0.0)
            out[0] = 1.0
            return out
        np.divide(mean, n, out=ratio)
        if growth is not None:
            np.multiply(ratio, growth / (modes + mean), out=ratio)
        out[0] = 0.0
        np.log(ratio, out=tail)
        np.add.accumulate(tail, out=tail)
        # shift by the largest term so large means do not overflow
        np.subtract(out, np.maximum.reduce(out), out=out)
        np.exp(out, out=out)
        return np.divide(out, np.add.reduce(out), out=out)

    return pmf


def thermal_probs(mean: float, n_max: int) -> np.ndarray:
    """Truncated, renormalized thermal (geometric) probability vector."""
    _non_negative(mean, "mean")
    return _thermal_pmf(_count(n_max, "n_max", 0))(mean)


def poisson_probs(mean: float, n_max: int) -> np.ndarray:
    """Truncated, renormalized Poissonian probability vector."""
    return negative_binomial_probs(mean, n_max)


def negative_binomial_probs(mean: float, n_max: int, modes: float = math.inf) -> np.ndarray:
    """Negative binomial: photon number of ``modes`` identical thermal modes, renormalized."""
    _non_negative(mean, "mean")
    return _negative_binomial_pmf(_count(n_max, "n_max", 0), modes)(mean)


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
    # the family's law and the residual are written over the same two vectors at every mean
    pmf = family(dist.n_max)
    residual = np.empty_like(target)

    def objective(mu: float) -> float:
        # what np.linalg.norm computes for a float vector, without its overhead
        np.subtract(target, pmf(mu), out=residual)
        return math.sqrt(residual.dot(residual))

    hi = max(1.0, 3.0 * max(moment(dist, 1), 0.0) + 1.0)
    for _ in range(8):
        best = _golden_minimize(objective, 0.0, hi)
        if hi - best > 1e-6 * hi:
            break
        hi *= 4.0  # minimizer pinned at the bracket edge, widen and retry
    else:
        raise NumericalError(f"{name} fit mean kept escaping the search bracket (hi={hi!r})")
    return FitResult(family=name, mean=best, residual_l2=objective(best), per_bin_deviation=residual)


def fit_poisson(dist: PhotonDistribution) -> FitResult:
    """Least-squares fit of a truncated Poissonian, searching over its mean."""
    return _fit_family(dist, _negative_binomial_pmf, "poisson")


def fit_thermal(dist: PhotonDistribution) -> FitResult:
    """Least-squares fit of a truncated thermal distribution, searching over its mean."""
    return _fit_family(dist, _thermal_pmf, "thermal")
