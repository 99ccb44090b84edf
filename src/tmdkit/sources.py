"""Photon-pair sources and reference photon-number distributions.

A twin-beam source emits perfectly correlated pairs, so it is fully
described by its pair-number distribution; the joint state is diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector import MAX_PHOTONS
from .errors import DomainError
from .stats import (
    JointPhotonDistribution,
    PhotonDistribution,
    _count,
    _non_negative,
    default_n_max,
    negative_binomial_probs,
    poisson_probs,
    thermal_probs,
)


def thermal_dist(mean: float, n_max: int | None = None) -> PhotonDistribution:
    """Thermal (single-mode chaotic) photon-number distribution."""
    if n_max is None:
        n_max = default_n_max(mean)
    return PhotonDistribution(thermal_probs(mean, n_max))


def poisson_dist(mean: float, n_max: int | None = None) -> PhotonDistribution:
    """Poissonian (coherent-state) photon-number distribution."""
    if n_max is None:
        n_max = default_n_max(mean)
    return PhotonDistribution(poisson_probs(mean, n_max))


def fock_dist(n: int, n_max: int | None = None) -> PhotonDistribution:
    """Definite photon number n."""
    n = _count(n, "photons", 0)
    n_max = max(n, 1) if n_max is None else _count(n_max, "n_max", 0)
    if n > n_max:
        raise DomainError(f"photons {n} exceeds n_max={n_max}")
    probs = np.zeros(n_max + 1)
    probs[n] = 1.0
    return PhotonDistribution(probs)


def convolve(a: PhotonDistribution, b: PhotonDistribution) -> PhotonDistribution:
    """Distribution of the sum of two independent photon numbers."""
    return PhotonDistribution(np.convolve(a.probs, b.probs))


def multimode_pair_dist(modes: int, total_mean: float, n_max: int | None = None) -> PhotonDistribution:
    """Total pair number of M identical thermal modes (negative binomial).

    Each mode is thermal with mean total_mean / M; their sum follows a
    negative binomial law that approaches a Poissonian as M grows.
    """
    modes = _count(modes, "modes", 1)
    if n_max is None:
        n_max = default_n_max(total_mean)
    return PhotonDistribution(negative_binomial_probs(total_mean, n_max, modes))


def twin_beam_joint(pair_dist: PhotonDistribution) -> JointPhotonDistribution:
    """Diagonal joint distribution of a photon-number-correlated twin beam."""
    if pair_dist.probs.min() < 0.0:
        raise DomainError("pair distribution must be non-negative")
    return JointPhotonDistribution(np.diag(pair_dist.probs))


def _cutoff(n_max: object) -> int | None:
    """A named source's given pair cutoff, checked; None means not given."""
    return None if n_max is None else _count(n_max, "n_max", 0, MAX_PHOTONS)


def _mean_and_cutoff(mean: object, n_max: object) -> tuple[float, int]:
    """A named source's mean and the pair cutoff it builds, checked before anything is built."""
    mean = _non_negative(mean, "mean")
    if n_max is not None:
        return mean, _cutoff(n_max)
    # a mean past MAX_PHOTONS implies a longer cutoff, even one default_n_max cannot compute
    if mean > MAX_PHOTONS or default_n_max(mean) > MAX_PHOTONS:
        raise DomainError(f"mean {mean!r} implies an n_max above {MAX_PHOTONS}")
    return mean, default_n_max(mean)


@dataclass(frozen=True)
class SourceModel:
    """Twin-beam source described by its pair-number distribution.

    The named constructors record their parameters (``mean``, ``modes``,
    ``photons``) so a source built from a config can be serialized back
    to the same config.  They apply the config-file rules to those
    parameters and ``n_max``, in its wording, so such a source's pair
    number stops at ``MAX_PHOTONS``.  A source without them (``custom``)
    may run longer, since it serializes as its pair distribution.
    """

    pair_dist: PhotonDistribution
    label: str
    mean: float | None = None
    modes: int | None = None
    photons: int | None = None

    def __post_init__(self) -> None:
        if self.pair_dist.probs.min() < 0.0:
            raise DomainError("pair distribution must be non-negative")
        recorded = (self.mean, self.modes, self.photons) != (None, None, None)
        if recorded and self.pair_dist.n_max > MAX_PHOTONS:
            raise DomainError(f"pair cutoff {self.pair_dist.n_max} exceeds MAX_PHOTONS={MAX_PHOTONS}")

    @property
    def joint(self) -> JointPhotonDistribution:
        return twin_beam_joint(self.pair_dist)

    @classmethod
    def single_mode_squeezer(cls, mean: float, n_max: int | None = None) -> "SourceModel":
        """Single-mode parametric source: thermal pair statistics."""
        mean, n_max = _mean_and_cutoff(mean, n_max)
        return cls(thermal_dist(mean, n_max), "thermal", mean=mean)

    @classmethod
    def multimode_pdc(cls, modes: int, total_mean: float, n_max: int | None = None) -> "SourceModel":
        """Multimode parametric source: negative-binomial pair statistics."""
        modes = _count(modes, "modes", 1)
        mean, n_max = _mean_and_cutoff(total_mean, n_max)
        return cls(multimode_pair_dist(modes, mean, n_max), "multimode", mean=mean, modes=modes)

    @classmethod
    def poissonian_pairs(cls, mean: float, n_max: int | None = None) -> "SourceModel":
        """Pair statistics of many weak independent modes."""
        mean, n_max = _mean_and_cutoff(mean, n_max)
        return cls(poisson_dist(mean, n_max), "poisson", mean=mean)

    @classmethod
    def fock_pairs(cls, n: int, n_max: int | None = None) -> "SourceModel":
        """Exactly n pairs per shot."""
        n = _count(n, "photons", 0, MAX_PHOTONS)
        return cls(fock_dist(n, _cutoff(n_max)), "fock", photons=n)
