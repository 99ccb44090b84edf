"""Photon-pair sources and reference photon-number distributions.

A twin-beam source emits perfectly correlated pairs, so it is fully
described by its pair-number distribution; the joint state is diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .stats import (
    JointPhotonDistribution,
    PhotonDistribution,
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
    if n < 0:
        raise DomainError("Fock photon number must be non-negative")
    if n_max is None:
        n_max = max(n, 1)
    if n > n_max:
        raise DomainError(f"Fock photon number {n} exceeds n_max={n_max}")
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
    if not isinstance(modes, (int, np.integer)) or modes < 1:
        raise DomainError("modes must be a positive integer")
    if n_max is None:
        n_max = default_n_max(total_mean)
    return PhotonDistribution(negative_binomial_probs(total_mean, n_max, modes))


def twin_beam_joint(pair_dist: PhotonDistribution) -> JointPhotonDistribution:
    """Diagonal joint distribution of a photon-number-correlated twin beam."""
    if pair_dist.probs.min() < 0.0:
        raise DomainError("pair distribution must be non-negative")
    return JointPhotonDistribution(np.diag(pair_dist.probs))


@dataclass(frozen=True, eq=False)
class SourceModel:
    """Twin-beam source described by its pair-number distribution.

    The named constructors record their parameters (``mean``, ``modes``,
    ``photons``) so a source built from a config can be serialized back
    to the same config.
    """

    pair_dist: PhotonDistribution
    label: str
    mean: float | None = None
    modes: int | None = None
    photons: int | None = None

    def __post_init__(self) -> None:
        if self.pair_dist.probs.min() < 0.0:
            raise DomainError("pair distribution must be non-negative")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SourceModel):
            return NotImplemented
        return (
            self.label == other.label
            and self.mean == other.mean
            and self.modes == other.modes
            and self.photons == other.photons
            and self.pair_dist == other.pair_dist
        )

    @property
    def joint(self) -> JointPhotonDistribution:
        return twin_beam_joint(self.pair_dist)

    @classmethod
    def single_mode_squeezer(cls, mean: float, n_max: int | None = None) -> "SourceModel":
        """Single-mode parametric source: thermal pair statistics."""
        return cls(thermal_dist(mean, n_max), "thermal", mean=float(mean))

    @classmethod
    def multimode_pdc(cls, modes: int, total_mean: float, n_max: int | None = None) -> "SourceModel":
        """Multimode parametric source: negative-binomial pair statistics."""
        return cls(
            multimode_pair_dist(modes, total_mean, n_max),
            "multimode",
            mean=float(total_mean),
            modes=int(modes),
        )

    @classmethod
    def poissonian_pairs(cls, mean: float, n_max: int | None = None) -> "SourceModel":
        """Pair statistics of many weak independent modes."""
        return cls(poisson_dist(mean, n_max), "poisson", mean=float(mean))

    @classmethod
    def fock_pairs(cls, n: int, n_max: int | None = None) -> "SourceModel":
        """Exactly n pairs per shot."""
        return cls(fock_dist(n, n_max), "fock", photons=int(n))
