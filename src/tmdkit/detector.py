"""Click response of a time-multiplexed detector (TMD).

A TMD splits the incoming pulse over K bins, each watched by a
threshold detector, so n photons produce between 1 and min(n, K)
clicks.  The response factorizes into a binomial loss stage followed by
a bin-occupation (convolution) stage; both stages are column-stochastic
matrices acting on probability vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .stats import JointPhotonDistribution, PhotonDistribution, combine_collective

# Subset enumeration is exponential in the bin count.
MAX_BINS = 20
BIN_PROB_ATOL = 1e-12
STOCHASTIC_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class TMDConfig:
    """Geometry and efficiency of one time-multiplexed detector.

    ``bin_probs`` holds the probability for a photon to land in each
    bin, ``efficiency`` the survival probability applied upstream of the
    bins, and ``n_max`` the photon-number cutoff the detector model is
    built for.
    """

    bin_probs: np.ndarray
    efficiency: float
    n_max: int

    def __post_init__(self) -> None:
        probs = np.asarray(self.bin_probs, dtype=float)
        if probs.ndim != 1 or probs.size < 1:
            raise DomainError("bin_probs must be a non-empty 1-d vector")
        if not np.all(np.isfinite(probs)) or probs.min() < 0.0:
            raise DomainError("bin probabilities must be finite and non-negative")
        if abs(probs.sum() - 1.0) > BIN_PROB_ATOL:
            raise DomainError(f"bin probabilities sum to {float(probs.sum())!r}, expected 1")
        eff = float(self.efficiency)
        if not 0.0 <= eff <= 1.0:
            raise DomainError(f"efficiency {eff!r} outside [0, 1]")
        n_max = int(self.n_max)
        if n_max < 0:
            raise DomainError("n_max must be non-negative")
        probs = np.array(probs, copy=True)
        probs.flags.writeable = False
        object.__setattr__(self, "bin_probs", probs)
        object.__setattr__(self, "efficiency", eff)
        object.__setattr__(self, "n_max", n_max)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TMDConfig):
            return NotImplemented
        return (
            self.efficiency == other.efficiency
            and self.n_max == other.n_max
            and bool(np.array_equal(self.bin_probs, other.bin_probs))
        )

    @property
    def bins(self) -> int:
        return self.bin_probs.size

    @classmethod
    def uniform(cls, bins: int = 8, efficiency: float = 1.0, n_max: int | None = None) -> "TMDConfig":
        """Detector with equally likely bins; n_max defaults to the bin count."""
        if bins < 1:
            raise DomainError("bins must be >= 1")
        if n_max is None:
            n_max = bins
        return cls(np.full(bins, 1.0 / bins), efficiency, n_max)

    def with_efficiency(self, efficiency: float) -> "TMDConfig":
        return TMDConfig(self.bin_probs, efficiency, self.n_max)


def _column_stochastic(entries: np.ndarray) -> np.ndarray:
    """Check a detector stage and return it clipped to [0, 1] and read-only.

    Entries must lie in [0, 1] and every column must sum to one, both up
    to STOCHASTIC_ATOL.
    """
    m = np.asarray(entries, dtype=float)
    if m.ndim != 2:
        raise DomainError("detector matrix must be 2-d")
    if m.min() < -STOCHASTIC_ATOL or m.max() > 1.0 + STOCHASTIC_ATOL:
        raise DomainError("detector matrix entries must lie in [0, 1]")
    col_err = np.abs(m.sum(axis=0) - 1.0).max()
    if col_err > STOCHASTIC_ATOL:
        raise DomainError(f"detector matrix columns deviate from stochasticity by {col_err!r}")
    m = np.clip(m, 0.0, 1.0)
    m.flags.writeable = False
    return m


def loss_matrix(efficiency: float, n_max: int) -> np.ndarray:
    """Binomial loss stage: entry (n, m) is P(n of m photons survive)."""
    if not 0.0 <= efficiency <= 1.0:
        raise DomainError(f"efficiency {efficiency!r} outside [0, 1]")
    if n_max < 0:
        raise DomainError("n_max must be non-negative")
    # Pascal's rule, one column per added photon (lost with weight 1 - eta,
    # kept with weight eta): exact zeros for n > m, exact rows at eta 0 and 1
    entries = np.zeros((n_max + 1, n_max + 1))
    entries[0, 0] = 1.0
    for m in range(1, n_max + 1):
        entries[:, m] = (1.0 - efficiency) * entries[:, m - 1]
        entries[1:, m] += efficiency * entries[:-1, m - 1]
    return _column_stochastic(entries)


@lru_cache(maxsize=128)
def _convolution_entries(bin_probs: tuple[float, ...], n_max: int) -> np.ndarray:
    K = len(bin_probs)
    probs = np.asarray(bin_probs, dtype=float)
    n_subsets = 1 << K
    masks = np.arange(n_subsets, dtype=np.uint32)
    sizes = np.bitwise_count(masks).astype(np.int64)
    subset_sum = np.zeros(n_subsets)
    for k in range(K):
        subset_sum += ((masks >> np.uint32(k)) & np.uint32(1)) * probs[k]

    # moments[t, n] = sum over bin subsets T of size t of (sum of probs in T)^n
    moments = np.empty((K + 1, n_max + 1))
    power = np.ones(n_subsets)
    for n in range(n_max + 1):
        moments[:, n] = np.bincount(sizes, weights=power, minlength=K + 1)
        power *= subset_sum

    # inclusion-exclusion over occupied-bin sets, grouped by subset size
    entries = np.zeros((K + 1, n_max + 1))
    for c in range(K + 1):
        for t in range(c + 1):
            weight = float(math.comb(K - t, c - t))
            entries[c] += (-1) ** (c - t) * weight * moments[t]
    # n photons cannot occupy more than n bins; the alternating sums above
    # leave roundoff residue where exact zeros are required
    entries[np.arange(K + 1)[:, None] > np.arange(n_max + 1)[None, :]] = 0.0
    entries.flags.writeable = False
    return entries


def convolution_matrix(bin_probs: np.ndarray, n_max: int) -> np.ndarray:
    """Bin-occupation stage: entry (c, n) is P(n photons occupy exactly c bins).

    Computed by inclusion-exclusion over subsets of bins, so the bin
    count is capped at MAX_BINS.
    """
    probs = np.asarray(bin_probs, dtype=float)
    if probs.ndim != 1 or probs.size < 1:
        raise DomainError("bin_probs must be a non-empty 1-d vector")
    if probs.size > MAX_BINS:
        raise DomainError(f"subset enumeration over {probs.size} bins exceeds MAX_BINS={MAX_BINS}")
    if not np.all(np.isfinite(probs)) or probs.min() < 0.0:
        raise DomainError("bin probabilities must be finite and non-negative")
    if abs(probs.sum() - 1.0) > BIN_PROB_ATOL:
        raise DomainError(f"bin probabilities sum to {probs.sum()!r}, expected 1")
    if n_max < 0:
        raise DomainError("n_max must be non-negative")
    entries = _convolution_entries(tuple(probs.tolist()), int(n_max))
    return _column_stochastic(entries)


def detector_response(tmd: TMDConfig) -> np.ndarray:
    """Composite click response: occupation matrix times loss matrix."""
    conv = convolution_matrix(tmd.bin_probs, tmd.n_max)
    loss = loss_matrix(tmd.efficiency, tmd.n_max)
    return _column_stochastic(conv @ loss)


def _padded(probs: np.ndarray, n_max: int, what: str) -> np.ndarray:
    if probs.size - 1 > n_max:
        raise DomainError(f"{what} extends to n={probs.size - 1}, beyond detector n_max={n_max}")
    if probs.size - 1 == n_max:
        return probs
    return np.pad(probs, (0, n_max - (probs.size - 1)))


def forward(tmd: TMDConfig, dist: PhotonDistribution) -> PhotonDistribution:
    """Click-number distribution produced by a photon-number distribution."""
    p = _padded(dist.probs, tmd.n_max, "input distribution")
    response = detector_response(tmd)
    return PhotonDistribution(response @ p)


def joint_forward(
    tmd_signal: TMDConfig, tmd_idler: TMDConfig, joint: JointPhotonDistribution
) -> JointPhotonDistribution:
    """Joint click distribution of two detectors viewing a two-arm state."""
    if joint.n_max_signal > tmd_signal.n_max:
        raise DomainError("joint signal axis extends beyond the signal detector n_max")
    if joint.n_max_idler > tmd_idler.n_max:
        raise DomainError("joint idler axis extends beyond the idler detector n_max")
    p = np.zeros((tmd_signal.n_max + 1, tmd_idler.n_max + 1))
    p[: joint.probs.shape[0], : joint.probs.shape[1]] = joint.probs
    a_signal = detector_response(tmd_signal)
    a_idler = detector_response(tmd_idler)
    return JointPhotonDistribution(a_signal @ p @ a_idler.T)


def collective_forward(
    tmd: TMDConfig,
    joint: JointPhotonDistribution,
    eta_signal: float,
    eta_idler: float,
) -> PhotonDistribution:
    """Click distribution when both arms feed one shared detector.

    Per-arm losses are applied first, the surviving photon numbers are
    summed, and the total enters the shared detector's bins.  The
    efficiency and n_max stored on ``tmd`` are ignored here: losses are
    per arm, and the occupation stage must cover the combined photon
    number.
    """
    loss_signal = loss_matrix(eta_signal, joint.n_max_signal)
    loss_idler = loss_matrix(eta_idler, joint.n_max_idler)
    surviving = JointPhotonDistribution(loss_signal @ joint.probs @ loss_idler.T)
    total = combine_collective(surviving)
    conv = convolution_matrix(tmd.bin_probs, total.n_max)
    return PhotonDistribution(conv @ total.probs)
