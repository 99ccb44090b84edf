"""Click response of a time-multiplexed detector (TMD).

A TMD splits the incoming pulse over K bins, each watched by a
threshold detector, so n photons produce between 1 and min(n, K)
clicks.  The response factorizes into a binomial loss stage followed by
a bin-occupation (convolution) stage; both stages are column-stochastic
matrices acting on probability vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .stats import (
    JointPhotonDistribution,
    PhotonDistribution,
    _count,
    _efficiency,
)

# The simulator packs one bin per bit of a uint32 click mask.
MAX_BINS = 32
# A photon number or cutoff (n_max) a config can write back is at most MAX_PHOTONS.
MAX_PHOTONS = 4096
BIN_PROB_ATOL = 1e-12
STOCHASTIC_ATOL = 1e-12


def _checked_bin_probs(bin_probs: np.ndarray) -> np.ndarray:
    """``bin_probs`` as a float vector, rejected unless it splits a photon over 1..MAX_BINS bins."""
    probs = np.asarray(bin_probs, dtype=float)
    if probs.ndim != 1 or probs.size < 1:
        raise DomainError("bin_probs must be a non-empty 1-d vector")
    if probs.size > MAX_BINS:
        raise DomainError(f"bin_probs has {probs.size} entries, more than MAX_BINS={MAX_BINS}")
    if not np.all(np.isfinite(probs)) or probs.min() < 0.0:
        raise DomainError("bin_probs must be finite and non-negative")
    if abs(probs.sum() - 1.0) > BIN_PROB_ATOL:
        raise DomainError(f"bin_probs sum to {float(probs.sum())!r}, expected 1")
    return probs


@dataclass(frozen=True, eq=False)
class TMDConfig:
    """Geometry and efficiency of one time-multiplexed detector.

    ``bin_probs`` holds the probability for a photon to land in each
    bin, ``efficiency`` the survival probability applied upstream of the
    bins, and ``n_max`` (at most ``MAX_PHOTONS``) the photon-number
    cutoff the detector model is built for.  Each field follows the
    config-file rules, in its wording.  The detector model is built on
    first use and kept, so one object checks its stages once however
    often it is used.
    """

    bin_probs: np.ndarray
    efficiency: float
    n_max: int

    def __post_init__(self) -> None:
        probs = _checked_bin_probs(self.bin_probs)
        object.__setattr__(self, "efficiency", _efficiency(self.efficiency))
        object.__setattr__(self, "n_max", _count(self.n_max, "n_max", 0, MAX_PHOTONS))
        probs = np.array(probs, copy=True)
        probs.flags.writeable = False
        object.__setattr__(self, "bin_probs", probs)

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
        bins = _count(bins, "bins", 1, MAX_BINS)
        if n_max is None:
            n_max = bins
        return cls(np.full(bins, 1.0 / bins), efficiency, n_max)

    @cached_property
    def _model(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Checked, read-only occupation, loss and response matrices, in that order."""
        conv = convolution_matrix(self.bin_probs, self.n_max)
        loss = loss_matrix(self.efficiency, self.n_max)
        return conv, loss, _column_stochastic(conv @ loss)


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


def _binomial_stage(efficiency: float, n_max: int) -> np.ndarray:
    """Unchecked binomial loss stage; entry (n, m) is P(n of m photons survive)."""
    # Pascal's rule, one column per added photon (lost with weight 1 - eta,
    # kept with weight eta): exact zeros for n > m, exact rows at eta 0 and 1
    entries = np.zeros((n_max + 1, n_max + 1))
    entries[0, 0] = 1.0
    for m in range(1, n_max + 1):
        entries[:, m] = (1.0 - efficiency) * entries[:, m - 1]
        entries[1:, m] += efficiency * entries[:-1, m - 1]
    return entries


def loss_matrix(efficiency: float, n_max: int) -> np.ndarray:
    """Binomial loss stage: entry (n, m) is P(n of m photons survive)."""
    _efficiency(efficiency)
    return _column_stochastic(_binomial_stage(efficiency, _count(n_max, "n_max", 0)))


def convolution_matrix(bin_probs: np.ndarray, n_max: int) -> np.ndarray:
    """Bin-occupation stage: entry (c, n) is P(n photons occupy exactly c bins).

    Grown one bin at a time from non-negative terms only: adding a bin of
    probability p to bins of total probability s keeps each photon in the
    earlier bins with probability s / (s + p), a loss stage, and the new
    bin is occupied exactly when it takes at least one photon.  The bin
    count is capped at MAX_BINS like every detector's.
    """
    probs = _checked_bin_probs(bin_probs)
    n_max = _count(n_max, "n_max", 0)
    entries = np.zeros((probs.size + 1, n_max + 1))
    entries[0, 0] = 1.0
    seen = 0.0
    for p in probs.tolist():
        if p == 0.0:
            continue
        # stay[j, m] = P(j of m photons stay in the earlier bins);
        # unchecked, the finished matrix is checked once
        stay = _binomial_stage(seen / (seen + p), n_max)
        seen += p
        grown = entries * np.diag(stay)
        grown[1:] += entries[:-1] @ np.triu(stay, 1)
        entries = grown
    return _column_stochastic(entries)


def detector_response(tmd: TMDConfig) -> np.ndarray:
    """Composite click response: occupation matrix times loss matrix."""
    return tmd._model[2]


def _padded(probs: np.ndarray, tmds: tuple[TMDConfig, ...], axes: tuple[str, ...]) -> np.ndarray:
    """``probs`` zero-padded to each detector's n_max; ``axes`` names each axis in errors."""
    shape = tuple(tmd.n_max + 1 for tmd in tmds)
    for name, have, want in zip(axes, probs.shape, shape):
        if have > want:
            raise DomainError(f"{name} extends to n={have - 1}, beyond detector n_max={want - 1}")
    if probs.shape == shape:
        return probs
    return np.pad(probs, [(0, want - have) for have, want in zip(probs.shape, shape)])


def _along_axes(stages: list[np.ndarray], probs: np.ndarray) -> np.ndarray:
    """Apply one detector stage per axis: the first to rows, a second to columns."""
    out = stages[0] @ probs
    if len(stages) > 1:
        out = out @ stages[1].T
    return out


def forward(tmd: TMDConfig, dist: PhotonDistribution) -> PhotonDistribution:
    """Click-number distribution produced by a photon-number distribution."""
    p = _padded(dist.probs, (tmd,), ("input distribution",))
    return PhotonDistribution(_along_axes([detector_response(tmd)], p))


def joint_forward(
    tmd_signal: TMDConfig, tmd_idler: TMDConfig, joint: JointPhotonDistribution
) -> JointPhotonDistribution:
    """Joint click distribution of two detectors viewing a two-arm state."""
    tmds = (tmd_signal, tmd_idler)
    p = _padded(joint.probs, tmds, ("joint signal axis", "joint idler axis"))
    return JointPhotonDistribution(_along_axes([detector_response(tmd) for tmd in tmds], p))


def _combine_collective(joint: JointPhotonDistribution) -> PhotonDistribution:
    """Distribution of the total photon number n_signal + n_idler."""
    ns, ni = joint.probs.shape
    idx = (np.arange(ns)[:, None] + np.arange(ni)[None, :]).ravel()
    q = np.bincount(idx, weights=joint.probs.ravel(), minlength=ns + ni - 1)
    return PhotonDistribution(q)


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
    surviving = JointPhotonDistribution(_along_axes([loss_signal, loss_idler], joint.probs))
    total = _combine_collective(surviving)
    conv = convolution_matrix(tmd.bin_probs, total.n_max)
    return PhotonDistribution(conv @ total.probs)
