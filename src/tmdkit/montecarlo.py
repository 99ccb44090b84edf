"""Shot-by-shot simulation of a twin-beam source read out by click detectors.

Every shot draws a pair number from the source, thins each arm with an
independent binomial loss, scatters the surviving photons over the
detector bins, and records which bins clicked.  Sampling is chunked and
each chunk gets its own counter-based stream keyed by the chunk index,
so for a given seed and ``CHUNK_SIZE`` a run is reproducible no matter
how the chunks are scheduled: every usable core runs a share of them,
and the outputs do not depend on how many cores there are.  Within a
chunk each stage runs a block of ``_BLOCK`` shots at a time, in the
chunk's stream order, so a chunk in flight holds little memory.  Only
the shots that carry a pair go past pair sampling; a later stage would
draw nothing for the others, so they go straight to the all-dark cell.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .detector import TMDConfig
from .errors import DomainError
from .sources import SourceModel
from .stats import ClickStatistics, _count, _is_int, _uncertainty

CHUNK_SIZE = 1 << 16
# shots per stage call within a chunk; splitting a draw into consecutive
# calls takes the same draws in the same order, so outputs do not depend on it
_BLOCK = 1 << 14

# Measurement layouts.  Only C changes the simulation: it merges both arms
# into one shared TMD.  Otherwise the letter names a stock config; the
# detectors, not the letter, decide what the analysis chain runs.
SETUPS = ("A", "B", "C", "D")


@dataclass(frozen=True)
class ExperimentConfig:
    """Source, measurement layout, detectors, and run length.

    ``shots``, ``seed`` and the ``sigma_eta_*`` fields follow the
    config-file rules, in its wording (``signal.efficiency_uncertainty``
    for ``sigma_eta_signal``); the first two are stored as ``int``, the
    others as ``float``.  For the shared-detector layout ("C") both arms
    must have the same bins and ``n_max``; only their efficiencies may
    differ.  The ``sigma_eta_*`` fields carry calibration uncertainties
    through to error propagation and do not affect the simulation.
    """

    source: SourceModel
    setup: str
    tmd_signal: TMDConfig
    tmd_idler: TMDConfig
    shots: int
    seed: int
    sigma_eta_signal: float = 0.0
    sigma_eta_idler: float = 0.0

    def __post_init__(self) -> None:
        if self.setup not in SETUPS:
            raise DomainError(f"setup must be one of {SETUPS}, got {self.setup!r}")
        for arm in ("signal", "idler"):
            sigma = _uncertainty(getattr(self, f"sigma_eta_{arm}"), f"{arm}.efficiency_uncertainty")
            object.__setattr__(self, f"sigma_eta_{arm}", sigma)
        object.__setattr__(self, "shots", _count(self.shots, "shots", 1))
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise DomainError("seed must be an unsigned 64-bit integer")
        object.__setattr__(self, "seed", int(self.seed))
        same_bins = np.array_equal(self.tmd_signal.bin_probs, self.tmd_idler.bin_probs)
        if self.setup == "C" and not (same_bins and self.tmd_signal.n_max == self.tmd_idler.n_max):
            raise DomainError("setup C feeds both arms into one TMD; bins and n_max must match")


@dataclass(frozen=True)
class ExperimentResult:
    """Accumulated click histograms and coincidence counters for a run."""

    signal_clicks: ClickStatistics
    idler_clicks: ClickStatistics
    joint_clicks: ClickStatistics
    signal_singles: int
    idler_singles: int
    coincidences: int
    signal_masks: np.ndarray | None = None
    idler_masks: np.ndarray | None = None


@dataclass(frozen=True)
class CollectiveResult:
    """Click histogram of a run with both arms merged into one detector."""

    clicks: ClickStatistics
    masks: np.ndarray | None = None


def _tallies(joint: ClickStatistics) -> tuple[int, int, int]:
    """Signal singles, idler singles and coincidences held by a joint click table."""
    counts = joint.counts
    return int(counts[1:, :].sum()), int(counts[:, 1:].sum()), int(counts[1:, 1:].sum())


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    # one independent counter block per chunk keeps runs reproducible
    # regardless of how chunks are interleaved
    return np.random.Generator(np.random.Philox(key=seed).jumped(chunk_index))


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(shots: int) -> int:
    """Threads that simulate a run of ``shots``: one per usable core, at most one per chunk."""
    return min(_usable_cores(), -(-shots // CHUNK_SIZE))


def _blocks(size: int) -> list[slice]:
    return [slice(start, min(start + _BLOCK, size)) for start in range(0, size, _BLOCK)]


def _pair_cdf(source: SourceModel) -> np.ndarray:
    cdf = np.cumsum(source.pair_dist.probs)
    cdf[-1] = 1.0
    return cdf


def _pair_buffers(cdf: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Room for the chunk positions and pair numbers of ``size`` shots."""
    # the pair dtype also holds the merged survivors of two arms
    return np.empty(size, dtype=np.int32), np.empty(size, dtype=np.min_scalar_type(2 * cdf.size))


def _sample_pairs(
    rng: np.random.Generator, cdf: np.ndarray, size: int, buffers: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Chunk positions and pair numbers of the shots, among ``size``, that carry a pair.

    Written from the start of ``buffers`` (from :func:`_pair_buffers`, at
    least ``size`` long) and returned as views of them.
    """
    # a draw's index is at least 1 exactly when the draw is at least cdf[0];
    # draws lie in [0, 1) and cdf[-1] is 1.0, so every index is below cdf.size
    positions, pairs = buffers
    count = 0
    for block in _blocks(size):
        draws = rng.random(block.stop - block.start)
        lit = np.flatnonzero(draws >= cdf[0])
        positions[count : count + lit.size] = lit + block.start
        pairs[count : count + lit.size] = np.searchsorted(cdf, draws[lit], side="right")
        count += lit.size
    return positions[:count], pairs[:count]


def _thin(rng: np.random.Generator, pairs: np.ndarray, efficiency: float) -> np.ndarray:
    """Independent binomial loss on every shot's pairs."""
    photons = np.empty_like(pairs)
    for block in _blocks(pairs.size):
        photons[block] = rng.binomial(pairs[block], efficiency)
    return photons


def _readout(rng: np.random.Generator, photons: np.ndarray, tmd: TMDConfig) -> np.ndarray:
    """Scatter detected photons over the bins of one detector; bit i set means bin i clicked."""
    if tmd.bins == 1:
        return (photons > 0).astype(np.uint32)
    # only lit shots are scattered: a draw of zero photons takes nothing from the stream
    lit = np.flatnonzero(photons)
    occupancy = rng.multinomial(photons[lit], tmd.bin_probs)
    masks = np.zeros(photons.size, dtype=np.uint32)
    masks[lit] = (occupancy > 0) @ (np.uint32(1) << np.arange(tmd.bins, dtype=np.uint32))
    return masks


def _read(rng: np.random.Generator, photons: np.ndarray, tmd: TMDConfig, out: np.ndarray) -> None:
    """Write the click masks of every shot into ``out``."""
    for block in _blocks(photons.size):
        out[block] = _readout(rng, photons[block], tmd)


def _click_histogram(masks: tuple[np.ndarray, ...], shape: tuple[int, ...]) -> np.ndarray:
    """Flat histogram of click numbers over ``shape``, one mask array per axis.

    Shared by the simulation and by :func:`tmdkit.io.ingest_shots`; masks
    must be non-negative and fit their axis.  Counts a block of shots at a time.
    """
    histogram = np.zeros(math.prod(shape), dtype=np.int64)
    for block in _blocks(masks[0].size):
        index = np.bitwise_count(masks[0][block]).astype(np.int64)
        for mask, width in zip(masks[1:], shape[1:]):
            index = index * width + np.bitwise_count(mask[block])
        histogram += np.bincount(index, minlength=histogram.size)
    return histogram


def _two_arm_masks(
    rng: np.random.Generator, pairs: np.ndarray, config: ExperimentConfig, outs: list[np.ndarray]
) -> None:
    for tmd, out in zip((config.tmd_signal, config.tmd_idler), outs):
        _read(rng, _thin(rng, pairs, tmd.efficiency), tmd, out)


def _merged_masks(
    rng: np.random.Generator, pairs: np.ndarray, config: ExperimentConfig, outs: list[np.ndarray]
) -> None:
    # each arm is thinned with its own efficiency before the survivors
    # share the one detector's bins
    survivors = _thin(rng, pairs, config.tmd_signal.efficiency)
    survivors += _thin(rng, pairs, config.tmd_idler.efficiency)
    _read(rng, survivors, config.tmd_signal, outs[0])


def _simulate(
    config: ExperimentConfig, keep_shots: bool
) -> tuple[np.ndarray, list[np.ndarray] | None]:
    """Run every chunk of ``config`` and histogram the click numbers.

    The histogram has one axis per detector: (signal, idler) for the
    two-detector layouts, the shared detector alone for layout C.  With
    ``keep_shots`` the per-shot masks of each detector come back too.
    Worker w of n runs chunks w, w + n, w + 2n, ...; the calling thread
    is worker 0.  Each worker reads out only the shots that carry a pair,
    sums its own histogram, counts the other shots in the all-dark cell,
    and writes its chunks' masks at their place in the run.
    """
    merged = config.setup == "C"
    readout = _merged_masks if merged else _two_arm_masks
    tmds = (config.tmd_signal,) if merged else (config.tmd_signal, config.tmd_idler)
    shape = tuple(tmd.bins + 1 for tmd in tmds)
    cdf = _pair_cdf(config.source)
    kept = [np.zeros(config.shots, dtype=np.uint32) for _ in tmds] if keep_shots else None
    chunks = [
        (index, min(CHUNK_SIZE, config.shots - start))
        for index, start in enumerate(range(0, config.shots, CHUNK_SIZE))
    ]
    workers = _worker_count(config.shots)
    histograms = [np.zeros(math.prod(shape), dtype=np.int64) for _ in range(workers)]
    errors: list[BaseException] = []

    def work(worker: int) -> None:
        # the positions, pair numbers and masks of one chunk's pair-carrying
        # shots; reused for the next chunk
        buffers = _pair_buffers(cdf, CHUNK_SIZE)
        stores = [np.empty(CHUNK_SIZE, dtype=np.uint32) for _ in tmds]
        histogram = histograms[worker]
        for chunk_index, size in chunks[worker::workers]:
            rng = _chunk_rng(config.seed, chunk_index)
            positions, pairs = _sample_pairs(rng, cdf, size, buffers)
            outs = [store[: pairs.size] for store in stores]
            readout(rng, pairs, config, outs)
            histogram += _click_histogram(tuple(outs), shape)
            histogram[0] += size - pairs.size
            if keep_shots:
                # a shot without a pair clicks nowhere, and kept masks start at zero
                offset = chunk_index * CHUNK_SIZE
                for store, out in zip(kept, outs):
                    store[offset : offset + size][positions] = out

    def helper(worker: int) -> None:
        try:
            work(worker)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=helper, args=(worker,)) for worker in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        work(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]

    if keep_shots:
        for store in kept:
            store.flags.writeable = False
    return np.sum(histograms, axis=0).reshape(shape), kept


def _tables(histogram: np.ndarray, shots: int) -> dict[str, ClickStatistics]:
    """Named click tables of a run's histogram, which has one axis per detector.

    A single axis is the shared detector of merged beams (``collective``);
    two are the signal and idler arms, tabled as ``signal``, ``idler`` and
    ``joint``.
    """
    if histogram.ndim == 1:
        return {"collective": ClickStatistics(histogram, shots)}
    return {
        "signal": ClickStatistics(histogram.sum(axis=1), shots),
        "idler": ClickStatistics(histogram.sum(axis=0), shots),
        "joint": ClickStatistics(histogram, shots),
    }


def run_experiment(config: ExperimentConfig, keep_shots: bool = False) -> ExperimentResult:
    """Simulate the configured number of shots and histogram the clicks.

    Handles the two-detector layouts; the shared-detector layout has its
    own entry point, :func:`run_collective_experiment`.  ``keep_shots``
    additionally retains the per-shot click masks of both arms, at eight
    bytes per shot, for export or re-analysis.
    """
    if config.setup == "C":
        raise DomainError("setup C merges the arms; use run_collective_experiment")
    histogram, kept = _simulate(config, keep_shots)
    tables = _tables(histogram, config.shots)
    clicks = [tables[name] for name in ("signal", "idler", "joint")]
    # fields in order: the three tables, their tallies, then the masks when kept
    return ExperimentResult(*clicks, *_tallies(tables["joint"]), *(kept or (None, None)))


def run_collective_experiment(
    config: ExperimentConfig, keep_shots: bool = False
) -> CollectiveResult:
    """Simulate both arms feeding the same detector bins.

    Each arm is thinned with its own efficiency, then all survivors are
    scattered together over the shared bins, so one photon pair tends to
    produce click-number parity rather than per-arm coincidences.
    """
    if config.setup != "C":
        raise DomainError("run_collective_experiment requires the shared-detector setup")
    histogram, kept = _simulate(config, keep_shots)
    clicks = _tables(histogram, config.shots)["collective"]
    return CollectiveResult(clicks, kept[0] if keep_shots else None)

