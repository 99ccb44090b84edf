"""Shot-by-shot simulation against the analytic click model."""

import hashlib
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tmdkit import (
    DomainError,
    ExperimentConfig,
    PhotonDistribution,
    SourceModel,
    TMDConfig,
    collective_forward,
    default_config,
    forward,
    joint_forward,
    marginals,
    run_collective_experiment,
    run_experiment,
)
from tmdkit import montecarlo
from tmdkit.montecarlo import (
    CHUNK_SIZE,
    _BLOCK,
    _chunk_rng,
    _click_histogram,
    _pair_buffers,
    _pair_cdf,
    _readout,
    _sample_pairs,
)
from tmdkit.pipelines import _arms, _klyshko, run_replicate

# JSON documents of a calibrated run, in writing order, with the stage its inverted arms call for
CALIBRATED = ["config.json", "simulation.json", "calibration.json", "reconstruction.json"]
HERALDED = [*CALIBRATED, "fit.json", "summary.json"]
JOINT = [*CALIBRATED, "metrics.json", "summary.json"]


def stage_documents(config, out_dir):
    """Names of the JSON documents a replicate run of ``config`` writes, in writing order."""
    return [Path(path).name for path in run_replicate(config, out_dir).paths if path.endswith(".json")]


def poisson_setup_d(shots=100_000, seed=42):
    return ExperimentConfig(
        source=SourceModel.poissonian_pairs(0.2, n_max=8),
        setup="D",
        tmd_signal=TMDConfig.uniform(4, efficiency=0.5),
        tmd_idler=TMDConfig.uniform(4, efficiency=0.4),
        shots=shots,
        seed=seed,
    )


class TestExperimentConfig:
    def test_rejects_unknown_setup(self):
        with pytest.raises(DomainError):
            ExperimentConfig(
                source=SourceModel.fock_pairs(1),
                setup="E",
                tmd_signal=TMDConfig.uniform(1),
                tmd_idler=TMDConfig.uniform(1),
                shots=10,
                seed=0,
            )

    def test_calibration_layout_with_a_tmd_runs_the_heralded_chain(self, tmp_path):
        config = ExperimentConfig(
            source=SourceModel.fock_pairs(1),
            setup="A",
            tmd_signal=TMDConfig.uniform(4),
            tmd_idler=TMDConfig.uniform(1),
            shots=10,
            seed=0,
        )
        assert _arms(config) == ("signal",)
        assert stage_documents(config, tmp_path) == HERALDED

    def test_single_tmd_layout_with_two_tmds_runs_the_joint_chain(self, tmp_path):
        config = ExperimentConfig(
            source=SourceModel.fock_pairs(1),
            setup="B",
            tmd_signal=TMDConfig.uniform(4),
            tmd_idler=TMDConfig.uniform(4),
            shots=10,
            seed=0,
        )
        assert _arms(config) == ("signal", "idler")
        # one pair per shot has no number variance, so the joint metrics need a thermal source
        thermal = replace(config, source=SourceModel.single_mode_squeezer(0.5), shots=4000)
        assert stage_documents(thermal, tmp_path) == JOINT

    def test_shared_layout_needs_matching_bins(self):
        # the merged arms are read, and so inverted, as one detector
        for idler in (TMDConfig.uniform(8, efficiency=0.5), TMDConfig.uniform(4, 0.5, n_max=8)):
            with pytest.raises(DomainError) as info:
                ExperimentConfig(
                    source=SourceModel.fock_pairs(1),
                    setup="C",
                    tmd_signal=TMDConfig.uniform(4, efficiency=0.5),
                    tmd_idler=idler,
                    shots=10,
                    seed=0,
                )
            assert str(info.value) == "setup C feeds both arms into one TMD; bins and n_max must match"

    def test_dual_layout_with_a_threshold_arm_runs_the_heralded_chain(self, tmp_path):
        config = ExperimentConfig(
            source=SourceModel.fock_pairs(1),
            setup="D",
            tmd_signal=TMDConfig.uniform(1),
            tmd_idler=TMDConfig.uniform(4),
            shots=10,
            seed=0,
        )
        assert _arms(config) == ("idler",)
        assert stage_documents(config, tmp_path) == HERALDED

    def test_rejects_bad_run_parameters(self):
        good = dict(
            source=SourceModel.fock_pairs(1),
            setup="D",
            tmd_signal=TMDConfig.uniform(4),
            tmd_idler=TMDConfig.uniform(4),
        )
        # the config-file rules, in its wording
        positive = "shots must be a positive integer"
        unsigned = "seed must be an unsigned 64-bit integer"
        for shots, seed, message in [
            (0, 0, positive),
            (1.5, 0, positive),
            (True, 0, positive),
            (2**63, 0, "shots must be at most 9223372036854775807"),
            (10, -1, unsigned),
            (10, 2**64, unsigned),
            (10, True, unsigned),
            (10, 1.0, unsigned),
        ]:
            with pytest.raises(DomainError) as info:
                ExperimentConfig(shots=shots, seed=seed, **good)
            assert str(info.value) == message
        for arm, sigma in [("signal", 1.0), ("signal", "0.1"), ("idler", True), ("idler", -0.1)]:
            with pytest.raises(DomainError) as info:
                ExperimentConfig(shots=10, seed=0, **{f"sigma_eta_{arm}": sigma}, **good)
            assert str(info.value) == f"{arm}.efficiency_uncertainty must lie in [0, 1)"
        # accepted values are stored as int, and uncertainties as float
        config = ExperimentConfig(shots=np.int64(2**63 - 1), seed=np.uint64(2**64 - 1), **good)
        assert (type(config.shots), type(config.seed)) == (int, int)
        assert (config.shots, config.seed) == (2**63 - 1, 2**64 - 1)
        config = ExperimentConfig(shots=10, seed=0, sigma_eta_signal=0, sigma_eta_idler=np.int64(0), **good)
        assert (type(config.sigma_eta_signal), type(config.sigma_eta_idler)) == (float, float)


class TestRunExperiment:
    def test_same_seed_reproduces(self):
        a = run_experiment(poisson_setup_d(shots=20_000))
        b = run_experiment(poisson_setup_d(shots=20_000))
        assert a.joint_clicks == b.joint_clicks
        assert a.coincidences == b.coincidences

    def test_different_seed_differs(self):
        a = run_experiment(poisson_setup_d(shots=20_000, seed=1))
        b = run_experiment(poisson_setup_d(shots=20_000, seed=2))
        assert a.joint_clicks != b.joint_clicks

    def test_histograms_are_consistent_views(self):
        result = run_experiment(poisson_setup_d(shots=20_000))
        np.testing.assert_array_equal(
            result.signal_clicks.counts, result.joint_clicks.counts.sum(axis=1)
        )
        np.testing.assert_array_equal(
            result.idler_clicks.counts, result.joint_clicks.counts.sum(axis=0)
        )
        assert result.joint_clicks.counts.sum() == 20_000

    def test_matches_analytic_model(self):
        config = poisson_setup_d(shots=200_000, seed=7)
        result = run_experiment(config)
        joint = config.source.joint
        # deepen n_max so the model covers the full source truncation
        truth_s = TMDConfig(config.tmd_signal.bin_probs, config.tmd_signal.efficiency, n_max=8)
        truth_i = TMDConfig(config.tmd_idler.bin_probs, config.tmd_idler.efficiency, n_max=8)
        expected = joint_forward(truth_s, truth_i, joint)
        sigma = np.sqrt(expected.probs * (1.0 - expected.probs) / config.shots)
        deviation = np.abs(result.joint_clicks.frequencies - expected.probs)
        assert np.all(deviation <= 5.0 * sigma + 1e-9)
        signal_expected = forward(truth_s, marginals(joint)[0])
        deviation = np.abs(result.signal_clicks.frequencies - signal_expected.probs)
        assert np.all(deviation <= 5.0 * np.sqrt(signal_expected.probs / config.shots) + 1e-9)

    def test_spans_multiple_chunks(self):
        config = poisson_setup_d(shots=CHUNK_SIZE + 123)
        result = run_experiment(config)
        assert result.joint_clicks.total_shots == CHUNK_SIZE + 123

    def test_keep_shots_masks_match_histograms(self):
        # two pairs per shot, all detected: a mask never has more bits set
        # than photons detected, and a threshold arm's mask is 0 or 1
        fock_b = ExperimentConfig(
            source=SourceModel.fock_pairs(2),
            setup="B",
            tmd_signal=TMDConfig.uniform(1, efficiency=1.0),
            tmd_idler=TMDConfig.uniform(4, efficiency=1.0),
            shots=5_000,
            seed=5,
        )
        for config in (poisson_setup_d(shots=5_000), fock_b):
            result = run_experiment(config, keep_shots=True)
            assert result.signal_masks is not None
            assert result.signal_masks.shape == (5_000,)
            assert not result.signal_masks.flags.writeable
            for masks, tmd, clicks in (
                (result.signal_masks, config.tmd_signal, result.signal_clicks),
                (result.idler_masks, config.tmd_idler, result.idler_clicks),
            ):
                counted = np.bitwise_count(masks)
                np.testing.assert_array_equal(
                    np.bincount(counted, minlength=tmd.bins + 1), clicks.counts
                )
                assert masks.max() < 1 << tmd.bins
        assert np.bitwise_count(result.idler_masks).max() <= 2  # the Fock run, last above

    def test_masks_omitted_by_default(self):
        result = run_experiment(poisson_setup_d(shots=1_000))
        assert result.signal_masks is None
        assert result.idler_masks is None

    def test_rejects_shared_layout(self):
        config = ExperimentConfig(
            source=SourceModel.fock_pairs(1),
            setup="C",
            tmd_signal=TMDConfig.uniform(4, efficiency=0.5),
            tmd_idler=TMDConfig.uniform(4, efficiency=0.5),
            shots=10,
            seed=0,
        )
        with pytest.raises(DomainError):
            run_experiment(config)


class TestRunCollectiveExperiment:
    def config(self, shots=100_000, seed=3):
        return ExperimentConfig(
            source=SourceModel.single_mode_squeezer(0.4, n_max=20),
            setup="C",
            tmd_signal=TMDConfig.uniform(4, efficiency=0.6),
            tmd_idler=TMDConfig.uniform(4, efficiency=0.5),
            shots=shots,
            seed=seed,
        )

    def test_matches_analytic_model(self):
        config = self.config()
        result = run_collective_experiment(config)
        expected = collective_forward(config.tmd_signal, config.source.joint, 0.6, 0.5)
        sigma = np.sqrt(expected.probs * (1.0 - expected.probs) / config.shots)
        deviation = np.abs(result.clicks.frequencies - expected.probs)
        assert np.all(deviation <= 5.0 * sigma + 1e-9)

    def test_same_seed_reproduces(self):
        a = run_collective_experiment(self.config(shots=20_000))
        b = run_collective_experiment(self.config(shots=20_000))
        assert a.clicks == b.clicks

    def test_keep_shots(self):
        result = run_collective_experiment(self.config(shots=5_000), keep_shots=True)
        clicks = np.bitwise_count(result.masks)
        np.testing.assert_array_equal(
            np.bincount(clicks, minlength=5), result.clicks.counts
        )

    def test_rejects_two_detector_layouts(self):
        with pytest.raises(DomainError):
            run_collective_experiment(poisson_setup_d(shots=10))


def _run_digest(config):
    """sha256 of a run's histogram and kept masks, as little-endian int64."""
    if config.setup == "C":
        result = run_collective_experiment(config, keep_shots=True)
        arrays = (result.clicks.counts.ravel(), result.masks)
    else:
        result = run_experiment(config, keep_shots=True)
        arrays = (result.joint_clicks.counts.ravel(), result.signal_masks, result.idler_masks)
    return hashlib.sha256(np.concatenate(arrays).astype("<i8").tobytes()).hexdigest()


def _dense_readout(rng, photons, tmd):
    """Reference readout: scatter every shot, lit or not."""
    occupancy = rng.multinomial(photons, tmd.bin_probs)
    bits = np.uint32(1) << np.arange(tmd.bins, dtype=np.uint32)
    return ((occupancy > 0) @ bits).astype(np.uint32)


_GUARD_SHOTS = 2 * CHUNK_SIZE + 1
# a source with a pair in one shot of 10,000
_MOSTLY_DARK = SourceModel(PhotonDistribution(np.array([0.9999, 6e-5, 4e-5])), "custom")


class TestStreamGuard:
    """Fixed-seed runs are pinned bit for bit, so a change to the stream shows."""

    @pytest.mark.parametrize("setup, expected", [
        ("A", "0a2b27cd304ba160d87f1b42ccf127778939f6986b0449166cf17016c331073e"),
        ("B", "c69231b1a91b9bffb8d07b091fdfe8c624b232011881d707ed43833f9a8a8996"),
        ("C", "e9f7d7a690b98ec24af0fd6eb2cf14daa4cf8640602843ef1a242a865a472265"),
        ("D", "eac0440da9108b011eaf92de0ae564075e212c970ceb39ef7d9ec6bfe6c698be"),
    ])
    def test_stock_layout(self, setup, expected):
        assert _run_digest(default_config(setup, shots=_GUARD_SHOTS, seed=2024)) == expected

    def test_bright_multimode_on_32_bins(self):
        tmd = TMDConfig.uniform(32, efficiency=0.5)
        config = ExperimentConfig(
            source=SourceModel.multimode_pdc(4, 2.0),
            setup="D",
            tmd_signal=tmd,
            tmd_idler=tmd,
            shots=_GUARD_SHOTS,
            seed=2024,
        )
        expected = "1aedeef3046aaf9939f14389094a41540dddb2e7770fe2aa6a5ddd95c2f54a14"
        assert _run_digest(config) == expected

    @pytest.mark.parametrize("kind", ["all zero", "all lit", "mixed"])
    def test_readout_matches_dense_readout(self, kind):
        draws = np.random.default_rng(17).poisson(0.3, size=10_000)
        photons = {"all zero": draws * 0, "all lit": draws + 1, "mixed": draws}[kind]
        tmd = TMDConfig.uniform(8)
        sparse_rng, dense_rng = (np.random.Generator(np.random.Philox(key=5)) for _ in range(2))
        masks = _readout(sparse_rng, photons, tmd)
        assert masks.dtype == np.uint32
        np.testing.assert_array_equal(masks, _dense_readout(dense_rng, photons, tmd))
        # both took the same draws, so the rest of the stream is shared too
        np.testing.assert_equal(sparse_rng.bit_generator.state, dense_rng.bit_generator.state)

    @pytest.mark.parametrize("source", ["fock-0", "fock-1", "poisson", "custom"])
    @pytest.mark.parametrize("size", [1, _BLOCK, 2 * _BLOCK + 3])
    def test_pair_sampling_matches_dense_sampling(self, source, size):
        source = {
            "fock-0": SourceModel.fock_pairs(0),
            "fock-1": SourceModel.fock_pairs(1),
            "poisson": SourceModel.poissonian_pairs(0.3),
            "custom": _MOSTLY_DARK,
        }[source]
        cdf = _pair_cdf(source)
        sparse_rng, dense_rng = (np.random.Generator(np.random.Philox(key=5)) for _ in range(2))
        positions, pairs = _sample_pairs(sparse_rng, cdf, size, _pair_buffers(cdf, size))
        dense = np.searchsorted(cdf, dense_rng.random(size), side="right")
        assert positions.dtype == np.int32
        np.testing.assert_array_equal(positions, np.flatnonzero(dense))
        np.testing.assert_array_equal(pairs, dense[positions])
        # the same draws were taken, so the later stages read the same stream
        np.testing.assert_equal(sparse_rng.bit_generator.state, dense_rng.bit_generator.state)


def _bright(shots, seed=2024):
    tmd = TMDConfig.uniform(32, efficiency=0.5)
    return ExperimentConfig(
        source=SourceModel.multimode_pdc(4, 2.0),
        setup="D",
        tmd_signal=tmd,
        tmd_idler=tmd,
        shots=shots,
        seed=seed,
    )


# stock layouts with a source at the dark-shot edges: no shot carries a pair,
# every shot does, or almost none does
_EDGE_SOURCES = {
    "fock-0 D": ("D", SourceModel.fock_pairs(0)),
    "fock-1 B": ("B", SourceModel.fock_pairs(1)),
    "fock-1 D": ("D", SourceModel.fock_pairs(1)),
    "custom C": ("C", _MOSTLY_DARK),
}
_LAYOUTS = ["A", "B", "C", "D", "bright", *_EDGE_SOURCES]


def _layout(name, shots):
    if name == "bright":
        return _bright(shots)
    if name in _EDGE_SOURCES:
        setup, source = _EDGE_SOURCES[name]
        return replace(default_config(setup, shots=shots, seed=2024), source=source)
    return default_config(name, shots=shots, seed=2024)


def _run_arrays(config, keep_shots=True):
    """The histogram and, with ``keep_shots``, the kept masks of a run."""
    if config.setup == "C":
        result = run_collective_experiment(config, keep_shots)
        return result.clicks.counts, result.masks
    result = run_experiment(config, keep_shots)
    return result.joint_clicks.counts, result.signal_masks, result.idler_masks


def _serial_reference(config):
    """Histogram and masks of one thread running every stage on a whole chunk in int64."""
    cdf = _pair_cdf(config.source)
    merged = config.setup == "C"
    tmds = (config.tmd_signal,) if merged else (config.tmd_signal, config.tmd_idler)
    masks = [[] for _ in tmds]
    for chunk_index, start in enumerate(range(0, config.shots, CHUNK_SIZE)):
        rng = _chunk_rng(config.seed, chunk_index)
        size = min(CHUNK_SIZE, config.shots - start)
        pairs = np.searchsorted(cdf, rng.random(size), side="right")
        if merged:
            survivors = rng.binomial(pairs, config.tmd_signal.efficiency)
            survivors = survivors + rng.binomial(pairs, config.tmd_idler.efficiency)
            masks[0].append(_readout(rng, survivors, config.tmd_signal))
        else:
            for arm, tmd in zip(masks, tmds):
                arm.append(_readout(rng, rng.binomial(pairs, tmd.efficiency), tmd))
    masks = [np.concatenate(arm) for arm in masks]
    shape = tuple(tmd.bins + 1 for tmd in tmds)
    index = np.ravel_multi_index(tuple(np.bitwise_count(arm) for arm in masks), shape)
    return (np.bincount(index, minlength=np.prod(shape)).reshape(shape), *masks)


def _assert_same_run(run, expected):
    assert len(run) == len(expected)
    for got, want in zip(run, expected):
        np.testing.assert_array_equal(got, want)


class TestWorkers:
    """Chunks split over threads and stages split into blocks leave every output as it was."""

    @pytest.mark.parametrize("layout", _LAYOUTS)
    def test_outputs_do_not_depend_on_the_core_count(self, monkeypatch, layout):
        config = _layout(layout, shots=3 * CHUNK_SIZE + 321)
        runs = []
        for cores in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_usable_cores", lambda cores=cores: cores)
            assert montecarlo._worker_count(config.shots) == cores
            runs.append(_run_arrays(config))
        for run in runs:
            _assert_same_run(run, _serial_reference(config))
        # without kept masks each worker reuses one chunk's buffers
        np.testing.assert_array_equal(_run_arrays(config, keep_shots=False)[0], runs[0][0])

    def test_worker_count(self, monkeypatch):
        assert montecarlo._usable_cores() >= 1
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 4)
        assert montecarlo._worker_count(1) == 1
        assert montecarlo._worker_count(2 * CHUNK_SIZE) == 2
        assert montecarlo._worker_count(2 * CHUNK_SIZE + 1) == 3
        assert montecarlo._worker_count(10 * CHUNK_SIZE) == 4

    @pytest.mark.parametrize("shots", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
    @pytest.mark.parametrize("layout", _LAYOUTS)
    def test_block_edges(self, layout, shots):
        config = _layout(layout, shots)
        _assert_same_run(_run_arrays(config), _serial_reference(config))

    @pytest.mark.parametrize("size", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
    def test_click_histogram_matches_bincount(self, size):
        rng = np.random.default_rng(size)
        signal = rng.integers(0, 1 << 8, size=size).astype(np.uint32)
        idler = rng.integers(0, 1 << 4, size=size).astype(np.uint32)
        ones = [np.array([bin(mask).count("1") for mask in arm.tolist()]) for arm in (signal, idler)]
        np.testing.assert_array_equal(
            _click_histogram((signal,), (9,)), np.bincount(ones[0], minlength=9)
        )
        np.testing.assert_array_equal(
            _click_histogram((signal, idler), (9, 5)),
            np.bincount(ones[0] * 5 + ones[1], minlength=45),
        )

    def test_merged_survivors_beyond_one_byte(self):
        # 200 pairs at efficiencies 0.7 and 0.9 leave about 320 survivors,
        # which a one-byte count would wrap to about 64
        probs = np.zeros(201)
        probs[[150, 200]] = 0.5
        config = ExperimentConfig(
            source=SourceModel(PhotonDistribution(probs), "custom"),
            setup="C",
            tmd_signal=TMDConfig.uniform(32, efficiency=0.7),
            tmd_idler=TMDConfig.uniform(32, efficiency=0.9),
            shots=_BLOCK + 5,
            seed=8,
        )
        cdf = _pair_cdf(config.source)
        assert _pair_buffers(cdf, 10)[1].dtype == np.uint16
        _assert_same_run(_run_arrays(config), _serial_reference(config))

    def test_more_workers_than_cores_with_fast_thread_switching(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 8)
        config = _layout("D", shots=9 * CHUNK_SIZE + 11)
        runs = []
        runner = threading.Thread(target=lambda: runs.append(_run_arrays(config)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        _assert_same_run(runs[0], _serial_reference(config))

    def test_error_in_a_helper_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)
        failed_in = []

        def failing_rng(seed, chunk_index):
            if chunk_index == 1:
                failed_in.append(threading.current_thread())
                raise RuntimeError("chunk 1 failed")
            return _chunk_rng(seed, chunk_index)

        monkeypatch.setattr(montecarlo, "_chunk_rng", failing_rng)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk 1 failed"):
            run_experiment(poisson_setup_d(shots=4 * CHUNK_SIZE))
        [thread] = failed_in
        assert thread is not threading.main_thread()
        assert threading.active_count() == before


class TestCalibrationCounters:
    def test_threshold_run_counts_singles_and_coincidences(self):
        config = ExperimentConfig(
            source=SourceModel.fock_pairs(1),
            setup="A",
            tmd_signal=TMDConfig.uniform(1, efficiency=0.3),
            tmd_idler=TMDConfig.uniform(1, efficiency=0.6),
            shots=200_000,
            seed=9,
        )
        result = run_experiment(config)
        assert result.signal_singles == result.signal_clicks.counts[1]
        assert result.idler_singles == result.idler_clicks.counts[1]
        assert result.coincidences == result.joint_clicks.counts[1, 1]
        assert result.signal_singles / config.shots == pytest.approx(0.3, abs=0.01)
        assert result.idler_singles / config.shots == pytest.approx(0.6, abs=0.01)

    def test_calibration_records_divide_the_right_counters(self):
        result = run_experiment(poisson_setup_d(shots=50_000))
        signal, idler = _klyshko(result.joint_clicks)
        assert signal.eta == result.coincidences / result.idler_singles
        assert idler.eta == result.coincidences / result.signal_singles

    def test_simulate_klyshko_recovers_efficiencies(self):
        # single pairs make the coincidence ratio an unbiased estimate
        config = ExperimentConfig(
            source=SourceModel.fock_pairs(1),
            setup="A",
            tmd_signal=TMDConfig.uniform(bins=1, efficiency=0.3),
            tmd_idler=TMDConfig.uniform(bins=1, efficiency=0.6),
            shots=500_000,
            seed=21,
        )
        signal, idler = _klyshko(run_experiment(config).joint_clicks)
        assert signal.eta == pytest.approx(0.3, abs=0.01)
        assert idler.eta == pytest.approx(0.6, abs=0.01)
        assert signal.eta_uncertainty is not None
