"""Shot-by-shot simulation against the analytic click model."""

import numpy as np
import pytest

from tmdkit import (
    CHUNK_SIZE,
    DomainError,
    ExperimentConfig,
    SourceModel,
    TMDConfig,
    collective_forward,
    forward,
    iter_shot_chunks,
    joint_forward,
    marginals,
    run_collective_experiment,
    run_experiment,
    simulate_klyshko,
)
from tmdkit.pipelines import _klyshko


def poisson_setup_d(shots=100_000, seed=42):
    return ExperimentConfig(
        source=SourceModel.poissonian_pairs(0.2, n_max=8),
        setup="D",
        tmd_signal=TMDConfig.uniform(4, efficiency=0.5),
        tmd_idler=TMDConfig.uniform(4, efficiency=0.4),
        shots=shots,
        seed=seed,
    )


class TestShotChunks:
    def test_exact_cover(self):
        chunks = list(iter_shot_chunks(10 * CHUNK_SIZE + 17))
        assert [index for index, _ in chunks] == list(range(11))
        assert sum(size for _, size in chunks) == 10 * CHUNK_SIZE + 17
        assert all(size <= CHUNK_SIZE for _, size in chunks)

    def test_single_partial_chunk(self):
        assert list(iter_shot_chunks(100)) == [(0, 100)]

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            list(iter_shot_chunks(0))


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

    def test_calibration_layout_needs_threshold_detectors(self):
        with pytest.raises(DomainError):
            ExperimentConfig(
                source=SourceModel.fock_pairs(1),
                setup="A",
                tmd_signal=TMDConfig.uniform(4),
                tmd_idler=TMDConfig.uniform(1),
                shots=10,
                seed=0,
            )

    def test_single_tmd_layout_needs_one_threshold(self):
        with pytest.raises(DomainError):
            ExperimentConfig(
                source=SourceModel.fock_pairs(1),
                setup="B",
                tmd_signal=TMDConfig.uniform(4),
                tmd_idler=TMDConfig.uniform(4),
                shots=10,
                seed=0,
            )

    def test_shared_layout_needs_matching_bins(self):
        with pytest.raises(DomainError):
            ExperimentConfig(
                source=SourceModel.fock_pairs(1),
                setup="C",
                tmd_signal=TMDConfig.uniform(4, efficiency=0.5),
                tmd_idler=TMDConfig.uniform(8, efficiency=0.5),
                shots=10,
                seed=0,
            )

    def test_dual_layout_needs_two_tmds(self):
        with pytest.raises(DomainError):
            ExperimentConfig(
                source=SourceModel.fock_pairs(1),
                setup="D",
                tmd_signal=TMDConfig.uniform(1),
                tmd_idler=TMDConfig.uniform(4),
                shots=10,
                seed=0,
            )

    def test_rejects_bad_run_parameters(self):
        good = dict(
            source=SourceModel.fock_pairs(1),
            setup="D",
            tmd_signal=TMDConfig.uniform(4),
            tmd_idler=TMDConfig.uniform(4),
        )
        with pytest.raises(DomainError):
            ExperimentConfig(shots=0, seed=0, **good)
        with pytest.raises(DomainError):
            ExperimentConfig(shots=10, seed=-1, **good)
        with pytest.raises(DomainError):
            ExperimentConfig(shots=10, seed=0, sigma_eta_signal=1.0, **good)


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
        signal, idler = simulate_klyshko(SourceModel.fock_pairs(1), 0.3, 0.6, 500_000, 21)
        assert signal.eta == pytest.approx(0.3, abs=0.01)
        assert idler.eta == pytest.approx(0.6, abs=0.01)
        assert signal.eta_uncertainty is not None
