"""Inversion of the click model and its error analysis."""

import math

import numpy as np
import pytest

from tmdkit import (
    ClickStatistics,
    ConditioningError,
    DegenerateConditionError,
    DomainError,
    JointPhotonDistribution,
    PhotonDistribution,
    TMDConfig,
    TruncationError,
    forward,
    invert_joint,
    invert_single,
    joint_forward,
    klyshko_efficiency,
    poisson_dist,
    propagate_errors,
    thermal_dist,
    twin_beam_joint,
)


class TestKlyshkoEfficiency:
    def test_ratio_with_binomial_error(self):
        record = klyshko_efficiency(117, 1000)
        assert record.eta == pytest.approx(0.117)
        assert record.eta_uncertainty == pytest.approx(math.sqrt(0.117 * 0.883 / 1000))
        assert record.coincidences == 117.0
        assert record.singles == 1000.0

    def test_rates_have_no_error_bar(self):
        record = klyshko_efficiency(0.117, 1.0)
        assert record.eta == pytest.approx(0.117)
        assert record.eta_uncertainty is None

    def test_rejects_ratio_above_one(self):
        with pytest.raises(DomainError):
            klyshko_efficiency(11, 10)

    def test_rejects_zero_singles(self):
        with pytest.raises(DegenerateConditionError):
            klyshko_efficiency(0, 0)

    def test_rejects_negative_or_non_finite(self):
        with pytest.raises(DomainError):
            klyshko_efficiency(-1, 10)
        with pytest.raises(DomainError):
            klyshko_efficiency(math.nan, 10)


class TestInvertSingle:
    def test_square_roundtrip(self):
        for bins in (8, 24):
            tmd = TMDConfig.uniform(bins, efficiency=0.5)
            dist = thermal_dist(0.6, bins)
            result = invert_single(tmd, forward(tmd, dist))
            np.testing.assert_allclose(result.dist.probs, dist.probs, atol=1e-10)
            assert result.method == "direct"
            assert result.residual < 1e-10
            assert result.condition_number > 1.0

    def test_square_roundtrip_survives_low_efficiency(self):
        # the composite condition number is astronomical here; the
        # two-stage triangular solve must still recover the input
        tmd = TMDConfig.uniform(8, efficiency=0.05)
        dist = poisson_dist(0.2, 8)
        result = invert_single(tmd, forward(tmd, dist))
        np.testing.assert_allclose(result.dist.probs, dist.probs, atol=1e-8)

    def test_rectangular_roundtrip(self):
        tmd = TMDConfig(np.full(8, 0.125), efficiency=0.7, n_max=4)
        dist = poisson_dist(0.5, 4)
        result = invert_single(tmd, forward(tmd, dist))
        np.testing.assert_allclose(result.dist.probs, dist.probs, atol=1e-10)

    def test_constrained_stays_non_negative(self):
        tmd = TMDConfig.uniform(4, efficiency=0.4)
        dist = thermal_dist(0.5, 4)
        result = invert_single(tmd, forward(tmd, dist), constrained=True)
        assert result.method == "constrained"
        assert result.dist.probs.min() >= 0.0
        np.testing.assert_allclose(result.dist.probs, dist.probs, atol=1e-6)

    def test_exact_inputs_are_equivalent(self):
        tmd = TMDConfig.uniform(4, efficiency=0.6)
        rho = forward(tmd, thermal_dist(0.4, 4))
        from_dist = invert_single(tmd, rho)
        from_array = invert_single(tmd, np.array(rho.probs))
        np.testing.assert_array_equal(from_dist.dist.probs, from_array.dist.probs)

    def test_unnormalized_array_is_rescaled(self):
        tmd = TMDConfig.uniform(4, efficiency=0.6)
        rho = forward(tmd, thermal_dist(0.4, 4)).probs
        scaled = invert_single(tmd, rho * 1000.0)
        exact = invert_single(tmd, rho)
        np.testing.assert_allclose(scaled.dist.probs, exact.dist.probs, atol=1e-12)

    def test_rejects_wrong_histogram_size(self):
        tmd = TMDConfig.uniform(4, efficiency=0.6)
        with pytest.raises(DomainError):
            invert_single(tmd, np.ones(4) / 4.0)

    def test_rejects_undetermined_truncation(self):
        tmd = TMDConfig.uniform(4, efficiency=0.6, n_max=6)
        with pytest.raises(TruncationError):
            invert_single(tmd, np.ones(5) / 5.0)

    def test_rejects_zero_efficiency(self):
        tmd = TMDConfig.uniform(4, efficiency=0.0)
        with pytest.raises(ConditioningError):
            invert_single(tmd, np.ones(5) / 5.0)

    def test_rejects_rank_deficient_bins(self):
        tmd = TMDConfig(np.array([0.5, 0.5, 0.0, 0.0]), efficiency=0.6, n_max=4)
        with pytest.raises(ConditioningError):
            invert_single(tmd, np.ones(5) / 5.0)


class TestInvertJoint:
    def test_roundtrip(self):
        tmd_s = TMDConfig.uniform(4, efficiency=0.5)
        tmd_i = TMDConfig.uniform(4, efficiency=0.3)
        joint = twin_beam_joint(poisson_dist(0.4, 4))
        rho = joint_forward(tmd_s, tmd_i, joint)
        result = invert_joint(tmd_s, tmd_i, rho)
        np.testing.assert_allclose(result.dist.probs, joint.probs, atol=1e-9)
        assert result.residual < 1e-9

    def test_counted_clicks(self):
        tmd = TMDConfig.uniform(2, efficiency=0.8)
        counts = np.array([[50, 10, 2], [12, 20, 3], [1, 1, 1]])
        result = invert_joint(tmd, tmd, ClickStatistics(counts, 100))
        assert result.dist.probs.shape == (3, 3)
        assert result.dist.probs.sum() == pytest.approx(1.0)

    def test_constrained_roundtrip(self):
        tmd = TMDConfig.uniform(2, efficiency=0.7)
        joint = twin_beam_joint(PhotonDistribution([0.7, 0.2, 0.1]))
        rho = joint_forward(tmd, tmd, joint)
        result = invert_joint(tmd, tmd, rho, constrained=True)
        assert result.method == "constrained"
        assert result.dist.probs.min() >= 0.0
        np.testing.assert_allclose(result.dist.probs, joint.probs, atol=1e-6)

    def test_rejects_shape_mismatch(self):
        tmd = TMDConfig.uniform(4, efficiency=0.5)
        with pytest.raises(DomainError):
            invert_joint(tmd, tmd, np.ones((5, 4)) / 20.0)

    @pytest.mark.parametrize("constrained", [False, True])
    def test_unequal_arms_factor_into_single_arm_inversions(self, constrained):
        # signal rows, idler columns: a product state on detectors that differ
        # in bins and efficiency must invert to the product of the marginals
        tmd_s = TMDConfig.uniform(3, efficiency=0.7)
        tmd_i = TMDConfig.uniform(2, efficiency=0.4)
        p_s = PhotonDistribution([0.5, 0.3, 0.15, 0.05])
        p_i = PhotonDistribution([0.6, 0.3, 0.1])
        joint = JointPhotonDistribution(np.outer(p_s.probs, p_i.probs))
        result = invert_joint(tmd_s, tmd_i, joint_forward(tmd_s, tmd_i, joint), constrained)
        single_s = invert_single(tmd_s, forward(tmd_s, p_s), constrained)
        single_i = invert_single(tmd_i, forward(tmd_i, p_i), constrained)
        assert result.dist.probs.shape == (4, 3)
        expected = np.outer(single_s.dist.probs, single_i.dist.probs)
        np.testing.assert_allclose(result.dist.probs, expected, atol=1e-6 if constrained else 1e-12)


class TestPropagateErrors:
    def test_zero_inputs_give_zero_covariance(self):
        tmd = TMDConfig.uniform(4, efficiency=0.5)
        rho = forward(tmd, thermal_dist(0.4, 4))
        cov = propagate_errors(tmd, rho, sigma_eta=0.0)
        np.testing.assert_array_equal(cov, 0.0)

    def test_symmetric_with_zero_row_sums(self):
        # renormalization pins total probability, so mass fluctuations
        # must cancel across each covariance row
        tmd = TMDConfig.uniform(4, efficiency=0.5)
        rho = forward(tmd, thermal_dist(0.4, 4))
        cov = propagate_errors(tmd, rho, sigma_eta=0.009, shots=100_000)
        np.testing.assert_allclose(cov, cov.T, atol=1e-18)
        np.testing.assert_allclose(cov @ np.ones(5), 0.0, atol=1e-12)
        eigenvalues = np.linalg.eigvalsh(cov)
        assert eigenvalues.min() > -1e-15

    def test_counting_term_scales_inversely_with_shots(self):
        tmd = TMDConfig.uniform(4, efficiency=0.5)
        rho = forward(tmd, thermal_dist(0.4, 4))
        small = propagate_errors(tmd, rho, sigma_eta=0.0, shots=100)
        large = propagate_errors(tmd, rho, sigma_eta=0.0, shots=10_000)
        np.testing.assert_allclose(small, 100.0 * large, atol=1e-15)

    def test_efficiency_term_matches_explicit_sensitivity(self):
        tmd = TMDConfig.uniform(4, efficiency=0.5)
        rho = forward(tmd, thermal_dist(0.4, 4))
        sigma = 0.009
        cov = propagate_errors(tmd, rho, sigma_eta=sigma)
        step = 1e-6
        p_hi = invert_single(tmd.with_efficiency(0.5 + step), rho).dist.probs
        p_lo = invert_single(tmd.with_efficiency(0.5 - step), rho).dist.probs
        sens = (p_hi - p_lo) / (2.0 * step)
        np.testing.assert_allclose(cov, sigma**2 * np.outer(sens, sens), atol=1e-12)

    def test_click_statistics_supply_the_shot_count(self):
        tmd = TMDConfig.uniform(4, efficiency=0.6)
        counts = np.array([500, 300, 150, 40, 10])
        clicks = ClickStatistics(counts, 1000)
        from_stats = propagate_errors(tmd, clicks, sigma_eta=0.0)
        from_exact = propagate_errors(tmd, clicks.frequencies, sigma_eta=0.0, shots=1000)
        np.testing.assert_allclose(from_stats, from_exact, atol=1e-18)

    def test_rejects_bad_arguments(self):
        tmd = TMDConfig.uniform(4, efficiency=0.5)
        rho = forward(tmd, thermal_dist(0.4, 4))
        with pytest.raises(DomainError):
            propagate_errors(tmd, rho, sigma_eta=-0.1)
        with pytest.raises(DomainError):
            propagate_errors(tmd, rho, sigma_eta=0.0, shots=0)

    def test_tiny_efficiency_cannot_be_differenced(self):
        tmd = TMDConfig.uniform(4, efficiency=5e-7)
        rho = forward(tmd, thermal_dist(0.4, 4))
        with pytest.raises(ConditioningError):
            propagate_errors(tmd, rho, sigma_eta=0.01)
