"""Inversion of the click model and its error analysis."""

import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmdkit import (
    ClickStatistics,
    ConditioningError,
    DegenerateConditionError,
    DomainError,
    JointPhotonDistribution,
    NumericalError,
    PhotonDistribution,
    TMDConfig,
    TruncationError,
    collective_forward,
    detector_response,
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
from tmdkit import reconstruct
from tmdkit.detector import MAX_BINS

SRC = Path(__file__).resolve().parents[1] / "src"


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
            assert result.residual < 1e-10

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
        with pytest.raises(DomainError):
            invert_single(tmd, np.zeros(5))

    @pytest.mark.parametrize("constrained", [False, True])
    def test_raw_count_array_matches_click_statistics(self, constrained):
        # a bare array carries no shot count, so its counts are scaled like a histogram's
        tmd = TMDConfig.uniform(8, efficiency=0.3)
        law = forward(tmd, thermal_dist(0.8, 8)).probs
        counts = np.random.default_rng(3).multinomial(1_000_000, law / law.sum())
        bare = invert_single(tmd, counts, constrained)
        counted = invert_single(tmd, ClickStatistics(counts, 1_000_000), constrained)
        np.testing.assert_array_equal(bare.dist.probs, counted.dist.probs)
        assert bare.residual == counted.residual

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
        assert result.dist.probs.min() >= 0.0
        np.testing.assert_allclose(result.dist.probs, joint.probs, atol=1e-6)

    def test_rejects_shape_mismatch(self):
        tmd = TMDConfig.uniform(4, efficiency=0.5)
        with pytest.raises(DomainError):
            invert_joint(tmd, tmd, np.ones((5, 4)) / 20.0)

    @pytest.mark.parametrize("constrained", [False, True])
    def test_raw_count_matrix_matches_click_statistics(self, constrained):
        tmd_s, tmd_i = TMDConfig.uniform(4, efficiency=0.5), TMDConfig.uniform(4, efficiency=0.3)
        law = joint_forward(tmd_s, tmd_i, twin_beam_joint(thermal_dist(0.6, 4))).probs
        rng = np.random.default_rng(5)
        counts = rng.multinomial(1_000_000, law.ravel() / law.sum()).reshape(law.shape)
        bare = invert_joint(tmd_s, tmd_i, counts, constrained)
        counted = invert_joint(tmd_s, tmd_i, ClickStatistics(counts, 1_000_000), constrained)
        np.testing.assert_array_equal(bare.dist.probs, counted.dist.probs)
        assert bare.residual == counted.residual

    def test_counted_8_bin_estimate_is_flagged_not_rejected(self):
        # seed 57 gives entries near 1e7 whose renormalized sum misses 1 by
        # 1.6e-9, the rounding of that sum; a flat 1e-9 tolerance raised here
        rng = np.random.default_rng(57)
        eta_s, eta_i = rng.uniform(0.2, 0.6, size=2)
        joint = twin_beam_joint(thermal_dist(rng.uniform(0.2, 1.5), 16))
        deep = [TMDConfig(np.full(8, 0.125), eta, 16) for eta in (eta_s, eta_i)]
        law = joint_forward(*deep, joint).probs
        counts = rng.multinomial(1_000_000, law.ravel() / law.sum()).reshape(law.shape)
        tmd_s, tmd_i = (TMDConfig.uniform(8, efficiency=eta) for eta in (eta_s, eta_i))
        result = invert_joint(tmd_s, tmd_i, ClickStatistics(counts, 1_000_000))
        assert np.abs(result.dist.probs).max() > 1e6
        assert not result.dist.is_physical

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

    @pytest.mark.parametrize("counted", [False, True], ids=["exact", "counted"])
    @pytest.mark.parametrize("n_max", [8, 5], ids=["square", "rectangular"])
    @pytest.mark.parametrize("eta", [0.0274, 0.5, 0.97])
    def test_efficiency_term_matches_explicit_sensitivity(self, eta, n_max, counted):
        # the closed form against a central difference of the direct inverse
        bin_probs = np.full(8, 0.125)
        rho = forward(TMDConfig(bin_probs, eta, 8), thermal_dist(0.4, 8)).probs
        if counted:
            # frequencies, not ClickStatistics, so that no counting term enters
            rho = np.random.default_rng(7).multinomial(1_000_000, rho / rho.sum()) / 1e6
        sigma = 0.009
        cov = propagate_errors(TMDConfig(bin_probs, eta, n_max), rho, sigma_eta=sigma)
        step = 1e-6 * eta
        p_hi = invert_single(TMDConfig(bin_probs, eta + step, n_max), rho).dist.probs
        p_lo = invert_single(TMDConfig(bin_probs, eta - step, n_max), rho).dist.probs
        sens = (p_hi - p_lo) / (2.0 * step)
        expected = sigma**2 * np.outer(sens, sens)
        # relative to the largest entry: the difference quotient of entries
        # near zero is rounding noise of the inverse divided by the step
        np.testing.assert_allclose(cov, expected, rtol=0.0, atol=1e-7 * np.abs(expected).max())

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
        # a histogram carries its own shot count, which ``shots`` must not override
        clicks = ClickStatistics(np.array([500, 300, 150, 40, 10]), 1000)
        with pytest.raises(DomainError):
            propagate_errors(tmd, clicks, sigma_eta=0.0, shots=100)

    def test_tiny_efficiency_has_finite_covariance(self):
        tmd = TMDConfig.uniform(4, efficiency=5e-7)
        rho = forward(tmd, thermal_dist(0.4, 4))
        cov = propagate_errors(tmd, rho, sigma_eta=1e-7)
        assert np.all(np.isfinite(cov))
        assert np.diag(cov).max() > 0.0


class TestModelMemo:
    """Every inversion of one detector object shares the model it built once."""

    @staticmethod
    def analyse(tmd: TMDConfig) -> list:
        truth = thermal_dist(0.4, 4)
        rho = forward(tmd, truth)
        clicks = ClickStatistics(np.array([500, 300, 150, 40, 10]), 1000)
        joint = joint_forward(tmd, tmd, twin_beam_joint(truth))
        return [
            rho.probs,
            invert_single(tmd, clicks).dist.probs,
            invert_single(tmd, clicks, constrained=True).dist.probs,
            propagate_errors(tmd, clicks, sigma_eta=0.009),
            invert_joint(tmd, tmd, joint).dist.probs,
        ]

    def test_one_detector_builds_each_stage_once(self, stage_builds):
        tmd = TMDConfig.uniform(4, efficiency=0.5)
        self.analyse(tmd)
        self.analyse(tmd)
        assert stage_builds == {"convolution_matrix": 1, "loss_matrix": 1}

    def test_reused_detector_gives_the_bits_of_fresh_ones(self):
        tmd = TMDConfig.uniform(4, efficiency=0.5)
        self.analyse(tmd)
        again = self.analyse(tmd)
        fresh = self.analyse(TMDConfig.uniform(4, efficiency=0.5))
        for reused, new in zip(again, fresh):
            np.testing.assert_array_equal(reused, new)

    @pytest.mark.parametrize("tmd, error", [
        (TMDConfig.uniform(4, efficiency=0.6, n_max=6), TruncationError),
        (TMDConfig.uniform(4, efficiency=0.0), ConditioningError),
    ], ids=["truncation", "zero-efficiency"])
    def test_failed_checks_raise_on_every_call(self, tmd, error):
        rho = np.ones(5) / 5.0
        # the forward model of such a detector exists, so its model is cached
        forward(tmd, PhotonDistribution(np.full(tmd.n_max + 1, 1.0 / (tmd.n_max + 1))))
        for _ in range(3):
            with pytest.raises(error):
                invert_single(tmd, rho)
            with pytest.raises(error):
                invert_single(tmd, rho, constrained=True)
            with pytest.raises(error):
                propagate_errors(tmd, rho, sigma_eta=0.009)
            with pytest.raises(error):
                invert_joint(tmd, tmd, np.ones((5, 5)) / 25.0)


@st.composite
def _detectors(draw) -> TMDConfig:
    """A detector of 1 to MAX_BINS bins, some maybe empty, efficiency in (0, 1], n_max up to its bins."""
    bins = draw(st.integers(1, MAX_BINS))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=bins, max_size=bins)))
    if not weights.any():
        weights[0] = 1.0
    eta = draw(st.floats(0.0, 1.0, exclude_min=True))
    return TMDConfig(weights / weights.sum(), eta, draw(st.integers(0, bins)))


class TestRandomDetectors:
    """The inversion's invariants on drawn detectors (derandomized, so tier-1 stays fixed)."""

    @given(
        tmd=_detectors(),
        weights=st.lists(st.floats(0.0, 1.0), min_size=MAX_BINS + 1, max_size=MAX_BINS + 1),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_forward_then_invert_recovers_the_law(self, tmd, weights):
        conv, loss, response = tmd._model
        # the inversion reads the product from the model: it must be the product's bits
        np.testing.assert_array_equal(conv @ loss, detector_response(tmd))
        law = np.array(weights[: tmd.n_max + 1])
        if not law.any():
            law[0] = 1.0
        law /= law.sum()
        clicks = forward(tmd, PhotonDistribution(law))
        if tmd.n_max > np.count_nonzero(tmd.bin_probs):
            with pytest.raises(ConditioningError):
                invert_single(tmd, clicks)
            return
        # a backward-stable solve recovers the law to within rounding times the
        # response's condition number, which low efficiency and small bins inflate
        tolerance = tmd.bins * np.finfo(float).eps * np.linalg.cond(response)
        if tolerance < 1.0:
            recovered = invert_single(tmd, clicks).dist.probs
            assert np.abs(recovered - law).max() <= tolerance


def _counted(law: np.ndarray, shots: int = 100_000, seed: int = 11) -> ClickStatistics:
    counts = np.random.default_rng(seed).multinomial(shots, law.ravel() / law.sum())
    return ClickStatistics(counts.reshape(law.shape), shots)


def _log_likelihood(composite: np.ndarray, freq: np.ndarray, probs: np.ndarray) -> float:
    """sum f log(A p) over the cells with clicks; -inf when such a cell gets no probability."""
    seen = freq > 0.0
    clicks = composite[seen] @ probs
    return float(freq[seen] @ np.log(clicks)) if clicks.min() > 0.0 else -math.inf


def _certificate(composite: np.ndarray, freq: np.ndarray, probs: np.ndarray) -> float:
    """max_j (A^T (f / A p))_j - 1 over the cells with clicks, computed here from scratch."""
    seen = freq > 0.0
    return float(((freq[seen] / (composite[seen] @ probs)) @ composite[seen]).max()) - 1.0


def _case(kind: str, counted: bool):
    """Detectors, clicks and the composite response of one inversion the MLE must certify."""
    deep = 16 if counted else None
    if kind in ("square", "rectangular"):
        tmd = TMDConfig(np.full(8, 0.125), 0.2 if kind == "square" else 0.4, 8 if kind == "square" else 4)
        source = TMDConfig(tmd.bin_probs, tmd.efficiency, deep or tmd.n_max)
        law = forward(source, thermal_dist(0.8 if counted else 0.3, source.n_max)).probs
        tmds = (tmd,)
    elif kind == "joint":
        tmds = (TMDConfig.uniform(4, efficiency=0.3), TMDConfig.uniform(4, efficiency=0.5))
        sources = [TMDConfig(tmd.bin_probs, tmd.efficiency, deep or tmd.n_max) for tmd in tmds]
        law = joint_forward(*sources, twin_beam_joint(thermal_dist(0.8 if counted else 0.5, sources[0].n_max))).probs
    else:
        # both arms of a twin beam into one detector, at equal efficiency so the model is exact
        tmd = TMDConfig.uniform(8, efficiency=0.3)
        source = TMDConfig(tmd.bin_probs, tmd.efficiency, deep or tmd.n_max)
        law = collective_forward(source, twin_beam_joint(poisson_dist(0.6, 8 if counted else 4)), 0.3, 0.3).probs
        tmds = (tmd,)
    clicks = _counted(law) if counted else (JointPhotonDistribution(law) if law.ndim == 2 else PhotonDistribution(law))
    composite = functools.reduce(np.kron, [detector_response(tmd) for tmd in tmds])
    freq = (clicks.frequencies if counted else clicks.probs).ravel()
    return tmds, clicks, composite, freq


def _invert_case(tmds, clicks, constrained: bool = True):
    if len(tmds) == 2:
        return invert_joint(*tmds, clicks, constrained=constrained)
    return invert_single(tmds[0], clicks, constrained=constrained)


class TestMaximumLikelihood:
    """The constrained estimate is the multinomial MLE, returned only with its certificate."""

    @pytest.mark.parametrize("counted", [False, True], ids=["exact", "counted"])
    @pytest.mark.parametrize("kind", ["square", "rectangular", "joint", "merged"])
    def test_gap_is_certified(self, kind, counted):
        tmds, clicks, composite, freq = _case(kind, counted)
        result = _invert_case(tmds, clicks)
        probs = result.dist.probs.ravel()
        assert probs.min() >= 0.0 and probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert result.duality_gap <= reconstruct.MLE_GAP
        if counted:
            # counting noise pushes the direct inverse negative, so the solver iterates
            assert result.newton_steps > 0
            if kind == "rectangular":
                # clicks past the 4-photon cutoff, which the model cannot produce, are left out
                assert clicks.counts[5:].sum() > 0
                freq = np.where(np.arange(freq.size) <= 4, freq, 0.0)
                freq /= freq.sum()
        # the certificate holds when recomputed from the detector model alone
        assert _certificate(composite, freq, probs) <= reconstruct.MLE_GAP + 1e-14

    @pytest.mark.parametrize("kind", ["square", "rectangular", "joint", "merged"])
    def test_exact_law_takes_the_clipped_direct_inverse(self, kind):
        tmds, clicks, _, _ = _case(kind, counted=False)
        direct = _invert_case(tmds, clicks, constrained=False)
        result = _invert_case(tmds, clicks)
        assert result.newton_steps == 0
        clipped = np.maximum(direct.dist.probs.ravel(), 0.0)
        np.testing.assert_array_equal(result.dist.probs.ravel(), clipped / clipped.sum())

    def test_direct_results_carry_no_certificate(self):
        tmds, clicks, _, _ = _case("square", counted=True)
        direct = _invert_case(tmds, clicks, constrained=False)
        assert direct.duality_gap is None and direct.newton_steps is None

    @given(
        bins=st.integers(2, 8),
        cut=st.integers(0, 2),
        eta=st.floats(0.05, 0.95),
        mean=st.floats(0.1, 2.0),
        shots=st.sampled_from([200, 10_000, 1_000_000]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_no_estimate_is_more_likely(self, bins, cut, eta, mean, shots, seed):
        # scipy is the reference here only: its non-negative least squares, the
        # estimate this solver replaced, and the clipped direct inverse
        from scipy.optimize import nnls

        tmd = TMDConfig(np.full(bins, 1.0 / bins), eta, max(1, bins - cut))
        source = TMDConfig(tmd.bin_probs, eta, 12)
        clicks = _counted(forward(source, thermal_dist(mean, 12)).probs, shots, seed)
        composite = detector_response(tmd)
        freq = clicks.frequencies
        # the likelihood of the cells the model can produce, which the MLE maximizes
        freq = np.where(composite.any(axis=1), freq, 0.0)
        if not freq.any():
            return
        freq /= freq.sum()
        mle = invert_single(tmd, clicks, constrained=True).dist.probs
        direct = np.maximum(invert_single(tmd, clicks).dist.probs, 0.0)
        reference, _ = nnls(np.vstack([composite, np.ones(composite.shape[1])]), np.append(clicks.frequencies, 1.0))
        best = _log_likelihood(composite, freq, mle)
        for other in (direct / direct.sum(), reference / reference.sum()):
            assert best >= _log_likelihood(composite, freq, other) - 1e-10

    def test_step_cap_raises(self, monkeypatch):
        tmds, clicks, _, _ = _case("square", counted=True)
        steps = _invert_case(tmds, clicks).newton_steps
        monkeypatch.setattr(reconstruct, "MLE_MAX_STEPS", steps - 1)
        with pytest.raises(NumericalError, match="not certified"):
            _invert_case(tmds, clicks)
        monkeypatch.setattr(reconstruct, "MLE_MAX_STEPS", steps)
        assert _invert_case(tmds, clicks).newton_steps == steps

    def test_constrained_joint_loads_no_scipy(self):
        # a fresh interpreter, so modules the test session already holds do not count
        probe = (
            "import json, sys, numpy as np, tmdkit as tk\n"
            "tmd = tk.TMDConfig.uniform(4, efficiency=0.4)\n"
            "counts = np.array([[60, 9, 3, 1, 0], [8, 7, 2, 0, 0], [3, 2, 1, 1, 0],"
            " [1, 0, 1, 0, 0], [0, 0, 0, 0, 1]])\n"
            "result = tk.invert_joint(tmd, tmd, tk.ClickStatistics(counts, 100), constrained=True)\n"
            "assert result.newton_steps > 0\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        scipy = [m for m in json.loads(done.stdout) if m == "scipy" or m.startswith("scipy.")]
        assert scipy == [], f"a constrained inversion loaded {len(scipy)} scipy modules, e.g. {scipy[:5]}"
