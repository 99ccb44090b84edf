"""Detector response matrices checked against brute-force enumeration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmdkit import (
    DomainError,
    JointPhotonDistribution,
    PhotonDistribution,
    TMDConfig,
    collective_forward,
    convolution_matrix,
    detector_response,
    forward,
    joint_forward,
    loss_matrix,
    twin_beam_joint,
)
from tmdkit.detector import MAX_BINS, _column_stochastic


def occupancy_by_enumeration(bin_probs, n):
    """P(c bins occupied | n photons) by summing over all K^n placements."""
    K = len(bin_probs)
    out = np.zeros(K + 1)
    for placement in itertools.product(range(K), repeat=n):
        weight = 1.0
        for bin_index in placement:
            weight *= bin_probs[bin_index]
        out[len(set(placement))] += weight
    return out


def stirling2(n, c):
    table = [[0] * (c + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, min(i, c) + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][c]


class TestConvolutionMatrix:
    @pytest.mark.parametrize("bin_probs", [
        [1.0],
        [0.5, 0.5],
        [0.7, 0.3],
        [0.5, 0.25, 0.25],
        [0.4, 0.3, 0.2, 0.1],
    ])
    def test_matches_enumeration(self, bin_probs):
        n_max = 5
        matrix = convolution_matrix(np.array(bin_probs), n_max)
        for n in range(n_max + 1):
            expected = occupancy_by_enumeration(bin_probs, n)
            np.testing.assert_allclose(matrix[:, n], expected, atol=1e-12)

    @pytest.mark.parametrize("bins", [2, 4, 8])
    def test_uniform_bins_match_stirling_form(self, bins):
        n_max = 8
        matrix = convolution_matrix(np.full(bins, 1.0 / bins), n_max)
        for n in range(n_max + 1):
            for c in range(bins + 1):
                if c > n:
                    expected = 0.0
                else:
                    ways = math.comb(bins, c) * math.factorial(c) * stirling2(n, c)
                    expected = ways / bins**n
                assert matrix[c, n] == pytest.approx(expected, abs=1e-12)

    def test_zero_photons_occupy_zero_bins(self):
        matrix = convolution_matrix(np.array([0.25, 0.75]), 4)
        assert matrix[0, 0] == 1.0
        assert matrix[1:, 0].max() == 0.0

    def test_columns_are_distributions(self):
        matrix = convolution_matrix(np.array([0.2, 0.3, 0.5]), 7)
        np.testing.assert_allclose(matrix.sum(axis=0), 1.0, atol=1e-12)
        assert matrix.min() >= 0.0

    def test_rejects_unnormalized_probs(self):
        with pytest.raises(DomainError):
            convolution_matrix(np.array([0.5, 0.4]), 3)

    def test_rejects_too_many_bins(self):
        bins = MAX_BINS + 1
        with pytest.raises(DomainError, match="MAX_BINS"):
            convolution_matrix(np.full(bins, 1.0 / bins), 2)


class TestLossMatrix:
    def test_entries_are_binomial(self):
        eta = 0.3
        matrix = loss_matrix(eta, 4)
        for m in range(5):
            for n in range(5):
                expected = math.comb(m, n) * eta**n * (1 - eta) ** (m - n) if n <= m else 0.0
                assert matrix[n, m] == pytest.approx(expected, abs=1e-14)

        # scipy is the reference here only; tmdkit builds the matrix without it
        from scipy.stats import binom

        for eta in (0.0274, 0.3, 0.97):
            for n_max in (4, 20, 60):
                matrix = loss_matrix(eta, n_max)
                idx = np.arange(n_max + 1)
                expected = binom.pmf(idx[:, None], idx[None, :], eta)
                resolved = expected > 1e-250
                np.testing.assert_allclose(
                    matrix[resolved], expected[resolved], rtol=1e-12, err_msg=f"{eta=} {n_max=}"
                )
                # n > m: more survivors than photons is impossible, exactly
                assert not matrix[np.tril_indices(n_max + 1, -1)].any(), f"{eta=} {n_max=}"

    def test_unit_efficiency_is_identity(self):
        np.testing.assert_array_equal(loss_matrix(1.0, 6), np.eye(7))

    def test_zero_efficiency_loses_everything(self):
        matrix = loss_matrix(0.0, 3)
        np.testing.assert_array_equal(matrix[0], np.ones(4))
        assert matrix[1:].max() == 0.0

    def test_rejects_bad_efficiency(self):
        with pytest.raises(DomainError):
            loss_matrix(1.2, 3)
        with pytest.raises(DomainError):
            loss_matrix(-0.1, 3)


class TestTMDConfig:
    def test_uniform_constructor(self):
        tmd = TMDConfig.uniform(4, efficiency=0.5)
        assert tmd.bins == 4
        assert tmd.n_max == 4
        np.testing.assert_allclose(tmd.bin_probs, 0.25)

    def test_with_efficiency_keeps_geometry(self):
        tmd = TMDConfig.uniform(8, efficiency=0.2, n_max=6)
        other = tmd.with_efficiency(0.9)
        assert other.efficiency == 0.9
        assert other.n_max == 6
        np.testing.assert_array_equal(other.bin_probs, tmd.bin_probs)

    def test_equality_is_by_value(self):
        assert TMDConfig.uniform(2, efficiency=0.5) == TMDConfig.uniform(2, efficiency=0.5)
        assert TMDConfig.uniform(2, efficiency=0.5) != TMDConfig.uniform(2, efficiency=0.6)

    def test_rejects_bad_bin_probs(self):
        with pytest.raises(DomainError):
            TMDConfig(np.array([0.9, 0.2]), 1.0, 2)
        with pytest.raises(DomainError):
            TMDConfig(np.array([-0.5, 1.5]), 1.0, 2)

    def test_rejects_bad_efficiency(self):
        with pytest.raises(DomainError):
            TMDConfig(np.array([1.0]), 1.5, 1)

    def test_bin_probs_are_immutable(self):
        tmd = TMDConfig.uniform(3)
        with pytest.raises(ValueError):
            tmd.bin_probs[0] = 0.9


class TestDetectorMatrix:
    def test_composite_is_product_of_stages(self):
        tmd = TMDConfig.uniform(4, efficiency=0.35, n_max=4)
        conv = convolution_matrix(tmd.bin_probs, 4)
        loss = loss_matrix(0.35, 4)
        np.testing.assert_allclose(detector_response(tmd), conv @ loss, atol=1e-15)

    def test_clicks_never_exceed_photons(self):
        matrix = detector_response(TMDConfig.uniform(5, efficiency=0.8))
        for c in range(6):
            for n in range(6):
                if c > n:
                    assert matrix[c, n] == 0.0

    def test_rejects_non_stochastic_matrix(self):
        with pytest.raises(DomainError):
            _column_stochastic(np.array([[0.5, 0.2], [0.2, 0.2]]))


class TestForward:
    def test_two_bin_example(self):
        # two photons collide in the same bin half the time
        tmd = TMDConfig.uniform(2, efficiency=1.0)
        clicks = forward(tmd, PhotonDistribution([0.25, 0.5, 0.25]))
        np.testing.assert_allclose(clicks.probs, [0.25, 0.625, 0.125], atol=1e-15)

    def test_short_input_is_padded(self):
        tmd = TMDConfig.uniform(4, efficiency=0.6)
        a = forward(tmd, PhotonDistribution([0.5, 0.5]))
        b = forward(tmd, PhotonDistribution([0.5, 0.5, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(a.probs, b.probs, atol=1e-15)

    def test_rejects_input_beyond_n_max(self):
        tmd = TMDConfig.uniform(2, efficiency=1.0)
        with pytest.raises(DomainError, match="beyond detector n_max"):
            forward(tmd, PhotonDistribution(np.full(5, 0.2)))

    @given(st.integers(0, 6), st.floats(0.05, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_fock_input_clicks_bounded_by_photons(self, n, eta):
        tmd = TMDConfig.uniform(8, efficiency=eta)
        probs = np.zeros(9)
        probs[n] = 1.0
        clicks = forward(tmd, PhotonDistribution(probs))
        assert clicks.probs[n + 1 :].max(initial=0.0) == 0.0
        assert clicks.probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestJointForward:
    def test_factorizes_for_product_states(self):
        tmd_s = TMDConfig.uniform(3, efficiency=0.7)
        tmd_i = TMDConfig.uniform(2, efficiency=0.4)
        p = PhotonDistribution([0.6, 0.3, 0.1])
        q = PhotonDistribution([0.8, 0.2])
        joint = JointPhotonDistribution(np.outer(p.probs, q.probs))
        result = joint_forward(tmd_s, tmd_i, joint)
        expected = np.outer(forward(tmd_s, p).probs, forward(tmd_i, q).probs)
        np.testing.assert_allclose(result.probs, expected, atol=1e-14)

    def test_rejects_joint_beyond_detector(self):
        tmd = TMDConfig.uniform(2, efficiency=1.0)
        joint = JointPhotonDistribution(np.full((4, 4), 1 / 16))
        with pytest.raises(DomainError):
            joint_forward(tmd, tmd, joint)


class TestCollectiveForward:
    def test_lossless_two_bin_example(self):
        # one pair always: two photons in two bins collide half the time
        tmd = TMDConfig.uniform(2, efficiency=1.0)
        joint = twin_beam_joint(PhotonDistribution([0.5, 0.5]))
        clicks = collective_forward(tmd, joint, 1.0, 1.0)
        np.testing.assert_allclose(clicks.probs, [0.5, 0.25, 0.25], atol=1e-15)

    def test_equal_losses_act_on_the_doubled_photon_number(self):
        # two independent Binomial(k, eta) thinnings of k pairs add up to a
        # Binomial(2k, eta) on the combined photon number
        pair = PhotonDistribution([0.7, 0.2, 0.1])
        joint = twin_beam_joint(pair)
        eta = 0.6
        tmd = TMDConfig.uniform(4, efficiency=1.0)
        doubled = np.zeros(5)
        doubled[0::2] = pair.probs
        survivors = loss_matrix(eta, 4) @ doubled
        direct = convolution_matrix(tmd.bin_probs, 4) @ survivors
        via_api = collective_forward(tmd, joint, eta, eta)
        np.testing.assert_allclose(via_api.probs, direct, atol=1e-14)
