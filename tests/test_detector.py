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
from tmdkit.detector import MAX_BINS, MAX_PHOTONS, _column_stochastic


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

    @pytest.mark.parametrize("bins", [2, 4, 8, 13, 20, 32])
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

        # non-uniform splittings of 11-20 bins
        rng = np.random.default_rng(16)
        for bins in range(11, 21):
            for _ in range(8):
                matrix = convolution_matrix(rng.dirichlet(np.full(bins, 2.0)), bins)
                np.testing.assert_allclose(matrix.sum(axis=0), 1.0, atol=1e-12)
                assert matrix.min() >= 0.0

    def test_large_cutoff_stays_stochastic(self):
        bins, n_max = 13, 1100
        matrix = convolution_matrix(np.full(bins, 1.0 / bins), n_max)
        assert np.isfinite(matrix).all()
        np.testing.assert_allclose(matrix.sum(axis=0), 1.0, atol=1e-12)
        # n photons cannot occupy more than n bins, exactly
        c, n = np.indices(matrix.shape)
        assert not matrix[c > n].any()

    @pytest.mark.parametrize("bin_probs, zero_at", [
        ([0.0, 0.5, 0.3, 0.2], 0),
        ([0.5, 0.0, 0.3, 0.2], 1),
        ([0.5, 0.3, 0.0, 0.2], 2),
    ], ids=["first", "second", "third"])
    def test_empty_bin_adds_an_empty_row(self, bin_probs, zero_at):
        # a bin no photon reaches is never occupied, and changes no other entry
        n_max = 6
        matrix = convolution_matrix(np.array(bin_probs), n_max)
        without = convolution_matrix(np.delete(bin_probs, zero_at), n_max)
        np.testing.assert_array_equal(matrix, np.vstack([without, np.zeros(n_max + 1)]))

    def test_rejects_unnormalized_probs(self):
        with pytest.raises(DomainError):
            convolution_matrix(np.array([0.5, 0.4]), 3)

    def test_rejects_too_many_bins(self):
        bins = MAX_BINS + 1
        with pytest.raises(DomainError, match="MAX_BINS"):
            convolution_matrix(np.full(bins, 1.0 / bins), 2)

    @pytest.mark.parametrize("n_max", [2.5, 4.0, True, "4", -1])
    def test_cutoff_must_be_a_non_negative_integer(self, n_max):
        # no 5x3 matrix for a cutoff of 2.5, and no 5x2 one for True
        with pytest.raises(DomainError, match=r"^n_max must be a non-negative integer$"):
            convolution_matrix(np.full(4, 0.25), n_max)

    def test_cutoff_has_no_config_bound(self):
        # only a config-built detector stops at MAX_PHOTONS
        assert convolution_matrix(np.array([1.0]), MAX_PHOTONS + 1).shape == (2, MAX_PHOTONS + 2)


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

    @pytest.mark.parametrize("n_max", [2.5, 4.0, True, "4", -1])
    def test_cutoff_must_be_a_non_negative_integer(self, n_max):
        with pytest.raises(DomainError, match=r"^n_max must be a non-negative integer$"):
            loss_matrix(0.5, n_max)


class TestTMDConfig:
    def test_uniform_constructor(self):
        tmd = TMDConfig.uniform(4, efficiency=0.5)
        assert tmd.bins == 4
        assert tmd.n_max == 4
        np.testing.assert_allclose(tmd.bin_probs, 0.25)

    def test_equality_is_by_value(self):
        assert TMDConfig.uniform(2, efficiency=0.5) == TMDConfig.uniform(2, efficiency=0.5)
        assert TMDConfig.uniform(2, efficiency=0.5) != TMDConfig.uniform(2, efficiency=0.6)

    def test_rejects_bad_bin_probs(self):
        with pytest.raises(DomainError):
            TMDConfig(np.array([0.9, 0.2]), 1.0, 2)
        with pytest.raises(DomainError):
            TMDConfig(np.array([-0.5, 1.5]), 1.0, 2)
        # one bin per bit of a uint32 click mask
        with pytest.raises(DomainError, match=r"^bins must be at most 32$"):
            TMDConfig.uniform(MAX_BINS + 1)
        with pytest.raises(DomainError, match=r"^bin_probs has 33 entries, more than MAX_BINS=32$"):
            TMDConfig(np.full(MAX_BINS + 1, 1.0 / (MAX_BINS + 1)), 1.0, 2)
        with pytest.raises(DomainError, match=r"^bin_probs must be a non-empty 1-d vector$"):
            TMDConfig(np.full((2, 2), 0.25), 1.0, 2)

    def test_rejects_bad_efficiency(self):
        with pytest.raises(DomainError):
            TMDConfig(np.array([1.0]), 1.5, 1)
        # a string or a bool is no efficiency, as in a config file
        for efficiency in ("0.5", True):
            with pytest.raises(DomainError, match=r"^efficiency must be a number$"):
                TMDConfig.uniform(8, efficiency)

    @pytest.mark.parametrize("bins", [2.5, True, "4", 0])
    def test_bins_must_be_a_positive_integer(self, bins):
        with pytest.raises(DomainError, match=r"^bins must be a positive integer$"):
            TMDConfig.uniform(bins)

    def test_cutoff_is_bounded_like_a_config_file(self):
        # so every detector's n_max reads back from the config.json it writes
        assert TMDConfig.uniform(1, n_max=MAX_PHOTONS).n_max == MAX_PHOTONS
        for n_max, message in ((-1, "a non-negative integer"), (MAX_PHOTONS + 1, "at most 4096")):
            with pytest.raises(DomainError, match=f"^n_max must be {message}$"):
                TMDConfig(np.array([1.0]), 0.117, n_max)

    @pytest.mark.parametrize("n_max", [2.7, 4.0, float("inf"), float("nan"), True, "4"])
    def test_cutoff_must_be_an_integer(self, n_max):
        # no silent truncation to 2, and no OverflowError from int(inf)
        with pytest.raises(DomainError, match=r"^n_max must be a non-negative integer$"):
            TMDConfig.uniform(4, 0.5, n_max=n_max)

    def test_numpy_integer_cutoff(self):
        tmd = TMDConfig.uniform(4, 0.5, n_max=np.int64(6))
        assert tmd.n_max == 6 and type(tmd.n_max) is int

    def test_bin_probs_are_immutable(self):
        tmd = TMDConfig.uniform(3)
        with pytest.raises(ValueError):
            tmd.bin_probs[0] = 0.9


class TestModelMemo:
    """A detector builds its model on first use, once, and never at construction."""

    def test_construction_builds_nothing(self, stage_builds):
        tmds = [
            TMDConfig(np.full(1 + i % 8, 1.0 / (1 + i % 8)), i / 999.0, i % 12)
            for i in range(1000)
        ]
        assert stage_builds == {"convolution_matrix": 0, "loss_matrix": 0}
        # the counters do see a build once the model is used
        detector_response(tmds[-1])
        assert stage_builds == {"convolution_matrix": 1, "loss_matrix": 1}

    def test_response_is_built_once(self, stage_builds):
        tmd = TMDConfig.uniform(4, efficiency=0.35)
        first = detector_response(tmd)
        forward(tmd, PhotonDistribution(np.full(5, 0.2)))
        assert detector_response(tmd) is first
        assert stage_builds == {"convolution_matrix": 1, "loss_matrix": 1}

    def test_model_matches_the_public_stages(self):
        tmd = TMDConfig(np.array([0.5, 0.3, 0.2]), 0.4, 5)
        conv, loss, response = tmd._model
        np.testing.assert_array_equal(conv, convolution_matrix(tmd.bin_probs, 5))
        np.testing.assert_array_equal(loss, loss_matrix(0.4, 5))
        np.testing.assert_array_equal(response, _column_stochastic(conv @ loss))

    def test_model_is_read_only(self):
        tmd = TMDConfig.uniform(4, efficiency=0.6)
        for matrix in (*tmd._model, detector_response(tmd)):
            with pytest.raises(ValueError):
                matrix[0, 0] = 0.5


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
