"""Pair sources and reference distributions."""

import math

import numpy as np
import pytest
from scipy.stats import nbinom

from tmdkit import (
    DomainError,
    PhotonDistribution,
    SourceModel,
    fock_dist,
    moment,
    multimode_pair_dist,
    poisson_dist,
    thermal_dist,
    twin_beam_joint,
)
from tmdkit import sources
from tmdkit.detector import MAX_PHOTONS, _combine_collective
from tmdkit.stats import default_n_max, thermal_probs


class TestReferenceDistributions:
    def test_thermal_mean(self):
        dist = thermal_dist(0.8, 60)
        assert dist.mean == pytest.approx(0.8, abs=1e-9)

    def test_poisson_mean_and_variance(self):
        dist = poisson_dist(1.5, 60)
        assert dist.mean == pytest.approx(1.5, abs=1e-9)
        var = moment(dist, 2) - dist.mean**2
        assert var == pytest.approx(1.5, abs=1e-8)

    def test_default_cutoff(self):
        for mean in (0.0, 0.5, 2.0):
            assert poisson_dist(mean).probs.size == default_n_max(mean) + 1

    def test_default_truncation_is_generous(self):
        dist = thermal_dist(2.0)
        assert dist.probs[-1] < 1e-7
        assert dist.mean == pytest.approx(2.0, abs=1e-5)

    def test_fock_is_a_spike(self):
        dist = fock_dist(3)
        np.testing.assert_array_equal(dist.probs, [0, 0, 0, 1])

    def test_fock_vacuum_keeps_two_entries(self):
        assert fock_dist(0).n_max == 1

    def test_fock_rejects_bad_values(self):
        with pytest.raises(DomainError):
            fock_dist(-1)
        with pytest.raises(DomainError, match=r"^photons 5 exceeds n_max=3$"):
            fock_dist(5, n_max=3)
        with pytest.raises(DomainError, match=r"^photons must be a non-negative integer$"):
            fock_dist(1.0)

    @pytest.mark.parametrize("n_max", [2.5, 4.0, True, "4", -1])
    @pytest.mark.parametrize("build", [
        lambda n_max: thermal_dist(0.5, n_max),
        lambda n_max: poisson_dist(0.5, n_max),
        lambda n_max: multimode_pair_dist(2, 0.5, n_max),
        lambda n_max: fock_dist(1, n_max),
    ], ids=["thermal", "poisson", "multimode", "fock"])
    def test_cutoff_must_be_a_non_negative_integer(self, build, n_max):
        # a thermal cutoff of 2.5 built 4 entries; the others raised numpy's TypeError
        with pytest.raises(DomainError, match=r"^n_max must be a non-negative integer$"):
            build(n_max)

    def test_cutoff_has_no_config_bound(self):
        # only a source that records its parameters stops at MAX_PHOTONS
        assert thermal_dist(0.5, MAX_PHOTONS + 1).n_max == MAX_PHOTONS + 1
        assert fock_dist(MAX_PHOTONS + 1).n_max == MAX_PHOTONS + 1


class TestConvolve:
    def test_sum_of_focks(self):
        total = np.convolve(fock_dist(2).probs, fock_dist(3).probs)
        np.testing.assert_array_equal(total, fock_dist(5).probs)

    def test_poisson_closed_under_convolution(self):
        a = poisson_dist(0.7, 40)
        b = poisson_dist(1.1, 40)
        total = np.convolve(a.probs, b.probs)
        np.testing.assert_allclose(total[:41], poisson_dist(1.8, 40).probs, atol=1e-9)


class TestMultimodePairs:
    def test_one_mode_is_thermal(self):
        np.testing.assert_allclose(
            multimode_pair_dist(1, 0.9, 30).probs, thermal_probs(0.9, 30), atol=1e-12
        )

    def test_matches_explicit_mode_convolution(self):
        modes, total_mean, n_max = 4, 1.2, 25
        per_mode = thermal_probs(total_mean / modes, n_max)
        acc = per_mode
        for _ in range(modes - 1):
            acc = np.convolve(acc, per_mode)
        expected = acc[: n_max + 1]
        np.testing.assert_allclose(
            multimode_pair_dist(modes, total_mean, n_max).probs,
            expected / expected.sum(),
            atol=1e-10,
        )

    def test_matches_negative_binomial(self):
        p = multimode_pair_dist(6, 2.0, 40).probs
        raw = nbinom.pmf(np.arange(41), 6, 1.0 / (1.0 + 2.0 / 6.0))
        np.testing.assert_allclose(p, raw / raw.sum(), atol=1e-12)

    def test_many_modes_approach_poissonian(self):
        approx = multimode_pair_dist(400, 1.0, 20).probs
        target = poisson_dist(1.0, 20).probs
        assert np.abs(approx - target).max() < 2e-3

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            multimode_pair_dist(0, 1.0)
        with pytest.raises(DomainError):
            multimode_pair_dist(2, -0.5)
        # a config file holds no other mode count, so none is built
        for modes in (True, 2**63):
            with pytest.raises(DomainError, match="modes"):
                multimode_pair_dist(modes, 1.0)


class TestTwinBeamJoint:
    def test_diagonal_structure(self):
        pair = PhotonDistribution([0.6, 0.3, 0.1])
        joint = twin_beam_joint(pair)
        np.testing.assert_array_equal(joint.probs, np.diag([0.6, 0.3, 0.1]))

    def test_rejects_negative_pair_probs(self):
        pair = PhotonDistribution([-0.0005, 1.0005])
        with pytest.raises(DomainError):
            twin_beam_joint(pair)


class TestSourceModel:
    def test_single_mode_squeezer(self):
        src = SourceModel.single_mode_squeezer(0.5, n_max=20)
        assert src.label == "thermal"
        assert src.mean == 0.5
        np.testing.assert_allclose(src.pair_dist.probs, thermal_probs(0.5, 20))

    def test_multimode_records_modes(self):
        src = SourceModel.multimode_pdc(100, 1.0, n_max=20)
        assert src.label == "multimode"
        assert src.modes == 100
        assert src.mean == 1.0

    def test_poissonian_pairs(self):
        src = SourceModel.poissonian_pairs(0.2, n_max=8)
        assert src.label == "poisson"
        np.testing.assert_allclose(src.pair_dist.probs, poisson_dist(0.2, 8).probs)

    def test_fock_pairs(self):
        src = SourceModel.fock_pairs(1)
        assert src.label == "fock"
        assert src.photons == 1
        np.testing.assert_array_equal(src.pair_dist.probs, [0, 1])

    def test_joint_total_doubles_pair_number(self):
        src = SourceModel.fock_pairs(2)
        total = _combine_collective(src.joint)
        np.testing.assert_array_equal(total.probs, fock_dist(4).probs)

    def test_value_equality(self):
        a = SourceModel.poissonian_pairs(0.2, n_max=8)
        b = SourceModel.poissonian_pairs(0.2, n_max=8)
        assert a == b
        assert a != SourceModel.poissonian_pairs(0.3, n_max=8)
        assert a != SourceModel.single_mode_squeezer(0.2, n_max=8)

    def test_recorded_parameters_bound_the_cutoff(self):
        # a source serialized by its parameters reads back only up to MAX_PHOTONS
        assert SourceModel.fock_pairs(1, n_max=MAX_PHOTONS).pair_dist.n_max == MAX_PHOTONS
        for build, message in (
            (lambda: SourceModel.single_mode_squeezer(300.0), "mean 300.0 implies an n_max above 4096"),
            (lambda: SourceModel.poissonian_pairs(0.2, n_max=MAX_PHOTONS + 1), "n_max must be at most 4096"),
            (lambda: SourceModel.multimode_pdc(2, 0.2, n_max=MAX_PHOTONS + 1), "n_max must be at most 4096"),
        ):
            with pytest.raises(DomainError, match=f"^{message}$"):
                build()
        # so does a recorded source built from its pair law
        pairs = PhotonDistribution(thermal_probs(0.5, 4999))
        with pytest.raises(DomainError, match=r"^pair cutoff 4999 exceeds MAX_PHOTONS=4096$"):
            SourceModel(pairs, "thermal", mean=0.5)

    @pytest.mark.parametrize("n_max", [2.7, 3.0, True, "3"])
    @pytest.mark.parametrize("build", [
        lambda n_max: SourceModel.single_mode_squeezer(0.2, n_max=n_max),
        lambda n_max: SourceModel.poissonian_pairs(0.2, n_max=n_max),
        lambda n_max: SourceModel.multimode_pdc(2, 0.2, n_max=n_max),
        lambda n_max: SourceModel.fock_pairs(1, n_max=n_max),
    ], ids=["thermal", "poisson", "multimode", "fock"])
    def test_cutoff_must_be_an_integer(self, build, n_max):
        # a float cutoff is neither rounded nor passed on to numpy
        with pytest.raises(DomainError, match=r"^n_max must be a non-negative integer$"):
            build(n_max)

    def test_fock_photon_number_must_be_an_integer(self):
        with pytest.raises(DomainError, match=r"^photons must be a non-negative integer$"):
            SourceModel.fock_pairs(1.0)
        assert SourceModel.fock_pairs(np.int64(2), n_max=np.int32(3)).pair_dist.n_max == 3

    @pytest.mark.parametrize("mean, cutoff", [
        (300.0, 4_808), (1e6, 16_000_008), (1e12, 16_000_000_000_008),
    ])
    @pytest.mark.parametrize("build", [
        SourceModel.single_mode_squeezer,
        SourceModel.poissonian_pairs,
        lambda mean: SourceModel.multimode_pdc(3, mean),
    ], ids=["thermal", "poisson", "multimode"])
    def test_implied_cutoff_is_checked_before_building(self, monkeypatch, build, mean, cutoff):
        def refuse(*args):
            raise AssertionError("built a pair distribution past MAX_PHOTONS")

        assert default_n_max(mean) == cutoff
        for builder in ("thermal_probs", "poisson_probs", "negative_binomial_probs"):
            monkeypatch.setattr(sources, builder, refuse)
        with pytest.raises(DomainError, match=f"^mean {mean!r} implies an n_max above 4096$"):
            build(mean)

    @pytest.mark.parametrize("mean", ["0.5", True, None, -0.5, math.inf, math.nan, 10**400])
    @pytest.mark.parametrize("build", [
        SourceModel.single_mode_squeezer,
        SourceModel.poissonian_pairs,
        lambda mean, n_max=None: SourceModel.multimode_pdc(3, mean, n_max),
    ], ids=["thermal", "poisson", "multimode"])
    def test_mean_must_be_a_finite_non_negative_number(self, build, mean):
        # checked first, so an infinite mean with a cutoff warns of no overflow
        for n_max in (None, 4):
            with pytest.raises(DomainError, match=r"^mean must be a finite non-negative number$"):
                build(mean, n_max)

    def test_mean_without_a_finite_cutoff(self):
        # an overflowing cutoff is a domain error, not an OverflowError
        with pytest.raises(DomainError, match="finite photon-number cutoff"):
            thermal_dist(1e300)
        # a named source reads a mean past MAX_PHOTONS as past the cutoff bound
        with pytest.raises(DomainError, match=r"^mean 1e\+300 implies an n_max above 4096$"):
            SourceModel.single_mode_squeezer(1e300)
