"""Distribution containers and derived statistics."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmdkit import (
    ClickStatistics,
    DegenerateConditionError,
    DomainError,
    JointPhotonDistribution,
    NumericalError,
    PhotonDistribution,
    correlation,
    default_n_max,
    fit_poisson,
    fit_thermal,
    marginals,
    moment,
    number_squeezing_db,
    twin_beam_joint,
)
from tmdkit.detector import _combine_collective
from tmdkit.stats import (
    _golden_minimize,
    _negative_binomial_pmf,
    _thermal_pmf,
    negative_binomial_probs,
    poisson_probs,
    thermal_probs,
)


class TestPhotonDistribution:
    def test_accepts_normalized_vector(self):
        dist = PhotonDistribution([0.5, 0.25, 0.25])
        assert dist.n_max == 2
        assert dist.mean == pytest.approx(0.75)
        assert dist.is_physical

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            PhotonDistribution([0.5, 0.4])
        with pytest.raises(DomainError):
            PhotonDistribution([0.5, 0.49])
        # the tolerance grows with the rounding of the sum, not with sum|p|
        with pytest.raises(DomainError):
            PhotonDistribution([1e9, -1e9])

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            PhotonDistribution([np.nan, 1.0])

    @pytest.mark.parametrize("mode", ["ignore", "error"])
    @pytest.mark.parametrize("probs", [[1e308, 1e308], [0.5, 1e308, -1e308]])
    def test_rejects_entries_whose_sums_overflow(self, mode, probs):
        # refused before any sum is taken, so no overflow warning escapes in either mode
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter(mode)
            with pytest.raises(DomainError, match="^distribution has an entry of magnitude 1e\\+308, too large to sum$"):
                PhotonDistribution(probs)
            with pytest.raises(DomainError, match="^joint distribution has an entry of magnitude"):
                JointPhotonDistribution([probs])
        assert seen == []

    def test_rejects_wrong_shape(self):
        with pytest.raises(DomainError):
            PhotonDistribution([[0.5, 0.5]])
        with pytest.raises(DomainError):
            PhotonDistribution([])

    def test_small_negativity_tolerated(self):
        dist = PhotonDistribution([-0.0005, 1.0005])
        assert dist.is_physical
        assert not PhotonDistribution([-0.002, 1.002]).is_physical

    def test_probs_frozen(self):
        dist = PhotonDistribution([0.5, 0.5])
        with pytest.raises(ValueError):
            dist.probs[0] = 1.0

    def test_value_equality(self):
        assert PhotonDistribution([0.5, 0.5]) == PhotonDistribution([0.5, 0.5])
        assert PhotonDistribution([0.5, 0.5]) != PhotonDistribution([0.4, 0.6])
        assert PhotonDistribution([0.5, 0.5]) != [0.5, 0.5]


class TestJointPhotonDistribution:
    def test_accepts_matrix(self):
        joint = JointPhotonDistribution([[0.1, 0.2], [0.3, 0.4]])
        assert joint.n_max_signal == 1
        assert joint.n_max_idler == 1
        assert joint.is_physical

    def test_rejects_vector(self):
        with pytest.raises(DomainError):
            JointPhotonDistribution([0.5, 0.5])

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            JointPhotonDistribution([[0.5, 0.5], [0.5, 0.5]])

    def test_value_equality(self):
        a = JointPhotonDistribution([[0.5, 0.0], [0.0, 0.5]])
        b = JointPhotonDistribution([[0.5, 0.0], [0.0, 0.5]])
        assert a == b
        assert a != JointPhotonDistribution([[0.25, 0.25], [0.25, 0.25]])


class TestClickStatistics:
    def test_frequencies(self):
        stats = ClickStatistics(np.array([30, 50, 20]), 100)
        np.testing.assert_allclose(stats.frequencies, [0.3, 0.5, 0.2])

    def test_accepts_integral_floats(self):
        stats = ClickStatistics(np.array([2.0, 3.0]), 5)
        assert stats.counts.dtype == np.int64

    def test_rejects_fractional_counts(self):
        with pytest.raises(DomainError):
            ClickStatistics(np.array([2.5, 2.5]), 5)

    def test_rejects_sum_mismatch(self):
        with pytest.raises(DomainError):
            ClickStatistics(np.array([2, 2]), 5)

    def test_rejects_negative_counts(self):
        with pytest.raises(DomainError):
            ClickStatistics(np.array([-1, 6]), 5)

    def test_rejects_non_positive_shots(self):
        with pytest.raises(DomainError):
            ClickStatistics(np.array([0, 0]), 0)

    def test_rejects_three_axes(self):
        with pytest.raises(DomainError, match=r"^click counts must be a 1-d or 2-d array$"):
            ClickStatistics(np.ones((2, 2, 2), dtype=np.int64), 8)

    def test_matrix_counts(self):
        stats = ClickStatistics(np.array([[1, 2], [3, 4]]), 10)
        assert stats.counts.shape == (2, 2)
        assert stats.frequencies.sum() == pytest.approx(1.0)

    def test_value_equality(self):
        a = ClickStatistics(np.array([3, 7]), 10)
        assert a == ClickStatistics(np.array([3, 7]), 10)
        assert a != ClickStatistics(np.array([4, 6]), 10)


class TestMoments:
    def test_zeroth_moment_is_total(self):
        dist = PhotonDistribution([0.2, 0.3, 0.5])
        assert moment(dist, 0) == pytest.approx(1.0)

    def test_first_and_second(self):
        dist = PhotonDistribution([0.2, 0.3, 0.5])
        assert moment(dist, 1) == pytest.approx(0.3 + 1.0)
        assert moment(dist, 2) == pytest.approx(0.3 + 2.0)

    def test_rejects_bad_order(self):
        dist = PhotonDistribution([1.0])
        with pytest.raises(DomainError):
            moment(dist, -1)
        with pytest.raises(DomainError):
            moment(dist, 1.5)


class TestDefaultNMax:
    def test_floor_of_ten(self):
        assert default_n_max(0.0) == 10

    def test_grows_with_mean(self):
        assert default_n_max(4.0) == math.ceil(4.0 + 15.0 * math.sqrt(20.0))

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            default_n_max(-0.1)

    @pytest.mark.parametrize("mean", [float("inf"), float("nan"), 1e300, 1e200])
    def test_rejects_a_mean_without_a_finite_cutoff(self, mean):
        # 1e200 * (1 + 1e200) overflows a float; the cutoff must not escape as OverflowError.
        # A mean that is no finite number is refused by the mean rule first.
        message = (
            "^mean must be a finite non-negative number$"
            if not math.isfinite(mean)
            else "finite photon-number cutoff"
        )
        with pytest.raises(DomainError, match=message):
            default_n_max(mean)


class TestMarginalsAndConditional:
    def test_marginals_sum_axes(self):
        joint = JointPhotonDistribution([[0.1, 0.2], [0.3, 0.4]])
        signal, idler = marginals(joint)
        np.testing.assert_allclose(signal.probs, [0.3, 0.7])
        np.testing.assert_allclose(idler.probs, [0.4, 0.6])



class TestCombineCollective:
    def test_matches_double_loop(self):
        rng = np.random.default_rng(7)
        raw = rng.random((4, 3))
        joint = JointPhotonDistribution(raw / raw.sum())
        expected = np.zeros(6)
        for n in range(4):
            for m in range(3):
                expected[n + m] += joint.probs[n, m]
        np.testing.assert_allclose(_combine_collective(joint).probs, expected, atol=1e-15)

    def test_twin_beam_total_has_exact_odd_zeros(self):
        pair = PhotonDistribution([0.6, 0.3, 0.1])
        total = _combine_collective(twin_beam_joint(pair))
        np.testing.assert_array_equal(total.probs[1::2], 0.0)
        np.testing.assert_allclose(total.probs[0::2], pair.probs)


class TestCorrelation:
    def test_perfectly_correlated(self):
        joint = twin_beam_joint(PhotonDistribution([0.6, 0.3, 0.1]))
        assert correlation(joint) == pytest.approx(1.0)

    def test_anti_correlated(self):
        probs = np.zeros((3, 3))
        probs[0, 2] = probs[2, 0] = 0.5
        assert correlation(JointPhotonDistribution(probs)) == pytest.approx(-1.0)

    def test_product_joint_uncorrelated(self):
        a = np.array([0.5, 0.3, 0.2])
        b = np.array([0.7, 0.3])
        joint = JointPhotonDistribution(np.outer(a, b))
        assert correlation(joint) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_variance(self):
        probs = np.zeros((2, 2))
        probs[1, 0] = 0.5
        probs[1, 1] = 0.5
        with pytest.raises(DegenerateConditionError):
            correlation(JointPhotonDistribution(probs))


class TestNumberSqueezing:
    def test_known_value(self):
        # difference variance 4 over mean product 1 is 10*log10(4) dB
        probs = np.zeros((3, 3))
        probs[0, 2] = probs[2, 0] = 0.5
        result = number_squeezing_db(JointPhotonDistribution(probs))
        assert result == pytest.approx(10.0 * math.log10(4.0))

    def test_twin_beam_is_minus_infinity(self):
        joint = twin_beam_joint(PhotonDistribution([0.6, 0.3, 0.1]))
        assert number_squeezing_db(joint) == float("-inf")

    def test_independent_poissonians_with_mean_two_sit_at_zero(self):
        # Var(n - m) = 2 mu for independent Poissonians, so the ratio to
        # the mean product mu^2 crosses 1 exactly at mu = 2
        p = poisson_probs(2.0, 40)
        joint = JointPhotonDistribution(np.outer(p, p))
        assert number_squeezing_db(joint) == pytest.approx(0.0, abs=1e-9)

    def test_zero_mean_degenerate(self):
        probs = np.zeros((2, 2))
        probs[0, 0] = 1.0
        with pytest.raises(DegenerateConditionError):
            number_squeezing_db(JointPhotonDistribution(probs))


class TestModelProbs:
    def test_thermal_geometric_ratio(self):
        p = thermal_probs(0.5, 10)
        ratios = p[1:] / p[:-1]
        np.testing.assert_allclose(ratios, 0.5 / 1.5)
        assert p.sum() == pytest.approx(1.0)

    def test_thermal_zero_mean_is_vacuum(self):
        np.testing.assert_array_equal(thermal_probs(0.0, 4), [1, 0, 0, 0, 0])

    def test_poisson_matches_renormalized_pmf(self):
        from scipy.stats import poisson

        for mean, n_max in ((0.0, 6), (1e-3, 6), (2.2, 6), (30.0, 80)):
            raw = poisson.pmf(np.arange(n_max + 1), mean)
            np.testing.assert_allclose(
                poisson_probs(mean, n_max), raw / raw.sum(), err_msg=f"{mean=}"
            )

    def test_rejects_negative_parameters(self):
        with pytest.raises(DomainError):
            thermal_probs(-0.1, 5)
        with pytest.raises(DomainError):
            poisson_probs(1.0, -1)

    @pytest.mark.parametrize("build", [thermal_probs, poisson_probs, negative_binomial_probs])
    @pytest.mark.parametrize("n_max", [2.5, 4.0, True, "4", -1])
    def test_cutoff_must_be_a_non_negative_integer(self, build, n_max):
        # neither truncated to a shorter vector nor passed on to numpy
        with pytest.raises(DomainError, match=r"^n_max must be a non-negative integer$"):
            build(0.5, n_max)

    @given(mean=st.floats(0.01, 50.0), n_max=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_both_families_normalized(self, mean, n_max):
        assert thermal_probs(mean, n_max).sum() == pytest.approx(1.0)
        assert poisson_probs(mean, n_max).sum() == pytest.approx(1.0)


def reference_thermal_probs(mean, n_max):
    """``thermal_probs`` as it was written before its vectors were built in place."""
    n = np.arange(n_max + 1, dtype=float)
    if mean == 0.0:
        p = (n == 0).astype(float)
    else:
        p = np.exp(n * math.log(mean) - (n + 1.0) * math.log1p(mean))
    return p / p.sum()


def reference_negative_binomial_probs(mean, n_max, modes=math.inf):
    """``negative_binomial_probs`` as it was written before its vectors were built in place."""
    if mean == 0.0:
        return (np.arange(n_max + 1) == 0).astype(float)
    n = np.arange(1, n_max + 1, dtype=float)
    ratio = mean / n
    if not math.isinf(modes):
        ratio *= (n + (modes - 1.0)) / (modes + mean)
    log_p = np.concatenate([[0.0], np.cumsum(np.log(ratio))])
    p = np.exp(log_p - log_p.max())
    return p / p.sum()


MEANS = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
MODES = st.one_of(st.just(math.inf), st.integers(1, 12), st.floats(0.5, 1e3))


class TestSameBits:
    """The in-place model vectors and fit objective repeat the old operations exactly.

    References run in this process, so a CPU whose SIMD exp or log rounds
    differently gives both sides the same rounding.
    """

    @given(mean=MEANS, n_max=st.integers(0, 40), modes=MODES)
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_negative_binomial_probs(self, mean, n_max, modes):
        assert np.array_equal(
            negative_binomial_probs(mean, n_max, modes),
            reference_negative_binomial_probs(mean, n_max, modes),
        )
        assert np.array_equal(poisson_probs(mean, n_max), reference_negative_binomial_probs(mean, n_max))

    @given(mean=MEANS, n_max=st.integers(0, 40))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_thermal_probs(self, mean, n_max):
        assert np.array_equal(thermal_probs(mean, n_max), reference_thermal_probs(mean, n_max))

    @given(means=st.lists(MEANS, min_size=2, max_size=6), n_max=st.integers(0, 40), modes=MODES)
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_reused_vectors_keep_no_state(self, means, n_max, modes):
        # a fit evaluates one family at many means over the same vectors
        laws = [(_negative_binomial_pmf(n_max, modes), lambda m: negative_binomial_probs(m, n_max, modes)),
                (_thermal_pmf(n_max), lambda m: thermal_probs(m, n_max))]
        for pmf, fresh in laws:
            for mean in means:
                assert np.array_equal(pmf(mean), fresh(mean))

    @given(r=st.lists(st.floats(-1e3, 1e3), max_size=41))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_objective_is_the_norm(self, r):
        r = np.array(r, dtype=float)
        assert math.sqrt(r.dot(r)) == np.linalg.norm(r)

    @pytest.mark.parametrize("fit, family", [
        (fit_poisson, reference_negative_binomial_probs),
        (fit_thermal, reference_thermal_probs),
    ], ids=["poisson", "thermal"])
    @pytest.mark.parametrize("target", [
        poisson_probs(1.3, 12), thermal_probs(0.7, 12), [0.5, 0.3, 0.15, 0.05], [0.9, 0.02, 0.08],
    ])
    def test_fits_repeat_the_reference_search(self, fit, family, target):
        # targets whose minimizer sits inside the first bracket, so one search runs
        dist = PhotonDistribution(target)

        def objective(mu):
            return float(np.linalg.norm(dist.probs - family(mu, dist.n_max)))

        best = _golden_minimize(objective, 0.0, max(1.0, 3.0 * dist.mean + 1.0))
        result = fit(dist)
        assert result.mean == best
        assert result.residual_l2 == objective(best)
        assert np.array_equal(result.per_bin_deviation, dist.probs - family(best, dist.n_max))


class TestFits:
    def test_poisson_recovers_exact_mean(self):
        dist = PhotonDistribution(poisson_probs(1.3, 12))
        result = fit_poisson(dist)
        assert result.family == "poisson"
        assert result.mean == pytest.approx(1.3, abs=1e-6)
        assert result.residual_l2 < 1e-8

    def test_thermal_recovers_exact_mean(self):
        dist = PhotonDistribution(thermal_probs(0.5, 12))
        result = fit_thermal(dist)
        assert result.family == "thermal"
        assert result.mean == pytest.approx(0.5, abs=1e-6)
        assert result.residual_l2 < 1e-8

    def test_own_family_fits_better(self):
        dist = PhotonDistribution(poisson_probs(1.3, 12))
        assert fit_poisson(dist).residual_l2 < fit_thermal(dist).residual_l2
        dist = PhotonDistribution(thermal_probs(1.3, 20))
        assert fit_thermal(dist).residual_l2 < fit_poisson(dist).residual_l2

    def test_cross_family_fit_lands_below_the_naive_mean(self):
        # the l2-best Poissonian for a unit-mean thermal target sits near
        # mean 0.66, not 1, so the one-photon miss is 0.0908 rather than
        # the e^{-1} - 0.25 = 0.1179 a fixed-mean comparison would give
        dist = PhotonDistribution(thermal_probs(1.0, 30))
        grid = np.linspace(0.01, 3.0, 60_000)
        best = min(
            grid,
            key=lambda m: float(np.linalg.norm(dist.probs - poisson_probs(m, 30))),
        )
        result = fit_poisson(dist)
        assert result.mean == pytest.approx(best, abs=1e-4)
        assert abs(result.per_bin_deviation[1]) == pytest.approx(0.0908, abs=1e-3)

    def test_deviation_is_target_minus_model(self):
        dist = PhotonDistribution(thermal_probs(0.8, 10))
        result = fit_poisson(dist)
        model = poisson_probs(result.mean, 10)
        np.testing.assert_allclose(result.per_bin_deviation, dist.probs - model, atol=1e-12)
        assert result.residual_l2 == pytest.approx(np.linalg.norm(result.per_bin_deviation))

    def test_unreachable_mean_raises(self):
        # a spike at the top bin pushes the best thermal mean to infinity
        dist = PhotonDistribution([0.0] * 5 + [1.0])
        with pytest.raises(NumericalError):
            fit_thermal(dist)
