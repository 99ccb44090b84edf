"""End-to-end acceptance checks.

Each test covers one headline capability on a pinned protocol: fixed
seeds, fixed run lengths, and explicit numeric tolerances.  Statistical
checks were tuned on seed scans and then frozen; loosening a tolerance
or swapping a seed to make a red test green defeats their purpose.
"""

import itertools
import math
import time

import numpy as np
import pytest

from tmdkit import (
    ExperimentConfig,
    JointPhotonDistribution,
    PhotonDistribution,
    SourceModel,
    TMDConfig,
    convolution_matrix,
    correlation,
    fit_poisson,
    fit_thermal,
    forward,
    invert_joint,
    invert_single,
    joint_forward,
    multimode_pair_dist,
    number_squeezing_db,
    poisson_dist,
    propagate_errors,
    run_collective_experiment,
    run_experiment,
    thermal_dist,
    twin_beam_joint,
)
from tmdkit.cli import EXIT_OK, main
from tmdkit.detector import _combine_collective
from tmdkit.pipelines import _klyshko, default_config
from tmdkit.stats import poisson_probs, thermal_probs


def test_01_exact_inversion_roundtrip():
    started = time.perf_counter()
    rng = np.random.default_rng(20260801)
    cases = [(eta, 1e-8) for eta in (0.05, 0.117, 0.5, 1.0)] + [(0.02, 1e-6)]
    worst = {eta: 0.0 for eta, _ in cases}
    for _ in range(100):
        raw = rng.random(9)
        dist = PhotonDistribution(raw / raw.sum())
        for eta, _ in cases:
            tmd = TMDConfig.uniform(8, efficiency=eta)
            recovered = invert_single(tmd, forward(tmd, dist)).dist.probs
            worst[eta] = max(worst[eta], float(np.abs(recovered - dist.probs).max()))
    elapsed = time.perf_counter() - started
    print(f"roundtrip worst errors {worst}, {elapsed:.2f}s")
    for eta, limit in cases:
        assert worst[eta] < limit, f"eta={eta}: {worst[eta]:.3e} >= {limit}"
    assert elapsed < 5.0


def test_02_occupation_matrix_oracles():
    def by_enumeration(bin_probs, n):
        out = np.zeros(len(bin_probs) + 1)
        for placement in itertools.product(range(len(bin_probs)), repeat=n):
            weight = 1.0
            for b in placement:
                weight *= bin_probs[b]
            out[len(set(placement))] += weight
        return out

    for K in range(1, 5):
        ramp = np.arange(1.0, K + 1.0)
        for bin_probs in (ramp / ramp.sum(), np.full(K, 1.0 / K)):
            matrix = convolution_matrix(bin_probs, 8)
            for n in range(9):
                expected = by_enumeration(bin_probs, n)
                assert np.abs(matrix[:, n] - expected).max() < 1e-12

    def stirling2(n, c):
        table = [[0] * (c + 1) for _ in range(n + 1)]
        table[0][0] = 1
        for i in range(1, n + 1):
            for j in range(1, min(i, c) + 1):
                table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
        return table[n][c]

    for K in (2, 4, 8):
        matrix = convolution_matrix(np.full(K, 1.0 / K), 8)
        for n in range(9):
            for c in range(K + 1):
                closed = math.comb(K, c) * math.factorial(c) * stirling2(n, c) / K**n
                assert abs(matrix[c, n] - closed) < 1e-12


def test_03_simulation_matches_analytic_forward():
    started = time.perf_counter()
    config = default_config("D", shots=1_000_000, seed=20260817)
    result = run_experiment(config)
    analytic = joint_forward(
        config.tmd_signal, config.tmd_idler, twin_beam_joint(poisson_dist(0.2, 8))
    ).probs
    sigma = np.sqrt(analytic * (1.0 - analytic) / config.shots)
    deviation = np.abs(result.joint_clicks.frequencies - analytic)
    worst = float((deviation / np.where(sigma > 0, sigma, 1.0)).max())
    elapsed = time.perf_counter() - started
    print(f"worst joint-cell deviation {worst:.2f} binomial sigma, {elapsed:.1f}s")
    assert np.all(deviation <= 4.0 * sigma)
    assert elapsed < 60.0


def test_04_coincidence_calibration_recovers_efficiencies():
    config = ExperimentConfig(
        source=SourceModel.fock_pairs(1),
        setup="A",
        tmd_signal=TMDConfig.uniform(bins=1, efficiency=0.117),
        tmd_idler=TMDConfig.uniform(bins=1, efficiency=0.137),
        shots=10_000_000,
        seed=20260817,
    )
    signal, idler = _klyshko(run_experiment(config).joint_clicks)
    print(f"calibrated {signal.eta:.5f} / {idler.eta:.5f} vs true 0.117 / 0.137")
    assert abs(signal.eta - 0.117) < 0.005
    assert abs(idler.eta - 0.137) < 0.005


@pytest.fixture(scope="module")
def dual_arm_run():
    config = default_config("D", shots=10_000_000, seed=20260834)
    result = run_experiment(config)
    reconstructed = invert_joint(config.tmd_signal, config.tmd_idler, result.joint_clicks).dist
    raw = JointPhotonDistribution(result.joint_clicks.frequencies)
    return reconstructed, raw


def test_05_correlation_recovered_from_lossy_clicks(dual_arm_run):
    reconstructed, raw = dual_arm_run
    rec_corr = correlation(reconstructed)
    raw_corr = correlation(raw)
    print(f"correlation reconstructed {rec_corr:.4f}, raw {raw_corr:.4f}")
    assert rec_corr >= 0.98
    assert raw_corr <= 0.1


def test_06_number_squeezing_recovered_from_lossy_clicks(dual_arm_run):
    reconstructed, raw = dual_arm_run
    rec_db = number_squeezing_db(reconstructed)
    raw_db = number_squeezing_db(raw)
    print(f"squeezing reconstructed {rec_db:.2f} dB, raw {raw_db:.2f} dB")
    assert rec_db <= -15.0
    assert raw_db >= -1.0


def test_07_merged_arm_parity():
    # exact statement: a photon-number-correlated joint only ever
    # contributes even totals
    for pair in (
        PhotonDistribution([0.7, 0.2, 0.1]),
        thermal_dist(0.3, 10),
        poisson_dist(0.4, 10),
    ):
        total = _combine_collective(twin_beam_joint(pair))
        assert np.all(total.probs[1::2] == 0.0)

    # simulated statement at finite shots and efficiency; the merged
    # reconstruction is truncated to the total numbers the data can
    # resolve, and both runs share one counting-noise error model
    eta = 0.7
    source = SourceModel.single_mode_squeezer(0.03)
    merged_config = ExperimentConfig(
        source=source,
        setup="C",
        tmd_signal=TMDConfig.uniform(8, efficiency=eta),
        tmd_idler=TMDConfig.uniform(8, efficiency=eta),
        shots=1_000_000,
        seed=20260803,
    )
    merged = run_collective_experiment(merged_config)
    merged_tmd = TMDConfig(np.full(8, 0.125), efficiency=eta, n_max=4)
    p_merged = invert_single(merged_tmd, merged.clicks).dist.probs

    for k in (1, 3):
        limit = 0.1 * max(p_merged[k - 1], p_merged[k + 1])
        print(f"odd entry {k}: {p_merged[k]:+.3e}, limit {limit:.3e}")
        assert abs(p_merged[k]) == 0.0 or abs(p_merged[k]) < limit

    heralded_config = ExperimentConfig(
        source=source,
        setup="B",
        tmd_signal=TMDConfig.uniform(1, efficiency=eta),
        tmd_idler=TMDConfig.uniform(8, efficiency=eta),
        shots=1_000_000,
        seed=20260880,
    )
    heralded = run_experiment(heralded_config)
    p_arm = invert_single(heralded_config.tmd_idler, heralded.idler_clicks).dist.probs
    sd_merged = np.sqrt(np.diag(propagate_errors(merged_tmd, merged.clicks, 0.0)))
    sd_arm = np.sqrt(np.diag(propagate_errors(heralded_config.tmd_idler, heralded.idler_clicks, 0.0)))
    for n in (0, 1, 2):
        diff = abs(p_merged[2 * n] - p_arm[n])
        bound = 3.0 * math.hypot(sd_merged[2 * n], sd_arm[n])
        print(f"even entry {2 * n} vs arm entry {n}: diff {diff:.3e}, bound {bound:.3e}")
        assert diff == 0.0 or diff < bound


def test_08_family_discrimination():
    many_modes = multimode_pair_dist(100, 1.0)
    poisson_fit = fit_poisson(many_modes)
    thermal_fit = fit_thermal(many_modes)
    print(
        f"many modes: poisson residual {poisson_fit.residual_l2:.4f}, "
        f"thermal residual {thermal_fit.residual_l2:.4f}, "
        f"thermal one-photon miss {abs(thermal_fit.per_bin_deviation[1]):.4f}"
    )
    assert poisson_fit.residual_l2 < thermal_fit.residual_l2
    assert abs(thermal_fit.per_bin_deviation[1]) > 0.06

    single_mode = multimode_pair_dist(1, 1.0)
    assert fit_thermal(single_mode).residual_l2 < fit_poisson(single_mode).residual_l2


def test_09_mode_count_law():
    n_max = 20
    mean = 0.8
    for modes in (1, 2, 4, 8, 16):
        per_mode = thermal_probs(mean / modes, n_max)
        acc = per_mode.copy()
        for _ in range(modes - 1):
            acc = np.convolve(acc, per_mode)
        expected = acc[: n_max + 1] / acc[: n_max + 1].sum()
        got = multimode_pair_dist(modes, mean, n_max).probs
        assert np.abs(got - expected).max() < 1e-12, f"modes={modes}"

    wide = multimode_pair_dist(10_000, 1.0)
    target = poisson_probs(1.0, wide.n_max)
    tv = 0.5 * float(np.abs(wide.probs - target).sum())
    print(f"total variation to the Poissonian at 10^4 modes: {tv:.2e}")
    assert tv < 1e-3


def test_10_propagated_sigma_matches_ensemble_scatter():
    belief = TMDConfig.uniform(2, efficiency=0.117)
    exact_rho = forward(
        TMDConfig.uniform(2, efficiency=0.117, n_max=40), thermal_dist(0.5, 40)
    )
    propagated = np.sqrt(
        np.diag(propagate_errors(belief, exact_rho, sigma_eta=0.009, shots=100_000))
    )

    source = SourceModel.single_mode_squeezer(0.5)
    master = np.random.default_rng(20260817)
    samples = np.empty((200, 3))
    for rep in range(200):
        true_eta = float(np.clip(master.normal(0.117, 0.009), 1e-4, 1.0))
        config = ExperimentConfig(
            source=source,
            setup="B",
            tmd_signal=TMDConfig.uniform(1, efficiency=0.117),
            tmd_idler=TMDConfig.uniform(2, efficiency=true_eta),
            shots=100_000,
            seed=1000 + rep,
        )
        result = run_experiment(config)
        samples[rep] = invert_single(belief, result.idler_clicks).dist.probs
    empirical = samples.std(axis=0, ddof=1)
    relative = np.abs(empirical - propagated) / propagated
    print(f"empirical {empirical}, propagated {propagated}, max rel dev {relative.max():.3f}")
    assert relative.max() < 0.20


def test_11_replicate_runs_are_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["replicate", "D", "--out", str(out)]) == EXIT_OK
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    compared = 0
    for name in names:
        if name == "manifest.json":
            continue  # records wall-clock duration
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        compared += 1
    print(f"{compared} output files byte-identical")
    assert compared >= 8
