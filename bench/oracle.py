"""Reference click model and output checks, written apart from tmdkit.

Nothing here imports tmdkit.  The loss stage is the binomial law built
from ``math.comb``; the bin-occupation stage uses Stirling numbers of
the second kind for equal bins and a dynamic programme over the bins
for unequal splittings, so it shares no code path with the program's
inclusion-exclusion over bin subsets.  Every check raises
:class:`CheckError` with a message naming what it compared.
"""

from __future__ import annotations

import math

import numpy as np


class CheckError(AssertionError):
    """An output of the program disagrees with the reference."""


def loss_matrix(eta: float, n_max: int) -> np.ndarray:
    """Entry (m, n): probability that m of n photons survive."""
    out = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max + 1):
        for m in range(n + 1):
            out[m, n] = math.comb(n, m) * eta**m * (1.0 - eta) ** (n - m)
    return out


def _stirling2(n_max: int) -> list[list[int]]:
    table = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    table[0][0] = 1
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            table[n][k] = k * table[n - 1][k] + table[n - 1][k - 1]
    return table


def occupation_matrix(bin_probs, n_max: int) -> np.ndarray:
    """Entry (c, n): probability that n photons occupy exactly c bins."""
    q = [float(x) for x in bin_probs]
    bins = len(q)
    out = np.zeros((bins + 1, n_max + 1))
    if max(q) - min(q) < 1e-15:
        stirling = _stirling2(n_max)
        for n in range(n_max + 1):
            for c in range(min(n, bins) + 1):
                ways = math.comb(bins, c) * math.factorial(c) * stirling[n][c]
                out[c, n] = ways / bins**n
        return out
    # g[m][c]: sum over placements of m photons in the bins seen so far
    # with c of them occupied, of prod q_j^k_j / k_j!
    g = np.zeros((n_max + 1, bins + 1))
    g[0, 0] = 1.0
    inv_fact = [1.0 / math.factorial(k) for k in range(n_max + 1)]
    for qj in q:
        weights = [qj**k * inv_fact[k] for k in range(n_max + 1)]
        new = g.copy()
        for m in range(1, n_max + 1):
            for k in range(1, m + 1):
                new[m, 1:] += weights[k] * g[m - k, :-1]
        g = new
    for n in range(n_max + 1):
        out[:, n] = math.factorial(n) * g[n]
    return out


def response(bin_probs, eta: float, n_max: int) -> np.ndarray:
    """Click-number distribution per incident photon number."""
    return occupation_matrix(bin_probs, n_max) @ loss_matrix(eta, n_max)


def pair_pmf(source: dict, n_max: int | None = None) -> np.ndarray:
    """Pair-number law of a serialized source, truncated as the program does."""
    kind = source["kind"]
    if kind == "custom":
        return np.asarray(source["pair_dist"], dtype=float)
    n_max = int(source["n_max"]) if n_max is None else n_max
    n = range(n_max + 1)
    if kind == "fock":
        p = [1.0 if k == source["photons"] else 0.0 for k in n]
    elif kind == "poisson":
        mu = float(source["mean"])
        p = [math.exp(-mu + k * math.log(mu) - math.lgamma(k + 1)) if mu > 0 else float(k == 0) for k in n]
    elif kind == "thermal":
        mu = float(source["mean"])
        p = [mu**k / (1.0 + mu) ** (k + 1) for k in n]
    elif kind == "multimode":
        modes, mu = int(source["modes"]), float(source["mean"]) / int(source["modes"])
        p = [
            math.exp(
                math.lgamma(k + modes) - math.lgamma(k + 1) - math.lgamma(modes)
                + k * math.log(mu / (1.0 + mu)) - modes * math.log1p(mu)
            )
            for k in n
        ]
    else:
        raise ValueError(f"unknown source kind {kind!r}")
    p = np.asarray(p)
    return p / p.sum()


def twoarm_clicks(pairs: np.ndarray, resp_s: np.ndarray, resp_i: np.ndarray) -> np.ndarray:
    """Joint click law of two detectors viewing a twin beam."""
    return resp_s @ np.diag(pairs) @ resp_i.T


def collective_clicks(pairs: np.ndarray, eta_s: float, eta_i: float, bin_probs) -> np.ndarray:
    """Click law of one detector fed by both arms of a twin beam."""
    n_max = pairs.size - 1
    loss_s = loss_matrix(eta_s, n_max)
    loss_i = loss_matrix(eta_i, n_max)
    total = np.zeros(2 * n_max + 1)
    for n, weight in enumerate(pairs):
        total[: 2 * n_max + 1] += weight * np.convolve(loss_s[:, n], loss_i[:, n])
    return occupation_matrix(bin_probs, 2 * n_max) @ total


def clicks_from_config(config: dict) -> dict[str, np.ndarray]:
    """Reference click laws of a serialized experiment config."""
    pairs = pair_pmf(config["source"])
    sig, idl = config["signal"], config["idler"]
    if config["setup"] == "C":
        return {"collective": collective_clicks(pairs, sig["efficiency"], idl["efficiency"], sig["bin_probs"])}
    n_max = pairs.size - 1
    joint = twoarm_clicks(
        pairs,
        response(sig["bin_probs"], sig["efficiency"], n_max),
        response(idl["bin_probs"], idl["efficiency"], n_max),
    )
    return {"joint": joint, "signal": joint.sum(axis=1), "idler": joint.sum(axis=0)}


# --- checks ---------------------------------------------------------------


def check_chi2(counts, probs, what: str) -> None:
    """Pearson chi-square of a histogram against a law.

    Cells expected below five counts are pooled.  The limit sits about
    six standard deviations above the mean of the chi-square law, so a
    correct simulator fails it with negligible probability.
    """
    counts = np.asarray(counts, dtype=float).ravel()
    probs = np.asarray(probs, dtype=float).ravel()
    total = counts.sum()
    expected = probs * total
    big = expected >= 5.0
    obs = list(counts[big])
    exp = list(expected[big])
    if (~big).any():
        obs.append(counts[~big].sum())
        exp.append(expected[~big].sum())
    obs, exp = np.asarray(obs), np.asarray(exp)
    if exp.min() <= 0.0:
        if obs[exp <= 0.0].sum() > 0:
            raise CheckError(f"{what}: counts where the model allows none")
        obs, exp = obs[exp > 0], exp[exp > 0]
    dof = max(obs.size - 1, 1)
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    limit = dof + 6.0 * math.sqrt(2.0 * dof) + 10.0
    if chi2 > limit:
        raise CheckError(f"{what}: chi2 {chi2:.1f} over {dof} dof exceeds {limit:.1f}")


def check_close(actual, expected, atol: float, what: str) -> None:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        raise CheckError(f"{what}: shape {actual.shape} != {expected.shape}")
    err = float(np.abs(actual - expected).max()) if actual.size else 0.0
    if not err <= atol:
        raise CheckError(f"{what}: max deviation {err:.3g} exceeds {atol:.3g}")


def check_reproduces(probs, model: np.ndarray, observed, what: str) -> None:
    """The model applied to a direct inverse gives back the observed frequencies."""
    probs = np.asarray(probs, dtype=float)
    scale = max(1.0, float(np.abs(probs).sum()))
    check_close(model @ probs, observed, 1e-9 * scale, what)


def check_reproduces_joint(probs, resp_s, resp_i, observed, what: str) -> None:
    probs = np.asarray(probs, dtype=float)
    scale = max(1.0, float(np.abs(probs).sum()))
    check_close(resp_s @ probs @ resp_i.T, observed, 1e-9 * scale, what)


def check_distribution(probs, what: str) -> None:
    """Non-negative and normalised."""
    probs = np.asarray(probs, dtype=float)
    if probs.min() < 0.0:
        raise CheckError(f"{what}: negative entry {probs.min():.3g}")
    if abs(probs.sum() - 1.0) > 1e-9:
        raise CheckError(f"{what}: sums to {probs.sum()!r}")


def check_covariance(cov, size: int, what: str) -> None:
    """Square of the right size, symmetric and positive semi-definite."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (size, size):
        raise CheckError(f"{what}: shape {cov.shape}, expected {(size, size)}")
    scale = float(np.abs(cov).max())
    if float(np.abs(cov - cov.T).max()) > 1e-12 * scale:
        raise CheckError(f"{what}: not symmetric")
    eig = np.linalg.eigvalsh(cov)
    if eig.min() < -1e-9 * max(scale, float(np.abs(eig).max())):
        raise CheckError(f"{what}: eigenvalue {eig.min():.3g} below zero")


def truncated_law(family: str, mean: float, n_max: int) -> np.ndarray:
    kind = "poisson" if family == "poisson" else "thermal"
    return pair_pmf({"kind": kind, "mean": mean}, n_max)


def check_fit(target, family: str, mean: float, residual: float, what: str) -> None:
    """The reported mean minimises the L2 distance to the truncated law."""
    target = np.asarray(target, dtype=float)
    n_max = target.size - 1

    def objective(mu: float) -> float:
        return float(np.linalg.norm(target - truncated_law(family, mu, n_max)))

    if not (math.isfinite(mean) and mean >= 0.0):
        raise CheckError(f"{what}: mean {mean!r}")
    at = objective(mean)
    if abs(at - residual) > 1e-9 * max(1.0, at):
        raise CheckError(f"{what}: residual {residual!r} but the law gives {at!r}")
    step = 1e-4 * max(1.0, mean)
    neighbours = [objective(mean + step)] + ([objective(mean - step)] if mean > step else [])
    if min(neighbours) < at - 1e-12 * max(1.0, at):
        raise CheckError(f"{what}: mean {mean!r} is not a minimum of the fit residual")


def _joint_moments(joint):
    p = np.asarray(joint, dtype=float)
    n = np.arange(p.shape[0], dtype=float)
    m = np.arange(p.shape[1], dtype=float)
    pn, pm = p.sum(axis=1), p.sum(axis=0)
    mn, mm = n @ pn, m @ pm
    vn, vm = (n * n) @ pn - mn**2, (m * m) @ pm - mm**2
    return mn, mm, vn, vm, n @ p @ m - mn * mm


def pearson(joint) -> float:
    _, _, vn, vm, cov = _joint_moments(joint)
    return float(cov / math.sqrt(vn * vm))


def squeezing_db(joint) -> float:
    """Photon-number difference variance over the shot-noise level, in dB."""
    mn, mm, vn, vm, cov = _joint_moments(joint)
    var_diff = vn + vm - 2.0 * cov
    return float("-inf") if var_diff <= 0.0 else 10.0 * math.log10(var_diff / (mn * mm))


def check_klyshko(estimate: float, sigma: float, configured: float, what: str) -> None:
    if not abs(estimate - configured) <= 5.0 * sigma:
        raise CheckError(
            f"{what}: Klyshko {estimate:.5f} is more than 5 sigma ({sigma:.5f}) from {configured}"
        )


def check_equal(actual, expected, what: str) -> None:
    actual, expected = np.asarray(actual), np.asarray(expected)
    if actual.shape != expected.shape or not np.array_equal(actual, expected):
        raise CheckError(f"{what}: differs from the reference")


def self_test(rng_seed: int = 1) -> int:
    """Show that every check rejects a deliberately wrong output.

    Returns the number of rejections exercised; raises CheckError when a
    wrong output passes or a right one fails.
    """
    rng = np.random.default_rng(rng_seed)
    cases = 0

    def rejects(fn, *args) -> None:
        nonlocal cases
        try:
            fn(*args)
        except CheckError:
            cases += 1
            return
        raise CheckError(f"{fn.__name__} accepted a wrong output")

    # the two occupation models agree with each other and with brute force
    uneven = [0.1, 0.2, 0.3, 0.4]
    brute = np.zeros((5, 5))
    for n in range(5):
        for cells in np.ndindex(*(4,) * n):
            weight = math.prod(uneven[c] for c in cells)
            brute[len(set(cells)), n] += weight
    check_close(occupation_matrix(uneven, 4), brute, 1e-12, "occupation DP vs enumeration")
    near = [0.25 + 1e-9, 0.25 - 1e-9, 0.25, 0.25]
    check_close(occupation_matrix(near, 6), occupation_matrix([0.25] * 4, 6), 1e-7, "DP vs Stirling")

    config = {
        "setup": "D",
        "source": {"kind": "poisson", "mean": 0.2, "n_max": 10},
        "signal": {"bin_probs": [0.125] * 8, "efficiency": 0.3},
        "idler": {"bin_probs": [0.125] * 8, "efficiency": 0.3},
    }
    law = clicks_from_config(config)["joint"]
    shots = 1_000_000
    good = rng.multinomial(shots, law.ravel())
    check_chi2(good, law, "chi2 on a correct histogram")
    wrong = dict(config, idler=dict(config["idler"], efficiency=0.3 * 1.05))
    rejects(check_chi2, rng.multinomial(shots, clicks_from_config(wrong)["joint"].ravel()), law, "chi2")

    truth = pair_pmf({"kind": "thermal", "mean": 0.5}, 8)
    rejects(check_close, truth + np.eye(9)[3] * 1e-4, truth, 1e-6, "recovery")
    model = response([0.125] * 8, 0.3, 8)
    rho = model @ truth
    check_reproduces(truth, model, rho, "reproduction on a correct inverse")
    rejects(check_reproduces, truth + np.eye(9)[2] * 1e-6, model, rho, "reproduction")
    rejects(check_reproduces_joint, np.diag(truth) + 1e-6, model, model, model @ np.diag(truth) @ model.T, "joint")
    rejects(check_distribution, truth - np.eye(9)[4] * 1e-3, "constrained")
    rejects(check_distribution, truth * 1.001, "constrained")
    rejects(check_covariance, np.array([[1.0, 0.5], [0.4, 1.0]]), 2, "covariance")
    rejects(check_covariance, np.diag([1.0, -1e-3]), 2, "covariance")
    rejects(check_covariance, np.eye(3), 2, "covariance")
    exact = truncated_law("poisson", 0.7, 8)
    check_fit(exact, "poisson", 0.7, 0.0, "fit on an exact law")
    rejects(check_fit, exact, "poisson", 0.7 + 1e-3, float(np.linalg.norm(exact - truncated_law("poisson", 0.701, 8))), "fit")
    rejects(check_fit, exact, "poisson", 0.7, 1e-3, "fit")
    rejects(check_close, 0.99, 1.0, 1e-9, "twin-beam correlation")
    rejects(check_klyshko, 0.117 + 0.006, 0.001, 0.117, "Klyshko")
    rejects(check_equal, np.array([5, 3, 2]), np.array([5, 2, 3]), "round trip")
    return cases
