"""The four closed-loop workloads.

Each workload builds its inputs from the benchmark seed in ``setup``,
then runs passes: one trip through a fixed list of operations, always in
the same order.  ``run_pass`` returns the outputs of the pass; ``check``
verifies the first pass against the reference model in :mod:`oracle`,
and every later pass must reproduce the first one exactly.

The in-process workloads reach tmdkit through the package attributes
(``tk.invert_single``), so the span wrappers of a traced run see them.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import child
import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
LAYOUTS = ("A", "B", "C", "D")

# Paper regime for the bright run: multimode PDC (4 modes, mean 2) on
# 8-bin TMDs at efficiency 0.5.
BRIGHT = {"modes": 4, "mean": 2.0, "bins": 8, "efficiency": 0.5}
BRIGHT_SHOTS = 10 * 65_536
ROUNDTRIP_SHOTS = 200_000
SIGMA_ETA = 0.009


def sub_seeds(seed: int, stream: int, count: int) -> list[int]:
    """Independent 63-bit seeds for one input stream of a workload."""
    state = np.random.SeedSequence([seed, stream]).generate_state(count, np.uint64)
    return [int(s >> np.uint64(1)) for s in state]


class Outcome:
    """Outputs of one pass plus its operation tally."""

    def __init__(self) -> None:
        self.outputs: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None


def _same(a, b) -> bool:
    if isinstance(a, (list, tuple)):
        return isinstance(b, (list, tuple)) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(np.asarray(a), np.asarray(b)))
    return a == b


class Workload:
    name = ""
    items_per_pass = 0

    def __init__(self, seed: int, work: Path, scale: float = 1.0, tracer=None) -> None:
        self.seed, self.work, self.scale, self.tracer = seed, work, scale, tracer
        self.first: Outcome | None = None

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> None:
        raise NotImplementedError

    def verify(self, outcome: Outcome) -> None:
        """Full check of the first pass; later passes must repeat it."""
        if self.first is None:
            self.check(outcome)
            self.first = outcome
        elif not _same(self.outputs_of(outcome), self.outputs_of(self.first)):
            raise oracle.CheckError(f"{self.name}: a pass differs from the first pass")

    def outputs_of(self, outcome: Outcome):
        return [o for o in outcome.outputs if o is not None]

    def peak_rss_mb(self) -> float:
        return child.rss_mb()


# --- cli-replicate ----------------------------------------------------------


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliReplicate(Workload):
    """Fresh ``python -m tmdkit.cli replicate X`` processes, 1M shots each."""

    name = "cli-replicate"
    items_per_pass = len(LAYOUTS)

    def setup(self) -> None:
        import compileall

        self.seeds = dict(zip(LAYOUTS, sub_seeds(self.seed, 1, len(LAYOUTS))))
        self.shots = [] if self.scale == 1.0 else ["--shots", str(int(1_000_000 * self.scale))]
        self.env = cli_env()
        compileall.compile_dir(str(SRC), quiet=1)
        # untimed warm-up: one small process loads every module once
        warm = self.command("A", self.work / "warm", ["--shots", "1000"])
        proc = subprocess.run(warm, env=self.env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"warm-up process failed: {proc.stderr.strip()}")

    def command(self, layout: str, out: Path, extra: list[str] | None = None) -> list[str]:
        argv = ["replicate", layout, "--seed", str(self.seeds[layout]), "--out", str(out)]
        argv += self.shots if extra is None else extra
        if self.tracer is not None:
            return [sys.executable, str(BENCH / "child.py"), "cli", str(self.work / "spans.json")] + argv
        return [sys.executable, "-m", "tmdkit.cli"] + argv

    def run_pass(self) -> Outcome:
        outcome = Outcome()
        for layout in LAYOUTS:
            out = self.work / layout
            proc = subprocess.run(self.command(layout, out), env=self.env, capture_output=True, text=True)
            if self.tracer is not None and proc.returncode == 0:
                self.tracer.graft(json.loads((self.work / "spans.json").read_text()))
            outcome.attempted += 1
            if proc.returncode != 0:
                outcome.failed += 1
                outcome.errors.append(f"replicate {layout}: exit {proc.returncode}: {proc.stderr.strip()}")
                outcome.outputs.append(None)
                continue
            docs = {}
            for path in sorted(out.glob("*.json")):
                if path.name != "manifest.json":
                    docs[path.stem] = path.read_text(encoding="utf-8")
            outcome.outputs.append((layout, docs))
        return outcome

    def check(self, outcome: Outcome) -> None:
        for entry in outcome.outputs:
            if entry is not None:
                check_replicate(*entry)

    def peak_rss_mb(self) -> float:
        # largest of the children; each also counts this process's size
        # at fork, which stays well below a child's
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _detector_model(det: dict) -> np.ndarray:
    return oracle.response(det["bin_probs"], det["efficiency"], det["n_max"])


def check_replicate(layout: str, texts: dict) -> None:
    """Check the documents one ``replicate`` process wrote."""
    docs = {name: json.loads(text) for name, text in texts.items()}
    sim = docs["simulation"]
    config = sim["config"]
    laws = oracle.clicks_from_config(config)
    for arm, law in laws.items():
        clicks = sim["clicks"][arm]
        oracle.check_chi2(clicks["counts"], law, f"replicate {layout} {arm} clicks")
    summary = docs["summary"]
    if layout == "A":
        for arm in ("signal", "idler"):
            oracle.check_klyshko(
                summary[f"klyshko_{arm}"], summary[f"klyshko_{arm}_uncertainty"],
                config[arm]["efficiency"], f"replicate A {arm}",
            )
        return
    recon = docs["reconstruction"]
    for arm in ("signal", "idler", "collective"):
        if arm not in recon:
            continue
        frag = recon[arm]
        det = dict(config["idler" if arm == "idler" else "signal"], efficiency=frag["efficiency"])
        observed = np.asarray(sim["clicks"][arm]["counts"], float) / sim["clicks"][arm]["total_shots"]
        oracle.check_reproduces(frag["probabilities"], _detector_model(det), observed, f"replicate {layout} {arm}")
        oracle.check_covariance(frag["covariance"], len(frag["probabilities"]), f"replicate {layout} {arm}")
    if layout == "B":
        fit = docs["fit"]
        for family in ("poisson", "thermal"):
            oracle.check_fit(recon["idler"]["probabilities"], family, fit[family]["mean"],
                             fit[family]["residual_l2"], f"replicate B {family} fit")
    if layout == "D":
        joint = sim["clicks"]["joint"]
        observed = np.asarray(joint["counts"], float) / joint["total_shots"]
        oracle.check_reproduces_joint(
            recon["joint"]["probabilities"], _detector_model(config["signal"]),
            _detector_model(config["idler"]), observed, "replicate D joint",
        )
        oracle.check_close(docs["metrics"]["joint"]["correlation"],
                           oracle.pearson(recon["joint"]["probabilities"]), 1e-9, "replicate D correlation")


# --- sim-bulk ---------------------------------------------------------------


def bright_config(tk, shots: int, seed: int):
    tmd = tk.TMDConfig.uniform(BRIGHT["bins"], efficiency=BRIGHT["efficiency"])
    return tk.ExperimentConfig(
        source=tk.SourceModel.multimode_pdc(BRIGHT["modes"], BRIGHT["mean"]),
        setup="D", tmd_signal=tmd, tmd_idler=tmd, shots=shots, seed=seed,
    )


def check_histograms(tk, config, result, what: str) -> None:
    """Chi-square of every histogram of a run against the reference law."""
    laws = oracle.clicks_from_config(tk.serialize_config(config))
    if "collective" in laws:
        oracle.check_chi2(result.clicks.counts, laws["collective"], f"{what} collective")
        return
    joint = result.joint_clicks.counts
    oracle.check_chi2(joint, laws["joint"], f"{what} joint")
    oracle.check_equal(result.signal_clicks.counts, joint.sum(axis=1), f"{what} signal marginal")
    oracle.check_equal(result.idler_clicks.counts, joint.sum(axis=0), f"{what} idler marginal")
    tallies = (result.signal_singles, result.idler_singles, result.coincidences)
    expected = (joint[1:, :].sum(), joint[:, 1:].sum(), joint[1:, 1:].sum())
    oracle.check_equal(tallies, expected, f"{what} singles and coincidences")


class SimBulk(Workload):
    """In-process simulation of the four stock layouts plus one bright run."""

    name = "sim-bulk"

    def setup(self) -> None:
        import tmdkit as tk

        self.tk = tk
        seeds = sub_seeds(self.seed, 2, 5)
        shots = int(1_000_000 * self.scale)
        self.configs = [
            (f"stock {x}", tk.default_config(x, shots=shots, seed=s)) for x, s in zip(LAYOUTS, seeds)
        ]
        self.configs.append(("bright", bright_config(tk, int(BRIGHT_SHOTS * self.scale), seeds[4])))
        self.items_per_pass = sum(c.shots for _, c in self.configs)
        for _, config in self.configs:  # untimed warm-up: one chunk of each run
            self.simulate(replace(config, shots=min(config.shots, 65_536)))

    def simulate(self, config):
        if config.setup == "C":
            return self.tk.run_collective_experiment(config)
        return self.tk.run_experiment(config)

    def run_pass(self) -> Outcome:
        outcome = Outcome()
        for _, config in self.configs:
            outcome.outputs.append(outcome.run(self.simulate, config))
        return outcome

    def check(self, outcome: Outcome) -> None:
        for (what, config), result in zip(self.configs, outcome.outputs):
            if result is not None:
                check_histograms(self.tk, config, result, what)

    def outputs_of(self, outcome: Outcome):
        out = []
        for r in outcome.outputs:
            if r is None:
                continue
            out.append(r.clicks.counts if hasattr(r, "clicks") else
                       (r.joint_clicks.counts, r.signal_singles, r.idler_singles, r.coincidences))
        return out


# --- analysis-batch ---------------------------------------------------------

# Stock efficiencies of the four layouts; the stock geometries repeat
# and stay in the program's occupation-matrix cache.
STOCK_ETAS = (0.117, 0.113, 0.137, 0.0274, 0.111)
N_OWN_SINGLE = 160
N_STOCK_SINGLE = 80
N_JOINT = 24
N_MERGED = 32


def _source_law(rng, n_max: int) -> np.ndarray:
    kind = ("thermal", "poisson", "multimode")[int(rng.integers(3))]
    source = {"kind": kind, "mean": float(rng.uniform(0.2, 1.5)), "modes": int(rng.integers(2, 6))}
    return oracle.pair_pmf(source, n_max)


def _counts(rng, law: np.ndarray, shots: int) -> np.ndarray:
    return rng.multinomial(shots, law.ravel() / law.sum()).reshape(law.shape)


def build_batch(seed: int, scale: float = 1.0) -> list[dict]:
    """The fixed batch of click histograms, made with the reference model.

    Single-arm items carry their own non-uniform bin splitting (4-10
    bins, more distinct splittings than the 128-entry cache holds) or a
    stock uniform geometry.  Joint items view a twin beam with two
    uniform TMDs; merged items feed both arms of a twin beam, at equal
    efficiency, into one TMD.  Half of each kind are exact click laws,
    the other half multinomial counts.
    """
    rng = np.random.default_rng(sub_seeds(seed, 3, 1)[0])
    own, stock, joints, merged = [], [], [], []
    count = lambda n: max(1, int(round(n * scale)))  # noqa: E731
    for i in range(count(N_OWN_SINGLE)):
        bins = 4 + i % 7
        probs = rng.dirichlet(np.full(bins, 2.0))
        own.append(_single(rng, probs, float(rng.uniform(0.03, 0.6)), counted=i % 2 == 0))
    for i in range(count(N_STOCK_SINGLE)):
        bins = (8, 8, 8, 4)[i % 4]
        eta = STOCK_ETAS[i % len(STOCK_ETAS)]
        stock.append(_single(rng, np.full(bins, 1.0 / bins), eta, counted=i % 2 == 0))
    for i in range(count(N_JOINT)):
        # counted joints stay on 4 bins: the direct joint inverse of a
        # counted 8-bin histogram can fail its own normalisation check
        joints.append(_joint(rng, 4 if i % 2 == 0 else 8, counted=i % 2 == 0))
    for i in range(count(N_MERGED)):
        bins = 8 if i % 2 == 0 else 4 + i % 7
        probs = np.full(bins, 1.0 / bins) if i % 2 == 0 else rng.dirichlet(np.full(bins, 2.0))
        merged.append(_merged(rng, probs, float(rng.uniform(0.1, 0.6)), counted=i % 4 < 2))
    # fixed interleave, independent of the seed: stock geometries recur
    # often enough to stay cached while the own splittings cycle through
    batch = []
    queues = [own, stock, joints, merged]
    while any(queues):
        for queue, take in zip(queues, (2, 1, 1, 1)):
            batch.extend(queue[:take])
            del queue[:take]
    return batch


def _noiseless_n_max(bins: int, eta: float) -> int:
    # keep eta**n_max above 1e-6 so the exact inverse stays accurate
    n_max = bins
    while n_max > 1 and eta**n_max < 1e-6:
        n_max -= 1
    return n_max


def _single(rng, probs, eta: float, counted: bool) -> dict:
    bins = probs.size
    if counted:
        n_max = bins
        law = oracle.response(probs, eta, 16) @ _source_law(rng, 16)
        shots = int(rng.choice([100_000, 1_000_000]))
        data = _counts(rng, law, shots)
        truth = None
    else:
        n_max = _noiseless_n_max(bins, eta)
        truth = _source_law(rng, n_max)
        data = oracle.response(probs, eta, n_max) @ truth
    return {"kind": "single", "probs": probs, "eta": eta, "n_max": n_max, "data": data, "truth": truth}


def _joint(rng, bins: int, counted: bool) -> dict:
    probs = np.full(bins, 1.0 / bins)
    etas = (float(rng.uniform(0.2, 0.6)), float(rng.uniform(0.2, 0.6)))
    n_max = bins if counted else min(bins, _noiseless_n_max(bins, min(etas)))
    pairs = _source_law(rng, 16 if counted else n_max)
    models = [oracle.response(probs, eta, pairs.size - 1) for eta in etas]
    law = oracle.twoarm_clicks(pairs, *models)
    data = _counts(rng, law, 1_000_000) if counted else law
    return {"kind": "joint", "probs": probs, "etas": etas, "n_max": n_max, "data": data,
            "truth": None if counted else np.diag(pairs)}


def _merged(rng, probs, eta: float, counted: bool) -> dict:
    bins = probs.size
    n_max = bins if counted else _noiseless_n_max(bins, eta)
    # exact laws keep the total photon number (twice the pairs) within n_max
    pairs = _source_law(rng, 12 if counted else n_max // 2)
    law = oracle.collective_clicks(pairs, eta, eta, probs)
    if counted:
        data, truth = _counts(rng, law, 1_000_000), None
    else:
        data, truth = law, np.zeros(n_max + 1)
        truth[0 : 2 * pairs.size - 1 : 2] = pairs
    return {"kind": "merged", "probs": probs, "eta": eta, "n_max": n_max, "data": data, "truth": truth}


class AnalysisBatch(Workload):
    """Reconstruction, error propagation, fits and joint metrics on a batch."""

    name = "analysis-batch"

    def setup(self) -> None:
        import tmdkit as tk

        self.tk = tk
        self.batch = build_batch(self.seed, self.scale)
        self.items_per_pass = len(self.batch)
        for item in self.batch:
            data = item["data"]
            if item["kind"] == "joint":
                item["tmd"] = tuple(tk.TMDConfig(item["probs"], eta, item["n_max"]) for eta in item["etas"])
                exact = tk.JointPhotonDistribution
            else:
                item["tmd"] = tk.TMDConfig(item["probs"], item["eta"], item["n_max"])
                exact = tk.PhotonDistribution
            counted = item["truth"] is None
            item["clicks"] = tk.ClickStatistics(data, int(data.sum())) if counted else exact(data)

    def analyse(self, item: dict) -> dict:
        tk, clicks = self.tk, item["clicks"]
        if item["kind"] == "joint":
            tmd_s, tmd_i = item["tmd"]
            direct = tk.invert_joint(tmd_s, tmd_i, clicks)
            constrained = tk.invert_joint(tmd_s, tmd_i, clicks, constrained=True)
            out = {"direct": direct.dist.probs, "constrained": constrained.dist.probs}
            phys = constrained.dist
            out["correlation"] = tk.correlation(phys)
            out["squeezing_db"] = tk.number_squeezing_db(phys)
            out["marginals"] = [m.probs for m in tk.marginals(phys)]
            if item["truth"] is not None:
                out["direct_correlation"] = tk.correlation(direct.dist)
            return out
        tmd = item["tmd"]
        direct = tk.invert_single(tmd, clicks)
        constrained = tk.invert_single(tmd, clicks, constrained=True)
        shots = None if isinstance(clicks, tk.ClickStatistics) else 100_000
        cov = tk.propagate_errors(tmd, clicks, SIGMA_ETA, shots=shots)
        out = {"direct": direct.dist.probs, "constrained": constrained.dist.probs, "covariance": cov}
        if item["kind"] == "single":
            for family, fit_fn, law_fn in (("poisson", tk.fit_poisson, tk.poisson_dist),
                                           ("thermal", tk.fit_thermal, tk.thermal_dist)):
                fit = fit_fn(constrained.dist)
                law = law_fn(fit.mean, tmd.n_max)
                out[family] = (fit.mean, fit.residual_l2, tk.forward(tmd, law).probs)
        return out

    def run_pass(self) -> Outcome:
        outcome = Outcome()
        for item in self.batch:
            outcome.outputs.append(outcome.run(self.analyse, item))
        return outcome

    def check(self, outcome: Outcome) -> None:
        for index, (item, out) in enumerate(zip(self.batch, outcome.outputs)):
            if out is not None:
                check_analysis(item, out, f"item {index} ({item['kind']})")
        # exact laws fit back to their own means
        for family, law_fn, fit_fn in (("poisson", self.tk.poisson_dist, self.tk.fit_poisson),
                                       ("thermal", self.tk.thermal_dist, self.tk.fit_thermal)):
            for mean in (0.1, 0.5, 2.0):
                fit = fit_fn(law_fn(mean, 12))
                oracle.check_close(fit.mean, mean, 1e-6, f"{family} fit of an exact law")


def check_analysis(item: dict, out: dict, what: str) -> None:
    data = np.asarray(item["data"], dtype=float)
    freq = data / data.sum()
    oracle.check_distribution(out["constrained"], f"{what} constrained")
    if item["kind"] == "joint":
        models = [oracle.response(item["probs"], eta, item["n_max"]) for eta in item["etas"]]
        if item["truth"] is not None:
            oracle.check_close(out["direct"], item["truth"], 1e-7, f"{what} exact recovery")
            oracle.check_close(out["direct_correlation"], 1.0, 1e-9, f"{what} twin-beam correlation")
        else:
            oracle.check_reproduces_joint(out["direct"], *models, freq, f"{what} direct")
        oracle.check_close(out["correlation"], oracle.pearson(out["constrained"]), 1e-9, f"{what} correlation")
        squeezing = oracle.squeezing_db(out["constrained"])
        if math.isinf(squeezing):
            oracle.check_equal(out["squeezing_db"], squeezing, f"{what} squeezing")
        else:
            oracle.check_close(out["squeezing_db"], squeezing, 1e-9, f"{what} squeezing")
        for axis, marginal in zip((1, 0), out["marginals"]):
            oracle.check_close(marginal, np.asarray(out["constrained"]).sum(axis=axis), 1e-12, f"{what} marginal")
        return
    model = oracle.response(item["probs"], item["eta"], item["n_max"])
    if item["truth"] is not None:
        oracle.check_close(out["direct"], item["truth"], 1e-7, f"{what} exact recovery")
    else:
        oracle.check_reproduces(out["direct"], model, freq, f"{what} direct")
    oracle.check_covariance(out["covariance"], item["n_max"] + 1, f"{what} covariance")
    if item["kind"] == "single":
        for family in ("poisson", "thermal"):
            mean, residual, clicks = out[family]
            oracle.check_fit(out["constrained"], family, mean, residual, f"{what} {family} fit")
            law = oracle.truncated_law(family, mean, item["n_max"])
            oracle.check_close(clicks, model @ law, 1e-9, f"{what} forward {family} law")


# --- shot-roundtrip ---------------------------------------------------------


class ShotRoundtrip(Workload):
    """``write_shots`` then ``ingest_shots`` on simulated per-shot masks."""

    name = "shot-roundtrip"

    def setup(self) -> None:
        import tmdkit as tk

        self.tk = tk
        seeds = sub_seeds(self.seed, 4, 2)
        shots = int(ROUNDTRIP_SHOTS * self.scale)
        self.bright = bright_config(tk, shots, seeds[0])
        self.stock_c = tk.default_config("C", shots=shots, seed=seeds[1])
        self.bright_run = tk.run_experiment(self.bright, keep_shots=True)
        self.c_run = tk.run_collective_experiment(self.stock_c, keep_shots=True)
        self.items_per_pass = 2 * shots
        self.work.mkdir(parents=True, exist_ok=True)
        self.paths = (self.work / "bright_shots.csv", self.work / "c_shots.csv")
        small = self.work / "warm.csv"  # untimed warm-up of both paths
        tk.write_shots(small, signal_masks=self.c_run.masks[:1000])
        tk.ingest_shots(small, signal_bins=8)

    def run_pass(self) -> Outcome:
        outcome = Outcome()
        two_arm, single = self.paths
        r = self.bright_run
        outcome.run(self.tk.write_shots, two_arm, signal_masks=r.signal_masks, idler_masks=r.idler_masks)
        outcome.outputs.append(outcome.run(self.tk.ingest_shots, two_arm, signal_bins=8, idler_bins=8))
        outcome.run(self.tk.write_shots, single, signal_masks=self.c_run.masks)
        outcome.outputs.append(outcome.run(self.tk.ingest_shots, single, signal_bins=8))
        return outcome

    def check(self, outcome: Outcome) -> None:
        check_histograms(self.tk, self.bright, self.bright_run, "bright run")
        check_histograms(self.tk, self.stock_c, self.c_run, "stock C run")
        bright, collective = outcome.outputs
        if bright is not None:
            oracle.check_equal(bright.counts, self.bright_run.joint_clicks.counts, "two-arm round trip")
        if collective is not None:
            oracle.check_equal(collective.counts, self.c_run.clicks.counts, "single-column round trip")

    def outputs_of(self, outcome: Outcome):
        return [o.counts for o in outcome.outputs if o is not None]


WORKLOADS = {w.name: w for w in (CliReplicate, SimBulk, AnalysisBatch, ShotRoundtrip)}

