"""Layer probes of a traced run.

They run after the workload's traced passes, are the same for every
workload, and give the per-layer metrics that single functions and
fresh interpreters measure: import cost, simulation throughput, the
median cost of one call into detector, reconstruct and stats, shot-file
rates, and each ``replicate`` chain run in-process.
"""

from __future__ import annotations

import io
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import tracing
from workloads import BENCH, BRIGHT_SHOTS, LAYOUTS, ROUNDTRIP_SHOTS, SIGMA_ETA, bright_config, cli_env, sub_seeds

IMPORT_CHILDREN = 3
SIM_REPEATS = 3
CALL_REPEATS = 25


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def simulation(tk, seed: int) -> tuple[dict, object]:
    seeds = sub_seeds(seed, 5, 6)
    runs = [(f"run_experiment.{x}", tk.default_config(x, seed=s)) for x, s in zip("ABD", seeds)]
    runs.insert(2, ("run_collective_experiment.C", tk.default_config("C", seed=seeds[3])))
    bright = bright_config(tk, BRIGHT_SHOTS, seeds[4])
    runs.append(("run_experiment.bright", bright))
    out = {}
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    total = 0
    for name, config in runs:
        fn = tk.run_collective_experiment if config.setup == "C" else tk.run_experiment
        out[f"montecarlo.{name}.shots_per_s"] = config.shots / _median_time(lambda: fn(config), SIM_REPEATS)
        total += SIM_REPEATS * config.shots
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    out["montecarlo.minflt_per_mshot"] = faults / total * 1e6
    kept = []
    keep_s = _median_time(lambda: kept.append(tk.run_experiment(bright, keep_shots=True)), SIM_REPEATS)
    out["montecarlo.run_experiment.keep_shots.shots_per_s"] = bright.shots / keep_s
    return out, kept[-1]


def calls(tk, seed: int) -> dict:
    """Median microseconds of one call on fixed stock-sized inputs."""
    rng = np.random.default_rng(sub_seeds(seed, 6, 1)[0])
    tmd_s = tk.TMDConfig.uniform(8, efficiency=0.117)
    tmd_i = tk.TMDConfig.uniform(8, efficiency=0.111)
    truth = tk.thermal_dist(0.5, 8)
    joint = tk.twin_beam_joint(truth)
    clicks = tk.ClickStatistics(rng.multinomial(1_000_000, tk.forward(tmd_s, truth).probs), 1_000_000)
    law = tk.joint_forward(tmd_s, tmd_i, joint).probs
    joint_clicks = tk.ClickStatistics(rng.multinomial(1_000_000, law.ravel()).reshape(law.shape), 1_000_000)
    probes = {
        "detector.loss_matrix.us": lambda: tk.loss_matrix(0.117, 8),
        "detector.convolution_matrix.us": lambda: tk.convolution_matrix(tmd_s.bin_probs, 8),
        "detector.forward.us": lambda: tk.forward(tmd_s, truth),
        "detector.joint_forward.us": lambda: tk.joint_forward(tmd_s, tmd_i, joint),
        "detector.collective_forward.us": lambda: tk.collective_forward(tmd_s, joint, 0.117, 0.117),
        "reconstruct.invert_single.us": lambda: tk.invert_single(tmd_i, clicks),
        "reconstruct.invert_single.constrained_us": lambda: tk.invert_single(tmd_i, clicks, constrained=True),
        "reconstruct.invert_joint.us": lambda: tk.invert_joint(tmd_s, tmd_i, joint_clicks),
        "reconstruct.invert_joint.constrained_us": lambda: tk.invert_joint(tmd_s, tmd_i, joint_clicks, True),
        "reconstruct.propagate_errors.us": lambda: tk.propagate_errors(tmd_i, clicks, SIGMA_ETA),
        "stats.fit_poisson.us": lambda: tk.fit_poisson(truth),
        "stats.fit_thermal.us": lambda: tk.fit_thermal(truth),
    }
    out = {}
    for name, fn in probes.items():
        fn()  # the first call may fill the occupation-matrix cache
        out[name] = _median_time(fn, CALL_REPEATS) * 1e6
    return out


def shot_files(tk, kept, work: Path) -> tuple[dict, Path]:
    rows = ROUNDTRIP_SHOTS
    path = work / "probe_shots.csv"
    s_masks, i_masks = kept.signal_masks[:rows], kept.idler_masks[:rows]
    write_s = _median_time(lambda: tk.write_shots(path, signal_masks=s_masks, idler_masks=i_masks), 2)
    read_s = _median_time(lambda: tk.ingest_shots(path, signal_bins=8, idler_bins=8), 2)
    config = tk.default_config("D")
    doc = {"config": tk.serialize_config(config), "clicks": {"joint": kept.joint_clicks.counts}}
    doc_path = work / "probe_doc.json"
    json_s = _median_time(lambda: tk.write_json_doc(doc_path, doc), CALL_REPEATS)
    return {
        "io.write_shots.rows_per_s": rows / write_s,
        "io.ingest_shots.rows_per_s": rows / read_s,
        "io.write_json_doc.us": json_s * 1e6,
    }, path


def imports(shot_file: Path) -> dict:
    """Fresh interpreters: import cost, and ingest memory growth per 1M rows."""
    reports = []
    for i in range(IMPORT_CHILDREN):
        argv = [sys.executable, str(BENCH / "child.py"), "import"]
        if i == 0:
            argv += [str(shot_file), "8", "8"]
        proc = subprocess.run(argv, env=cli_env(), capture_output=True, text=True, check=True)
        reports.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    med = lambda key: statistics.median(r[key] for r in reports)  # noqa: E731
    first = reports[0]
    return {
        "import.wall_ms": med("import_ms"),
        "import.modules": med("modules"),
        "import.scipy_modules": med("scipy_modules"),
        "import.rss_mb": med("rss_mb"),
        "io.ingest_shots.rss_growth_mb": first["ingest_rss_growth_mb"] * 1e6 / first["ingest_rows"],
    }


def chain(tracer: tracing.Tracer, seed: int, work: Path) -> tuple[dict, int]:
    """``tmdkit.cli.main(["replicate", X])`` in-process, traced.

    Returns the metrics and the index of the chain's first span.
    """
    import tmdkit.cli

    seeds = dict(zip(LAYOUTS, sub_seeds(seed, 1, len(LAYOUTS))))
    first = len(tracer.spans)
    tracer.install()
    try:
        for layout in LAYOUTS:
            argv = ["replicate", layout, "--seed", str(seeds[layout]), "--out", str(work / f"chain{layout}")]
            with redirect_stdout(io.StringIO()):
                code = tmdkit.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"in-process replicate {layout} exited {code}")
    finally:
        tracer.uninstall()
    spans = tracer.spans[first:]
    out = {}
    runs = tracing.durations(spans, "pipelines.run_replicate")
    for layout, seconds in zip(LAYOUTS, runs):
        out[f"pipelines.run_replicate.{layout}.ms"] = seconds * 1e3
    return out, first


def run_all(tk, tracer: tracing.Tracer, seed: int, work: Path) -> tuple[dict, int]:
    """Every probe metric, plus the index of the chain's first span."""
    work.mkdir(parents=True, exist_ok=True)
    metrics, kept = simulation(tk, seed)
    metrics.update(calls(tk, seed))
    files, shot_file = shot_files(tk, kept, work)
    metrics.update(files)
    metrics.update(imports(shot_file))
    chain_metrics, first = chain(tracer, seed, work)
    metrics.update(chain_metrics)
    return metrics, first
