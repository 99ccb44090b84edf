"""Benchmark of tmdkit: four closed-loop workloads, one caller each.

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --smoke       # one small checked pass of every workload
  python3 bench/run.py --self-test   # every output check rejects a wrong output

With ``--trace 0`` the run sets up the workload (several times, for a
median set-up time), then repeats whole passes until ``--seconds`` of
pass time is spent, and reports the end-to-end metrics.  With
``--trace 1`` it runs the passes with spans around tmdkit's public
functions, then the layer probes, and reports the per-layer metrics.
Outputs are checked against the reference model in ``oracle.py``; the
last line of standard output is the JSON result, and a copy with the
machine and version details goes to ``.bench_out/`` at the repo root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import probes
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
SMOKE_SCALE = {"cli-replicate": 0.02, "sim-bulk": 0.05, "analysis-batch": 0.1, "shot-roundtrip": 0.05}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
    ) if shutil.which("git") else None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": git.stdout.strip() if git is not None and git.returncode == 0 else "unknown",
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")),
        "seed": seed,
    }


def tail_note(times: list[float]) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    n = len(times)
    note = f"{n} passes, median {statistics.median(times) * 1e3:.1f} ms"
    if n >= 40:
        pct = int(100 * (n - 10) / n)
        value = statistics.quantiles(times, n=100)[pct - 1]
        note += f", p{pct} {value * 1e3:.1f} ms"
    return note


class Run:
    """Tally and pass times of one run."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def passes(self, workload, seconds: float, tracer=None) -> None:
        while sum(self.times) < seconds or not self.times:
            start = time.perf_counter()
            if tracer is None:
                outcome = workload.run_pass()
            else:
                with tracer.span(tracing.PASS_SPAN):
                    outcome = workload.run_pass()
            self.times.append(time.perf_counter() - start)
            self.attempted += outcome.attempted
            self.failed += outcome.failed
            self.errors += outcome.errors
            workload.verify(outcome)


def make(name: str, seed: int, work: Path, scale: float = 1.0, tracer=None):
    return workloads.WORKLOADS[name](seed, work, scale, tracer)


def timed_run(name: str, seed: int, seconds: float, work: Path) -> tuple[Run, dict]:
    setups = []
    for i in range(SETUP_REPEATS):
        workload = make(name, seed, work / f"setup{i}")
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    run = Run()
    run.passes(workload, seconds)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms": (statistics.median(run.times) * 1e3, "ms"),
        "items_per_s": (workload.items_per_pass * len(run.times) / sum(run.times), "1/s"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }
    print(f"{name}: {tail_note(run.times)}; set-ups {', '.join(f'{s:.3f}' for s in setups)} s")
    return run, metrics


def traced_run(name: str, seed: int, seconds: float, work: Path) -> tuple[Run, dict, list]:
    import tmdkit as tk

    tracer = tracing.Tracer()
    workload = make(name, seed, work / "traced", tracer=tracer)
    workload.setup()
    run = Run()
    tracer.install()
    try:
        run.passes(workload, seconds, tracer)
    finally:
        tracer.uninstall()
    passes = len(run.times)
    roots = {i for i, span in enumerate(tracer.spans) if span[0] == tracing.PASS_SPAN}
    in_passes = tracing.subtree(tracer.spans, roots)
    layers = tracing.layer_summary(tracer.spans, passes, in_passes)
    probe_metrics, first = probes.run_all(tk, tracer, seed, work / "probes")
    in_chain = [i >= first for i in range(len(tracer.spans))]
    chain_layers = tracing.layer_summary(tracer.spans, 1, in_chain)
    metrics = {"trace.op_ms": (statistics.median(run.times) * 1e3, "ms")}
    for layer, entry in layers.items():
        source = entry if entry["calls"] > 0 else chain_layers[layer]
        if entry["calls"] == 0:
            print(f"{name}: passes never enter {layer}; its layer figures come from the in-process chain")
        metrics[f"{layer}.self_ms"] = (source["self_ms"], "ms")
        metrics[f"{layer}.calls"] = (source["calls"], "count")
    for key, value in probe_metrics.items():
        metrics[key] = (value, unit_of(key))
    print(f"{name} traced: {tail_note(run.times)}")
    return run, metrics, tracer.spans


def unit_of(metric: str) -> str:
    for suffix, unit in ((".us", "us"), ("_us", "us"), (".ms", "ms"), ("_ms", "ms"), ("_per_s", "1/s"),
                         ("_mb", "MB"), ("minflt_per_mshot", "faults/Mshot")):
        if metric.endswith(suffix):
            return unit
    return "count"


def smoke() -> int:
    """One small checked pass of every workload, a traced pass, and the self-test."""
    started = time.perf_counter()
    print(f"self-test: {oracle.self_test()} wrong outputs rejected")
    work = OUT / f"smoke-{os.getpid()}"
    try:
        for name, scale in SMOKE_SCALE.items():
            workload = make(name, 1, work / name, scale)
            workload.setup()
            run = Run()
            run.passes(workload, 0.0)
            if run.failed:
                raise oracle.CheckError(f"{name}: {run.failed} operations failed: {run.errors[:3]}")
            print(f"{name}: {run.attempted} operations checked in {run.times[0]:.2f} s")
        tracer = tracing.Tracer()
        workload = make("analysis-batch", 1, work / "traced", SMOKE_SCALE["analysis-batch"], tracer)
        workload.setup()
        tracer.install()
        try:
            Run().passes(workload, 0.0, tracer)
        finally:
            tracer.uninstall()
        layers = tracing.layer_summary(tracer.spans, 1)
        print("traced pass:", ", ".join(f"{k} {v['calls']:.0f} calls" for k, v in layers.items() if v["calls"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"smoke passed in {time.perf_counter() - started:.1f} s")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tmdkit" / "__init__.py").is_file():
        fail(f"no tmdkit sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    if args.self_test:
        print(f"self-test: {oracle.self_test()} wrong outputs rejected")
        return 0
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload != "cli-replicate" or args.trace:
        import tmdkit  # noqa: F401  (in-process workloads start after the import)

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    spans = None
    try:
        if args.trace:
            run, metrics, spans = traced_run(args.workload, args.seed, args.seconds, work)
        else:
            run, metrics = timed_run(args.workload, args.seed, args.seconds, work)
    except oracle.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in run.errors[:5]:
        print(f"failed operation: {error}", file=sys.stderr)

    result = {
        "correct": True,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  pass_ms=[t * 1e3 for t in run.times], environment=environment(args.seed))
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
