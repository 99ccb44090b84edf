"""Fresh-interpreter entry of the benchmark.

  python bench/child.py import [SHOTS_CSV SIGNAL_BINS IDLER_BINS]
      time ``import tmdkit`` and count what it loads; with a shot file,
      also measure how far ``ingest_shots`` raises peak memory.
  python bench/child.py cli SPANS_JSON ARG...
      time ``import tmdkit``, wrap its public functions, run
      ``tmdkit.cli.main(ARG...)`` and write the spans to SPANS_JSON.

Either way one JSON line goes to standard output; a ``cli`` child exits
with the CLI's own code.  ``tmdkit`` must be importable (PYTHONPATH).
"""

import resource
import sys
import time


def rss_mb() -> float:
    """Peak resident memory of this process image so far.

    VmHWM starts afresh at exec; ``ru_maxrss`` would also count the
    parent's size at fork.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * resource.getpagesize() / 2**20


def ingest_growth_mb(tmdkit, path: str, signal_bins: int, idler_bins: int) -> tuple[int, float]:
    """Rows ingested and the largest rise of resident memory meanwhile.

    A thread samples the resident size while the ingest runs; the peak
    of the whole process is no use here, since the import set it.
    """
    import threading

    base = current_rss_mb()
    peak = [base]
    done = threading.Event()

    def sample() -> None:
        while not done.wait(0.001):
            peak[0] = max(peak[0], current_rss_mb())

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        stats = tmdkit.ingest_shots(path, signal_bins=signal_bins, idler_bins=idler_bins)
    finally:
        done.set()
        sampler.join()
    return stats.total_shots, max(peak[0], current_rss_mb()) - base


def main(argv: list[str]) -> int:
    before = set(sys.modules)
    start = time.perf_counter()
    import tmdkit

    elapsed = time.perf_counter() - start
    loaded = set(sys.modules) - before
    report = {
        "import_ms": elapsed * 1e3,
        "modules": len(loaded),
        "scipy_modules": sum(1 for m in loaded if m == "scipy" or m.startswith("scipy.")),
        "rss_mb": rss_mb(),
    }
    import json

    code = 0
    if argv[0] == "import" and len(argv) == 4:
        rows, growth = ingest_growth_mb(tmdkit, argv[1], int(argv[2]), int(argv[3]))
        report["ingest_rows"] = rows
        report["ingest_rss_growth_mb"] = growth
    elif argv[0] == "cli":
        import io
        from contextlib import redirect_stdout

        import tmdkit.cli
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        with redirect_stdout(io.StringIO()):
            code = tmdkit.cli.main(argv[2:])
        tracer.uninstall()
        with open(argv[1], "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    print(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
