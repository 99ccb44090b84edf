"""Compare benchmark results before and after a change, metric by metric.

  python3 bench/compare.py BEFORE AFTER

BEFORE and AFTER are result files written by ``bench/run.py`` (under
``.bench_out/``), or directories of them; from a directory the median of
each metric over the files of the same workload and trace mode is
taken.  A metric with a bound in BENCHMARK.json is flagged REGRESSION
when AFTER is worse than BEFORE by more than that share of BEFORE.
Per-layer metrics have no bound and are listed with their change only.
The exit code is 1 when any bounded metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict[tuple[str, int], dict]:
    """Results keyed by (workload, trace), metric values as medians."""
    files = sorted(path.glob("result-*.json")) if path.is_dir() else [path]
    grouped: dict[tuple[str, int], list[dict]] = {}
    for file in files:
        record = json.loads(file.read_text(encoding="utf-8"))
        grouped.setdefault((record["workload"], record["trace"]), []).append(record)
    out = {}
    for key, records in grouped.items():
        names = records[0]["metrics"].keys()
        out[key] = {
            "runs": len(records),
            "environment": records[0].get("environment", {}),
            "failed": sum(r["failed"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "metrics": {n: statistics.median(r["metrics"][n]["value"] for r in records if n in r["metrics"])
                        for n in names},
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    before, after = load(args.before), load(args.after)
    regressions = 0
    for key in sorted(before.keys() & after.keys()):
        b, a = before[key], after[key]
        env_b, env_a = b["environment"], a["environment"]
        print(f"== {key[0]} (trace {key[1]}): {b['runs']} vs {a['runs']} runs; "
              f"failed {b['failed']}/{b['attempted']} vs {a['failed']}/{a['attempted']}")
        for field in ("git_sha", "src_lines", "python", "numpy", "scipy", "cores", "blas_threads"):
            if env_b.get(field) != env_a.get(field):
                print(f"   {field}: {env_b.get(field)} -> {env_a.get(field)}")
        for name in b["metrics"]:
            if name not in a["metrics"] or name not in declared:
                continue
            old, new = b["metrics"][name], a["metrics"][name]
            change = (new - old) / old if old else float("inf") if new else 0.0
            worse = change if declared[name]["better"] == "lower" else -change
            bound = declared[name].get("bound")
            verdict = ""
            if bound is not None:
                verdict = "REGRESSION" if worse > bound else "ok"
                regressions += worse > bound
            print(f"   {name:48s} {old:14.6g} -> {new:14.6g} {declared[name]['unit']:>12s} "
                  f"{change:+8.1%} {verdict}")
    for key in sorted(before.keys() ^ after.keys()):
        print(f"== {key[0]} (trace {key[1]}): only in {'before' if key in before else 'after'}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
