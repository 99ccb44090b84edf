"""Command-line front end: simulate a run, or chain it through every analysis stage.

``simulate`` writes a run's click tables (and, on request, its shots);
``replicate`` also calibrates, reconstructs and reports, writing every
stage document; ``metrics`` and ``fit`` analyse a stored document.

Exit codes: 0 success, 2 configuration error, 3 data-format error,
4 numerical or degenerate-condition error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import __version__
from . import io as tmdio
from . import pipelines
from .errors import ConfigError, DataFormatError, TmdkitError
from .montecarlo import SETUPS, ExperimentConfig, _worker_count

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmdkit",
        description="simulate click detectors and reconstruct photon statistics",
    )
    parser.add_argument("--version", action="version", version=f"tmdkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p: argparse.ArgumentParser, setup: str = "--setup") -> None:
        # replicate takes its layout as a positional "setup" and has no --setup
        p.add_argument(setup, choices=SETUPS, help="use the stock config of this layout")
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--shots", type=int, help="override the config shot count")
        p.add_argument("--out", default="tmdkit-out", help="output directory")
        p.add_argument("--emit-shots", action="store_true", help="also write per-shot masks as CSV")

    p = sub.add_parser("simulate", help="run the shot-by-shot simulation")
    add_run_flags(p)

    p = sub.add_parser("metrics", help="figures of merit for a stored distribution")
    p.add_argument("--in", dest="in_path", required=True, help="JSON document to analyze")
    p.add_argument("--out", default="tmdkit-out", help="output directory")

    p = sub.add_parser("fit", help="fit the one-parameter families to a stored distribution")
    p.add_argument("--in", dest="in_path", required=True, help="JSON document to fit")
    p.add_argument("--out", default="tmdkit-out", help="output directory")

    p = sub.add_parser("replicate", help="full measurement chain for one layout")
    add_run_flags(p, setup="setup")
    p.add_argument(
        "--constrained",
        action="store_true",
        help="non-negative reconstruction instead of the direct inverse",
    )
    return parser


def _load_config(args: argparse.Namespace) -> tuple[ExperimentConfig, list[str]]:
    if args.config is not None:
        config = tmdio.parse_config(args.config)
        if args.setup is not None and config.setup != args.setup:
            raise ConfigError(f"setup {args.setup} contradicts the config's setup {config.setup}")
        inputs = [str(args.config)]
    elif args.setup is not None:
        config, inputs = pipelines.default_config(args.setup), []
    else:
        raise ConfigError("provide --config or --setup")
    return pipelines.apply_overrides(config, shots=args.shots, seed=args.seed), inputs


def _print_summary(doc: dict) -> None:
    # plain JSON values, so arrays are lists and skipped with the other containers
    for key, value in tmdio.jsonable(doc).items():
        if key in ("format_version", "kind") or isinstance(value, (dict, list)):
            continue
        print(f"{key} = {value}")


def _dispatch(args: argparse.Namespace) -> None:
    started = time.monotonic()
    if args.command in ("metrics", "fit"):
        runner = pipelines.run_metrics_file if args.command == "metrics" else pipelines.run_fit_file
        output = runner(args.in_path, args.out)
        echo, seed, threads, inputs = {"in": str(args.in_path)}, None, None, [str(args.in_path)]
    else:
        config, inputs = _load_config(args)
        if args.command == "replicate":
            output = pipelines.run_replicate(config, args.out, args.constrained, args.emit_shots)
        else:
            output = pipelines.run_simulation(config, args.out, args.emit_shots)
        echo, seed = tmdio.serialize_config(config), config.seed
        threads = _worker_count(config.shots)
    # provenance record tying the run's outputs to its exact inputs
    manifest = {
        "format_version": tmdio.FORMAT_VERSION,
        "tool": {"name": "tmdkit", "version": __version__},
        "command": f"replicate {args.setup}" if args.command == "replicate" else args.command,
        "config": echo,
        "seed": seed,
        "threads": threads,
        "inputs": list(inputs),
        "outputs": list(output.paths),
        "duration_seconds": time.monotonic() - started,
    }
    tmdio.write_json_doc(Path(args.out) / "manifest.json", manifest)
    _print_summary(output.primary)
    for path in output.paths:
        print(f"wrote {path}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _dispatch(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TmdkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
