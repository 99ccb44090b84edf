"""Command-line front end chaining simulation, calibration, and reconstruction.

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
from .montecarlo import SETUPS, ExperimentConfig

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

    def add_run_flags(
        p: argparse.ArgumentParser, constrained: bool = False, setup: str = "--setup"
    ) -> None:
        # replicate takes its layout as a positional "setup" and has no --setup
        p.add_argument(setup, choices=SETUPS, help="use the stock config of this layout")
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--shots", type=int, help="override the config shot count")
        p.add_argument("--out", default="tmdkit-out", help="output directory")
        if constrained:
            p.add_argument(
                "--constrained",
                action="store_true",
                help="non-negative reconstruction instead of the direct inverse",
            )

    p = sub.add_parser("simulate", help="run the shot-by-shot simulation")
    add_run_flags(p)
    p.add_argument("--emit-shots", action="store_true", help="also write per-shot masks as CSV")

    p = sub.add_parser("calibrate", help="estimate arm efficiencies from coincidences")
    add_run_flags(p)

    p = sub.add_parser("reconstruct", help="simulate and invert the detector model")
    add_run_flags(p, constrained=True)

    p = sub.add_parser("metrics", help="figures of merit for a stored distribution")
    p.add_argument("--in", dest="in_path", required=True, help="JSON document to analyze")
    p.add_argument("--out", default="tmdkit-out", help="output directory")

    p = sub.add_parser("fit", help="fit the one-parameter families to a stored distribution")
    p.add_argument("--in", dest="in_path", required=True, help="JSON document to fit")
    p.add_argument("--out", default="tmdkit-out", help="output directory")

    p = sub.add_parser("replicate", help="full measurement chain for one layout")
    add_run_flags(p, constrained=True, setup="setup")
    p.add_argument("--emit-shots", action="store_true", help="also write per-shot masks as CSV")
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
    skip = {"format_version", "kind", "config"}
    for key, value in doc.items():
        if key in skip or isinstance(value, (dict, list)):
            continue
        print(f"{key} = {value}")


def _dispatch(args: argparse.Namespace) -> None:
    started = time.monotonic()
    if args.command in ("metrics", "fit"):
        runner = pipelines.run_metrics_file if args.command == "metrics" else pipelines.run_fit_file
        output = runner(args.in_path, args.out)
        echo, seed, inputs = {"in": str(args.in_path)}, None, [str(args.in_path)]
    else:
        config, inputs = _load_config(args)
        options = {
            "constrained": getattr(args, "constrained", False),
            "emit_shots": getattr(args, "emit_shots", False),
        }
        if args.command == "replicate":
            output = pipelines.run_replicate(config, args.out, **options)
        else:
            output = pipelines.run_stage(args.command, config, args.out, **options)
        echo, seed = tmdio.serialize_config(config), config.seed
    manifest = tmdio.RunManifest(
        command=f"replicate {args.setup}" if args.command == "replicate" else args.command,
        config=echo,
        seed=seed,
        version=__version__,
        inputs=tuple(inputs),
        outputs=output.paths,
        duration_seconds=time.monotonic() - started,
    )
    tmdio.write_manifest(Path(args.out) / "manifest.json", manifest)
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
