"""Config parsing, result documents, and shot-record files.

All JSON documents are UTF-8 with lower_snake_case keys and carry
``"format_version": 1``.  Writers are atomic (write to a temp file in
the target directory, then rename) and deterministic: keys are sorted
and non-finite floats are rendered as the strings "inf"/"-inf".
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, TextIO

import numpy as np

from .detector import MAX_BINS, TMDConfig
from .errors import ConfigError, DataFormatError, DomainError
from .montecarlo import SETUPS, ExperimentConfig, _click_histogram
from .sources import SourceModel
from .stats import ClickStatistics, JointPhotonDistribution, PhotonDistribution

FORMAT_VERSION = 1

_TOP_KEYS = {"format_version", "setup", "source", "shots", "seed", "signal", "idler"}
_SOURCE_KEYS = {"kind", "mean", "modes", "photons", "n_max", "pair_dist"}
_DETECTOR_KEYS = {"bins", "bin_probs", "efficiency", "n_max", "efficiency_uncertainty"}
_SOURCE_KINDS = ("thermal", "multimode", "poisson", "fock", "custom")


def _is_int(value: Any) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value: Any) -> bool:
    return _is_int(value) or isinstance(value, (float, np.floating))


def jsonable(value: Any) -> Any:
    """Convert a result value into plain JSON types.

    Arrays become lists, numpy scalars become Python scalars, and
    infinities become the strings "inf"/"-inf" so documents stay valid
    strict JSON.  NaN is rejected: no result in this package should
    silently contain one.
    """
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise DataFormatError(f"document keys must be strings, got {key!r}")
            out[key] = jsonable(item)
        return out
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return [jsonable(item) for item in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if _is_int(value):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            raise DataFormatError("NaN is not representable in result documents")
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if value is None or isinstance(value, str):
        return value
    raise DataFormatError(f"value of type {type(value).__name__} is not JSON-serializable")


@contextmanager
def _atomic_open(path: str | Path) -> Iterator[TextIO]:
    """Text handle on a temp file that replaces ``path`` once the block succeeds.

    Readers never see a partial file, and the writer can stream to disk.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write a file via temp-file-then-rename so readers never see a partial file."""
    with _atomic_open(path) as handle:
        handle.write(text)


def write_json_doc(path: str | Path, doc: dict) -> None:
    """Serialize a result document deterministically and atomically."""
    payload = jsonable(doc)
    if not isinstance(payload, dict):
        raise DataFormatError("a JSON document must be an object at the top level")
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False, ensure_ascii=False)
    atomic_write_text(path, text + "\n")


def read_json_doc(path: str | Path) -> dict:
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DataFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: expected a JSON object at the top level")
    version = doc.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported format_version {version!r}")
    return doc


def _reject_unknown(doc: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown field {unknown[0]!r} in {where}")


def _require(doc: dict, field: str, where: str) -> Any:
    if field not in doc:
        raise ConfigError(f"missing required field {field!r} in {where}")
    return doc[field]


def _parse_source(doc: Any) -> SourceModel:
    if not isinstance(doc, dict):
        raise ConfigError("source must be an object")
    _reject_unknown(doc, _SOURCE_KEYS, "source")
    kind = _require(doc, "kind", "source")
    if kind not in _SOURCE_KINDS:
        raise ConfigError(f"source.kind must be one of {_SOURCE_KINDS}, got {kind!r}")
    n_max = doc.get("n_max")
    if n_max is not None and (not _is_int(n_max) or n_max < 0):
        raise ConfigError("source.n_max must be a non-negative integer")

    def need_mean() -> float:
        mean = _require(doc, "mean", "source")
        if not _is_real(mean) or not math.isfinite(mean) or mean < 0:
            raise ConfigError("source.mean must be a finite non-negative number")
        return float(mean)

    try:
        if kind == "thermal":
            return SourceModel.single_mode_squeezer(need_mean(), n_max)
        if kind == "poisson":
            return SourceModel.poissonian_pairs(need_mean(), n_max)
        if kind == "multimode":
            modes = _require(doc, "modes", "source")
            if not _is_int(modes) or modes < 1:
                raise ConfigError("source.modes must be a positive integer")
            return SourceModel.multimode_pdc(int(modes), need_mean(), n_max)
        if kind == "fock":
            photons = _require(doc, "photons", "source")
            if not _is_int(photons) or photons < 0:
                raise ConfigError("source.photons must be a non-negative integer")
            return SourceModel.fock_pairs(int(photons), n_max)
        pair_dist = _require(doc, "pair_dist", "source")
        if not isinstance(pair_dist, list) or not all(_is_real(x) for x in pair_dist):
            raise ConfigError("source.pair_dist must be a list of numbers")
        return SourceModel(PhotonDistribution(np.asarray(pair_dist, dtype=float)), "custom")
    except DomainError as exc:
        raise ConfigError(f"source: {exc}") from exc


def _default_detector(setup: str, arm: str) -> TMDConfig:
    threshold = setup == "A" or (setup == "B" and arm == "signal")
    if threshold:
        return TMDConfig.uniform(bins=1)
    return TMDConfig.uniform(bins=8)


def _parse_detector(doc: Any, setup: str, arm: str) -> tuple[TMDConfig, float]:
    if doc is None:
        return _default_detector(setup, arm), 0.0
    if not isinstance(doc, dict):
        raise ConfigError(f"{arm} must be an object")
    _reject_unknown(doc, _DETECTOR_KEYS, arm)
    if "bins" in doc and "bin_probs" in doc:
        raise ConfigError(f"{arm}: give either bins or bin_probs, not both")
    efficiency = doc.get("efficiency", 1.0)
    if not _is_real(efficiency):
        raise ConfigError(f"{arm}.efficiency must be a number")
    sigma = doc.get("efficiency_uncertainty", 0.0)
    if not _is_real(sigma) or not 0.0 <= float(sigma) < 1.0:
        raise ConfigError(f"{arm}.efficiency_uncertainty must lie in [0, 1)")
    n_max = doc.get("n_max")
    if n_max is not None and (not _is_int(n_max) or n_max < 0):
        raise ConfigError(f"{arm}.n_max must be a non-negative integer")
    try:
        if "bin_probs" in doc:
            probs = doc["bin_probs"]
            if not isinstance(probs, list) or not all(_is_real(x) for x in probs):
                raise ConfigError(f"{arm}.bin_probs must be a list of numbers")
            probs = np.asarray(probs, dtype=float)
            tmd = TMDConfig(probs, float(efficiency), probs.size if n_max is None else n_max)
        else:
            bins = doc.get("bins", _default_detector(setup, arm).bins)
            if not _is_int(bins) or bins < 1:
                raise ConfigError(f"{arm}.bins must be a positive integer")
            tmd = TMDConfig.uniform(int(bins), float(efficiency), n_max)
    except DomainError as exc:
        raise ConfigError(f"{arm}: {exc}") from exc
    return tmd, float(sigma)


def config_from_doc(doc: dict) -> ExperimentConfig:
    """Validate a config document and build the experiment it describes.

    Validation is strict: unknown fields are rejected and every error
    names the offending field.  Omitted detector blocks default to the
    layout-appropriate arity (threshold or 8 uniform bins) at unit
    efficiency.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "config")
    version = doc.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ConfigError(f"unsupported format_version {version!r}")
    setup = _require(doc, "setup", "config")
    if setup not in SETUPS:
        raise ConfigError(f"setup must be one of {SETUPS}, got {setup!r}")
    shots = _require(doc, "shots", "config")
    if not _is_int(shots) or shots < 1:
        raise ConfigError("shots must be a positive integer")
    seed = _require(doc, "seed", "config")
    if not _is_int(seed) or not 0 <= seed < 2**64:
        raise ConfigError("seed must be an unsigned 64-bit integer")
    source = _parse_source(_require(doc, "source", "config"))
    tmd_signal, sigma_signal = _parse_detector(doc.get("signal"), setup, "signal")
    tmd_idler, sigma_idler = _parse_detector(doc.get("idler"), setup, "idler")
    try:
        return ExperimentConfig(
            source=source,
            setup=setup,
            tmd_signal=tmd_signal,
            tmd_idler=tmd_idler,
            shots=int(shots),
            seed=int(seed),
            sigma_eta_signal=sigma_signal,
            sigma_eta_idler=sigma_idler,
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a JSON experiment config."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_doc(doc)


def _serialize_source(source: SourceModel) -> dict:
    doc: dict[str, Any] = {"kind": source.label, "n_max": source.pair_dist.n_max}
    if source.label == "thermal" or source.label == "poisson":
        doc["mean"] = source.mean
    elif source.label == "multimode":
        doc["mean"] = source.mean
        doc["modes"] = source.modes
    elif source.label == "fock":
        doc["photons"] = source.photons
    else:
        doc = {"kind": "custom", "pair_dist": source.pair_dist.probs.tolist()}
    if None in doc.values():
        # parametric label without its parameters: fall back to the explicit form
        doc = {"kind": "custom", "pair_dist": source.pair_dist.probs.tolist()}
    return doc


def _serialize_detector(tmd: TMDConfig, sigma: float) -> dict:
    return {
        "bin_probs": tmd.bin_probs.tolist(),
        "efficiency": tmd.efficiency,
        "n_max": tmd.n_max,
        "efficiency_uncertainty": sigma,
    }


def serialize_config(config: ExperimentConfig) -> dict:
    """Normalized config document; parse(serialize(x)) reproduces x exactly."""
    return {
        "format_version": FORMAT_VERSION,
        "setup": config.setup,
        "source": _serialize_source(config.source),
        "shots": config.shots,
        "seed": config.seed,
        "signal": _serialize_detector(config.tmd_signal, config.sigma_eta_signal),
        "idler": _serialize_detector(config.tmd_idler, config.sigma_eta_idler),
    }


def write_shots(
    path: str | Path,
    signal_masks: np.ndarray | None = None,
    idler_masks: np.ndarray | None = None,
) -> None:
    """Write per-shot click masks as CSV, one row per shot.

    Masks are decimal integers; bit i set means bin i clicked.  Either
    arm may be omitted for single-detector runs.
    """
    columns = []
    header = ["shot_id"]
    for name, masks in (("signal_mask", signal_masks), ("idler_mask", idler_masks)):
        if masks is not None:
            columns.append(np.asarray(masks))
            header.append(name)
    if not columns:
        raise DomainError("write_shots needs at least one arm")
    length = columns[0].size
    if any(col.ndim != 1 or col.size != length for col in columns):
        raise DomainError("mask arrays must be 1-d and equally long")
    table = np.column_stack([np.arange(length, dtype=np.int64)] + [c.astype(np.int64) for c in columns])
    with _atomic_open(path) as handle:
        np.savetxt(handle, table, fmt="%d", delimiter=",", header=",".join(header), comments="")


def ingest_shots(
    path: str | Path,
    signal_bins: int | None = None,
    idler_bins: int | None = None,
) -> ClickStatistics:
    """Aggregate a shot CSV into click statistics.

    The declared bin count of each present arm is required and bounds
    the admissible masks.  With both arms present the result is the
    joint click histogram; with one arm it is that arm's histogram.
    """
    for arm, bins in (("signal", signal_bins), ("idler", idler_bins)):
        if bins is not None and not (_is_int(bins) and 1 <= bins <= MAX_BINS):
            raise DomainError(
                f"{arm}_bins must be an integer in [1, MAX_BINS={MAX_BINS}], got {bins!r}"
            )
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read shots {path}: {exc}") from exc
    if not lines:
        raise DataFormatError(f"{path}: empty file, expected a header")
    header = lines[0].strip()
    fields = header.split(",")
    if fields[0] != "shot_id" or len(fields) < 2 or not set(fields[1:]) <= {
        "signal_mask",
        "idler_mask",
    } or len(set(fields)) != len(fields):
        raise DataFormatError(f"{path}: unrecognized header {header!r}")
    declared = {"signal_mask": signal_bins, "idler_mask": idler_bins}
    for name in fields[1:]:
        if declared[name] is None:
            argument = name.replace("mask", "bins")
            raise DataFormatError(f"{name} column present but {argument} not declared")

    # blank lines are skipped, so data row k need not sit on file line k + 2
    parsed = np.empty((len(lines) - 1, len(fields)), dtype=np.int64)
    rows = 0
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(fields):
            raise DataFormatError(f"{path} line {number}: expected {len(fields)} fields")
        try:
            parsed[rows] = [int(part) for part in parts]
        except ValueError as exc:
            raise DataFormatError(f"{path} line {number}: non-integer field") from exc
        except OverflowError as exc:
            raise DataFormatError(f"{path} line {number}: field outside the int64 range") from exc
        rows += 1
    if not rows:
        raise DataFormatError(f"{path}: no shots")
    parsed = parsed[:rows]

    # a joint histogram is indexed (signal, idler) whatever the column order
    masks, shape = [], []
    for name, bins in declared.items():
        if name not in fields:
            continue
        column = parsed[:, fields.index(name)]
        bad = np.flatnonzero((column < 0) | (column >= (1 << bins)))
        if bad.size:
            row = int(bad[0])
            raise DataFormatError(
                f"{path} line {_file_line(lines, row)}: mask {int(column[row])} "
                f"does not fit {bins} bins"
            )
        masks.append(column)
        shape.append(bins + 1)
    counts = _click_histogram(tuple(masks), tuple(shape)).reshape(shape)
    return ClickStatistics(counts, rows)


def _file_line(lines: list[str], row: int) -> int:
    """File line (1-based) of data row ``row`` (0-based), counting the blank lines skipped."""
    numbers = [number for number, line in enumerate(lines[1:], start=2) if line.strip()]
    return numbers[row]


def _write_table(path: str | Path, header: str, *columns: np.ndarray) -> None:
    """CSV with one row per array index: the index, then each column's entry there."""
    values = [np.ravel(column).tolist() for column in columns]
    lines = [header]
    for row, index in enumerate(np.ndindex(np.shape(columns[0]))):
        lines.append(",".join([*map(str, index), *(repr(value[row]) for value in values)]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_distribution_csv(
    path: str | Path,
    dist: PhotonDistribution | JointPhotonDistribution,
    sigma: np.ndarray | None = None,
) -> None:
    """Tabulate a distribution for external plotting."""
    if isinstance(dist, JointPhotonDistribution):
        if sigma is not None:
            raise DomainError("joint tables do not carry uncertainties")
        _write_table(path, "signal_n,idler_n,probability", dist.probs)
    elif not isinstance(dist, PhotonDistribution):
        raise DomainError("expected a photon distribution")
    elif sigma is None:
        _write_table(path, "n,probability", dist.probs)
    elif np.shape(sigma) != dist.probs.shape:
        raise DomainError("sigma length must match the distribution")
    else:
        _write_table(path, "n,probability,sigma", dist.probs, np.asarray(sigma, dtype=float))


def write_clicks_csv(path: str | Path, clicks: ClickStatistics) -> None:
    """Tabulate a click histogram for external plotting."""
    index = "clicks" if clicks.counts.ndim == 1 else "signal_clicks,idler_clicks"
    _write_table(path, f"{index},count,frequency", clicks.counts, clicks.frequencies)


@dataclass(frozen=True)
class RunManifest:
    """Provenance record tying a run's outputs to its exact inputs."""

    command: str
    config: dict
    seed: int | None
    version: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    duration_seconds: float

    def to_doc(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "tool": {"name": "tmdkit", "version": self.version},
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "duration_seconds": self.duration_seconds,
        }


def write_manifest(path: str | Path, manifest: RunManifest) -> None:
    write_json_doc(path, manifest.to_doc())
