"""Config parsing, result documents, and shot-record files.

All JSON documents are UTF-8 with lower_snake_case keys and carry
``"format_version": 1``.  Writers are atomic (write to a temp file in
the target directory, then rename) and deterministic: keys are sorted
and non-finite floats are rendered as the strings "inf"/"-inf".
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Sequence, TextIO

import numpy as np

from .detector import MAX_BINS, TMDConfig
from .errors import ConfigError, DataFormatError, DomainError, TmdkitError
from .montecarlo import SETUPS, ExperimentConfig, _click_histogram
from .sources import SourceModel
from .stats import (
    ClickStatistics,
    JointPhotonDistribution,
    PhotonDistribution,
    _count,
    _is_int,
    _is_real,
)

FORMAT_VERSION = 1

_TOP_KEYS = {"format_version", "setup", "source", "shots", "seed", "signal", "idler"}
_DETECTOR_KEYS = {"bins", "bin_probs", "efficiency", "n_max", "efficiency_uncertainty"}

# Parametric source kinds: the constructor, which checks every number,
# and its parameters in the order it takes them.  "custom" gives the pair
# distribution itself and has no row.
_SOURCE_KINDS = {
    "thermal": (SourceModel.single_mode_squeezer, ("mean",)),
    "multimode": (SourceModel.multimode_pdc, ("modes", "mean")),
    "poisson": (SourceModel.poissonian_pairs, ("mean",)),
    "fock": (SourceModel.fock_pairs, ("photons",)),
}

# Stock layouts: the source, then (bins, efficiency) of the signal and
# idler detectors.  Sources and efficiencies follow the reference
# twin-beam experiment the layouts are modeled on.  A config that omits
# a detector block gets its layout's bin count from here.
_STOCK_LAYOUTS = {
    "A": ({"kind": "fock", "photons": 1}, (1, 0.117), (1, 0.137)),
    "B": ({"kind": "thermal", "mean": 0.5}, (1, 0.117), (8, 0.113)),
    "C": ({"kind": "thermal", "mean": 0.05}, (8, 0.117), (8, 0.117)),
    "D": ({"kind": "poisson", "mean": 0.2}, (8, 0.0274), (8, 0.111)),
}
# Calibration uncertainty of every stock arm efficiency.
_STOCK_SIGMA_ETA = 0.009


def _supported_version(doc: dict) -> bool:
    """True unless ``doc`` names another format version; ``true`` and ``1.0`` are not 1."""
    version = doc.get("format_version", FORMAT_VERSION)
    return _is_int(version) and version == FORMAT_VERSION


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


def _json_text(doc: dict) -> str:
    """A result document serialized deterministically."""
    payload = jsonable(doc)
    if not isinstance(payload, dict):
        raise DataFormatError("a JSON document must be an object at the top level")
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False, ensure_ascii=False)
    return text + "\n"


def write_json_doc(path: str | Path, doc: dict) -> None:
    """Serialize a result document deterministically and atomically."""
    atomic_write_text(path, _json_text(doc))


def _read_text(path: Path, error: type[TmdkitError], name: str) -> str:
    """Text of a UTF-8 file; one that cannot be read or decoded raises ``error`` naming ``name``."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {name}: {exc}") from exc


def _load_json(path: Path, error: type[TmdkitError], name: str) -> Any:
    """Decoded JSON of a file; one that is unreadable or invalid raises ``error`` naming ``name``."""
    text = _read_text(path, error, name)
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{name} is not valid JSON: {exc}") from exc


def read_json_doc(path: str | Path) -> dict:
    path = Path(path)
    doc = _load_json(path, DataFormatError, str(path))
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: expected a JSON object at the top level")
    if not _supported_version(doc):
        raise DataFormatError(f"{path}: unsupported format_version {doc['format_version']!r}")
    return doc


def _reject_unknown(doc: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown field {unknown[0]!r} in {where}")


def _require(doc: dict, field: str, where: str) -> Any:
    if field not in doc:
        raise ConfigError(f"missing required field {field!r} in {where}")
    return doc[field]


def _numbers(value: Any, name: str) -> np.ndarray:
    """``value`` as a float array if it is a list of numbers, else a ConfigError naming ``name``."""
    if not isinstance(value, list) or not all(_is_real(x) for x in value):
        raise ConfigError(f"{name} must be a list of numbers")
    return np.asarray(value, dtype=float)


def _n_max(doc: dict) -> Any:
    """``doc``'s n_max, None when absent; the library reads None as not given, so a null is refused."""
    n_max = doc.get("n_max")
    if n_max is None and "n_max" in doc:
        _count(n_max, "n_max", 0)  # raises: a null is no integer
    return n_max


def _parse_source(doc: Any) -> SourceModel:
    if not isinstance(doc, dict):
        raise ConfigError("source must be an object")
    kind = _require(doc, "kind", "source")
    kinds = (*_SOURCE_KINDS, "custom")
    if kind not in kinds:
        raise ConfigError(f"source.kind must be one of {kinds}, got {kind!r}")
    if kind == "custom" and "n_max" in doc:
        raise ConfigError(
            "source.n_max does not apply to a custom source; pair_dist sets its truncation"
        )
    constructor, params = _SOURCE_KINDS.get(kind, (None, ("pair_dist",)))
    _reject_unknown(doc, {"kind", "n_max", *params}, "source")
    args = [_require(doc, name, "source") for name in params]
    if kind == "custom":
        pair_dist = _numbers(args[0], "source.pair_dist")
        try:
            return SourceModel(PhotonDistribution(pair_dist), "custom")
        except DomainError as exc:
            raise ConfigError(f"source.pair_dist: {exc}") from exc
    try:
        return constructor(*args, _n_max(doc))
    except DomainError as exc:
        raise ConfigError(f"source.{exc}") from exc


def _parse_detector(doc: Any, arm: str, stock_bins: int) -> tuple[TMDConfig, Any]:
    """Detector and efficiency uncertainty of one arm; no block means ``stock_bins`` ideal bins."""
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{arm} must be an object")
    _reject_unknown(doc, _DETECTOR_KEYS, arm)
    if "bins" in doc and "bin_probs" in doc:
        raise ConfigError(f"{arm}: give either bins or bin_probs, not both")
    efficiency = doc.get("efficiency", 1.0)
    try:
        n_max = _n_max(doc)
        if "bin_probs" in doc:
            probs = _numbers(doc["bin_probs"], f"{arm}.bin_probs")
            tmd = TMDConfig(probs, efficiency, probs.size if n_max is None else n_max)
        else:
            tmd = TMDConfig.uniform(doc.get("bins", stock_bins), efficiency, n_max)
    except DomainError as exc:
        raise ConfigError(f"{arm}.{exc}") from exc
    return tmd, doc.get("efficiency_uncertainty", 0.0)


def config_from_doc(doc: dict) -> ExperimentConfig:
    """Validate a config document and build the experiment it describes.

    Validation is strict: unknown fields are rejected and every error
    names the offending field.  An omitted detector block gets its
    layout's stock bin count at unit efficiency.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "config")
    if not _supported_version(doc):
        raise ConfigError(f"unsupported format_version {doc['format_version']!r}")
    setup = _require(doc, "setup", "config")
    if setup not in SETUPS:
        raise ConfigError(f"setup must be one of {SETUPS}, got {setup!r}")
    source = _parse_source(_require(doc, "source", "config"))
    _, (signal_bins, _), (idler_bins, _) = _STOCK_LAYOUTS[setup]
    tmd_signal, sigma_signal = _parse_detector(doc.get("signal"), "signal", signal_bins)
    tmd_idler, sigma_idler = _parse_detector(doc.get("idler"), "idler", idler_bins)
    try:
        return ExperimentConfig(
            source=source,
            setup=setup,
            tmd_signal=tmd_signal,
            tmd_idler=tmd_idler,
            shots=_require(doc, "shots", "config"),
            seed=_require(doc, "seed", "config"),
            sigma_eta_signal=sigma_signal,
            sigma_eta_idler=sigma_idler,
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _stock_doc(setup: str, shots: Any, seed: Any) -> dict:
    """Config document of the stock layout ``setup`` with the given run length and seed."""
    source, signal, idler = _STOCK_LAYOUTS[setup]
    doc = {"setup": setup, "source": source, "shots": shots, "seed": seed}
    for arm, (bins, eta) in (("signal", signal), ("idler", idler)):
        doc[arm] = {"bins": bins, "efficiency": eta, "efficiency_uncertainty": _STOCK_SIGMA_ETA}
    return doc


def parse_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a JSON experiment config."""
    path = Path(path)
    return config_from_doc(_load_json(path, ConfigError, f"config {path}"))


def _serialize_source(source: SourceModel) -> dict:
    if source.label in _SOURCE_KINDS:
        params = {name: getattr(source, name) for name in _SOURCE_KINDS[source.label][1]}
        # a parametric label without its parameters falls back to the explicit form
        if None not in params.values():
            return {"kind": source.label, "n_max": source.pair_dist.n_max, **params}
    return {"kind": "custom", "pair_dist": source.pair_dist.probs.tolist()}


def _serialize_detector(tmd: TMDConfig, sigma: float) -> dict:
    return {
        "bin_probs": tmd.bin_probs.tolist(),
        "efficiency": tmd.efficiency,
        "n_max": tmd.n_max,
        "efficiency_uncertainty": sigma,
    }


def serialize_config(config: ExperimentConfig) -> dict:
    """Normalized config document; parse(serialize(x)) reproduces x exactly.

    That holds for any config the library accepts, since its classes apply a config file's bounds.
    """
    return {
        "format_version": FORMAT_VERSION,
        "setup": config.setup,
        "source": _serialize_source(config.source),
        "shots": config.shots,
        "seed": config.seed,
        "signal": _serialize_detector(config.tmd_signal, config.sigma_eta_signal),
        "idler": _serialize_detector(config.tmd_idler, config.sigma_eta_idler),
    }


_SHOT_BLOCK_ROWS = 8192
# bytes per parsed block of a shot file, each extended to the next newline;
# as fast as 32 or 128 KiB (16 KiB is 1.5x slower), under 1 MB traced
_PARSE_BLOCK_CHARS = 1 << 16
# a shot-file field: ASCII digits after an optional minus sign, with the
# whitespace around them that str.strip and int both remove
_SHOT_FIELD = re.compile(r"[^\S\x1c-\x1f]*-?[0-9]+[^\S\x1c-\x1f]*")


def write_shots(
    path: str | Path,
    signal_masks: np.ndarray | None = None,
    idler_masks: np.ndarray | None = None,
) -> None:
    """Write per-shot click masks as CSV, one row per shot.

    Masks are integer arrays, written as decimal integers; bit i set
    means bin i clicked.  Either arm may be omitted for single-detector runs.
    """
    columns = []
    header = ["shot_id"]
    for arm, masks in (("signal", signal_masks), ("idler", idler_masks)):
        if masks is not None:
            masks = np.asarray(masks)
            if not np.issubdtype(masks.dtype, np.integer):
                raise DomainError(f"{arm}_masks must be an integer array, got dtype {masks.dtype}")
            columns.append(masks)
            header.append(f"{arm}_mask")
    if not columns:
        raise DomainError("write_shots needs at least one arm")
    length = columns[0].size
    if any(col.ndim != 1 or col.size != length for col in columns):
        raise DomainError("mask arrays must be 1-d and equally long")
    # the "%d" rows np.savetxt writes, formatted a block of rows at a time,
    # so no whole-run table is built
    with _atomic_open(path) as handle:
        handle.buffer.write((",".join(header) + "\n").encode())
        for start in range(0, length, _SHOT_BLOCK_ROWS):
            stop = min(start + _SHOT_BLOCK_ROWS, length)
            ids = np.arange(start, stop, dtype=np.int64)
            block = [ids] + [col[start:stop].astype(np.int64) for col in columns]
            handle.buffer.write(_decimal_rows(block))


def _decimal_rows(columns: list[np.ndarray]) -> np.ndarray:
    """Bytes of CSV rows of equally long int64 columns, each value as "%d" formats it.

    The characters fill a cell matrix, a row per CSV row and a column per
    character place, each value right-aligned in its field; the places
    left of a value's leading digit hold 0 and are dropped.
    """
    cells = []
    for column in columns:
        negative = column < 0
        if negative.any():
            cells.append(negative * np.uint8(ord("-")))
        # the two's complement magnitude in uint64, so -2**63 has one too
        value = column.view(np.uint64).copy()
        np.negative(value, out=value, where=negative)
        # dividing uint32 is faster, and masks and shot ids nearly always fit
        if value.max() <= np.iinfo(np.uint32).max:
            value = value.astype(np.uint32)
        digits = []
        for place in range(len(str(value.max()))):
            quotient = value // 10
            digit = (value - quotient * 10).astype(np.uint8) + np.uint8(ord("0"))
            digits.append(digit if place == 0 else digit * (value > 0))
            value = quotient
        cells += digits[::-1]
        cells.append(np.full(column.size, ord(","), np.uint8))
    cells[-1][:] = ord("\n")
    table = np.stack(cells, axis=1)
    return table[table != 0]


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
        if bins is not None:
            _count(bins, f"{arm}_bins", 1, MAX_BINS)
    path = Path(path)
    declared = {"signal_mask": signal_bins, "idler_mask": idler_bins}
    # a misfit is reported only once the whole file has parsed, the signal
    # arm's first; a run with a misfit counts no histogram
    histogram, rows, misfits = 0, 0, {}
    for masks, lines in _shot_blocks(path, declared):
        for name, column in masks.items():
            # a negative mask shifts to a negative number, so it is caught too
            bad = np.flatnonzero(column >> declared[name])
            if bad.size and name not in misfits:
                misfits[name] = (lines[bad[0]], column[bad[0]])
        # a joint histogram is indexed (signal, idler) whatever the column order
        shape = tuple(declared[name] + 1 for name in masks)
        if not misfits:
            histogram = histogram + _click_histogram(tuple(masks.values()), shape)
        rows += len(lines)
    if not rows:
        raise DataFormatError(f"{path}: no shots")
    for name in declared:
        if name in misfits:
            line, mask = misfits[name]
            raise DataFormatError(
                f"{path} line {line}: mask {mask} does not fit {declared[name]} bins"
            )
    return ClickStatistics(np.reshape(histogram, shape), rows)


def _shot_fields(path: Path, header: str, declared: dict[str, int | None]) -> list[str]:
    """Column names of a shot file header, each an arm with declared bins."""
    fields = header.split(",")
    if fields[0] != "shot_id" or len(fields) < 2 or not set(fields[1:]) <= {
        "signal_mask",
        "idler_mask",
    } or len(set(fields)) != len(fields):
        raise DataFormatError(f"{path}: unrecognized header {header!r}")
    for name in fields[1:]:
        if declared[name] is None:
            argument = name.replace("mask", "bins")
            raise DataFormatError(f"{name} column present but {argument} not declared")
    return fields


def _shot_blocks(
    path: Path, declared: dict[str, int | None]
) -> Iterator[tuple[dict[str, np.ndarray], Sequence[int]]]:
    """Int64 mask columns of a shot file and the file line of each row, a block at a time.

    Blocks of about ``_PARSE_BLOCK_CHARS`` bytes end at a newline.  A block
    of plain rows is parsed with array operations, any other by the line
    loop.  A non-UTF-8 byte anywhere in the file is reported before any
    other fault, as a whole-file read reports it.
    """
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise DataFormatError(f"cannot read shots {path}: {exc}") from exc
    with handle:
        blocks = iter(lambda: handle.read(_PARSE_BLOCK_CHARS) + handle.readline(), b"")
        first = next(blocks, b"")
        # the header is the first line as str.splitlines cuts it, whatever ends it
        head = next(iter(_shot_text(path, first).splitlines(keepends=True)), "")
        if not head:
            raise DataFormatError(f"{path}: empty file, expected a header")
        try:
            fields = _shot_fields(path, head.strip(), declared)
            names = [name for name in declared if name in fields]
            columns = [fields.index(name) for name in names]
            line = 2
            for block in itertools.chain([first[len(head.encode()):]], blocks):
                parsed = _plain_rows(block, len(fields), columns)
                if parsed is None:
                    text = _shot_text(path, block)
                    parsed, lines, line = _parse_shot_lines(path, text, line, len(fields), columns)
                else:
                    lines = range(line, line + parsed.shape[1])
                    line = lines.stop
                if len(lines):
                    yield dict(zip(names, parsed)), lines
        except DataFormatError:
            # a non-UTF-8 byte further on is reported instead, as a whole-file read would
            for block in blocks:
                _shot_text(path, block)
            raise


def _shot_text(path: Path, block: bytes) -> str:
    """A block of a shot file as text; a non-UTF-8 byte raises DataFormatError, placed in the file."""
    try:
        return block.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the whole-file read words the error with the byte's position in the file
        _read_text(path, DataFormatError, f"shots {path}")
        raise DataFormatError(f"cannot read shots {path}: {exc}") from exc


def _plain_rows(block: bytes, width: int, columns: list[int]) -> np.ndarray | None:
    """Int64 ``columns`` of a block of plain rows, one array row each; None for any other block.

    Plain rows are ``width`` fields of 1 to 18 ASCII digits (so each holds
    an int64), comma-separated and each ended by a newline or CRLF; the
    line loop reads them to the same numbers.
    """
    if b"\r" in block:
        block = block.replace(b"\r\n", b"\n")
    if not block.endswith(b"\n"):
        block += b"\n"
    chars = np.frombuffer(block, np.uint8)
    digits = chars - np.uint8(ord("0"))
    # every byte that is not a digit ends a field, and must be the comma
    # or newline its place in the row calls for
    ends = np.flatnonzero(digits > 9)
    if ends.size % width:
        return None
    sizes = ends - np.concatenate(([-1], ends[:-1])) - 1
    ends, sizes = ends.reshape(-1, width), sizes.reshape(-1, width)
    separators = np.frombuffer(b"," * (width - 1) + b"\n", np.uint8)
    if (chars[ends] != separators).any() or not 1 <= sizes.min() <= sizes.max() <= 18:
        return None
    # Horner's rule, a place at a time from the last digit; a place left of
    # a field's first digit adds nothing (its index may wrap to the block end)
    ends, sizes = ends.T[columns], sizes.T[columns]
    rows = digits[ends - 1].astype(np.int64)
    for place in range(2, int(sizes.max()) + 1):
        rows += digits[ends - place] * (sizes >= place) * np.int64(10 ** (place - 1))
    return rows


def _parse_shot_lines(
    path: Path, text: str, line: int, width: int, columns: list[int]
) -> tuple[np.ndarray, np.ndarray, int]:
    """Int64 ``columns`` of shot-file text that starts on file line ``line``, a line at a time.

    This loop defines the format and names the file line of each fault.
    Returns the columns (one array row each), the file line of each shot
    row, and the line after the text.
    """
    lines = text.splitlines()
    parsed = np.empty((len(lines), width), dtype=np.int64)
    numbers = np.empty(len(lines), dtype=np.int64)
    rows = 0
    # blank lines are skipped, so data row k need not sit on file line k + 2
    for number, row in enumerate(lines, start=line):
        if not row.strip():
            continue
        parts = row.split(",")
        if len(parts) != width:
            raise DataFormatError(f"{path} line {number}: expected {width} fields")
        if not all(_SHOT_FIELD.fullmatch(part) for part in parts):
            raise DataFormatError(f"{path} line {number}: non-integer field")
        try:
            parsed[rows] = [int(part) for part in parts]
        except OverflowError as exc:
            raise DataFormatError(f"{path} line {number}: field outside the int64 range") from exc
        numbers[rows] = number
        rows += 1
    return parsed[:rows, columns].T, numbers[:rows], line + len(lines)


def _table_text(header: str, *columns: np.ndarray) -> str:
    """CSV with one row per array index: the index, then each column's entry there."""
    values = [np.ravel(column).tolist() for column in columns]
    lines = [header]
    for row, index in enumerate(np.ndindex(np.shape(columns[0]))):
        lines.append(",".join([*map(str, index), *(repr(value[row]) for value in values)]))
    return "\n".join(lines) + "\n"


def _distribution_text(
    dist: PhotonDistribution | JointPhotonDistribution, sigma: np.ndarray | None = None
) -> str:
    """CSV table of a distribution, with a σ column when ``sigma`` is given, for external plotting."""
    if isinstance(dist, JointPhotonDistribution):
        if sigma is not None:
            raise DomainError("joint tables do not carry uncertainties")
        return _table_text("signal_n,idler_n,probability", dist.probs)
    if not isinstance(dist, PhotonDistribution):
        raise DomainError("expected a photon distribution")
    if sigma is None:
        return _table_text("n,probability", dist.probs)
    if np.shape(sigma) != dist.probs.shape:
        raise DomainError("sigma length must match the distribution")
    return _table_text("n,probability,sigma", dist.probs, np.asarray(sigma, dtype=float))


def _clicks_text(clicks: ClickStatistics) -> str:
    """CSV table of a click histogram, with counts and frequencies, for external plotting."""
    index = "clicks" if clicks.counts.ndim == 1 else "signal_clicks,idler_clicks"
    return _table_text(f"{index},count,frequency", clicks.counts, clicks.frequencies)
