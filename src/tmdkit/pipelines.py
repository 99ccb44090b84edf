"""End-to-end analysis chain: simulate, calibrate, reconstruct, report.

Each runner writes deterministic JSON documents (plus CSV tables of the
distributions) into an output directory and returns its primary
document.  It builds every file before it writes the first, so a run
that fails writes nothing.  A run simulates once into click tables, and
one chain of stages (calibrate, reconstruct, fit, metrics) reads those
tables: ``simulate`` writes the simulation alone, and ``replicate``
adds every stage the detectors call for (``_stages``).  A merged-beam
run (layout C) inverts its shared detector.  Any other run is
calibrated from its coincidences and inverts every multi-bin arm; a
1-bin arm only heralds the other.  With one multi-bin arm the run is
also fitted, and with two it also gets the joint estimate and its
metrics.

Simulated count rates are reported per shot; multiply by the pulse
repetition rate for rates per second.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as tmdio
from .detector import TMDConfig
from .errors import DataFormatError, DomainError
from .montecarlo import ExperimentConfig, _simulate, _tallies
from .reconstruct import (
    CalibrationRecord,
    ReconstructionResult,
    invert_joint,
    invert_single,
    klyshko_efficiency,
    propagate_errors,
)
from .stats import (
    ClickStatistics,
    JointPhotonDistribution,
    PhotonDistribution,
    correlation,
    fit_poisson,
    fit_thermal,
    marginals,
    moment,
    number_squeezing_db,
)

DEFAULT_SHOTS = 1_000_000
DEFAULT_SEED = 20260817


@dataclass(frozen=True)
class RunOutput:
    """Primary document of a runner plus every file it wrote."""

    primary: dict
    paths: tuple[str, ...]


def default_config(setup: str, shots: int | None = None, seed: int | None = None) -> ExperimentConfig:
    """Stock configuration of a layout, validated like a config file; override any of it via one."""
    if setup not in tmdio._STOCK_LAYOUTS:
        raise DomainError(f"unknown setup {setup!r}")
    shots = DEFAULT_SHOTS if shots is None else shots
    seed = DEFAULT_SEED if seed is None else seed
    return tmdio.config_from_doc(tmdio._stock_doc(setup, shots, seed))


def apply_overrides(
    config: ExperimentConfig, shots: int | None = None, seed: int | None = None
) -> ExperimentConfig:
    """Replace the shot count and/or seed, validated like a config file.

    Bad values raise :class:`ConfigError`, so a run can never write a
    ``config.json`` that :func:`tmdkit.io.parse_config` would reject.
    """
    if shots is None and seed is None:
        return config
    doc = tmdio.serialize_config(config)
    if shots is not None:
        doc["shots"] = shots
    if seed is not None:
        doc["seed"] = seed
    return tmdio.config_from_doc(doc)


def _clicks_doc(clicks: ClickStatistics) -> dict:
    return {"counts": clicks.counts, "total_shots": clicks.total_shots}


def _simulation_doc(config: ExperimentConfig, tables: dict[str, ClickStatistics]) -> dict:
    doc = {
        "format_version": tmdio.FORMAT_VERSION,
        "kind": "simulation",
        "setup": config.setup,
        "config": tmdio.serialize_config(config),
        "clicks": {arm: _clicks_doc(clicks) for arm, clicks in tables.items()},
    }
    if "collective" in tables:
        clicked = int(tables["collective"].counts[1:].sum())
        doc["rates_per_shot"] = {"collective_singles": clicked / config.shots}
    else:
        names = ("signal_singles", "idler_singles", "coincidences")
        tallies = _tallies(tables["joint"])
        doc["rates_per_shot"] = {name: n / config.shots for name, n in zip(names, tallies)}
    return doc


def _klyshko(joint: ClickStatistics) -> tuple[CalibrationRecord, CalibrationRecord]:
    """Klyshko estimates of the (signal, idler) efficiencies from a joint click table.

    Exact only in the low-gain limit: either photon of a multi-pair shot
    can fire the heralding detector, which biases the ratio upward.
    """
    signal_singles, idler_singles, coincidences = _tallies(joint)
    # each arm's efficiency is gated on the opposite arm's singles
    return (
        klyshko_efficiency(coincidences, idler_singles),
        klyshko_efficiency(coincidences, signal_singles),
    )


def _calibration_doc(config: ExperimentConfig, tables: dict[str, ClickStatistics]) -> dict:
    doc = {"format_version": tmdio.FORMAT_VERSION, "kind": "calibration", "setup": config.setup}
    records = _klyshko(tables["joint"])
    tmds = (config.tmd_signal, config.tmd_idler)
    for arm, record, tmd in zip(("signal", "idler"), records, tmds):
        doc[arm] = {
            "efficiency": record.eta,
            "uncertainty": record.eta_uncertainty,
            "coincidences": record.coincidences,
            "singles": record.singles,
            "configured_efficiency": tmd.efficiency,
        }
    return doc


def _result_doc(recon: ReconstructionResult) -> dict:
    return {
        "probabilities": recon.dist.probs,
        "is_physical": recon.dist.is_physical,
        "residual": recon.residual,
    }


def _arm_doc(
    tmd: TMDConfig, sigma_eta: float, clicks: ClickStatistics, constrained: bool
) -> dict:
    recon = invert_single(tmd, clicks, constrained=constrained)
    doc = {**_result_doc(recon), "mean": recon.dist.mean, "efficiency": tmd.efficiency}
    if not constrained:
        cov = propagate_errors(tmd, clicks, sigma_eta)
        doc["sigma"] = np.sqrt(np.clip(np.diag(cov), 0.0, None))
        doc["covariance"] = cov
    return doc


def _collective_tmd(config: ExperimentConfig) -> TMDConfig:
    # one shared detector; a single effective efficiency is exact when
    # the arms are balanced and a documented approximation otherwise
    eta = (config.tmd_signal.efficiency + config.tmd_idler.efficiency) / 2.0
    return TMDConfig(config.tmd_signal.bin_probs, eta, config.tmd_signal.n_max)


def _detector(config: ExperimentConfig, arm: str) -> tuple[TMDConfig, float]:
    """Detector model of an arm and the uncertainty of its efficiency."""
    if arm == "collective":
        return _collective_tmd(config), (config.sigma_eta_signal + config.sigma_eta_idler) / 2.0
    return getattr(config, f"tmd_{arm}"), getattr(config, f"sigma_eta_{arm}")


def _arms(config: ExperimentConfig) -> tuple[str, ...]:
    """Arms a run inverts: the shared detector of merged beams, else every multi-bin arm."""
    if config.setup == "C":
        return ("collective",)
    return tuple(arm for arm in ("signal", "idler") if _detector(config, arm)[0].bins > 1)


def _stages(config: ExperimentConfig) -> tuple[str, ...]:
    """Stages a run's detectors call for, in chain order."""
    arms = _arms(config)
    if arms == ("collective",):
        return ("simulate", "reconstruct")
    inverted = {0: (), 1: ("reconstruct", "fit"), 2: ("reconstruct", "metrics")}[len(arms)]
    return ("simulate", "calibrate", *inverted)


def _reconstruction_doc(
    config: ExperimentConfig,
    tables: dict[str, ClickStatistics],
    constrained: bool,
) -> dict:
    doc = {
        "format_version": tmdio.FORMAT_VERSION,
        "kind": "reconstruction",
        "setup": config.setup,
        "config": tmdio.serialize_config(config),
        "method": "constrained" if constrained else "direct",
    }
    arms = _arms(config)
    if len(arms) == 2:
        joint = invert_joint(config.tmd_signal, config.tmd_idler, tables["joint"], constrained)
        doc["joint"] = _result_doc(joint)
    for arm in arms:
        doc[arm] = _arm_doc(*_detector(config, arm), tables[arm], constrained)
    if "collective" in doc:
        doc["collective"]["efficiency_note"] = "arm efficiencies averaged; exact only for balanced arms"
    return doc


def _joint_metrics(joint: JointPhotonDistribution) -> dict:
    sig, idl = marginals(joint)
    return {
        "correlation": correlation(joint),
        "squeezing_db": number_squeezing_db(joint),
        "signal_mean": sig.mean,
        "idler_mean": idl.mean,
    }


def _vector_metrics(dist: PhotonDistribution) -> dict:
    return {
        "mean": dist.mean,
        "moments": {str(m): moment(dist, m) for m in (1, 2, 3, 4)},
        "is_physical": dist.is_physical,
    }


def _fit_doc(stored: dict) -> dict:
    """Family fits to a document's first ``_VECTOR_KEYS`` vector, else to its joint idler marginal."""
    dist = _extract(stored, _VECTOR_KEYS, PhotonDistribution)
    if dist is None:
        joint = _extract(stored, ("joint",), JointPhotonDistribution)
        if joint is None:
            raise DataFormatError("document carries no distribution vector to fit")
        dist = marginals(joint)[1]
    poisson = fit_poisson(dist)
    thermal = fit_thermal(dist)
    doc = {"format_version": tmdio.FORMAT_VERSION, "kind": "fit"}
    for family, fit in (("poisson", poisson), ("thermal", thermal)):
        doc[family] = {
            "mean": fit.mean,
            "residual_l2": fit.residual_l2,
            "per_bin_deviation": fit.per_bin_deviation,
        }
    doc["preferred"] = "poisson" if poisson.residual_l2 <= thermal.residual_l2 else "thermal"
    return doc


# A file of a run: its name in the output directory and what writes it there.
_File = tuple[str, Callable[[Path], None]]


def _text_file(name: str, text: str) -> _File:
    return name, lambda path: tmdio.atomic_write_text(path, text)


def _json_file(name: str, doc: dict) -> _File:
    # serialized now, so a value JSON cannot hold fails before any file is written
    return _text_file(name, tmdio._json_text(doc))


def _write_files(out_dir: str | Path, files: list[_File]) -> tuple[str, ...]:
    """Write a run's files in order, each built already; return their paths."""
    paths = []
    for name, write in files:
        path = Path(out_dir) / name
        write(path)
        paths.append(str(path))
    return tuple(paths)


def _distribution_tables(recon_doc: dict) -> list[_File]:
    files = []
    for arm in ("signal", "idler", "collective", "joint"):
        kind = JointPhotonDistribution if arm == "joint" else PhotonDistribution
        dist = _extract(recon_doc, (arm,), kind)
        if dist is None:
            continue
        sigma = recon_doc[arm].get("sigma")
        text = tmdio._distribution_text(dist, None if sigma is None else np.asarray(sigma))
        files.append(_text_file(f"distribution_{arm}.csv", text))
    return files


def _simulation(
    config: ExperimentConfig, emit_shots: bool
) -> tuple[dict, dict[str, ClickStatistics], list[_File]]:
    """Simulate one run; return its document, click tables by name and unwritten files.

    The histogram has one axis per detector: a single axis is the shared
    detector of merged beams (``collective``), two are the signal and
    idler arms, tabled as ``signal``, ``idler`` and ``joint``.
    """
    histogram, masks = _simulate(config, emit_shots)
    if histogram.ndim == 1:
        tables = {"collective": ClickStatistics(histogram, config.shots)}
    else:
        tables = {
            "signal": ClickStatistics(histogram.sum(axis=1), config.shots),
            "idler": ClickStatistics(histogram.sum(axis=0), config.shots),
            "joint": ClickStatistics(histogram, config.shots),
        }
    doc = _simulation_doc(config, tables)
    files = [_json_file("simulation.json", doc)]
    files += [_text_file(f"clicks_{arm}.csv", tmdio._clicks_text(c)) for arm, c in tables.items()]
    if emit_shots:
        # streamed from the masks in memory when written, never held as text
        files.append(("shots.csv", lambda path: tmdio.write_shots(path, *masks)))
    return doc, tables, files


def _analysis(
    config: ExperimentConfig, tables: dict[str, ClickStatistics], constrained: bool
) -> tuple[dict[str, dict], list[_File]]:
    """Build every stage after the simulation that the detectors call for.

    Stages run in the order calibrate, reconstruct, fit, metrics; fit
    and metrics read the reconstruction.  Returns the stage documents
    by stage name and their files in writing order; nothing is written
    here, so a stage that fails leaves no file behind.
    """
    stages = _stages(config)
    docs: dict[str, dict] = {}
    files: list[_File] = []

    def add(stage: str, name: str, doc: dict) -> None:
        docs[stage] = doc
        files.append(_json_file(name, doc))

    if "calibrate" in stages:
        add("calibrate", "calibration.json", _calibration_doc(config, tables))
    if "reconstruct" in stages:
        add("reconstruct", "reconstruction.json", _reconstruction_doc(config, tables, constrained))
        files += _distribution_tables(docs["reconstruct"])
    if "fit" in stages:
        add("fit", "fit.json", _fit_doc(docs["reconstruct"]))
    if "metrics" in stages:
        joint = JointPhotonDistribution(np.asarray(docs["reconstruct"]["joint"]["probabilities"]))
        raw = JointPhotonDistribution(tables["joint"].frequencies)
        metrics = {
            "format_version": tmdio.FORMAT_VERSION,
            "kind": "metrics",
            "joint": _joint_metrics(joint),
            "raw": _joint_metrics(raw),
        }
        add("metrics", "metrics.json", metrics)
    return docs, files


def run_simulation(
    config: ExperimentConfig, out_dir: str | Path, emit_shots: bool = False
) -> RunOutput:
    """Simulate one run and write its click tables, plus per-shot masks with ``emit_shots``.

    Runs no analysis, so it also serves a config whose later stages fail.
    """
    doc, _, files = _simulation(config, emit_shots)
    return RunOutput(doc, _write_files(out_dir, files))


def _extract(
    doc: dict, keys: tuple[str, ...], kind: type
) -> PhotonDistribution | JointPhotonDistribution | None:
    """First of ``keys`` in ``doc`` (bare or under ``probabilities``) as a ``kind``, or None."""
    noun = "matrix" if kind is JointPhotonDistribution else "vector"
    for key in keys:
        fragment = doc.get(key)
        if fragment is None:
            continue
        probs = fragment.get("probabilities") if isinstance(fragment, dict) else fragment
        try:
            return kind(np.asarray(probs, dtype=float))
        except (TypeError, ValueError, OverflowError, DomainError) as exc:
            raise DataFormatError(f"{key} entry is not a probability {noun}: {exc}") from exc
    return None


# Keys a document may carry a single distribution vector under, in order of preference.
# A heralded chain's reconstruction carries one arm vector, so the idler-first order
# matters only for ``--in`` documents that carry both arms.
_VECTOR_KEYS = ("distribution", "collective", "idler", "signal")


def run_metrics_file(in_path: str | Path, out_dir: str | Path) -> RunOutput:
    """Figures of merit for a stored distribution document.

    Accepts a reconstruction document or a bare document carrying
    ``joint`` (matrix) or ``distribution`` (vector) probabilities.
    """
    source_doc = tmdio.read_json_doc(in_path)
    doc: dict = {"format_version": tmdio.FORMAT_VERSION, "kind": "metrics"}
    joint = _extract(source_doc, ("joint",), JointPhotonDistribution)
    vector = _extract(source_doc, _VECTOR_KEYS, PhotonDistribution)
    if joint is not None:
        doc["joint"] = _joint_metrics(joint)
    if vector is not None:
        doc["distribution"] = _vector_metrics(vector)
    if joint is None and vector is None:
        raise DataFormatError("document carries neither a joint matrix nor a distribution vector")
    return RunOutput(doc, _write_files(out_dir, [_json_file("metrics.json", doc)]))


def run_fit_file(in_path: str | Path, out_dir: str | Path) -> RunOutput:
    """Fit the one-parameter families to a stored distribution document."""
    doc = _fit_doc(tmdio.read_json_doc(in_path))
    return RunOutput(doc, _write_files(out_dir, [_json_file("fit.json", doc)]))


def _summary(config: ExperimentConfig, docs: dict) -> dict:
    """Headline numbers of a run, read from its stage documents by the role of each arm."""
    arms = _arms(config)
    if arms == ("collective",):
        collective = docs["reconstruct"]["collective"]
        probs = np.asarray(collective["probabilities"], dtype=float)
        odd_mass, even_mass = float(probs[1::2].sum()), float(probs[0::2].sum())
        return {
            "collective_probabilities": probs,
            "collective_mean": collective["mean"],
            "odd_mass": odd_mass,
            "even_mass": even_mass,
            "max_odd_entry": float(probs[1::2].max()),
            "odd_to_even_ratio": odd_mass / even_mass if even_mass > 0 else "inf",
        }
    if len(arms) == 2:
        joint, raw = docs["metrics"]["joint"], docs["metrics"]["raw"]
        return {
            "correlation": joint["correlation"],
            "raw_correlation": raw["correlation"],
            "squeezing_db": joint["squeezing_db"],
            "raw_squeezing_db": raw["squeezing_db"],
            "signal_mean": joint["signal_mean"],
            "idler_mean": joint["idler_mean"],
        }
    calibration = docs["calibrate"]
    if not arms:
        both = ("signal", "idler")
        return {
            **{f"klyshko_{arm}": calibration[arm]["efficiency"] for arm in both},
            **{f"klyshko_{arm}_uncertainty": calibration[arm]["uncertainty"] for arm in both},
            **{f"true_{arm}_efficiency": calibration[arm]["configured_efficiency"] for arm in both},
        }
    # a heralded run: keys are named after the arm that holds the TMD
    (arm,) = arms
    recon, fit = docs["reconstruct"][arm], docs["fit"]
    return {
        f"{arm}_mean": recon["mean"],
        f"{arm}_probabilities": recon["probabilities"],
        f"{arm}_sigma": recon.get("sigma"),
        f"klyshko_{arm}": calibration[arm]["efficiency"],
        "fit_poisson_residual": fit["poisson"]["residual_l2"],
        "fit_thermal_residual": fit["thermal"]["residual_l2"],
        "preferred_family": fit["preferred"],
    }


def run_replicate(
    config: ExperimentConfig,
    out_dir: str | Path,
    constrained: bool = False,
    emit_shots: bool = False,
) -> RunOutput:
    """Chain every stage the configured detectors call for.

    Writes the config, then the stage documents of one simulation, so
    they are mutually consistent, then a summary that repeats only
    numbers already in the stage documents.  Every file is built before
    the first is written, so a run that fails writes none.
    """
    config_file = _json_file("config.json", tmdio.serialize_config(config))
    _, tables, simulation_files = _simulation(config, emit_shots)
    docs, analysis_files = _analysis(config, tables, constrained)
    summary = {
        "format_version": tmdio.FORMAT_VERSION,
        "kind": "summary",
        "setup": config.setup,
        "shots": config.shots,
        "seed": config.seed,
        **_summary(config, docs),
    }
    files = [config_file, *simulation_files, *analysis_files, _json_file("summary.json", summary)]
    return RunOutput(summary, _write_files(out_dir, files))
