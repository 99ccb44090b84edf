"""End-to-end analysis chain: simulate, calibrate, reconstruct, report.

Each runner writes deterministic JSON documents (plus CSV tables of the
distributions) into an output directory and returns its primary
document, building every file before it writes the first, so a run that
fails writes nothing.  ``simulate`` writes one simulation's click tables;
``replicate`` adds what the arms it inverts call for (``_analysis``).  A
merged-beam run (layout C) inverts its shared detector.  Any other run
is calibrated from its coincidences and inverts each multi-bin arm (a
1-bin arm only heralds), then is fitted (one arm) or gets the joint
estimate and its metrics (two arms).

Simulated count rates are reported per shot; multiply by the pulse
repetition rate for rates per second.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import io as tmdio
from .detector import TMDConfig
from .errors import ConfigError, DataFormatError, DomainError
from .montecarlo import ExperimentConfig, _simulate, _tables, _tallies
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
    stock = tmdio.config_from_doc(tmdio._stock_doc(setup, DEFAULT_SHOTS, DEFAULT_SEED))
    return apply_overrides(stock, shots, seed)


def apply_overrides(
    config: ExperimentConfig, shots: int | None = None, seed: int | None = None
) -> ExperimentConfig:
    """Replace the shot count and/or seed; a bad value raises :class:`ConfigError`.

    :class:`ExperimentConfig` applies the config-file rules, in their wording, so a
    run never writes a ``config.json`` that :func:`tmdkit.io.parse_config` rejects.
    """
    given = {"shots": shots, "seed": seed}
    try:
        return replace(config, **{name: value for name, value in given.items() if value is not None})
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _simulation_doc(config: ExperimentConfig, tables: dict[str, ClickStatistics]) -> dict:
    doc = {
        "format_version": tmdio.FORMAT_VERSION,
        "kind": "simulation",
        "setup": config.setup,
        "config": tmdio.serialize_config(config),
        "clicks": {
            arm: {"counts": c.counts, "total_shots": c.total_shots} for arm, c in tables.items()
        },
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
    doc = {
        "probabilities": recon.dist.probs,
        "is_physical": recon.dist.is_physical,
        "residual": recon.residual,
    }
    if recon.newton_steps is not None:
        # a constrained estimate carries its maximum-likelihood certificate
        doc.update(duality_gap=recon.duality_gap, newton_steps=recon.newton_steps)
    return doc


def _detector(config: ExperimentConfig, arm: str) -> tuple[TMDConfig, float]:
    """Detector model of an arm and the uncertainty of its efficiency."""
    if arm == "collective":
        # one shared detector; a single effective efficiency is exact when
        # the arms are balanced and a documented approximation otherwise
        eta = (config.tmd_signal.efficiency + config.tmd_idler.efficiency) / 2.0
        tmd = TMDConfig(config.tmd_signal.bin_probs, eta, config.tmd_signal.n_max)
        return tmd, (config.sigma_eta_signal + config.sigma_eta_idler) / 2.0
    return getattr(config, f"tmd_{arm}"), getattr(config, f"sigma_eta_{arm}")


def _arms(config: ExperimentConfig) -> tuple[str, ...]:
    """Arms a run inverts: the shared detector of merged beams, else every multi-bin arm."""
    if config.setup == "C":
        return ("collective",)
    return tuple(arm for arm in ("signal", "idler") if _detector(config, arm)[0].bins > 1)


def _reconstruction(
    config: ExperimentConfig,
    tables: dict[str, ClickStatistics],
    arms: tuple[str, ...],
    constrained: bool,
) -> tuple[dict, dict[str, tuple]]:
    """Invert each arm (two also jointly); the document and, by name, each (estimate, σ or None)."""
    doc = {
        "format_version": tmdio.FORMAT_VERSION,
        "kind": "reconstruction",
        "setup": config.setup,
        "config": tmdio.serialize_config(config),
        "method": "constrained" if constrained else "direct",
    }
    if len(arms) == 2:
        joint = invert_joint(config.tmd_signal, config.tmd_idler, tables["joint"], constrained)
        doc["joint"] = _result_doc(joint)
    estimates = {}
    for arm in arms:
        tmd, sigma_eta = _detector(config, arm)
        recon = invert_single(tmd, tables[arm], constrained=constrained)
        doc[arm] = {**_result_doc(recon), "mean": recon.dist.mean, "efficiency": tmd.efficiency}
        sigma = None
        if not constrained:
            cov = propagate_errors(tmd, tables[arm], sigma_eta)
            sigma = np.sqrt(np.clip(np.diag(cov), 0.0, None))
            doc[arm].update(sigma=sigma, covariance=cov)
        estimates[arm] = recon.dist, sigma
    if "collective" in doc:
        doc["collective"]["efficiency_note"] = "arm efficiencies averaged; exact only for balanced arms"
    if len(arms) == 2:
        estimates["joint"] = joint.dist, None
    return doc, estimates


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


def _fit_doc(dist: PhotonDistribution) -> dict:
    """Poisson and thermal fits to a distribution, and the family that fits it better."""
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


def _simulation(
    config: ExperimentConfig, emit_shots: bool
) -> tuple[dict, dict[str, ClickStatistics], list[_File]]:
    """Simulate one run; return its document, click tables by name and unwritten files."""
    histogram, masks = _simulate(config, emit_shots)
    tables = _tables(histogram, config.shots)
    doc = _simulation_doc(config, tables)
    files = [_json_file("simulation.json", doc)]
    files += [_text_file(f"clicks_{arm}.csv", tmdio._clicks_text(c)) for arm, c in tables.items()]
    if emit_shots:
        # streamed from the masks in memory when written, never held as text
        files.append(("shots.csv", lambda path: tmdio.write_shots(path, *masks)))
    return doc, tables, files


def _analysis(
    config: ExperimentConfig, tables: dict[str, ClickStatistics], constrained: bool
) -> tuple[list[_File], dict]:
    """Build every stage after the simulation that the detectors call for.

    Returns the stage files in writing order and the run's headline numbers,
    both from the results the stages compute.  Nothing is written here, so a
    stage that fails leaves no file behind.
    """
    arms = _arms(config)
    files: list[_File] = []
    if "joint" in tables:
        # coincidences of two detectors calibrate both arms
        calibration = _calibration_doc(config, tables)
        files.append(_json_file("calibration.json", calibration))
        if not arms:
            both = ("signal", "idler")
            return files, {
                **{f"klyshko_{arm}": calibration[arm]["efficiency"] for arm in both},
                **{f"klyshko_{arm}_uncertainty": calibration[arm]["uncertainty"] for arm in both},
                **{f"true_{arm}_efficiency": calibration[arm]["configured_efficiency"] for arm in both},
            }
    doc, estimates = _reconstruction(config, tables, arms, constrained)
    files.append(_json_file("reconstruction.json", doc))
    for name, (dist, sigma) in estimates.items():
        files.append(_text_file(f"distribution_{name}.csv", tmdio._distribution_text(dist, sigma)))
    if arms == ("collective",):
        collective, _ = estimates["collective"]
        probs = collective.probs
        odd_mass, even_mass = float(probs[1::2].sum()), float(probs[0::2].sum())
        return files, {
            "collective_probabilities": probs,
            "collective_mean": collective.mean,
            "odd_mass": odd_mass,
            "even_mass": even_mass,
            "max_odd_entry": float(probs[1::2].max()),
            "odd_to_even_ratio": odd_mass / even_mass if even_mass > 0 else "inf",
        }
    if len(arms) == 2:
        joint = _joint_metrics(estimates["joint"][0])
        raw = _joint_metrics(JointPhotonDistribution(tables["joint"].frequencies))
        metrics = {"format_version": tmdio.FORMAT_VERSION, "kind": "metrics"}
        files.append(_json_file("metrics.json", {**metrics, "joint": joint, "raw": raw}))
        return files, {
            "correlation": joint["correlation"],
            "raw_correlation": raw["correlation"],
            "squeezing_db": joint["squeezing_db"],
            "raw_squeezing_db": raw["squeezing_db"],
            "signal_mean": joint["signal_mean"],
            "idler_mean": joint["idler_mean"],
        }
    # a heralded run: keys are named after the arm that holds the TMD
    (arm,) = arms
    dist, sigma = estimates[arm]
    fit = _fit_doc(dist)
    files.append(_json_file("fit.json", fit))
    # the constrained estimate has no error bars, so its summary names none
    errors = {} if sigma is None else {f"{arm}_sigma": sigma}
    return files, {
        f"{arm}_mean": dist.mean,
        f"{arm}_probabilities": dist.probs,
        **errors,
        f"klyshko_{arm}": calibration[arm]["efficiency"],
        "fit_poisson_residual": fit["poisson"]["residual_l2"],
        "fit_thermal_residual": fit["thermal"]["residual_l2"],
        "preferred_family": fit["preferred"],
    }


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


# Keys an ``--in`` document may carry a single distribution vector under, in order of
# preference; of a two-arm reconstruction, the idler, the arm stock heralded runs invert.
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
    """Family fits to a document's first ``_VECTOR_KEYS`` vector, else to its joint idler marginal."""
    stored = tmdio.read_json_doc(in_path)
    dist = _extract(stored, _VECTOR_KEYS, PhotonDistribution)
    if dist is None:
        joint = _extract(stored, ("joint",), JointPhotonDistribution)
        if joint is None:
            raise DataFormatError("document carries no distribution vector to fit")
        dist = marginals(joint)[1]
    doc = _fit_doc(dist)
    return RunOutput(doc, _write_files(out_dir, [_json_file("fit.json", doc)]))


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
    analysis_files, headline = _analysis(config, tables, constrained)
    summary = {
        "format_version": tmdio.FORMAT_VERSION,
        "kind": "summary",
        "setup": config.setup,
        "shots": config.shots,
        "seed": config.seed,
        **headline,
    }
    files = [config_file, *simulation_files, *analysis_files, _json_file("summary.json", summary)]
    return RunOutput(summary, _write_files(out_dir, files))
