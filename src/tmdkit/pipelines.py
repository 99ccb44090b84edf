"""End-to-end analysis chains: simulate, calibrate, reconstruct, report.

Each runner writes deterministic JSON documents (plus CSV tables of the
distributions) into an output directory and returns its primary
document.  Every run simulates once and feeds one chain of stages
(simulate, calibrate, reconstruct, fit, metrics): a stage command runs
one of them, and ``replicate`` runs the ones its layout measures:

  A  threshold detectors on both arms, coincidence calibration
  B  threshold signal arm heralding a multi-bin idler measurement
  C  both arms merged into one detector, pair-parity statistics
  D  one multi-bin detector per arm, joint statistics

Simulated count rates are reported per shot; multiply by the pulse
repetition rate for rates per second.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as tmdio
from .detector import TMDConfig
from .errors import DataFormatError, DomainError
from .montecarlo import (
    CollectiveResult,
    ExperimentConfig,
    ExperimentResult,
    _tallies,
    run_collective_experiment,
    run_experiment,
)
from .reconstruct import (
    CalibrationRecord,
    ReconstructionResult,
    invert_joint,
    invert_single,
    klyshko_efficiency,
    propagate_errors,
)
from .sources import SourceModel
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


def _click_tables(result: ExperimentResult | CollectiveResult) -> dict[str, ClickStatistics]:
    """Click histograms of a run by name: ``collective`` for layout C, else signal, idler, joint."""
    if isinstance(result, CollectiveResult):
        return {"collective": result.clicks}
    return {
        "signal": result.signal_clicks,
        "idler": result.idler_clicks,
        "joint": result.joint_clicks,
    }


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
    """Klyshko estimates of the (signal, idler) efficiencies from a joint click table."""
    signal_singles, idler_singles, coincidences = _tallies(joint)
    # each arm's efficiency is gated on the opposite arm's singles
    return (
        klyshko_efficiency(coincidences, idler_singles),
        klyshko_efficiency(coincidences, signal_singles),
    )


def simulate_klyshko(
    source: SourceModel,
    eta_signal: float,
    eta_idler: float,
    shots: int,
    seed: int,
) -> tuple[CalibrationRecord, CalibrationRecord]:
    """Calibrate both arms from a threshold-detector coincidence run.

    Returns the (signal, idler) efficiency records.  The estimate is
    exact only in the low-gain limit; multi-pair emission biases the
    ratio upward because either photon of a multi-pair shot can fire the
    heralding detector.
    """
    config = ExperimentConfig(
        source=source,
        setup="A",
        tmd_signal=TMDConfig.uniform(bins=1, efficiency=eta_signal),
        tmd_idler=TMDConfig.uniform(bins=1, efficiency=eta_idler),
        shots=shots,
        seed=seed,
    )
    return _klyshko(run_experiment(config).joint_clicks)


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
    tmd: TMDConfig, clicks: ClickStatistics, sigma_eta: float, constrained: bool
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
    if "collective" in tables:
        tmd = _collective_tmd(config)
        sigma_eta = (config.sigma_eta_signal + config.sigma_eta_idler) / 2.0
        doc["collective"] = _arm_doc(tmd, tables["collective"], sigma_eta, constrained)
        doc["collective"]["efficiency_note"] = (
            "arm efficiencies averaged; exact only for balanced arms"
        )
        return doc
    if config.setup == "D":
        joint = invert_joint(config.tmd_signal, config.tmd_idler, tables["joint"], constrained)
        doc["joint"] = _result_doc(joint)
    for arm, tmd, sigma_eta in (
        ("signal", config.tmd_signal, config.sigma_eta_signal),
        ("idler", config.tmd_idler, config.sigma_eta_idler),
    ):
        doc[arm] = _arm_doc(tmd, tables[arm], sigma_eta, constrained)
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


def _write(out_dir: Path, name: str, doc: dict, paths: list[str]) -> dict:
    path = out_dir / name
    tmdio.write_json_doc(path, doc)
    paths.append(str(path))
    return doc


def _write_distribution_tables(out_dir: Path, recon_doc: dict, paths: list[str]) -> None:
    for arm in ("signal", "idler", "collective", "joint"):
        kind = JointPhotonDistribution if arm == "joint" else PhotonDistribution
        dist = _extract(recon_doc, (arm,), kind)
        if dist is None:
            continue
        sigma = recon_doc[arm].get("sigma")
        path = out_dir / f"distribution_{arm}.csv"
        tmdio.write_distribution_csv(path, dist, None if sigma is None else np.asarray(sigma))
        paths.append(str(path))


def _emit_shots(out_dir: Path, result: ExperimentResult | CollectiveResult, paths: list[str]) -> None:
    path = out_dir / "shots.csv"
    if isinstance(result, CollectiveResult):
        tmdio.write_shots(path, signal_masks=result.masks)
    else:
        tmdio.write_shots(path, signal_masks=result.signal_masks, idler_masks=result.idler_masks)
    paths.append(str(path))


def _chain(
    config: ExperimentConfig,
    out_dir: str | Path,
    stages: tuple[str, ...],
    paths: list[str],
    constrained: bool = False,
    emit_shots: bool = False,
) -> dict[str, dict]:
    """Simulate once, then build and write each requested stage from the click tables.

    Stages run in the fixed order simulate, calibrate, reconstruct, fit,
    metrics, whatever the order of ``stages``; fit and metrics read the
    reconstruction, so they need it requested too.  Returns the stage
    documents by stage name and appends every written path to ``paths``.
    """
    if "calibrate" in stages and config.setup == "C":
        raise DomainError("the merged-arm layout cannot measure coincidences; calibrate with A, B, or D")
    out_dir = Path(out_dir)
    run = run_collective_experiment if config.setup == "C" else run_experiment
    result = run(config, keep_shots=emit_shots)
    tables = _click_tables(result)
    docs: dict[str, dict] = {}
    if "simulate" in stages:
        docs["simulate"] = _write(out_dir, "simulation.json", _simulation_doc(config, tables), paths)
        for arm, clicks in tables.items():
            path = out_dir / f"clicks_{arm}.csv"
            tmdio.write_clicks_csv(path, clicks)
            paths.append(str(path))
        if emit_shots:
            _emit_shots(out_dir, result, paths)
    if "calibrate" in stages:
        docs["calibrate"] = _write(out_dir, "calibration.json", _calibration_doc(config, tables), paths)
    if "reconstruct" in stages:
        recon = _reconstruction_doc(config, tables, constrained)
        docs["reconstruct"] = _write(out_dir, "reconstruction.json", recon, paths)
        _write_distribution_tables(out_dir, recon, paths)
    if "fit" in stages:
        docs["fit"] = _write(out_dir, "fit.json", _fit_doc(docs["reconstruct"]), paths)
    if "metrics" in stages:
        joint = JointPhotonDistribution(np.asarray(docs["reconstruct"]["joint"]["probabilities"]))
        raw = JointPhotonDistribution(tables["joint"].frequencies)
        metrics = {
            "format_version": tmdio.FORMAT_VERSION,
            "kind": "metrics",
            "joint": _joint_metrics(joint),
            "raw": _joint_metrics(raw),
        }
        docs["metrics"] = _write(out_dir, "metrics.json", metrics, paths)
    return docs


_STAGE_COMMANDS = ("simulate", "calibrate", "reconstruct")


def run_stage(
    stage: str,
    config: ExperimentConfig,
    out_dir: str | Path,
    constrained: bool = False,
    emit_shots: bool = False,
) -> RunOutput:
    """Simulate one run and write one stage's documents.

    ``stage`` is "simulate", "calibrate" or "reconstruct";
    ``constrained`` affects only reconstruction and ``emit_shots`` only
    the simulation stage.
    """
    if stage not in _STAGE_COMMANDS:
        raise DomainError(f"stage must be one of {_STAGE_COMMANDS}, got {stage!r}")
    paths: list[str] = []
    docs = _chain(config, out_dir, (stage,), paths, constrained, emit_shots)
    return RunOutput(docs[stage], tuple(paths))


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
# The idler comes before the signal because it is the heralded arm, the 8-bin one of layout B.
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
    paths: list[str] = []
    _write(Path(out_dir), "metrics.json", doc, paths)
    return RunOutput(doc, tuple(paths))


def run_fit_file(in_path: str | Path, out_dir: str | Path) -> RunOutput:
    """Fit the one-parameter families to a stored distribution document."""
    doc = _fit_doc(tmdio.read_json_doc(in_path))
    paths: list[str] = []
    _write(Path(out_dir), "fit.json", doc, paths)
    return RunOutput(doc, tuple(paths))


def _summary_a(config: ExperimentConfig, docs: dict) -> dict:
    calibration = docs["calibrate"]
    return {
        "klyshko_signal": calibration["signal"]["efficiency"],
        "klyshko_idler": calibration["idler"]["efficiency"],
        "klyshko_signal_uncertainty": calibration["signal"]["uncertainty"],
        "klyshko_idler_uncertainty": calibration["idler"]["uncertainty"],
        "true_signal_efficiency": config.tmd_signal.efficiency,
        "true_idler_efficiency": config.tmd_idler.efficiency,
    }


def _summary_b(config: ExperimentConfig, docs: dict) -> dict:
    recon, fit = docs["reconstruct"], docs["fit"]
    return {
        "idler_mean": recon["idler"]["mean"],
        "idler_probabilities": recon["idler"]["probabilities"],
        "idler_sigma": recon["idler"].get("sigma"),
        "klyshko_idler": docs["calibrate"]["idler"]["efficiency"],
        "fit_poisson_residual": fit["poisson"]["residual_l2"],
        "fit_thermal_residual": fit["thermal"]["residual_l2"],
        "preferred_family": fit["preferred"],
    }


def _summary_c(config: ExperimentConfig, docs: dict) -> dict:
    collective = docs["reconstruct"]["collective"]
    probs = np.asarray(collective["probabilities"], dtype=float)
    odd = probs[1::2]
    even = probs[0::2]
    even_mass = float(even.sum())
    odd_mass = float(odd.sum())
    return {
        "collective_probabilities": probs,
        "collective_mean": collective["mean"],
        "odd_mass": odd_mass,
        "even_mass": even_mass,
        "max_odd_entry": float(odd.max()),
        "odd_to_even_ratio": odd_mass / even_mass if even_mass > 0 else "inf",
    }


def _summary_d(config: ExperimentConfig, docs: dict) -> dict:
    metrics = docs["metrics"]
    return {
        "correlation": metrics["joint"]["correlation"],
        "raw_correlation": metrics["raw"]["correlation"],
        "squeezing_db": metrics["joint"]["squeezing_db"],
        "raw_squeezing_db": metrics["raw"]["squeezing_db"],
        "signal_mean": metrics["joint"]["signal_mean"],
        "idler_mean": metrics["joint"]["idler_mean"],
    }


# Stages each layout's replicate runs, and the summary drawn from them.
_LAYOUT_STAGES = {
    "A": (("simulate", "calibrate"), _summary_a),
    "B": (("simulate", "calibrate", "reconstruct", "fit"), _summary_b),
    "C": (("simulate", "reconstruct"), _summary_c),
    "D": (("simulate", "calibrate", "reconstruct", "metrics"), _summary_d),
}


def run_replicate(
    config: ExperimentConfig,
    out_dir: str | Path,
    constrained: bool = False,
    emit_shots: bool = False,
) -> RunOutput:
    """Chain every stage the configured layout measures.

    Writes the config, then the stage documents of one simulation, so
    they are mutually consistent, then a summary that repeats only
    numbers already in the stage documents.
    """
    out_dir = Path(out_dir)
    stages, summarize = _LAYOUT_STAGES[config.setup]
    paths: list[str] = []
    _write(out_dir, "config.json", tmdio.serialize_config(config), paths)
    docs = _chain(config, out_dir, stages, paths, constrained, emit_shots)
    summary = {
        "format_version": tmdio.FORMAT_VERSION,
        "kind": "summary",
        "setup": config.setup,
        "shots": config.shots,
        "seed": config.seed,
        **summarize(config, docs),
    }
    _write(out_dir, "summary.json", summary, paths)
    return RunOutput(summary, tuple(paths))
