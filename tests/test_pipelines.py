"""Analysis chains at the library level."""

from dataclasses import replace

import numpy as np
import pytest

from tmdkit import (
    ConfigError,
    DomainError,
    TMDConfig,
    read_json_doc,
    write_json_doc,
)
from tmdkit import montecarlo, pipelines
from tmdkit.pipelines import (
    DEFAULT_SEED,
    DEFAULT_SHOTS,
    apply_overrides,
    default_config,
    run_fit_file,
    run_metrics_file,
    run_replicate,
)


class TestDefaultConfigs:
    def test_all_layouts_build(self):
        labels = {"A": "fock", "B": "thermal", "C": "thermal", "D": "poisson"}
        for setup, label in labels.items():
            config = default_config(setup)
            assert config.setup == setup
            assert config.source.label == label
            assert config.shots == DEFAULT_SHOTS
            assert config.seed == DEFAULT_SEED
            assert config.sigma_eta_signal == 0.009

    def test_rejects_unknown(self):
        with pytest.raises(DomainError):
            default_config("Z")

    @pytest.mark.parametrize("field, value, message", [
        ("shots", 0, "shots must be a positive integer"),
        ("shots", True, "shots must be a positive integer"),
        ("shots", 1.5, "shots must be a positive integer"),
        ("seed", -1, "seed must be an unsigned 64-bit integer"),
        ("seed", 2**64, "seed must be an unsigned 64-bit integer"),
    ])
    def test_validated_like_a_config_file(self, field, value, message):
        with pytest.raises(ConfigError) as info:
            default_config("D", **{field: value})
        assert str(info.value) == message

    def test_overrides(self):
        config = apply_overrides(default_config("A"), shots=77, seed=3)
        assert config.shots == 77
        assert config.seed == 3


class TestRunners:
    def test_reconstruct_collective_output(self, tmp_path):
        run_replicate(default_config("C", shots=20_000), tmp_path)
        fragment = read_json_doc(tmp_path / "reconstruction.json")["collective"]
        probs = np.asarray(fragment["probabilities"], dtype=float)
        assert probs.sum() == pytest.approx(1.0)
        assert len(fragment["sigma"]) == probs.size

    def test_metrics_accepts_bare_arm_fragments(self, tmp_path):
        doc_path = tmp_path / "doc.json"
        write_json_doc(doc_path, {"format_version": 1, "signal": [0.7, 0.2, 0.1]})
        output = run_metrics_file(doc_path, tmp_path / "out")
        assert output.primary["distribution"]["mean"] == pytest.approx(0.4)

    @pytest.mark.parametrize("doc", [
        {"signal": [0.7, 0.2, 0.1], "idler": [0.6, 0.4]},
        {"joint": [[0.5, 0.0], [0.1, 0.4]]},
    ], ids=["arms", "joint"])
    def test_stored_documents_use_the_idler_arm(self, tmp_path, doc):
        # as the chain's fit stage does: the idler is the heralded arm
        doc_path, idler_path = tmp_path / "doc.json", tmp_path / "idler.json"
        write_json_doc(doc_path, {"format_version": 1, **doc})
        write_json_doc(idler_path, {"format_version": 1, "distribution": [0.6, 0.4]})
        for path in (doc_path, idler_path):
            run_fit_file(path, tmp_path / path.stem)
        assert (tmp_path / "doc" / "fit.json").read_bytes() == (tmp_path / "idler" / "fit.json").read_bytes()
        if "idler" in doc:
            metrics = run_metrics_file(doc_path, tmp_path / "metrics").primary
            assert metrics["distribution"]["mean"] == pytest.approx(0.4)


def swap_arms(config):
    """The same experiment with the signal and idler detectors exchanged."""
    return replace(
        config,
        tmd_signal=config.tmd_idler,
        tmd_idler=config.tmd_signal,
        sigma_eta_signal=config.sigma_eta_idler,
        sigma_eta_idler=config.sigma_eta_signal,
    )


class TestRoleRule:
    """The chain follows the detectors of a run, not its layout letter."""

    def test_swapped_heralded_layout_matches_stock_on_the_tmd_arm(self, tmp_path, monkeypatch):
        stock = default_config("B", shots=20_000, seed=7)
        histogram, _ = montecarlo._simulate(stock, False)
        run_replicate(stock, tmp_path / "stock")
        # the same clicks with the arms, and so the joint table's axes, exchanged
        monkeypatch.setattr(pipelines, "_simulate", lambda config, keep_shots: (histogram.T, None))
        run_replicate(swap_arms(stock), tmp_path / "swapped")

        def read(run, name):
            return read_json_doc(tmp_path / run / f"{name}.json")

        stock_summary = read("stock", "summary")
        assert "idler_probabilities" in stock_summary
        renamed = {key.replace("idler", "signal"): value for key, value in stock_summary.items()}
        assert read("swapped", "summary") == renamed
        assert (tmp_path / "swapped" / "fit.json").read_bytes() == (tmp_path / "stock" / "fit.json").read_bytes()
        recon = read("swapped", "reconstruction")
        assert "idler" not in recon
        assert recon["signal"] == read("stock", "reconstruction")["idler"]
        calibration, stock_calibration = read("swapped", "calibration"), read("stock", "calibration")
        assert calibration["signal"] == stock_calibration["idler"]
        assert calibration["idler"] == stock_calibration["signal"]

    def test_unequal_dual_layout_runs_the_joint_chain(self, tmp_path):
        config = replace(
            default_config("D", shots=20_000, seed=3), tmd_signal=TMDConfig.uniform(4, efficiency=0.3)
        )
        output = run_replicate(config, tmp_path)
        recon = read_json_doc(tmp_path / "reconstruction.json")
        assert np.asarray(recon["joint"]["probabilities"]).shape == (5, 9)
        assert len(recon["signal"]["probabilities"]) == 5
        assert len(recon["idler"]["probabilities"]) == 9
        assert {"joint", "raw"} <= set(read_json_doc(tmp_path / "metrics.json"))
        assert "correlation" in output.primary
        assert not (tmp_path / "fit.json").exists()
