"""Analysis chains at the library level."""

import numpy as np
import pytest

from tmdkit import ConfigError, DomainError, write_json_doc
from tmdkit.pipelines import (
    DEFAULT_SEED,
    DEFAULT_SHOTS,
    apply_overrides,
    default_config,
    run_fit_file,
    run_metrics_file,
    run_stage,
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
    def test_calibrate_rejects_merged_arms(self, tmp_path):
        with pytest.raises(DomainError):
            run_stage("calibrate", default_config("C", shots=100), tmp_path)

    def test_reconstruct_collective_output(self, tmp_path):
        output = run_stage("reconstruct", default_config("C", shots=20_000), tmp_path)
        fragment = output.primary["collective"]
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
