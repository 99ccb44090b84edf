"""Config documents, result serialization, and shot files."""

import json
import math

import numpy as np
import pytest

from tmdkit import (
    ClickStatistics,
    ConfigError,
    DataFormatError,
    DomainError,
    ExperimentConfig,
    JointPhotonDistribution,
    PhotonDistribution,
    RunManifest,
    SourceModel,
    TMDConfig,
    config_from_doc,
    ingest_shots,
    parse_config,
    read_json_doc,
    run_experiment,
    serialize_config,
    write_json_doc,
    write_manifest,
    write_shots,
)
from tmdkit.io import (
    FORMAT_VERSION,
    atomic_write_text,
    jsonable,
    write_clicks_csv,
    write_distribution_csv,
)


class TestJsonable:
    def test_arrays_and_scalars(self):
        doc = jsonable({"a": np.array([1.5, 2.5]), "b": np.int64(3), "c": np.bool_(True)})
        assert doc == {"a": [1.5, 2.5], "b": 3, "c": True}
        assert isinstance(doc["b"], int)
        assert isinstance(doc["c"], bool)

    def test_infinities_become_strings(self):
        assert jsonable(float("inf")) == "inf"
        assert jsonable(float("-inf")) == "-inf"
        assert jsonable(np.float64("-inf")) == "-inf"

    def test_rejects_nan(self):
        with pytest.raises(DataFormatError):
            jsonable(float("nan"))

    def test_rejects_non_string_keys(self):
        with pytest.raises(DataFormatError):
            jsonable({1: "x"})

    def test_rejects_unknown_types(self):
        with pytest.raises(DataFormatError):
            jsonable(object())

    def test_none_and_strings_pass_through(self):
        assert jsonable({"x": None, "y": "text", "z": (1, 2)}) == {
            "x": None,
            "y": "text",
            "z": [1, 2],
        }


class TestJsonDocuments:
    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json_doc(path, {"format_version": 1, "values": np.arange(3)})
        doc = read_json_doc(path)
        assert doc == {"format_version": 1, "values": [0, 1, 2]}

    def test_output_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        doc = {"zeta": 1, "alpha": [3, 2], "format_version": 1}
        write_json_doc(a, doc)
        write_json_doc(b, dict(reversed(doc.items())))
        assert a.read_bytes() == b.read_bytes()

    def test_write_rejects_non_object(self, tmp_path):
        with pytest.raises(DataFormatError):
            write_json_doc(tmp_path / "x.json", [1, 2])

    def test_read_rejects_non_object(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[1, 2]")
        with pytest.raises(DataFormatError):
            read_json_doc(path)

    def test_read_rejects_bad_version(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(DataFormatError):
            read_json_doc(path)

    def test_read_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{nope")
        with pytest.raises(DataFormatError):
            read_json_doc(path)

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            read_json_doc(tmp_path / "absent.json")

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "deep" / "file.txt"
        atomic_write_text(target, "payload")
        assert target.read_text() == "payload"
        assert [p.name for p in target.parent.iterdir()] == ["file.txt"]


def build_config(**overrides):
    fields = dict(
        source=SourceModel.poissonian_pairs(0.2, n_max=8),
        setup="D",
        tmd_signal=TMDConfig.uniform(8, efficiency=0.0274),
        tmd_idler=TMDConfig.uniform(8, efficiency=0.111),
        shots=1000,
        seed=7,
        sigma_eta_signal=0.009,
        sigma_eta_idler=0.009,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


class TestConfigRoundtrip:
    @pytest.mark.parametrize("source", [
        SourceModel.single_mode_squeezer(0.5, n_max=12),
        SourceModel.multimode_pdc(100, 1.0, n_max=12),
        SourceModel.poissonian_pairs(0.2, n_max=8),
        SourceModel.fock_pairs(1),
        SourceModel(PhotonDistribution([0.25, 0.5, 0.25]), "custom"),
    ])
    def test_every_source_kind(self, source):
        config = build_config(source=source)
        assert config_from_doc(serialize_config(config)) == config

    def test_every_setup(self):
        layouts = {
            "A": (TMDConfig.uniform(1, efficiency=0.3), TMDConfig.uniform(1, efficiency=0.4)),
            "B": (TMDConfig.uniform(1, efficiency=0.3), TMDConfig.uniform(8, efficiency=0.4)),
            "C": (TMDConfig.uniform(8, efficiency=0.3), TMDConfig.uniform(8, efficiency=0.4)),
            "D": (TMDConfig.uniform(8, efficiency=0.3), TMDConfig.uniform(8, efficiency=0.4)),
        }
        for setup, (tmd_s, tmd_i) in layouts.items():
            config = build_config(setup=setup, tmd_signal=tmd_s, tmd_idler=tmd_i)
            assert config_from_doc(serialize_config(config)) == config

    def test_file_roundtrip(self, tmp_path):
        config = build_config()
        path = tmp_path / "config.json"
        write_json_doc(path, serialize_config(config))
        assert parse_config(path) == config

    def test_rectangular_detector_roundtrip(self):
        config = build_config(
            tmd_signal=TMDConfig(np.full(8, 0.125), efficiency=0.7, n_max=4),
        )
        assert config_from_doc(serialize_config(config)) == config


class TestConfigValidation:
    def minimal(self):
        return {
            "setup": "B",
            "shots": 100,
            "seed": 1,
            "source": {"kind": "fock", "photons": 1},
        }

    def test_defaults_fill_in_detectors(self):
        config = config_from_doc(self.minimal())
        assert config.tmd_signal.bins == 1
        assert config.tmd_idler.bins == 8
        assert config.tmd_idler.efficiency == 1.0
        assert config.sigma_eta_idler == 0.0

    def test_unknown_top_level_field(self):
        doc = self.minimal() | {"extra": 1}
        with pytest.raises(ConfigError, match="extra"):
            config_from_doc(doc)

    def test_unknown_source_field(self):
        doc = self.minimal()
        doc["source"]["gain"] = 2.0
        with pytest.raises(ConfigError, match="gain"):
            config_from_doc(doc)

    def test_unknown_detector_field(self):
        doc = self.minimal() | {"idler": {"bins": 8, "dead_time": 1}}
        with pytest.raises(ConfigError, match="dead_time"):
            config_from_doc(doc)

    def test_missing_required_fields(self):
        for field in ("setup", "shots", "seed", "source"):
            doc = self.minimal()
            del doc[field]
            with pytest.raises(ConfigError, match=field):
                config_from_doc(doc)

    def test_rejects_bad_version(self):
        doc = self.minimal() | {"format_version": 2}
        with pytest.raises(ConfigError):
            config_from_doc(doc)

    def test_rejects_unknown_source_kind(self):
        doc = self.minimal()
        doc["source"] = {"kind": "laser", "mean": 1.0}
        with pytest.raises(ConfigError, match="kind"):
            config_from_doc(doc)

    def test_rejects_negative_mean(self):
        doc = self.minimal()
        doc["source"] = {"kind": "thermal", "mean": -0.5}
        with pytest.raises(ConfigError, match="mean"):
            config_from_doc(doc)

    def test_rejects_bins_and_bin_probs_together(self):
        doc = self.minimal() | {"idler": {"bins": 8, "bin_probs": [0.5, 0.5]}}
        with pytest.raises(ConfigError):
            config_from_doc(doc)

    def test_rejects_unnormalized_bin_probs(self):
        doc = self.minimal() | {"idler": {"bin_probs": [0.5, 0.4]}}
        with pytest.raises(ConfigError):
            config_from_doc(doc)

    def test_detector_error_names_the_arm_only(self):
        doc = self.minimal() | {"idler": {"bins": 8, "efficiency": 1.5}}
        with pytest.raises(ConfigError, match=r"^idler: efficiency 1.5 outside"):
            config_from_doc(doc)

    def test_rejects_seed_out_of_range(self):
        doc = self.minimal() | {"seed": 2**64}
        with pytest.raises(ConfigError, match="seed"):
            config_from_doc(doc)

    def test_rejects_bad_sigma(self):
        doc = self.minimal() | {"idler": {"bins": 8, "efficiency_uncertainty": 1.5}}
        with pytest.raises(ConfigError):
            config_from_doc(doc)

    def test_layout_mismatch_is_a_config_error(self):
        doc = self.minimal() | {"setup": "A"}
        doc["idler"] = {"bins": 8}
        with pytest.raises(ConfigError):
            config_from_doc(doc)

    def test_parse_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.json")

    def test_parse_config_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(ConfigError):
            parse_config(path)


class TestShotFiles:
    def test_roundtrip_both_arms(self, tmp_path):
        path = tmp_path / "shots.csv"
        signal = np.array([0b0000, 0b0101, 0b1111, 0b0001], dtype=np.uint32)
        idler = np.array([0b0, 0b1, 0b1, 0b0], dtype=np.uint32)
        write_shots(path, signal_masks=signal, idler_masks=idler)
        stats = ingest_shots(path, signal_bins=4, idler_bins=1)
        assert stats.total_shots == 4
        expected = np.zeros((5, 2), dtype=np.int64)
        expected[0, 0] = 1
        expected[2, 1] = 1
        expected[4, 1] = 1
        expected[1, 0] = 1
        np.testing.assert_array_equal(stats.counts, expected)

    def test_roundtrip_matches_run_histograms(self, tmp_path):
        config = ExperimentConfig(
            source=SourceModel.poissonian_pairs(0.3, n_max=8),
            setup="D",
            tmd_signal=TMDConfig.uniform(4, efficiency=0.5),
            tmd_idler=TMDConfig.uniform(4, efficiency=0.4),
            shots=2_000,
            seed=13,
        )
        result = run_experiment(config, keep_shots=True)
        path = tmp_path / "shots.csv"
        write_shots(path, result.signal_masks, result.idler_masks)
        stats = ingest_shots(path, signal_bins=4, idler_bins=4)
        assert stats == result.joint_clicks

    def test_single_arm(self, tmp_path):
        path = tmp_path / "shots.csv"
        write_shots(path, idler_masks=np.array([0, 3, 3, 7]))
        stats = ingest_shots(path, idler_bins=3)
        np.testing.assert_array_equal(stats.counts, [1, 0, 2, 1])

    def test_write_requires_an_arm(self, tmp_path):
        with pytest.raises(DomainError):
            write_shots(tmp_path / "x.csv")

    def test_write_rejects_length_mismatch(self, tmp_path):
        with pytest.raises(DomainError):
            write_shots(tmp_path / "x.csv", np.array([1, 2]), np.array([1]))

    def test_ingest_requires_declared_bins(self, tmp_path):
        path = tmp_path / "shots.csv"
        write_shots(path, signal_masks=np.array([1, 0]))
        with pytest.raises(DataFormatError):
            ingest_shots(path)
        # a declared bin count must fit a click mask
        for bins in (-1, 0, 33, 40):
            with pytest.raises(DomainError, match="MAX_BINS"):
                ingest_shots(path, signal_bins=bins)

    def test_ingest_rejects_wide_mask(self, tmp_path):
        path = tmp_path / "shots.csv"
        write_shots(path, signal_masks=np.array([1, 16]))
        with pytest.raises(DataFormatError, match="line 3"):
            ingest_shots(path, signal_bins=4)
        # blank lines still count when the bad line is named
        path.write_text("shot_id,signal_mask\n0,1\n\n\n1,16\n")
        with pytest.raises(DataFormatError, match="line 5"):
            ingest_shots(path, signal_bins=4)

    def test_ingest_rejects_bad_header(self, tmp_path):
        path = tmp_path / "shots.csv"
        path.write_text("time,mask\n0,1\n")
        with pytest.raises(DataFormatError):
            ingest_shots(path, signal_bins=4)

    def test_ingest_rejects_non_integer(self, tmp_path):
        path = tmp_path / "shots.csv"
        for row in ("0,1.5", "0," + "9" * 23):
            path.write_text(f"shot_id,signal_mask\n{row}\n")
            with pytest.raises(DataFormatError, match="line 2"):
                ingest_shots(path, signal_bins=4)

    def test_ingest_rejects_non_utf8(self, tmp_path):
        path = tmp_path / "shots.csv"
        path.write_bytes(b"shot_id,signal_mask\n0,\xff\n")
        with pytest.raises(DataFormatError):
            ingest_shots(path, signal_bins=4)

    def test_ingest_rejects_empty(self, tmp_path):
        path = tmp_path / "shots.csv"
        path.write_text("shot_id,signal_mask\n")
        with pytest.raises(DataFormatError):
            ingest_shots(path, signal_bins=4)


class TestTableFiles:
    def test_distribution_table(self, tmp_path):
        path = tmp_path / "dist.csv"
        write_distribution_csv(path, PhotonDistribution([0.25, 0.75]))
        lines = path.read_text().splitlines()
        assert lines[0] == "n,probability"
        assert lines[1] == "0,0.25"
        assert float(lines[2].split(",")[1]) == 0.75

    def test_distribution_table_with_sigma(self, tmp_path):
        path = tmp_path / "dist.csv"
        write_distribution_csv(path, PhotonDistribution([0.25, 0.75]), sigma=np.array([0.01, 0.02]))
        lines = path.read_text().splitlines()
        assert lines[0] == "n,probability,sigma"
        assert lines[1].split(",")[2] == "0.01"

    def test_sigma_length_must_match(self, tmp_path):
        with pytest.raises(DomainError):
            write_distribution_csv(
                tmp_path / "x.csv", PhotonDistribution([1.0]), sigma=np.array([0.1, 0.2])
            )

    def test_joint_table(self, tmp_path):
        path = tmp_path / "joint.csv"
        write_distribution_csv(path, JointPhotonDistribution([[0.5, 0.0], [0.0, 0.5]]))
        lines = path.read_text().splitlines()
        assert lines[0] == "signal_n,idler_n,probability"
        assert len(lines) == 5
        with pytest.raises(DomainError):
            write_distribution_csv(
                path, JointPhotonDistribution([[1.0]]), sigma=np.array([0.1])
            )

    def test_clicks_table(self, tmp_path):
        path = tmp_path / "clicks.csv"
        write_clicks_csv(path, ClickStatistics(np.array([3, 1]), 4))
        lines = path.read_text().splitlines()
        assert lines[0] == "clicks,count,frequency"
        assert lines[1] == "0,3,0.75"

    def test_joint_clicks_table(self, tmp_path):
        path = tmp_path / "clicks.csv"
        write_clicks_csv(path, ClickStatistics(np.array([[2, 1], [0, 1]]), 4))
        lines = path.read_text().splitlines()
        assert lines[0] == "signal_clicks,idler_clicks,count,frequency"
        assert lines[1] == "0,0,2,0.5"
        # signal rows, idler columns, idler index running fastest
        write_clicks_csv(path, ClickStatistics(np.arange(12).reshape(3, 4), 66))
        lines = path.read_text().splitlines()
        assert len(lines) == 13
        assert lines[2] == f"0,1,1,{1 / 66!r}"
        assert lines[5] == f"1,0,4,{4 / 66!r}"
        assert lines[12] == f"2,3,11,{11 / 66!r}"


class TestManifest:
    def test_document_shape(self, tmp_path):
        manifest = RunManifest(
            command="simulate",
            config={"setup": "D"},
            seed=7,
            version="1.0.0",
            inputs=("config.json",),
            outputs=("out.json",),
            duration_seconds=0.25,
        )
        path = tmp_path / "manifest.json"
        write_manifest(path, manifest)
        doc = read_json_doc(path)
        assert doc["format_version"] == FORMAT_VERSION
        assert doc["tool"]["name"] == "tmdkit"
        assert doc["command"] == "simulate"
        assert doc["inputs"] == ["config.json"]
        assert doc["outputs"] == ["out.json"]
        assert doc["seed"] == 7
