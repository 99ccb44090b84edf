"""Command-line entry points, exit codes, and emitted files."""

import json

import numpy as np
import pytest

from tmdkit import (
    __version__,
    default_config,
    parse_config,
    read_json_doc,
    serialize_config,
    write_json_doc,
)
from tmdkit.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, main
from tmdkit.reconstruct import MLE_GAP


def run_cli(*argv):
    return main([str(a) for a in argv])


def write_config(path, doc):
    base = {"format_version": 1}
    write_json_doc(path, base | doc)
    return path


class TestSimulate:
    def test_stock_setup(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("simulate", "--setup", "A", "--shots", 2000, "--out", out) == EXIT_OK
        doc = read_json_doc(out / "simulation.json")
        assert doc["kind"] == "simulation"
        assert doc["setup"] == "A"
        assert 0.0 < doc["rates_per_shot"]["coincidences"] < 1.0
        for name in ("clicks_signal.csv", "clicks_idler.csv", "clicks_joint.csv", "manifest.json"):
            assert (out / name).exists()
        printed = capsys.readouterr().out
        assert "wrote" in printed

    def test_shared_layout_writes_collective_table(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("simulate", "--setup", "C", "--shots", 2000, "--out", out) == EXIT_OK
        doc = read_json_doc(out / "simulation.json")
        assert "collective" in doc["clicks"]
        assert (out / "clicks_collective.csv").exists()

    def test_emit_shots(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(
            "simulate", "--setup", "D", "--shots", 500, "--out", out, "--emit-shots"
        ) == EXIT_OK
        lines = (out / "shots.csv").read_text().splitlines()
        assert lines[0] == "shot_id,signal_mask,idler_mask"
        assert len(lines) == 501

    def test_config_file(self, tmp_path):
        config = write_config(tmp_path / "config.json", {
            "setup": "B",
            "shots": 1000,
            "seed": 5,
            "source": {"kind": "thermal", "mean": 0.5, "n_max": 20},
            "signal": {"bins": 1, "efficiency": 0.2},
            "idler": {"bins": 4, "efficiency": 0.5},
        })
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", config, "--out", out) == EXIT_OK
        doc = read_json_doc(out / "simulation.json")
        assert doc["config"]["seed"] == 5

    def test_same_seed_is_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("simulate", "--setup", "D", "--shots", 2000, "--out", out_a)
        run_cli("simulate", "--setup", "D", "--shots", 2000, "--out", out_b)
        assert (out_a / "simulation.json").read_bytes() == (out_b / "simulation.json").read_bytes()

    def test_overrides_land_in_manifest(self, tmp_path):
        out = tmp_path / "out"
        run_cli("simulate", "--setup", "A", "--shots", 1500, "--seed", 99, "--out", out)
        manifest = read_json_doc(out / "manifest.json")
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 99
        assert manifest["config"]["shots"] == 1500
        written = {str(p) for p in manifest["outputs"]}
        assert str(out / "simulation.json") in written


class TestCalibrate:
    """The calibration stage of ``replicate``."""

    def test_stock_setup(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("replicate", "A", "--shots", 50_000, "--out", out) == EXIT_OK
        doc = read_json_doc(out / "calibration.json")
        assert doc["signal"]["efficiency"] == pytest.approx(0.117, abs=0.01)
        assert doc["idler"]["efficiency"] == pytest.approx(0.137, abs=0.01)
        assert doc["signal"]["uncertainty"] > 0.0

    def test_no_clicks_is_a_numerical_error(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json", {
            "setup": "A",
            "shots": 100,
            "seed": 1,
            "source": {"kind": "fock", "photons": 0},
            "signal": {"bins": 1, "efficiency": 0.5},
            "idler": {"bins": 1, "efficiency": 0.5},
        })
        code = run_cli("replicate", "A", "--config", config, "--out", tmp_path / "out")
        assert code == EXIT_NUMERICAL
        assert "error:" in capsys.readouterr().err


class TestReconstruct:
    """The reconstruction stage of ``replicate``."""

    def test_dual_layout(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("replicate", "D", "--shots", 20_000, "--out", out) == EXIT_OK
        doc = read_json_doc(out / "reconstruction.json")
        assert doc["method"] == "direct"
        for arm in ("joint", "signal", "idler"):
            assert arm in doc
        assert (out / "distribution_signal.csv").exists()
        assert (out / "distribution_joint.csv").exists()
        probs = np.asarray(doc["signal"]["probabilities"], dtype=float)
        assert probs.sum() == pytest.approx(1.0)
        assert len(doc["signal"]["sigma"]) == len(probs)
        # the method is named once, at the top; no arm carries a condition number,
        # and a direct estimate has no maximum-likelihood certificate
        for arm in ("joint", "signal", "idler"):
            assert not {"method", "condition_number", "duality_gap", "newton_steps"} & set(doc[arm])

    def test_constrained_flag(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(
            "replicate", "D", "--shots", 20_000, "--out", out, "--constrained"
        ) == EXIT_OK
        doc = read_json_doc(out / "reconstruction.json")
        assert doc["method"] == "constrained"
        assert np.asarray(doc["signal"]["probabilities"]).min() >= 0.0
        assert "sigma" not in doc["signal"]
        # every estimate is the certified maximum-likelihood law
        for arm in ("joint", "signal", "idler"):
            assert doc[arm]["duality_gap"] <= MLE_GAP
            assert isinstance(doc[arm]["newton_steps"], int) and doc[arm]["newton_steps"] >= 0
        metrics = read_json_doc(out / "metrics.json")
        assert -1.0 <= metrics["joint"]["correlation"] <= 1.0

    def test_shared_layout_averages_efficiencies(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("replicate", "C", "--shots", 20_000, "--out", out) == EXIT_OK
        doc = read_json_doc(out / "reconstruction.json")
        assert doc["collective"]["efficiency"] == pytest.approx(0.117)
        assert "efficiency_note" in doc["collective"]


class TestRemovedCommands:
    @pytest.mark.parametrize("command", ["calibrate", "reconstruct"])
    def test_stage_commands_are_gone(self, tmp_path, capsys, command):
        # replicate writes every stage document these commands used to write
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--setup", "D", "--shots", 100, "--out", tmp_path / "o")
        assert exc.value.code == EXIT_CONFIG
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestArgumentErrors:
    def test_needs_config_or_setup(self, tmp_path, capsys):
        assert run_cli("simulate", "--out", tmp_path / "out") == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_setup_flag_contradicting_config(self, tmp_path):
        config = write_config(tmp_path / "config.json", {
            "setup": "B",
            "shots": 100,
            "seed": 1,
            "source": {"kind": "fock", "photons": 1},
        })
        code = run_cli("simulate", "--config", config, "--setup", "D", "--out", tmp_path / "o")
        assert code == EXIT_CONFIG

    def test_invalid_config_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert run_cli("simulate", "--config", bad, "--out", tmp_path / "o") == EXIT_CONFIG

    def test_non_utf8_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"setup": "A\xff"}')
        assert run_cli("simulate", "--config", bad, "--out", tmp_path / "o") == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_field(self, tmp_path):
        config = write_config(tmp_path / "config.json", {
            "setup": "A",
            "shots": 100,
            "seed": 1,
            "source": {"kind": "fock", "photons": 1},
            "detector": {"bins": 1},
        })
        assert run_cli("simulate", "--config", config, "--out", tmp_path / "o") == EXIT_CONFIG

    @pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["bool", "float", "string"])
    def test_format_version_must_be_the_integer_one(self, tmp_path, capsys, version):
        config = write_config(tmp_path / "config.json", {
            "format_version": version,
            "setup": "A",
            "shots": 100,
            "seed": 1,
            "source": {"kind": "fock", "photons": 1},
        })
        out = tmp_path / "o"
        assert run_cli("simulate", "--config", config, "--out", out) == EXIT_CONFIG
        assert f"unsupported format_version {version!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_more_bins_than_a_click_mask_holds(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json", {
            "setup": "D",
            "shots": 100,
            "seed": 1,
            "source": {"kind": "poisson", "mean": 3.0, "n_max": 30},
            "signal": {"bins": 40},
        })
        out = tmp_path / "o"
        assert run_cli("simulate", "--config", config, "--out", out) == EXIT_CONFIG
        assert "signal.bins must be at most 32" in capsys.readouterr().err
        assert not (out / "simulation.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "replicate"])
    @pytest.mark.parametrize("flag, value", [
        ("--shots", 0),
        ("--seed", -1),
        ("--seed", 2**64),
    ])
    def test_bad_override_is_a_config_error(self, tmp_path, capsys, command, flag, value):
        layout = ["--setup", "A"] if command == "simulate" else ["A"]
        out = tmp_path / "o"
        code = run_cli(command, *layout, "--shots", 100, flag, value, "--out", out)
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_deeply_nested_config(self, tmp_path, capsys):
        bad = tmp_path / "nested.json"
        bad.write_text("[" * 200_000 + "]" * 200_000)
        assert run_cli("simulate", "--config", bad, "--out", tmp_path / "o") == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("--version")
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("tmdkit ")


class TestMetrics:
    def test_joint_document(self, tmp_path):
        doc_path = tmp_path / "doc.json"
        write_json_doc(doc_path, {
            "format_version": 1,
            "joint": {"probabilities": [[0.6, 0.0], [0.0, 0.4]]},
        })
        out = tmp_path / "out"
        assert run_cli("metrics", "--in", doc_path, "--out", out) == EXIT_OK
        doc = read_json_doc(out / "metrics.json")
        assert doc["joint"]["correlation"] == pytest.approx(1.0)
        assert doc["joint"]["squeezing_db"] == "-inf"

    def test_bare_vector_document(self, tmp_path):
        doc_path = tmp_path / "doc.json"
        write_json_doc(doc_path, {"format_version": 1, "distribution": [0.5, 0.3, 0.2]})
        out = tmp_path / "out"
        assert run_cli("metrics", "--in", doc_path, "--out", out) == EXIT_OK
        doc = read_json_doc(out / "metrics.json")
        assert doc["distribution"]["mean"] == pytest.approx(0.7)
        assert doc["distribution"]["moments"]["2"] == pytest.approx(1.1)

    def test_missing_file(self, tmp_path):
        code = run_cli("metrics", "--in", tmp_path / "absent.json", "--out", tmp_path / "o")
        assert code == EXIT_DATA

    def test_non_utf8_document(self, tmp_path, capsys):
        doc_path = tmp_path / "doc.json"
        doc_path.write_bytes(b'{"distribution": [1.0], "note": "\xff"}')
        assert run_cli("metrics", "--in", doc_path, "--out", tmp_path / "o") == EXIT_DATA
        assert "error:" in capsys.readouterr().err

    def test_document_without_distributions(self, tmp_path, capsys):
        doc_path = tmp_path / "doc.json"
        write_json_doc(doc_path, {"format_version": 1, "note": "nothing here"})
        code = run_cli("metrics", "--in", doc_path, "--out", tmp_path / "o")
        assert code == EXIT_DATA
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["metrics", "fit"])
    @pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["bool", "float", "string"])
    def test_format_version_must_be_the_integer_one(self, tmp_path, capsys, command, version):
        doc_path = tmp_path / "doc.json"
        write_json_doc(doc_path, {"format_version": version, "distribution": [0.5, 0.5]})
        out = tmp_path / "o"
        assert run_cli(command, "--in", doc_path, "--out", out) == EXIT_DATA
        assert f"unsupported format_version {version!r}" in capsys.readouterr().err
        assert not out.exists()


class TestFit:
    def test_vector_document(self, tmp_path):
        from tmdkit.stats import poisson_probs

        doc_path = tmp_path / "doc.json"
        write_json_doc(doc_path, {
            "format_version": 1,
            "distribution": poisson_probs(1.0, 10),
        })
        out = tmp_path / "out"
        assert run_cli("fit", "--in", doc_path, "--out", out) == EXIT_OK
        doc = read_json_doc(out / "fit.json")
        assert doc["preferred"] == "poisson"
        assert doc["poisson"]["mean"] == pytest.approx(1.0, abs=1e-4)

    def test_non_utf8_document(self, tmp_path, capsys):
        doc_path = tmp_path / "doc.json"
        doc_path.write_bytes(b'{"distribution": [1.0], "note": "\xff"}')
        assert run_cli("fit", "--in", doc_path, "--out", tmp_path / "o") == EXIT_DATA
        assert "error:" in capsys.readouterr().err

    def test_joint_document_falls_back_to_marginal(self, tmp_path):
        doc_path = tmp_path / "doc.json"
        write_json_doc(doc_path, {
            "format_version": 1,
            "joint": {"probabilities": [[0.6, 0.0], [0.0, 0.4]]},
        })
        out = tmp_path / "out"
        assert run_cli("fit", "--in", doc_path, "--out", out) == EXIT_OK
        assert (out / "fit.json").exists()


class TestMalformedDocuments:
    @pytest.mark.parametrize("command", ["metrics", "fit"])
    @pytest.mark.parametrize("key, probs", [
        ("distribution", [0.25, 0.25]),
        ("joint", [[0.6, 0.0], [0.0, 0.5]]),
        # huge entries widen the tolerance only by the rounding of their sum
        ("distribution", [1e9, -1e9]),
    ], ids=["vector", "joint", "cancelling"])
    def test_unnormalized_distribution(self, tmp_path, capsys, command, key, probs):
        doc_path = tmp_path / "doc.json"
        write_json_doc(doc_path, {"format_version": 1, key: probs})
        assert run_cli(command, "--in", doc_path, "--out", tmp_path / "o") == EXIT_DATA
        assert f"error: {key} entry" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["metrics", "fit"])
    def test_deeply_nested_document(self, tmp_path, capsys, command):
        doc_path = tmp_path / "nested.json"
        doc_path.write_text("[" * 200_000 + "]" * 200_000)
        assert run_cli(command, "--in", doc_path, "--out", tmp_path / "o") == EXIT_DATA
        assert "error:" in capsys.readouterr().err


# An integer that neither a float nor numpy's int64 holds.
_HUGE = 10**400

# (field named in the error, config block, value of that block)
_HUGE_CONFIG_FIELDS = [
    ("source.mean", "source", {"kind": "thermal", "mean": _HUGE}),
    ("source.modes", "source", {"kind": "multimode", "modes": _HUGE, "mean": 0.5}),
    ("source.photons", "source", {"kind": "fock", "photons": _HUGE}),
    ("source.n_max", "source", {"kind": "thermal", "mean": 0.5, "n_max": _HUGE}),
    ("source.pair_dist", "source", {"kind": "custom", "pair_dist": [_HUGE, 0.5]}),
    ("signal.efficiency", "signal", {"bins": 8, "efficiency": _HUGE}),
    ("signal.efficiency_uncertainty", "signal", {"bins": 8, "efficiency_uncertainty": _HUGE}),
    ("signal.bin_probs", "signal", {"bin_probs": [_HUGE, 0.5]}),
]
# (field, block, value): photon numbers an int64 holds but no array does
_PAST_CUTOFF_FIELDS = [
    ("source.photons", "source", {"kind": "fock", "photons": 2**62}),
    ("source.n_max", "source", {"kind": "thermal", "mean": 0.5, "n_max": 2**62}),
    ("source.mean", "source", {"kind": "thermal", "mean": 1e300}),
    ("signal.n_max", "signal", {"bins": 8, "n_max": 2**62}),
    ("idler.n_max", "idler", {"bins": 8, "n_max": 2**63 - 1}),
]


class TestNumbersOutOfRange:
    """A number numpy cannot represent is bad input, with the documented exit code."""

    @pytest.mark.parametrize("field, block, value", _HUGE_CONFIG_FIELDS + _PAST_CUTOFF_FIELDS, ids=[
        field for field, _, _ in _HUGE_CONFIG_FIELDS
    ] + [f"{field} past MAX_PHOTONS" for field, _, _ in _PAST_CUTOFF_FIELDS])
    def test_config_field(self, tmp_path, capsys, field, block, value):
        doc = {"setup": "D", "shots": 100, "seed": 1, "source": {"kind": "poisson", "mean": 0.2}}
        config = write_config(tmp_path / "config.json", doc | {block: value})
        assert run_cli("simulate", "--config", config, "--out", tmp_path / "o") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"error: {field}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["metrics", "fit"])
    def test_document_vector(self, tmp_path, capsys, command):
        doc_path = tmp_path / "doc.json"
        write_json_doc(doc_path, {"format_version": 1, "distribution": [_HUGE, 0.5]})
        assert run_cli(command, "--in", doc_path, "--out", tmp_path / "o") == EXIT_DATA
        err = capsys.readouterr().err
        assert "error: distribution entry" in err
        assert "Traceback" not in err


class TestManifest:
    def test_run_command(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("replicate", "D", "--shots", 2_000, "--seed", 7, "--out", out) == EXIT_OK
        manifest = read_json_doc(out / "manifest.json")
        assert manifest["format_version"] == 1
        assert manifest["tool"] == {"name": "tmdkit", "version": __version__}
        assert manifest["command"] == "replicate D"
        assert manifest["config"] == serialize_config(default_config("D", shots=2_000, seed=7))
        assert manifest["seed"] == 7
        assert manifest["threads"] == 1  # 2,000 shots are one chunk
        assert manifest["inputs"] == []
        written = sorted(str(path) for path in out.iterdir() if path.name != "manifest.json")
        assert sorted(manifest["outputs"]) == written
        assert manifest["duration_seconds"] >= 0.0

    def test_document_command(self, tmp_path):
        doc_path = tmp_path / "doc.json"
        write_json_doc(doc_path, {"format_version": 1, "distribution": [0.5, 0.5]})
        out = tmp_path / "out"
        assert run_cli("metrics", "--in", doc_path, "--out", out) == EXIT_OK
        manifest = read_json_doc(out / "manifest.json")
        assert manifest["command"] == "metrics"
        assert manifest["config"] == {"in": str(doc_path)}
        assert manifest["seed"] is None
        assert manifest["threads"] is None
        assert manifest["inputs"] == [str(doc_path)]
        assert manifest["outputs"] == [str(out / "metrics.json")]


# Files each stock layout's analysis stages write, in writing order.
_STAGE_FILES = [
    ("A", ["calibration.json"]),
    ("B", ["calibration.json", "reconstruction.json", "distribution_idler.csv", "fit.json"]),
    ("C", ["reconstruction.json", "distribution_collective.csv"]),
    ("D", [
        "calibration.json",
        "reconstruction.json",
        "distribution_signal.csv",
        "distribution_idler.csv",
        "distribution_joint.csv",
        "metrics.json",
    ]),
]


class TestReplicate:
    def test_heralded_layout_chains_every_stage(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("replicate", "B", "--shots", 20_000, "--out", out) == EXIT_OK
        for name in (
            "config.json",
            "simulation.json",
            "calibration.json",
            "reconstruction.json",
            "fit.json",
            "summary.json",
            "manifest.json",
        ):
            assert (out / name).exists()
        summary = read_json_doc(out / "summary.json")
        assert summary["setup"] == "B"
        assert summary["preferred_family"] in ("poisson", "thermal")
        assert summary["idler_mean"] > 0.0

    def test_dual_layout_reports_metrics(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("replicate", "D", "--shots", 50_000, "--out", out) == EXIT_OK
        summary = read_json_doc(out / "summary.json")
        assert "correlation" in summary
        assert "squeezing_db" in summary
        metrics = read_json_doc(out / "metrics.json")
        assert {"joint", "raw"} <= set(metrics)

    def test_shared_layout_reports_parity(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("replicate", "C", "--shots", 20_000, "--out", out) == EXIT_OK
        summary = read_json_doc(out / "summary.json")
        assert summary["odd_mass"] >= 0.0
        assert summary["even_mass"] > 0.0

    def test_calibration_layout_summary(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("replicate", "A", "--shots", 20_000, "--out", out) == EXIT_OK
        summary = read_json_doc(out / "summary.json")
        assert summary["true_signal_efficiency"] == pytest.approx(0.117)
        assert summary["klyshko_signal"] == pytest.approx(0.117, abs=0.02)

    def test_mismatched_config_setup(self, tmp_path):
        config = write_config(tmp_path / "config.json", {
            "setup": "D",
            "shots": 100,
            "seed": 1,
            "source": {"kind": "poisson", "mean": 0.2, "n_max": 8},
        })
        code = run_cli("replicate", "B", "--config", config, "--out", tmp_path / "o")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "argv", [("B", "--setup", "D"), ("--setup", "D", "B")], ids=["flag-last", "flag-first"]
    )
    def test_layout_is_named_once(self, tmp_path, argv):
        # replicate has no --setup flag, so a second layout cannot override the first
        with pytest.raises(SystemExit) as exc:
            run_cli("replicate", *argv, "--shots", 100, "--out", tmp_path / "o")
        assert exc.value.code == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    def test_repeated_runs_match_except_manifest(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("replicate", "A", "--shots", 5_000, "--out", out_a)
        run_cli("replicate", "A", "--shots", 5_000, "--out", out_b)
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        for name in names:
            if name == "manifest.json":
                continue
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_written_config_reads_back(self, tmp_path):
        out = tmp_path / "out"
        seed = 2**64 - 1
        assert run_cli("replicate", "D", "--shots", 2_000, "--seed", seed, "--out", out) == EXIT_OK
        config = parse_config(out / "config.json")
        assert config.seed == seed
        assert config.shots == 2_000
        assert serialize_config(config) == read_json_doc(out / "manifest.json")["config"]


    @pytest.mark.parametrize("layout", ["A", "B", "C", "D"])
    def test_written_config_reruns_the_same_files(self, tmp_path, layout):
        stock, again = tmp_path / "stock", tmp_path / "again"
        assert run_cli("replicate", layout, "--shots", 20_000, "--out", stock) == EXIT_OK
        assert run_cli("replicate", layout, "--config", stock / "config.json", "--out", again) == EXIT_OK
        names = sorted(p.name for p in stock.iterdir() if p.name != "manifest.json")
        assert names == sorted(p.name for p in again.iterdir() if p.name != "manifest.json")
        for name in names:
            assert (again / name).read_bytes() == (stock / name).read_bytes(), name


    @pytest.mark.parametrize("layout, written", _STAGE_FILES)
    def test_files_each_layout_writes(self, tmp_path, layout, written):
        # a 1-bin arm only heralds, so stock B inverts its idler alone
        out = tmp_path / "out"
        assert run_cli("replicate", layout, "--shots", 2_000, "--out", out) == EXIT_OK
        clicks = ["clicks_collective.csv"] if layout == "C" else [
            "clicks_signal.csv", "clicks_idler.csv", "clicks_joint.csv"
        ]
        common = ["config.json", "simulation.json", "summary.json", "manifest.json"]
        assert sorted(p.name for p in out.iterdir()) == sorted(common + clicks + written)

    @pytest.mark.parametrize("layout, written", _STAGE_FILES)
    def test_files_are_written_in_chain_order(self, tmp_path, capsys, layout, written):
        out = tmp_path / "out"
        assert run_cli("replicate", layout, "--shots", 2_000, "--emit-shots", "--out", out) == EXIT_OK
        clicks = ["clicks_collective.csv"] if layout == "C" else [
            "clicks_signal.csv", "clicks_idler.csv", "clicks_joint.csv"
        ]
        names = ["config.json", "simulation.json", *clicks, "shots.csv", *written, "summary.json"]
        wrote = [line for line in capsys.readouterr().out.splitlines() if line.startswith("wrote ")]
        assert wrote == [f"wrote {out / name}" for name in names]

    @pytest.mark.parametrize("layout", ["B", "C"])
    def test_summary_prints_scalars_only(self, tmp_path, capsys, layout):
        # the summary's probability vectors stay in summary.json
        out = tmp_path / "out"
        assert run_cli("replicate", layout, "--shots", 20_000, "--out", out) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        summary = read_json_doc(out / "summary.json")
        assert any(isinstance(value, list) for value in summary.values())
        for line in lines:
            if line.startswith("wrote "):
                continue
            key, sep, value = line.partition(" = ")
            assert sep and "[" not in line, line
            assert value == str(summary[key])

    @pytest.mark.parametrize("layout", ["A", "B", "C", "D"])
    def test_constrained_summary_names_no_missing_number(self, tmp_path, capsys, layout):
        # the constrained estimate has no error bars, so no summary key stands for them
        out = tmp_path / "out"
        assert run_cli("replicate", layout, "--shots", 20_000, "--constrained", "--out", out) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert not [line for line in lines if line.endswith("None")]
        summary = read_json_doc(out / "summary.json")
        assert None not in summary.values()
        if layout == "B":
            assert "idler_mean" in summary and "idler_sigma" not in summary

    def test_swapped_heralded_layout_reports_the_signal_arm(self, tmp_path):
        config = write_config(tmp_path / "config.json", {
            "setup": "B",
            "shots": 20_000,
            "seed": 7,
            "source": {"kind": "thermal", "mean": 0.5},
            "signal": {"bins": 8, "efficiency": 0.113},
            "idler": {"bins": 1, "efficiency": 0.117},
        })
        out = tmp_path / "out"
        assert run_cli("replicate", "B", "--config", config, "--out", out) == EXIT_OK
        summary = read_json_doc(out / "summary.json")
        assert {"signal_mean", "signal_probabilities", "signal_sigma", "klyshko_signal"} <= set(summary)
        assert not [key for key in summary if "idler" in key]
        recon = read_json_doc(out / "reconstruction.json")
        assert "idler" not in recon
        assert len(recon["signal"]["probabilities"]) == 9
        assert summary["signal_probabilities"] == recon["signal"]["probabilities"]
        alone = tmp_path / "fit"
        write_json_doc(tmp_path / "signal.json", {"distribution": recon["signal"]["probabilities"]})
        assert run_cli("fit", "--in", tmp_path / "signal.json", "--out", alone) == EXIT_OK
        assert (alone / "fit.json").read_bytes() == (out / "fit.json").read_bytes()

    def test_failed_run_writes_no_file(self, tmp_path, capsys):
        # one pair per shot on ideal detectors: both photon numbers are always 1,
        # so the joint metrics fail after every other stage has been built
        config = write_config(tmp_path / "config.json", {
            "setup": "D",
            "shots": 2_000,
            "seed": 7,
            "source": {"kind": "fock", "photons": 1},
            "signal": {"bins": 8, "efficiency": 1.0},
            "idler": {"bins": 8, "efficiency": 1.0},
        })
        out = tmp_path / "out"
        out.mkdir()
        assert run_cli("replicate", "D", "--config", config, "--out", out) == EXIT_NUMERICAL
        assert "correlation undefined" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestStageCommandsMatchReplicate:
    """A stage command writes the same bytes as the same stage inside ``replicate``."""

    @pytest.mark.parametrize("layout, stages, extra", [
        ("C", ("simulate",), ["--shots", 20_000, "--emit-shots"]),
        ("D", ("simulate",), ["--shots", 20_000, "--seed", 7, "--emit-shots"]),
    ])
    def test_same_files(self, tmp_path, layout, stages, extra):
        chained = tmp_path / "replicate"
        assert run_cli("replicate", layout, *extra, "--out", chained) == EXIT_OK
        for stage in stages:
            alone = tmp_path / stage
            assert run_cli(stage, "--setup", layout, *extra, "--out", alone) == EXIT_OK
            names = sorted(p.name for p in alone.iterdir() if p.name != "manifest.json")
            assert "shots.csv" in names
            for name in names:
                assert (alone / name).read_bytes() == (chained / name).read_bytes(), (stage, name)

    def test_fit_of_the_reconstruction(self, tmp_path):
        # the chain fits layout B's heralded 8-bin idler, not its threshold signal arm
        chained = tmp_path / "replicate"
        assert run_cli("replicate", "B", "--shots", 20_000, "--out", chained) == EXIT_OK
        alone = tmp_path / "fit"
        assert run_cli("fit", "--in", chained / "reconstruction.json", "--out", alone) == EXIT_OK
        assert (alone / "fit.json").read_bytes() == (chained / "fit.json").read_bytes()
