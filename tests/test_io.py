"""Config documents, result serialization, and shot files."""

import io
import json
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmdkit import (
    SETUPS,
    ClickStatistics,
    ConfigError,
    DataFormatError,
    DegenerateConditionError,
    DomainError,
    ExperimentConfig,
    JointPhotonDistribution,
    PhotonDistribution,
    SourceModel,
    TMDConfig,
    collective_forward,
    conditional,
    config_from_doc,
    default_config,
    default_n_max,
    ingest_shots,
    iter_shot_chunks,
    klyshko_efficiency,
    loss_matrix,
    moment,
    multimode_pair_dist,
    parse_config,
    poisson_dist,
    propagate_errors,
    read_json_doc,
    run_experiment,
    run_replicate,
    serialize_config,
    thermal_dist,
    write_json_doc,
    write_shots,
)
import tmdkit.io as tmdio
from tmdkit.detector import MAX_BINS, MAX_PHOTONS
from tmdkit.stats import _INT64_MAX, negative_binomial_probs, poisson_probs, thermal_probs
from tmdkit.io import (
    _PARSE_BLOCK_CHARS,
    _SHOT_BLOCK_ROWS,
    _STOCK_LAYOUTS,
    _clicks_text,
    _distribution_text,
    atomic_write_text,
    jsonable,
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
        # a custom source is written as its list, so it may pass MAX_PHOTONS
        SourceModel(PhotonDistribution(np.full(MAX_PHOTONS + 2, 1.0 / (MAX_PHOTONS + 2))), "custom"),
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
        with pytest.raises(ConfigError, match=r"^idler\.efficiency 1\.5 outside"):
            config_from_doc(doc)

    def test_rejects_seed_out_of_range(self):
        doc = self.minimal() | {"seed": 2**64}
        with pytest.raises(ConfigError, match="seed"):
            config_from_doc(doc)

    def test_rejects_bad_sigma(self):
        doc = self.minimal() | {"idler": {"bins": 8, "efficiency_uncertainty": 1.5}}
        with pytest.raises(ConfigError):
            config_from_doc(doc)

    def test_layout_letter_does_not_bound_the_detectors(self, tmp_path):
        # setup A with two 8-bin arms runs the joint chain its detectors call for
        doc = self.minimal() | {"setup": "A", "shots": 2_000, "source": {"kind": "thermal", "mean": 0.5}}
        doc["signal"] = doc["idler"] = {"bins": 8, "efficiency": 0.5}
        output = run_replicate(config_from_doc(doc), tmp_path)
        assert "correlation" in output.primary
        assert {"joint", "raw"} <= set(read_json_doc(tmp_path / "metrics.json"))

    def test_parse_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.json")

    def test_parse_config_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(ConfigError):
            parse_config(path)


_ABSENT = object()  # a case value that deletes the field
_KINDS = "('thermal', 'multimode', 'poisson', 'fock', 'custom')"

# (block, field, value, exact message): block is "config" for the top
# level, "source", or an arm; the case sets that field of a valid layout D
# document to the value.
_CONFIG_MESSAGES = [
    ("config", "setup", "E", "setup must be one of ('A', 'B', 'C', 'D'), got 'E'"),
    ("config", "shots", 0, "shots must be a positive integer"),
    ("config", "shots", True, "shots must be a positive integer"),
    ("config", "shots", 1.5, "shots must be a positive integer"),
    ("config", "seed", -1, "seed must be an unsigned 64-bit integer"),
    ("config", "seed", 2**64, "seed must be an unsigned 64-bit integer"),
    ("config", "seed", "1", "seed must be an unsigned 64-bit integer"),
    ("config", "format_version", 2, "unsupported format_version 2"),
    ("config", "source", [], "source must be an object"),
    ("config", "extra", 1, "unknown field 'extra' in config"),
    ("source", "kind", "laser", f"source.kind must be one of {_KINDS}, got 'laser'"),
    ("source", "kind", ["thermal"], f"source.kind must be one of {_KINDS}, got ['thermal']"),
    ("source", "n_max", -1, "source.n_max must be a non-negative integer"),
    ("source", "n_max", 2.0, "source.n_max must be a non-negative integer"),
    ("source", "n_max", 4097, "source.n_max must be at most 4096"),
    ("source", "mean", -0.5, "source.mean must be a finite non-negative number"),
    ("source", "mean", float("inf"), "source.mean must be a finite non-negative number"),
    ("source", "mean", "0.5", "source.mean must be a finite non-negative number"),
    ("source", "modes", 0, "source.modes must be a positive integer"),
    ("source", "modes", 2.0, "source.modes must be a positive integer"),
    ("source", "gain", 2.0, "unknown field 'gain' in source"),
    ("signal", "bins", 0, "signal.bins must be a positive integer"),
    ("signal", "bins", 33, "signal.bins must be at most 32"),
    ("signal", "bins", 2**63, "signal.bins must be at most 32"),
    ("signal", "n_max", -1, "signal.n_max must be a non-negative integer"),
    ("signal", "n_max", 4097, "signal.n_max must be at most 4096"),
    ("signal", "efficiency", "1", "signal.efficiency must be a number"),
    ("signal", "efficiency", 1.5, "signal.efficiency 1.5 outside [0, 1]"),
    ("signal", "efficiency_uncertainty", 1.0, "signal.efficiency_uncertainty must lie in [0, 1)"),
    ("signal", "bin_probs", "x", "signal: give either bins or bin_probs, not both"),
    ("signal", "dead_time", 1, "unknown field 'dead_time' in signal"),
    ("idler", "bins", True, "idler.bins must be a positive integer"),
    ("idler", "n_max", "8", "idler.n_max must be a non-negative integer"),
    ("idler", "efficiency", None, "idler.efficiency must be a number"),
    ("idler", "efficiency_uncertainty", -0.1, "idler.efficiency_uncertainty must lie in [0, 1)"),
    ("idler", "dead_time", 1, "unknown field 'dead_time' in idler"),
    # the library reads None as a cutoff not given, but a file's null is no integer
    ("source", "n_max", None, "source.n_max must be a non-negative integer"),
    ("signal", "n_max", None, "signal.n_max must be a non-negative integer"),
    ("idler", "n_max", None, "idler.n_max must be a non-negative integer"),
] + [
    (block, field, _ABSENT, f"missing required field {field!r} in {block}")
    for block, fields in (
        ("config", ("setup", "shots", "seed", "source")),
        ("source", ("kind", "mean", "modes")),
    )
    for field in fields
]
# (block, whole block, exact message): other source kinds, detectors given
# by bin_probs, and a block that is not an object
_OTHER_BLOCKS = [
    ("source", {"kind": "fock", "photons": -1}, "source.photons must be a non-negative integer"),
    ("source", {"kind": "fock", "photons": 1.0}, "source.photons must be a non-negative integer"),
    ("source", {"kind": "fock"}, "missing required field 'photons' in source"),
    ("source", {"kind": "custom", "pair_dist": [1, "a"]}, "source.pair_dist must be a list of numbers"),
    ("source", {"kind": "custom", "pair_dist": 1.0}, "source.pair_dist must be a list of numbers"),
    ("source", {"kind": "custom"}, "missing required field 'pair_dist' in source"),
    ("source", {"kind": "custom", "pair_dist": [-0.5, 1.5]},
     "source.pair_dist: pair distribution must be non-negative"),
    ("source", {"kind": "custom", "pair_dist": [0.5, 0.5], "n_max": 9},
     "source.n_max does not apply to a custom source; pair_dist sets its truncation"),
    ("source", {"kind": "fock", "photons": 3, "n_max": 2}, "source.photons 3 exceeds n_max=2"),
    ("source", {"kind": "fock", "photons": 1, "mean": 9}, "unknown field 'mean' in source"),
    ("source", {"kind": "custom", "pair_dist": [0.5, 0.5], "modes": 9}, "unknown field 'modes' in source"),
    ("source", {"kind": "fock", "photons": 4097}, "source.photons must be at most 4096"),
    ("source", {"kind": "thermal", "mean": 300.0}, "source.mean 300.0 implies an n_max above 4096"),
    ("signal", {"bin_probs": [0.5, "a"]}, "signal.bin_probs must be a list of numbers"),
    ("idler", {"bin_probs": {"0": 1.0}}, "idler.bin_probs must be a list of numbers"),
    ("idler", 8, "idler must be an object"),
    ("source", {"kind": "fock", "photons": 1, "n_max": None}, "source.n_max must be a non-negative integer"),
    ("idler", {"bin_probs": [0.5, 0.5], "n_max": None}, "idler.n_max must be a non-negative integer"),
]


def _layout_d_doc():
    return {
        "setup": "D",
        "shots": 100,
        "seed": 1,
        "source": {"kind": "multimode", "modes": 2, "mean": 0.5, "n_max": 20},
        "signal": {"bins": 8, "efficiency": 0.5},
        "idler": {"bins": 8, "efficiency": 0.5},
    }


class TestConfigMessages:
    """Every field rule of the config document, pinned to its exact message."""

    @pytest.mark.parametrize("block, field, value, message", _CONFIG_MESSAGES, ids=[
        f"{block}.{field}={'absent' if value is _ABSENT else repr(value)}"
        for block, field, value, _ in _CONFIG_MESSAGES
    ])
    def test_field_rule(self, block, field, value, message):
        doc = _layout_d_doc()
        target = doc if block == "config" else doc[block]
        if value is _ABSENT:
            del target[field]
        else:
            target[field] = value
        with pytest.raises(ConfigError) as info:
            config_from_doc(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize("block, value, message", _OTHER_BLOCKS, ids=[
        f"{block}={value!r}" for block, value, _ in _OTHER_BLOCKS
    ])
    def test_block_rule(self, block, value, message):
        doc = _layout_d_doc() | {block: value}
        with pytest.raises(ConfigError) as info:
            config_from_doc(doc)
        assert str(info.value) == message

    def test_not_an_object(self):
        with pytest.raises(ConfigError, match=r"^config must be a JSON object$"):
            config_from_doc([])


# Every value each numeric config field is tried with: bools, strings,
# non-integers, values at and past each bound, non-finite and huge numbers.
_FIELD_VALUES = [
    True, False, "0.5", 2.5, -1, 0, 1, 2, 3, 8, 32, 33, 4096, 4097, 2**63 - 1, 2**63, 2**64,
    1e300, [], None, 0.0, 0.5, 1.0, 1.5, -0.5, 0.999, math.inf, math.nan, 2.0, 300.0, 10**400,
]
_BIN_PROBS = [0.25, 0.75]
# (config prefix, block, other fields of the block, field, library build from the field's
# value, the ExperimentConfig field the build stands for); a config error is the prefix
# followed by the library's message.  ExperimentConfig words its messages for the whole
# document, so its fields have no prefix.
_RULE_OWNERS = [
    ("source.", "source", {"kind": "thermal"}, "mean",
     lambda v: SourceModel.single_mode_squeezer(v), "source"),
    ("source.", "source", {"kind": "thermal", "mean": 0.5}, "n_max",
     lambda v: SourceModel.single_mode_squeezer(0.5, v), "source"),
    ("source.", "source", {"kind": "poisson"}, "mean",
     lambda v: SourceModel.poissonian_pairs(v), "source"),
    ("source.", "source", {"kind": "poisson", "mean": 0.5}, "n_max",
     lambda v: SourceModel.poissonian_pairs(0.5, v), "source"),
    ("source.", "source", {"kind": "multimode", "mean": 0.5}, "modes",
     lambda v: SourceModel.multimode_pdc(v, 0.5), "source"),
    ("source.", "source", {"kind": "multimode", "modes": 2}, "mean",
     lambda v: SourceModel.multimode_pdc(2, v), "source"),
    ("source.", "source", {"kind": "multimode", "modes": 2, "mean": 0.5}, "n_max",
     lambda v: SourceModel.multimode_pdc(2, 0.5, v), "source"),
    ("source.", "source", {"kind": "fock"}, "photons",
     lambda v: SourceModel.fock_pairs(v), "source"),
    ("source.", "source", {"kind": "fock", "photons": 1}, "n_max",
     lambda v: SourceModel.fock_pairs(1, v), "source"),
    ("signal.", "signal", {"efficiency": 0.5}, "bins",
     lambda v: TMDConfig.uniform(v, 0.5), "tmd_signal"),
    ("signal.", "signal", {"bins": 4, "efficiency": 0.5}, "n_max",
     lambda v: TMDConfig.uniform(4, 0.5, v), "tmd_signal"),
    ("signal.", "signal", {"bins": 4}, "efficiency",
     lambda v: TMDConfig.uniform(4, v), "tmd_signal"),
    ("idler.", "idler", {"bin_probs": _BIN_PROBS, "efficiency": 0.5}, "n_max",
     lambda v: TMDConfig(np.array(_BIN_PROBS), 0.5, v), "tmd_idler"),
    ("idler.", "idler", {"bin_probs": _BIN_PROBS}, "efficiency",
     lambda v: TMDConfig(np.array(_BIN_PROBS), v, 2), "tmd_idler"),
    ("", "config", {}, "shots",
     lambda v: replace(config_from_doc(_layout_d_doc()), shots=v).shots, "shots"),
    ("", "config", {}, "seed",
     lambda v: replace(config_from_doc(_layout_d_doc()), seed=v).seed, "seed"),
    ("", "signal", {"bins": 8, "efficiency": 0.5}, "efficiency_uncertainty",
     lambda v: replace(config_from_doc(_layout_d_doc()), sigma_eta_signal=v).sigma_eta_signal,
     "sigma_eta_signal"),
    ("", "idler", {"bins": 8, "efficiency": 0.5}, "efficiency_uncertainty",
     lambda v: replace(config_from_doc(_layout_d_doc()), sigma_eta_idler=v).sigma_eta_idler,
     "sigma_eta_idler"),
]


class TestOneOwnerPerRule:
    """A library type owns each numeric config rule: a file and the type agree on every value."""

    @pytest.mark.parametrize("prefix, block, fields, field, build, part", _RULE_OWNERS, ids=[
        f"{block}.{field}({fields.get('kind', 'bin_probs' if 'bin_probs' in fields else 'bins')})"
        for _, block, fields, field, _, _ in _RULE_OWNERS
    ])
    def test_file_and_library_agree(self, prefix, block, fields, field, build, part):
        for value in _FIELD_VALUES:
            doc = _layout_d_doc()
            if block == "config":
                doc[field] = value
            else:
                doc[block] = {**fields, field: value}
            if field == "n_max" and value is None:
                # the library reads None as a cutoff not given; a file's null is no integer
                with pytest.raises(ConfigError) as info:
                    config_from_doc(doc)
                assert str(info.value) == f"{prefix}n_max must be a non-negative integer"
                continue
            try:
                built = build(value)
            except DomainError as exc:
                with pytest.raises(ConfigError) as info:
                    config_from_doc(doc)
                assert str(info.value) == prefix + str(exc), value
                continue
            assert getattr(config_from_doc(doc), part) == built, value


def _clicks_totalling(total):
    """One-cell click counts summing to ``total`` when it is a shot count; ``total_shots=total``."""
    fits = isinstance(total, int) and not isinstance(total, bool) and 0 < total <= _INT64_MAX
    return ClickStatistics(np.array([total if fits else 1]), total)


_EXACT_CLICKS = PhotonDistribution([0.5, 0.3, 0.2])
_TWO_BINS = TMDConfig.uniform(2, 0.5)
_JOINT = JointPhotonDistribution(np.full((3, 3), 1.0 / 9.0))
_D_CONFIG = default_config("D")
# (owner build, its name and upper bound, then per entry point: the call, its name and
# upper bound, and any value it takes its own way, with its message or None when it
# accepts).  The owner is the config type that owns the rule; a count's upper bound is
# each function's own.
_SHARED_RULES = [
    (lambda v: TMDConfig.uniform(4, v), "efficiency", None, [
        (lambda v: loss_matrix(v, 3), "efficiency", None, {}),
        (lambda v: collective_forward(_TWO_BINS, _JOINT, v, 0.5), "efficiency", None, {}),
        (lambda v: collective_forward(_TWO_BINS, _JOINT, 0.5, v), "efficiency", None, {}),
    ]),
    (lambda v: replace(_D_CONFIG, sigma_eta_signal=v), "signal.efficiency_uncertainty", None, [
        (lambda v: propagate_errors(_TWO_BINS, _EXACT_CLICKS, v), "sigma_eta", None, {}),
    ]),
    # a given cutoff, so only the mean rule applies
    (lambda v: SourceModel.poissonian_pairs(v, 8), "mean", None, [
        (lambda v: thermal_probs(v, 8), "mean", None, {}),
        (lambda v: poisson_probs(v, 8), "mean", None, {}),
        (lambda v: negative_binomial_probs(v, 8, 2), "mean", None, {}),
        (lambda v: thermal_dist(v, 8), "mean", None, {}),
        (lambda v: poisson_dist(v, 8), "mean", None, {}),
        (lambda v: multimode_pair_dist(2, v, 8), "mean", None, {}),
        (default_n_max, "mean", None,
         {1e300: "mean 1e+300 implies no finite photon-number cutoff"}),
        (lambda v: klyshko_efficiency(v, sys.float_info.max), "coincidences", None, {}),
        # no singles at all is a degenerate ratio, not a bad number
        (lambda v: klyshko_efficiency(0, v), "singles", None, {}),
    ]),
    (lambda v: replace(_D_CONFIG, shots=v), "shots", _INT64_MAX, [
        (_clicks_totalling, "total_shots", _INT64_MAX, {}),
        # None is shots not given: the infinite-data limit
        (lambda v: propagate_errors(_TWO_BINS, _EXACT_CLICKS, 0.0, shots=v), "shots", _INT64_MAX,
         {None: None}),
        (lambda v: next(iter_shot_chunks(v)), "shots", _INT64_MAX, {}),
    ]),
    (lambda v: SourceModel.fock_pairs(v), "photons", MAX_PHOTONS, [
        (lambda v: moment(PhotonDistribution([1.0]), v), "order", _INT64_MAX, {}),
        (lambda v: conditional(_JOINT, "signal", v), "herald_value", 2, {}),
        (lambda v: conditional(_JOINT, "idler", v), "herald_value", 2, {}),
    ]),
]


def _refusal(build, value):
    """The DomainError message of ``build(value)``, or None when the value passes its rules."""
    try:
        build(value)
    except DomainError as exc:
        return str(exc)
    except DegenerateConditionError:
        pass
    return None


class TestEntryPointsShareTheRules:
    """Public functions take efficiencies, uncertainties, means and counts as the config types do."""

    @pytest.mark.parametrize("owner, name, most, entries", _SHARED_RULES, ids=[
        row[1] for row in _SHARED_RULES
    ])
    def test_same_values_same_words(self, owner, name, most, entries):
        bound = f"{name} must be at most {most}"
        for value in _FIELD_VALUES:
            refused = _refusal(owner, value)
            for entry, entry_name, entry_most, own in entries:
                special = [message for key, message in own.items() if key is value or key == value]
                if special:
                    expected = special[0]
                elif refused is not None and refused != bound:
                    # refused by the rule: the same words, the entry's name for the owner's
                    expected = entry_name + refused.removeprefix(name)
                elif entry_most is not None and value > entry_most:
                    expected = f"{entry_name} must be at most {entry_most}"
                else:
                    expected = None
                assert _refusal(entry, value) == expected, (entry_name, value)


class TestStockLayouts:
    def test_one_row_per_setup(self):
        assert tuple(_STOCK_LAYOUTS) == SETUPS

    @pytest.mark.parametrize("setup, bins", [("A", (1, 1)), ("B", (1, 8)), ("C", (8, 8)), ("D", (8, 8))])
    def test_omitted_detectors_get_stock_bins(self, setup, bins):
        doc = {"setup": setup, "shots": 100, "seed": 1, "source": {"kind": "fock", "photons": 1}}
        config = config_from_doc(doc)
        assert (config.tmd_signal, config.tmd_idler) == tuple(TMDConfig.uniform(b) for b in bins)
        assert (config.sigma_eta_signal, config.sigma_eta_idler) == (0.0, 0.0)


def _probabilities(size):
    """Lists of ``size`` positive numbers that sum to one."""
    weights = st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size)
    return weights.map(lambda w: [x / sum(w) for x in w])


@st.composite
def _config_docs(draw):
    """Config documents of every source kind and detector form, with values at their bounds too."""
    kind = draw(st.sampled_from(["thermal", "multimode", "poisson", "fock", "custom"]))
    source = {"kind": kind}
    if kind == "custom":
        source["pair_dist"] = draw(st.integers(1, 8).flatmap(_probabilities))
    else:
        if kind == "fock":
            source["photons"] = draw(st.integers(0, MAX_PHOTONS))
        else:
            # past about 255 a mean implies a cutoff above MAX_PHOTONS
            source["mean"] = draw(st.floats(0.0, 260.0))
        if kind == "multimode":
            source["modes"] = draw(st.integers(1, 2**63 - 1))
        if draw(st.booleans()):
            source["n_max"] = draw(st.integers(0, MAX_PHOTONS))
    doc = {
        "setup": draw(st.sampled_from(SETUPS)),
        "source": source,
        "shots": draw(st.integers(1, 2**63 - 1)),
        "seed": draw(st.integers(0, 2**64 - 1)),
    }
    for arm in ("signal", "idler"):
        block = draw(st.fixed_dictionaries({}, optional={
            "efficiency": st.floats(0.0, 1.0),
            "efficiency_uncertainty": st.floats(0.0, 0.99),
            "n_max": st.integers(0, MAX_PHOTONS),
        }))
        form = draw(st.sampled_from(["stock", "bins", "bin_probs"]))
        if form == "bins":
            block["bins"] = draw(st.integers(1, MAX_BINS))
        elif form == "bin_probs":
            block["bin_probs"] = draw(st.integers(1, MAX_BINS).flatmap(_probabilities))
        if block or draw(st.booleans()):
            doc[arm] = block
    if doc["setup"] == "C" and draw(st.booleans()):
        # merged arms share one detector; only their efficiencies may differ
        doc["idler"] = {**doc.get("signal", {}), "efficiency": draw(st.floats(0.0, 1.0))}
    return doc


def _reread(config):
    """``config`` written as its config.json text and parsed back."""
    return config_from_doc(json.loads(tmdio._json_text(serialize_config(config))))


_RUN_MESSAGES = {
    "shots must be a positive integer",
    "shots must be at most 9223372036854775807",
    "seed must be an unsigned 64-bit integer",
}
_RUN_VALUES = st.integers(-1, 2**65) | st.sampled_from(
    [True, False, -1, 0, 1.5, "1", None, 2**63 - 1, 2**63, 2**64 - 1, 2**64]
)


class TestConfigRoundtripProperties:
    """A config the library or a file accepts is written as a config.json that reads back equal."""

    @given(doc=_config_docs())
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_accepted_document_reads_back(self, doc):
        try:
            config = config_from_doc(doc)
        except ConfigError:
            return
        assert _reread(config) == config

    @given(setup=st.sampled_from(SETUPS), shots=_RUN_VALUES, seed=_RUN_VALUES)
    @example(setup="A", shots=True, seed=1)
    @example(setup="B", shots=2**63, seed=1)
    @example(setup="C", shots=1, seed=2**64)
    @example(setup="D", shots=1, seed=-1)
    @example(setup="D", shots=1, seed=True)
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_replaced_run_parameters_read_back(self, setup, shots, seed):
        stock = default_config(setup)
        try:
            config = replace(stock, shots=shots, seed=seed)
        except DomainError as exc:
            assert str(exc) in _RUN_MESSAGES
            # a config file with the same values is refused in the same words
            with pytest.raises(ConfigError) as info:
                config_from_doc(serialize_config(stock) | {"shots": shots, "seed": seed})
            assert str(info.value) == str(exc)
            return
        assert _reread(config) == config


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

    @pytest.mark.parametrize("arm", ["signal", "idler"])
    @pytest.mark.parametrize("masks", [np.array([1.5, 3.0]), np.array([True, False])])
    def test_write_rejects_masks_that_are_not_integers(self, tmp_path, arm, masks):
        path = tmp_path / "shots.csv"
        with pytest.raises(DomainError, match=f"^{arm}_masks must be an integer array, got dtype {masks.dtype}$"):
            write_shots(path, **{f"{arm}_masks": masks})
        assert not path.exists()

    def test_write_rejects_length_mismatch(self, tmp_path):
        with pytest.raises(DomainError):
            write_shots(tmp_path / "x.csv", np.array([1, 2]), np.array([1]))

    def test_ingest_requires_declared_bins(self, tmp_path):
        path = tmp_path / "shots.csv"
        write_shots(path, signal_masks=np.array([1, 0]))
        with pytest.raises(DataFormatError):
            ingest_shots(path)
        # a declared bin count must fit a click mask
        for bins, message in ((-1, "a positive integer"), (0, "a positive integer"),
                              (33, "at most 32"), (40, "at most 32")):
            with pytest.raises(DomainError, match=f"^signal_bins must be {message}$"):
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


def reference_ingest(path, signal_bins=None, idler_bins=None):
    """Line-by-line reading of a shot file, the outcome ``ingest_shots`` must give.

    Returns ``("ok", counts, total)`` or ``("error", message)``.  Headers
    are assumed valid; every data line is cut, split and converted with
    plain ``str`` and ``int`` operations.  A field is ASCII ``-?[0-9]+``
    with the whitespace around it that both ``str.strip`` and ``int`` remove.
    """
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        return "error", f"cannot read shots {path}: {exc}"
    fields = lines[0].strip().split(",")
    rows, numbers = [], []
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(fields):
            return "error", f"{path} line {number}: expected {len(fields)} fields"
        try:
            values = [int(part) for part in parts]
        except ValueError:
            return "error", f"{path} line {number}: non-integer field"
        if not all(_is_decimal(part.strip()) for part in parts):
            return "error", f"{path} line {number}: non-integer field"
        if not all(-(2**63) <= value < 2**63 for value in values):
            return "error", f"{path} line {number}: field outside the int64 range"
        rows.append(values)
        numbers.append(number)
    if not rows:
        return "error", f"{path}: no shots"
    table = np.array(rows, dtype=np.int64)
    columns, shape = [], []
    for name, bins in (("signal_mask", signal_bins), ("idler_mask", idler_bins)):
        if name not in fields:
            continue
        column = table[:, fields.index(name)]
        for row, mask in enumerate(column.tolist()):
            if not 0 <= mask < 2**bins:
                return "error", f"{path} line {numbers[row]}: mask {mask} does not fit {bins} bins"
        columns.append(np.array([bin(mask).count("1") for mask in column.tolist()]))
        shape.append(bins + 1)
    counts = np.zeros(shape, dtype=np.int64)
    np.add.at(counts, tuple(columns), 1)
    return "ok", counts.tolist(), len(rows)


def _is_decimal(text):
    digits = text[1:] if text.startswith("-") else text
    return digits.isascii() and digits.isdigit()


def _long_file(rows=200_000, bad_row=None, bad_text=b""):
    """A one-arm shot file of ``rows`` rows, row ``bad_row`` replaced by ``bad_text``."""
    lines = [f"{i},{i % 16}".encode() for i in range(rows)]
    if bad_row is not None:
        lines[bad_row] = bad_text
    return b"shot_id,signal_mask\n" + b"\n".join(lines) + b"\n"


ONE = b"shot_id,signal_mask\n"
SHOT_CASES = {
    # name: (file bytes, declared bins, what the line-by-line reading gives)
    "whitespace-only lines": (ONE + b"0,1\n   \n\t\n1,2\n", {"signal_bins": 4}, "ok"),
    "crlf": (b"shot_id,signal_mask,idler_mask\r\n0,1,2\r\n1,3,0\r\n", {"signal_bins": 4, "idler_bins": 2}, "ok"),
    "plus sign": (ONE + b"0,+3\n", {"signal_bins": 4}, "line 2: non-integer"),
    "padded field": (ONE + b"0, 3 \n", {"signal_bins": 4}, "ok"),
    "underscore": (ONE + b"0,1_0\n", {"signal_bins": 4}, "line 2: non-integer"),
    "hash in field": (ONE + b"0,1\n1,1#2\n", {"signal_bins": 4}, "line 3: non-integer"),
    "trailing comma": (ONE + b"0,1,\n", {"signal_bins": 4}, "line 2: expected 2"),
    "too few fields": (ONE + b"0,1\n1\n", {"signal_bins": 4}, "line 3: expected 2"),
    "too many fields": (ONE + b"0,1,2\n", {"signal_bins": 4}, "line 2: expected 2"),
    "decimal point": (ONE + b"0,1.5\n", {"signal_bins": 4}, "line 2: non-integer"),
    "23 digits": (ONE + b"0," + b"9" * 23 + b"\n", {"signal_bins": 4}, "line 2: field outside"),
    "header only": (ONE, {"signal_bins": 4}, "no shots"),
    "blank lines before a bad mask": (ONE + b"0,1\n\n\n1,16\n", {"signal_bins": 4}, "line 5: mask 16"),
    # str.splitlines ends a line at a form feed or "\x1c" as well as at a newline
    "form feed ends a line": (ONE + b"0,1\x0c\n1,16\n", {"signal_bins": 4}, "line 4: mask 16"),
    "file separator inside a row": (ONE + b"0\x1c,1\n", {"signal_bins": 4}, "line 2: expected 2"),
    "unit separator": (ONE + b"0,\x1f1\n", {"signal_bins": 4}, "line 2: non-integer"),
    "non-ASCII letter": (ONE + "0,Ǿ1\n".encode(), {"signal_bins": 4}, "line 2: non-integer"),
    "non-ASCII digit": (ONE + "0,١\n".encode(), {"signal_bins": 4}, "line 2: non-integer"),
    "long file": (_long_file(), {"signal_bins": 4}, "ok"),
    "bad row deep in a long file": (
        _long_file(bad_row=150_000, bad_text=b"150000,x"), {"signal_bins": 4}, "line 150002: non-integer"
    ),
    "bad mask deep in a long file": (
        _long_file(bad_row=150_000, bad_text=b"\n150000,99"), {"signal_bins": 4}, "line 150003: mask 99"
    ),
    "non-UTF-8 byte deep in a long file": (
        _long_file(bad_row=150_000, bad_text=b"150000,\xff"), {"signal_bins": 4}, "cannot read shots"
    ),
    # a whole-file read meets the byte before any line is parsed
    "non-UTF-8 byte after a bad row": (
        _long_file(bad_row=150_000, bad_text=b"150000,\xff").replace(b"\n100,4\n", b"\n100,x\n"),
        {"signal_bins": 4},
        "cannot read shots",
    ),
}


class TestIngestAgainstLineReading:
    @pytest.mark.parametrize("name", list(SHOT_CASES))
    def test_same_outcome(self, tmp_path, name):
        data, bins, expected = SHOT_CASES[name]
        path = tmp_path / "shots.csv"
        path.write_bytes(data)
        reference = reference_ingest(path, **bins)
        try:
            stats = ingest_shots(path, **bins)
            outcome = ("ok", stats.counts.tolist(), stats.total_shots)
        except DataFormatError as exc:
            outcome = ("error", str(exc))
        assert outcome == reference
        assert outcome[0] == "ok" if expected == "ok" else expected in outcome[1]


def _ingest_outcome(path, **bins):
    try:
        stats = ingest_shots(path, **bins)
    except DataFormatError as exc:
        return "error", str(exc)
    return "ok", stats.counts.tolist(), stats.total_shots


def _two_arm_lines(rows):
    return [f"{i},{i % 16},{i % 4}".encode() for i in range(rows)]


TWO = b"shot_id,signal_mask,idler_mask\n"


class TestIngestBlocks:
    """A shot file is parsed one block at a time, with the line loop's outcome."""

    def test_well_formed_file_never_reaches_the_line_loop(self, tmp_path, monkeypatch):
        path = tmp_path / "shots.csv"
        path.write_bytes(TWO + b"\n".join(_two_arm_lines(50_000)) + b"\n")
        assert path.stat().st_size > 4 * _PARSE_BLOCK_CHARS
        expected = reference_ingest(path, signal_bins=4, idler_bins=2)

        def line_loop(*args):
            raise AssertionError("fell back to the line loop")

        monkeypatch.setattr(tmdio, "_parse_shot_lines", line_loop)
        assert _ingest_outcome(path, signal_bins=4, idler_bins=2) == expected

    def test_parse_error_in_a_later_block_wins_over_an_earlier_bad_mask(self, tmp_path):
        lines = _two_arm_lines(50_000)
        lines[3] = b"3,99,0"
        lines[40_000] = b"40000,x,0"
        path = tmp_path / "shots.csv"
        path.write_bytes(TWO + b"\n".join(lines) + b"\n")
        outcome = _ingest_outcome(path, signal_bins=4, idler_bins=2)
        assert outcome == reference_ingest(path, signal_bins=4, idler_bins=2)
        assert outcome[1].endswith("line 40002: non-integer field")

    def test_bad_mask_past_the_first_block_names_its_line(self, tmp_path):
        lines = _two_arm_lines(50_000)
        # the idler misfit comes first in the file, but the signal arm is reported
        lines[20_000] = b"20000,1,9"
        lines[45_000] = b"\n\n45000,16,0"
        path = tmp_path / "shots.csv"
        path.write_bytes(TWO + b"\n".join(lines) + b"\n")
        outcome = _ingest_outcome(path, signal_bins=4, idler_bins=2)
        assert outcome == reference_ingest(path, signal_bins=4, idler_bins=2)
        assert outcome[1].endswith("line 45004: mask 16 does not fit 4 bins")

    @pytest.mark.parametrize("blank", [b"\n" * 200, b" \n" * 200, b"\n" * (2 * _PARSE_BLOCK_CHARS)])
    def test_blank_lines_across_a_block_edge(self, tmp_path, blank):
        # the blank run starts a little before the first block edge
        lines = _two_arm_lines(20_000)
        ends = len(TWO) + np.cumsum([len(line) + 1 for line in lines])
        cut = int(np.searchsorted(ends, _PARSE_BLOCK_CHARS - 100)) + 1
        data = TWO + b"\n".join(lines[:cut]) + b"\n" + blank + b"\n".join(lines[cut:]) + b"\n"
        path = tmp_path / "shots.csv"
        path.write_bytes(data)
        outcome = _ingest_outcome(path, signal_bins=4, idler_bins=2)
        assert outcome == reference_ingest(path, signal_bins=4, idler_bins=2)
        assert outcome[0] == "ok" and outcome[2] == 20_000

    def test_written_file_and_its_crlf_copy_never_reach_the_line_loop(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        signal, idler = rng.integers(0, 256, size=(2, 30_000)).astype(np.uint32)
        path = tmp_path / "shots.csv"
        write_shots(path, signal_masks=signal, idler_masks=idler)
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        expected = reference_ingest(path, signal_bins=8, idler_bins=8)

        def line_loop(*args):
            raise AssertionError("fell back to the line loop")

        monkeypatch.setattr(tmdio, "_parse_shot_lines", line_loop)
        assert _ingest_outcome(path, signal_bins=8, idler_bins=8) == expected
        assert _ingest_outcome(crlf, signal_bins=8, idler_bins=8) == expected

    @pytest.mark.parametrize("padded", [b" 3", "\u00a03".encode()], ids=["space", "no-break space"])
    def test_refused_block_falls_back_alone(self, tmp_path, padded):
        # only the block holding the padded field goes to the line loop, so the
        # file is neither read whole nor tabulated whole
        path = tmp_path / "shots.csv"
        path.write_bytes(_long_file(bad_row=150_000, bad_text=b"150000," + padded))
        tracemalloc.start()
        try:
            outcome = _ingest_outcome(path, signal_bins=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome == reference_ingest(path, signal_bins=4)
        assert outcome[0] == "ok"
        assert peak < 4_000_000

    def test_ingest_holds_one_block_at_a_time(self, tmp_path):
        # one whole-file parse of these 200,000 rows peaks above 8 MB
        path = tmp_path / "shots.csv"
        path.write_bytes(TWO + b"\n".join(_two_arm_lines(200_000)) + b"\n")
        tracemalloc.start()
        try:
            ingest_shots(path, signal_bins=4, idler_bins=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class TestWriteShotsBytes:
    """``write_shots`` writes what ``np.savetxt(fmt="%d")`` writes, byte for byte."""

    @pytest.mark.parametrize("length", [0, 1, _SHOT_BLOCK_ROWS, _SHOT_BLOCK_ROWS + 1])
    @pytest.mark.parametrize("dtype", [np.uint32, np.int64])
    @pytest.mark.parametrize("arms", [("signal_mask",), ("idler_mask",), ("signal_mask", "idler_mask")])
    def test_matches_savetxt(self, tmp_path, length, dtype, arms):
        rng = np.random.default_rng(length)
        extremes = [0, 2**32 - 1] + ([-1, 2**62] if dtype is np.int64 else [])
        masks = {}
        for name in arms:
            column = rng.integers(0, 2**32, size=length).astype(dtype)
            column[: len(extremes)] = extremes[:length]
            masks[name] = column
        path = tmp_path / "shots.csv"
        write_shots(path, signal_masks=masks.get("signal_mask"), idler_masks=masks.get("idler_mask"))
        table = np.column_stack(
            [np.arange(length, dtype=np.int64)] + [masks[name].astype(np.int64) for name in arms]
        )
        expected = io.StringIO()
        header = ",".join(("shot_id",) + arms)
        np.savetxt(expected, table, fmt="%d", delimiter=",", header=header, comments="")
        assert path.read_bytes() == expected.getvalue().encode()


    def test_write_holds_one_block_at_a_time(self, tmp_path):
        # the whole 200,000 x 3 int64 table alone would take 4.8 MB
        rng = np.random.default_rng(5)
        signal, idler = rng.integers(0, 256, size=(2, 200_000)).astype(np.uint32)
        tracemalloc.start()
        try:
            write_shots(tmp_path / "shots.csv", signal_masks=signal, idler_masks=idler)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class TestShotFileProperties:
    """Both halves of the shot-file path on drawn inputs (derandomized, so tier-1 stays fixed)."""

    @given(data=st.data())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_write_matches_savetxt(self, tmp_path_factory, data):
        length = data.draw(st.integers(0, 2 * _SHOT_BLOCK_ROWS + 10), label="length")
        arms = data.draw(st.sampled_from([("signal_mask",), ("idler_mask",), ("signal_mask", "idler_mask")]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        masks = {}
        for name in arms:
            dtype = data.draw(st.sampled_from([np.uint32, np.int64]), label="dtype")
            info = np.iinfo(dtype)
            # each value shifted right by a random count, so widths change within a block
            column = rng.integers(info.min, info.max, size=length, dtype=dtype, endpoint=True)
            column >>= rng.integers(0, info.bits, size=length).astype(dtype)
            extremes = [0, 2**32 - 1] + ([-1, 2**62, -(2**63), 2**63 - 1] if dtype is np.int64 else [])
            if length:
                for value in data.draw(st.lists(st.sampled_from(extremes), max_size=6), label="extremes"):
                    column[data.draw(st.integers(0, length - 1))] = value
            if data.draw(st.booleans(), label="zero block"):
                start = _SHOT_BLOCK_ROWS * data.draw(st.integers(0, length // _SHOT_BLOCK_ROWS))
                column[start : start + _SHOT_BLOCK_ROWS] = 0
            masks[name] = column
        path = tmp_path_factory.mktemp("write") / "shots.csv"
        write_shots(path, signal_masks=masks.get("signal_mask"), idler_masks=masks.get("idler_mask"))
        table = np.column_stack(
            [np.arange(length, dtype=np.int64)] + [masks[name].astype(np.int64) for name in arms]
        )
        expected = io.StringIO()
        header = ",".join(("shot_id",) + arms)
        np.savetxt(expected, table, fmt="%d", delimiter=",", header=header, comments="")
        assert path.read_bytes() == expected.getvalue().encode()

    @given(data=st.data())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_ingest_matches_line_reading(self, tmp_path_factory, data):
        two = data.draw(st.booleans(), label="two arms")
        rows = data.draw(st.sampled_from([20_000, 7_000, 5, 0]), label="rows")
        lines = _two_arm_lines(rows) if two else [f"{i},{i % 16}".encode() for i in range(rows)]
        # junk rows: one drawn field among valid ones, of digits only (empty,
        # short, or near the int64 limit) so that the block stays plain, or
        # of any drawn character; among the others also rows of any width
        # and free text
        plain = data.draw(st.booleans(), label="plain junk")
        edges = ["9223372036854775807", "9223372036854775808", "18446744073709551616"]
        field = st.one_of(
            st.text("0123456789", max_size=3),
            st.text("0123456789", min_size=17, max_size=20),
            st.sampled_from(edges if plain else edges + ["-9223372036854775808", "+3", " 7 ", "-0"]),
            st.text("0123456789" if plain else "0123456789\r -+x", max_size=4),
        )
        width = 3 if two else 2
        junk = st.tuples(st.integers(0, width - 1), field).map(
            lambda drawn: ",".join(drawn[1] if i == drawn[0] else "1" for i in range(width))
        )
        if not plain:
            junk = st.one_of(
                junk,
                st.lists(field, min_size=1, max_size=4).map(",".join),
                st.text("0123456789,\n\r -+x", max_size=40),
            )
        junk = junk.map(str.encode)
        for at, text in data.draw(st.lists(st.tuples(st.integers(0, rows), junk), max_size=2), label="junk"):
            lines.insert(at, text)
        eol = data.draw(st.sampled_from([b"\n", b"\r\n"]), label="line end")
        body = eol.join(lines) + data.draw(st.sampled_from([eol, b""])) + data.draw(junk, label="tail")
        path = tmp_path_factory.mktemp("ingest") / "shots.csv"
        path.write_bytes((TWO if two else ONE) + body)
        assert rows < 20_000 or path.stat().st_size > 2 * _PARSE_BLOCK_CHARS
        bins = {"signal_bins": data.draw(st.sampled_from([32, 4, 2]), label="signal bins")}
        if two:
            bins["idler_bins"] = data.draw(st.sampled_from([32, 2]), label="idler bins")
        assert _ingest_outcome(path, **bins) == reference_ingest(path, **bins)


class TestTableFiles:
    def test_distribution_table(self):
        lines = _distribution_text(PhotonDistribution([0.25, 0.75])).splitlines()
        assert lines[0] == "n,probability"
        assert lines[1] == "0,0.25"
        assert float(lines[2].split(",")[1]) == 0.75

    def test_distribution_table_with_sigma(self):
        lines = _distribution_text(PhotonDistribution([0.25, 0.75]), np.array([0.01, 0.02])).splitlines()
        assert lines[0] == "n,probability,sigma"
        assert lines[1].split(",")[2] == "0.01"

    def test_sigma_length_must_match(self):
        with pytest.raises(DomainError):
            _distribution_text(PhotonDistribution([1.0]), np.array([0.1, 0.2]))

    def test_joint_table(self):
        lines = _distribution_text(JointPhotonDistribution([[0.5, 0.0], [0.0, 0.5]])).splitlines()
        assert lines[0] == "signal_n,idler_n,probability"
        assert len(lines) == 5
        with pytest.raises(DomainError):
            _distribution_text(JointPhotonDistribution([[1.0]]), np.array([0.1]))

    def test_clicks_table(self):
        lines = _clicks_text(ClickStatistics(np.array([3, 1]), 4)).splitlines()
        assert lines[0] == "clicks,count,frequency"
        assert lines[1] == "0,3,0.75"

    def test_joint_clicks_table(self):
        lines = _clicks_text(ClickStatistics(np.array([[2, 1], [0, 1]]), 4)).splitlines()
        assert lines[0] == "signal_clicks,idler_clicks,count,frequency"
        assert lines[1] == "0,0,2,0.5"
        # signal rows, idler columns, idler index running fastest
        lines = _clicks_text(ClickStatistics(np.arange(12).reshape(3, 4), 66)).splitlines()
        assert len(lines) == 13
        assert lines[2] == f"0,1,1,{1 / 66!r}"
        assert lines[5] == f"1,0,4,{4 / 66!r}"
        assert lines[12] == f"2,3,11,{11 / 66!r}"

