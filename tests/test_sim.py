import math
import warnings
from pathlib import Path
from typing import NamedTuple, Optional
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from pipefuse import fusvaf
from pipefuse.cli import main
from pipefuse.core import SensorKind, TraceError, check_stream, left_sum, trace_from_pairs
from pipefuse.ekf import NumericFailureError
from pipefuse.fusvaf import (
    DegenerateDenominatorError,
    EkfPredictor,
    FusionColumns,
    FusionParams,
    GateAdaptation,
    ValidationGate,
    fusvaf_stream,
)
from pipefuse.sim import (
    ConfigError,
    MessageKind,
    apply_overrides,
    cluster_stage,
    consensus_stage,
    generate_world,
    load_scenario,
    node_stage,
    run_simulation,
    scenario_from_dict,
)
from pipefuse.sim.config import (
    _BOUNDS,
    MAX_HORIZON,
    ClusterSpec,
    DetectionConfig,
    EnergyConfig,
    EventSpec,
    FusionConfig,
    NodeSpec,
    SignalSpec,
    UavVisit,
)
from pipefuse.sim.detect import Detection, _uav_covers, detect_events, persistent_onsets
from pipefuse.sim.metrics import match_events
from pipefuse.sim.runner import _rmse
from pipefuse.sim.stages import WINDOW, hold_series

RAW, FUSED, CONSENSUS = MessageKind.RAW, MessageKind.FUSED, MessageKind.CONSENSUS
BUNDLED = Path(__file__).resolve().parent.parent / "scenarios" / "baseline_10node.yaml"


def base_config_dict(**overrides):
    data = {
        "seed": 1,
        "horizon": 200,
        "topology": {
            "nodes": [
                {"node_id": "n0", "cluster_id": "c0", "position": 0.0,
                 "sensors": ["pressure"]},
                {"node_id": "n1", "cluster_id": "c0", "position": 20.0,
                 "sensors": ["pressure", "pir"]},
                {"node_id": "n2", "cluster_id": "c1", "position": 100.0,
                 "sensors": ["pressure"]},
                {"node_id": "n3", "cluster_id": "c1", "position": 120.0,
                 "sensors": ["pressure", "magnetic"]},
            ],
            "cluster_heads": [
                {"cluster_id": "c0", "peers": ["c1"]},
                {"cluster_id": "c1", "peers": ["c0"]},
            ],
        },
        "signals": {
            "pressure": {"baseline": 500.0, "drift": 0.0, "noise_std": 0.0},
        },
        "events": [],
    }
    data.update(overrides)
    return data


def make_config(name="test", **overrides):
    return scenario_from_dict(base_config_dict(**overrides), name)


# every section read from a mapping -> where base_config_dict holds one (a
# valid event is added for EventSpec)
SECTION_PATHS = {
    NodeSpec: ("topology", "nodes", 0),
    ClusterSpec: ("topology", "cluster_heads", 0),
    UavVisit: ("topology", "uav", "patrol", 0),
    SignalSpec: ("signals", "pressure"),
    EventSpec: ("events", 0),
    FusionConfig: ("fusion",),
    DetectionConfig: ("detection",),
    EnergyConfig: ("energy",),
}
# a bound -> values just outside it
OUTSIDE = {
    "> 0": [0], ">= 0": [-1], ">= 1": [0], "in [1000, 3000]": [999, 3001],
    "'off' or 'on_detection'": ["on"], "'leak' or 'intrusion'": ["fire"],
}


def section_at(data, path):
    """The mapping at `path` in a scenario dict, made where absent."""
    for key in path:
        if isinstance(data, dict):
            data = data.setdefault(key, {})
        else:
            data = data[key]
    return data


class TestConfigValidation:
    def test_minimal_valid(self):
        config = make_config()
        assert config.horizon == 200
        assert len(config.topology.nodes) == 4

    def test_missing_seed(self):
        data = base_config_dict()
        del data["seed"]
        with pytest.raises(ConfigError, match="seed"):
            scenario_from_dict(data)

    def test_event_outside_horizon_names_field(self):
        data = base_config_dict(
            events=[{"kind": "leak", "start": 190, "end": 250, "location": 0.0,
                     "magnitude": 30.0}]
        )
        with pytest.raises(ConfigError, match=r"events\[0\].end"):
            scenario_from_dict(data)

    def test_unknown_cluster_named(self):
        data = base_config_dict()
        data["topology"]["nodes"][0]["cluster_id"] = "nope"
        with pytest.raises(ConfigError, match="nope"):
            scenario_from_dict(data)

    def test_ops_per_bit_band_enforced(self):
        with pytest.raises(ConfigError, match="ops_per_bit"):
            make_config(energy={"ops_per_bit": 500})
        with pytest.raises(ConfigError, match="ops_per_bit"):
            make_config(energy={"ops_per_bit": 3001})
        make_config(energy={"ops_per_bit": 3000})  # band endpoint is legal

    def test_disconnected_peer_graph(self):
        data = base_config_dict()
        for head in data["topology"]["cluster_heads"]:
            head["peers"] = []
        with pytest.raises(ConfigError, match="connected"):
            scenario_from_dict(data)

    def test_non_string_ids_named(self):
        data = base_config_dict()
        data["topology"]["nodes"][0]["node_id"] = 0
        data["topology"]["cluster_heads"][0]["peers"] = [1]
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict(data)
        text = "; ".join(exc.value.errors)
        assert "topology.nodes[0].node_id: expected a string" in text
        assert "topology.cluster_heads[0].peers: expected a list of strings" in text

    def test_integer_for_real_field_becomes_float(self):
        data = base_config_dict()
        data["topology"]["nodes"][0]["position"] = 3
        config = scenario_from_dict(data)
        assert type(config.topology.nodes[0].position) is float

    def test_unknown_key_reported(self):
        with pytest.raises(ConfigError, match="unknown key"):
            make_config(fusion={"node_ekf": True, "typo_key": 1})

    def test_intrusion_requires_binary_sensor(self):
        data = base_config_dict(
            events=[{"kind": "intrusion", "start": 10, "end": 20, "location": 0.0}]
        )
        for node in data["topology"]["nodes"]:
            node["sensors"] = ["pressure"]
        with pytest.raises(ConfigError, match="pir/magnetic"):
            scenario_from_dict(data)

    def test_invalid_horizon_reported_once(self):
        # the events fit any valid horizon; they are not checked against a bad one
        data = base_config_dict(
            horizon=-3,
            events=[{"kind": "leak", "start": 100, "end": 110, "location": 0.0,
                     "magnitude": 30.0}],
        )
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict(data)
        assert exc.value.errors == ["horizon: expected a positive integer, got -3"]

    def test_horizon_capped(self):
        assert make_config(horizon=MAX_HORIZON).horizon == MAX_HORIZON
        for horizon in (MAX_HORIZON + 10, 2**62, 10**400):
            with pytest.raises(ConfigError) as exc:
                make_config(horizon=horizon)
            assert exc.value.errors == [
                f"horizon: {horizon} ticks exceeds the maximum of {MAX_HORIZON:,}"
            ]

    def test_integers_for_optional_real_fields_become_floats(self):
        config = make_config(fusion={"gate_w_min": 2})
        assert type(config.fusion.gate_w_min) is float
        assert config.fusion.gate_w_min == 2.0
        assert make_config().fusion.gate_w_min is None

    def test_explicit_gate_w_min_is_every_kinds_floor(self):
        # the noise implies a floor of 121.0; an explicit gate_w_min overrides it
        config = make_config(signals={"pressure": {"baseline": 500.0, "noise_std": 30.0}},
                             fusion={"gate_w_min": 2.5})
        assert {config.gate_floor(kind) for kind in SensorKind} == {2.5}

    def test_invalid_signal_spec_not_also_missing(self):
        # YAML 1.1 reads `1e308` as a string
        data = base_config_dict(
            signals={"pressure": {"baseline": 500.0, "noise_std": "1e308"}}
        )
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict(data)
        assert exc.value.errors == [
            "signals.pressure.noise_std: expected a finite number, got '1e308'"
        ]

    @pytest.mark.parametrize("start", [-1, "abc"])
    def test_event_after_an_invalid_one_keeps_its_index(self, start):
        data = base_config_dict(events=[
            {"kind": "leak", "start": start, "end": 20, "location": 0.0, "magnitude": 30.0},
            {"kind": "intrusion", "start": 30, "end": 40, "location": 0.0},
        ])
        for node in data["topology"]["nodes"]:
            node["sensors"] = ["pressure"]
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict(data)
        assert exc.value.errors == [{
            -1: "events[0].start: must be >= 0, got -1",
            "abc": "events[0].start: expected an integer, got 'abc'",
        }[start]]
        # the cross-section checks run once every field passes
        data["events"][0]["start"] = 10
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict(data)
        assert exc.value.errors == [
            "events[1]: intrusion needs a node with pir/magnetic sensors"
        ]

    @pytest.mark.parametrize("position, error", [
        (-1, "must be >= 0, got -1.0"),
        ("abc", "expected a finite number, got 'abc'"),
    ])
    def test_dropped_nodes_keep_their_sensors_for_the_cross_checks(self, position, error):
        # n3, n4, n8 and n9 carry the bundled scenario's only pir/magnetic sensors
        data = yaml.safe_load(BUNDLED.read_text(encoding="utf-8"))
        nodes = data["topology"]["nodes"]
        dropped = [i for i, n in enumerate(nodes) if n["node_id"] in ("n3", "n4", "n8", "n9")]
        for i in dropped:
            nodes[i]["position"] = position
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict(data)
        assert exc.value.errors == [
            f"topology.nodes[{i}].position: {error}" for i in dropped
        ]

    def test_dropped_members_do_not_empty_their_cluster(self):
        # n5-n9 are all of c1's members; each is dropped for its position
        data = yaml.safe_load(BUNDLED.read_text(encoding="utf-8"))
        nodes = data["topology"]["nodes"]
        for node in nodes[5:]:
            node["position"] = -1
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict(data)
        assert exc.value.errors == [
            f"topology.nodes[{i}].position: must be >= 0, got -1.0" for i in range(5, 10)
        ]

    @pytest.mark.parametrize("edit, error", [
        (lambda t: t["nodes"][1].update(node_id="n0"),
         "topology.nodes: id 'n0' is already used in topology.nodes"),
        (lambda t: t["cluster_heads"].append({"cluster_id": "c0", "peers": ["c1"]}),
         "topology.cluster_heads: id 'c0' is already used in topology.cluster_heads"),
        (lambda t: t.update(gateway_id="n2"),
         "topology.gateway_id: id 'n2' is already used in topology.nodes"),
        (lambda t: t.update(gateway_id="c1"),
         "topology.gateway_id: id 'c1' is already used in topology.cluster_heads"),
        (lambda t: t.update(gateway_id=[1]), "topology.gateway_id: expected a string, got [1]"),
        (lambda t: t["nodes"][1].update(sensors=["pir", "pressure", "pir"]),
         "topology.nodes[1].sensors: pir listed twice"),
    ])
    def test_topology_id_and_sensor_defects_named(self, edit, error):
        data = base_config_dict()
        edit(data["topology"])
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict(data)
        assert exc.value.errors == [error]

    def test_unknown_event_kind_named(self):
        data = base_config_dict(events=[{"kind": "fire", "start": 10, "end": 20, "location": 0.0}])
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict(data)
        assert exc.value.errors == ["events[0].kind: must be 'leak' or 'intrusion', got 'fire'"]

    def test_absent_signal_spec_required(self):
        with pytest.raises(ConfigError, match=r"signals.pressure: required"):
            make_config(signals={})

    def test_gate_floor_above_w_max_rejected(self):
        # the derived floor 4 * noise_std + report_delta exceeds gate_w_max
        noisy = {"signals": {"pressure": {"baseline": 500.0, "noise_std": 30.0}}}
        with pytest.raises(ConfigError) as exc:
            make_config(**noisy)
        assert exc.value.errors == [
            "signals.pressure.noise_std: implies a gate floor of 121.0, "
            "above fusion.gate_w_max 100.0"
        ]
        make_config(fusion={"cluster_fusvaf": False}, **noisy)  # no gate in relay mode
        with pytest.raises(ConfigError, match="fusion.gate_w_min: must not exceed gate_w_max"):
            make_config(fusion={"gate_w_min": 200.0})

    def test_gate_floor_set_by_the_deadband_names_report_delta(self):
        # noise_std 0: the node filter's deadband alone sets the floor
        with pytest.raises(ConfigError) as exc:
            make_config(fusion={"report_delta": 150.0})
        assert exc.value.errors == [
            "fusion.report_delta: implies a pressure gate floor of 150.0, "
            "above fusion.gate_w_max 100.0"
        ]

    def test_gate_floor_reported_with_other_errors(self):
        # a field error first; the floor with the other cross-section errors
        # once every field passes
        noisy = {"horizon": 205, "fusion": {"report_delta": 150.0}}
        with pytest.raises(ConfigError) as exc:
            make_config(energy={"ops_per_bit": 500}, **noisy)
        assert exc.value.errors == ["energy.ops_per_bit: must be in [1000, 3000], got 500"]
        with pytest.raises(ConfigError) as exc:
            make_config(energy={"ops_per_bit": 1000}, **noisy)
        assert exc.value.errors == [
            "detection.window: 10 must divide the horizon 205, "
            "so that every tick falls in a reporting window",
            "fusion.report_delta: implies a pressure gate floor of 150.0, "
            "above fusion.gate_w_max 100.0",
        ]
        # a failed fusion section or signal spec brings no floor error after it
        for data, error in [
            ({"fusion": {"report_delta": 150.0, "ekf_q": 0}}, "fusion.ekf_q: must be > 0, got 0.0"),
            ({"fusion": {"report_delta": 150.0},
              "signals": {"pressure": {"baseline": 500.0, "noise_std": -1}}},
             "signals.pressure.noise_std: must be >= 0, got -1.0"),
        ]:
            with pytest.raises(ConfigError) as exc:
                make_config(**data)
            assert exc.value.errors == [error]

    @pytest.mark.parametrize("path", [
        ("fusion",), ("detection",), ("energy",), ("events",),
        ("topology", "uav"), ("topology", "uav", "patrol"),
    ], ids=".".join)
    def test_null_section_means_its_defaults(self, path):
        # an empty YAML section header reads as null
        data = base_config_dict()
        section_at(data, path[:-1])[path[-1]] = None
        expected = base_config_dict()
        section_at(expected, path[:-1]).pop(path[-1], None)
        assert scenario_from_dict(data) == scenario_from_dict(expected)

    def test_null_signals_mean_none_declared(self):
        with pytest.raises(ConfigError) as exc:
            make_config(signals=None)
        assert exc.value.errors == ["signals.pressure: required (kind appears in topology)"]

    @pytest.mark.parametrize("path, value, error", [
        (("topology", "uav"), 0, "topology.uav: expected a mapping, got 0"),
        (("topology", "uav"), False, "topology.uav: expected a mapping, got False"),
        (("topology", "uav", "patrol"), 0, "topology.uav.patrol: expected a list, got 0"),
        (("topology", "cluster_heads", 0, "peers"), 0,
         "topology.cluster_heads[0].peers: expected a list, got 0"),
    ], ids=repr)
    def test_falsy_section_of_the_wrong_type_named(self, path, value, error):
        data = base_config_dict()
        section_at(data, path[:-1])[path[-1]] = value
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict(data)
        assert exc.value.errors == [error]

    @pytest.mark.parametrize("override, error", [
        ("fusion=5", "fusion: expected a mapping, got 5"),
        ("signals=5", "signals: expected a mapping, got 5"),
        ("signals.pressure=5", "signals.pressure: expected a mapping, got 5"),
        ("events=5", "events: expected a list, got 5"),
        ("topology=5", "topology: expected a mapping, got 5"),
        ("topology.uav=5", "topology.uav: expected a mapping, got 5"),
        ("topology.uav.patrol=5", "topology.uav.patrol: expected a list, got 5"),
        ("topology.uav.patrol=[5]", "topology.uav.patrol[0]: expected a mapping, got 5"),
    ])
    def test_section_of_the_wrong_type_worded_one_way(self, override, error):
        data = apply_overrides(yaml.safe_load(BUNDLED.read_text(encoding="utf-8")), [override])
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict(data)
        assert exc.value.errors == [error]

    def test_entry_of_the_wrong_type_worded_one_way(self):
        data = base_config_dict()
        data["topology"]["nodes"].append([1])
        data["topology"]["cluster_heads"].append("c9")
        data["events"] = [{"kind": "leak", "start": 10, "end": 20, "location": 0.0,
                           "magnitude": 30.0}, None]
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict(data)
        assert exc.value.errors == [
            "topology.nodes[4]: expected a mapping, got [1]",
            "topology.cluster_heads[2]: expected a mapping, got 'c9'",
            "events[1]: expected a mapping, got None",
        ]
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict([1])
        assert exc.value.errors == ["top level: expected a mapping, got [1]"]

    def test_document_of_the_wrong_type_worded_one_way(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text("[1, 2]\n", encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_scenario(path)
        assert exc.value.errors == [f"{path}: expected a mapping, got [1, 2]"]

    def test_trace_passed_as_the_scenario_reported_briefly(self, tmp_path):
        # YAML reads a CSV as one plain string; the error must not print it whole
        path = tmp_path / "trace.csv"
        path.write_text("timestamp,value\n" + "".join(f"{t},20.5\n" for t in range(10_000)),
                        encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_scenario(path)
        assert exc.value.errors == [f"{path}: expected a mapping, got 'timestamp,va...0.5 9999,20.5'"]

    @pytest.mark.parametrize("edit, error", [
        (lambda t: t["nodes"][0].update(sensors=["pressure", "x" * 3000]),
         "topology.nodes[0].sensors: unknown sensor kind 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
        (lambda t: t["nodes"][0].update(cluster_id="x" * 3000),
         "topology.nodes[n0].cluster_id: unknown cluster 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    ], ids=["kind", "cluster"])
    def test_long_kind_or_cluster_echoed_short(self, edit, error):
        data = base_config_dict()
        edit(data["topology"])
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict(data)
        assert exc.value.errors == [error]

    @pytest.mark.parametrize("heads, errors", [
        # a field error stops the cross-section checks: c1 is no unknown
        # cluster for n5-n9, the UAV patrol entry or c0's peers
        ("[{cluster_id: c0, peers: [c1]}, {cluster_id: c1, peers: [c0, 7]}]",
         ["topology.cluster_heads[1].peers: expected a list of strings, got ('c0', 7)"]),
        # nor is the peer graph of heads with unread peers checked
        ("[{cluster_id: c0, peers: 0}, {cluster_id: c1, peers: 0}]",
         [f"topology.cluster_heads[{i}].peers: expected a list, got 0" for i in (0, 1)]),
    ])
    def test_dropped_heads_keep_their_ids(self, heads, errors):
        data = apply_overrides(yaml.safe_load(BUNDLED.read_text(encoding="utf-8")),
                               [f"topology.cluster_heads={heads}"])
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict(data)
        assert exc.value.errors == errors

    @pytest.mark.parametrize("section", SECTION_PATHS, ids=lambda cls: cls.__name__)
    def test_bound_table_names_fields_and_known_bounds(self, section):
        assert set(section.BOUNDS) <= set(section._fields)
        assert set(section.BOUNDS.values()) <= set(_BOUNDS)

    @pytest.mark.parametrize("section, field, value", [
        pytest.param(section, field, value, id=f"{section.__name__}.{field}={value!r}")
        for section in SECTION_PATHS
        for field, bound in section.BOUNDS.items()
        for value in OUTSIDE[bound]
    ])
    def test_value_outside_bound_named(self, section, field, value):
        data = base_config_dict(events=[
            {"kind": "leak", "start": 10, "end": 20, "location": 0.0, "magnitude": 30.0}
        ])
        path = SECTION_PATHS[section]
        section_at(data, path)[field] = value
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict(data)
        named = [e for e in exc.value.errors if e.startswith(f"{where}.{field}: ")]
        assert len(named) == 1
        assert named[0].startswith(f"{where}.{field}: must be {section.BOUNDS[field]}, got ")

    def test_patrol_errors_name_their_entry(self):
        data = base_config_dict()
        data["topology"]["uav"] = {"patrol": [
            {"start": "x", "end": 5, "cluster_id": "c0"},  # dropped for its start
            {"start": 10, "end": 20, "cluster_id": "c9"},
            {"start": 30, "end": 20, "cluster_id": "c1"},
        ]}
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict(data)
        assert exc.value.errors == [
            "topology.uav.patrol[0].start: expected an integer, got 'x'",
            "topology.uav.patrol[2].end: must be >= start",
        ]
        # the unknown cluster, a cross-section error, once every field passes
        data["topology"]["uav"]["patrol"][0]["start"] = 0
        data["topology"]["uav"]["patrol"][2]["end"] = 40
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict(data)
        assert exc.value.errors == ["topology.uav.patrol[1].cluster_id: unknown cluster 'c9'"]

    def test_errors_collected_not_first_only(self):
        data = base_config_dict(energy={"ops_per_bit": 10}, horizon=-5)
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict(data)
        assert len(exc.value.errors) >= 2


class TestOverrides:
    def test_nested_override_creates_defaulted_section(self):
        data = base_config_dict()
        out = apply_overrides(data, ["energy.ops_per_bit=3000"])
        assert out["energy"]["ops_per_bit"] == 3000
        config = scenario_from_dict(out)
        assert config.energy.ops_per_bit == 3000

    def test_nested_override_fills_a_null_section(self):
        out = apply_overrides(base_config_dict(energy=None), ["energy.ops_per_bit=3000"])
        assert scenario_from_dict(out).energy == EnergyConfig(ops_per_bit=3000)

    def test_unknown_key_rejected_at_validation(self):
        out = apply_overrides(base_config_dict(), ["energy.nope=1"])
        with pytest.raises(ConfigError, match="energy.nope"):
            scenario_from_dict(out)

    def test_yaml_off_means_policy_off(self):
        out = apply_overrides(base_config_dict(), ["fusion.consensus_policy=off"])
        assert scenario_from_dict(out).fusion.consensus_policy == "off"

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(base_config_dict(), ["seed"])

    @pytest.mark.parametrize("raw", ["[1", "{a: 1", "'abc"])
    def test_unparsable_override_value_names_the_override(self, raw):
        item = f"fusion.ekf_q={raw}"
        with pytest.raises(ConfigError) as exc:
            apply_overrides(base_config_dict(), [item])
        (error,) = exc.value.errors
        assert error.startswith(f"override {item!r}: invalid YAML value: ")

    def test_original_untouched(self):
        data = base_config_dict()
        apply_overrides(data, ["seed=99"])
        assert data["seed"] == 1

    @pytest.mark.parametrize("override, errors", [
        ("events=[{kind: leak, start: 30, end: 20, location: 60.0, magnitude: 40.0}]",
         ["events[0].end: must be >= start"]),
        ("events=[{kind: leak, start: 10, end: 20, location: 60.0, magnitude: 0}]",
         ["events[0].magnitude: leak needs a positive magnitude"]),
        ("events=[{kind: leak, start: 10, end: 20, location: 60.0, magnitude: 40.0, radius: 0}]",
         ["events[0].radius: must be positive"]),
        ("signals.pir={baseline: 1.0}", ["signals.pir: binary kinds take no signal spec"]),
        ("topology.nodes=[]", [
            "topology.nodes: at least one node required",
            "topology.cluster_heads[c0]: cluster has no member nodes",
            "topology.cluster_heads[c1]: cluster has no member nodes",
            "events[0]: leak needs a node with a pressure sensor",
            "events[1]: intrusion needs a node with pir/magnetic sensors",
        ]),
        ("topology.cluster_heads=[]", [
            "topology.uav.patrol[0].cluster_id: unknown cluster 'c1'",
            "topology.cluster_heads: at least one cluster head required",
        ] + [f"topology.nodes[n{i}].cluster_id: unknown cluster 'c{i // 5}'" for i in range(10)]),
        ("topology.cluster_heads=[{cluster_id: c0, peers: [c0, c1]}, {cluster_id: c1, peers: [c0]}]",
         ["topology.cluster_heads[c0].peers: self link"]),
        ("topology.nodes=[{node_id: n0, cluster_id: c0, position: 0.0, sensors: [pir]},"
         " {node_id: n1, cluster_id: c1, position: 100.0, sensors: [magnetic]}]",
         ["events[0]: leak needs a node with a pressure sensor"]),
        ("a..b=1", ["override 'a..b': malformed key path"]),
        ("seed.x=1", ["override 'seed.x': seed is not a section"]),
    ])
    def test_override_errors_exit_2_and_are_named(self, tmp_path, capsys, override, errors):
        code = main(["--quiet", "run", "--config", str(BUNDLED), "--override", override,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"pipefuse: error [config-invalid] {e}" for e in errors]
        assert not (tmp_path / "out").exists()


class TestGenerateWorld:
    def test_no_events_zero_noise_yields_baselines(self):
        world = generate_world(make_config())
        for (node_id, kind), values in world.traces.items():
            assert values.shape == (200,)
            if kind == SensorKind.PRESSURE:
                assert all(v == 500.0 for v in values)
            else:
                assert all(v == 0.0 for v in values)

    def test_leak_reaches_full_magnitude_at_peak(self):
        config = make_config(
            events=[{"kind": "leak", "start": 50, "end": 60, "location": 0.0,
                     "magnitude": 50.0, "radius": 10.0}]
        )
        world = generate_world(config)
        pressure = world.truth[("n0", SensorKind.PRESSURE)]
        assert pressure[49] == 500.0
        assert pressure[60] == 450.0
        assert pressure[199] == 450.0  # leak persists after the ramp
        # n1 at 20 m is outside the 10 m radius
        assert world.truth[("n1", SensorKind.PRESSURE)][60] == 500.0

    def test_intrusion_sets_nearest_binary_node(self):
        config = make_config(
            events=[{"kind": "intrusion", "start": 30, "end": 40, "location": 110.0}]
        )
        world = generate_world(config)
        target = world.truth[("n3", SensorKind.MAGNETIC)]
        assert target[29] == 0.0
        assert all(target[t] == 1.0 for t in range(30, 41))
        assert target[41] == 0.0
        assert all(v == 0.0 for v in world.truth[("n1", SensorKind.PIR)])

    def test_same_seed_bit_identical(self):
        config = make_config(
            signals={"pressure": {"baseline": 500.0, "noise_std": 0.7}}
        )
        w1, w2 = generate_world(config), generate_world(config)
        for key in w1.traces:
            assert w1.traces[key].tolist() == w2.traces[key].tolist()

    def test_different_seed_differs(self):
        noisy = {"signals": {"pressure": {"baseline": 500.0, "noise_std": 0.7}}}
        w1 = generate_world(make_config(**noisy))
        w2 = generate_world(make_config(seed=2, **noisy))
        key = ("n0", SensorKind.PRESSURE)
        assert w1.traces[key].tolist() != w2.traces[key].tolist()

    @pytest.mark.parametrize("signal, tick", [
        ({"baseline": 500.0, "drift": 1.0e306}, 180),  # drift * t overflows
        ({"baseline": 1.7e308, "drift": 1.0e306}, 10),
        ({"baseline": 500.0, "noise_std": 1.0e308}, None),  # a noise draw overflows
    ])
    def test_overflowing_stream_names_stream_and_tick(self, signal, tick):
        # relay mode: under FUSVAF such noise implies a gate floor above gate_w_max
        config = make_config(signals={"pressure": signal}, fusion={"cluster_fusvaf": False})
        with pytest.raises(NumericFailureError, match="stream n0:pressure: non-finite") as exc:
            generate_world(config)
        if tick is not None:
            assert str(exc.value).endswith(f"at tick {tick}")


class TestCheckStream:
    """core.check_stream as generate_world calls it: tick i is values[i],
    and a non-finite value is a NumericFailureError."""

    @staticmethod
    def world_check(node_id, kind, values):
        check_stream(node_id, kind, values, range(len(values)), NumericFailureError)

    def test_finite_analog_and_binary_pass(self):
        self.world_check("n0", SensorKind.PRESSURE, np.array([500.0, -1e308, 0.5]))
        self.world_check("n1", SensorKind.PIR, np.array([0.0, 1.0, 1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_non_finite_tick_named(self, bad):
        values = np.array([1.0, 2.0, bad, bad])
        with pytest.raises(NumericFailureError) as exc:
            self.world_check("n0", SensorKind.HUMIDITY, values)
        assert str(exc.value) == f"stream n0:humidity: non-finite value {bad} at tick 2"

    def test_non_finite_binary_is_numeric_failure(self):
        with pytest.raises(NumericFailureError) as exc:
            self.world_check("n1", SensorKind.MAGNETIC, np.array([0.0, np.nan]))
        assert str(exc.value) == "stream n1:magnetic: non-finite value nan at tick 1"

    @pytest.mark.parametrize("bad", [0.5, -1.0, 2.0])
    def test_binary_value_other_than_0_or_1_rejected(self, bad):
        with pytest.raises(TraceError) as exc:
            self.world_check("n1", SensorKind.PIR, np.array([0.0, 1.0, 0.0, bad]))
        assert str(exc.value) == f"stream n1:pir: value {bad} at tick 3 is not 0.0 or 1.0"


def pressure_stage(values, config):
    return node_stage(np.asarray(values, dtype=float), "n0", SensorKind.PRESSURE, config, "c0")


def sent(ledger):
    """All messages in a ledger {(src, dst, kind): (messages, bits)}."""
    return sum(n for n, _ in ledger.values())


class TestNodeStage:
    def test_constant_noiseless_sends_one_message(self):
        result = pressure_stage([500.0] * 100, make_config())
        assert result.messages == {("n0", "c0", RAW): (1, 32)}

    def test_raw_mode_forwards_every_tick(self):
        result = pressure_stage([500.0] * 100, make_config(fusion={"node_ekf": False}))
        assert result.messages == {("n0", "c0", RAW): (100, 3200)}
        assert result.ops == 0

    def test_filter_suppresses_messages_on_noisy_constant(self):
        rng = np.random.default_rng(3)
        noise_std = 0.5
        values = 500.0 + rng.normal(0, noise_std, size=1000)
        smart = pressure_stage(values, make_config(fusion={"report_delta": 3 * noise_std}))
        raw = pressure_stage(values, make_config(fusion={"node_ekf": False}))
        assert sent(smart.messages) == len(smart.reports)
        assert sent(smart.messages) < sent(raw.messages) == 1000

    def test_report_count_monotone_in_delta(self):
        rng = np.random.default_rng(4)
        values = 500.0 + rng.normal(0, 1.0, size=500)
        counts = [
            sent(pressure_stage(values, make_config(fusion={"report_delta": d})).messages)
            for d in (0.0, 0.5, 1.0, 2.0, 4.0)
        ]
        assert counts == sorted(counts, reverse=True)

    @given(kind=st.sampled_from(SensorKind), node_ekf=st.booleans(),
           report_delta=st.floats(0, 1.7e308), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_first_report_is_at_tick_0(self, kind, node_ekf, report_delta, data):
        # the cluster stage's FUSVAF branch rests on this: every held series
        # covers every tick
        value = st.sampled_from([0.0, 1.0]) if kind.is_binary else st.floats(-1e6, 1e6)
        values = np.array(data.draw(st.lists(value, min_size=1, max_size=50)))
        # an explicit gate floor: the derived one grows with report_delta
        config = make_config(fusion={"node_ekf": node_ekf, "report_delta": report_delta,
                                     "gate_w_min": 1.0})
        assert node_stage(values, "n0", kind, config, "c0").reports[0][0] == 0

    def test_binary_stream_reports_transitions(self):
        values = np.array([0.0] * 10 + [1.0] * 5 + [0.0] * 10)
        result = node_stage(values, "n1", SensorKind.PIR, make_config(), "c0")
        assert [(t, v) for t, v in result.reports] == [(0, 0.0), (10, 1.0), (15, 0.0)]
        assert result.messages == {("n1", "c0", RAW): (3, 96)}
        assert result.ops == 0  # no filter on 0/1 channels


class TestHoldSeries:
    def test_zero_order_hold(self):
        assert hold_series([(0, 1.0), (3, 2.0)], 6).tolist() == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]

    def test_repeated_tick_keeps_the_last_value(self):
        assert hold_series([(0, 1.0), (0, 2.0), (2, 3.0)], 4).tolist() == [2.0, 2.0, 3.0, 3.0]

    def test_fusvaf_rejects_a_late_start(self):
        # held series start at tick 0; a member that starts later, or never
        # reports, is refused by name, while relay mode takes any ordered reports
        on_time = [(t, 500.0) for t in range(200)]
        for late in ([(2, 501.0), (4, 502.0)], []):
            reports = {"a": on_time, "b": late}
            with pytest.raises(ValueError) as got:
                cluster_stage("c0", SensorKind.PRESSURE, reports, make_config(), "gw")
            assert str(got.value) == "cluster c0: reports of b do not start at tick 0"
            relay = make_config(fusion={"cluster_fusvaf": False})
            result = cluster_stage("c0", SensorKind.PRESSURE, reports, relay, "gw")
            assert result.windows["count"].sum() == 200 + len(late)


class TestClusterStage:
    def test_single_member_tracks_reports(self):
        config = make_config()
        reports = {"n0": [(t, 500.0 + 0.0 * t) for t in range(0, 200, 1)]}
        result = cluster_stage("c0", SensorKind.PRESSURE, reports, config, "gw")
        fused = result.windows["fused"].tolist()
        assert fused == pytest.approx([500.0] * len(fused), abs=0.01)

    def test_window_aggregates(self):
        config = make_config(detection={"window": 10})
        reports = {"n0": [(0, 1.0), (2, 2.0), (5, 3.0), (9, 4.0)]}
        result = cluster_stage("c0", SensorKind.PRESSURE, reports, config, "gw")
        assert result.windows[["count", "avg", "max", "min"]][0].tolist() == (4, 2.5, 4.0, 1.0)

    def test_stuck_member_flagged_suspected_faulty(self):
        config = make_config(fusion={"node_ekf": False},
                             detection={"window": 10, "fault_persistence": 3})
        good = [(t, 500.0) for t in range(200)]
        stuck = [(t, 560.0) for t in range(200)]
        reports = {"a": list(good), "b": list(good), "c": stuck}
        result = cluster_stage("c0", SensorKind.PRESSURE, reports, config, "gw")
        flagged = [node_id for node_id, _ in result.suspected_faulty]
        assert "c" in flagged
        assert "a" not in flagged and "b" not in flagged

    def test_one_fused_message_per_window(self):
        config = make_config(detection={"window": 10})
        reports = {"n0": [(t, 500.0) for t in range(200)]}
        result = cluster_stage("c0", SensorKind.PRESSURE, reports, config, "gw")
        assert result.messages[("c0", "gw", FUSED)] == (200 // 10, 200 // 10 * 32)

    @given(data=st.data(), window=st.integers(1, 12), n_windows=st.integers(1, 8),
           fuse=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_windows_equal_brute_force_scan(self, data, window, n_windows, fuse):
        # config validation requires the window to divide the horizon
        horizon = window * n_windows
        config = make_config(horizon=horizon, detection={"window": window},
                             fusion={"node_ekf": False, "cluster_fusvaf": fuse})
        # any tick, window edges included; in relay mode members may be
        # silent for whole windows or altogether, under FUSVAF every member
        # reports tick 0, as node_stage does
        tick_sets = st.sets(st.integers(0, horizon - 1), max_size=horizon)
        reports = {
            node_id: [(t, data.draw(st.floats(-1e3, 1e3)))
                      for t in sorted(data.draw(tick_sets) | ({0} if fuse else set()))]
            for node_id in data.draw(st.sets(st.sampled_from("abcd"), min_size=1))
        }
        result = cluster_stage("c0", SensorKind.PRESSURE, reports, config, "gw")
        assert len(result.windows) == horizon // window
        received = summaries = 0
        for w, (count, avg, high, low, _) in enumerate(result.windows.tolist()):
            values = [v for node_id in sorted(reports) for t, v in reports[node_id]
                      if w * window <= t < (w + 1) * window]
            assert count == len(values)
            if values:
                assert (avg, high, low) == (left_sum(values) / len(values),
                                            max(values), min(values))
            else:
                assert all(math.isnan(x) for x in (avg, high, low))
            received += len(values)
            summaries += bool(values)
        energy, bits = config.energy, config.energy.sample_bits
        if fuse:
            sent = {FUSED: (n_windows, n_windows * bits),
                    MessageKind.AGGREGATED: (summaries, summaries * 4 * bits)}
            assert result.ops == (energy.fusvaf_ops_per_value * horizon * len(reports)
                                  + energy.aggregation_ops_per_value * received)
        else:
            sent = {RAW: (received, received * bits)}
            assert result.ops == 0
        assert result.messages == {("c0", "gw", k): v for k, v in sent.items() if v[0]}

    def test_window_average_adds_member_by_member(self):
        # in tick order the 1.0 would be lost against 1e16 and the average be 0.0
        config = make_config(fusion={"cluster_fusvaf": False})
        reports = {"a": [(0, 1e16), (1, -1e16)], "b": [(0, 1.0)]}
        window = cluster_stage("c0", SensorKind.PRESSURE, reports, config, "gw").windows[0]
        assert (window["count"], window["avg"]) == (3, 1.0 / 3)

    def test_reports_outside_the_horizon_rejected(self):
        # relay mode: such a report would be counted as relayed yet fall in no window
        config = make_config(fusion={"cluster_fusvaf": False})
        for tick in (200, -1):
            reports = {"n0": [(0, 1.0), (50, 2.0)], "n1": sorted([(10, 3.0), (tick, 4.0)])}
            with pytest.raises(ValueError) as got:
                cluster_stage("c0", SensorKind.PRESSURE, reports, config, "gw")
            assert str(got.value) == (
                f"cluster c0: report of n1 at tick {tick} is outside ticks 0..199")

    @given(data=st.data(), gate_window=st.integers(1, 12), adaptive=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_fusion_equals_fusvaf_stream_on_held_traces(self, data, gate_window, adaptive):
        # the library path the stage ran before it read the kernel's columns:
        # fusvaf_stream over Traces of the held series, then per-tick dicts
        horizon, window = 60, 10
        config = make_config(
            horizon=horizon, detection={"window": window, "fault_persistence": 2},
            fusion={"node_ekf": False, "gate_window": gate_window,
                    "fusvaf_adaptive_alpha": adaptive},
        )
        value = st.one_of(st.floats(495, 505), st.floats(300, 700))
        # every member reports tick 0, as node_stage does
        reports = {
            node_id: [(t, data.draw(value))
                      for t in sorted(data.draw(st.sets(st.integers(1, horizon - 1))) | {0})]
            for node_id in data.draw(st.sets(st.sampled_from("abcd"), min_size=1))
        }
        member_order = sorted(reports)
        traces = [trace_from_pairs(enumerate(hold_series(reports[node_id], horizon)), node_id,
                                   SensorKind.PRESSURE)
                  for node_id in member_order]
        fusion = config.fusion
        run = lambda: cluster_stage("c0", SensorKind.PRESSURE, reports, config, "gw")
        try:
            points = fusvaf_stream(
                traces, FusionParams(fusion.fusvaf_alpha, fusion.fusvaf_omega),
                predictor=EkfPredictor(fusion.ekf_q, fusion.ekf_r),
                adaptation=GateAdaptation(
                    k_sigma=fusion.gate_k_sigma, w_min=config.gate_floor(SensorKind.PRESSURE),
                    w_max=fusion.gate_w_max, window=fusion.gate_window),
                adaptive_alpha=adaptive,
            )
        except (DegenerateDenominatorError, NumericFailureError) as exc:
            with pytest.raises(type(exc)) as got:
                run()
            assert str(got.value) == f"cluster c0 [pressure]: {exc}"
            return
        result = run()
        columns = result.fusion
        assert columns.tick == [p.tick for p in points]
        assert columns.fused == [p.fused for p in points]
        assert columns.predicted == [p.predicted for p in points]
        assert [ValidationGate.symmetric(pred, hw) for pred, hw in
                zip(columns.predicted, columns.half_width)] == [p.gate for p in points]
        for slot, node_id in enumerate(member_order):
            assert columns.value[slot] == [
                next((r.value for r in p.readings if r.node_id == node_id), None) for p in points]
            assert columns.sigma[slot] == [
                next((r.sigma for r in p.readings if r.node_id == node_id), None) for p in points]
        fused_by_tick = {p.tick: p.fused for p in points}
        sigma_by_tick = {p.tick: {r.node_id: r.sigma for r in p.readings} for p in points}
        zero_streak, flagged = dict.fromkeys(member_order, 0), []
        for w, got in enumerate(result.windows["fused"].tolist()):
            ticks = range(w * window, (w + 1) * window)
            fused = [fused_by_tick[t] for t in ticks if t in fused_by_tick]
            assert repr(got) == repr(nan_for_none(left_sum(fused) / len(fused) if fused else None))
            for node_id in member_order:
                sigmas = [sigma_by_tick[t][node_id] for t in ticks
                          if node_id in sigma_by_tick.get(t, {})]
                if sigmas and all(x == 0.0 for x in sigmas):
                    zero_streak[node_id] += 1
                    # a member is flagged once, at the first window its streak reaches 2
                    if zero_streak[node_id] == 2 and node_id not in dict(flagged):
                        flagged.append((node_id, w))
                elif sigmas:
                    zero_streak[node_id] = 0
        assert result.suspected_faulty == flagged
        readings = sum(len(p.readings) for p in points)
        aggregated = result.windows["count"].sum()
        assert result.ops == (config.energy.fusvaf_ops_per_value * readings
                              + config.energy.aggregation_ops_per_value * aggregated)

    def test_no_members_fuse_nothing(self):
        result = cluster_stage("c0", SensorKind.PRESSURE, {}, make_config(), "gw")
        assert result.fusion is None and result.messages == {}
        assert np.isnan(result.windows["fused"]).all() and not result.windows["count"].any()

    def test_unordered_reports_rejected(self):
        reports = {"n0": [(5, 1.0), (2, 2.0)]}
        with pytest.raises(ValueError, match="tick order"):
            cluster_stage("c0", SensorKind.PRESSURE, reports, make_config(), "gw")

    def test_relay_mode_forwards_reports(self):
        config = make_config(fusion={"node_ekf": False, "cluster_fusvaf": False})
        reports = {"n0": [(t, 500.0) for t in range(50)]}
        result = cluster_stage("c0", SensorKind.PRESSURE, reports, config, "gw")
        assert result.messages == {("c0", "gw", RAW): (50, 1600)}
        assert result.ops == 0


class OracleWindow(NamedTuple):
    """One reporting window as the loop oracles read it; None is "no value"."""

    index: int
    start_tick: int
    end_tick: int
    fused: Optional[float] = None
    count: int = 0
    avg: Optional[float] = None
    max: Optional[float] = None
    min: Optional[float] = None


def nan_for_none(value):
    """An oracle's value as a WINDOW array holds it: nan for None."""
    return math.nan if value is None else value


def window_array(windows):
    """OracleWindows as the WINDOW array cluster_stage returns."""
    return np.array([(s.count, *map(nan_for_none, (s.avg, s.max, s.min, s.fused)))
                     for s in windows], WINDOW)


def loop_windows(cluster_id, member_reports, horizon, window, fuse):
    """The cluster stage's per-report window loop before its array pass:
    (count, avg, max, min) per window, members in sorted order and each in
    tick order, or the ValueError the loop raised."""
    received = [[] for _ in range(horizon // window)]
    for node_id, reports in sorted(member_reports.items()):
        previous = 0
        for tick, value in reports:
            if not previous <= tick < horizon:
                raise ValueError(f"cluster {cluster_id}: " + (
                    f"reports of {node_id} are not in tick order" if 0 <= tick < horizon
                    else f"report of {node_id} at tick {tick} is outside ticks 0..{horizon - 1}"))
            received[tick // window].append(value)
            previous = tick
        if fuse and not (reports and reports[0][0] == 0):
            raise ValueError(f"cluster {cluster_id}: reports of {node_id} do not start at tick 0")
    return [(len(v), left_sum(v) / len(v), max(v), min(v)) if v else (0, None, None, None)
            for v in received]


def loop_rmse(stream, reported, truth):
    """The runner's per-sample RMSE loop before it worked on arrays."""
    total = 0.0
    for value, true in zip(reported, truth):
        error = value - true
        total += error * error
    if not math.isfinite(total):
        raise NumericFailureError(f"stream {stream}: estimation error overflows")
    return math.sqrt(total / len(reported))


# ties of 0.0 and -0.0 (max and min keep the first), 1e16 next to 1.0 (the
# sum depends on the order of addition), and values of every size
ORACLE_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.1, 1e16, -1e16]),
                          st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False))


# errors of 1e8 next to errors of 1 make the sum of squares order-sensitive
RMSE_VALUES = st.sampled_from([0.0, -0.0, 0.1, 1.0, 1e8]) | st.floats(-1e3, 1e3) | st.floats()


class TestArrayPassOracles:
    """The cluster stage's window pass and the runner's RMSE work on arrays;
    the loops above are the code they replaced, compared by repr (which
    tells 0.0 from -0.0)."""

    @given(data=st.data(), window=st.integers(1, 6), n_windows=st.integers(1, 6),
           fuse=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_windows_equal_the_per_report_loop(self, data, window, n_windows, fuse):
        horizon = window * n_windows
        config = make_config(horizon=horizon, detection={"window": window},
                             fusion={"node_ekf": False, "cluster_fusvaf": fuse})
        tick = st.integers(0, horizon - 1)
        ticks = st.one_of(
            st.sets(tick, max_size=3).map(sorted),                    # sparse: empty windows
            st.just(list(range(horizon))),                           # dense
            st.lists(tick, max_size=2 * horizon).map(sorted),        # repeated ticks
            st.lists(st.integers(-1, horizon), max_size=4),          # out of order or range
        )
        # under FUSVAF a finite kernel result needs moderate readings
        value = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0]) if fuse else ORACLE_VALUES
        reports = {node_id: [(t, data.draw(value)) for t in data.draw(ticks)]
                   for node_id in data.draw(st.sets(st.sampled_from("abc"), min_size=1))}
        stage = lambda: cluster_stage("c0", SensorKind.PRESSURE, reports, config, "gw")
        try:
            expected = loop_windows("c0", reports, horizon, window, fuse)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                stage()
            assert str(got.value) == str(exc)
            return
        try:
            result = stage()
        except NumericFailureError as exc:  # a relayed mean beyond float range
            assert not fuse and "is not finite" in str(exc)
            assert not all(avg is None or math.isfinite(avg) for _, avg, _, _ in expected)
            return
        got = result.windows[["count", "avg", "max", "min"]].tolist()
        assert repr(got) == repr([tuple(map(nan_for_none, row)) for row in expected])
        if fuse:
            fused = [left_sum(result.fusion.fused[w * window:(w + 1) * window]) / window
                     for w in range(n_windows)]
        else:
            fused = [avg for _, avg, _, _ in expected]
        assert repr(result.windows["fused"].tolist()) == repr(list(map(nan_for_none, fused)))

    @given(pairs=st.lists(st.tuples(RMSE_VALUES, RMSE_VALUES), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_rmse_equals_the_per_sample_loop(self, pairs):
        reported, truth = (np.array(column) for column in zip(*pairs))
        try:
            expected = loop_rmse("n0:pressure", reported.tolist(), truth.tolist())
        except NumericFailureError as exc:
            with pytest.raises(NumericFailureError) as got:
                _rmse("n0:pressure", reported, truth)
            assert str(got.value) == str(exc)
            return
        assert repr(_rmse("n0:pressure", reported, truth)) == repr(expected)


class TestConsensusStage:
    def config_three_heads(self):
        data = base_config_dict()
        data["topology"]["nodes"] = [
            {"node_id": f"n{i}", "cluster_id": f"c{i}", "position": 10.0 * i,
             "sensors": ["pressure"]}
            for i in range(3)
        ]
        data["topology"]["cluster_heads"] = [
            {"cluster_id": "c0", "peers": ["c1", "c2"]},
            {"cluster_id": "c1", "peers": ["c0", "c2"]},
            {"cluster_id": "c2", "peers": ["c0", "c1"]},
        ]
        return scenario_from_dict(data, "three")

    def test_triangle_agrees_in_one_round_six_messages(self):
        config = self.config_three_heads()
        stage = consensus_stage({"c0": 1.0, "c1": 2.0, "c2": 3.0}, config)
        assert stage.agreed == pytest.approx(2.0, abs=1e-9)
        assert stage.rounds == 1
        # one message per peer edge per direction per round
        assert stage.messages == {
            (a, b, CONSENSUS): (1, 32)
            for a in ("c0", "c1", "c2") for b in ("c0", "c1", "c2") if a != b
        }

    def test_identical_estimates_need_no_messages(self):
        config = self.config_three_heads()
        stage = consensus_stage({"c0": 7.0, "c1": 7.0, "c2": 7.0}, config)
        assert stage.rounds == 0
        assert stage.messages == {}

    def test_requires_two_heads(self):
        with pytest.raises(ValueError):
            consensus_stage({"c0": 1.0}, make_config())

    def test_severed_peer_graph_degrades_gracefully(self):
        # middle cluster has no pressure sensors, so the two estimate
        # holders share no peer link; the alert must still go out
        data = base_config_dict(
            horizon=300,
            signals={"pressure": {"baseline": 500.0, "noise_std": 0.5},
                     "temperature": {"baseline": 20.0, "noise_std": 0.2}},
            events=[{"kind": "leak", "start": 150, "end": 160, "location": 0.0,
                     "magnitude": 60.0, "radius": 500.0}],
        )
        data["topology"]["nodes"] = [
            {"node_id": "n0", "cluster_id": "c0", "position": 0.0, "sensors": ["pressure"]},
            {"node_id": "n1", "cluster_id": "c1", "position": 50.0, "sensors": ["temperature"]},
            {"node_id": "n2", "cluster_id": "c2", "position": 100.0, "sensors": ["pressure"]},
        ]
        data["topology"]["cluster_heads"] = [
            {"cluster_id": "c0", "peers": ["c1"]},
            {"cluster_id": "c1", "peers": ["c0", "c2"]},
            {"cluster_id": "c2", "peers": ["c1"]},
        ]
        result = run_simulation(scenario_from_dict(data, "severed"))
        leaks = [d for d in result.detections if d.kind == "leak"]
        assert leaks
        assert all(d.consensus_value is None for d in leaks)
        assert result.consensus_runs == []

    def test_single_cluster_scenario_skips_consensus(self):
        data = base_config_dict(
            horizon=300,
            signals={"pressure": {"baseline": 500.0, "noise_std": 0.5}},
            events=[{"kind": "leak", "start": 150, "end": 160, "location": 0.0,
                     "magnitude": 60.0, "radius": 150.0}],
        )
        data["topology"]["nodes"] = [
            {"node_id": f"n{i}", "cluster_id": "c0", "position": 10.0 * i,
             "sensors": ["pressure"]}
            for i in range(3)
        ]
        data["topology"]["cluster_heads"] = [{"cluster_id": "c0", "peers": []}]
        result = run_simulation(scenario_from_dict(data, "single"))
        assert any(d.kind == "leak" for d in result.detections)
        assert result.consensus_runs == []
        assert result.metrics.consensus_messages == 0


def streak_onsets(flags, persistence):
    """The leak streak loop of detect_events before persistent_onsets."""
    onsets, streak = [], 0
    for i, below in enumerate(flags):
        if below:
            streak += 1
            if streak == persistence:
                onsets.append(i)
        else:
            streak = 0
    return onsets


def streak_detect_events(window_series, config):
    """detect_events before persistent_onsets: a streak loop for leaks and
    a held level for intrusions."""
    detections = []
    baseline = None
    if SensorKind.PRESSURE in config.signals:
        baseline = config.signals[SensorKind.PRESSURE].baseline
    threshold = config.detection.leak_threshold
    for (cluster_id, kind), windows in sorted(window_series.items()):
        if kind == SensorKind.PRESSURE and baseline is not None:
            flags = [s.fused is not None and s.fused < baseline - threshold for s in windows]
            for w in streak_onsets(flags, config.detection.leak_persistence):
                s = windows[w]
                detections.append(Detection("leak", s.end_tick, cluster_id, kind, s.index,
                                            _uav_covers(config, cluster_id, s.end_tick)))
        elif kind.is_binary:
            level = 0.0
            for s in windows:
                if s.count == 0:
                    continue
                if s.max == 1.0 and level != 1.0:
                    detections.append(Detection("intrusion", s.end_tick, cluster_id, kind,
                                                s.index,
                                                _uav_covers(config, cluster_id, s.end_tick)))
                level = s.max
    detections.sort(key=lambda d: (d.tick, d.kind, d.cluster_id, d.sensor_kind))
    return detections


def zero_streak_flags(member_order, sigma, windows, persistence):
    """The fault scan of cluster_stage before persistent_onsets: a streak
    per member not yet flagged, counted inside the window loop."""
    zero_streak = {node_id: 0 for node_id in member_order}
    suspected = []
    for s in windows:
        for node_id, column in zip(member_order, sigma):
            if node_id not in zero_streak:
                continue
            if all(x == 0.0 for x in column[s.start_tick:s.end_tick + 1]):
                zero_streak[node_id] += 1
                if zero_streak[node_id] >= persistence:
                    suspected.append((node_id, s.index))
                    del zero_streak[node_id]
            else:
                zero_streak[node_id] = 0
    return suspected


# runs of equal flags, so that runs longer than the persistence and repeated
# excursions are common; plain random lists too
flag_lists = st.one_of(
    st.lists(st.booleans(), max_size=40),
    st.lists(st.tuples(st.booleans(), st.integers(0, 9)), max_size=10).map(
        lambda runs: [flag for flag, length in runs for _ in range(length)]),
)


class TestPersistence:
    def test_one_onset_per_run(self):
        flags = [True, True, True, True, False, True, True, False, True]
        assert persistent_onsets(flags, 2) == [1, 6]
        assert persistent_onsets(flags, 1) == [0, 5, 8]
        assert persistent_onsets(flags, 5) == []

    @given(flags=flag_lists, persistence=st.integers(1, 5))
    @settings(max_examples=300, deadline=None)
    def test_equals_leak_streak_loop(self, flags, persistence):
        assert persistent_onsets(flags, persistence) == streak_onsets(flags, persistence)

    @given(data=st.data(), persistence=st.integers(1, 5), n_windows=st.integers(0, 30))
    @settings(max_examples=100, deadline=None)
    def test_detections_equal_streak_loops(self, data, persistence, n_windows):
        config = make_config(detection={"window": 10, "leak_persistence": persistence})
        config = config._replace(topology=config.topology._replace(
            uav_patrol=(UavVisit(30, 120, "c0"),)))
        fused = st.sampled_from([None, 470.0, 479.9, 480.0, 500.0])  # below means < 480
        series = {}
        for cluster_id, kind in [("c0", SensorKind.PRESSURE), ("c1", SensorKind.PRESSURE),
                                 ("c0", SensorKind.PIR), ("c1", SensorKind.MAGNETIC)]:
            windows = []
            for w in range(n_windows):
                if kind.is_binary:
                    count = data.draw(st.integers(0, 2))
                    level = data.draw(st.sampled_from([0.0, 1.0])) if count else None
                    values = (None, count, level, level, level)
                else:
                    values = (data.draw(fused), 0, None, None, None)
                windows.append(OracleWindow(w, 10 * w, 10 * w + 9, *values))
            series[(cluster_id, kind)] = windows
        got = detect_events({key: window_array(w) for key, w in series.items()}, config)
        assert got == streak_detect_events(series, config)
        assert all(type(d.tick) is int and type(d.window_index) is int for d in got)

    @given(data=st.data(), persistence=st.integers(1, 5), window=st.integers(1, 4),
           n_windows=st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_fault_flags_equal_zero_streak_loop(self, data, persistence, window, n_windows):
        horizon = window * n_windows
        config = make_config(horizon=horizon, fusion={"node_ekf": False},
                             detection={"window": window, "fault_persistence": persistence})
        members = sorted(data.draw(st.sets(st.sampled_from("abcd"), min_size=1)))
        # per member and window: zero confidence throughout, or at one tick not
        sigma = []
        for _ in members:
            column = []
            for _ in range(n_windows):
                block = [0.0] * window
                if data.draw(st.booleans()):
                    block[data.draw(st.integers(0, window - 1))] = 0.5
                column += block
            sigma.append(column)

        def kernel(groups, n_slots, *args):  # the fusion whose sigma columns were drawn
            ones = [1.0] * horizon
            return FusionColumns(list(range(horizon)), ones, ones, ones,
                                 [ones] * n_slots, sigma)

        reports = {node_id: [(t, 1.0) for t in range(horizon)] for node_id in members}
        with mock.patch.object(fusvaf, "_fusvaf_kernel", kernel):
            result = cluster_stage("c0", SensorKind.PRESSURE, reports, config, "gw")
        assert result.suspected_faulty == zero_streak_flags(
            members, sigma, [OracleWindow(w, w * window, (w + 1) * window - 1)
                             for w in range(len(result.windows))], persistence)


class TestDetection:
    def noisy_leak_config(self, magnitude=40.0, uav=None, **kw):
        data = base_config_dict(
            horizon=400,
            signals={"pressure": {"baseline": 500.0, "noise_std": 0.5}},
            events=[{"kind": "leak", "start": 200, "end": 210, "location": 0.0,
                     "magnitude": magnitude, "radius": 150.0}],
            detection={"window": 10, "leak_threshold": 20.0, "leak_persistence": 2},
            **kw,
        )
        if uav:
            data["topology"]["uav"] = {"patrol": uav}
        return scenario_from_dict(data, "leak")

    def test_clean_world_has_no_detections(self):
        result = run_simulation(make_config())
        assert result.detections == []
        assert result.metrics.false_positives == 0
        assert result.metrics.rmse_mean == 0.0

    def test_leak_detected_within_latency_budget(self):
        result = run_simulation(self.noisy_leak_config())
        leaks = [d for d in result.detections if d.kind == "leak"]
        assert leaks
        h, window = 2, 10
        outcome = result.event_outcomes[0]
        assert outcome.latency is not None
        assert outcome.latency <= (h + 1) * window

    def test_intrusion_detected_past_one_window_is_a_false_positive(self):
        config = make_config(
            events=[{"kind": "intrusion", "start": 100, "end": 120, "location": 20.0}])
        window = config.detection.window
        late = config.events[0].end + window

        def detection(tick):
            return Detection("intrusion", tick, "c0", SensorKind.PIR, tick // window, False)

        outcomes, false_positives = match_events(config, [detection(late), detection(late + 1)])
        assert (outcomes[0].detected_tick, false_positives) == (late, 1)
        outcomes, false_positives = match_events(config, [detection(late + 1)])
        assert (outcomes[0].detected_tick, false_positives) == (None, 1)

    def test_leak_carries_consensus_value(self):
        result = run_simulation(self.noisy_leak_config())
        leak = [d for d in result.detections if d.kind == "leak"][0]
        assert leak.consensus_value is not None
        assert leak.consensus_value < 500.0

    def test_intrusion_validated_during_uav_patrol(self):
        data = base_config_dict(
            horizon=200,
            events=[{"kind": "intrusion", "start": 100, "end": 120, "location": 20.0}],
        )
        data["topology"]["uav"] = {"patrol": [{"start": 90, "end": 130, "cluster_id": "c0"}]}
        result = run_simulation(scenario_from_dict(data, "uav"))
        intrusions = [d for d in result.detections if d.kind == "intrusion"]
        assert intrusions and intrusions[0].validated

    def test_intrusion_not_validated_without_patrol(self):
        data = base_config_dict(
            horizon=200,
            events=[{"kind": "intrusion", "start": 100, "end": 120, "location": 20.0}],
        )
        result = run_simulation(scenario_from_dict(data, "no_uav"))
        intrusions = [d for d in result.detections if d.kind == "intrusion"]
        assert intrusions and not intrusions[0].validated


class TestRunSimulation:
    @pytest.mark.parametrize("override", [
        None, "fusion.fusvaf_adaptive_alpha=true", "fusion.cluster_fusvaf=false"])
    def test_bundled_scenario_runs_without_numpy_warnings(self, override):
        data = yaml.safe_load(BUNDLED.read_text(encoding="utf-8"))
        config = scenario_from_dict(apply_overrides(data, [override] if override else []))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning (say, nan cast to int) fails
            run_simulation(config)

    def test_zero_noise_no_event_minimal_traffic(self):
        result = run_simulation(make_config())
        m = result.metrics
        assert m.rmse_mean == 0.0
        assert m.alert_messages == 0
        # one report-on-change message per stream, one fused+agg window message set
        assert m.node_messages == 6  # 4 pressure + 2 binary streams

    def test_message_conservation(self):
        result = run_simulation(run_config := make_config(
            signals={"pressure": {"baseline": 500.0, "noise_std": 0.5}},
            events=[{"kind": "leak", "start": 100, "end": 110, "location": 0.0,
                     "magnitude": 60.0, "radius": 150.0}],
        ))
        topology = run_config.topology
        entity_ids = (
            {n.node_id for n in topology.nodes}
            | {c.cluster_id for c in topology.cluster_heads}
            | {topology.gateway_id, "gcc"}
        )
        # no message is lost or invented: every ledger entry links two distinct
        # live entities and carries at least one message of at least one bit,
        # and splitting the ledger by receiver reassembles it exactly
        ledger = result.messages
        for (src, dst, kind), (count, bits) in ledger.items():
            assert src in entity_ids and dst in entity_ids and src != dst
            assert isinstance(kind, MessageKind)
            assert 1 <= count <= bits
        inboxes = {e: [n for (_, dst, _), (n, _) in ledger.items() if dst == e]
                   for e in entity_ids}
        assert sum(sum(v) for v in inboxes.values()) == sent(ledger)
        assert {kind for _, _, kind in ledger} >= {RAW, FUSED, CONSENSUS, MessageKind.ALERT}
        m = result.metrics
        assert m.total_messages == sent(ledger)
        assert m.total_bits == sum(bits for _, bits in ledger.values())
        level_sum = (m.node_messages + m.cluster_messages
                     + m.consensus_messages + m.alert_messages)
        assert level_sum == m.total_messages
        assert (m.node_bits + m.cluster_bits + m.consensus_bits + m.alert_bits
                == m.total_bits)

    def test_fused_values_respect_member_envelope(self):
        result = run_simulation(make_config(
            signals={"pressure": {"baseline": 500.0, "noise_std": 0.5}},
        ))
        for stage in result.cluster_results.values():
            if stage.fusion is None:
                continue
            columns = stage.fusion
            for i, (fused, predicted) in enumerate(zip(columns.fused, columns.predicted)):
                zs = [value[i] for value in columns.value if value[i] is not None]
                lo, hi = min(zs + [predicted]), max(zs + [predicted])
                assert lo - 1e-9 <= fused <= hi + 1e-9

    def test_identical_config_identical_metrics(self):
        binary = base_config_dict(signals={})  # pir and magnetic only: no rmse to take
        for node in binary["topology"]["nodes"]:
            node["sensors"] = ["pir", "magnetic"]
        for config in [
            make_config(signals={"pressure": {"baseline": 500.0, "noise_std": 0.5}}),
            scenario_from_dict(binary, "binary"),
        ]:
            m1 = run_simulation(config).metrics
            m2 = run_simulation(config).metrics
            assert m1 == m2
        assert math.isnan(m1.rmse_mean) and math.isnan(m1.mean_detection_latency)

    def test_radio_energy_linear_in_ops_per_bit(self):
        base = base_config_dict(
            signals={"pressure": {"baseline": 500.0, "noise_std": 0.5}},
        )
        lo = run_simulation(scenario_from_dict(base, "lo")).metrics
        hi_data = apply_overrides(base, ["energy.ops_per_bit=3000"]) if "energy" in base else {**base, "energy": {"ops_per_bit": 3000}}
        hi = run_simulation(scenario_from_dict(hi_data, "hi")).metrics
        assert hi.total_bits == lo.total_bits
        assert hi.radio_energy == pytest.approx(3.0 * lo.radio_energy)

    def test_fused_pipeline_beats_raw_on_bits(self):
        noisy = base_config_dict(
            signals={"pressure": {"baseline": 500.0, "noise_std": 0.5}},
        )
        fused = run_simulation(scenario_from_dict(noisy, "fused")).metrics
        raw = run_simulation(
            scenario_from_dict(
                apply_overrides(noisy, ["fusion.node_ekf=false",
                                        "fusion.cluster_fusvaf=false"]),
                "raw",
            )
        ).metrics
        assert fused.total_bits < 0.5 * raw.total_bits
        assert fused.rmse_mean <= 1.5 * raw.rmse_mean
