from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from pipefuse.core import SensorKind, TraceError, check_stream, trace_from_pairs
from pipefuse.ekf import NumericFailureError
from pipefuse.fusvaf import (
    DegenerateDenominatorError,
    EkfPredictor,
    FusionParams,
    GateAdaptation,
    ValidationGate,
    fusvaf_stream,
    write_fusion_columns,
)
from pipefuse.sim import (
    ConfigError,
    MessageKind,
    apply_overrides,
    cluster_stage,
    consensus_stage,
    generate_world,
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
from pipefuse.sim.stages import hold_series

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
        assert exc.value.errors[1:] == [
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
            "topology.uav.patrol[1].cluster_id: unknown cluster 'c9'",
            "topology.uav.patrol[2].end: must be >= start",
        ]

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

    def test_binary_stream_reports_transitions(self):
        values = np.array([0.0] * 10 + [1.0] * 5 + [0.0] * 10)
        result = node_stage(values, "n1", SensorKind.PIR, make_config(), "c0")
        assert [(t, v) for t, v in result.reports] == [(0, 0.0), (10, 1.0), (15, 0.0)]
        assert result.messages == {("n1", "c0", RAW): (3, 96)}
        assert result.ops == 0  # no filter on 0/1 channels


class TestHoldSeries:
    def test_zero_order_hold(self):
        held = hold_series([(0, 1.0), (3, 2.0)], 6)
        assert held == (0, [1.0, 1.0, 1.0, 2.0, 2.0, 2.0])

    def test_starts_at_first_report(self):
        assert hold_series([(2, 1.0), (4, 3.0), (5, 4.0)], 7) == (2, [1.0, 1.0, 3.0, 4.0, 4.0])

    def test_repeated_tick_keeps_the_last_value(self):
        assert hold_series([(0, 1.0), (0, 2.0), (2, 3.0)], 4) == (0, [2.0, 2.0, 3.0, 3.0])

    def test_empty(self):
        assert hold_series([], 5) == (5, [])


class TestClusterStage:
    def test_single_member_tracks_reports(self):
        config = make_config()
        reports = {"n0": [(t, 500.0 + 0.0 * t) for t in range(0, 200, 1)]}
        result = cluster_stage("c0", SensorKind.PRESSURE, reports, config, "gw")
        for s in result.windows:
            assert s.fused == pytest.approx(500.0, abs=0.01)

    def test_window_aggregates(self):
        config = make_config(detection={"window": 10})
        reports = {"n0": [(0, 1.0), (2, 2.0), (5, 3.0), (9, 4.0)]}
        result = cluster_stage("c0", SensorKind.PRESSURE, reports, config, "gw")
        s = result.windows[0]
        assert (s.count, s.avg, s.max, s.min) == (4, 2.5, 4.0, 1.0)

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

    @given(data=st.data(), window=st.integers(1, 12), n_windows=st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_windows_equal_brute_force_scan(self, data, window, n_windows):
        # config validation requires the window to divide the horizon
        horizon = window * n_windows
        config = make_config(horizon=horizon, detection={"window": window},
                             fusion={"node_ekf": False, "cluster_fusvaf": False})
        # any tick, window edges included; members may be silent for whole
        # windows or altogether
        tick_sets = st.sets(st.integers(0, horizon - 1), max_size=horizon)
        reports = {
            node_id: [(t, data.draw(st.floats(-1e3, 1e3)))
                      for t in sorted(data.draw(tick_sets))]
            for node_id in data.draw(st.sets(st.sampled_from("abcd"), min_size=1))
        }
        result = cluster_stage("c0", SensorKind.PRESSURE, reports, config, "gw")
        assert len(result.windows) == horizon // window
        for s in result.windows:
            values = [v for node_id in sorted(reports) for t, v in reports[node_id]
                      if s.start_tick <= t <= s.end_tick]
            assert s.count == len(values)
            if values:
                assert (s.avg, s.max, s.min) == (sum(values) / len(values),
                                                 max(values), min(values))
            else:
                assert (s.avg, s.max, s.min) == (None, None, None)

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
        reports = {
            node_id: [(t, data.draw(value))
                      for t in sorted(data.draw(st.sets(st.integers(0, horizon - 1))))]
            for node_id in data.draw(st.sets(st.sampled_from("abcd"), min_size=1))
        }
        member_order = sorted(reports)
        held = [(node_id, *hold_series(reports[node_id], horizon)) for node_id in member_order]
        traces = [trace_from_pairs(enumerate(values, first), node_id, SensorKind.PRESSURE)
                  for node_id, first, values in held if values]
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
            ) if traces else []
        except (DegenerateDenominatorError, NumericFailureError) as exc:
            with pytest.raises(type(exc)) as got:
                run()
            assert str(got.value) == f"cluster c0 [pressure]: {exc}"
            return
        result = run()
        if not points:
            assert result.fusion is None
            assert all(s.fused is None for s in result.windows)
            return
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
        for s in result.windows:
            ticks = range(s.start_tick, s.end_tick + 1)
            fused = [fused_by_tick[t] for t in ticks if t in fused_by_tick]
            assert s.fused == (sum(fused) / len(fused) if fused else None)
            for node_id in member_order:
                sigmas = [sigma_by_tick[t][node_id] for t in ticks
                          if node_id in sigma_by_tick.get(t, {})]
                if sigmas and all(x == 0.0 for x in sigmas):
                    zero_streak[node_id] += 1
                    # a member is flagged once, at the first window its streak reaches 2
                    if zero_streak[node_id] == 2 and node_id not in dict(flagged):
                        flagged.append((node_id, s.index))
                elif sigmas:
                    zero_streak[node_id] = 0
        assert result.suspected_faulty == flagged
        readings = sum(len(p.readings) for p in points)
        aggregated = sum(s.count for s in result.windows)
        assert result.ops == (config.energy.fusvaf_ops_per_value * readings
                              + config.energy.aggregation_ops_per_value * aggregated)

    def test_fused_csv_from_columns_leaves_absent_slots_empty(self, tmp_path):
        # members joining late and one silent member leave empty cells
        config = make_config(horizon=40, detection={"window": 10},
                             fusion={"node_ekf": False})
        reports = {"a": [(t, 500.0 + 0.1 * (t % 3)) for t in range(40)],
                   "b": [(7, 501.0), (20, 499.5)], "c": [], "d": [(31, 650.0)]}
        result = cluster_stage("c0", SensorKind.PRESSURE, reports, config, "gw")
        write_fusion_columns(result.fusion, tmp_path / "columns.csv")
        text = (tmp_path / "columns.csv").read_bytes()
        assert text.startswith(b"tick,fused,pred,z_1,sigma_1,z_2,sigma_2,z_3,sigma_3,z_4")
        assert text.splitlines()[1].endswith(b",,,,,,")  # tick 0: only a reports

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
        assert result.metrics.consensus.messages == 0


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
        outcome = result.metrics.event_outcomes[0]
        assert outcome.latency is not None
        assert outcome.latency <= (h + 1) * window

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
    def test_zero_noise_no_event_minimal_traffic(self):
        result = run_simulation(make_config())
        m = result.metrics
        assert m.rmse_mean == 0.0
        assert m.alert.messages == 0
        # one report-on-change message per stream, one fused+agg window message set
        assert m.node.messages == 6  # 4 pressure + 2 binary streams

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
        level_sum = (m.node.messages + m.cluster.messages
                     + m.consensus.messages + m.alert.messages)
        assert level_sum == m.total_messages
        assert (m.node.bits + m.cluster.bits + m.consensus.bits + m.alert.bits
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
        config = make_config(
            signals={"pressure": {"baseline": 500.0, "noise_std": 0.5}},
        )
        m1 = run_simulation(config).metrics
        m2 = run_simulation(config).metrics
        assert m1 == m2

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
