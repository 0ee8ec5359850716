"""Scenario configuration for the three-level monitoring simulator.

A scenario is a YAML document with nested sections (topology, signals,
events, fusion, detection, energy). Every field has a default except the
topology, the seed, and the horizon; validation collects all problems at
once and reports them with dotted field paths.
"""

from __future__ import annotations

import math
import reprlib
from pathlib import Path
from typing import NamedTuple, Optional

import yaml

from ..consensus import CommGraph
from ..core import ConfigError, SensorKind


# Longest accepted horizon in ticks. It bounds the memory a scenario can ask
# for: the world holds one float per tick for every stream.
MAX_HORIZON = 10_000_000

# libyaml's parser when pyyaml was built with it; both give the same objects
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


# a field's bound (its section's BOUNDS entry), as the error words it -> the test a value passes
_BOUNDS = {
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "in [1000, 3000]": lambda v: 1000 <= v <= 3000,
    "'off' or 'on_detection'": lambda v: v in ("off", "on_detection"),
    "'leak' or 'intrusion'": lambda v: v in ("leak", "intrusion"),
}


class NodeSpec(NamedTuple):
    node_id: str
    cluster_id: str
    position: float
    sensors: tuple[SensorKind, ...]

    BOUNDS = {"position": ">= 0"}


class ClusterSpec(NamedTuple):
    cluster_id: str
    peers: tuple[str, ...] = ()

    BOUNDS = {}


class UavVisit(NamedTuple):
    start: int
    end: int
    cluster_id: str

    BOUNDS = {}

    def covers(self, tick: int, cluster_id: str) -> bool:
        return self.cluster_id == cluster_id and self.start <= tick <= self.end


class Topology(NamedTuple):
    nodes: tuple[NodeSpec, ...]
    cluster_heads: tuple[ClusterSpec, ...]
    gateway_id: str = "gw"
    uav_patrol: tuple[UavVisit, ...] = ()

    def members_of(self, cluster_id: str) -> list[NodeSpec]:
        return [n for n in self.nodes if n.cluster_id == cluster_id]

    def node(self, node_id: str) -> NodeSpec:
        for n in self.nodes:
            if n.node_id == node_id:
                return n
        raise KeyError(node_id)

    def peer_graph(self, cluster_ids) -> CommGraph:
        """Peer links among distinct cluster_ids, agent i being the i-th id;
        links to other clusters and self links are left out."""
        index = {c: i for i, c in enumerate(cluster_ids)}
        edges = {
            tuple(sorted((index[c.cluster_id], index[p])))
            for c in self.cluster_heads
            for p in c.peers
            if c.cluster_id in index and p in index and p != c.cluster_id
        }
        return CommGraph.from_edges(len(index), sorted(edges))


class SignalSpec(NamedTuple):
    """Ground-truth model for one analog kind: baseline + drift*t + noise."""

    baseline: float
    drift: float = 0.0
    noise_std: float = 0.0

    BOUNDS = {"noise_std": ">= 0"}


class EventSpec(NamedTuple):
    kind: str
    start: int
    end: int
    location: float
    magnitude: float = 0.0
    radius: float = 50.0

    BOUNDS = {"kind": "'leak' or 'intrusion'", "start": ">= 0", "location": ">= 0"}


class FusionConfig(NamedTuple):
    """Placement and tuning of the fusion methods along the pipeline."""

    node_ekf: bool = True
    ekf_q: float = 0.1
    ekf_r: float = 0.1
    report_delta: float = 1.0
    cluster_fusvaf: bool = True
    fusvaf_alpha: float = 1.0
    fusvaf_omega: float = 1.0
    # constant prediction weight: a cluster-wide excursion (leak front) must
    # not zero out the fusion denominator while the gate is still catching up
    fusvaf_adaptive_alpha: bool = False
    gate_k_sigma: float = 3.0
    gate_w_min: Optional[float] = None  # None: derived per kind from noise_std
    gate_w_max: float = 100.0
    # gate memory of half a reporting window keeps cluster fusion responsive
    # within one window when the whole cluster moves (leak onset)
    gate_window: int = 5
    consensus_policy: str = "on_detection"
    consensus_tol: float = 1e-9
    consensus_max_iter: int = 1000

    BOUNDS = {"ekf_q": "> 0", "ekf_r": "> 0", "report_delta": ">= 0",
              "fusvaf_alpha": ">= 0", "fusvaf_omega": "> 0", "gate_k_sigma": "> 0",
              "gate_w_min": "> 0", "gate_w_max": "> 0", "gate_window": ">= 1",
              "consensus_policy": "'off' or 'on_detection'",
              "consensus_tol": "> 0", "consensus_max_iter": ">= 1"}


class DetectionConfig(NamedTuple):
    window: int = 10
    leak_threshold: float = 20.0
    leak_persistence: int = 2
    fault_persistence: int = 3

    BOUNDS = {"window": ">= 1", "leak_threshold": "> 0",
              "leak_persistence": ">= 1", "fault_persistence": ">= 1"}


class EnergyConfig(NamedTuple):
    """Radio cost in microcontroller-op equivalents plus per-op compute charges."""

    ops_per_bit: int = 1000
    per_op_cost: float = 1.0
    sample_bits: int = 32
    ekf_ops_per_update: int = 50
    fusvaf_ops_per_value: int = 20
    aggregation_ops_per_value: int = 1
    consensus_ops_per_value: int = 5

    BOUNDS = {"ops_per_bit": "in [1000, 3000]", "per_op_cost": "> 0", "sample_bits": ">= 1",
              "ekf_ops_per_update": ">= 0", "fusvaf_ops_per_value": ">= 0",
              "aggregation_ops_per_value": ">= 0", "consensus_ops_per_value": ">= 0"}


class ScenarioConfig(NamedTuple):
    name: str
    seed: int
    horizon: int
    topology: Topology
    signals: dict
    events: tuple[EventSpec, ...] = ()
    fusion: FusionConfig = FusionConfig()
    detection: DetectionConfig = DetectionConfig()
    energy: EnergyConfig = EnergyConfig()

    def gate_floor(self, kind: SensorKind) -> float:
        """Gate half-width floor for a kind; derived from the scenario's
        noise level when not set explicitly."""
        if self.fusion.gate_w_min is not None:
            return self.fusion.gate_w_min
        noise = self.signals[kind].noise_std if kind in self.signals else 0.0
        return _derived_floor(self.fusion, noise)[0]


def _derived_floor(fusion: FusionConfig, noise: float) -> tuple[float, bool]:
    """The gate floor a kind's noise_std implies, and whether the node
    filter's deadband (report_delta) is its larger term."""
    slack = fusion.report_delta if fusion.node_ekf else noise
    return max(0.1, 4.0 * noise + slack), fusion.node_ekf and slack > 4.0 * noise


def _is_finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


# annotation -> (accepts the value, what the error says was expected)
_SCALAR_TYPES = {
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (_is_finite_number, "a finite number"),
    "Optional[float]": (lambda v: v is None or _is_finite_number(v), "a finite number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[str, ...]": (lambda v: all(isinstance(s, str) for s in v), "a list of strings"),
}


def _wrong_type(where, expected: str, value) -> str:
    """The one wording for a section or entry of the wrong type. The value's
    repr is cut short: a CSV passed as the scenario reads as one long string."""
    return f"{where}: expected {expected}, got {reprlib.repr(value)}"


def _build_section(cls, data, prefix, errors, converters=None):
    """Build section `cls` from a mapping. Keys must be fields of `cls`,
    fields without a default must be present, and after the converters,
    values of scalar fields must have the field's type and lie within its
    bound in `cls.BOUNDS`; floats must be finite, and integers given for
    them become floats."""
    converters = converters or {}
    if not isinstance(data, dict):
        errors.append(_wrong_type(prefix, "a mapping", data))
        return None
    # under postponed evaluation the annotations are ForwardRefs of their text
    types = {name: ref.__forward_arg__ for name, ref in cls.__annotations__.items()}
    kwargs = {}
    valid = True
    for name in cls._fields:
        if name not in cls._field_defaults and name not in data:
            errors.append(f"{prefix}.{name}: required")
            valid = False
    for key, value in data.items():
        if key not in types:
            errors.append(f"{prefix}.{key}: unknown key")
            continue
        if key in converters:
            value = converters[key](value)
        accepts, expected = _SCALAR_TYPES.get(types[key], (None, None))
        if accepts is not None and not accepts(value):
            errors.append(f"{prefix}.{key}: expected {expected}, got {value!r}")
            valid = False
            continue
        if value is not None and types[key] in ("float", "Optional[float]"):
            value = float(value)
        bound = cls.BOUNDS.get(key)
        if bound and value is not None and not _BOUNDS[bound](value):
            errors.append(f"{prefix}.{key}: must be {bound}, got {value!r}")
            valid = False
        kwargs[key] = value
    return cls(**kwargs) if valid else None


def _at(data: dict, key: str, default):
    """data[key], or `default` where the key is absent or null: an empty
    YAML section or list reads as null."""
    value = data.get(key)
    return default if value is None else value


def _list_at(data: dict, key: str, where: str, errors) -> list:
    value = _at(data, key, [])
    if not isinstance(value, list):
        errors.append(_wrong_type(where, "a list", value))
        return []
    return value


def _parse_kind(value, where, errors):
    try:
        return SensorKind(value)
    except ValueError:
        errors.append(f"{where}: unknown sensor kind {value!r}")
        return None


def scenario_from_dict(data: dict, name: str = "scenario") -> ScenarioConfig:
    """Build and validate a ScenarioConfig; raises ConfigError on any problem."""
    errors: list[str] = []
    if not isinstance(data, dict):
        raise ConfigError([_wrong_type("top level", "a mapping", data)])

    for key in data:
        if key not in ScenarioConfig._fields:
            errors.append(f"{key}: unknown key")

    name = data.get("name", name)
    if not isinstance(name, str):
        errors.append(f"name: expected a string, got {name!r}")
    seed = data.get("seed")
    if seed is None:
        errors.append("seed: required for reproducibility")
        seed = 0
    elif not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        errors.append(f"seed: expected a non-negative integer, got {seed!r}")
        seed = 0
    horizon = data.get("horizon")
    horizon_ok = isinstance(horizon, int) and not isinstance(horizon, bool) and horizon >= 1
    if not horizon_ok:
        errors.append(f"horizon: expected a positive integer, got {horizon!r}")
    elif horizon > MAX_HORIZON:
        errors.append(f"horizon: {horizon} ticks exceeds the maximum of {MAX_HORIZON:,}")
        horizon_ok = False
    if not horizon_ok:
        horizon = None  # reported once here; the checks against it are skipped

    topology, entries, head_ids = _parse_topology(data.get("topology"), errors)
    declared_signals = _at(data, "signals", {})
    signals = _parse_signals(declared_signals, errors)
    events = _parse_events(_list_at(data, "events", "events", errors), horizon, errors)
    fusion = _build_section(
        FusionConfig,
        _at(data, "fusion", {}),
        "fusion",
        errors,
        # YAML 1.1 reads a bare `off` as boolean False
        converters={"consensus_policy": lambda v: "off" if v is False else v},
    )
    detection = _build_section(DetectionConfig, _at(data, "detection", {}), "detection", errors)
    energy = _build_section(EnergyConfig, _at(data, "energy", {}), "energy", errors)

    if fusion is not None and (fusion.gate_w_min or 0.0) > fusion.gate_w_max:
        errors.append("fusion.gate_w_min: must not exceed gate_w_max")
    if detection is not None and horizon_ok and horizon % detection.window:
        errors.append(
            f"detection.window: {detection.window} must divide the horizon "
            f"{horizon}, so that every tick falls in a reporting window"
        )
    node_kinds = {k for _, kinds in entries for k in kinds}
    if topology is not None:
        _check_topology(topology, entries, head_ids, errors)
        _check_cross(node_kinds, declared_signals, events, errors)
        _check_gate_floors(fusion, signals, node_kinds, errors)

    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(
        name, seed, horizon, topology, signals, tuple(events), fusion, detection, energy
    )


def _parse_topology(data, errors) -> tuple[Optional[Topology], list, list]:
    """The topology, the (raw cluster_id, sensor kinds) of every node entry
    and the raw cluster_id of every cluster head entry, also of those
    dropped for an error, so that the later checks see them."""
    if data is None:
        errors.append("topology: required")
        return None, [], []
    if not isinstance(data, dict):
        errors.append(_wrong_type("topology", "a mapping", data))
        return None, [], []
    nodes = []
    entries = []
    for i, raw in enumerate(_list_at(data, "nodes", "topology.nodes", errors)):
        prefix = f"topology.nodes[{i}]"
        if not isinstance(raw, dict):
            errors.append(_wrong_type(prefix, "a mapping", raw))
            continue
        kinds = []
        for s in _list_at(raw, "sensors", f"{prefix}.sensors", errors):
            kind = _parse_kind(s, f"{prefix}.sensors", errors)
            if kind in kinds:
                errors.append(f"{prefix}.sensors: {kind.value} listed twice")
            elif kind is not None:
                kinds.append(kind)
        entries.append((raw.get("cluster_id"), kinds))
        node = _build_section(NodeSpec, {**raw, "sensors": tuple(kinds)}, prefix, errors)
        if node is not None:
            nodes.append(node)
    heads, head_ids = [], []
    for i, raw in enumerate(_list_at(data, "cluster_heads", "topology.cluster_heads", errors)):
        prefix = f"topology.cluster_heads[{i}]"
        if not isinstance(raw, dict):
            errors.append(_wrong_type(prefix, "a mapping", raw))
            continue
        head_ids.append(raw.get("cluster_id"))
        n_errors = len(errors)
        peers = tuple(_list_at(raw, "peers", f"{prefix}.peers", errors))
        peers_read = len(errors) == n_errors
        head = _build_section(ClusterSpec, {**raw, "peers": peers}, prefix, errors)
        if head is not None and peers_read:
            heads.append(head)  # a head whose peers are not a list drops out too
    patrol = []
    uav = _at(data, "uav", {})
    if not isinstance(uav, dict):
        errors.append(_wrong_type("topology.uav", "a mapping", uav))
        uav = {}
    for i, raw in enumerate(_list_at(uav, "patrol", "topology.uav.patrol", errors)):
        prefix = f"topology.uav.patrol[{i}]"
        visit = _build_section(UavVisit, raw, prefix, errors)
        if visit is None:
            continue
        if visit.cluster_id not in head_ids:
            errors.append(f"{prefix}.cluster_id: unknown cluster {visit.cluster_id!r}")
        if visit.end < visit.start:
            errors.append(f"{prefix}.end: must be >= start")
        patrol.append(visit)
    gateway_id = data.get("gateway_id", "gw")
    if not isinstance(gateway_id, str):
        errors.append(f"topology.gateway_id: expected a string, got {gateway_id!r}")
        gateway_id = None  # reported; no id can collide with it
    known = {"nodes", "cluster_heads", "uav", "gateway_id"}
    for key in data:
        if key not in known:
            errors.append(f"topology.{key}: unknown key")
    return Topology(tuple(nodes), tuple(heads), gateway_id, tuple(patrol)), entries, head_ids


def _parse_signals(data, errors) -> dict:
    signals = {}
    if not isinstance(data, dict):
        errors.append(_wrong_type("signals", "a mapping", data))
        return signals
    for key, raw in data.items():
        kind = _parse_kind(key, "signals", errors)
        if kind is None:
            continue
        if kind.is_binary:
            errors.append(f"signals.{key}: binary kinds take no signal spec")
            continue
        spec = _build_section(SignalSpec, raw, f"signals.{key}", errors)
        if spec is not None:
            signals[kind] = spec
    return signals


def _parse_events(data, horizon, errors) -> list[Optional[EventSpec]]:
    events = []
    for i, raw in enumerate(data):
        prefix = f"events[{i}]"
        event = _build_section(EventSpec, raw, prefix, errors)
        events.append(event)  # None, already reported, keeps later events' indices
        if event is None:
            continue
        if event.end < event.start:
            errors.append(f"{prefix}.end: must be >= start")
        if horizon is not None and event.end >= horizon:
            errors.append(f"{prefix}.end: tick {event.end} outside horizon {horizon}")
        if event.kind == "leak" and event.magnitude <= 0:
            errors.append(f"{prefix}.magnitude: leak needs a positive magnitude")
        if event.kind == "leak" and event.radius <= 0:
            errors.append(f"{prefix}.radius: must be positive")
    return events


def _check_topology(topology: Topology, entries, head_ids, errors) -> None:
    """Checks across the topology. A cluster id is known if any head entry
    names it, dropped ones included, as a cluster's members are counted over
    every node entry, so a dropped entry brings no error beyond its own.
    Both compare with `==`, since a raw id may be an unhashable YAML value."""
    if not entries:
        errors.append("topology.nodes: at least one node required")
    if not head_ids:
        errors.append("topology.cluster_heads: at least one cluster head required")
    # nodes, cluster heads and the gateway share one id space
    ids = [("topology.nodes", n.node_id) for n in topology.nodes]
    ids += [("topology.cluster_heads", c.cluster_id) for c in topology.cluster_heads]
    owners = {}
    for where, id_ in ids + [("topology.gateway_id", topology.gateway_id)]:
        if id_ in owners:
            errors.append(f"{where}: id {id_!r} is already used in {owners[id_]}")
        owners.setdefault(id_, where)
    for n in topology.nodes:
        if not n.sensors:
            errors.append(f"topology.nodes[{n.node_id}].sensors: at least one sensor required")
        if n.cluster_id not in head_ids:
            errors.append(
                f"topology.nodes[{n.node_id}].cluster_id: unknown cluster {n.cluster_id!r}"
            )
    for c in topology.cluster_heads:
        if not any(cluster_id == c.cluster_id for cluster_id, _ in entries):
            errors.append(f"topology.cluster_heads[{c.cluster_id}]: cluster has no member nodes")
        for p in c.peers:
            if p not in head_ids:
                errors.append(f"topology.cluster_heads[{c.cluster_id}].peers: unknown cluster {p!r}")
            if p == c.cluster_id:
                errors.append(f"topology.cluster_heads[{c.cluster_id}].peers: self link")
    cluster_ids = {c.cluster_id for c in topology.cluster_heads}
    if (len(topology.cluster_heads) == len(head_ids) and len(cluster_ids) > 1
            and not topology.peer_graph(cluster_ids).is_connected()):
        errors.append("topology.cluster_heads: peer graph must be connected")


def _check_cross(node_kinds, declared_signals, events, errors) -> None:
    """Cross-section checks against the sensor kinds the nodes carry; a
    signal spec that is present but invalid has already been reported, so
    only an absent one is reported here."""
    used_analog = {k for k in node_kinds if not k.is_binary}
    for kind in sorted(used_analog):
        if isinstance(declared_signals, dict) and kind.value not in declared_signals:
            errors.append(f"signals.{kind.value}: required (kind appears in topology)")
    has_binary = any(k.is_binary for k in node_kinds)
    for i, e in enumerate(events):
        if e is None:
            continue
        if e.kind == "intrusion" and not has_binary:
            errors.append(f"events[{i}]: intrusion needs a node with pir/magnetic sensors")
        if e.kind == "leak" and SensorKind.PRESSURE not in node_kinds:
            errors.append(f"events[{i}]: leak needs a node with a pressure sensor")


def _check_gate_floors(fusion, signals, node_kinds, errors) -> None:
    """Under FUSVAF, the gate floor derived for each analog kind the nodes
    carry must not exceed gate_w_max; the error names the field whose term
    sets the floor. A failed fusion section or signal spec has already been
    reported, so it is skipped here."""
    if fusion is None or not fusion.cluster_fusvaf or fusion.gate_w_min is not None:
        return
    for kind in sorted(k for k in node_kinds if k in signals):  # binary kinds have no spec
        floor, deadband = _derived_floor(fusion, signals[kind].noise_std)
        if floor > fusion.gate_w_max:
            where = (f"fusion.report_delta: implies a {kind.value} gate floor" if deadband
                     else f"signals.{kind.value}.noise_std: implies a gate floor")
            errors.append(f"{where} of {floor}, above fusion.gate_w_max {fusion.gate_w_max}")


def apply_overrides(data: dict, overrides) -> dict:
    """Apply `dotted.path=value` overrides onto a raw config mapping.

    Values are parsed as YAML scalars. Sections the document omitted or
    left null (all defaults) are created on the way; key names themselves
    are checked by scenario validation, so an override of a non-existent
    key still fails with a config error naming it. Returns a copy, leaving
    the input untouched.
    """
    import copy

    result = copy.deepcopy(data)
    for item in overrides:
        if "=" not in item:
            raise ConfigError([f"override {item!r}: expected key=value"])
        path, _, raw_value = item.partition("=")
        keys = path.strip().split(".")
        if not all(keys):
            raise ConfigError([f"override {path!r}: malformed key path"])
        target = result
        for k in keys[:-1]:
            if target.get(k) is None:
                target[k] = {}
            target = target[k]
            if not isinstance(target, dict):
                raise ConfigError([f"override {path!r}: {k} is not a section"])
        try:
            target[keys[-1]] = yaml.load(raw_value, Loader=_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError([f"override {item!r}: invalid YAML value: {exc}"]) from None
    return result


def load_scenario(path, overrides=(), seed: Optional[int] = None) -> ScenarioConfig:
    """Load, override, and validate a scenario YAML file."""
    path = Path(path)
    try:
        data = yaml.load(path.read_text(encoding="utf-8"), Loader=_LOADER)
    except OSError as exc:
        raise ConfigError([f"{path}: {exc}"]) from None
    except yaml.YAMLError as exc:
        raise ConfigError([f"{path}: invalid YAML: {exc}"]) from None
    if not isinstance(data, dict):
        raise ConfigError([_wrong_type(path, "a mapping", data)])
    if overrides:
        data = apply_overrides(data, overrides)
    if seed is not None:
        data = {**data, "seed": seed}
    return scenario_from_dict(data, name=path.stem)
