"""Scenario configuration for the three-level monitoring simulator.

A scenario is a YAML document with nested sections (topology, signals,
events, fusion, detection, energy). Every field has a default except the
topology, the seed, and the horizon. Validation runs in two passes, each
reporting all of its problems with dotted field paths: every field and
entry first, then, on a scenario whose fields all pass, the checks that
relate two sections.
"""

from __future__ import annotations

import math
import re
import reprlib
from pathlib import Path
from typing import NamedTuple, Optional

import yaml

from ..consensus import CommGraph
from ..core import ConfigError, SensorKind


# Longest accepted horizon in ticks. It bounds the memory a scenario can ask
# for: the world holds one float per tick for every stream.
MAX_HORIZON = 10_000_000

_INT = "tag:yaml.org,2002:int"
_FLOAT = "tag:yaml.org,2002:float"


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """libyaml's parser when pyyaml was built with it; both give the same
    objects. Plain scalars resolve to ints and floats as in YAML 1.1 minus
    its base-60 (1:00:00) and leading-zero octal (017) forms, which stay
    strings, and an exponent without a dot (1e-12) is a float, as in YAML 1.2."""

    yaml_implicit_resolvers = {
        first: [(tag, regexp) for tag, regexp in resolvers if tag not in (_INT, _FLOAT)]
        for first, resolvers in yaml.SafeLoader.yaml_implicit_resolvers.items()
    }


_Loader.add_implicit_resolver(
    _INT,
    re.compile(r"""^(?:[-+]?0b[0-1_]+
                |[-+]?(?:0|[1-9][0-9_]*)
                |[-+]?0x[0-9a-fA-F_]+)$""", re.X),
    list("-+0123456789"),
)
_Loader.add_implicit_resolver(
    _FLOAT,
    re.compile(r"""^(?:[-+]?(?:[0-9][0-9_]*)\.[0-9_]*(?:[eE][-+][0-9]+)?
                |\.[0-9][0-9_]*(?:[eE][-+][0-9]+)?
                |[-+]?\.(?:inf|Inf|INF)
                |\.(?:nan|NaN|NAN)
                |[-+]?[0-9]+(?:\.[0-9]*)?[eE][-+]?[0-9]+)$""", re.X),
    list("-+0123456789."),
)


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
    sensors: tuple[SensorKind, ...] = ()

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
    RULES = (("end", lambda v: v.end >= v.start, "must be >= start"),)

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
    RULES = (("end", lambda e: e.end >= e.start, "must be >= start"),
             ("magnitude", lambda e: e.kind != "leak" or e.magnitude > 0,
              "leak needs a positive magnitude"),
             ("radius", lambda e: e.kind != "leak" or e.radius > 0, "must be positive"))


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
    RULES = (("gate_w_min", lambda f: (f.gate_w_min or 0.0) <= f.gate_w_max,
              "must not exceed gate_w_max"),)


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


# a value echoed in an error, its repr cut short: a CSV passed as the
# scenario reads as one long string, and an override may hold a long list
_short = reprlib.repr


def _wrong_type(where, expected: str, value) -> str:
    """The one wording for a value of the wrong type."""
    return f"{where}: expected {expected}, got {_short(value)}"


def _build_section(cls, data, prefix, errors, converters=None):
    """Build section `cls` from a mapping. Keys must be fields of `cls`,
    fields without a default must be present, and after the converters,
    called as (value, where, errors), values of scalar fields must have the
    field's type and lie within its bound in `cls.BOUNDS`; floats must be
    finite, and integers given for them become floats. A section whose
    fields all pass must then pass each (field, test, text) of its RULES."""
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
            value = converters[key](value, f"{prefix}.{key}", errors)
        accepts, expected = _SCALAR_TYPES.get(types[key], (None, None))
        if accepts is not None and not accepts(value):
            errors.append(_wrong_type(f"{prefix}.{key}", expected, value))
            valid = False
            continue
        if value is not None and types[key] in ("float", "Optional[float]"):
            value = float(value)
        bound = cls.BOUNDS.get(key)
        if bound and value is not None and not _BOUNDS[bound](value):
            errors.append(f"{prefix}.{key}: must be {bound}, got {_short(value)}")
            valid = False
        kwargs[key] = value
    if not valid:
        return None
    section = cls(**kwargs)
    errors += [f"{prefix}.{field}: {text}"
               for field, test, text in getattr(cls, "RULES", ()) if not test(section)]
    return section


def _at(data: dict, key: str, default):
    """data[key], or `default` where the key is absent or null (an empty YAML section)."""
    value = data.get(key)
    return default if value is None else value


def _as_list(value, where, errors) -> list:
    """value as a list; null, an empty YAML list, is []."""
    if value is None or isinstance(value, list):
        return value or []
    errors.append(_wrong_type(where, "a list", value))
    return []


def _entries(data: dict, key: str, where: str, cls, errors, converters=None) -> tuple:
    """Each entry of the list at data[key], built as section `cls`."""
    return tuple(_build_section(cls, raw, f"{where}[{i}]", errors, converters)
                 for i, raw in enumerate(_as_list(data.get(key), where, errors)))


def _parse_kind(value, where, errors):
    try:
        return SensorKind(value)
    except ValueError:
        errors.append(f"{where}: unknown sensor kind {_short(value)}")
        return None


def _parse_sensors(value, where, errors) -> tuple[SensorKind, ...]:
    kinds = []
    for s in _as_list(value, where, errors):
        kind = _parse_kind(s, where, errors)
        if kind in kinds:
            errors.append(f"{where}: {kind.value} listed twice")
        elif kind is not None:
            kinds.append(kind)
    return tuple(kinds)


def scenario_from_dict(data: dict, name: str = "scenario") -> ScenarioConfig:
    """Build and validate a ScenarioConfig; raises ConfigError on any problem.

    Validation runs in two passes. The first checks every field and entry
    on its own: its type, its bound and the rules within one entry. Only a
    scenario that passes it is built, and the second pass, `_check_cross`,
    checks how its sections relate. Each pass reports all of its problems
    at once, so a scenario with problems of both kinds reports its field
    errors first and its cross-section errors on the next run."""
    if not isinstance(data, dict):
        raise ConfigError([_wrong_type("top level", "a mapping", data)])
    errors = [f"{key}: unknown key" for key in data if key not in ScenarioConfig._fields]
    name = data.get("name", name)
    if not isinstance(name, str):
        errors.append(_wrong_type("name", "a string", name))
    seed = data.get("seed")
    if seed is None:
        errors.append("seed: required for reproducibility")
    elif not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        errors.append(_wrong_type("seed", "a non-negative integer", seed))
    horizon = data.get("horizon")
    if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 1:
        errors.append(_wrong_type("horizon", "a positive integer", horizon))
    elif horizon > MAX_HORIZON:
        errors.append(f"horizon: {horizon} ticks exceeds the maximum of {MAX_HORIZON:,}")

    # a section or entry that fails is None; the config is built only when none did
    topology = _parse_topology(data.get("topology"), errors)
    signals = _parse_signals(_at(data, "signals", {}), errors)
    events = _entries(data, "events", "events", EventSpec, errors)
    # YAML 1.1 reads a bare `off` as boolean False
    fusion = _build_section(FusionConfig, _at(data, "fusion", {}), "fusion", errors,
                            {"consensus_policy": lambda v, *_: "off" if v is False else v})
    detection = _build_section(DetectionConfig, _at(data, "detection", {}), "detection", errors)
    energy = _build_section(EnergyConfig, _at(data, "energy", {}), "energy", errors)
    if errors:
        raise ConfigError(errors)

    config = ScenarioConfig(name, seed, horizon, topology, signals, events,
                            fusion, detection, energy)
    _check_cross(config, errors)
    if errors:
        raise ConfigError(errors)
    return config


def _parse_topology(data, errors) -> Optional[Topology]:
    if data is None:
        errors.append("topology: required")
        return None
    if not isinstance(data, dict):
        errors.append(_wrong_type("topology", "a mapping", data))
        return None
    nodes = _entries(data, "nodes", "topology.nodes", NodeSpec, errors,
                     {"sensors": _parse_sensors})
    heads = _entries(data, "cluster_heads", "topology.cluster_heads", ClusterSpec, errors,
                     {"peers": lambda v, where, errors: tuple(_as_list(v, where, errors))})
    uav = _at(data, "uav", {})
    if not isinstance(uav, dict):
        errors.append(_wrong_type("topology.uav", "a mapping", uav))
        uav = {}
    errors += [f"topology.uav.{key}: unknown key" for key in uav if key != "patrol"]
    patrol = _entries(uav, "patrol", "topology.uav.patrol", UavVisit, errors)
    gateway_id = data.get("gateway_id", "gw")
    if not isinstance(gateway_id, str):
        errors.append(_wrong_type("topology.gateway_id", "a string", gateway_id))
    known = ("nodes", "cluster_heads", "uav", "gateway_id")
    errors += [f"topology.{key}: unknown key" for key in data if key not in known]
    return Topology(nodes, heads, gateway_id, patrol)


def _parse_signals(data, errors) -> dict:
    signals = {}
    if not isinstance(data, dict):
        errors.append(_wrong_type("signals", "a mapping", data))
        return signals
    for key, raw in data.items():
        kind = _parse_kind(key, "signals", errors)
        if kind is not None and kind.is_binary:
            errors.append(f"signals.{key}: binary kinds take no signal spec")
        elif kind is not None:
            signals[kind] = _build_section(SignalSpec, raw, f"signals.{key}", errors)
    return signals


def _check_cross(config: ScenarioConfig, errors) -> None:
    """The checks that relate two sections of a scenario whose every field
    passed: the events and the reporting window against the horizon; the
    topology's ids and links and the UAV patrol's clusters; and the sensor
    kinds the nodes carry against the signal specs, the events and the gate
    floors. An empty nodes or cluster-heads list stops the checks that name
    node or cluster ids, since each of them would follow from it."""
    topology, horizon, fusion = config.topology, config.horizon, config.fusion
    errors += [f"events[{i}].end: tick {e.end} outside horizon {horizon}"
               for i, e in enumerate(config.events) if e.end >= horizon]
    if horizon % config.detection.window:
        errors.append(
            f"detection.window: {config.detection.window} must divide the horizon "
            f"{horizon}, so that every tick falls in a reporting window"
        )

    if not topology.nodes:
        errors.append("topology.nodes: at least one node required")
    if not topology.cluster_heads:
        errors.append("topology.cluster_heads: at least one cluster head required")
    if not (topology.nodes and topology.cluster_heads):
        return
    head_ids = {c.cluster_id for c in topology.cluster_heads}
    errors += [f"topology.uav.patrol[{i}].cluster_id: unknown cluster {_short(v.cluster_id)}"
               for i, v in enumerate(topology.uav_patrol) if v.cluster_id not in head_ids]
    # nodes, cluster heads and the gateway share one id space
    ids = [("topology.nodes", n.node_id) for n in topology.nodes]
    ids += [("topology.cluster_heads", c.cluster_id) for c in topology.cluster_heads]
    owners = {}
    for where, id_ in ids + [("topology.gateway_id", topology.gateway_id)]:
        if id_ in owners:
            errors.append(f"{where}: id {_short(id_)} is already used in {owners[id_]}")
        owners.setdefault(id_, where)
    for n in topology.nodes:
        if not n.sensors:
            errors.append(f"topology.nodes[{n.node_id}].sensors: at least one sensor required")
        if n.cluster_id not in head_ids:
            errors.append(
                f"topology.nodes[{n.node_id}].cluster_id: unknown cluster {_short(n.cluster_id)}"
            )
    with_members = {n.cluster_id for n in topology.nodes}
    for c in topology.cluster_heads:
        if c.cluster_id not in with_members:
            errors.append(f"topology.cluster_heads[{c.cluster_id}]: cluster has no member nodes")
        for p in c.peers:
            if p not in head_ids:
                errors.append(
                    f"topology.cluster_heads[{c.cluster_id}].peers: unknown cluster {_short(p)}"
                )
            if p == c.cluster_id:
                errors.append(f"topology.cluster_heads[{c.cluster_id}].peers: self link")
    if len(head_ids) > 1 and not topology.peer_graph(head_ids).is_connected():
        errors.append("topology.cluster_heads: peer graph must be connected")

    node_kinds = {k for n in topology.nodes for k in n.sensors}
    for kind in sorted(k for k in node_kinds if not k.is_binary):
        if kind not in config.signals:
            errors.append(f"signals.{kind.value}: required (kind appears in topology)")
    has_binary = any(k.is_binary for k in node_kinds)
    for i, event in enumerate(config.events):
        if event.kind == "intrusion" and not has_binary:
            errors.append(f"events[{i}]: intrusion needs a node with pir/magnetic sensors")
        if event.kind == "leak" and SensorKind.PRESSURE not in node_kinds:
            errors.append(f"events[{i}]: leak needs a node with a pressure sensor")
    # under FUSVAF, the floor derived for each analog kind must not exceed
    # gate_w_max; the error names the field whose term sets the floor
    if not fusion.cluster_fusvaf or fusion.gate_w_min is not None:
        return
    for kind in sorted(node_kinds & config.signals.keys()):
        floor, deadband = _derived_floor(fusion, config.signals[kind].noise_std)
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
            target[keys[-1]] = yaml.load(raw_value, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ConfigError([f"override {item!r}: invalid YAML value: {exc}"]) from None
        except ValueError as exc:  # an integer of more than 4,300 digits
            raise ConfigError([f"override {path!r}: cannot read the value: {exc}"]) from None
    return result


def load_scenario(path, overrides=(), seed: Optional[int] = None) -> ScenarioConfig:
    """Load, override, and validate a scenario YAML file."""
    path = Path(path)
    try:
        data = yaml.load(path.read_text(encoding="utf-8"), Loader=_Loader)
    except OSError as exc:
        raise ConfigError([f"{path}: {exc}"]) from None
    except yaml.YAMLError as exc:
        raise ConfigError([f"{path}: invalid YAML: {exc}"]) from None
    except ValueError as exc:  # not UTF-8, or an integer of more than 4,300 digits
        raise ConfigError([f"{path}: cannot read: {exc}"]) from None
    if not isinstance(data, dict):
        raise ConfigError([_wrong_type(path, "a mapping", data)])
    if overrides:
        data = apply_overrides(data, overrides)
    if seed is not None:
        data = {**data, "seed": seed}
    return scenario_from_dict(data, name=path.stem)
