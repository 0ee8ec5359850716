"""Seeded inputs for the benchmark's workloads.

Everything here runs before any timing. The same seed always gives the same
inputs; the program under test only ever sees the generated scenario files
(simulator workloads) or arrays (library workload) saved in the run
directory.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "scenarios" / "baseline_10node.yaml"
DEFAULT_SEED = 42


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sim" (one op = one `pipefuse run`) or "library"
    # Scenario variants derived from one seed. Their modelled metrics are
    # averaged, so that per-seed noise in bits and RMSE stays well inside
    # the metric bounds; variant 0 always uses the seed itself.
    variants: int
    quick_variants: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fused_10node", "sim", variants=8, quick_variants=1),
        Workload("raw_long", "sim", variants=1, quick_variants=1),
        Workload("library_nd", "library", variants=1, quick_variants=1),
    )
}


def variant_seeds(seed: int, count: int) -> list[int]:
    extra = np.random.default_rng(seed).integers(0, 2**31 - 1, size=count - 1)
    return [seed] + [int(s) for s in extra]


def _baseline() -> dict:
    return yaml.safe_load(BASELINE.read_text(encoding="utf-8"))


# ---------------------------------------------------------------- simulator

RAW_HORIZON = 4800
RAW_QUICK_HORIZON = 1200


def fused_10node(seed: int, quick: bool) -> dict:
    """The bundled reference scenario as configured, with its seed replaced."""
    data = _baseline()
    data["seed"] = seed
    return data


def raw_long(seed: int, quick: bool) -> dict:
    """All-raw pipeline (every fusion stage off) over a long horizon, with
    one leak and one intrusion placed by the seed.

    Events start on a window boundary, as in the bundled scenario, so the
    detection latency does not depend on the seed. The leak sits where at
    least three of its cluster's five pressure nodes see it, so the raw
    window mean crosses the threshold and the event is detectable.
    """
    data = _baseline()
    data["name"] = "raw_long"
    data["seed"] = seed
    horizon = RAW_QUICK_HORIZON if quick else RAW_HORIZON
    data["horizon"] = horizon
    data["fusion"].update(node_ekf=False, cluster_fusvaf=False, consensus_policy="off")
    window = data["detection"]["window"]
    rng = np.random.default_rng(seed)
    n_windows = horizon // window

    def start_tick():
        return window * int(rng.integers(10, n_windows - 20))

    leak_start = start_tick()
    leak_location = round(float(rng.uniform(20.0, 60.0)) + 100.0 * int(rng.integers(2)), 1)
    intrusion_start = start_tick()
    intrusion_location = round(float(rng.uniform(0.0, 180.0)), 1)
    data["events"] = [
        {"kind": "leak", "start": leak_start, "end": leak_start + 10,
         "location": leak_location, "magnitude": 40.0, "radius": 50.0},
        {"kind": "intrusion", "start": intrusion_start, "end": intrusion_start + 20,
         "location": intrusion_location},
    ]
    return data


SCENARIOS = {"fused_10node": fused_10node, "raw_long": raw_long}


def write_scenarios(name: str, seed: int, quick: bool, out_dir: Path) -> list[Path]:
    """Generate, validate and save every scenario variant of a workload.

    Each file replays with `pipefuse run --config <file>`; loading it back
    must give the config that was validated.
    """
    from pipefuse.sim import load_scenario, scenario_from_dict

    workload = WORKLOADS[name]
    count = workload.quick_variants if quick else workload.variants
    paths = []
    for i, s in enumerate(variant_seeds(seed, count)):
        data = SCENARIOS[name](s, quick)
        config = scenario_from_dict(copy.deepcopy(data), name=name)
        path = out_dir / f"scenario_{i}.yaml"
        path.write_text(yaml.safe_dump(data, sort_keys=False), encoding="utf-8")
        if load_scenario(path) != config:
            raise RuntimeError(f"{path}: saved scenario does not replay as validated")
        paths.append(path)
    return paths


# ------------------------------------------------------------------ library

# Nonlinear constant-speed turning target, observed by range to one beacon.
BEACON = (30.0, -40.0)
TURN = 0.02  # rad per tick
SPEED = 1.0
SPEED_GAIN = 0.05
EKF_Q = (1e-3, 1e-3, 1e-4, 1e-4)
EKF_R = 0.05
EKF_P0 = (0.1, 0.1, 0.0025, 0.0025)

FUSION_SENSORS = 5
FUSION_NOISE = 0.2
FUSION_SLOPE = 0.05
STUCK_SENSOR = FUSION_SENSORS - 1
STUCK_EVERY = 250  # ticks; one stuck episode in each such stretch
STUCK_TICKS = 60

AGENTS = 48


@dataclass(frozen=True)
class LibrarySize:
    ekf_steps: int
    fusion_ticks: int
    consensus_runs: int


# Fusion and consensus are sized so that the modelled metrics, which average
# over the stuck episodes and consensus runs, vary little from seed to seed.
LIBRARY_SIZE = LibrarySize(ekf_steps=1000, fusion_ticks=2000, consensus_runs=20)
LIBRARY_QUICK_SIZE = LibrarySize(ekf_steps=100, fusion_ticks=250, consensus_runs=2)


def turn_model_f(x: np.ndarray) -> np.ndarray:
    """Position integrates velocity; velocity turns by TURN and is pulled
    toward SPEED."""
    vx, vy = x[2], x[3]
    speed = float(np.hypot(vx, vy))
    pull = 1.0 + SPEED_GAIN * (SPEED - speed) / speed
    vx, vy = vx * pull, vy * pull
    c, s = np.cos(TURN), np.sin(TURN)
    return np.array([x[0] + x[2], x[1] + x[3], c * vx - s * vy, s * vx + c * vy])


def range_h(x: np.ndarray) -> np.ndarray:
    return np.array([np.hypot(x[0] - BEACON[0], x[1] - BEACON[1])])


def ring_with_chords(n: int) -> list[tuple[int, int]]:
    """Ring of n agents plus a diametral chord from every sixth agent."""
    return [(i, (i + 1) % n) for i in range(n)] + [(i, i + n // 2) for i in range(0, n // 2, 6)]


def library_inputs(seed: int, size: LibrarySize) -> dict:
    rng = np.random.default_rng(seed)

    heading = rng.uniform(0.0, 2.0 * np.pi)
    x = np.array([rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0),
                  SPEED * np.cos(heading), SPEED * np.sin(heading)])
    x0 = x + rng.normal(0.0, np.sqrt(EKF_P0))
    truth = np.empty((size.ekf_steps, 4))
    ranges = np.empty(size.ekf_steps)
    for k in range(size.ekf_steps):
        x = turn_model_f(x) + rng.normal(0.0, np.sqrt(EKF_Q))
        truth[k] = x
        ranges[k] = range_h(x)[0] + rng.normal(0.0, np.sqrt(EKF_R))

    ticks = size.fusion_ticks
    level = 20.0 + FUSION_SLOPE * np.arange(ticks)
    values = level[None, :] + rng.normal(0.0, FUSION_NOISE, (FUSION_SENSORS, ticks))
    onsets = np.array([start + int(rng.integers(20, STUCK_EVERY - STUCK_TICKS))
                       for start in range(0, ticks, STUCK_EVERY)])
    for onset in onsets:
        values[STUCK_SENSOR, onset:onset + STUCK_TICKS] = level[onset]

    consensus_init = rng.normal(100.0, 10.0, (size.consensus_runs, AGENTS))
    return {
        "ekf_truth": truth, "ekf_ranges": ranges, "ekf_x0": x0,
        "fusion_level": level, "fusion_values": values, "stuck_onsets": onsets,
        "consensus_init": consensus_init,
    }


def write_library_inputs(seed: int, quick: bool, out_dir: Path) -> Path:
    path = out_dir / "library.npz"
    np.savez(path, **library_inputs(seed, LIBRARY_QUICK_SIZE if quick else LIBRARY_SIZE))
    return path


def write_inputs(name: str, seed: int, quick: bool, out_dir: Path) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    if WORKLOADS[name].kind == "sim":
        return write_scenarios(name, seed, quick, out_dir)
    return [write_library_inputs(seed, quick, out_dir)]
