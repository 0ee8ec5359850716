#!/usr/bin/env python3
"""Regenerate the bundled CSV fixtures under scenarios/fixtures/.

Deterministic: running this script twice produces identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from pipefuse.core import SensorKind, save_trace, trace_from_pairs, write_csv

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios" / "fixtures"


def write_trace(name, values, kind, node_id):
    trace = trace_from_pairs(list(enumerate(values)), node_id, kind)
    save_trace(trace, FIXTURES / name)
    print(f"wrote {FIXTURES / name} ({len(values)} rows)")


def main():
    FIXTURES.mkdir(parents=True, exist_ok=True)

    # 20-sample noisy stream around 20.0 for the scalar filter demo
    rng = np.random.default_rng(7)
    samples = np.round(20.0 + rng.normal(0.0, np.sqrt(0.1), size=20), 6)
    write_trace("ekf_20_samples.csv", samples, SensorKind.TEMPERATURE, "n0")

    # two ground nodes measuring the same slow temperature swing; node b
    # carries a short glitch so the gate has something to reject
    rng = np.random.default_rng(21)
    t = np.arange(200)
    base = 22.0 + 1.5 * np.sin(2 * np.pi * t / 200.0)
    node_a = np.round(base + rng.normal(0, 0.15, size=200), 6)
    node_b = np.round(base + 0.2 + rng.normal(0, 0.15, size=200), 6)
    node_b[120] += 12.0  # transient sensor glitch
    write_trace("temperature_node_a.csv", node_a, SensorKind.TEMPERATURE, "node_a")
    write_trace("temperature_node_b.csv", node_b, SensorKind.TEMPERATURE, "node_b")

    # matching humidity pair, anti-correlated with the temperature swing
    rng = np.random.default_rng(22)
    base = 45.0 - 4.0 * np.sin(2 * np.pi * t / 200.0)
    hum_a = np.round(base + rng.normal(0, 0.4, size=200), 6)
    hum_b = np.round(base - 0.5 + rng.normal(0, 0.4, size=200), 6)
    write_trace("humidity_node_a.csv", hum_a, SensorKind.HUMIDITY, "node_a")
    write_trace("humidity_node_b.csv", hum_b, SensorKind.HUMIDITY, "node_b")

    # triangle peer graph for the consensus demo
    write_csv(FIXTURES / "k3_edges.csv", ["i", "j"], [(0, 1), (0, 2), (1, 2)])
    print(f"wrote {FIXTURES / 'k3_edges.csv'}")


if __name__ == "__main__":
    main()
