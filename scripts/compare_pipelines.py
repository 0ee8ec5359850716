#!/usr/bin/env python3
"""Paired comparison: fused pipeline vs. all-raw forwarding, same seed.

Runs the given scenario twice (as configured, and with every fusion stage
switched off) and prints the traffic, energy, and accuracy deltas.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from pipefuse.sim import load_scenario, run_simulation

ROOT = Path(__file__).resolve().parent.parent
RAW_OVERRIDES = [
    "fusion.node_ekf=false",
    "fusion.cluster_fusvaf=false",
    "fusion.consensus_policy=off",
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=ROOT / "scenarios" / "baseline_10node.yaml")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    fused = run_simulation(load_scenario(args.config, seed=args.seed)).metrics
    raw = run_simulation(load_scenario(args.config, RAW_OVERRIDES, args.seed)).metrics

    reduction = 100.0 * (1.0 - fused.total_bits / raw.total_bits)
    print(f"{'':24} {'fused':>14} {'all-raw':>14}")
    print(f"{'messages':24} {fused.total_messages:>14} {raw.total_messages:>14}")
    print(f"{'bits':24} {fused.total_bits:>14} {raw.total_bits:>14}")
    print(f"{'radio energy':24} {fused.radio_energy:>14.3e} {raw.radio_energy:>14.3e}")
    print(f"{'compute ops':24} {fused.compute_ops:>14} {raw.compute_ops:>14}")
    print(f"{'total energy':24} {fused.total_energy:>14.3e} {raw.total_energy:>14.3e}")
    print(f"{'rmse (mean)':24} {fused.rmse_mean:>14.4f} {raw.rmse_mean:>14.4f}")
    print()
    print(f"bit reduction: {reduction:.1f}%   "
          f"rmse ratio: {fused.rmse_mean / raw.rmse_mean:.3f}")


if __name__ == "__main__":
    main()
