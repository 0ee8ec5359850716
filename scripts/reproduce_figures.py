#!/usr/bin/env python3
"""Produce the plot-ready CSVs for the three methods on the bundled fixtures.

Outputs (default out/figures/):
  ekf_estimates.csv      scalar filter over the 20-sample stream, q = r = 0.1
  fused_temperature.csv  two-node temperature fusion
  fused_humidity.csv     two-node humidity fusion
  consensus_mse.csv      agreement decay on the triangle peer graph
"""

from __future__ import annotations

import argparse
from pathlib import Path

from pipefuse import consensus, ekf, fusvaf
from pipefuse.core import SensorKind, load_trace

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "scenarios" / "fixtures"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=ROOT / "out" / "figures", type=Path)
    args = parser.parse_args()
    out = args.out
    out.mkdir(parents=True, exist_ok=True)

    trace = load_trace(FIXTURES / "ekf_20_samples.csv", "n0", SensorKind.TEMPERATURE)
    model = ekf.random_walk_model(q=0.1, r=0.1)
    init = ekf.FilterState([trace.readings[0].value], [[1.0]])
    points = ekf.run_filter(model, init, trace)
    ekf.write_filter_csv(points, out / "ekf_estimates.csv")
    print(f"ekf_estimates.csv: {len(points)} rows")

    # gate floor sized to each pair: ~4x sensor noise plus inter-node offset
    for kind, name, floor in (
        (SensorKind.TEMPERATURE, "temperature", 1.0),
        (SensorKind.HUMIDITY, "humidity", 2.5),
    ):
        traces = [
            load_trace(FIXTURES / f"{name}_node_a.csv", "node_a", kind),
            load_trace(FIXTURES / f"{name}_node_b.csv", "node_b", kind),
        ]
        fused = fusvaf.fusvaf_columns(
            traces,
            fusvaf.FusionParams(alpha=1.0, omega=1.0),
            adaptation=fusvaf.GateAdaptation(w_min=floor, initial_half_width=5.0),
        )
        fusvaf.write_fusion_columns(fused, out / f"fused_{name}.csv")
        print(f"fused_{name}.csv: {len(fused.tick)} rows")

    run = consensus.run_consensus(
        consensus.ConsensusState([1.0, 2.0, 3.0]),
        consensus.CommGraph.complete(3),
        tol=1e-12,
    )
    consensus.write_mse_csv(run.mse_history, out / "consensus_mse.csv")
    print(f"consensus_mse.csv: {len(run.mse_history)} rows "
          f"(converged in {run.iterations} iterations)")


if __name__ == "__main__":
    main()
