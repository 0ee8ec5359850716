#!/usr/bin/env python3
"""Produce the plot-ready CSVs for the three methods on the bundled fixtures.

Each figure is the output of one `pipefuse` command, run in-process.

Outputs (default out/figures/):
  ekf_estimates.csv      scalar filter over the 20-sample stream, q = r = 0.1
  fused_temperature.csv  two-node temperature fusion
  fused_humidity.csv     two-node humidity fusion
  consensus_mse.csv      agreement decay on the complete graph of 3 agents
"""

import argparse
import sys
import tempfile
from pathlib import Path

from pipefuse import cli

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "scenarios" / "fixtures"

# figure name -> pipefuse argv; the fusvaf gate floor is sized to each pair:
# ~4x sensor noise plus inter-node offset
FIGURES = {
    "ekf_estimates.csv": ["ekf", "--trace", f"{FIXTURES}/ekf_20_samples.csv",
                          "--q", "0.1", "--r", "0.1"],
    "fused_temperature.csv": ["fusvaf", "--trace", f"{FIXTURES}/temperature_node_a.csv",
                              "--trace", f"{FIXTURES}/temperature_node_b.csv",
                              "--w-min", "1.0", "--initial-width", "5.0"],
    "fused_humidity.csv": ["fusvaf", "--kind", "humidity",
                           "--trace", f"{FIXTURES}/humidity_node_a.csv",
                           "--trace", f"{FIXTURES}/humidity_node_b.csv",
                           "--w-min", "2.5", "--initial-width", "5.0"],
    "consensus_mse.csv": ["consensus", "--values", "1,2,3"],
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=ROOT / "out" / "figures", type=Path)
    out = parser.parse_args().out
    out.mkdir(parents=True, exist_ok=True)
    for figure, argv in FIGURES.items():
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            if cli.main(["--quiet", *argv, "--out", tmp]) != 0:
                sys.exit(f"{figure}: pipefuse {argv[0]} failed")
            (written,) = Path(tmp).iterdir()
            written.replace(out / figure)
        print(f"{figure}: pipefuse {argv[0]}")


if __name__ == "__main__":
    main()
