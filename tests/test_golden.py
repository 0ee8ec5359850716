"""Byte-for-byte regression against outputs captured from the reference
implementation: the figure CSVs of scripts/reproduce_figures.py, and the
whole `pipefuse run` output tree of the bundled scenario, fused and all-raw,
pinned by one sha256 manifest per case."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pipefuse.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SCENARIO = ROOT / "scenarios" / "baseline_10node.yaml"
RAW_OVERRIDES = [
    "--override", "fusion.node_ekf=false",
    "--override", "fusion.cluster_fusvaf=false",
    "--override", "fusion.consensus_policy=off",
]


def relative_files(root: Path) -> list:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*.csv"))


def test_reproduce_figures_matches_golden(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_figures.py"), "--out", str(tmp_path)],
        check=True, env=env, capture_output=True,
    )
    golden = GOLDEN / "figures"
    assert relative_files(tmp_path) == relative_files(golden)
    for rel in relative_files(golden):
        assert (tmp_path / rel).read_bytes() == (golden / rel).read_bytes(), rel


def read_manifest(path: Path) -> dict:
    """`<sha256>  <relative path>` lines, as written by `sha256sum`."""
    entries = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        digest, _, rel = line.partition("  ")
        entries[rel] = digest
    return entries


@pytest.mark.parametrize("pipeline", ["fused", "raw"])
@pytest.mark.parametrize("seed", [0, 42])
def test_run_outputs_match_golden(tmp_path, pipeline, seed):
    args = ["--quiet", "run", "--config", str(SCENARIO), "--seed", str(seed),
            "--out", str(tmp_path)]
    if pipeline == "raw":
        args += RAW_OVERRIDES
    assert main(args) == 0
    expected = read_manifest(GOLDEN / "sim" / f"{pipeline}_seed{seed}" / "tree.sha256")
    produced = sorted(p.relative_to(tmp_path).as_posix()
                      for p in tmp_path.rglob("*") if p.is_file())
    assert produced == sorted(expected), "output tree has missing or extra files"
    for rel in produced:
        digest = hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest()
        assert digest == expected[rel], f"{rel} differs from the golden tree"
