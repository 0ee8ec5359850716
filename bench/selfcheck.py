#!/usr/bin/env python3
"""Quick self-check of the benchmark itself.

    python3 bench/selfcheck.py

Runs every workload of BENCHMARK.json once at reduced size, untraced and
traced, and fails (exit 1) if a run crashes, reports incorrect outputs,
or leaves out a declared metric or its unit. Takes well under a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(workload: str, trace: int, declared: dict) -> list:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--quick"],
        stdout=subprocess.PIPE, text=True, timeout=170, cwd=ROOT,
    )
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{where}: exited {proc.returncode}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} "
                        f"attempted={result.get('attempted')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    for name, unit in declared.items():
        got = metrics.get(name)
        if not isinstance(got, dict) or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: metric {name} missing")
        elif got.get("unit") != unit:
            problems.append(f"{where}: metric {name} has unit {got.get('unit')!r}, not {unit!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[section]}
            found = check(workload, trace, declared)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
