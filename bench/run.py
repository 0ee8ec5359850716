#!/usr/bin/env python3
"""pipefuse benchmark.

    python3 bench/run.py --workload fused_10node --seed 42 --seconds 30 --trace 0

Generates the workload's inputs from --seed, validates them and saves them
under .bench_run/ (each scenario replays with `pipefuse run --config`).
With --trace 0 it measures set-up time in several fresh processes, then
times the workload's ops in one more fresh worker process; with --trace 1
the worker interleaves untraced and traced ops and reports per-layer
metrics instead. Every op's outputs are checked. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Workloads, metrics and bounds are defined in BENCHMARK.json; see
bench/README.md for what each one measures and why.
"""

import os

# one BLAS thread in this process and every worker it starts
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pipefuse  # noqa: E402,F401  (fails fast where the program is missing)

import workloads as wl  # noqa: E402

WORKER = HERE / "worker.py"
RUNS_DIR = ROOT / ".bench_run"
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0


def _child(args, deadline: float) -> dict:
    """Run a worker to completion; return the JSON of its last output line."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args[:2])} exited {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def _declared_units(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _info() -> dict:
    import numpy

    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in (ROOT / "src").rglob("*.py")
    )
    return {
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes and no goldens (used by bench/selfcheck.py)")
    parser.add_argument("--capture-goldens", action="store_true",
                        help="rewrite bench/goldens/<workload>.json from the default seed")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    deadline = time.monotonic() + RUN_LIMIT_S

    run_dir = RUNS_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    inputs = wl.write_inputs(args.workload, args.seed, args.quick, run_dir / "inputs")
    common = ["--workload", args.workload, "--work", str(run_dir / "work"),
              "--inputs", *map(str, inputs)]

    if args.capture_goldens:
        if args.seed != wl.DEFAULT_SEED or args.quick:
            parser.error(f"goldens are captured at full size with seed {wl.DEFAULT_SEED}")
        proc = subprocess.run([sys.executable, str(WORKER), "--capture", *common])
        return proc.returncode

    run_args = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if not args.quick:
        if args.seed == wl.DEFAULT_SEED:
            run_args.append("--use-goldens")
        else:
            golden = wl.write_inputs(args.workload, wl.DEFAULT_SEED, False, run_dir / "golden")
            run_args += ["--golden-inputs", *map(str, golden[:1])]

    # set-up probes before and after the timed worker, so that one slow
    # stretch of the machine does not colour all of them
    probes = 0 if args.trace else 1 if args.quick else SETUP_PROBES
    setup = [_child(["--probe", *common], deadline) for _ in range(probes // 2)]
    result = _child(run_args, deadline)
    setup += [_child(["--probe", *common], deadline) for _ in range(probes - len(setup))]
    info = {**result.pop("info"), "setup_probes": setup, **_info()}
    metrics = result["metrics"]
    if setup:
        metrics["setup_s"] = statistics.median(p["setup_s"] for p in setup)

    units = _declared_units(args.trace)
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {unknown}")
    result["metrics"] = {
        name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics
    }
    (run_dir / "result.json").write_text(json.dumps({**result, "info": info}, indent=1) + "\n",
                                         encoding="utf-8")
    shutil.rmtree(run_dir / "work", ignore_errors=True)
    shown = ("src_lines", "python", "numpy", "nproc", "absent")
    print("info: " + json.dumps({k: info[k] for k in shown if info.get(k)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
