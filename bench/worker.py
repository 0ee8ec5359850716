"""Benchmark worker: loads one run's saved inputs and times, traces or
checks the workload's ops in a fresh process.

Started by run.py, never by hand. Modes:
  --probe    set-up only (import + load/validate inputs); prints setup_s
             at reference host speed
  --capture  run each default-seed variant once and write its goldens
  default    timed ops (--trace 0) or interleaved untraced/traced ops
             (--trace 1); prints one JSON line
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from pipefuse import cli, consensus, ekf, fusvaf  # noqa: E402
from pipefuse.core import SensorKind, trace_from_pairs  # noqa: E402
from pipefuse.sim import load_scenario  # noqa: E402
from pipefuse.sim.config import EnergyConfig  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

GOLDENS = HERE / "goldens"
SIM_OUTPUTS = ("metrics.csv", "detections.csv")
# Stop starting new ops after this long, so a badly regressed program still
# exits well inside the 180 s a run may take.
HARD_LIMIT_S = 120.0
# Fastest time of calibration_s() on the reference host (2-vCPU shared VM,
# Intel Xeon, Python 3.11.7, numpy 2.4.6) while no other tenant slowed it.
CALIBRATION_REFERENCE_S = 0.0095
# calibrations before every op, and after the last one
CALIBRATION_BURST = 8


@dataclass(frozen=True)
class _Cell:
    value: float
    matrix: object


def calibration_s() -> float:
    """Wall time of a fixed slice of work shaped like pipefuse's inner loops:
    small numpy products, frozen dataclasses and dict updates.

    On a shared host other tenants slow this process by up to 2x, switching
    between fast and slow many times a second, and the share of slow time
    drifts over minutes. The mean of many calibrations spread over a run
    measures how fast the host ran on average; the run's times are rescaled
    by CALIBRATION_REFERENCE_S / mean calibration, i.e. to reference speed.
    """
    started = perf_counter()
    x = np.array([[1.0, 0.1], [0.1, 2.0]])
    cells = []
    for i in range(1500):
        y = np.atleast_2d(x) @ x.T + 0.001 * i
        cells.append(_Cell(float(y[0, 0]), y))
    table = {}
    for i in range(40000):
        table[i % 977] = (i, i * 0.5)
    return perf_counter() - started


def calibrate(cals: list) -> None:
    cals.extend(calibration_s() for _ in range(CALIBRATION_BURST))


def host_speed(cals: list) -> float:
    """Reference calibration time ÷ this run's mean calibration time."""
    return CALIBRATION_REFERENCE_S / statistics.fmean(cals)


class SimWorkload:
    """One op = `pipefuse --quiet run --config <variant> --out <fresh dir>`."""

    def __init__(self, paths, work_dir: Path):
        self.paths = [Path(p) for p in paths]
        self.configs = [load_scenario(p) for p in self.paths]
        self.out = work_dir / "op"

    def items(self, variant: int, outputs: dict) -> int:
        config = self.configs[variant]
        return sum(len(n.sensors) for n in config.topology.nodes) * config.horizon

    def op(self, variant: int):
        if self.out.exists():
            shutil.rmtree(self.out)
        out = self.out
        path = str(self.paths[variant])
        return lambda: cli.main(["--quiet", "run", "--config", path, "--out", str(out)])

    def collect(self, variant: int, code) -> dict:
        """Op outputs, checked against the invariants that hold for any seed."""
        if code != 0:
            raise AssertionError(f"pipefuse run exited {code}")
        texts = {name: (self.out / name).read_text(encoding="utf-8") for name in SIM_OUTPUTS}
        row = _metrics_row(texts["metrics.csv"])
        levels = sum(int(row[f"{lvl}_bits"]) for lvl in ("node", "cluster", "consensus", "alert"))
        if levels != int(row["total_bits"]):
            raise AssertionError(f"per-level bits {levels} != total_bits {row['total_bits']}")
        if int(row["events"]) != len(self.configs[variant].events):
            raise AssertionError("an injected event has no outcome row")
        if not (self.out / "summary.txt").is_file():
            raise AssertionError("summary.txt missing")
        return texts

    def written(self) -> tuple[int, int]:
        files = [p for p in self.out.rglob("*") if p.is_file()]
        return len(files), sum(p.stat().st_size for p in files)

    @staticmethod
    def identical(a: dict, b: dict) -> bool:
        return a == b

    matches_golden = identical

    @staticmethod
    def to_golden(outputs: dict) -> dict:
        return outputs

    def modelled(self, outputs: list) -> dict:
        rows = [_metrics_row(o["metrics.csv"]) for o in outputs]
        detected = sum(int(r["detected_events"]) for r in rows)
        detections = sum(int(r["detections"]) for r in rows)
        if not detected:
            raise RuntimeError("no injected event was detected; detection metrics undefined")
        latency = sum(float(r["mean_detection_latency"]) * int(r["detected_events"])
                      for r in rows if int(r["detected_events"]))
        return {
            "sim_bits": statistics.fmean(int(r["total_bits"]) for r in rows),
            "sim_energy_ops": statistics.fmean(float(r["total_energy"]) for r in rows),
            "sim_rmse_mean": statistics.fmean(float(r["rmse_mean"]) for r in rows),
            "sim_detect_latency_ticks": latency / detected,
            "sim_detect_rate": detected / sum(int(r["events"]) for r in rows),
            "sim_alarm_precision": (
                sum(int(r["detections"]) - int(r["false_positives"]) for r in rows) / detections
            ),
        }


def _metrics_row(text: str) -> dict:
    header, row = text.splitlines()[:2]
    return dict(zip(header.split(","), row.split(",")))


class LibraryWorkload:
    """One op = EKF over the range trace, FUSVAF over the redundant traces,
    then every consensus run, all through the public library API."""

    def __init__(self, paths):
        with np.load(paths[0]) as data:
            self.data = {k: data[k] for k in data.files}
        self.model = ekf.ProcessModel(
            4, wl.turn_model_f, wl.range_h, np.diag(wl.EKF_Q), np.array([[wl.EKF_R]])
        )
        self.init = ekf.FilterState(self.data["ekf_x0"], np.diag(wl.EKF_P0))
        self.ranges = trace_from_pairs(
            enumerate(self.data["ekf_ranges"], start=1), "ranger", SensorKind.PRESSURE
        )
        self.traces = [
            trace_from_pairs(enumerate(row), f"s{i}", SensorKind.TEMPERATURE)
            for i, row in enumerate(self.data["fusion_values"])
        ]
        self.adaptation = fusvaf.GateAdaptation()
        self.graph = consensus.CommGraph.from_edges(wl.AGENTS, wl.ring_with_chords(wl.AGENTS))
        self.states = [consensus.ConsensusState(row) for row in self.data["consensus_init"]]

    def op(self, variant: int):
        def run():
            points = ekf.run_filter(self.model, self.init, self.ranges)
            fused = fusvaf.fusvaf_stream(
                self.traces, fusvaf.FusionParams(), predictor=fusvaf.EkfPredictor(),
                adaptation=self.adaptation, adaptive_alpha=False,
            )
            runs = [consensus.run_consensus(s, self.graph) for s in self.states]
            return points, fused, runs
        return run

    def collect(self, variant: int, result) -> dict:
        points, fused, runs = result
        out = {
            "ekf_x": np.array([p.state.x_hat for p in points]),
            "ekf_P_last": np.array(points[-1].state.P),
            "fused": np.array([p.fused for p in fused]),
            "sigma": np.array([[r.sigma for r in p.readings] for p in fused]),
            "consensus_x": np.array([r.estimates for r in runs]),
            "consensus_rounds": np.array([r.iterations for r in runs], dtype=float),
        }
        if (len(points) != len(self.ranges)
                or out["sigma"].shape != self.data["fusion_values"].T.shape):
            raise AssertionError("an input reading produced no output")
        if not all(np.all(np.isfinite(a)) for a in out.values()):
            raise AssertionError("non-finite library output")
        if not all(r.converged for r in runs):
            raise AssertionError("consensus did not converge on a connected graph")
        initial = self.data["consensus_init"].mean(axis=1)
        drift = np.abs(out["consensus_x"].mean(axis=1) - initial)
        if np.any(drift > 1e-9 * np.maximum(1.0, np.abs(initial))):
            raise AssertionError("consensus did not preserve the mean")
        return out

    def items(self, variant: int, outputs: dict) -> int:
        agent_rounds = int(outputs["consensus_rounds"].sum()) * wl.AGENTS
        return len(self.ranges) + outputs["sigma"].size + agent_rounds

    def written(self) -> tuple[int, int]:
        return 0, 0

    @staticmethod
    def identical(a: dict, b: dict) -> bool:
        return all(np.array_equal(a[k], b[k]) for k in a)

    @staticmethod
    def matches_golden(outputs: dict, golden: dict) -> bool:
        return all(
            np.allclose(outputs[k][:: _STRIDE.get(k, 1)], np.array(v), rtol=1e-9, atol=1e-12)
            for k, v in golden.items()
        )

    @staticmethod
    def to_golden(outputs: dict) -> dict:
        return {k: v[:: _STRIDE.get(k, 1)].tolist() for k, v in outputs.items()}

    def modelled(self, outputs: list) -> dict:
        """The simulator's modelled metrics, applied to the library run: radio
        bits and op-equivalents of the same work under the default energy
        model, RMSE of the fused stream, and stuck-sensor alarms raised when
        a sensor's confidence stays zero for one gate window."""
        out = outputs[0]
        energy = EnergyConfig()
        rounds = int(out["consensus_rounds"].sum())
        bits = rounds * 2 * len(self.graph.edges) * energy.sample_bits
        ops = (energy.ekf_ops_per_update * len(out["ekf_x"])
               + energy.fusvaf_ops_per_value * out["sigma"].size
               + energy.consensus_ops_per_value * rounds * wl.AGENTS)
        window = self.adaptation.window
        onsets = [int(o) for o in self.data["stuck_onsets"]]

        def episode(sensor, tick):
            for onset in onsets:
                if sensor == wl.STUCK_SENSOR and onset <= tick < onset + wl.STUCK_TICKS + window:
                    return onset
            return None

        matched = [(episode(sensor, tick), tick) for sensor, tick in _stuck_alarms(out["sigma"], window)]
        latency = {}
        for onset, tick in matched:
            if onset is not None:
                latency.setdefault(onset, tick - onset)
        if not latency:
            raise RuntimeError("no stuck episode raised an alarm; detection metrics undefined")
        true_alarms = sum(1 for onset, _ in matched if onset is not None)
        return {
            "sim_bits": float(bits),
            "sim_energy_ops": float((ops + energy.ops_per_bit * bits) * energy.per_op_cost),
            "sim_rmse_mean": float(np.sqrt(np.mean((out["fused"] - self.data["fusion_level"]) ** 2))),
            "sim_detect_latency_ticks": statistics.fmean(latency.values()),
            "sim_detect_rate": len(latency) / len(onsets),
            "sim_alarm_precision": true_alarms / len(matched),
        }


# golden files keep every n-th row of the long per-tick series
_STRIDE = {"ekf_x": 10, "fused": 10, "sigma": 10}


def _stuck_alarms(sigma: np.ndarray, persistence: int) -> list:
    """(sensor, tick) each time a sensor's confidence has been zero for
    `persistence` consecutive ticks after the gate warm-up."""
    alarms = []
    for sensor in range(sigma.shape[1]):
        run = 0
        for tick in range(persistence, sigma.shape[0]):
            run = run + 1 if sigma[tick, sensor] == 0.0 else 0
            if run == persistence:
                alarms.append((sensor, tick))
    return alarms


class Tally:
    """Ops attempted and failed, plus each (workload, variant)'s first
    outputs, which every later op of that variant must reproduce exactly."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first: dict = {}

    def run(self, w, variant: int, fn, golden=None):
        """Run one op; returns (wall time, outputs), or None if it failed."""
        self.attempted += 1
        try:
            started = perf_counter()
            result = fn()
            elapsed = perf_counter() - started
            outputs = w.collect(variant, result)
            if not w.identical(outputs, self.first.setdefault((w, variant), outputs)):
                raise AssertionError("rerun of the same input gave different outputs")
            if golden is not None and not w.matches_golden(outputs, golden):
                raise AssertionError("outputs differ from the committed goldens")
        except Exception:  # an op failure is counted, reported and survived
            self.failed += 1
            print(f"op {self.attempted} (variant {variant}) failed:", file=sys.stderr)
            traceback.print_exc()
            return None
        return elapsed, outputs


def _load(name: str, paths, work: Path):
    if wl.WORKLOADS[name].kind == "sim":
        return SimWorkload(paths, work)
    return LibraryWorkload(paths)


def _goldens(name: str):
    path = GOLDENS / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else None


def timed(w, tally: Tally, count: int, seconds: float, goldens) -> tuple[dict, dict]:
    times, items, cals = [], [], []
    started = perf_counter()
    i = 0
    # every variant at least once, then repeat until time is up
    while ((i < count or perf_counter() - started < seconds)
           and perf_counter() - started < HARD_LIMIT_S):
        v = i % count
        calibrate(cals)
        done = tally.run(w, v, w.op(v), goldens[v] if goldens else None)
        if done is not None:
            times.append(done[0])
            items.append(w.items(v, done[1]))
        i += 1
    if not times:
        raise RuntimeError("every op failed")
    calibrate(cals)
    speed = host_speed(cals)
    # mean op time at reference speed; every raw op time stays in result.json
    metrics = {
        "run_s": statistics.fmean(times) * speed,
        "items_per_s": sum(items) / sum(times) / speed,
        **w.modelled([tally.first[w, v] for v in range(count) if (w, v) in tally.first]),
    }
    print(f"info: {len(times)} timed ops; wall time median {statistics.median(times):.4f} s, "
          f"fastest {min(times):.4f} s, slowest {max(times):.4f} s; host speed {speed:.3f} "
          f"of reference")
    return metrics, {"op_s": times, "calibration_s": cals, "host_speed": speed}


def traced(w, tally: Tally, count: int, seconds: float, goldens) -> tuple[dict, dict]:
    """Untraced and traced ops interleaved, whole cycles over the variants."""
    tracer = tracing.Tracer()
    untraced = []
    started = perf_counter()
    op_id = 0
    while op_id == 0 or (perf_counter() - started < seconds
                         and perf_counter() - started < HARD_LIMIT_S):
        for v in range(count):
            golden = goldens[v] if goldens else None
            done = tally.run(w, v, w.op(v), golden)
            if done is not None:
                untraced.append(done[0])
            op = w.op(v)
            tally.run(w, v, lambda: tracer.run_op(op_id, op), golden)
            files, size = w.written()
            tracer.add(op_id, "cli.files_written", files)
            tracer.add(op_id, "cli.bytes_written", size)
            op_id += 1
    metrics, consistent, self_sum = tracer.metrics(statistics.median(untraced))
    if not consistent:
        print("span self times do not add up to the op time", file=sys.stderr)
    print(f"info: {op_id} traced ops; self times per op sum to {self_sum:.4f} s, "
          f"untraced op {statistics.median(untraced):.4f} s (medians)")
    info = {"op_s": untraced, "traced_ops": op_id, "traced_self_sum_s": self_sum,
            "spans_consistent": consistent, "absent": tracer.absent,
            "broken_counters": sorted(tracer.broken_counters)}
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--inputs", nargs="+", required=True)
    parser.add_argument("--golden-inputs", nargs="*", default=[])
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--use-goldens", action="store_true",
                        help="the inputs are the default-seed inputs the goldens hold")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--probe", action="store_true")
    mode.add_argument("--capture", action="store_true")
    args = parser.parse_args(argv)

    work = Path(args.work)
    w = _load(args.workload, args.inputs, work)
    if args.probe:
        setup = perf_counter() - _STARTED
        cals = []
        for _ in range(2):
            calibrate(cals)
        speed = host_speed(cals)
        print(json.dumps({"setup_s": setup * speed, "wall_s": setup, "host_speed": speed}))
        return 0
    count = len(args.inputs)

    if args.capture:
        tally = Tally()
        variants = [tally.run(w, v, w.op(v)) for v in range(count)]
        if tally.failed:
            return 1
        GOLDENS.mkdir(exist_ok=True)
        path = GOLDENS / f"{args.workload}.json"
        path.write_text(json.dumps([w.to_golden(o) for _, o in variants], indent=1) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")
        return 0

    goldens = _goldens(args.workload) if args.use_goldens else None
    tally = Tally()
    # One untimed op first warms the process up (lazy imports, allocator
    # growth, first file writes). Off the default seed it replays the
    # default-seed inputs and checks them against the committed goldens.
    if args.golden_inputs:
        check = _load(args.workload, args.golden_inputs, work)
        tally.run(check, 0, check.op(0), _goldens(args.workload)[0])
    else:
        tally.run(w, 0, w.op(0), goldens[0] if goldens else None)
    run = traced if args.trace else timed
    metrics, info = run(w, tally, count, args.seconds, goldens)
    if not args.trace:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["success_rate"] = (tally.attempted - tally.failed) / tally.attempted
    shutil.rmtree(work / "op", ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0 and info.get("spans_consistent", True),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
