"""Command-line entry point.

Subcommands: run a scenario, sweep a parameter, replay CSV traces through
the individual fusion methods, validate a config. Exit codes: 0 success,
2 config error, 3 numeric/runtime error (an unusable input or output path
included), mapped in `main` alone.

Only `run`, `sweep` and `validate` import the simulator (and with it yaml),
at call time and by name from its modules, so the library commands start
without it and a function rebound in a module is the one that runs.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import consensus as consensus_mod
from . import ekf, fusvaf
from .core import ConfigError, MixedSensorKindError, SensorKind, TraceError, load_trace, read_csv

RUNTIME_ERRORS = (
    TraceError,
    MixedSensorKindError,
    ekf.NumericFailureError,
    fusvaf.DegenerateDenominatorError,
    consensus_mod.DisconnectedGraphError,
    OSError,  # a missing or unreadable input file, an --out that cannot be a directory
)

EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _fail(category: str, message: str) -> None:
    print(f"pipefuse: error [{category}] {message}", file=sys.stderr)


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_run_outputs(result, out: Path) -> list:
    from .sim.metrics import (
        metrics_row,
        write_consensus_runs_csv,
        write_detections_csv,
        write_metrics_csv,
        write_stream_csv,
    )

    files = []

    def record(path):
        files.append(str(path.relative_to(out)))
        return path

    write_metrics_csv([metrics_row(result.metrics)], record(out / "metrics.csv"))
    write_detections_csv(result.detections, record(out / "detections.csv"))
    write_consensus_runs_csv(result.consensus_runs, record(out / "consensus_mse.csv"))

    streams_dir = out / "streams"
    streams_dir.mkdir(exist_ok=True)
    for key in result.world.stream_keys():
        node_id, kind = key
        write_stream_csv(
            result.world.truth[key],
            result.world.traces[key],
            result.reported_series[key],
            record(streams_dir / f"{node_id}_{kind.value}.csv"),
        )

    fused_dir = out / "fused"
    fused_dir.mkdir(exist_ok=True)
    for (cluster_id, kind), stage in sorted(result.cluster_results.items()):
        if stage.fusion is not None:
            fusvaf.write_fusion_columns(
                stage.fusion, record(fused_dir / f"{cluster_id}_{kind.value}.csv")
            )
    return files


def write_summary(result, out_dir: Path, files: list) -> Path:
    """Human-readable run summary; lists every artifact written."""
    m = result.metrics
    lines = [
        f"scenario: {m.scenario}",
        f"seed: {m.seed}",
        f"horizon: {m.horizon} ticks",
        "",
        f"messages: node={m.node.messages} cluster={m.cluster.messages} "
        f"consensus={m.consensus.messages} alert={m.alert.messages} "
        f"total={m.total_messages}",
        f"bits: total={m.total_bits}",
        f"energy: radio={m.radio_energy} compute={m.compute_energy} "
        f"total={m.total_energy}",
        f"estimation rmse: mean={m.rmse_mean:.6g} max={m.rmse_max:.6g}",
        f"events: {len(m.event_outcomes)} injected, "
        f"{sum(1 for o in m.event_outcomes if o.latency is not None)} detected, "
        f"{m.false_positives} false positives",
    ]
    for o in m.event_outcomes:
        status = (
            f"detected at tick {o.detected_tick} (latency {o.latency})"
            if o.latency is not None
            else "not detected"
        )
        validated = " [validated]" if o.validated else ""
        lines.append(f"  event {o.index} ({o.kind} @ {o.start}): {status}{validated}")
    if m.suspected_faulty:
        lines.append("suspected faulty nodes:")
        for cluster_id, kind, node_id, window in m.suspected_faulty:
            lines.append(
                f"  {node_id} ({kind.value}) in {cluster_id}, window {window}"
            )
    lines.append("")
    lines.append("artifacts:")
    for f in files:
        lines.append(f"  {f}")
    lines.append("")
    path = out_dir / "summary.txt"
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def _simulate(config, out: Path):
    """Run a loaded scenario and write its outputs to out; returns the
    result and the path of its summary."""
    from .sim import run_simulation

    out.mkdir(parents=True, exist_ok=True)
    result = run_simulation(config)
    return result, write_summary(result, out, _write_run_outputs(result, out))


def cmd_run(args) -> int:
    from .sim import load_scenario

    out = Path(args.out)
    _, summary = _simulate(load_scenario(args.config, overrides=args.override, seed=args.seed), out)
    _say(args, summary.read_text(encoding="utf-8").rstrip())
    _say(args, f"outputs written to {out}")
    return 0


def cmd_sweep(args) -> int:
    key, _, values_raw = args.param.partition("=")
    values = [v for v in values_raw.split(",") if v]
    if not key or not values:
        raise ConfigError([f"--param {args.param!r}: expected key=v1,v2,..."])
    from .sim import load_scenario
    from .sim.metrics import metrics_row, write_metrics_csv

    configs = []  # every value is checked before any of them runs
    for value in values:
        args.error_prefix = f"{key}={value}: "
        overrides = list(args.override) + [f"{key}={value}"]
        configs.append(load_scenario(args.config, overrides=overrides, seed=args.seed))
    args.error_prefix = ""  # an unusable --out is no value's fault
    out = _out_dir(args)
    rows = []
    for value, config in zip(values, configs):
        args.error_prefix = f"{key}={value}: "
        sub = out / f"{key.replace('/', '_')}={value.replace('/', '_')}"
        result, _ = _simulate(config, sub)
        row = {"param": key, "value": value}
        row.update(metrics_row(result.metrics))
        rows.append(row)
        _say(args, f"{key}={value}: total_bits={result.metrics.total_bits} "
                   f"rmse_mean={result.metrics.rmse_mean:.6g}")
    sweep_path = out / "sweep_metrics.csv"
    write_metrics_csv(rows, sweep_path)
    _say(args, f"sweep metrics written to {sweep_path}")
    return 0


def cmd_validate(args) -> int:
    from .sim import load_scenario

    config = load_scenario(args.config)
    print(
        f"{args.config}: ok ({len(config.topology.nodes)} nodes, "
        f"{len(config.topology.cluster_heads)} clusters, horizon {config.horizon})"
    )
    return 0


def cmd_ekf(args) -> int:
    ekf.check_random_walk(args.q, args.r, args.p0)  # names the flag and its value
    if args.x0 is not None and not math.isfinite(args.x0):
        raise ValueError(f"x0 must be finite, got {args.x0}")
    trace = load_trace(args.trace, args.node_id, SensorKind(args.kind))
    model = ekf.random_walk_model(args.q, args.r)
    x0 = trace.values[0] if args.x0 is None else args.x0
    points = ekf.run_filter(model, ekf.FilterState([x0], [[args.p0]]), trace)
    path = _out_dir(args) / "ekf.csv"
    ekf.write_filter_csv(points, path)
    _say(args, f"{len(points)} estimates written to {path}")
    return 0


def cmd_fusvaf(args) -> int:
    kind = SensorKind(args.kind)
    traces = []
    for i, path in enumerate(args.trace):
        node_id = Path(path).stem
        while any(t.node_id == node_id for t in traces):
            node_id = f"{node_id}_{i}"
        traces.append(load_trace(path, node_id, kind))
    predictor = (
        fusvaf.SmoothingPredictor() if args.predictor == "smoothing"
        else fusvaf.EkfPredictor(args.q, args.r)
    )
    adaptation = fusvaf.GateAdaptation(
        k_sigma=args.k_sigma,
        w_min=args.w_min,
        w_max=args.w_max,
        window=args.window,
        initial_half_width=args.initial_width,
    )
    columns = fusvaf.fusvaf_columns(
        traces,
        fusvaf.FusionParams(args.alpha, args.omega),
        predictor=predictor,
        adaptation=adaptation,
    )
    path = _out_dir(args) / "fusvaf.csv"
    fusvaf.write_fusion_columns(columns, path)
    _say(args, f"{len(columns.tick)} fused ticks written to {path}")
    return 0


def cmd_consensus(args) -> int:
    try:
        values = [float(v) for v in args.values.split(",") if v]
    except ValueError:
        raise ConfigError([f"--values {args.values!r}: expected comma-separated numbers"]) from None
    if not values:
        raise ConfigError(["--values: at least one value required"])
    if args.edges is not None:
        def edge(row):  # a one-edge graph checks the row's range and self-loop
            i, j = map(int, row)
            consensus_mod.CommGraph.from_edges(len(values), [(i, j)])
            return i, j

        edges = read_csv(args.edges, ["i", "j"], edge)
        graph = consensus_mod.CommGraph.from_edges(len(values), edges)
    else:
        graph = consensus_mod.CommGraph.complete(len(values))
    run = consensus_mod.run_consensus(
        consensus_mod.ConsensusState(values), graph, tol=args.tol, max_iter=args.max_iter
    )
    path = _out_dir(args) / "consensus_mse.csv"
    consensus_mod.write_mse_csv(run.mse_history, path)
    status = "converged" if run.converged else "NOT converged (degraded confidence)"
    _say(args, f"{status} after {run.iterations} iterations; "
               f"agreed value {float(consensus_mod.estimate_mean(run.estimates))!r}")
    _say(args, f"mse history written to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pipefuse",
        description="Sensor-fusion toolkit and pipeline-monitoring simulator",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    parser.set_defaults(error_prefix="")  # sweep names the run that failed
    sub = parser.add_subparsers(dest="command", required=True)

    scenario = argparse.ArgumentParser(add_help=False)  # the flags of run and sweep
    scenario.add_argument("--config", required=True, help="scenario YAML path")
    scenario.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    scenario.add_argument("--out", default="out", help="output directory")
    scenario.add_argument("--override", action="append", default=[], metavar="K=V",
                          help="override a config key (dotted path), repeatable")
    run = sub.add_parser("run", parents=[scenario], help="run one scenario end to end")
    run.set_defaults(func=cmd_run)
    sweep = sub.add_parser("sweep", parents=[scenario],
                           help="run a scenario once per parameter value")
    sweep.add_argument("--param", required=True, metavar="K=V1,V2,...",
                       help="config key and comma-separated values")
    sweep.set_defaults(func=cmd_sweep)

    validate = sub.add_parser("validate", help="validate a scenario config (writes nothing)")
    validate.add_argument("--config", required=True)
    validate.set_defaults(func=cmd_validate)

    ekf_p = sub.add_parser("ekf", help="filter one trace CSV")
    ekf_p.add_argument("--trace", required=True, help="timestamp,value CSV")
    ekf_p.add_argument("--kind", default="temperature",
                       choices=[k.value for k in SensorKind])
    ekf_p.add_argument("--node-id", default="n0")
    ekf_p.add_argument("--q", type=float, default=0.1, help="process noise variance")
    ekf_p.add_argument("--r", type=float, default=0.1, help="measurement noise variance")
    ekf_p.add_argument("--x0", type=float, default=None,
                       help="initial estimate (default: first measurement)")
    ekf_p.add_argument("--p0", type=float, default=1.0, help="initial variance")
    ekf_p.add_argument("--out", default="out")
    ekf_p.set_defaults(func=cmd_ekf)

    fus = sub.add_parser("fusvaf", help="fuse one or more trace CSVs")
    fus.add_argument("--trace", required=True, action="append",
                     help="timestamp,value CSV (repeat per sensor)")
    fus.add_argument("--kind", default="temperature",
                     choices=[k.value for k in SensorKind])
    fus.add_argument("--alpha", type=float, default=1.0)
    fus.add_argument("--omega", type=float, default=1.0)
    fus.add_argument("--predictor", choices=["ekf", "smoothing"], default="ekf")
    fus.add_argument("--q", type=float, default=0.1)
    fus.add_argument("--r", type=float, default=0.1)
    fus.add_argument("--k-sigma", type=float, default=3.0)
    fus.add_argument("--w-min", type=float, default=0.1)
    fus.add_argument("--w-max", type=float, default=100.0)
    fus.add_argument("--window", type=int, default=10)
    fus.add_argument("--initial-width", type=float, default=None)
    fus.add_argument("--out", default="out")
    fus.set_defaults(func=cmd_fusvaf)

    cons = sub.add_parser("consensus", help="iterate consensus on a value vector")
    cons.add_argument("--values", required=True, help="comma-separated initial values")
    cons.add_argument("--edges", default=None,
                      help="edge CSV with header i,j (default: complete graph)")
    cons.add_argument("--tol", type=float, default=1e-12)
    cons.add_argument("--max-iter", type=int, default=10_000)
    cons.add_argument("--out", default="out")
    cons.set_defaults(func=cmd_consensus)

    return parser


def main(argv=None) -> int:
    """Run one command; the one place where its errors become exit codes.
    For the library commands a ValueError is a bad argument (exit 2)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for e in exc.errors:
            _fail("config-invalid", f"{args.error_prefix}{e}")
        return EXIT_CONFIG
    except RUNTIME_ERRORS as exc:
        _fail("runtime-failure", f"{args.error_prefix}{exc}")
        return EXIT_RUNTIME
    except ValueError as exc:
        if args.command not in ("ekf", "fusvaf", "consensus"):
            raise
        _fail("config-invalid", str(exc))
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
