"""In-memory span recorder that wraps pipefuse's public functions from outside.

The program is not edited: each wrapped function is replaced, in every
loaded ``pipefuse`` module that holds a reference to it, by a wrapper that
records a span (name, start, end, parent span, op id) and optional counters
derived from the call's arguments and result. Spans stay in memory until the
run ends; self time is a span's duration minus the durations of its direct
children.

A wrapped name that no longer exists (a later refactor removed it) is
recorded as absent, and the metrics that depend on it are left out.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import defaultdict
from time import perf_counter

OP_SPAN = "op"


def _node_counts(args, kwargs, result):
    return {"sim.stages.node_readings": len(args[0]), "sim.stages.node_reports": len(result.reports)}


def _cluster_counts(args, kwargs, result):
    member_reports = args[2]
    return {
        "sim.stages.cluster_windows": len(result.windows),
        "sim.stages.cluster_reports_in": sum(len(r) for r in member_reports.values()),
    }


def _fusvaf_counts(args, kwargs, result):
    sigmas = [r.sigma for p in result for r in p.readings]
    return {
        "fusvaf.points": len(result),
        "fusvaf.readings": len(sigmas),
        "fusvaf.zero_conf": sum(1 for s in sigmas if s == 0.0),
    }


def _consensus_counts(args, kwargs, result):
    return {
        "consensus.runs": 1,
        "consensus.rounds": result.iterations,
        "consensus.not_converged": 0 if result.converged else 1,
    }


# (module, attribute, span name, counter function)
LAYERS = [
    ("pipefuse.sim.config", "load_scenario", "sim.config.load", None),
    ("pipefuse.sim.world", "generate_world", "sim.world.generate",
     lambda a, k, r: {"sim.world.readings": sum(len(t) for t in r.traces.values())}),
    ("pipefuse.sim.stages", "node_stage", "sim.stages.node", _node_counts),
    ("pipefuse.sim.stages", "cluster_stage", "sim.stages.cluster", _cluster_counts),
    ("pipefuse.sim.stages", "hold_series", "sim.stages.hold_series", None),
    ("pipefuse.sim.stages", "consensus_stage", "sim.stages.consensus", None),
    ("pipefuse.ekf", "run_filter", "ekf.run_filter", None),
    ("pipefuse.ekf", "predict", "ekf.predict", None),
    ("pipefuse.ekf", "update", "ekf.update", lambda a, k, r: {"ekf.updates": 1}),
    ("pipefuse.ekf", "numeric_jacobian", "ekf.numeric_jacobian", None),
    ("pipefuse.fusvaf", "fusvaf_stream", "fusvaf.fusvaf_stream", _fusvaf_counts),
    ("pipefuse.consensus", "run_consensus", "consensus.run_consensus", _consensus_counts),
    ("pipefuse.sim.detect", "detect_events", "sim.detect.detect",
     lambda a, k, r: {"sim.detect.detections": len(r)}),
    ("pipefuse.sim.metrics", "tally_messages", "sim.metrics.tally", None),
    ("pipefuse.sim.metrics", "match_events", "sim.metrics.tally", None),
    ("pipefuse.sim.runner", "run_simulation", "sim.runner.run",
     lambda a, k, r: {"sim.runner.messages": len(r.messages)}),
    ("pipefuse.cli", "_write_run_outputs", "cli.write", None),
    ("pipefuse.cli", "write_summary", "cli.write", None),
]

# per-layer metric -> (span name, "total" | "self"); value is the median per op
TIME_METRICS = {
    "ekf.run_filter_s": ("ekf.run_filter", "total"),
    "ekf.predict_s": ("ekf.predict", "total"),
    "ekf.update_s": ("ekf.update", "total"),
    "ekf.numeric_jacobian_s": ("ekf.numeric_jacobian", "total"),
    "fusvaf.fusvaf_stream_s": ("fusvaf.fusvaf_stream", "total"),
    "sim.stages.cluster_s": ("sim.stages.cluster", "total"),
    "sim.stages.cluster_self_s": ("sim.stages.cluster", "self"),
    "sim.stages.hold_series_s": ("sim.stages.hold_series", "total"),
    "sim.stages.node_s": ("sim.stages.node", "total"),
    "sim.stages.node_self_s": ("sim.stages.node", "self"),
    "sim.world.generate_s": ("sim.world.generate", "total"),
    "cli.write_s": ("cli.write", "total"),
    "sim.detect.detect_s": ("sim.detect.detect", "total"),
    "sim.metrics.tally_s": ("sim.metrics.tally", "total"),
    "sim.runner.self_s": ("sim.runner.run", "self"),
    "sim.stages.consensus_s": ("sim.stages.consensus", "total"),
    "consensus.run_consensus_s": ("consensus.run_consensus", "total"),
    "sim.config.load_s": ("sim.config.load", "total"),
}

# per-layer metric -> span whose counter function produces it; value is the
# mean per op. cli.* counters are added by the worker from the op's outputs.
COUNT_METRICS = {
    "ekf.updates": "ekf.update",
    "fusvaf.points": "fusvaf.fusvaf_stream",
    "fusvaf.readings": "fusvaf.fusvaf_stream",
    "sim.stages.cluster_windows": "sim.stages.cluster",
    "sim.stages.cluster_reports_in": "sim.stages.cluster",
    "sim.stages.node_reports": "sim.stages.node",
    "sim.world.readings": "sim.world.generate",
    "cli.bytes_written": OP_SPAN,
    "cli.files_written": OP_SPAN,
    "sim.detect.detections": "sim.detect.detect",
    "sim.runner.messages": "sim.runner.run",
    "consensus.runs": "consensus.run_consensus",
    "consensus.rounds": "consensus.run_consensus",
    "consensus.not_converged": "consensus.run_consensus",
}

# per-layer metric -> (numerator counter, denominator counter, span)
RATIO_METRICS = {
    "fusvaf.zero_conf_ratio": ("fusvaf.zero_conf", "fusvaf.readings", "fusvaf.fusvaf_stream"),
    "sim.stages.node_report_ratio": (
        "sim.stages.node_reports", "sim.stages.node_readings", "sim.stages.node"),
}


class Tracer:
    """Records spans and counters of the ops run through run_op."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.op_ids: list = []
        self.counters: dict = defaultdict(lambda: defaultdict(float))
        self.absent: list = []  # "module.attr" names that no longer exist
        self.spans: set = {OP_SPAN}  # span names with at least one wrapped function
        self.broken_counters: set = set()
        self._stack: list = []
        self._op = -1
        self._patches: list = []  # (namespace dict, key, original, wrapper)
        self._resolve()

    def _resolve(self):
        wrappers = {}
        for module_name, attr, span, count in LAYERS:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrappers[id(original)] = (original, self._wrap(original, span, count))
            self.spans.add(span)
        # rebind every reference, including `from x import f` copies
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "pipefuse" or mod_name.startswith("pipefuse.")):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((namespace, key, value, hit[1]))

    def _wrap(self, fn, span, count):
        names, starts, ends = self.names, self.starts, self.ends
        parents, op_ids, stack = self.parents, self.op_ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(span)
            parents.append(stack[-1] if stack else -1)
            op_ids.append(self._op)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if count is not None:
                self._count(span, count, args, kwargs, result)
            return result

        return traced

    def _count(self, span, count, args, kwargs, result):
        try:
            values = count(args, kwargs, result)
        except (AttributeError, TypeError, KeyError, IndexError):
            self.broken_counters.add(span)
            return
        totals = self.counters[self._op]
        for key, value in values.items():
            totals[key] += value

    def add(self, op_id: int, key: str, value: float) -> None:
        self.counters[op_id][key] += value

    def run_op(self, op_id: int, fn):
        """Run fn() as one traced op under a root span."""
        for namespace, key, _, wrapper in self._patches:
            namespace[key] = wrapper
        self._op = op_id
        try:
            return self._wrap(fn, OP_SPAN, None)()
        finally:
            self._op = -1
            for namespace, key, original, _ in self._patches:
                namespace[key] = original

    def per_op(self):
        """{op_id: {span: [total_s, self_s]}} computed from the recorded spans."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0]))
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            cell = out[self.op_ids[i]][name]
            cell[0] += duration
            cell[1] += duration - child[i]
        return out

    def metrics(self, untraced_op_s: float):
        """Per-layer metrics over all traced ops, plus a consistency check:
        per op, the self times of all spans must add up to the root span."""
        ops = self.per_op()
        op_ids = sorted(ops)
        metrics = {}
        for metric, (span, which) in TIME_METRICS.items():
            if span in self.spans:
                col = 0 if which == "total" else 1
                metrics[metric] = statistics.median(ops[o][span][col] for o in op_ids)
        for metric, span in COUNT_METRICS.items():
            if span in self.spans and span not in self.broken_counters:
                metrics[metric] = sum(self.counters[o][metric] for o in op_ids) / len(op_ids)
        for metric, (num, den, span) in RATIO_METRICS.items():
            if span in self.spans and span not in self.broken_counters:
                n = sum(self.counters[o][num] for o in op_ids)
                d = sum(self.counters[o][den] for o in op_ids)
                metrics[metric] = n / d if d else 0.0
        traced_op_s = statistics.median(ops[o][OP_SPAN][0] for o in op_ids)
        metrics["trace_overhead_ratio"] = traced_op_s / untraced_op_s
        self_sums = [sum(cell[1] for cell in ops[o].values()) for o in op_ids]
        consistent = all(
            abs(s - ops[o][OP_SPAN][0]) <= 1e-6 * max(1.0, ops[o][OP_SPAN][0])
            for o, s in zip(op_ids, self_sums)
        )
        return metrics, consistent, statistics.median(self_sums)
