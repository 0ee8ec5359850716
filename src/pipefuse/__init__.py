"""Multi-level sensor fusion toolkit and deterministic pipeline-monitoring simulator."""

from .core import (
    ANALOG_KINDS,
    BINARY_KINDS,
    MixedSensorKindError,
    SensorKind,
    Trace,
    TraceError,
    load_trace,
    merge_traces,
    save_trace,
    trace_from_pairs,
)

__all__ = [
    "ANALOG_KINDS",
    "BINARY_KINDS",
    "MixedSensorKindError",
    "SensorKind",
    "Trace",
    "TraceError",
    "load_trace",
    "merge_traces",
    "save_trace",
    "trace_from_pairs",
]

__version__ = "0.1.0"
