"""Shared domain types: sensor measurements, per-sensor traces, CSV input and
output.

A trace is the raw material every fusion method consumes: an ordered,
strictly increasing sequence of (tick, value) readings from one sensor on
one node. Ticks are abstract non-negative integers, not wall-clock time.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from pathlib import Path
from typing import Iterable

import math
import re

import numpy as np


class SensorKind(str, Enum):
    PRESSURE = "pressure"
    TEMPERATURE = "temperature"
    HUMIDITY = "humidity"
    PIR = "pir"
    MAGNETIC = "magnetic"

    @property
    def is_binary(self) -> bool:
        """Presence-type sensors report exactly 0.0 or 1.0."""
        return self in BINARY_KINDS


ANALOG_KINDS = (SensorKind.PRESSURE, SensorKind.TEMPERATURE, SensorKind.HUMIDITY)
BINARY_KINDS = (SensorKind.PIR, SensorKind.MAGNETIC)


class TraceError(ValueError):
    """A trace file or reading sequence violates the trace contract."""


class MixedSensorKindError(ValueError):
    """Traces of different sensor kinds cannot be merged."""


class ConfigError(ValueError):
    """A scenario configuration or a command-line argument is invalid;
    `errors` lists every offence."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class Measurement:
    """One timestamped scalar reading from a named sensor on a named node."""

    node_id: str
    sensor_kind: SensorKind
    timestamp: int
    value: float

    def __post_init__(self):
        if self.timestamp < 0:
            raise ValueError(f"timestamp must be non-negative, got {self.timestamp}")
        if not math.isfinite(self.value):
            raise ValueError(f"value must be finite, got {self.value}")
        if self.sensor_kind.is_binary and self.value not in (0.0, 1.0):
            raise ValueError(
                f"{self.sensor_kind.value} readings must be exactly 0.0 or 1.0, "
                f"got {self.value}"
            )


@dataclass(frozen=True)
class Trace:
    """Readings for one (node_id, sensor_kind), strictly increasing in time."""

    readings: tuple[Measurement, ...]

    def __post_init__(self):
        if not self.readings:
            raise TraceError("trace must contain at least one reading")
        first = self.readings[0]
        prev_ts = None
        for m in self.readings:
            if m.node_id != first.node_id or m.sensor_kind != first.sensor_kind:
                raise TraceError(
                    "all readings in a trace must share node_id and sensor_kind"
                )
            if prev_ts is not None and m.timestamp <= prev_ts:
                kind = "duplicate" if m.timestamp == prev_ts else "non-monotone"
                raise TraceError(
                    f"{kind} timestamp {m.timestamp} after {prev_ts} in trace "
                    f"({first.node_id}, {first.sensor_kind.value})"
                )
            prev_ts = m.timestamp

    @property
    def node_id(self) -> str:
        return self.readings[0].node_id

    @property
    def sensor_kind(self) -> SensorKind:
        return self.readings[0].sensor_kind

    @property
    def timestamps(self) -> tuple[int, ...]:
        return tuple(m.timestamp for m in self.readings)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(m.value for m in self.readings)

    def __len__(self) -> int:
        return len(self.readings)


def trace_from_pairs(pairs, node_id: str, sensor_kind: SensorKind) -> Trace:
    """Build a Trace from (timestamp, value) pairs."""
    return Trace(
        tuple(Measurement(node_id, sensor_kind, int(t), float(v)) for t, v in pairs)
    )


CSV_HEADER = ["timestamp", "value"]


def read_csv(path, header, parse) -> list:
    """`parse(row)` for each data row of a CSV file whose first row is
    `header`, blank rows skipped. Raises TraceError naming the file for an
    empty file or another header, and also the row (numbered from 1 below
    the header) for a row of another width or a ValueError from `parse`."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            raise TraceError(f"{path}: empty file")
        if [c.strip() for c in first] != header:
            raise TraceError(f"{path}: expected header {','.join(header)!r}, got {first!r}")
        items = []
        for row_num, row in enumerate(reader, start=1):
            if not row:
                continue
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                items.append(parse(row))
            except ValueError as exc:
                raise TraceError(f"{path}: row {row_num}: {exc}") from None
    return items


def load_trace(path, node_id: str, sensor_kind: SensorKind) -> Trace:
    """Read a `timestamp,value` CSV into a Trace.

    Raises TraceError as `read_csv` does, and for a file without data rows
    or timestamps that are not strictly increasing.
    """
    readings = read_csv(
        path, CSV_HEADER,
        lambda row: Measurement(node_id, sensor_kind, int(row[0]), float(row[1])),
    )
    if not readings:
        raise TraceError(f"{Path(path)}: no data rows")
    try:
        return Trace(tuple(readings))
    except TraceError as exc:
        raise TraceError(f"{Path(path)}: {exc}") from None


_FLOATS = (float, np.floating)
_BLOCK_ROWS = 256  # rows formatted per block; measured on the raw_long workload
_NUMERIC = {float, int, bool, type(None)}  # repr() is the cell, "None" aside
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _format_cell(v) -> str:
    """One cell of any type, as write_csv's docstring says, quoted if needed."""
    if isinstance(v, str):
        text = str.__str__(v)  # csv.writer writes a str subclass's characters
    elif isinstance(v, _FLOATS):
        text = repr(float(v))
    elif v is None:
        text = ""
    else:
        text = str(v)
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _format_column(column) -> list:
    types = set(map(type, column))
    if types <= _NUMERIC:
        cells = list(map(repr, column))
        if type(None) in types:
            cells = list(map({"None": ""}.get, cells, cells))
        return cells
    return list(map(_format_cell, column))


def _lines(columns) -> str:
    """Formatted columns as `\\r\\n`-terminated lines."""
    if len(columns) == 1:  # csv.writer quotes a one-cell row that is empty
        columns = [[cell or '""' for cell in columns[0]]]
    return "".join([",".join(row) + "\r\n" for row in zip(*columns)])


def write_csv(path, header, rows) -> None:
    """Write one CSV file; every CSV that pipefuse writes goes through here.

    The file is UTF-8 and holds the same bytes as csv.writer with minimal
    quoting and `\\r\\n` line endings. Each cell is formatted here: None
    becomes an empty cell, any float (numpy floats included) becomes repr()
    of the Python float, i.e. the shortest string that reads back to the
    same value, and any other value is written as csv.writer writes it. The
    same run therefore writes the same bytes under any numpy version. Every
    row must have exactly one cell per header column; otherwise ValueError
    names the (1-based) data row.
    """
    header = list(map(_format_cell, header))
    width = len(header)
    if not width:
        raise ValueError("a CSV header needs at least one column")
    rows = map(tuple, rows)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(_lines([[cell] for cell in header]))
        done = 0
        while block := list(islice(rows, _BLOCK_ROWS)):
            if set(map(len, block)) != {width}:
                i = next(i for i, row in enumerate(block) if len(row) != width)
                raise ValueError(
                    f"row {done + i + 1}: expected {width} cells, got {len(block[i])}"
                )
            fh.write(_lines([_format_column(column) for column in zip(*block)]))
            done += len(block)


def save_trace(trace: Trace, path) -> None:
    """Write a Trace as a `timestamp,value` CSV (inverse of load_trace)."""
    write_csv(path, CSV_HEADER, ((m.timestamp, m.value) for m in trace.readings))


def merge_traces(traces: Iterable[Trace]) -> list[tuple[int, list[Measurement]]]:
    """Time-align traces of one sensor kind into per-tick measurement groups.

    For every tick present in any trace, emits the measurements of the traces
    that have that tick; a trace missing a tick simply contributes nothing
    (no interpolation). Within a group, measurements keep the input trace
    order. Raises MixedSensorKindError if kinds differ.
    """
    traces = list(traces)
    if not traces:
        return []
    kinds = {t.sensor_kind for t in traces}
    if len(kinds) > 1:
        raise MixedSensorKindError(
            f"cannot merge traces of mixed sensor kinds: {sorted(k.value for k in kinds)}"
        )
    by_tick: dict[int, list[Measurement]] = {}
    for trace in traces:
        for m in trace.readings:
            by_tick.setdefault(m.timestamp, []).append(m)
    return [(tick, by_tick[tick]) for tick in sorted(by_tick)]
