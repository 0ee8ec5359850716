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
from itertools import repeat
from pathlib import Path
from typing import Iterable

import math
import operator
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


_NUMERIC = {float, int, bool, type(None)}  # repr() is the cell, "None" aside
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _format_cell(v) -> str:
    """One cell of any type, as write_columns's docstring says, quoted if needed."""
    if isinstance(v, str):
        text = str.__str__(v)  # csv.writer writes a str subclass's characters
    elif isinstance(v, (float, np.floating)):
        text = repr(float(v))
    elif v is None:
        text = ""
    else:
        text = str(v)
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _run_cells(values, none) -> list:
    """The cells of a float64 array, repr() once per run of bit-identical
    values and "" where `none`; None if most values differ from the last."""
    bits = values.view(np.int64)
    starts = np.flatnonzero(np.r_[True, (bits[1:] != bits[:-1]) | (none[1:] != none[:-1])])
    if 2 * len(starts) > len(values) + 1:
        return None
    texts = ["" if skip else repr(v)
             for v, skip in zip(values[starts].tolist(), none[starts].tolist())]
    return np.repeat(np.array(texts, dtype=object), np.diff(starts, append=len(values))).tolist()


def _format_column(column) -> list:
    if isinstance(column, np.ndarray):
        if column.dtype == float:
            cells = _run_cells(column, np.zeros(len(column), bool))
            return cells or list(map(repr, column.tolist()))
        column = column.tolist()
    types = set(map(type, column))
    if float in types and types <= {float, type(None)}:  # None is nan, told apart by `none`
        none = np.fromiter(map(operator.is_, column, repeat(None)), bool, len(column))
        if cells := _run_cells(np.array(column, dtype=float), none):
            return cells
    if types <= _NUMERIC:
        cells = list(map(repr, column))
        return list(map({"None": ""}.get, cells, cells)) if type(None) in types else cells
    return list(map(_format_cell, column))


def write_columns(path, header, columns) -> None:
    """Write one CSV file, given one column (a sequence or a 1-D numpy
    array) per header cell; every CSV that pipefuse writes goes through here.

    The file is UTF-8 and holds the same bytes as csv.writer with minimal
    quoting and `\\r\\n` line endings. Each cell is formatted here: None
    becomes an empty cell, any float (numpy floats included) becomes repr()
    of the Python float, i.e. the shortest string that reads back to the
    same value, and any other value is written as csv.writer writes it. The
    same run therefore writes the same bytes under any numpy version. Each
    run of equal floats, and each column object, is formatted once."""
    header = list(map(_format_cell, header))
    if not header:
        raise ValueError("a CSV header needs at least one column")
    if len(columns) != len(header) or len(set(map(len, columns))) > 1:
        raise ValueError(f"expected {len(header)} columns of one length")
    formatted = {id(column): column for column in columns}
    formatted = {key: _format_column(column) for key, column in formatted.items()}
    cells = [formatted[id(column)] for column in columns]
    if len(cells) == 1:  # csv.writer quotes a one-cell row that is empty
        header, cells = [h or '""' for h in header], [[c or '""' for c in cells[0]]]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\r\n")


def write_csv(path, header, rows) -> None:
    """write_columns from rows of cells (a generator, say). Every row must
    have one cell per header column; otherwise ValueError names the
    (1-based) data row."""
    rows = list(map(tuple, rows))
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ValueError(f"row {i}: expected {len(header)} cells, got {len(row)}")
    write_columns(path, header, list(zip(*rows)) or [()] * len(header))


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
