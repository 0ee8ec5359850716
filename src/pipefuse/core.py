"""Shared domain types: per-sensor traces, the reading check, CSV input and
output.

A trace is the raw material every fusion method consumes: one sensor's
readings on one node, as a column of strictly increasing ticks and one of
values. Ticks are abstract non-negative integers, not wall-clock time.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import Iterable

import numbers
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


def check_stream(node_id: str, kind: SensorKind, values, ticks, non_finite=TraceError) -> None:
    """The one reading check: every value finite, and a binary kind's
    exactly 0.0 or 1.0. values[i] is the reading at tick ticks[i]. A
    non-finite value raises `non_finite`, a binary value other than 0 or 1
    TraceError; both name the stream and the first such tick."""
    values = np.asarray(values, dtype=float)
    stream = f"stream {node_id}:{kind.value}"
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise non_finite(f"{stream}: non-finite value {values[bad[0]]} at tick {ticks[bad[0]]}")
    if kind.is_binary:
        bad = np.flatnonzero((values != 0.0) & (values != 1.0))
        if bad.size:
            raise TraceError(
                f"{stream}: value {values[bad[0]]} at tick {ticks[bad[0]]} is not 0.0 or 1.0"
            )


def left_sum(values) -> float:
    """Sum of floats added left to right from 0.0: the builtin sum() up to
    Python 3.11. Every float sum that reaches an output uses it, since
    3.12's sum() compensates and its last bits would make the outputs
    depend on the Python version."""
    total = 0.0
    for value in values:
        total += value
    return total


def left_sums(rows: np.ndarray) -> np.ndarray:
    """left_sum along a float array's last axis, bit for bit: add.accumulate adds
    in order from a +0.0 put in front, and inf and nan sums pass silently."""
    padded = np.concatenate([np.zeros(rows.shape[:-1] + (1,)), rows], axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.add.accumulate(padded, axis=-1)[..., -1]


@dataclass(frozen=True)
class Trace:
    """One sensor's readings: values[i] at tick timestamps[i], stored as
    tuples of Python ints and floats, each reading passing check_stream."""

    node_id: str
    sensor_kind: SensorKind
    timestamps: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        stream = f"stream {self.node_id}:{self.sensor_kind.value}"
        ticks, values = tuple(self.timestamps), tuple(map(float, self.values))
        if not ticks:
            raise TraceError(f"{stream}: a trace needs at least one reading")
        if len(ticks) != len(values):
            raise TraceError(f"{stream}: {len(ticks)} timestamps but {len(values)} values")
        for t in ticks:
            if isinstance(t, bool) or not isinstance(t, numbers.Integral):
                raise TraceError(f"{stream}: timestamp {t!r} is not an integer")
        if ticks[0] < 0:
            raise TraceError(f"{stream}: timestamp {ticks[0]} is negative")
        for prev, t in zip(ticks, ticks[1:]):
            if t <= prev:
                kind = "duplicate" if t == prev else "non-monotone"
                raise TraceError(f"{stream}: {kind} timestamp {t} after {prev}")
        check_stream(self.node_id, self.sensor_kind, values, ticks)
        object.__setattr__(self, "timestamps", tuple(map(int, ticks)))
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.timestamps)


def trace_from_pairs(pairs, node_id: str, sensor_kind: SensorKind) -> Trace:
    """Build a Trace from (timestamp, value) pairs."""
    return Trace(node_id, sensor_kind, *(tuple(zip(*pairs)) or ((), ())))


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

    Raises TraceError as `read_csv` does, and, naming the file, for a file
    without data rows or readings that Trace rejects.
    """
    rows = read_csv(path, CSV_HEADER, lambda row: (int(row[0]), float(row[1])))
    if not rows:
        raise TraceError(f"{Path(path)}: no data rows")
    try:
        return Trace(node_id, sensor_kind, *zip(*rows))
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
    write_columns(path, CSV_HEADER, [trace.timestamps, trace.values])


def merge_traces(traces: Iterable[Trace]) -> list[tuple[int, list[int], list[float]]]:
    """Time-align traces of one sensor kind into the FUSVAF kernel's groups.

    One (tick, slots, values) per tick present in any trace, in tick order:
    the slots i, increasing, of the traces[i] that have a reading at the
    tick, and those readings. A trace missing a tick simply contributes
    nothing (no interpolation). Raises MixedSensorKindError if kinds differ.
    """
    traces = list(traces)
    kinds = {t.sensor_kind for t in traces}
    if len(kinds) > 1:
        raise MixedSensorKindError(
            f"cannot merge traces of mixed sensor kinds: {sorted(k.value for k in kinds)}"
        )
    slots_at, values_at = defaultdict(list), defaultdict(list)
    for slot, trace in enumerate(traces):
        for tick, value in zip(trace.timestamps, trace.values):
            slots_at[tick].append(slot)
            values_at[tick].append(value)
    return [(tick, slots_at[tick], values_at[tick]) for tick in sorted(slots_at)]
