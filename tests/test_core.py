import csv
import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from pipefuse import core
from pipefuse.core import (
    MixedSensorKindError,
    SensorKind,
    Trace,
    TraceError,
    left_sum,
    left_sums,
    load_trace,
    merge_traces,
    save_trace,
    trace_from_pairs,
)


# a nan whose payload differs from math.nan's
NAN_PAYLOAD_1 = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000001))[0]


def write_csv(tmp_path, text, name="trace.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLeftSum:
    def test_adds_left_to_right_from_zero(self):
        # a compensated sum gives 1.0; a sum that starts from -0.0 keeps its sign
        assert left_sum([1e16, 1.0, -1e16]) == 0.0
        assert math.copysign(1.0, left_sum([-0.0])) == 1.0

    @pytest.mark.skipif(sys.version_info >= (3, 12),
                        reason="the builtin sum() of floats compensates from Python 3.12")
    @given(st.lists(st.floats(allow_subnormal=True), min_size=1))
    @example([1.0, NAN_PAYLOAD_1, 2.0])  # one nan: its payload carries through
    @example([1.0, math.nan, NAN_PAYLOAD_1, 2.0])
    def test_equals_the_builtin_sum_up_to_3_11(self, values):
        got, want = left_sum(values), sum(values)
        nans = sum(map(math.isnan, values)) + (math.inf in values and -math.inf in values)
        if nans >= 2:
            # where two nans meet, IEEE 754 leaves open whose payload the sum
            # keeps, and the C compiler's operand order decides it
            assert math.isnan(got) and math.isnan(want)
        else:
            assert struct.pack("<d", got) == struct.pack("<d", want)

    @given(arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=8),
                  elements=st.floats(allow_subnormal=True)))
    @example(np.array([[1e16, 1.0, -1e16], [-0.0, -0.0, -0.0]]))
    @example(np.array([[1.0, NAN_PAYLOAD_1, 2.0], [1.7e308, 1.7e308, -1.7e308]]))
    def test_left_sums_equal_left_sum_row_by_row(self, values):
        rows = values.reshape(-1, values.shape[-1])
        for row, got in zip(rows.tolist(), np.reshape(left_sums(values), -1).tolist()):
            want = left_sum(row)
            nans = sum(map(math.isnan, row)) + (math.inf in row and -math.inf in row)
            if nans >= 2:  # whose payload the sum keeps is left open, as above
                assert math.isnan(got) and math.isnan(want)
            else:
                assert struct.pack("<d", got) == struct.pack("<d", want)


class TestSensorKind:
    def test_members_sort_in_value_order(self):
        # the simulator sorts (node_id, kind) and (cluster_id, kind) keys by
        # plain tuple order and relies on it being the order of kind.value
        by_value = sorted(SensorKind, key=lambda k: k.value)
        assert sorted(SensorKind) == by_value
        keys = [(node_id, kind) for kind in reversed(by_value) for node_id in ("n1", "n0")]
        assert sorted(keys) == sorted(keys, key=lambda k: (k[0], k[1].value))

    def test_is_binary_names_the_binary_kinds(self):
        assert [k for k in SensorKind if k.is_binary] == list(core.BINARY_KINDS)


class TestTrace:
    def test_empty_rejected(self):
        with pytest.raises(TraceError) as exc:
            Trace("n0", SensorKind.PRESSURE, (), ())
        assert str(exc.value) == "stream n0:pressure: a trace needs at least one reading"

    def test_duplicate_timestamp_rejected(self):
        with pytest.raises(TraceError, match="duplicate"):
            trace_from_pairs([(0, 1.0), (0, 2.0)], "n0", SensorKind.PRESSURE)

    def test_unequal_columns_rejected(self):
        with pytest.raises(TraceError) as exc:
            Trace("n0", SensorKind.PRESSURE, (0, 1), (1.0,))
        assert str(exc.value) == "stream n0:pressure: 2 timestamps but 1 values"

    def test_binary_kinds_accept_only_zero_or_one(self):
        Trace("n0", SensorKind.PIR, (0, 1), (1.0, 0.0))
        Trace("n0", SensorKind.MAGNETIC, (0,), (0.0,))
        with pytest.raises(TraceError) as exc:
            Trace("n0", SensorKind.PIR, (0, 4), (1.0, 0.5))
        assert str(exc.value) == "stream n0:pir: value 0.5 at tick 4 is not 0.0 or 1.0"

    def test_negative_timestamp_rejected(self):
        with pytest.raises(TraceError) as exc:
            Trace("n0", SensorKind.PRESSURE, (-1, 0), (100.0, 100.0))
        assert str(exc.value) == "stream n0:pressure: timestamp -1 is negative"

    def test_non_finite_value_rejected(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(TraceError) as exc:
                trace_from_pairs([(2, 1.0), (7, bad)], "n0", SensorKind.PRESSURE)
            assert str(exc.value) == f"stream n0:pressure: non-finite value {bad} at tick 7"

    @pytest.mark.parametrize("pairs, text", [
        ([(0, 1.0), (1.5, 2.0)], "1.5"),
        ([(0, 1.0), (np.float64(2.5), 2.0)], "np.float64(2.5)"),
        ([(3.0, 1.0)], "3.0"),
        ([(True, 1.0)], "True"),
        ([(0.9, 1.0), (1.7, 2.0)], "0.9"),  # int() would give ticks (0, 1)
        ([(0.2, 1.0), (0.7, 2.0)], "0.2"),  # int() would give a duplicate tick 0
    ])
    def test_non_integer_timestamp_rejected(self, pairs, text):
        with pytest.raises(TraceError) as exc:
            trace_from_pairs(pairs, "n0", SensorKind.PRESSURE)
        assert str(exc.value) == f"stream n0:pressure: timestamp {text} is not an integer"

    def test_columns_hold_python_ints_and_floats(self):
        trace = Trace("n0", SensorKind.PRESSURE,
                      [np.int64(0), np.int32(2), 5], np.array([1.0, 2.0, 3.0]))
        assert trace == trace_from_pairs([(0, 1.0), (2, 2.0), (5, 3.0)], "n0", SensorKind.PRESSURE)
        assert hash(trace) == hash(Trace("n0", SensorKind.PRESSURE, (0, 2, 5), (1.0, 2.0, 3.0)))
        assert [type(t) for t in trace.timestamps] == [int] * 3
        assert [type(v) for v in trace.values] == [float] * 3
        assert len(trace) == 3


class TestLoadTrace:
    def test_two_rows(self, tmp_path):
        path = write_csv(tmp_path, "timestamp,value\n0,20.1\n1,20.3\n")
        trace = load_trace(path, "n0", SensorKind.TEMPERATURE)
        assert len(trace) == 2
        assert trace.timestamps == (0, 1)
        assert trace.values == (20.1, 20.3)

    def test_non_monotone_timestamps(self, tmp_path):
        path = write_csv(tmp_path, "timestamp,value\n1,20.1\n0,20.3\n")
        with pytest.raises(TraceError, match="non-monotone"):
            load_trace(path, "n0", SensorKind.TEMPERATURE)

    def test_malformed_row_reports_row_number(self, tmp_path):
        path = write_csv(tmp_path, "timestamp,value\n0,abc\n")
        with pytest.raises(TraceError, match="row 1"):
            load_trace(path, "n0", SensorKind.TEMPERATURE)

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path, "")
        with pytest.raises(TraceError, match="empty"):
            load_trace(path, "n0", SensorKind.TEMPERATURE)

    def test_header_only(self, tmp_path):
        path = write_csv(tmp_path, "timestamp,value\n")
        with pytest.raises(TraceError, match="no data rows"):
            load_trace(path, "n0", SensorKind.TEMPERATURE)

    def test_bad_header(self, tmp_path):
        path = write_csv(tmp_path, "time,reading\n0,1.0\n")
        with pytest.raises(TraceError, match="header"):
            load_trace(path, "n0", SensorKind.TEMPERATURE)

    @pytest.mark.parametrize("text, error", [
        ("timestamp,value\n0,1.0\n1,2.0,3\n", "row 2: expected 2 fields, got 3"),
        ("timestamp,value\n\n0,1.0\n1\n", "row 3: expected 2 fields, got 1"),
    ])
    def test_row_of_another_width_named(self, tmp_path, text, error):
        path = write_csv(tmp_path, text)
        with pytest.raises(TraceError) as exc:
            load_trace(path, "n0", SensorKind.TEMPERATURE)
        assert str(exc.value) == f"{path}: {error}"

    def test_duplicate_timestamps_rejected(self, tmp_path):
        path = write_csv(tmp_path, "timestamp,value\n0,1.0\n0,2.0\n")
        with pytest.raises(TraceError, match="duplicate"):
            load_trace(path, "n0", SensorKind.TEMPERATURE)

    @pytest.mark.parametrize("text, kind, error", [
        ("3,1.0\n5,nan\n", SensorKind.TEMPERATURE,
         "stream n0:temperature: non-finite value nan at tick 5"),
        ("0,0.0\n\n4,0.5\n", SensorKind.PIR,
         "stream n0:pir: value 0.5 at tick 4 is not 0.0 or 1.0"),
        ("-2,1.0\n", SensorKind.TEMPERATURE, "stream n0:temperature: timestamp -2 is negative"),
        ("0,1.0\n1.5,2.0\n", SensorKind.TEMPERATURE,
         "row 2: invalid literal for int() with base 10: '1.5'"),
    ])
    def test_reading_errors_name_file_stream_and_tick(self, tmp_path, text, kind, error):
        path = write_csv(tmp_path, "timestamp,value\n" + text)
        with pytest.raises(TraceError) as exc:
            load_trace(path, "n0", kind)
        assert str(exc.value) == f"{path}: {error}"


finite_values = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


@st.composite
def traces(draw, kind=SensorKind.TEMPERATURE, node_id="n0", max_len=50):
    n = draw(st.integers(min_value=1, max_value=max_len))
    gaps = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    ts = draw(st.integers(0, 30))
    pairs = []
    for gap in gaps:
        pairs.append((ts, draw(finite_values)))
        ts += gap
    return trace_from_pairs(pairs, node_id, kind)


@given(trace=traces())
def test_save_load_round_trip(trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("rt") / "trace.csv"
    save_trace(trace, path)
    loaded = load_trace(path, trace.node_id, trace.sensor_kind)
    assert loaded == trace


FIXTURES = Path(__file__).resolve().parent.parent / "scenarios" / "fixtures"


@pytest.mark.parametrize("name", sorted(
    p.name for p in FIXTURES.glob("*.csv")
    if "_node_" in p.name or p.name == "ekf_20_samples.csv"
))
def test_save_trace_reproduces_fixture_bytes(name, tmp_path):
    trace = load_trace(FIXTURES / name, "n0", SensorKind.TEMPERATURE)
    save_trace(trace, tmp_path / name)
    assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes()


def reference_merge(traces):
    """merge_traces one reading at a time: for each tick of any trace, in
    order, the slots of the traces that read it and their readings."""
    readings = [(tick, slot, value) for slot, trace in enumerate(traces)
                for tick, value in zip(trace.timestamps, trace.values)]
    groups = []
    for tick in sorted({tick for tick, _, _ in readings}):
        at_tick = sorted((slot, value) for t, slot, value in readings if t == tick)
        groups.append((tick, [slot for slot, _ in at_tick], [value for _, value in at_tick]))
    return groups


def temp_trace(node_id, pairs):
    return trace_from_pairs(pairs, node_id, SensorKind.TEMPERATURE)


class TestMergeTraces:
    def test_union_at_shared_tick(self):
        merged = merge_traces([temp_trace("a", [(0, 1.0)]), temp_trace("b", [(0, 2.0)])])
        assert merged == [(0, [0, 1], [1.0, 2.0])]

    def test_disjoint_ticks(self):
        merged = merge_traces([temp_trace("a", [(0, 1.0)]), temp_trace("b", [(1, 2.0)])])
        assert merged == [(0, [0], [1.0]), (1, [1], [2.0])]

    def test_mixed_kind_rejected(self):
        a = trace_from_pairs([(0, 1.0)], "a", SensorKind.TEMPERATURE)
        b = trace_from_pairs([(0, 2.0)], "b", SensorKind.HUMIDITY)
        with pytest.raises(MixedSensorKindError):
            merge_traces([a, b])

    @given(data=st.data())
    def test_output_is_multiset_union(self, data):
        n_traces = data.draw(st.integers(1, 4))
        all_traces = [
            data.draw(traces(node_id=f"n{i}", max_len=20)) for i in range(n_traces)
        ]
        merged = merge_traces(all_traces)
        flat = [(tick, slot, value) for tick, slots, values in merged
                for slot, value in zip(slots, values)]
        original = [(tick, slot, value) for slot, t in enumerate(all_traces)
                    for tick, value in zip(t.timestamps, t.values)]
        assert sorted(flat) == sorted(original)
        ticks = [t for t, _, _ in merged]
        assert ticks == sorted(set(ticks))

    @given(all_traces=st.integers(1, 4).flatmap(
        lambda n: st.tuples(*(traces(node_id=f"n{i}", max_len=20) for i in range(n)))))
    @example(all_traces=(temp_trace("a", [(0, 1.0), (4, 2.0)]),
                         temp_trace("b", [(1, 3.0), (9, 4.0)]),
                         temp_trace("c", [(2, -0.0), (4, 0.0), (9, 5.0)])))
    @example(all_traces=(temp_trace("a", [(30, 1.0)]),))
    def test_equals_per_reading_grouping(self, all_traces):
        """Gapped traces of 1-4 members, each from its own first tick: the
        groups the FUSVAF kernel reads are those of the reference grouping."""
        assert repr(merge_traces(all_traces)) == repr(reference_merge(all_traces))


def reference_write_csv(path, header, rows):
    """The writer before block formatting: csv.writer over per-cell rules."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [repr(float(v)) if isinstance(v, (float, np.floating)) else "" if v is None else v
             for v in row]
            for row in rows
        )


BLOCK = 256  # table sizes straddle 256 rows, the writer's former block size
SPECIAL_FLOATS = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e16, 1e-5]
CSV_FLOATS = st.sampled_from(SPECIAL_FLOATS) | st.floats()
CSV_TEXT = st.text(alphabet=list('a,"\r\n é\''), max_size=6)
CSV_NUMPY = st.one_of(
    CSV_FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)
CSV_INTS = st.integers() | st.integers(2**63, 2**80) | st.integers(-(2**80), -(2**63))
CSV_CELLS = st.one_of(
    st.none(), CSV_FLOATS, CSV_NUMPY, CSV_INTS, st.booleans(), CSV_TEXT,
    st.sampled_from(list(SensorKind)),
)
# each column draws its cells from one of these: one type, floats with gaps,
# or any cell at all
CSV_COLUMNS = [
    CSV_FLOATS, st.none() | CSV_FLOATS, CSV_INTS, st.booleans(), CSV_NUMPY, CSV_TEXT,
    st.none(), CSV_CELLS,
]
ROW_SHAPES = {
    "list": list,
    "tuple": tuple,
    "generator": lambda row: (cell for cell in row),
    "dict_values": lambda row: dict(enumerate(row)).values(),
}


@st.composite
def csv_tables(draw):
    """A header and rows: each column repeats cells of a small drawn pool."""
    width = draw(st.integers(1, 5))
    header = draw(st.lists(CSV_TEXT, min_size=width, max_size=width))
    n_rows = draw(st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]))
    pools = [draw(st.lists(draw(st.sampled_from(CSV_COLUMNS)), min_size=1, max_size=6))
             for _ in range(width)]
    rng = draw(st.randoms(use_true_random=False))
    rows = [[rng.choice(pool) for pool in pools] for _ in range(n_rows)]
    return header, rows


class TestWriteCsv:
    # no shrink phase: shrinking tables of up to 513 rows takes minutes, and
    # the first differing line already shows the fault
    @settings(max_examples=150, deadline=None, phases=[Phase.explicit, Phase.generate])
    @given(table=csv_tables(), shape=st.sampled_from(sorted(ROW_SHAPES)),
           lazy=st.booleans())
    @example(table=(["a"], [[None], [""], [1.5]]), shape="list", lazy=False)
    @example(table=([""], []), shape="list", lazy=False)
    def test_same_bytes_as_csv_writer(self, table, shape, lazy, tmp_path_factory):
        header, rows = table
        out = tmp_path_factory.mktemp("csv")
        reference_write_csv(out / "reference.csv", header, rows)
        given_rows = (ROW_SHAPES[shape](row) for row in rows)
        core.write_csv(out / "blocks.csv", header, given_rows if lazy else list(given_rows))
        # compared line by line: pytest's diff of two long byte strings takes minutes
        expected = (out / "reference.csv").read_bytes().splitlines(keepends=True)
        assert (out / "blocks.csv").read_bytes().splitlines(keepends=True) == expected

    @pytest.mark.parametrize("bad", [1, BLOCK + 2])
    @pytest.mark.parametrize("cells", [[1.0], [1.0, 2.0, 3.0]])
    def test_ragged_row_rejected(self, tmp_path, bad, cells):
        rows = [[float(i), 0.0] for i in range(2 * BLOCK)]
        rows.insert(bad - 1, cells)
        with pytest.raises(ValueError, match=rf"^row {bad}: expected 2 cells, got {len(cells)}$"):
            core.write_csv(tmp_path / "ragged.csv", ["a", "b"], rows)

    def test_empty_header_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one column"):
            core.write_csv(tmp_path / "empty.csv", [], [])


# a run-aware float column: each drawn value repeated 1-300 times
RUN_VALUES = st.sampled_from(SPECIAL_FLOATS + [-float("nan"), None]) | st.floats() | st.none()


@st.composite
def run_columns(draw, length):
    """A float column of `length` cells made of runs of one drawn value,
    as a list (floats and Nones) or, when it holds no None, maybe as a
    float64 array."""
    column = []
    while len(column) < length:
        column += [draw(RUN_VALUES)] * draw(st.integers(1, 300))
    column = column[:length]
    if None not in column and draw(st.booleans()):
        return np.array(column, dtype=np.float64)
    return column


@st.composite
def run_tables(draw):
    width = draw(st.integers(1, 4))
    length = draw(st.integers(0, 1200))
    return [draw(run_columns(length)) for _ in range(width)]


class TestWriteColumns:
    @settings(max_examples=100, deadline=None, phases=[Phase.explicit, Phase.generate])
    @given(columns=run_tables())
    @example(columns=[[0.0, 0.0, -0.0, -0.0, 0.0, None, None, float("nan"), float("nan")]])
    @example(columns=[np.array([-0.0] * 3 + [0.0] * 3 + [float("nan")] * 4 + [5e-324] * 2),
                      [None] * 6 + [float("inf")] * 6])
    @example(columns=[np.array([0.0, -0.0, 1.5, float("nan"), -float("nan"), 5e-324, float("inf")]),
                      [None, 0.0, -0.0, 1.0, None, float("nan"), 2.0]])
    def test_runs_same_bytes_as_csv_writer(self, columns, tmp_path_factory):
        out = tmp_path_factory.mktemp("runs")
        header = [f"c{i}" for i in range(len(columns))]
        reference_write_csv(out / "reference.csv", header, zip(*columns))
        core.write_columns(out / "columns.csv", header, columns)
        expected = (out / "reference.csv").read_bytes().splitlines(keepends=True)
        assert (out / "columns.csv").read_bytes().splitlines(keepends=True) == expected

    @settings(max_examples=30, deadline=None)
    @given(column=st.integers(0, 600).flatmap(run_columns))
    def test_column_passed_twice_same_bytes_as_copies(self, column, tmp_path_factory):
        out, ticks = tmp_path_factory.mktemp("shared"), range(len(column))
        core.write_columns(out / "shared.csv", ["a", "b", "c"], [column, ticks, column])
        core.write_columns(out / "copies.csv", ["a", "b", "c"], [column, ticks, column.copy()])
        assert (out / "shared.csv").read_bytes() == (out / "copies.csv").read_bytes()

    @pytest.mark.parametrize("columns", [[[1.0]], [[1.0], [2.0, 3.0]], [[1.0], [2.0], [3.0]]])
    def test_columns_must_match_header_and_each_other(self, tmp_path, columns):
        with pytest.raises(ValueError, match="expected 2 columns of one length"):
            core.write_columns(tmp_path / "bad.csv", ["a", "b"], columns)
