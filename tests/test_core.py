from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from pipefuse.core import (
    Measurement,
    MixedSensorKindError,
    SensorKind,
    Trace,
    TraceError,
    load_trace,
    merge_traces,
    save_trace,
    trace_from_pairs,
)


def write_csv(tmp_path, text, name="trace.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestMeasurement:
    def test_binary_kinds_accept_only_zero_or_one(self):
        Measurement("n0", SensorKind.PIR, 0, 1.0)
        Measurement("n0", SensorKind.MAGNETIC, 0, 0.0)
        with pytest.raises(ValueError):
            Measurement("n0", SensorKind.PIR, 0, 0.5)

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            Measurement("n0", SensorKind.PRESSURE, -1, 100.0)

    def test_non_finite_value_rejected(self):
        with pytest.raises(ValueError):
            Measurement("n0", SensorKind.PRESSURE, 0, float("nan"))


class TestTrace:
    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            Trace(())

    def test_duplicate_timestamp_rejected(self):
        with pytest.raises(TraceError, match="duplicate"):
            trace_from_pairs([(0, 1.0), (0, 2.0)], "n0", SensorKind.PRESSURE)

    def test_mixed_node_rejected(self):
        readings = (
            Measurement("a", SensorKind.PRESSURE, 0, 1.0),
            Measurement("b", SensorKind.PRESSURE, 1, 2.0),
        )
        with pytest.raises(TraceError):
            Trace(readings)


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

    def test_duplicate_timestamps_rejected(self, tmp_path):
        path = write_csv(tmp_path, "timestamp,value\n0,1.0\n0,2.0\n")
        with pytest.raises(TraceError, match="duplicate"):
            load_trace(path, "n0", SensorKind.TEMPERATURE)


finite_values = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


@st.composite
def traces(draw, kind=SensorKind.TEMPERATURE, node_id="n0", max_len=50):
    n = draw(st.integers(min_value=1, max_value=max_len))
    gaps = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    ts = 0
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


class TestMergeTraces:
    def test_union_at_shared_tick(self):
        a = trace_from_pairs([(0, 1.0)], "a", SensorKind.TEMPERATURE)
        b = trace_from_pairs([(0, 2.0)], "b", SensorKind.TEMPERATURE)
        merged = merge_traces([a, b])
        assert len(merged) == 1
        tick, group = merged[0]
        assert tick == 0
        assert sorted(m.value for m in group) == [1.0, 2.0]

    def test_disjoint_ticks(self):
        a = trace_from_pairs([(0, 1.0)], "a", SensorKind.TEMPERATURE)
        b = trace_from_pairs([(1, 2.0)], "b", SensorKind.TEMPERATURE)
        merged = merge_traces([a, b])
        assert [(t, [m.value for m in g]) for t, g in merged] == [(0, [1.0]), (1, [2.0])]

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
        flat = [m for _, group in merged for m in group]
        original = [m for t in all_traces for m in t.readings]
        assert sorted(flat, key=lambda m: (m.timestamp, m.node_id)) == sorted(
            original, key=lambda m: (m.timestamp, m.node_id)
        )
        ticks = [t for t, _ in merged]
        assert ticks == sorted(set(ticks))
