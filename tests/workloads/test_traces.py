"""Tests for trace serialisation round-trips."""

import os
import subprocess
import sys

import pytest

from repro.core.items import Item, ItemList
from repro.workloads.traces import (
    TraceFormatError,
    from_csv,
    from_json,
    load_trace,
    save_trace,
    to_csv,
    to_json,
)


def sample() -> ItemList:
    return ItemList(
        [
            Item(0, 0.5, 0.0, 2.0),
            Item(1, 1.0 / 3.0, 0.1, 7.3),
            Item(7, 0.125, 5.0, 6.0),
        ],
        capacity=1.0,
    )


def items_equal(a: ItemList, b: ItemList) -> bool:
    if a.capacity != b.capacity or len(a) != len(b):
        return False
    return all(
        (x.item_id, x.size, x.arrival, x.departure)
        == (y.item_id, y.size, y.arrival, y.departure)
        for x, y in zip(a, b)
    )


class TestJson:
    def test_roundtrip(self):
        assert items_equal(sample(), from_json(to_json(sample())))

    def test_capacity_preserved(self):
        items = ItemList([Item(0, 1.5, 0, 1)], capacity=2.0)
        assert from_json(to_json(items)).capacity == 2.0

    def test_missing_capacity_defaults(self):
        doc = '{"items": [{"id": 0, "size": 0.5, "arrival": 0, "departure": 1}]}'
        assert from_json(doc).capacity == 1.0


class TestCsv:
    def test_roundtrip_exact_floats(self):
        """repr-based CSV keeps exact float values (1/3 survives)."""
        assert items_equal(sample(), from_csv(to_csv(sample())))

    def test_capacity_comment(self):
        items = ItemList([Item(0, 1.5, 0, 1)], capacity=2.0)
        text = to_csv(items)
        assert "# capacity=2.0" in text
        assert from_csv(text).capacity == 2.0


class TestFiles:
    def test_save_load_json(self, tmp_path):
        p = tmp_path / "trace.json"
        save_trace(sample(), p)
        assert items_equal(sample(), load_trace(p))

    def test_save_load_csv(self, tmp_path):
        p = tmp_path / "trace.csv"
        save_trace(sample(), p)
        assert items_equal(sample(), load_trace(p))

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(ValueError):
            save_trace(sample(), tmp_path / "trace.parquet")
        with pytest.raises(ValueError):
            load_trace(tmp_path / "trace.parquet")


class TestFormatErrors:
    """Satellite of the trace PR: parse failures name line and field."""

    def test_csv_bad_value_names_line_and_field(self):
        text = "id,size,arrival,departure\n0,0.5,0.0,2.0\n1,huge,1.0,3.0\n"
        with pytest.raises(TraceFormatError) as exc:
            from_csv(text)
        assert exc.value.line == 3
        assert exc.value.field == "size"
        assert "line 3" in str(exc.value) and "'size'" in str(exc.value)

    def test_csv_missing_column_rejected_up_front(self):
        with pytest.raises(TraceFormatError) as exc:
            from_csv("id,size,arrival\n0,0.5,0.0\n")
        assert "departure" in str(exc.value)

    def test_csv_bad_capacity_comment(self):
        with pytest.raises(TraceFormatError) as exc:
            from_csv("# capacity=lots\nid,size,arrival,departure\n")
        assert exc.value.field == "capacity"

    def test_json_malformed_document(self):
        with pytest.raises(TraceFormatError):
            from_json("{not json")
        with pytest.raises(TraceFormatError):
            from_json('{"capacity": 1.0}')

    def test_json_bad_record_names_index(self):
        doc = ('{"items": [{"id": 0, "size": 0.5, "arrival": 0, '
               '"departure": 1}, {"id": 1, "arrival": 0, "departure": 1}]}')
        with pytest.raises(TraceFormatError) as exc:
            from_json(doc)
        assert "items[1]" in str(exc.value)

    @pytest.mark.parametrize(
        "record",
        [
            '{"id": 1.0, "size": 0.5, "arrival": 0, "departure": 1}',
            '{"id": true, "size": 0.5, "arrival": 0, "departure": 1}',
            '{"id": 1, "size": NaN, "arrival": 0, "departure": 1}',
            '{"id": 1, "size": 0.5, "arrival": false, "departure": 1}',
        ],
    )
    def test_json_native_values_of_the_wrong_kind_rejected(self, record):
        with pytest.raises(TraceFormatError) as exc:
            from_json('{"items": [' + record + "]}")
        assert "items[0]" in str(exc.value)

    def test_load_trace_attaches_the_path(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("id,size,arrival,departure\n0,nope,0.0,1.0\n")
        with pytest.raises(TraceFormatError) as exc:
            load_trace(p)
        assert str(p) in str(exc.value)
        assert exc.value.line == 2

    def test_error_is_still_a_value_error(self):
        with pytest.raises(ValueError):
            from_csv("id,size,arrival,departure\n0,x,0.0,1.0\n")


class TestVectorAndGzip:
    def test_vector_json_roundtrip(self):
        from repro.multidim.items import VectorItem, VectorItemList

        vec = VectorItemList(
            [VectorItem(0, (0.5, 0.25), 0.0, 2.0),
             VectorItem(1, (0.25, 0.5), 1.0, 3.0)],
            capacity=(1.0, 1.0),
        )
        back = from_json(to_json(vec))
        assert isinstance(back, VectorItemList)
        assert back.capacity == (1.0, 1.0)
        assert [it.sizes for it in back] == [(0.5, 0.25), (0.25, 0.5)]

    def test_vector_csv_rejected_with_guidance(self):
        from repro.multidim.items import VectorItem, VectorItemList

        vec = VectorItemList([VectorItem(0, (0.5,), 0.0, 1.0)], capacity=(1.0,))
        with pytest.raises(TraceFormatError) as exc:
            to_csv(vec)
        assert "JSON" in str(exc.value)

    def test_gzipped_roundtrip_both_formats(self, tmp_path):
        for name in ("t.json.gz", "t.csv.gz"):
            p = tmp_path / name
            save_trace(sample(), p)
            assert p.read_bytes()[:2] == b"\x1f\x8b"  # really gzipped
            assert items_equal(sample(), load_trace(p))


PEAK_PROBE = """
import sys
from repro.workloads.traces import load_trace

def status(key):
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(key + ":"):
                return int(line.split()[1])

items = load_trace(sys.argv[1])
print(status("VmHWM") - status("VmRSS"), len(items))
"""


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs Linux /proc"
)
def test_load_trace_drops_the_file_text_before_building_items(tmp_path):
    """Loading peaks no higher than what stays resident after it.

    The file text (2.8 MB here) is dead once parsed; kept alive while
    the items are built, it set a fresh process's peak RSS 2.5 MB above
    the RSS right after loading.
    """
    from repro.workloads import poisson_workload

    path = tmp_path / "highload.json"
    save_trace(
        poisson_workload(20_000, seed=17, mu_target=8.0, arrival_rate=200.0), path
    )
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    out = subprocess.run(
        [sys.executable, "-c", PEAK_PROBE, str(path)],
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    over_kb, n = map(int, out.stdout.split())
    assert n == 20_000
    assert over_kb < 1024, f"peak {over_kb} kB above the RSS after loading"
