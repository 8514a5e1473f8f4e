"""Unit tests for the shared streaming reader and TraceFormatError."""

from __future__ import annotations

import pytest

from repro.traces.reader import (
    TraceFormatError,
    iter_csv_records,
    iter_jsonl_records,
    open_trace,
    record_float,
    record_int,
    record_str,
    sniff_lines,
    trace_suffix,
    write_trace,
)


class TestErrorFormatting:
    def test_full_context(self):
        err = TraceFormatError("bad value", "trace.csv", 17, "core")
        assert str(err) == "trace.csv, line 17, field 'core': bad value"
        assert (err.source, err.line, err.field) == ("trace.csv", 17, "core")
        assert err.message == "bad value"

    def test_partial_context(self):
        assert str(TraceFormatError("oops")) == "oops"
        assert str(TraceFormatError("oops", line=3)) == "line 3: oops"
        assert str(TraceFormatError("oops", field="size")) == "field 'size': oops"

    def test_is_a_value_error(self):
        with pytest.raises(ValueError):
            raise TraceFormatError("still a ValueError")


class TestCsvRecords:
    def test_header_mode_with_comments(self):
        lines = ["# comment\n", "a,b\n", "1,2\n", "\n", "3,4\n"]
        out = list(iter_csv_records(lines))
        assert out == [(3, {"a": "1", "b": "2"}), (5, {"a": "3", "b": "4"})]

    def test_positional_mode(self):
        out = list(iter_csv_records(["1,2\n"], fieldnames=("x", "y")))
        assert out == [(1, {"x": "1", "y": "2"})]

    def test_missing_required_column(self):
        with pytest.raises(TraceFormatError) as exc:
            list(iter_csv_records(["a,b\n"], required=("a", "size")))
        assert "size" in str(exc.value)

    def test_too_many_values_raises_with_line(self):
        with pytest.raises(TraceFormatError) as exc:
            list(iter_csv_records(["a,b\n", "1,2,3\n"]))
        assert exc.value.line == 2

    def test_short_row_leaves_fields_absent(self):
        (_, rec), = iter_csv_records(["a,b,c\n", "1,2\n"])
        assert rec == {"a": "1", "b": "2"}

    def test_empty_file_with_required_header(self):
        with pytest.raises(TraceFormatError):
            list(iter_csv_records([], required=("a",)))


class TestJsonlRecords:
    def test_objects_streamed_with_line_numbers(self):
        out = list(iter_jsonl_records(['{"a": 1}\n', "# note\n", '{"a": 2}\n']))
        assert out == [(1, {"a": 1}), (3, {"a": 2})]

    def test_malformed_json_names_line(self):
        with pytest.raises(TraceFormatError) as exc:
            list(iter_jsonl_records(['{"a": 1}\n', "{broken\n"]))
        assert exc.value.line == 2

    def test_non_object_rejected(self):
        with pytest.raises(TraceFormatError):
            list(iter_jsonl_records(["[1, 2]\n"]))


class TestFieldAccessors:
    def test_happy_paths(self):
        rec = {"s": "x", "f": "2.5", "i": "7"}
        assert record_str(rec, "s") == "x"
        assert record_float(rec, "f") == 2.5
        assert record_int(rec, "i") == 7

    @pytest.mark.parametrize(
        "fn,rec,field",
        [
            (record_str, {}, "s"),
            (record_str, {"s": "  "}, "s"),
            (record_float, {"f": "abc"}, "f"),
            (record_float, {"f": "nan"}, "f"),
            (record_float, {"f": "inf"}, "f"),
            (record_int, {"i": "1.5"}, "i"),
        ],
    )
    def test_rejections_name_the_field(self, fn, rec, field):
        with pytest.raises(TraceFormatError) as exc:
            fn(rec, field, "f.csv", 9)
        assert exc.value.field == field
        assert exc.value.line == 9

    def test_json_native_numbers_pass_through(self):
        rec = {"f": 0.1, "neg": -0.0, "i": 7, "big": 10**30, "whole": 3}
        assert record_float(rec, "f") == 0.1
        assert str(record_float(rec, "neg")) == "-0.0"
        assert record_int(rec, "i") == 7
        assert record_int(rec, "big") == 10**30
        # an int in a float field is still converted to float
        whole = record_float(rec, "whole")
        assert whole == 3.0 and type(whole) is float

    @pytest.mark.parametrize(
        "fn,value,message",
        [
            (record_float, True, "expected a number, got 'True'"),
            (record_float, float("nan"), "expected a finite number, got 'nan'"),
            (record_float, float("inf"), "expected a finite number, got 'inf'"),
            (record_float, float("-inf"), "expected a finite number, got '-inf'"),
            (record_int, True, "expected an integer, got 'True'"),
            (record_int, False, "expected an integer, got 'False'"),
            (record_int, 1.0, "expected an integer, got '1.0'"),
            (record_int, 1.5, "expected an integer, got '1.5'"),
        ],
    )
    def test_json_native_rejections_keep_their_message(self, fn, value, message):
        """Bools, non-finite floats and a float for an int field are not
        taken as they are: they fail exactly as their string forms do."""
        with pytest.raises(TraceFormatError) as exc:
            fn({"x": value}, "x", "t.json", 3)
        assert str(exc.value) == f"t.json, line 3, field 'x': {message}"


class TestFileHelpers:
    def test_suffix_strips_gz(self):
        assert trace_suffix("a/b.csv") == ".csv"
        assert trace_suffix("a/b.csv.gz") == ".csv"
        assert trace_suffix("a/b.jsonl.gz") == ".jsonl"

    def test_write_then_sniff_gzipped(self, tmp_path):
        p = tmp_path / "t.csv.gz"
        n = write_trace(p, ["a,b", "1,2\n", "3,4"])
        assert n == 3
        assert sniff_lines(p, limit=2) == ["a,b", "1,2"]
        with open_trace(p) as f:
            assert f.read() == "a,b\n1,2\n3,4\n"
