"""Cluster-trace ingestion: external schemas → internal item format.

The subsystem in one breath: a shared streaming :mod:`reader <repro.traces.reader>`
(gzip/CSV/JSONL framing, :class:`TraceFormatError` with file/line/field
context), schema :mod:`adapters <repro.traces.adapter>` for the Azure
Packing Trace and Google cluster-trace task_events
(:data:`SCHEMA_REGISTRY`, auto-detection), a
:mod:`normalization <repro.traces.normalize>` stage (window / rebase /
scale / clamp / seeded deterministic sampling), and seeded synthetic
:mod:`generators <repro.traces.generate>` that write files in the
external schemas so the whole pipeline is testable byte-for-byte with
no real data downloads.

See ``docs/TRACES.md`` for schemas, fetching the real datasets, and a
replay cookbook.
"""

from .._lazy import lazy_exports

# each name is imported from its submodule on first use (repro._lazy), so
# reading a trace file through the reader loads no adapter or generator
__all__ = lazy_exports(
    __name__,
    {
        "adapter": (
            "AdapterStats",
            "SCHEMA_REGISTRY",
            "TraceAdapter",
            "detect_schema",
            "get_adapter",
            "load_items",
            "register_adapter",
        ),
        "azure": ("AzureAdapter",),
        "generate": (
            "GENERATORS",
            "generate_azure_trace",
            "generate_google_trace",
            "generate_trace",
        ),
        "google": ("GoogleAdapter",),
        "normalize": (
            "NormalizeStats",
            "keep_fraction",
            "normalize_items",
            "normalize_stream",
            "sample_trace_file",
        ),
        "reader": ("TraceFormatError", "open_trace", "sniff_lines", "trace_suffix"),
    },
)
