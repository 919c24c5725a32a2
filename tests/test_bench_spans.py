"""The benchmark's tracer finds the functions it wraps by name, and skips a
name that no longer resolves; every name it lists must still exist, so that
deleting or renaming a traced function fails here and not in a later run."""

import importlib.util
from pathlib import Path

import midilstm.cli  # noqa: F401  imports every module the tracer wraps

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    with spans.Patch(spans.TARGETS, lambda name, fn: fn) as patch:
        assert patch.missing == []
