"""The benchmark's span targets name functions that exist in lindtherm."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_span_target_resolves():
    # loaded by path and only read: a traced function that is renamed or
    # removed would otherwise stop the benchmark, not the test suite
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        (module, attr) for module, attr, _ in spans.TARGETS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert spans.TARGETS and not missing
