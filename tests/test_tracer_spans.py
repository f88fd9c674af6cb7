"""The benchmark's per-layer tracer names the functions it wraps by module and
attribute; a rename in the package must fail here rather than drop a layer from
the traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANS


def test_every_traced_span_resolves_in_eqcausal():
    missing = []
    for name, module, attribute in traced_spans():
        obj = importlib.import_module(f"eqcausal.{module}")
        for part in attribute.split("."):  # "Class.method" names a method
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{name}: eqcausal.{module}.{attribute}")
    assert missing == []
