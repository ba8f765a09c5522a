"""The benchmark's tracer wraps symhom calls by name: every name it lists
must resolve, or a rename would silently drop spans from its metrics."""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                     "spans.py")


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for layer, path in spans.TARGETS:
        owner = importlib.import_module("symhom." + layer)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append("%s.%s" % (layer, path))
    assert missing == []
