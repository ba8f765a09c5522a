"""Names that live outside the package must keep resolving: the
benchmark's tracer wraps symhom calls by name (a rename would silently
drop spans from its metrics), and the README lists the CLI built-ins."""

import importlib
import importlib.util
import os
import re

from symhom import cli

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SPANS = os.path.join(ROOT, "perfbench", "spans.py")
README = os.path.join(ROOT, "README.md")


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


def readme_builtins(path=README):
    """The names on the README's "Built-in inputs:" line, without :N."""
    with open(path) as fh:
        line = re.search(r"Built-in inputs:(.*?)\.\s", fh.read(), re.S)
    return set(re.findall(r"`([^`:]+)(?::N)?`", line.group(1)))


def test_readme_names_every_builtin():
    assert readme_builtins() == set(cli.BUILTINS)
