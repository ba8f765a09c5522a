"""Names that live outside the package must keep resolving: the
benchmark's tracer wraps symhom calls by name (a rename would silently
drop spans from its metrics), and the README lists the CLI built-ins.
Inside the package, every import is used and every export exists."""

import ast
import glob
import importlib
import importlib.util
import os
import re

import symhom
from symhom import cli

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.dirname(symhom.__file__)
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


def unused_imports(tree, exported):
    """Names a module imports but neither reads nor lists in __all__."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - set(exported))


def test_every_import_is_used_and_every_export_resolves():
    unused, unresolved = [], []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        name = os.path.splitext(os.path.basename(path))[0]
        module = importlib.import_module(
            "symhom" if name == "__init__" else "symhom." + name)
        exported = getattr(module, "__all__", [])
        with open(path) as fh:
            tree = ast.parse(fh.read())
        unused += ["%s: %s" % (name, n)
                   for n in unused_imports(tree, exported)]
        unresolved += ["%s.%s" % (name, n) for n in exported
                       if not hasattr(module, n)]
    assert unused == [] and unresolved == []
