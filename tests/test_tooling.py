"""Names that live outside the package must keep resolving: the
benchmark's tracer wraps symhom calls by name (a rename would silently
drop spans from its metrics), the README lists the CLI built-ins and
the package's modules, and its CLI block holds commands the parser
accepts.  The CLI prints, byte for byte, the outputs recorded in
perfbench/oracles.json: they are the behaviour contract of a refactor.
Inside the package, every import is used and every export exists, and a
table computation leaves no reference cycle behind: a cycle would keep
its per-call caches alive until the cyclic collector runs."""

import ast
import gc
import glob
import importlib
import importlib.util
import json
import os
import re
import shlex

import pytest

import symhom
from symhom import cli
from symhom.bar import hr_via_bar
from symhom.commalg import abelianize
from symhom.findim import dual_numbers_algebra
from symhom.freealg import dual_numbers_resolution
from symhom.lie import (ce_homology, hs_env_closed_form, hs_env_via_cobar,
                        sl2)
from symhom.repfun import hr_n, rep_n, trace_chain_map

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.dirname(symhom.__file__)
PERFBENCH = os.path.join(ROOT, "perfbench")
README = os.path.join(ROOT, "README.md")


def load_perfbench(name):
    """perfbench/<name>.py, loaded by path: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(PERFBENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    spans = load_perfbench("spans")
    missing = []
    for layer, path in spans.TARGETS:
        owner = importlib.import_module("symhom." + layer)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append("%s.%s" % (layer, path))
    assert missing == []


def test_cli_outputs_match_the_recorded_oracles(tmp_path):
    workloads = load_perfbench("workloads")
    with open(os.path.join(PERFBENCH, "oracles.json")) as fh:
        expected = json.load(fh)["cli-mix"]
    wrong = []
    for i, (spec, want) in enumerate(sorted(expected.items())):
        cache = tmp_path / str(i)  # a fresh cache, so every hs job computes
        cache.mkdir()
        got = workloads.run_cli(cli.main, workloads.cli_argv(spec, str(cache)))
        if list(got) != want:
            wrong.append(spec)
    assert len(expected) >= 100 and wrong == []


def readme_builtins(path=README):
    """The names on the README's "Built-in inputs:" line, with the :N of
    the ones that take a size."""
    with open(path) as fh:
        line = re.search(r"Built-in inputs:(.*?)\.\s", fh.read(), re.S)
    return set(re.findall(r"`([^`]+)`", line.group(1)))


def test_readme_names_every_builtin():
    assert readme_builtins() == set(cli.BUILTINS)


def readme_layout(path=README):
    """The module files named in the README's Layout block."""
    with open(path) as fh:
        block = re.search(r"## Layout\s+```\n(.*?)```", fh.read(), re.S)
    return set(re.findall(r"^  (\w+\.py) ", block.group(1), re.M))


def test_readme_layout_names_every_module():
    modules = {os.path.basename(path)
               for path in glob.glob(os.path.join(PACKAGE, "*.py"))}
    assert readme_layout() == modules - {"__init__.py"}


def readme_cli_lines(path=README):
    """The symhom commands of the README's CLI block, with the backslash
    continuations joined."""
    with open(path) as fh:
        block = re.search(r"## CLI\s+```sh\n(.*?)```", fh.read(), re.S)
    return [line for line in block.group(1).replace("\\\n", " ").splitlines()
            if line.startswith("symhom ")]


def parses(argv):
    """The namespace cli.build_parser() makes of argv, None if it exits."""
    try:
        return cli.build_parser().parse_args(argv)
    except SystemExit:
        return None


def test_every_readme_cli_line_parses():
    lines = readme_cli_lines()
    assert len(lines) >= 10
    bad = []
    for line in lines:
        args = parses(shlex.split(line)[1:])
        specs = ([args.left, args.right]
                 if args is not None and args.command == "compare" else [])
        if args is None or None in [parses(shlex.split(s)) for s in specs]:
            bad.append(line)
    assert bad == []


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


@pytest.mark.parametrize("job", [
    lambda: hr_via_bar(dual_numbers_algebra(), 3, 5),
    lambda: hr_via_bar(dual_numbers_algebra(), 2, 3, n=2),
    lambda: abelianize(dual_numbers_resolution(5)).homology_table(4, 6),
    lambda: hr_n(dual_numbers_resolution(4), 2, 2, 3),
    lambda: rep_n(dual_numbers_resolution(4), 3),
    lambda: trace_chain_map(dual_numbers_resolution(3), 2, 2, 4),
    lambda: ce_homology(sl2(), 3),
    lambda: hs_env_via_cobar(sl2(), 3, 4),
    lambda: hs_env_closed_form(sl2(), 3, 4),
], ids=["hr_via_bar-n1", "hr_via_bar-n2", "homology_table", "hr_n",
        "rep_n", "trace_chain_map", "ce_homology", "hs_env_via_cobar",
        "hs_env_closed_form"])
def test_table_computations_leave_no_reference_cycle(job):
    gc.collect()
    gc.disable()
    try:
        job()
        assert gc.collect() == 0
    finally:
        gc.enable()
