"""Names that live outside the package must keep resolving: the
benchmark's tracer wraps symhom calls by name (a rename would silently
drop spans from its metrics), the README lists the CLI built-ins and
the package's modules, and its CLI block holds commands the parser
accepts.  The console script names cli.main, and the CLI run as a
process prints what cli.main prints in process.  The CLI prints, byte
for byte, the outputs recorded in perfbench/oracles.json: they are the
behaviour contract of a refactor.
Inside the package, every import is used and every export exists, and a
table computation leaves no reference cycle behind: a cycle would keep
its per-call caches alive until the cyclic collector runs.  The package
functions no CLI job enters are exactly a listed few, each kept for a
named user."""

import ast
import gc
import glob
import importlib
import importlib.util
import inspect
import io
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import symhom
from symhom import cli
from symhom.bar import hr_via_bar
from symhom.commalg import abelianize
from symhom.findim import dual_numbers_algebra
from symhom.freealg import dual_numbers_resolution
from symhom.lie import (ce_homology, hs_env_closed_form, hs_env_via_cobar,
                        sl2)
from symhom.repfun import hr_n, rep_n

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.dirname(symhom.__file__)
PERFBENCH = os.path.join(ROOT, "perfbench")
README = os.path.join(ROOT, "README.md")
PYPROJECT = os.path.join(ROOT, "pyproject.toml")


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


# one argv per command, beside the README's lines
ONE_PER_COMMAND = [
    ["hs", "poly:2", "--pipeline", "closed-form", "--cache-dir", "D"],
    ["hr", "dual-numbers", "--format", "csv"],
    ["hs0", "ut2", "--weight-cap", "2"],
    ["hc0", "dual-numbers", "--arity-cap", "2", "--format", "json"],
    ["ce", "sl2"],
    ["deltaS", "psi", "(x1 x0)|(x2)"],
    ["compare", "hs sl2", "hr free:1 --n 2"],
    ["selftest"],
]


def test_main_parses_each_argv_as_the_top_level_parser_does():
    # every command of a fresh parser hands main's namespace to a recorder
    cli.build_parser.cache_clear()
    parser = cli.build_parser()
    handed = []
    for command in parser.commands.values():
        command.set_defaults(func=handed.append)
    argvs = [shlex.split(line)[1:] for line in readme_cli_lines()]
    argvs += [shlex.split(spec) for argv in argvs if argv[0] == "compare"
              for spec in argv[1:]]  # compare parses its specs as main does
    argvs += ONE_PER_COMMAND
    try:
        assert {argv[0] for argv in argvs} == set(parser.commands)
        for argv in argvs:
            handed.clear()
            assert cli.main(argv) is None, argv
            assert [vars(args) for args in handed] == \
                [vars(parser.parse_args(argv))], argv
            assert handed[0].command == argv[0]
    finally:
        cli.build_parser.cache_clear()  # no later job meets the recorder


@pytest.mark.parametrize("argv, code, message", [
    ([], 2, "the following arguments are required: command"),
    (["no-such-command"], 2, "invalid choice: 'no-such-command'"),
    (["--version"], 0, ""),
    (["hs", "dual-numbers", "--no-such-option"], 2,
     "unrecognized arguments: --no-such-option"),
], ids=["no-arguments", "unknown-command", "version", "unknown-option"])
def test_main_exits_where_the_top_level_parser_exits(capsys, argv, code,
                                                    message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == code
    assert out == ("" if code else symhom.__version__ + "\n")
    assert message in err and (err == "") == (code == 0)
    if argv[:1] == ["hs"]:  # the rejecting parser is the command's own
        assert err.startswith("usage: symhom hs ")


def test_console_script_is_cli_main():
    # a regex: tomllib is not in every supported Python
    with open(PYPROJECT) as fh:
        scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)",
                            fh.read(), re.S | re.M)
    assert re.search(r'^symhom\s*=\s*"symhom\.cli:main"\s*$',
                     scripts.group(1), re.M)


def test_cli_as_a_process_prints_what_main_prints(capsys):
    argv = ["hs", "dual-numbers", "--pipeline", "dg", "--deg-cap", "2",
            "--weight-cap", "3", "--format", "json"]
    assert cli.main(argv) == 0
    in_process = capsys.readouterr().out.encode()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.dirname(PACKAGE), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "symhom.cli", *argv],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == in_process


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
    lambda: ce_homology(sl2(), 3),
    lambda: hs_env_via_cobar(sl2(), 3, 4),
    lambda: hs_env_closed_form(sl2(), 3, 4),
], ids=["hr_via_bar-n1", "hr_via_bar-n2", "homology_table", "hr_n",
        "rep_n", "ce_homology", "hs_env_via_cobar", "hs_env_closed_form"])
def test_table_computations_leave_no_reference_cycle(job):
    gc.collect()
    gc.disable()
    try:
        job()
        assert gc.collect() == 0
    finally:
        gc.enable()


# The package functions no job of CLI_JOBS enters, each with its user: a
# test that uses it as an oracle, or the benchmark file that hooks it.
# Anything else a route does not reach is deleted.
UNREACHED = {
    "betti.BettiTable.from_json": "perfbench/spans.py",
    "bar.bar_level_basis":
        "tests/test_bar.py::"
        "test_level_zero_basis_is_symmetric_algebra_on_ideal",
    "bar.face_map": "tests/test_bar.py::test_simplicial_identities",
    "commalg.CommDGAlgebra.monomial_basis": "perfbench/spans.py",
    "deltas.abelianization_quotient":
        "tests/test_bar.py::test_degree_zero_homology_is_abelianization",
    "findim.FinDimAlgebra.to_json":
        "tests/test_findim.py::test_json_round_trip",
    "freealg.FreeDGAlgebra.to_json":
        "tests/test_freealg.py::test_json_round_trip",
    "lie.direct_sum": "tests/test_lie.py::"
        "test_a_ce_sign_error_on_long_words_fails_every_lie_route",
    "linalg.QuotientSpace.project":
        "tests/test_linalg.py::test_quotient_space_matches_dense_reference",
    "linalg.SparseMatrix.entries": "perfbench/spans.py",
    "linalg.homology_dim": "perfbench/spans.py",
}


def package_functions():
    """{code object: "module.qualname"} of every function defined in a
    symhom module, at module level or in a class body.  classmethod,
    staticmethod, property and functools.cache are unwrapped to the
    function that runs.  A frame is matched by its code object: the line
    number of a decorated function is its decorator's, and co_qualname is
    newer than the oldest supported Python."""
    out = {}
    for info in pkgutil.iter_modules(symhom.__path__):
        module = importlib.import_module("symhom." + info.name)

        def add(obj):
            if isinstance(obj, property):
                for fn in (obj.fget, obj.fset, obj.fdel):
                    add(fn)
                return
            obj = getattr(obj, "__func__", obj)  # classmethod, staticmethod
            obj = getattr(obj, "__wrapped__", obj)  # functools.cache
            code = getattr(obj, "__code__", None)
            # a dataclass's generated methods are compiled from no file
            if code is not None and code.co_filename == module.__file__:
                out[code] = "%s.%s" % (info.name, obj.__qualname__)

        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(value):
                for attr in vars(value).values():
                    add(attr)
            else:
                add(value)
    return out


BUILTIN_INPUTS = [name.replace(":N", ":2") for name in cli.BUILTINS]
CAPS = ["--deg-cap", "1", "--weight-cap", "2"]


def cli_jobs(tmp_path):
    """The replayed traffic: every built-in under every pipeline and
    under hs0, hc0 and ce (a built-in without the form a command reads
    exits 2, and that path is traffic too), dg and bar at --n 2, the
    three deltaS ops, compare, selftest, one JSON file of each kind as a
    cache miss and then a hit, and every --format."""
    jobs = []
    for name in BUILTIN_INPUTS:
        jobs += [["hs", name, "--pipeline", p, *CAPS] for p in cli.PIPELINES]
        jobs += [[cmd, name, "--arity-cap", "2", "--weight-cap", "2"]
                 for cmd in ("hs0", "hc0")]
        jobs.append(["ce", name, "--deg-cap", "2"])
    jobs += [["hs", "dual-numbers", "--pipeline", p, "--n", "2", *CAPS]
             for p in ("dg", "bar")]
    jobs += [["deltaS", "compose", "(x1 x0)|(x2)", "(x0 x1)"],
             ["deltaS", "factor", "(x1 x0)|(x2)"],
             ["deltaS", "psi", "(x1 x0)|(x2)"],
             ["compare", "hr dual-numbers " + " ".join(CAPS),
              "hs dual-numbers --pipeline bar " + " ".join(CAPS)],
             ["selftest"]]
    files = {"resolution.json": dual_numbers_resolution(3).to_json(),
             "algebra.json": dual_numbers_algebra().to_json(),
             "lie.json": json.dumps({"basis": [{"name": "x"}, {"name": "y"}],
                                     "bracket": [["x", "y", {"y": 1}]]})}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        job = ["hs", str(tmp_path / name), *CAPS,
               "--cache-dir", str(tmp_path / "cache")]
        jobs += [job, job]  # a miss, then a hit
    jobs += [["hr", "dual-numbers", "--format", fmt, *CAPS]
             for fmt in ("human", "json", "csv")]
    return jobs


def test_unreached_functions_are_exactly_the_listed_ones(tmp_path):
    jobs = cli_jobs(tmp_path)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    cli.build_parser.cache_clear()  # so that a job builds the parser
    sink = io.StringIO()
    for argv in jobs:
        with redirect_stdout(sink), redirect_stderr(sink):
            sys.setprofile(profile)
            try:
                cli.main(argv)
            finally:
                sys.setprofile(None)
    unreached = sorted(name for code, name in package_functions().items()
                       if code not in entered)
    assert unreached == sorted(UNREACHED)
    # each user exists: a benchmark file, or a test defined in its file
    for user in UNREACHED.values():
        path, _, test = user.partition("::")
        assert path.startswith(("tests/", "perfbench/")), user
        with open(os.path.join(ROOT, path)) as fh:
            tree = ast.parse(fh.read())
        assert not test or test in {node.name for node in tree.body
                                    if isinstance(node, ast.FunctionDef)}, \
            user


def test_ab_runs_an_a_a_comparison_without_failures():
    # the working tree against itself on dg-deep
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab.py"), ROOT, ROOT,
         "--workload", "dg-deep", "--seconds", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    # each side's wall, job p50 and job tail, as perfbench/run.py reads them
    for label, line in zip(("base", "new"), lines):
        words = line.split()
        assert words[:2] == [label, "wall"], line
        for metric in ("job_p50_ms", "job_tail_ms"):
            assert float(words[words.index(metric) + 1]) > 0, line
    assert lines[-1].startswith("change ") and " job_tail_ms " in lines[-1]
    assert lines[-1].endswith(" failed 0")
