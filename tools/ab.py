"""In-process A/B of two symhom source trees on one benchmark workload.

    python3 tools/ab.py BASE NEW --workload dg-deep --seconds 60
    python3 tools/ab.py HEAD~1 . --workload bar-dual --seconds 60

BASE and NEW each name a source tree: a directory holding src/symhom,
or a git revision of this repository, unpacked with git archive into a
temporary directory.  Both trees are imported into one process under
distinct package names, the named workload of perfbench/workloads.py is
built on each, and their rounds alternate (the side that goes first
alternates too) for --seconds, so slow drift of the host falls on both
sides alike.  Each side's wall is the sum of each job's and each
check's fastest time, as perfbench/run.py sums them, and its job_p50_ms
and job_tail_ms are run.py's median and tail of the jobs' fastest times.
The last line gives the change in wall and in job_tail_ms and the
failed-job count; the exit code is 1 when a job failed.

This sizes a change against drift on a noisy host.  Acceptance is still
perfbench/run.py on each commit, compared by perfbench/compare.py.
"""

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

from run import MODULES, _fastest, tail  # noqa: E402
from workloads import WORKLOADS, Recorder  # noqa: E402


def source_tree(tree, scratch):
    """The directory holding src/symhom for a directory or a git rev."""
    if os.path.isdir(os.path.join(tree, "src", "symhom")):
        return tree
    archive = os.path.join(scratch, "tree.tar")
    subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", "-o",
                    archive, tree, "src"], check=True)
    out = tempfile.mkdtemp(dir=scratch)
    with tarfile.open(archive) as tar:
        tar.extractall(out)
    return out


def import_tree(root, package):
    """Every symhom module of the tree at root, imported as package.name:
    {layer: module}.  The modules import each other relatively, so the
    two trees share nothing."""
    pkg = os.path.join(root, "src", "symhom")
    spec = importlib.util.spec_from_file_location(
        package, os.path.join(pkg, "__init__.py"),
        submodule_search_locations=[pkg])
    sys.modules[package] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[package])
    return {name: importlib.import_module(package + "." + name)
            for name in MODULES}


def side_ms(rec):
    """wall, job_p50_ms and job_tail_ms of one side, in ms."""
    jobs = list(_fastest(rec, "job").values()) or [0.0]
    wall = sum(jobs) + sum(_fastest(rec, "check").values())
    return wall, statistics.median(jobs), tail(jobs)[0]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", help="directory or git revision")
    p.add_argument("new", help="directory or git revision")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seconds", type=float, default=60.0)
    args = p.parse_args(argv)
    with open(os.path.join(PERFBENCH, "oracles.json")) as fh:
        data = json.load(fh)
    workload = WORKLOADS[args.workload]
    os.environ.pop("SYMHOM_CACHE_DIR", None)
    with tempfile.TemporaryDirectory() as scratch:
        sides = []
        for label, tree in (("base", args.base), ("new", args.new)):
            m = import_tree(source_tree(tree, scratch), "symhom_ab_" + label)
            state = workload.build(m, data, seed=1, tiny=False,
                                   negative=False, scratch=scratch)
            sides.append((label, m, state, Recorder()))
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            for _, m, state, rec in sides:
                rec.start_round()
                workload.round(m, state, rec)
            sides.reverse()
    sides.sort(key=lambda side: side[0])
    ms = {}
    for label, _, _, rec in sides:
        ms[label] = side_ms(rec)
        print("%-4s wall %9.3f ms  job_p50_ms %8.3f  job_tail_ms %8.3f  "
              "rounds %d  failed %d/%d" % ((label,) + ms[label] + (
                  len(rec.rounds), rec.failed, rec.attempted)))
        for error in rec.errors:
            print("  %s" % error)
    failed = sum(rec.failed for *_, rec in sides)
    print("change %+.1f%%  job_tail_ms %+.1f%%  failed %d"
          % (100.0 * (ms["new"][0] / ms["base"][0] - 1),
             100.0 * (ms["new"][2] / ms["base"][2] - 1), failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
