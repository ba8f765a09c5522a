"""symhom benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload dg-deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; symhom is imported from ./src.
The run sets up several times (import symhom and build the inputs) and
keeps the median as setup_s, then repeats rounds of the workload's jobs,
each with its cross-check, for --seconds.  Every job is checked against
an oracle.  With --trace 0 it prints the end-to-end metrics; with
--trace 1 it spends half the time untraced and half traced, and prints
the per-layer metrics.  The last stdout line is one JSON object; the
same record, stamped with the scalar backend, Python version, nproc and
source version, is written under --out (spans too, when tracing).
Exit code 0 when every job matched its oracle, 1 otherwise.
"""

import argparse
import gzip
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from spans import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Recorder  # noqa: E402

MODULES = ["rationals", "linalg", "betti", "freealg", "commalg", "findim",
           "bar", "deltas", "lie", "repfun", "cli"]
SETUPS = 25
PROBES = 3
TAIL_BEYOND = 10

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "jobs_per_s": "1/s",
                    "job_p50_ms": "ms", "job_tail_ms": "ms",
                    "peak_rss_mb": "MB"}


def import_symhom():
    """Import every symhom module afresh: {layer: module}."""
    for name in [n for n in sys.modules
                 if n == "symhom" or n.startswith("symhom.")]:
        del sys.modules[name]
    return {name: importlib.import_module("symhom." + name)
            for name in MODULES}


def setup(workload, data, args, scratch):
    """Time import + input construction SETUPS times; keep the last."""
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        m = import_symhom()
        state = workload.build(m, data, args.seed, args.tiny,
                               args.negative_control, scratch)
        times.append(time.perf_counter() - t0)
    return m, state, times


def probe():
    """A fixed piece of pure-Python work like symhom's inner loops
    (rational arithmetic, dicts keyed by tuples, small sorts).  It does
    not touch symhom, so only the machine's speed can move its time."""
    counts = {}
    total = Fraction(0)
    for i in range(1, 300):
        key = (i % 17, i % 5)
        counts[key] = counts.get(key, 0) + i
        total += Fraction(i % 7 + 1, i % 11 + 1)
        sorted((i % 13, i % 3, i % 7))
    return total


def run_rounds(workload, m, state, rec, seconds, tracer=None):
    """Closed loop: start rounds until `seconds` have passed.

    Returns each round's wall time; with a tracer, each round is one root
    span and `first_spans` gets the index of its first span.
    """
    durations = []
    first_spans = []
    start = time.perf_counter()
    while True:
        for _ in range(PROBES):
            t0 = time.perf_counter()
            probe()
            rec.probe_ms.append((time.perf_counter() - t0) * 1000.0)
        rec.start_round()
        t0 = time.perf_counter()
        if tracer is None:
            workload.round(m, state, rec)
        else:
            first_spans.append(len(tracer.spans))
            span = tracer.open("bench.round", "bench")
            try:
                workload.round(m, state, rec)
            finally:
                tracer.close(span)
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start >= seconds:
            return durations, first_spans


def tail(samples):
    """Highest percentile with TAIL_BEYOND samples beyond it, and that
    percentile; the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _fastest(rec, part):
    """Each slot's fastest run of the given part (job or check), in ms."""
    best = {}
    for r in rec.rounds:
        for slot, ms in r[part].items():
            best[slot] = min(ms, best.get(slot, ms))
    return best


def end_to_end(rec, setup_times):
    """End-to-end metrics from the least disturbed samples.

    Other tenants of a shared host only ever add time, and here they
    switch the machine between a fast and a much slower state, sometimes
    for seconds, sometimes for a whole run.  The fastest of many short
    samples is steady where a run's median, or the fastest of long
    rounds, is not.  So every job and every check is timed on its own,
    and a round's time is the sum of each part's fastest run.
    """
    jobs = _fastest(rec, "job")
    checks = _fastest(rec, "check")
    wall = (sum(jobs.values()) + sum(checks.values())) / 1000.0
    latencies = list(jobs.values()) or [0.0]
    tail_ms, tail_pct = tail(latencies)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "jobs_per_s": len(jobs) / wall if wall else 0.0,
        "job_p50_ms": statistics.median(latencies),
        "job_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
    info = {"job_tail_percentile": tail_pct, "job_slots": len(jobs),
            "probe_ms": min(rec.probe_ms),
            "rounds": len(rec.rounds), "setup_s": setup_times}
    return metrics, info


def bar_monomials(m, tracer):
    """Normalized bar level sizes for every bar call seen while tracing."""
    total = 0
    for A, deg_cap, weight_cap in tracer.bar_calls.values():
        for level in range(deg_cap + 2):
            total += len(m["bar"].bar_level_basis(A, level, weight_cap))
    return total


def per_layer(m, workload, state, data, args, scratch, rec, seconds):
    """Half the time untraced, half traced.

    Times are those of the fastest traced round (see end_to_end); counts
    are per round, averaged over the traced rounds.
    """
    setup_tracer = Tracer()
    setup_tracer.install(m)
    try:
        workload.build(m, data, args.seed, args.tiny, args.negative_control,
                       scratch)
    finally:
        setup_tracer.uninstall()
    _, setup_groups = setup_tracer.self_times()

    untraced, _ = run_rounds(workload, m, state, rec, seconds / 2)
    rec.cli = {"hit": [], "miss": [], "files": []}
    tracer = Tracer()
    tracer.install(m)
    try:
        _, first = run_rounds(workload, m, state, rec, seconds / 2,
                                   tracer)
    finally:
        tracer.uninstall()
    n = len(first)
    roots = [tracer.spans[i] for i in first]
    best = min(range(n), key=lambda i: roots[i][3] - roots[i][2])
    end = first[best + 1] if best + 1 < n else len(tracer.spans)
    layers, groups = tracer.self_times(first[best], end)
    wall = roots[best][3] - roots[best][2]
    values = {}
    for layer in LAYERS:
        values[layer + ".self_s"] = layers[layer]
    values.update(groups)
    for name, count in tracer.counts.items():
        values[name] = count if name == "linalg.max_dim" else count / n
    for name in ("findim.build_s", "freealg.build_s"):
        values[name.replace(".build_s", ".setup_build_s")] = \
            setup_groups[name]
    values["bar.monomials"] = bar_monomials(m, tracer)
    cli = rec.cli
    lookups = len(cli["hit"]) + len(cli["miss"])
    values["cli.hit_ms"] = statistics.fmean(cli["hit"]) if cli["hit"] else 0.0
    values["cli.miss_ms"] = (statistics.fmean(cli["miss"])
                             if cli["miss"] else 0.0)
    values["cli.hit_ratio"] = len(cli["hit"]) / lookups if lookups else 0.0
    values["cli.cache_files"] = (statistics.fmean(cli["files"])
                                 if cli["files"] else 0.0)
    values["trace.wall_s"] = wall
    values["trace.untraced_wall_s"] = min(untraced)
    values["trace.overhead_s"] = wall - min(untraced)
    values["trace.spans"] = len(tracer.spans) / n
    metrics = {k: _metric(v, unit_of(k)) for k, v in sorted(values.items())}
    info = {"rounds_untraced": len(untraced), "rounds_traced": n,
            "trace_targets_missing": tracer.missing}
    return metrics, info, tracer


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def stamp(m, args):
    """What a result must be compared with: backend, interpreter, host."""
    QQ = m["rationals"].QQ
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "symhom")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = "unknown"  # a checkout without .git has no commit to name
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.split()
        if os.path.samefile(top, ROOT):
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return {"backend": "%s.%s" % (QQ.__module__, QQ.__name__),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit,
            "source_sha256": digest.hexdigest(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "tiny": args.tiny, "negative_control": args.negative_control}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"],
                   help="one workload, or all, each in a process of its own")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--tiny", action="store_true",
                   help="tiny caps, for the smoke check")
    p.add_argument("--negative-control", action="store_true",
                   help="check against a deliberately wrong reference")
    p.add_argument("--out", default=os.path.join(ROOT, ".perfbench_out"),
                   help="directory for run records and spans")
    return p.parse_args(argv)


def run_all(args):
    """Every workload in a fresh process of its own, one after another."""
    code = 0
    for name in sorted(WORKLOADS):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", args.out]
        cmd += ["--tiny"] * args.tiny
        cmd += ["--negative-control"] * args.negative_control
        print("== %s" % name, flush=True)
        code = max(code, subprocess.run(cmd).returncode)
    return code


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "symhom", "__init__.py")):
        print("perfbench: no symhom sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("SYMHOM_CACHE_DIR", None)
    with open(os.path.join(HERE, "oracles.json")) as fh:
        data = json.load(fh)
    scratch = os.path.join(args.out, "scratch")
    os.makedirs(scratch, exist_ok=True)
    workload = WORKLOADS[args.workload]

    m, state, setup_times = setup(workload, data, args, scratch)
    rec = Recorder()
    tracer = None
    if args.trace:
        metrics, info, tracer = per_layer(m, workload, state, data, args,
                                          scratch, rec, args.seconds)
    else:
        run_rounds(workload, m, state, rec, args.seconds)
        metrics, info = end_to_end(rec, setup_times)
    info["fail_ratio"] = rec.failed / rec.attempted
    info["errors"] = rec.errors
    result = {"correct": rec.failed == 0, "attempted": rec.attempted,
              "failed": rec.failed, "metrics": metrics}

    record = {"stamp": stamp(m, args), "info": info, "result": result}
    runs = os.path.join(args.out, "runs")
    os.makedirs(runs, exist_ok=True)
    tag = "%s.s%d.t%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(runs, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if tracer is not None:
        spans = os.path.join(args.out, "spans")
        os.makedirs(spans, exist_ok=True)
        with gzip.open(os.path.join(spans, tag + ".jsonl.gz"), "wt") as fh:
            tracer.dump(fh)

    print("stamp " + json.dumps(record["stamp"], sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    for name, metric in metrics.items():
        print("%-28s %14.6f %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
