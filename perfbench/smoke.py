"""Smoke check of the benchmark itself, at tiny caps.

    python3 perfbench/smoke.py

For every workload: an untraced and a traced run print exactly the
metrics BENCHMARK.json names, with its units, and every job passes its
oracle; the traced layer self times add up to the traced round wall
time, and to the untraced one within the tracing overhead.  The
negative control (a deliberately wrong reference) must make every
workload report failures.  Finally the benchmark, copied without the
sources it measures, must exit nonzero without printing a result.
Takes about a minute; exit code 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(out, workload, trace, *extra, script=RUN, cwd=ROOT):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny",
           "--out", out] + list(extra)
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc.stderr


def check_result(spec, code, result, trace):
    problems = []
    if code != 0 or not result or not result["correct"]:
        return ["exit %s, result %s" % (code, result)]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    if result["failed"] or result["attempted"] < 1:
        problems.append("attempted %(attempted)s failed %(failed)s" % result)
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != units:
        problems.append("metrics/units differ from BENCHMARK.json: %s"
                        % sorted(set(got.items()) ^ set(units.items())))
    if trace and not problems:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        total = sum(v for k, v in values.items() if k.endswith(".self_s"))
        wall = values["trace.wall_s"]
        if abs(total - wall) > 1e-6 * max(wall, 1.0):
            problems.append("self times sum to %g, traced wall %g"
                            % (total, wall))
        slack = abs(values["trace.overhead_s"]) + 1e-9
        if abs(total - values["trace.untraced_wall_s"]) > slack:
            problems.append("self times differ from untraced wall by more "
                            "than the overhead")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".smoke-") as out:
        for workload in [w["name"] for w in spec["workloads"]]:
            before = len(failures)
            for trace in (0, 1):
                code, result, err = run(out, workload, trace)
                for p in check_result(spec, code, result, trace):
                    failures.append("%s trace=%d: %s %s"
                                    % (workload, trace, p, err[-500:]))
            code, result, _ = run(out, workload, 0, "--negative-control")
            if code == 0 or not result or result["failed"] == 0 \
                    or result["correct"]:
                failures.append("%s: negative control not detected (%s)"
                                % (workload, result))
            print("%-10s %s" % (workload, "FAILED" if len(failures) > before
                                 else "ok"), flush=True)

        bare = os.path.join(out, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, result, _ = run(os.path.join(bare, "out"), "dg-deep", 0,
                              script=os.path.join(bare, "perfbench",
                                                  "run.py"), cwd=bare)
        if code == 0 or result is not None:
            failures.append("without sources: exit %s, result %s"
                            % (code, result))
    for f in failures:
        print("FAIL " + f)
    print("smoke: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
