"""Summarise benchmark run records, or compare two sets of them.

    python3 perfbench/compare.py RUNS_DIR            # spread of one set
    python3 perfbench/compare.py BASE_DIR NEW_DIR    # NEW against BASE

A directory is an --out directory of run.py (its runs/ subdirectory holds
one JSON record per run).  Only untraced runs count.  For each workload
and end-to-end metric it prints the median and the quartile spread
(Q3 - Q1) / median, and the median machine probe (the fastest run of a
fixed loop that does not involve symhom), which tells whether two sets
ran on a machine in a comparable state.  With one set, a spread above
the metric's bound in BENCHMARK.json is flagged UNSTEADY (setup_s
excepted, as its bound applies to medians only).  With two sets, a
median worse than the base median by more than the bound is flagged
WORSE.  Records whose scalar backends differ are never compared: the
script refuses and exits 2.  Exit code 1 when anything is flagged.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    """{workload: [record, ...]} of untraced, non-control runs."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "runs", "*.json"))):
        with open(path) as fh:
            record = json.load(fh)
        stamp = record["stamp"]
        if stamp["trace"] or stamp["negative_control"] or stamp["tiny"]:
            continue
        out.setdefault(stamp["workload"], []).append(record)
    return out


def backends(sets):
    return {r["stamp"]["backend"]
            for runs in sets for records in runs.values() for r in records}


def summary(values):
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sets = [load(d) for d in argv]
    kinds = backends(sets)
    if len(kinds) > 1:
        print("refusing to compare runs on different scalar backends: %s"
              % ", ".join(sorted(kinds)), file=sys.stderr)
        return 2
    print("backend: %s" % ", ".join(sorted(kinds)))
    flagged = False
    for workload in sorted(set().union(*sets)):
        groups = [s.get(workload, []) for s in sets]
        print("\n%s (%s runs; machine probe %s ms)" % (
            workload, " vs ".join(str(len(g)) for g in groups),
            " vs ".join("%.3f" % statistics.median(
                r["info"]["probe_ms"] for r in g) if g else "-"
                for g in groups)))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary([r["result"]["metrics"][name]["value"]
                              for r in g]) if g else None for g in groups]
            if None in stats:
                continue
            line = "  %-12s" % name + "".join(
                "  %12.6g %s spread %5.1f%%" % (med, metric["unit"],
                                                 100 * spread)
                for med, spread in stats)
            verdict = ""
            if len(stats) == 1:
                if name != "setup_s" and stats[0][1] > bound:
                    verdict = "UNSTEADY"
            else:
                base, new = stats[0][0], stats[1][0]
                change = (new - base) / base
                worse = change if metric["better"] == "lower" else -change
                line += "  change %+6.1f%%" % (100 * change)
                if worse > bound:
                    verdict = "WORSE"
            flagged = flagged or bool(verdict)
            print(line + "  (bound %g) %s" % (bound, verdict))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
