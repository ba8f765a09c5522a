"""The benchmark's workloads: inputs built from a seed, one round of jobs,
and an oracle for every job.

A round runs each job of the workload once together with its cross-check
route.  Every call into symhom goes through the module objects passed in
(``m["lie"].hs_env_via_cobar(...)``), so a tracer that rebinds module
attributes sees it.  See README.md for why each workload exists.
"""

import contextlib
import io
import os
import random
import shlex
import shutil
import time

# The dual-numbers symmetric homology table through degree 8 and weight
# 12, pinned independently of the seed recording (the same values as the
# acceptance test).
PINNED_DUAL_NUMBERS = {
    (0, 0): 1, (0, 1): 1,
    (2, 3): 1,
    (3, 5): 1,
    (4, 5): 1, (4, 6): 1,
    (5, 7): 1, (5, 8): 1,
    (6, 7): 1, (6, 8): 1,
    (7, 9): 1, (7, 10): 1,
    (8, 9): 1, (8, 10): 2,
}
PINNED_CAPS = (8, 12)


class Recorder:
    """Failure accounting and timings for one run.

    A round's timed parts are its jobs and their checks, keyed by slot:
    the same slot names the same part in every round, so each part's
    fastest run can be taken.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        # per round: {"job": {slot: ms}, "check": {slot: ms}}
        self.rounds = []
        self.errors = []
        self.probe_ms = []  # calibration probes between rounds
        self.cli = None  # cache observations, only while tracing

    def start_round(self):
        self.rounds.append({"job": {}, "check": {}})

    def fail(self, what):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def job(self, slot, run, check):
        """Time run(), then time check(result), which must return None.

        Returns the job's latency in ms, or None when it raised.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = run()
        except Exception as exc:  # every failure is counted, none stops the run
            self.fail("%s raised %r" % (slot, exc))
            return None
        t1 = time.perf_counter()
        try:
            problem = check(result)
        except Exception as exc:
            problem = "oracle raised %r" % (exc,)
        t2 = time.perf_counter()
        if problem:
            self.fail("%s: %s" % (slot, problem))
            return None
        self.rounds[-1]["job"][slot] = (t1 - t0) * 1000.0
        self.rounds[-1]["check"][slot] = (t2 - t1) * 1000.0
        return (t1 - t0) * 1000.0


def _within(entries, caps):
    deg, weight = caps
    return {(h, w): d for (h, w), d in entries.items()
            if h <= deg and w <= weight}


def _table_problem(table, caps, expected):
    """None when the table has the caps and exactly the expected entries."""
    if (table.deg_cap, table.weight_cap) != caps:
        return "caps %s, expected %s" % ((table.deg_cap, table.weight_cap),
                                         caps)
    got = table.entries
    if got == expected:
        return None
    bad = sorted(k for k in set(got) | set(expected)
                 if got.get(k, 0) != expected.get(k, 0))
    return "%d entries differ, first %s: %s vs %s" % (
        len(bad), bad[0], got.get(bad[0], 0), expected.get(bad[0], 0))


def _corrupted(entries):
    """A deliberately wrong reference, for the negative control."""
    wrong = dict(entries)
    wrong[(0, 0)] = wrong.get((0, 0), 0) + 1
    return wrong


class Workload:
    name = None
    caps = {}

    def build(self, m, data, seed, tiny, negative, scratch):
        """Inputs for the run; this is the timed set-up."""
        raise NotImplementedError

    def round(self, m, state, rec):
        raise NotImplementedError


class DgDeep(Workload):
    """The DG route on the dual-numbers resolution, at four cap pairs:
    hundreds of small blocks, time in commalg basis enumeration and d."""

    name = "dg-deep"
    caps = {"full": [(8, 12), (9, 13), (10, 14), (11, 15)],
            "tiny": [(3, 5), (4, 6)]}

    def build(self, m, data, seed, tiny, negative, scratch):
        caps = self.caps["tiny" if tiny else "full"]
        top = (max(c[0] for c in caps), max(c[1] for c in caps))
        recorded_caps = data["dg-deep"]["caps"]
        if top[0] > recorded_caps[0] or top[1] > recorded_caps[1]:
            raise ValueError("caps %s exceed the recorded table's %s"
                             % (top, recorded_caps))
        recorded = {(h, w): d for h, w, d in data["dg-deep"]["entries"]}
        if negative:
            recorded = _corrupted(recorded)
        R = m["freealg"].dual_numbers_resolution(top[0] + 1)
        return {"S": m["commalg"].abelianize(R), "caps": caps,
                "recorded": recorded}

    def round(self, m, state, rec):
        for caps in state["caps"]:
            pinned_caps = (min(caps[0], PINNED_CAPS[0]),
                           min(caps[1], PINNED_CAPS[1]))

            def check(table, caps=caps, pinned_caps=pinned_caps):
                pinned = _within(table.entries, pinned_caps)
                if pinned != _within(PINNED_DUAL_NUMBERS, pinned_caps):
                    return "pinned table differs: %s" % sorted(pinned.items())
                return _table_problem(table, caps,
                                      _within(state["recorded"], caps))

            rec.job("dg %s" % (caps,),
                    lambda caps=caps: state["S"].homology_table(*caps),
                    check)


class BarDual(Workload):
    """The simplicial bar route on k[x]/(x^2), plain and with 2x2 matrix
    coefficients: level enumeration, face maps, mid-size eliminations.
    Oracles: the DG route (n = 1) and rep_n (n = 2)."""

    name = "bar-dual"
    caps = {"full": {1: [(3, 6), (4, 5), (5, 5)], 2: [(2, 4), (3, 4), (4, 4)]},
            "tiny": {1: [(2, 4)], 2: [(2, 3)]}}

    def build(self, m, data, seed, tiny, negative, scratch):
        caps = self.caps["tiny" if tiny else "full"]
        top = max(c[0] for cs in caps.values() for c in cs)
        R = m["freealg"].dual_numbers_resolution(top + 1)
        return {"A": m["findim"].dual_numbers_algebra(), "R": R,
                "S": m["commalg"].abelianize(R), "caps": caps,
                "negative": negative}

    def round(self, m, state, rec):
        bar, A = m["bar"], state["A"]
        for n, caps_list in state["caps"].items():
            for caps in caps_list:

                def check(table, n=n, caps=caps):
                    if n == 1:
                        expected = state["S"].homology_table(*caps).entries
                    else:
                        expected = m["repfun"].hr_n(state["R"], n,
                                                    *caps).entries
                    if state["negative"]:
                        expected = _corrupted(expected)
                    return _table_problem(table, caps, expected)

                rec.job("bar n=%d %s" % (n, caps),
                        lambda n=n, caps=caps: bar.hr_via_bar(A, *caps, n=n),
                        check)


# cli-mix ------------------------------------------------------------------

FORMATS = ["human", "json", "csv"]

# Cached commands: every pass runs each one in all three formats, so the
# first run of a spec writes the cache and the other two read it.
CACHED_SPECS = [
    "hs dual-numbers --pipeline dg --deg-cap 3 --weight-cap 5",
    "hs dual-numbers --pipeline dg --deg-cap 6 --weight-cap 8",
    "hs dual-numbers --pipeline dg --deg-cap 8 --weight-cap 10",
    "hs dual-numbers --pipeline bar --deg-cap 2 --weight-cap 4",
    "hs dual-numbers --pipeline bar --deg-cap 3 --weight-cap 5",
    "hs dual-numbers --pipeline bar --n 2 --deg-cap 2 --weight-cap 3",
    "hs free:1 --pipeline bar --deg-cap 2 --weight-cap 4",
    "hs free:2 --pipeline bar --deg-cap 2 --weight-cap 3",
    "hs poly --pipeline bar --deg-cap 2 --weight-cap 4",
    "hs sl2 --pipeline cobar --deg-cap 3 --weight-cap 4",
    "hs sl2 --pipeline closed-form --deg-cap 3 --weight-cap 4",
    "hs heisenberg --pipeline cobar --deg-cap 3 --weight-cap 4",
    "hs nab2 --pipeline cobar --deg-cap 3 --weight-cap 4",
    "hs abelian:2 --deg-cap 3 --weight-cap 4",
    "hr free:1 --n 2 --deg-cap 3 --weight-cap 4",
    "hr dual-numbers --n 2 --deg-cap 2 --weight-cap 4",
]

# compare runs both routes through the cache; its sub-specs are not in
# the list above, so its first run in a pass writes and the second reads
COMPARE_SPECS = [
    ("hs dual-numbers --pipeline dg --deg-cap 2 --weight-cap 5",
     "hs dual-numbers --pipeline bar --deg-cap 2 --weight-cap 5"),
    ("hs sl2 --pipeline cobar --deg-cap 2 --weight-cap 4",
     "hs sl2 --pipeline closed-form --deg-cap 2 --weight-cap 4"),
]

# Uncached commands, run twice per pass (human and json output).
UNCACHED_SPECS = [
    "hs0 m2 --arity-cap 3",
    "hs0 m2 --arity-cap 2",
    "hs0 dual-numbers --arity-cap 3",
    "hs0 ut2 --arity-cap 3",
    "hc0 m2 --arity-cap 3",
    "hc0 ut2 --arity-cap 3",
    "hc0 dual-numbers --arity-cap 3",
    "ce heisenberg --deg-cap 3",
    "ce sl2 --deg-cap 3",
    "ce nab2 --deg-cap 3",
]


def _random_morphism(rng, source_arity, target_arity):
    """A Delta-S morphism string with the given arities."""
    variables = list(range(source_arity))
    rng.shuffle(variables)
    cuts = sorted(rng.randint(0, source_arity)
                  for _ in range(target_arity - 1))
    bounds = [0] + cuts + [source_arity]
    bits = []
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = variables[lo:hi]
        bits.append("(%s)" % " ".join("x%d" % v for v in chunk)
                    if chunk else "1")
    return "|".join(bits)


def deltas_specs():
    """A fixed pool of Delta-S calculator jobs (compose, factor, psi)."""
    rng = random.Random(2210)
    specs = []
    for _ in range(12):
        s = rng.randint(2, 6)
        t = rng.randint(1, s)
        u = rng.randint(1, t)
        f = _random_morphism(rng, s, t)
        g = _random_morphism(rng, t, u)
        specs.append(shlex.join(["deltaS", "compose", f, g]))
        specs.append(shlex.join(["deltaS", "factor", f]))
        specs.append(shlex.join(["deltaS", "psi", g]))
    return specs


def cli_pool(tiny):
    """One pass: (group, spec) pairs; a spec is a shell-quoted argv.

    The specs of a group are one job in different output formats (or
    plain repeats), so the k-th run of a group in a pass is the same job
    in every pass: the first run of a cached group is its cache miss.
    "{cache}" inside a compare sub-spec stands for the pass's cache dir.
    """
    cached = CACHED_SPECS[:3] if tiny else CACHED_SPECS
    compare = COMPARE_SPECS[:1] if tiny else COMPARE_SPECS
    uncached = UNCACHED_SPECS[1:3] if tiny else UNCACHED_SPECS
    deltas = deltas_specs()[:3] if tiny else deltas_specs()
    pool = []
    for spec in cached:
        pool += [(spec, "%s --format %s" % (spec, f)) for f in FORMATS]
    for left, right in compare:
        spec = shlex.join(["compare", left + " --cache-dir {cache}",
                           right + " --cache-dir {cache}"])
        pool += [(spec, spec)] * 2
    for spec in uncached:
        pool += [(spec, "%s --format %s" % (spec, f)) for f in FORMATS[:2]]
    pool += [(spec, spec) for spec in deltas]
    return pool


def cli_specs():
    """Every distinct spec of a full pass, for recording outputs."""
    return sorted({spec for _, spec in cli_pool(tiny=False)})


def cli_argv(spec, cache_dir):
    argv = [a.replace("{cache}", shlex.quote(cache_dir))
            for a in shlex.split(spec)]
    if argv[0] in ("hs", "hr"):
        argv += ["--cache-dir", cache_dir]
    return argv


def run_cli(main, argv):
    """Run symhom.cli.main in-process: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    code = 0 if code is None else code
    return code, out.getvalue()


class CliMix(Workload):
    """A seeded sequence of small CLI jobs with a fresh cache per pass:
    per-job fixed costs (argparse, input validation, cache I/O, deltas)."""

    name = "cli-mix"

    def build(self, m, data, seed, tiny, negative, scratch):
        expected = dict(data["cli-mix"])
        pool = cli_pool(tiny)
        if negative:
            spec = pool[0][1]
            expected[spec] = [expected[spec][0], expected[spec][1] + "x"]
        return {"pool": pool, "expected": expected, "scratch": scratch,
                "rng": random.Random(seed), "passes": 0}

    def round(self, m, state, rec):
        main = m["cli"].main
        jobs = list(state["pool"])
        state["rng"].shuffle(jobs)  # the seed fixes every pass's order
        state["passes"] += 1
        cache = os.path.join(state["scratch"], "cache-%d-%d" % (
            os.getpid(), state["passes"]))
        os.makedirs(cache)
        seen = {}
        try:
            for group, spec in jobs:
                k = seen[group] = seen.get(group, -1) + 1
                self._one(main, "%s #%d" % (group, k), spec, cache, state,
                          rec)
            if rec.cli is not None:
                rec.cli["files"].append(len(os.listdir(cache)))
        finally:
            shutil.rmtree(cache)

    def _one(self, main, slot, spec, cache, state, rec):
        argv = cli_argv(spec, cache)
        observe = rec.cli is not None and argv[0] in ("hs", "hr", "compare")
        before = len(os.listdir(cache)) if observe else 0
        ms = rec.job(slot, lambda: run_cli(main, argv),
                     lambda got: self._problem(got,
                                               state["expected"].get(spec)))
        if observe and ms is not None:
            kind = "miss" if len(os.listdir(cache)) > before else "hit"
            rec.cli[kind].append(ms)

    @staticmethod
    def _problem(got, expected):
        if expected is None:
            return "no recorded output"
        code, out = got
        if code != 0:
            return "exit code %s" % code
        if [code, out] != expected:
            return "stdout differs from the recorded output"
        return None


WORKLOADS = {w.name: w for w in (DgDeep(), BarDual(), CliMix())}
