"""Command-line front end: run the pipelines on built-in or JSON inputs,
emit Betti tables in several formats, cache results, and compare runs.

BUILTINS, KINDS and PIPELINES below are the one place that knows the
inputs and the routes.  An input is a built-in name (with a size, as in
poly:3, when BUILTINS spells it name:N) or a JSON file, sniffed by its
keys when no pipeline names its kind: "generators" -> DG resolution,
"mult" -> structure-constant algebra, otherwise a Lie algebra.  hr is
hs --pipeline dg, and --n (coefficients in k^n) is read by dg and bar
and refused by the Lie routes.
"""

import argparse
import hashlib
import json
import os
import shlex
import sys
import time

from . import __version__
from .bar import CapOverflowError, hr_via_bar
from .betti import BettiTable
from .commalg import abelianize
from .deltas import (compose, factorize, format_morphism, hc0_coequalizer,
                     hs0_coequalizer, parse_morphism, psi_sym)
from .findim import (FinDimAlgebra, dual_numbers_algebra, free_tensor_algebra,
                     matrix_algebra, truncated_poly_algebra,
                     upper_triangular_algebra)
from .freealg import (FreeDGAlgebra, dual_numbers_resolution,
                      free_resolution_of_tensor_algebra)
from .lie import (DGLie, abelian_lie, ce_homology, heisenberg,
                  hs_env_via_cobar, hs_env_closed_form, nonabelian_2dim, sl2)
from .repfun import hr_n


# inputs and routes ------------------------------------------------------

# name -> {kind: factory(size, deg_cap, weight_cap)}.  Only a built-in
# spelled name:N here takes a size: N in name:N, 1 when absent.  The first
# kind is the one hs reads by default.
BUILTINS = {
    "dual-numbers": {
        "resolution": lambda size, d, w: dual_numbers_resolution(d + 1),
        "algebra": lambda *_: dual_numbers_algebra()},
    "poly:N": {
        "lie": lambda size, d, w: abelian_lie(size),
        "algebra": lambda size, d, w: truncated_poly_algebra(w, size)},
    "free:N": {
        "algebra": lambda size, d, w: free_tensor_algebra(size, w),
        "resolution": lambda size, d, w:
            free_resolution_of_tensor_algebra(size)},
    "m2": {"algebra": lambda *_: matrix_algebra(2)},
    "ut2": {"algebra": lambda *_: upper_triangular_algebra()},
    "sl2": {"lie": lambda *_: sl2()},
    "heisenberg": {"lie": lambda *_: heisenberg()},
    "nab2": {"lie": lambda *_: nonabelian_2dim()},
    "abelian:N": {"lie": lambda size, d, w: abelian_lie(size)},
}

# kind -> (default pipeline, JSON parser, key that marks a JSON file of
# this kind); a file with none of the keys is of the last kind.
KINDS = {
    "resolution": ("dg", FreeDGAlgebra.from_json, "generators"),
    "algebra": ("bar", FinDimAlgebra.from_json, "mult"),
    "lie": ("cobar", DGLie.from_json, None),
}

# pipeline -> (kind it reads, table(input, deg_cap, weight_cap, n)); a Lie
# route has no k^n form.  rep_n(R, 1) is abelianize(R), each generator g
# renamed g:11, so dg at n = 1 is the abelianization's table.
PIPELINES = {
    "dg": ("resolution", lambda R, d, w, n: hr_n(R, n, d, w)),
    "bar": ("algebra", lambda A, d, w, n: hr_via_bar(A, d, w, n=n)),
    "cobar": ("lie", lambda a, d, w, n: hs_env_via_cobar(a, d, w)),
    "closed-form": ("lie", lambda a, d, w, n: hs_env_closed_form(a, d, w)),
}


def _builtin(name):
    """(factories, size) of a built-in name, or None when the head of name
    before ":" is no built-in (name is then a path)."""
    head, colon, arg = name.partition(":")
    if head in BUILTINS:
        if colon:
            raise ValueError("built-in %s takes no size; only %s do"
                             % (head, ", ".join(n for n in BUILTINS
                                                if n.endswith(":N"))))
        return BUILTINS[head], 1
    if head + ":N" not in BUILTINS:
        return None
    try:
        size = int(arg) if colon else 1
    except ValueError:
        size = 0
    if size < 1:
        raise ValueError("size argument of %s must be an integer >= 1"
                         % name)
    return BUILTINS[head + ":N"], size


def _read(name):
    """The source of an input: (factories, size, None) of a built-in, or
    (None, None, bytes) of a JSON file.  A job reads its file once, so
    that its cache hash, its kind and its parse see the same bytes."""
    builtin = _builtin(name)
    if builtin is not None:
        return builtin + (None,)
    try:
        with open(name, "rb") as fh:
            return None, None, fh.read()
    except OSError as exc:
        raise ValueError("input %s cannot be read: %s" % (name, exc)) from None


def _default_kind(name, source):
    """The kind an input is read as when no pipeline names one: a
    built-in's first kind, or the kind a JSON file's keys mark."""
    factories, _, data = source
    if factories is not None:
        return next(iter(factories))
    data = _parse_input(name, data, json.loads, "JSON")
    if not isinstance(data, dict):
        raise ValueError("JSON input %s is not an object" % name)
    return next(k for k, (_, _, key) in KINDS.items()
                if key is None or key in data)


def _build(name, source, kind, deg_cap, weight_cap):
    """The input of the given kind that a source makes."""
    factories, size, data = source
    if factories is None:
        return _parse_input(name, data, KINDS[kind][1], kind)
    if kind not in factories:
        raise ValueError("built-in %s has no %s form (it has: %s)"
                         % (name, kind, ", ".join(factories)))
    return factories[kind](size, deg_cap, weight_cap)


def load(name, kind=None, deg_cap=None, weight_cap=None):
    """(kind, input) for a built-in name or a JSON path.

    kind None means the input's default kind.  Raises ValueError when a
    built-in has no such kind or the file does not parse as one.
    """
    source = _read(name)
    kind = kind or _default_kind(name, source)
    return kind, _build(name, source, kind, deg_cap, weight_cap)


def _parse_input(path, data, parse, kind):
    """parse(data), the text of the file at path; malformed JSON, a
    missing key, a value of the wrong shape or an input the constructor
    rejects becomes a ValueError that names the file."""
    try:
        return parse(data.decode())
    except json.JSONDecodeError as exc:
        raise ValueError("%s input %s is not valid JSON: %s"
                         % (kind, path, exc)) from None
    except ValueError as exc:
        raise ValueError("%s input %s is invalid: %s"
                         % (kind, path, exc)) from None
    except KeyError as exc:
        raise ValueError("%s input %s: missing or unknown key %s"
                         % (kind, path, exc)) from None
    except (TypeError, AttributeError) as exc:
        raise ValueError("%s input %s is malformed: %s"
                         % (kind, path, exc)) from None


def _input_name(name):
    """argparse type of an input: a built-in (N >= 1 in poly:N, free:N,
    abelian:N; no size on the others) or an existing file."""
    try:
        if _builtin(name) is None and not os.path.isfile(name):
            raise ValueError("unknown input %s: neither a built-in (%s) nor "
                             "an existing file" % (name, ", ".join(BUILTINS)))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return name


def _at_least(low):
    """argparse type of an integer option that must be >= low."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                "must be >= %d, got %d" % (low, value))
        return value
    return integer


# cache ------------------------------------------------------------------

# Raised whenever a fix changes some computed table, so that no entry
# cached before the fix is served.  2: cobar generators kept past the caps.
# 3: the algebra form of poly:N is k[x_1..x_N], not k[x].  4: hs --pipeline
# dg reads --n (it served the n = 1 table for every n).
ALGORITHM_VERSION = 4


def _digest(job):
    payload = "%s|%s|%d" % (json.dumps(job, sort_keys=True), __version__,
                            ALGORITHM_VERSION)
    return hashlib.sha256(payload.encode()).hexdigest()


def _cached_table(args, job, compute):
    """The BettiTable compute() returns, served from and written to the
    cache dir (--cache-dir or SYMHOM_CACHE_DIR) when one is set."""
    d = args.cache_dir or os.environ.get("SYMHOM_CACHE_DIR")
    if not d:
        return compute()
    digest = _digest(job)
    path = os.path.join(d, digest + ".json")
    try:
        with open(path) as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        record = None  # absent or unreadable: a miss, rewritten below
    if isinstance(record, dict) and record.get("job") == job:
        try:
            table = BettiTable.from_json(json.dumps(record["result"]))
        except (KeyError, TypeError, ValueError):
            table = None  # not a table: a miss, rewritten below
        if table is not None and table.deg_cap == job["deg_cap"] \
                and table.weight_cap == job["weight_cap"]:
            return table
    t0 = time.time()
    table = compute()
    os.makedirs(d, exist_ok=True)
    record = {"digest": digest, "job": job,
              "result": json.loads(table.to_json()),
              "wall_time": time.time() - t0, "version": __version__}
    # write a private temp file and rename it over the entry, so a reader
    # never sees a half-written entry
    tmp = "%s.%d.tmp" % (path, os.getpid())
    with open(tmp, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    os.replace(tmp, path)
    return table


# output -----------------------------------------------------------------

def _emit_table(table, fmt):
    if fmt == "json":
        sys.stdout.write(table.to_json() + "\n")
    elif fmt == "csv":
        sys.stdout.write(table.to_csv())
    else:
        sys.stdout.write(table.render() + "\n")


def _emit_scalar(value, fmt):
    if fmt == "json":
        sys.stdout.write(json.dumps(value) + "\n")
    else:
        sys.stdout.write("%s\n" % value)


# pipelines --------------------------------------------------------------

def _hs_table(args):
    """The hs (or hr) table, cached under the pipeline that runs: an
    input's default pipeline and the same pipeline named by --pipeline
    share one entry, and so do hr and hs --pipeline dg."""
    source = _read(args.input)
    pipeline = args.pipeline or KINDS[_default_kind(args.input, source)][0]
    kind, route = PIPELINES[pipeline]
    if kind == "lie" and args.n != 1:
        raise ValueError("--n %d: the %s pipeline has no k^n form"
                         % (args.n, pipeline))
    job = {"cmd": "hs", "input": args.input, "pipeline": pipeline,
           "deg_cap": args.deg_cap, "weight_cap": args.weight_cap,
           "n": args.n}
    data = source[2]
    if data is not None:
        # a JSON file is keyed by its bytes too, so that a rewritten file
        # is not served the table of its old contents
        job["sha256"] = hashlib.sha256(data).hexdigest()

    def compute():
        value = _build(args.input, source, kind, args.deg_cap,
                       args.weight_cap)
        return route(value, args.deg_cap, args.weight_cap, args.n)

    return _cached_table(args, job, compute)


def cmd_hs(args):
    _emit_table(_hs_table(args), args.format)
    return 0


def cmd_hs0(args):
    _, A = load(args.input, "algebra", weight_cap=args.weight_cap)
    _emit_scalar(hs0_coequalizer(A, args.arity_cap), args.format)
    return 0


def cmd_hc0(args):
    _, A = load(args.input, "algebra", weight_cap=args.weight_cap)
    _emit_scalar(hc0_coequalizer(A, args.arity_cap), args.format)
    return 0


def cmd_ce(args):
    _, a = load(args.input, "lie", deg_cap=args.deg_cap)
    _emit_scalar(ce_homology(a, args.deg_cap), args.format)
    return 0


# deltaS op -> the number of morphisms it takes
DELTAS_ARITY = {"compose": 2, "factor": 1, "psi": 1}


def cmd_deltas(args):
    want = DELTAS_ARITY[args.op]
    if len(args.args) != want:
        raise ValueError("deltaS %s takes %d morphism%s, got %d"
                         % (args.op, want, "s" if want > 1 else "",
                            len(args.args)))
    try:
        morphisms = [parse_morphism(text) for text in args.args]
    except ValueError as exc:
        raise ValueError("deltaS %s: %s" % (args.op, exc)) from None
    f = morphisms[0]
    if args.op == "compose":
        print(format_morphism(compose(morphisms[1], f)))
    elif args.op == "factor":
        sigma, mono = factorize(f)
        print("sigma:", " ".join(str(s) for s in sigma))
        print("monotone:", format_morphism(mono))
    else:  # psi; argparse admits no other op
        for j, word in enumerate(psi_sym(f)):
            print("X%d -> %s" % (j, " ".join("x%d" % v for v in word) or "1"))
    return 0


def cmd_compare(args):
    parser = build_parser()
    subs = [parser.parse_args(shlex.split(spec))
            for spec in (args.left, args.right)]
    if any(sub.func is not cmd_hs for sub in subs):
        raise ValueError("compare expects two hs or hr job specs")
    left, right = (_hs_table(sub) for sub in subs)
    caps = (min(left.deg_cap, right.deg_cap),
            min(left.weight_cap, right.weight_cap))
    if (left.deg_cap, left.weight_cap) != (right.deg_cap, right.weight_cap):
        print("warning: cap mismatch, comparing on (deg<=%d, weight<=%d)"
              % caps, file=sys.stderr)
    diffs = left.diff(right)
    if not diffs:
        print("tables agree on shared caps (deg<=%d, weight<=%d)" % caps)
        return 0
    for (h, w), a, b in diffs:
        print("mismatch at (h=%d, w=%d): %d vs %d" % (h, w, a, b))
    return 1


def cmd_selftest(args):
    A = dual_numbers_algebra()
    R = dual_numbers_resolution(5)
    checks = [
        ("resolution d^2", R.check_d_squared(5, 6)),
        ("abelianized d^2", abelianize(R).check_d_squared(5, 6)),
        ("pipelines agree",
         abelianize(R).homology_table(3, 5) == hr_via_bar(A, 3, 5)),
        ("hs0 stabilizes",
         hs0_coequalizer(A, 2) == hs0_coequalizer(A, 3) == 2),
        ("sl2 closed form",
         hs_env_via_cobar(sl2(), 4, 6) == hs_env_closed_form(sl2(), 4, 6)),
    ]
    ok = True
    for label, passed in checks:
        print("%-20s %s" % (label, "ok" if passed else "FAIL"))
        ok = ok and passed
    return 0 if ok else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="symhom",
        description="Exact homology of associative algebras "
                    "(symmetric/representation homology pipelines).")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, cached=True):
        """--format, and for the cached table commands (hs, hr, both run
        by cmd_hs) --n, the caps and --cache-dir."""
        sp.add_argument("--format", choices=["human", "json", "csv"],
                        default="human")
        if cached:
            sp.add_argument("--n", type=_at_least(1), default=1,
                            help="coefficients in k^n: rep_n on dg, n x n "
                                 "matrices on bar; cobar and closed-form "
                                 "take only 1")
            sp.add_argument("--deg-cap", type=_at_least(0), default=4)
            sp.add_argument("--weight-cap", type=_at_least(0), default=6)
            sp.add_argument("--cache-dir", default=None)
            sp.set_defaults(func=cmd_hs)

    sp = sub.add_parser("hs", help="symmetric homology Betti table")
    sp.add_argument("input", type=_input_name)
    sp.add_argument("--pipeline", choices=list(PIPELINES))
    common(sp)

    sp = sub.add_parser("hr", help="representation homology of a "
                                   "resolution: hs --pipeline dg")
    sp.add_argument("input", type=_input_name)
    common(sp)
    sp.set_defaults(pipeline="dg")

    for name, fn in (("hs0", cmd_hs0), ("hc0", cmd_hc0)):
        sp = sub.add_parser(name, help="degree-0 coequalizer dimension")
        sp.add_argument("input", type=_input_name)
        sp.add_argument("--arity-cap", type=int, default=3)
        sp.add_argument("--weight-cap", type=_at_least(0), default=4)
        common(sp, cached=False)
        sp.set_defaults(func=fn)

    sp = sub.add_parser("ce", help="Chevalley-Eilenberg homology dims")
    sp.add_argument("input", type=_input_name)
    sp.add_argument("--deg-cap", type=_at_least(0), default=4)
    common(sp, cached=False)
    sp.set_defaults(func=cmd_ce)

    sp = sub.add_parser("deltaS", help="symmetric-category calculator")
    sp.add_argument("op", choices=list(DELTAS_ARITY))
    sp.add_argument("args", nargs="+")
    sp.set_defaults(func=cmd_deltas)

    sp = sub.add_parser("compare", help="entrywise diff of two hs or hr runs")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("selftest", help="quick consistency checks")
    sp.set_defaults(func=cmd_selftest)
    return p


def main(argv=None):
    """Run one command and return its exit code: 0 ok, 1 mismatch (compare
    found differing entries, or a selftest check failed), 2 bad input (an
    unknown or malformed input, an input with no form for the pipeline, a
    value out of range), 3 over budget (CapOverflowError).  Exits 2 and 3
    print one "error:" line on stderr and no traceback; argparse itself
    exits 2 on an option or input it rejects.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IndexError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except CapOverflowError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
