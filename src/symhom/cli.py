"""Command-line front end: run the pipelines on built-in or JSON inputs,
emit Betti tables in several formats, cache results, and compare runs.

Built-in inputs: dual-numbers, poly:N (truncated k[x], or an
N-dimensional abelian Lie algebra for the cobar routes), free:N, sl2,
heisenberg, nab2, m2, ut2.  JSON files are sniffed by their keys:
"generators" -> DG resolution, "mult" -> structure-constant algebra,
"bracket"/"basis"-with-degrees -> Lie algebra.
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


def _split_builtin(name):
    if ":" in name:
        head, arg = name.split(":", 1)
        return head, int(arg)
    return name, None


def _input_name(name):
    """argparse type of an input: a built-in's size argument (poly:N,
    free:N, abelian:N) must be an integer >= 1."""
    try:
        _, size = _split_builtin(name)
    except ValueError:
        size = 0
    if size is not None and size < 1:
        raise argparse.ArgumentTypeError(
            "size argument of %s must be an integer >= 1" % name)
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


def load_algebra(name, weight_cap):
    """A finite-dimensional algebra from a built-in name or JSON path."""
    head, arg = _split_builtin(name)
    if head == "dual-numbers":
        return dual_numbers_algebra()
    if head == "poly":
        return truncated_poly_algebra(weight_cap)
    if head == "free":
        return free_tensor_algebra(arg or 1, weight_cap)
    if head == "m2":
        return matrix_algebra(2)
    if head == "ut2":
        return upper_triangular_algebra()
    if os.path.exists(name):
        return _parse_input(name, FinDimAlgebra.from_json, "algebra")
    raise SystemExit("unknown algebra input: %s" % name)


def load_resolution(name, deg_cap):
    head, arg = _split_builtin(name)
    if head == "dual-numbers":
        return dual_numbers_resolution(deg_cap + 1)
    if head == "free":
        return free_resolution_of_tensor_algebra(arg or 1)
    if os.path.exists(name):
        return _parse_input(name, FreeDGAlgebra.from_json, "resolution")
    raise SystemExit("unknown resolution input: %s" % name)


def load_lie(name):
    head, arg = _split_builtin(name)
    if head == "sl2":
        return sl2()
    if head == "heisenberg":
        return heisenberg()
    if head == "nab2":
        return nonabelian_2dim()
    if head in ("abelian", "poly"):
        return abelian_lie(arg or 1)
    if os.path.exists(name):
        return _parse_input(name, DGLie.from_json, "Lie")
    raise SystemExit("unknown Lie input: %s" % name)


def _parse_input(path, parse, kind):
    """parse(text of the file at path); malformed JSON, a missing key or a
    value of the wrong shape becomes a ValueError that names the file."""
    with open(path) as fh:
        text = fh.read()
    try:
        return parse(text)
    except json.JSONDecodeError as exc:
        raise ValueError("%s input %s is not valid JSON: %s"
                         % (kind, path, exc)) from None
    except KeyError as exc:
        raise ValueError("%s input %s: missing or unknown key %s"
                         % (kind, path, exc)) from None
    except (TypeError, AttributeError) as exc:
        raise ValueError("%s input %s is malformed: %s"
                         % (kind, path, exc)) from None


def _sniff_json(path):
    data = _parse_input(path, json.loads, "JSON")
    if not isinstance(data, dict):
        raise ValueError("JSON input %s is not an object" % path)
    if "generators" in data:
        return "resolution"
    if "mult" in data:
        return "algebra"
    return "lie"


def _default_pipeline(name):
    head, _ = _split_builtin(name)
    if head in ("sl2", "heisenberg", "nab2", "abelian"):
        return "cobar"
    if head == "poly":
        return "cobar"
    if head in ("m2", "ut2"):
        return "bar"
    if head == "dual-numbers":
        return "dg"
    if head == "free":
        return "bar"
    if os.path.exists(name):
        return {"resolution": "dg", "algebra": "bar",
                "lie": "cobar"}[_sniff_json(name)]
    return "dg"


# cache ------------------------------------------------------------------

def _cache_dir(args):
    return args.cache_dir or os.environ.get("SYMHOM_CACHE_DIR")


# Raised whenever a fix changes some computed table, so that no entry
# cached before the fix is served.  2: cobar generators kept past the caps.
ALGORITHM_VERSION = 2


def _digest(job):
    payload = "%s|%s|%d" % (json.dumps(job, sort_keys=True), __version__,
                            ALGORITHM_VERSION)
    return hashlib.sha256(payload.encode()).hexdigest()


def _cache_get(args, job):
    d = _cache_dir(args)
    if not d:
        return None
    path = os.path.join(d, _digest(job) + ".json")
    try:
        with open(path) as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        return None  # absent or unreadable: a miss, rewritten by _cache_put
    if not isinstance(record, dict) or record.get("job") != job \
            or "result" not in record:
        return None
    return record


def _cache_put(args, job, result, wall):
    d = _cache_dir(args)
    if not d:
        return
    os.makedirs(d, exist_ok=True)
    record = {"digest": _digest(job), "job": job, "result": result,
              "wall_time": wall, "version": __version__}
    path = os.path.join(d, _digest(job) + ".json")
    # write a private temp file and rename it over the entry, so a reader
    # never sees a half-written entry
    tmp = "%s.%d.tmp" % (path, os.getpid())
    with open(tmp, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    os.replace(tmp, path)


# output -----------------------------------------------------------------

def _emit_table(table, fmt, out=None):
    out = out or sys.stdout
    if fmt == "json":
        out.write(table.to_json() + "\n")
    elif fmt == "csv":
        out.write(table.to_csv())
    else:
        out.write(table.render() + "\n")


def _emit_scalar(value, fmt, out=None):
    out = out or sys.stdout
    if fmt == "json":
        out.write(json.dumps(value) + "\n")
    else:
        out.write("%s\n" % value)


# pipelines --------------------------------------------------------------

def _run_hs(args):
    job = {"cmd": "hs", "input": args.input, "pipeline": args.pipeline,
           "deg_cap": args.deg_cap, "weight_cap": args.weight_cap,
           "n": args.n, "dim": args.dim}
    cached = _cache_get(args, job)
    if cached is not None:
        return BettiTable.from_json(json.dumps(cached["result"])), job
    t0 = time.time()
    pipeline = args.pipeline or _default_pipeline(args.input)
    name = args.input
    if args.dim is not None and _split_builtin(name)[1] is None:
        name = "%s:%d" % (name, args.dim)
    if pipeline == "dg":
        R = load_resolution(name, args.deg_cap)
        table = abelianize(R).homology_table(args.deg_cap, args.weight_cap)
    elif pipeline == "bar":
        A = load_algebra(name, args.weight_cap)
        table = hr_via_bar(A, args.deg_cap, args.weight_cap, n=args.n)
    elif pipeline == "cobar":
        a = load_lie(name)
        table = hs_env_via_cobar(a, args.deg_cap, args.weight_cap)
    elif pipeline == "closed-form":
        a = load_lie(name)
        table = hs_env_closed_form(a, args.deg_cap, args.weight_cap)
    else:
        raise SystemExit("unknown pipeline %s" % pipeline)
    _cache_put(args, job, json.loads(table.to_json()), time.time() - t0)
    return table, job


def cmd_hs(args):
    table, _ = _run_hs(args)
    _emit_table(table, args.format)
    return 0


def cmd_hr(args):
    job = {"cmd": "hr", "input": args.input, "deg_cap": args.deg_cap,
           "weight_cap": args.weight_cap, "n": args.n}
    cached = _cache_get(args, job)
    if cached is not None:
        table = BettiTable.from_json(json.dumps(cached["result"]))
    else:
        t0 = time.time()
        R = load_resolution(args.input, args.deg_cap)
        table = hr_n(R, args.n, args.deg_cap, args.weight_cap)
        _cache_put(args, job, json.loads(table.to_json()), time.time() - t0)
    _emit_table(table, args.format)
    return 0


def cmd_hs0(args):
    A = load_algebra(args.input, args.weight_cap)
    dim, _ = hs0_coequalizer(A, args.arity_cap)
    _emit_scalar(dim, args.format)
    return 0


def cmd_hc0(args):
    A = load_algebra(args.input, args.weight_cap)
    _emit_scalar(hc0_coequalizer(A, args.arity_cap), args.format)
    return 0


def cmd_ce(args):
    a = load_lie(args.input)
    dims = ce_homology(a, args.deg_cap)
    _emit_scalar(dims, args.format)
    return 0


def cmd_deltas(args):
    if args.op == "compose":
        f = parse_morphism(args.args[0])
        g = parse_morphism(args.args[1])
        print(format_morphism(compose(g, f)))
    elif args.op == "factor":
        f = parse_morphism(args.args[0])
        sigma, mono = factorize(f)
        print("sigma:", " ".join(str(s) for s in sigma))
        print("monotone:", format_morphism(mono))
    elif args.op == "psi":
        f = parse_morphism(args.args[0])
        hom = psi_sym(f)
        for j, word in enumerate(hom.images):
            print("X%d -> %s" % (j, " ".join("x%d" % v for v in word) or "1"))
    else:
        raise SystemExit("unknown deltaS op %s" % args.op)
    return 0


def cmd_compare(args):
    parser = build_parser()
    results = []
    for spec in (args.left, args.right):
        sub = parser.parse_args(shlex.split(spec))
        if sub.command != "hs":
            raise SystemExit("compare expects two hs job specs")
        table, _ = _run_hs(sub)
        results.append(table)
    left, right = results
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
    from .findim import dual_numbers_algebra
    A = dual_numbers_algebra()
    R = dual_numbers_resolution(5)
    checks = [
        ("resolution d^2", R.check_d_squared(5, 6)),
        ("abelianized d^2", abelianize(R).check_d_squared(5, 6)),
        ("pipelines agree",
         abelianize(R).homology_table(3, 5) == hr_via_bar(A, 3, 5)),
        ("hs0 stabilizes", hs0_coequalizer(A, 2)[0] ==
         hs0_coequalizer(A, 3)[0] == 2),
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

    def common(sp, caps=True):
        if caps:
            sp.add_argument("--deg-cap", type=_at_least(0), default=4)
            sp.add_argument("--weight-cap", type=_at_least(0), default=6)
        sp.add_argument("--format", choices=["human", "json", "csv"],
                        default="human")
        sp.add_argument("--cache-dir", default=None)

    sp = sub.add_parser("hs", help="symmetric homology Betti table")
    sp.add_argument("input", type=_input_name)
    sp.add_argument("--pipeline",
                    choices=["dg", "bar", "cobar", "closed-form"])
    sp.add_argument("--n", type=int, default=1,
                    help="matrix size for the bar pipeline")
    sp.add_argument("--dim", type=_at_least(1), default=None,
                    help="dimension argument for built-ins like poly")
    common(sp)
    sp.set_defaults(func=cmd_hs)

    sp = sub.add_parser("hr", help="representation homology of a resolution")
    sp.add_argument("input", type=_input_name)
    sp.add_argument("--n", type=int, default=1)
    common(sp)
    sp.set_defaults(func=cmd_hr)

    for name, fn in (("hs0", cmd_hs0), ("hc0", cmd_hc0)):
        sp = sub.add_parser(name, help="degree-0 coequalizer dimension")
        sp.add_argument("input", type=_input_name)
        sp.add_argument("--arity-cap", type=int, default=3)
        sp.add_argument("--weight-cap", type=_at_least(0), default=4)
        common(sp, caps=False)
        sp.set_defaults(func=fn)

    sp = sub.add_parser("ce", help="Chevalley-Eilenberg homology dims")
    sp.add_argument("input", type=_input_name)
    sp.add_argument("--deg-cap", type=_at_least(0), default=4)
    common(sp, caps=False)
    sp.set_defaults(func=cmd_ce)

    sp = sub.add_parser("deltaS", help="symmetric-category calculator")
    sp.add_argument("op", choices=["compose", "factor", "psi"])
    sp.add_argument("args", nargs="+")
    sp.set_defaults(func=cmd_deltas)

    sp = sub.add_parser("compare", help="entrywise diff of two hs runs")
    sp.add_argument("left")
    sp.add_argument("right")
    common(sp, caps=False)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("selftest", help="quick consistency checks")
    common(sp, caps=False)
    sp.set_defaults(func=cmd_selftest)
    return p


def main(argv=None):
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
