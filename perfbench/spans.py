"""Span tracer that wraps symhom's public calls from outside the package.

Nothing inside ``src/symhom`` is edited.  ``Tracer.install`` replaces each
target below -- a module function or a class attribute -- by a wrapper
that records a span (name, start, end, parent) in memory, and rebinds
every other reference to the same function object inside the package
(``from .linalg import homology_dim`` copies included), so calls made
between modules are seen too.  ``uninstall`` restores the originals.

Self time of a span is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans, so the layer
self times of a traced round add up to the round's wall time exactly.
"""

import functools
import json
import sys
import time

# (layer, attribute path inside symhom.<layer>).  A layer is one module.
# The calls each workload makes into a layer, from the benchmark or from
# another layer; calls within one layer need no span of their own unless
# a metric below names them.
TARGETS = [
    ("linalg", "rank"),
    ("linalg", "homology_dim"),
    ("linalg", "SparseMatrix.matmul"),
    ("linalg", "QuotientSpace.__init__"),
    ("linalg", "QuotientSpace.project"),
    ("betti", "BettiTable.to_json"),
    ("betti", "BettiTable.from_json"),
    ("betti", "BettiTable.render"),
    ("betti", "BettiTable.to_csv"),
    ("betti", "BettiTable.diff"),
    ("freealg", "FreeDGAlgebra.__init__"),
    ("freealg", "dual_numbers_resolution"),
    ("freealg", "free_resolution_of_tensor_algebra"),
    ("commalg", "abelianize"),
    ("commalg", "CommDGAlgebra.__init__"),
    ("commalg", "CommDGAlgebra.monomial_basis"),
    ("commalg", "CommDGAlgebra.d"),
    ("commalg", "CommDGAlgebra.block_matrix"),
    ("commalg", "CommDGAlgebra.homology_table"),
    ("findim", "FinDimAlgebra.__init__"),
    ("findim", "dual_numbers_algebra"),
    ("findim", "matrix_algebra"),
    ("findim", "upper_triangular_algebra"),
    ("findim", "truncated_poly_algebra"),
    ("findim", "free_tensor_algebra"),
    ("bar", "hr_via_bar"),
    ("lie", "DGLie.__init__"),
    ("lie", "sl2"),
    ("lie", "heisenberg"),
    ("lie", "abelian_lie"),
    ("lie", "nonabelian_2dim"),
    ("lie", "ce_complex"),
    ("lie", "ce_homology"),
    ("lie", "cobar"),
    ("lie", "hs_env_via_cobar"),
    ("lie", "hs_env_closed_form"),
    ("repfun", "rep_n"),
    ("repfun", "hr_n"),
    ("deltas", "compose"),
    ("deltas", "factorize"),
    ("deltas", "parse_morphism"),
    ("deltas", "format_morphism"),
    ("deltas", "psi_sym"),
    ("deltas", "hs0_coequalizer"),
    ("deltas", "hc0_coequalizer"),
    ("cli", "main"),
]

LAYERS = ["bench", "cli", "linalg", "betti", "freealg", "commalg", "findim",
          "bar", "lie", "repfun", "deltas"]

# Inclusive per-call times: a span counts when no ancestor span belongs to
# the same group, so nested calls within a group are not counted twice.
GROUPS = {
    "linalg.rank_s": ["linalg.rank"],
    "linalg.check_s": ["linalg.SparseMatrix.matmul"],
    "commalg.basis_s": ["commalg.CommDGAlgebra.monomial_basis"],
    "commalg.d_s": ["commalg.CommDGAlgebra.d"],
    "commalg.block_s": ["commalg.CommDGAlgebra.block_matrix"],
    "repfun.rep_s": ["repfun.rep_n"],
    "lie.ce_s": ["lie.ce_complex", "lie.ce_homology"],
    "lie.cobar_s": ["lie.cobar"],
    "lie.closed_form_s": ["lie.hs_env_closed_form"],
    "deltas.coeq_s": ["deltas.hs0_coequalizer", "deltas.hc0_coequalizer"],
    "findim.build_s": ["findim.FinDimAlgebra.__init__",
                       "findim.dual_numbers_algebra", "findim.matrix_algebra",
                       "findim.upper_triangular_algebra",
                       "findim.truncated_poly_algebra",
                       "findim.free_tensor_algebra"],
    "freealg.build_s": ["freealg.FreeDGAlgebra.__init__",
                        "freealg.dual_numbers_resolution",
                        "freealg.free_resolution_of_tensor_algebra"],
    "lie.build_s": ["lie.DGLie.__init__", "lie.sl2", "lie.heisenberg",
                    "lie.abelian_lie", "lie.nonabelian_2dim"],
}
_GROUP_OF = {span: group for group, spans in GROUPS.items() for span in spans}


def _count_block(tracer, args, kwargs, result):
    d_out, d_in = args[0], args[1]
    counts = tracer.counts
    counts["linalg.blocks"] += 1
    counts["linalg.nnz"] += len(d_out.entries) + len(d_in.entries)
    side = max(d_out.rows, d_out.cols, d_in.rows, d_in.cols)
    counts["linalg.max_dim"] = max(counts["linalg.max_dim"], side)


def _count_basis(tracer, args, kwargs, result):
    tracer.counts["commalg.basis_calls"] += 1
    tracer.counts["commalg.basis_monomials"] += len(result)


def _count_cobar(tracer, args, kwargs, result):
    tracer.counts["lie.cobar_generators"] += len(result.generators)


def _note_bar_call(tracer, args, kwargs, result):
    A, deg_cap, weight_cap = args[:3]
    key = (tuple(A.basis), deg_cap, weight_cap)
    tracer.bar_calls.setdefault(key, (A, deg_cap, weight_cap))


# counts recorded at the same call boundaries as the spans
HOOKS = {
    "linalg.homology_dim": _count_block,
    "commalg.CommDGAlgebra.monomial_basis": _count_basis,
    "lie.cobar": _count_cobar,
    "bar.hr_via_bar": _note_bar_call,
}

COUNTS = ["linalg.blocks", "linalg.nnz", "linalg.max_dim",
          "commalg.basis_calls", "commalg.basis_monomials",
          "lie.cobar_generators"]


class Tracer:
    """In-memory spans and counts; one instance per traced phase."""

    def __init__(self):
        # each span: [name, layer, start, end, parent index, outermost]
        self.spans = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.bar_calls = {}  # (algebra basis, caps) -> (A, deg, weight)
        self._stack = []
        self._active = dict.fromkeys(GROUPS, 0)
        self._undo = []
        self.missing = []

    # recording ----------------------------------------------------------

    def open(self, name, layer):
        group = _GROUP_OF.get(name)
        outer = group is not None and not self._active[group]
        if group is not None:
            self._active[group] += 1
        parent = self._stack[-1] if self._stack else -1
        span = [name, layer, time.perf_counter(), None, parent, outer]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span):
        span[3] = time.perf_counter()
        self._stack.pop()
        group = _GROUP_OF.get(span[0])
        if group is not None:
            self._active[group] -= 1

    def _wrap(self, fn, name, layer):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    # patching -----------------------------------------------------------

    def install(self, modules):
        """Wrap every target in the given {layer: module} mapping."""
        for layer, path in TARGETS:
            mod = modules.get(layer)
            owner = mod
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None) if owner else None
            attr = parts[-1]
            if owner is None or attr not in vars(owner):
                self.missing.append("%s.%s" % (layer, path))
                continue
            raw = vars(owner)[attr]
            name = "%s.%s" % (layer, path)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, layer))
            else:
                wrapped = self._wrap(raw, name, layer)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            if owner is not mod:
                continue
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is raw:
                        self._undo.append((other, key, raw))
                        setattr(other, key, wrapped)
        if self.missing:
            print("trace: targets not found: %s" % ", ".join(self.missing),
                  file=sys.stderr)

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo = []

    # analysis -----------------------------------------------------------

    def self_times(self, lo=0, hi=None):
        """Per-layer self seconds and per-group inclusive seconds of the
        spans[lo:hi], which must hold whole root spans."""
        spans = self.spans[lo:hi]
        child = [0.0] * len(spans)
        for name, layer, start, end, parent, outer in spans:
            if parent >= lo:
                child[parent - lo] += end - start
        layers = dict.fromkeys(LAYERS, 0.0)
        groups = dict.fromkeys(GROUPS, 0.0)
        for i, (name, layer, start, end, parent, outer) in enumerate(spans):
            layers[layer] += (end - start) - child[i]
            if outer:
                groups[_GROUP_OF[name]] += end - start
        return layers, groups

    def dump(self, fh):
        """Write spans as JSON lines: name, start, end, parent index."""
        t0 = self.spans[0][2] if self.spans else 0.0
        for name, layer, start, end, parent, outer in self.spans:
            fh.write(json.dumps([name, round(start - t0, 9),
                                 round(end - t0, 9), parent]) + "\n")
