"""The simplicial pipeline: two-sided bar resolution built from the
tensor-algebra monad, abelianized levelwise, normalized, and reduced to
blockwise homology.

Level n is the symmetric algebra on depth-n "trees": a depth-0 tree is an
augmentation-ideal basis index; a depth-d tree is a nonempty ordered
tuple of depth-(d-1) trees (the inner layers are tensor words, only the
outermost product commutes).  A basis monomial is a sorted tuple of
depth-n trees.  Faces flatten a layer (monad multiplication) or multiply
the innermost letters through the structure constants; degeneracies
insert singleton brackets, so a monomial is degenerate exactly when some
layer consists of singleton brackets across all its factors.

With coefficients in generic n x n matrices every factor carries an
index pair, (tree, a, b).  The complex is built from these decorated
monomials only, with one face and one block for every n: a plain
monomial is the n = 1 decoration, all indices 0.  The decorated basis of
each (level, weight) block is built once per hr_via_bar call.
"""

from itertools import combinations_with_replacement, groupby, product

from .betti import BettiTable
from .linalg import SparseMatrix, add_term, exact, homology_by_blocks

__all__ = ["CapOverflowError", "bar_level_basis", "face_map", "hr_via_bar"]

DEFAULT_BUDGET = 500_000


class CapOverflowError(Exception):
    """A bar basis exceeded the configured size budget; the message names
    the (level, weight) block whose basis crossed it."""


def _sort_collapse(d):
    """Re-sort monomial keys, summing collisions."""
    out = {}
    for k, v in d.items():
        add_term(out, tuple(sorted(k)), v)
    return out


def _trees(A, ideal, depth, weight, cache):
    """All depth-`depth` trees of exactly the given weight, sorted, each
    paired with the bitmask of its layers whose brackets are all
    singletons (bit j - 1 for layer j).  A tree of depth >= 1 is a first
    child of some weight w1 followed by the children of a same-depth tree
    of the remaining weight (none when w1 is the whole weight); its layer
    j + 1 is all singletons when the first child's layer j is and the
    rest's layer j + 1 is, and the empty rest counts as all singletons."""
    key = (depth, weight)
    if key in cache:
        return cache[key]
    if depth == 0:
        out = [(i, 0) for i in sorted(ideal) if A.weights[i] == weight]
    else:
        out = []
        for w1 in range(1, weight + 1):
            rests = (_trees(A, ideal, depth, weight - w1, cache)
                     if w1 < weight else [((), -1)])
            for child, cmask in _trees(A, ideal, depth - 1, w1, cache):
                out += [((child,) + rest, (cmask & rmask >> 1) << 1
                         | (not rest))
                        for rest, rmask in rests]
        out.sort()
    cache[key] = out
    return out


def _weight_monomials(A, ideal, n, weight, cache):
    """Normalized monomials of simplicial degree n and exact weight.  The
    search carries the AND of the factors' singleton-layer masks: it is
    nonzero on a degenerate monomial, and on the unit monomial at n >= 1."""
    # all depth-n trees of weight <= weight, lightest first, so the scan
    # stops at the first tree heavier than what remains
    pool = [(w, t, mask) for w in range(1, weight + 1)
            for t, mask in _trees(A, ideal, n, w, cache)]
    out = []
    stack = [(0, weight, (), -1 if n else 0)]
    while stack:
        start, remaining, acc, common = stack.pop()
        if remaining == 0:
            if not common:
                out.append(tuple(sorted(acc)))
            continue
        for idx in range(start, len(pool)):
            w, t, mask = pool[idx]
            if w > remaining:
                break
            stack.append((idx, remaining - w, acc + (t,), common & mask))
    out.sort()
    return out


def bar_level_basis(A, n, weight_cap, budget=DEFAULT_BUDGET):
    """Basis of the normalized abelianized bar level n up to weight_cap: the
    list of its monomials, by weight."""
    _, ideal = A.augmented_split()
    cache = {}
    basis = []
    for w in range(weight_cap + 1):
        basis.extend(_weight_monomials(A, ideal, n, w, cache))
        if len(basis) > budget:
            raise CapOverflowError(
                "bar level basis exceeds budget %d at (level, weight) = "
                "(%d, %d)" % (budget, n, w))
    return basis


def _flatten(tree, i):
    """Merge layers i and i+1 of a depth >= i+1 tree."""
    if i == 1:
        return tuple(x for child in tree for x in child)
    return tuple(_flatten(child, i - 1) for child in tree)


def _multiply_innermost(A, tree, depth):
    """Replace each innermost bracket by its product: dict tree -> coeff.
    The product of ideal letters has no unit part: they have weight >= 1
    (FinDimAlgebra.augmented_split), and products add weight."""
    if depth == 1:
        return A.multiply_word(tree)
    out = {(): 1}
    for child in tree:
        sub = _multiply_innermost(A, child, depth - 1)
        nxt = {}
        for pref, c1 in out.items():
            for t, c2 in sub.items():
                nxt[pref + (t,)] = c1 * c2
        out = nxt
        if not out:
            break
    return out


def _decorate(monos, n):
    """All decorations of sorted plain monomials by index pairs, sorted.

    A decorated factor is (tree, a, b) with 0 <= a, b < n, an entry of a
    generic n x n matrix; a plain monomial is the n = 1 decoration.  The
    factors commute, so a run of m equal trees takes a multiset of m index
    pairs, and each decorated monomial is made once."""
    pairs = [(a, b) for a in range(n) for b in range(n)]
    out = []
    for mono in monos:
        runs = [[tuple((t,) + ab for ab in multiset) for multiset in
                 combinations_with_replacement(pairs, len(list(run)))]
                for t, run in groupby(mono)]
        out.extend(sum(parts, ()) for parts in product(*runs))
    out.sort()
    return out


def _face(A, nlev, i, mono, n):
    """Face i of a level-nlev monomial of decorated factors: dict
    monomial -> coeff."""
    if i == 0:
        # flattening the outer layer spreads a factor (t, a, b) along the
        # index paths a, c_1, ..., b through the children of t, one factor
        # per child; distinct paths give distinct factors, so coefficients
        # are path counts, kept as ints
        out = {(): 1}
        for t, a, b in mono:
            paths = [((), a)]
            for child in t[:-1]:
                paths = [(fac + ((child, c0, c),), c)
                         for fac, c0 in paths for c in range(n)]
            ends = [fac + ((t[-1], c0, b),) for fac, c0 in paths]
            out = {pre + end: 1 for pre in out for end in ends}
        return _sort_collapse(out)
    if i < nlev:
        return {tuple(sorted((_flatten(t, i), a, b) for t, a, b in mono)): 1}
    out = {(): 1}
    for t, a, b in mono:
        sub = _multiply_innermost(A, t, nlev)
        out = {pre + ((t2, a, b),): c1 * c2
               for pre, c1 in out.items() for t2, c2 in sub.items()}
        if not out:
            return {}
    return _sort_collapse(out)


def face_map(A, n, i, element):
    """Apply face i to an element (dict monomial -> coeff) of level n."""
    if not 0 <= i <= n or n < 1:
        raise IndexError("face (%d, %d) out of range" % (n, i))
    A.augmented_split()
    out = {}
    for mono, c in element.items():
        plain = tuple((t, 0, 0) for t in mono)
        for m2, c2 in _face(A, n, i, plain, 1).items():
            add_term(out, tuple(t for t, _, _ in m2), exact(c) * c2)
    return out


def hr_via_bar(A, deg_cap, weight_cap, n=1, budget=DEFAULT_BUDGET):
    """Betti table of the normalized abelianized bar complex of A.

    For n >= 2 each tensor factor is expanded into a generic n x n
    matrix entry degreewise, computing homology with k^n coefficients.
    Exact per (degree, weight) block within the caps; requires a
    connected weight-graded A (FinDimAlgebra.augmented_split) whose
    truncation (if any) covers weight_cap.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _, ideal = A.augmented_split()
    if A.truncation is not None and A.truncation < weight_cap:
        raise ValueError("algebra truncated below the requested weight cap")
    cache = {}
    bases = {}
    total = 0
    for lev in range(deg_cap + 2):
        for w in range(weight_cap + 1):
            bases[lev, w] = _decorate(
                _weight_monomials(A, ideal, lev, w, cache), n)
            total += len(bases[lev, w])
            if total > budget:
                raise CapOverflowError(
                    "bar complex exceeds budget %d at (level, weight) = "
                    "(%d, %d)" % (budget, lev, w))

    def block(lev, w):
        if lev == 0:
            return SparseMatrix(0, len(bases[0, w]))
        tgt = bases[lev - 1, w]
        nondegenerate = set(tgt)

        def image(mono):
            acc = {}
            for i in range(lev + 1):
                for m2, c in _face(A, lev, i, mono, n).items():
                    add_term(acc, m2, -c if i % 2 else c)
            # degenerate targets are zero in the normalized complex
            return {m: c for m, c in acc.items() if m in nondegenerate}

        return SparseMatrix.from_images(bases[lev, w], tgt, image)

    positions = [(lev, w) for lev in range(deg_cap + 1)
                 for w in range(weight_cap + 1)]
    return BettiTable(deg_cap, weight_cap,
                      homology_by_blocks(positions, block, 0))
