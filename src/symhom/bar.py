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
"""

from .betti import BettiTable
from .linalg import SparseMatrix, homology_by_blocks
from .rationals import QQ, ZERO

__all__ = ["BarLevel", "CapOverflowError", "bar_level_basis", "face_map",
           "hr_via_bar"]

DEFAULT_BUDGET = 500_000


class CapOverflowError(Exception):
    """A bar level exceeded the configured size budget."""


def _sort_collapse(d):
    """Re-sort monomial keys, summing collisions."""
    out = {}
    for k, v in d.items():
        key = tuple(sorted(k))
        s = out.get(key, ZERO) + v
        if s:
            out[key] = s
        elif key in out:
            del out[key]
    return out


class BarLevel:
    """Normalized abelianized bar level: simplicial degree and basis."""

    def __init__(self, n, basis):
        self.n = n
        self.basis = list(basis)

    def __len__(self):
        return len(self.basis)

    def __repr__(self):
        return "BarLevel(n=%d, %d monomials)" % (self.n, len(self.basis))


def _leaf_weights(A):
    u, ideal = A.augmented_split()
    if A.weights is None:
        raise ValueError("bar pipeline needs a weight-graded algebra")
    for i in ideal:
        if A.weights[i] < 1:
            raise ValueError(
                "augmentation-ideal basis element %s has weight < 1"
                % A.basis[i])
    return u, ideal


def _trees(A, ideal, depth, weight, cache):
    """All depth-`depth` trees of exactly the given weight, sorted."""
    key = (depth, weight)
    if key in cache:
        return cache[key]
    if depth == 0:
        out = sorted(i for i in ideal if A.weights[i] == weight)
    else:
        out = []

        def rec(remaining, acc):
            if remaining == 0:
                if acc:
                    out.append(tuple(acc))
                return
            for w1 in range(1, remaining + 1):
                for child in _trees(A, ideal, depth - 1, w1, cache):
                    acc.append(child)
                    rec(remaining - w1, acc)
                    acc.pop()

        rec(weight, [])
        out.sort()
    cache[key] = out
    return out


def _singleton_layers(tree, depth):
    """Frozenset of layers (1-based) whose brackets are all singletons."""
    if depth == 0:
        return frozenset()
    layers = {1} if len(tree) == 1 else set()
    if depth > 1:
        deeper = None
        for child in tree:
            s = _singleton_layers(child, depth - 1)
            deeper = s if deeper is None else deeper & s
        layers |= {j + 1 for j in deeper}
    return frozenset(layers)


def _is_degenerate(mono, n):
    """True when the monomial lies in the image of some degeneracy."""
    if n == 0:
        return False
    common = None
    for t in mono:
        s = _singleton_layers(t, n)
        common = s if common is None else common & s
        if common is not None and not common:
            return False
    if common is None:
        return True  # the unit monomial is constant, hence degenerate
    return bool(common)


def _weight_monomials(A, ideal, n, weight, cache):
    """Normalized monomials of simplicial degree n and exact weight."""
    key = ("mono", n, weight)
    if key in cache:
        return cache[key]
    # all depth-n trees of weight <= weight, in one sorted list
    pool = []
    for w in range(1, weight + 1):
        pool.extend((w, t) for t in _trees(A, ideal, n, w, cache))
    pool.sort(key=lambda p: p[1])
    out = []

    def rec(start, remaining, acc):
        if remaining == 0:
            mono = tuple(acc)
            if not _is_degenerate(mono, n):
                out.append(mono)
            return
        for idx in range(start, len(pool)):
            w, t = pool[idx]
            if w > remaining:
                continue
            acc.append(t)
            rec(idx, remaining - w, acc)
            acc.pop()

    if weight == 0:
        if not _is_degenerate((), n):
            out.append(())
    else:
        rec(0, weight, [])
    out.sort()
    cache[key] = out
    return out


def bar_level_basis(A, n, weight_cap, budget=DEFAULT_BUDGET):
    """Basis of the normalized abelianized bar level n up to weight_cap."""
    u, ideal = _leaf_weights(A)
    cache = {}
    basis = []
    for w in range(weight_cap + 1):
        basis.extend(_weight_monomials(A, ideal, n, w, cache))
        if len(basis) > budget:
            raise CapOverflowError(
                "bar level %d exceeds budget %d below weight %d"
                % (n, budget, w + 1))
    return BarLevel(n, basis)


def _flatten(tree, i):
    """Merge layers i and i+1 of a depth >= i+1 tree."""
    if i == 1:
        return tuple(x for child in tree for x in child)
    return tuple(_flatten(child, i - 1) for child in tree)


def _multiply_innermost(A, tree, depth, unit_index):
    """Replace each innermost bracket by its product: dict tree -> coeff."""
    if depth == 1:
        return {k: v for k, v in
                A.ideal_product(list(tree), unit_index).items()}
    out = {(): QQ(1)}
    for child in tree:
        sub = _multiply_innermost(A, child, depth - 1, unit_index)
        nxt = {}
        for pref, c1 in out.items():
            for t, c2 in sub.items():
                nxt[pref + (t,)] = c1 * c2
        out = nxt
        if not out:
            break
    return out


def _face_monomial(A, n, i, mono, unit_index):
    """Image of one basis monomial under face i: dict monomial -> coeff."""
    if not 0 <= i <= n or n < 1:
        raise IndexError("face (%d, %d) out of range" % (n, i))
    if i == 0:
        flat = tuple(sorted(x for t in mono for x in t))
        return {flat: QQ(1)}
    if i < n:
        return {tuple(sorted(_flatten(t, i) for t in mono)): QQ(1)}
    out = {(): QQ(1)}
    for t in mono:
        sub = _multiply_innermost(A, t, n, unit_index)
        nxt = {}
        for pref, c1 in out.items():
            for t2, c2 in sub.items():
                key = pref + (t2,)
                c = c1 * c2
                s = nxt.get(key, ZERO) + c
                if s:
                    nxt[key] = s
                elif key in nxt:
                    del nxt[key]
        out = nxt
        if not out:
            return {}
    return _sort_collapse(out)


def face_map(A, n, i, element):
    """Apply face i to an element (dict monomial -> coeff) of level n."""
    u, _ = A.augmented_split()
    out = {}
    for mono, c in element.items():
        for m2, c2 in _face_monomial(A, n, i, tuple(mono), u).items():
            s = out.get(m2, ZERO) + QQ(c) * c2
            if s:
                out[m2] = s
            elif m2 in out:
                del out[m2]
    return out


def _block_matrix(A, ideal, n, weight, cache, unit_index):
    """Normalized differential from block (n, weight) to (n-1, weight)."""
    src = _weight_monomials(A, ideal, n, weight, cache)
    tgt = _weight_monomials(A, ideal, n - 1, weight, cache)
    tgt_index = {m: r for r, m in enumerate(tgt)}
    entries = {}
    for col, mono in enumerate(src):
        acc = {}
        for i in range(n + 1):
            sgn = QQ(-1) if i % 2 else QQ(1)
            for m2, c in _face_monomial(A, n, i, mono, unit_index).items():
                s = acc.get(m2, ZERO) + sgn * c
                if s:
                    acc[m2] = s
                elif m2 in acc:
                    del acc[m2]
        for m2, c in acc.items():
            r = tgt_index.get(m2)
            if r is not None:  # degenerate targets project to zero
                entries[(r, col)] = c
    return SparseMatrix(len(tgt), len(src), entries)


# matrix-entry variant: factors carry a pair of indices in 1..n, and the
# outer flatten expands along all index paths through the children

def _decorate(monos, n):
    """All decorations of plain monomials by index pairs, sorted."""
    out = []
    for mono in monos:
        stack = [()]
        for t in mono:
            stack = [acc + ((t, a, b),)
                     for acc in stack
                     for a in range(n) for b in range(n)]
        out.extend(tuple(sorted(acc)) for acc in stack)
    return sorted(set(out))


def _face_decorated(A, nlev, i, mono, unit_index, n):
    """Face of a monomial of decorated factors: dict monomial -> coeff."""
    if i == 0:
        # each factor expands over index paths through its children
        partial = {(): QQ(1)}
        for t, a, b in mono:
            children = list(t)
            expanded = {}
            paths = [((a,), ())]
            for child in children:
                paths = [(idx + (c,), fac + ((child, idx[-1], c),))
                         for idx, fac in paths for c in range(n)]
            for idx, fac in paths:
                if idx[-1] != b:
                    continue
                expanded[fac] = expanded.get(fac, ZERO) + QQ(1)
            nxt = {}
            for pref, c1 in partial.items():
                for fac, c2 in expanded.items():
                    key = pref + fac
                    s = nxt.get(key, ZERO) + c1 * c2
                    if s:
                        nxt[key] = s
            partial = nxt
        return _sort_collapse(partial)
    if i < nlev:
        return {tuple(sorted((_flatten(t, i), a, b)
                             for t, a, b in mono)): QQ(1)}
    out = {(): QQ(1)}
    for t, a, b in mono:
        sub = _multiply_innermost(A, t, nlev, unit_index)
        nxt = {}
        for pref, c1 in out.items():
            for t2, c2 in sub.items():
                key = pref + ((t2, a, b),)
                s = nxt.get(key, ZERO) + c1 * c2
                if s:
                    nxt[key] = s
                elif key in nxt:
                    del nxt[key]
        out = nxt
        if not out:
            return {}
    return _sort_collapse(out)


def _decorated_block_matrix(A, ideal, nlev, weight, cache, unit_index, n):
    plain_src = _weight_monomials(A, ideal, nlev, weight, cache)
    plain_tgt = _weight_monomials(A, ideal, nlev - 1, weight, cache)
    src = _decorate(plain_src, n)
    tgt = _decorate(plain_tgt, n)
    tgt_index = {m: r for r, m in enumerate(tgt)}
    entries = {}
    for col, mono in enumerate(src):
        acc = {}
        for i in range(nlev + 1):
            sgn = QQ(-1) if i % 2 else QQ(1)
            for m2, c in _face_decorated(
                    A, nlev, i, mono, unit_index, n).items():
                s = acc.get(m2, ZERO) + sgn * c
                if s:
                    acc[m2] = s
                elif m2 in acc:
                    del acc[m2]
        for m2, c in acc.items():
            r = tgt_index.get(m2)
            if r is not None:
                entries[(r, col)] = c
    return SparseMatrix(len(tgt), len(src), entries)


def hr_via_bar(A, deg_cap, weight_cap, n=1, budget=DEFAULT_BUDGET,
               check=True):
    """Betti table of the normalized abelianized bar complex of A.

    For n >= 2 each tensor factor is expanded into a generic n x n
    matrix entry degreewise, computing homology with k^n coefficients.
    Exact per (degree, weight) block within the caps; requires an
    augmented, weight-graded A whose truncation (if any) covers
    weight_cap.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    unit_index, ideal = _leaf_weights(A)
    if A.truncation is not None and A.truncation < weight_cap:
        raise ValueError("algebra truncated below the requested weight cap")
    cache = {}

    def mid_dim(lev, w):
        plain = _weight_monomials(A, ideal, lev, w, cache)
        if n == 1:
            return len(plain)
        return len(_decorate(plain, n))

    total = 0
    for lev in range(deg_cap + 2):
        for w in range(weight_cap + 1):
            total += mid_dim(lev, w)
            if total > budget:
                raise CapOverflowError(
                    "bar complex exceeds budget %d at level %d"
                    % (budget, lev))

    def block(lev, w):
        if lev == 0:
            return SparseMatrix(0, mid_dim(0, w))
        if n == 1:
            return _block_matrix(A, ideal, lev, w, cache, unit_index)
        return _decorated_block_matrix(A, ideal, lev, w, cache, unit_index,
                                       n)

    positions = [(lev, w) for lev in range(deg_cap + 1)
                 for w in range(weight_cap + 1)]
    return BettiTable(deg_cap, weight_cap,
                      homology_by_blocks(positions, block, 0, check))
