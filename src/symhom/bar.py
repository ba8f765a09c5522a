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
layer consists of singleton brackets across all its factors.  A tree of
weight w has a non-singleton bracket in at most w - 1 layers (its layers
hold 1 to w nodes), so a nondegenerate level-n monomial has weight >=
n + 1, and the search for them drops a branch as soon as its remaining
weight cannot break the layers still all singletons.

With coefficients in generic n x n matrices every factor carries an
index pair, (tree, a, b).  The complex is built from these decorated
monomials only, with one face and one block for every n: a plain
monomial is the n = 1 decoration, all indices 0.  hr_via_bar works on
integer tree ids local to the call: the trees of each level's
nondegenerate monomials are numbered in sorted tree order, a decorated
factor is the int id * n^2 + a * n + b, and a monomial is a sorted
tuple of these ints, which sorts as its tree form does.  A tree is
keyed by the tuple of its children's ids, and the faces of the level
below are read off by key, so each tree's faces are computed once,
bottom-up.  They go into one table per face, from decorated factor to
(factors, coeff) terms: face 0 gives the children's ids along every
index path, a middle face the flattened tree's id, the last face (id,
coeff) pairs of innermost products.  The face of a monomial is the
product of its factors' entries, sorted.  face_map runs through the
same tables.
"""

from itertools import chain, product
from math import comb, prod
from operator import add

from .linalg import SparseMatrix, add_term, exact, homology_by_blocks

__all__ = ["CapOverflowError", "bar_level_basis", "face_map", "hr_via_bar"]

DEFAULT_BUDGET = 500_000


class CapOverflowError(Exception):
    """A bar basis exceeded the configured size budget; the message names
    the (level, weight) block whose basis crossed it."""


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
    nonzero on a degenerate monomial.  More factors of total weight r
    break at most r - 1 of the layers it holds, so a branch is kept only
    while the mask has fewer bits than the weight that remains, or both
    are 0."""
    if n and weight <= n:
        return []
    # all depth-n trees of weight <= weight, lightest first, so the scan
    # stops at the first tree heavier than what remains
    pool = [(w, t, mask) for w in range(1, weight + 1)
            for t, mask in _trees(A, ideal, n, w, cache)]
    out = []
    stack = [(0, weight, (), (1 << n) - 1)]
    while stack:
        start, remaining, acc, common = stack.pop()
        if not remaining:
            out.append(tuple(sorted(acc)))
            continue
        for idx in range(start, len(pool)):
            w, t, mask = pool[idx]
            if w > remaining:
                break
            r, c = remaining - w, common & mask
            if c.bit_count() < r or c == r == 0:
                stack.append((idx, r, acc + (t,), c))
    out.sort()
    return out


def bar_level_basis(A, n, weight_cap, budget=DEFAULT_BUDGET):
    """Basis of the normalized abelianized bar level n up to weight_cap: the
    list of its monomials, by weight."""
    if n < 0:
        raise ValueError("level must be >= 0")
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


def _tree_faces(A, d, key, below, keys, faces):
    """Faces 1..d of the depth-d tree with this key, on the ids of level
    d - 1 (face 0 is the key itself): (flats, last), where flats[i - 1]
    is face i < d, the tree with layers i and i + 1 merged, and last is
    face d, the innermost products as (id, coeff) pairs.

    below maps the keys of level d - 1 to ids, and keys and faces list
    the keys and faces of its trees by id.  Face 1 concatenates the
    children's keys.  Faces 2..d act on each child alone, one layer
    down, so they are read off the children's faces.  A face outside
    below gets the next free id there.  The product of ideal letters
    has no unit part: they have weight >= 1
    (FinDimAlgebra.augmented_split), and products add weight."""
    if d == 1:
        word = tuple(keys[k] for k in key)
        return [], [(below.setdefault(t, len(below)), c)
                    for t, c in A.multiply_word(word).items()]
    kids = [faces[k] for k in key]
    flats = [tuple(chain.from_iterable(keys[k] for k in key))]
    flats += [tuple(kid[0][i] for kid in kids) for i in range(d - 2)]
    last = [((), 1)]
    for _, kid_last in kids:
        last = [(pre + (t,), c1 * c2) for pre, c1 in last
                for t, c2 in kid_last]
    return ([below.setdefault(t, len(below)) for t in flats],
            [(below.setdefault(t, len(below)), c) for t, c in last])


def _face_tables(A, levels, n):
    """The face tables of levels 1.. of a tower of trees, and its ids.

    levels[d] numbers depth-d trees in sorted order, {tree: id}, and
    levels[d - 1] holds the children of the trees of levels[d].  A tree
    of depth d >= 1 is keyed by the tuple of its children's ids, a
    letter by itself, so keys sort as the trees do; index[d] maps the
    keys of level d to ids, and gives a face that leaves levels[d] the
    next free id.

    tables[d][i][x], for the decorated factor x = s * n^2 + a * n + b,
    lists the (decorated factors, coeff) terms of face i of tree s: face
    0 gives the children's ids, a middle face the flattened tree's id,
    the last face (id, coeff) pairs, with the index pair spread along
    every index path a, c_1, ..., b through the term's factors (at n = 1
    the decorated factor is the id).  Each tree's faces are computed
    once, by _tree_faces."""
    keys = [list(levels[0])]
    keys += [[tuple(map(below.__getitem__, t)) for t in level]
             for below, level in zip(levels, levels[1:])]
    index = [{k: s for s, k in enumerate(ks)} for ks in keys]
    nn = n * n
    # an index path p_0, ..., p_k gives factor j the pair (p_j, p_j+1)
    # and belongs to entry (p_0, p_k): paths[k][e] lists the pairs
    # a * n + b of the paths of k factors in entry e
    paths = {}
    faces = []
    tables = [None]
    for d in range(1, len(levels)):
        faces = [_tree_faces(A, d, key, index[d - 1], keys[d - 1], faces)
                 for key in keys[d]]
        for k in {len(key) for key in keys[d]} - paths.keys():
            paths[k] = [[] for _ in range(nn)]
            for p in product(range(n), repeat=k + 1):
                paths[k][p[0] * n + p[-1]].append(
                    [a * n + b for a, b in zip(p, p[1:])])
        table = [[]]
        for key in keys[d]:
            base = [s * nn for s in key]
            table[0] += [[(tuple(map(add, base, pairs)), 1) for pairs in ends]
                         for ends in paths[len(key)]]
        table += [[[((flats[i] * nn + e,), 1)] for flats, _ in faces
                   for e in range(nn)] for i in range(d - 1)]
        table.append([[((t * nn + e,), c) for t, c in last]
                      for _, last in faces for e in range(nn)])
        tables.append(table)
    return tables, index


def _add_faces(acc, tables, mono, c):
    """acc += c * the alternating sum of the faces with these tables of an
    id monomial: each face is the product of the factors' entries, each
    product sorted."""
    for table in tables:
        terms = [((), c)]
        for x in mono:
            terms = [(pre + f, c1 * c2) for pre, c1 in terms
                     for f, c2 in table[x]]
        for m, c1 in terms:
            add_term(acc, tuple(sorted(m)), c1)
        c = -c


def _numbered(trees):
    """{tree: id} in sorted tree order."""
    return {t: s for s, t in enumerate(sorted(trees))}


def face_map(A, n, i, element):
    """Apply face i to an element (dict monomial -> coeff) of level n."""
    if not 0 <= i <= n or n < 1:
        raise IndexError("face (%d, %d) out of range" % (n, i))
    A.augmented_split()
    levels = [_numbered({t for mono in element for t in mono})]
    for _ in range(n):
        levels.insert(0, _numbered({c for t in levels[0] for c in t}))
    tables, index = _face_tables(A, levels, 1)
    # the trees of level n - 1 by id, faces included
    trees = {s: t for t, s in index[0].items()}
    for d in range(1, n):
        trees = {s: tuple(trees[k] for k in key)
                 for key, s in index[d].items()}
    out = {}
    for mono, c in element.items():
        _add_faces(out, tables[n][i:i + 1],
                   tuple(map(levels[n].__getitem__, mono)), exact(c))
    return {tuple(sorted(trees[x] for x in m)): c for m, c in out.items()}


def _decorate(monos, ids, n):
    """All decorations of plain (sorted) monomials by index pairs,
    sorted, as tuples of decorated factors id * n^2 + a * n + b.

    (a, b) with 0 <= a, b < n is an entry of a generic n x n matrix.  The
    factors commute, so a run of m equal trees takes a multiset of m index
    pairs, and each decorated monomial is made once; a plain monomial is
    the n = 1 decoration."""
    nn = n * n
    out = []
    for mono in monos:
        decorated = [()]
        for j, t in enumerate(mono):
            s = ids[t] * nn
            # a factor equal to the one before takes no smaller pair
            decorated = [d + (x,) for d in decorated for x in range(
                d[-1] if j and t == mono[j - 1] else s, s + nn)]
        out += decorated
    out.sort()
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
    levels = []
    total = 0
    for lev in range(deg_cap + 2):
        plain = []
        for w in range(weight_cap + 1):
            plain.append(_weight_monomials(A, ideal, lev, w, cache))
            # the size of its decorated basis (see _decorate): a run of m
            # equal trees takes a multiset of m of the n^2 index pairs
            total += sum(prod(comb(n * n - 1 + mono.count(t), n * n - 1)
                              for t in set(mono))
                         for mono in plain[w])
            if total > budget:
                raise CapOverflowError(
                    "bar complex exceeds budget %d at (level, weight) = "
                    "(%d, %d)" % (budget, lev, w))
        levels.append(_numbered({t for mono in chain(*plain) for t in mono}))
        for w, monos in enumerate(plain):
            bases[lev, w] = _decorate(monos, levels[lev], n)
    # levels[lev - 1] holds the children of levels[lev]: face 0 of a
    # nondegenerate monomial, its factors' children, is nondegenerate
    tables, _ = _face_tables(A, levels, n)
    # the blocks of each level still to build, those between two nonzero
    # groups, which homology_by_blocks builds once each: a level's tables
    # are dropped with its last block, at once when it has none
    unbuilt = [sum(1 for w in range(weight_cap + 1)
                   if lev and bases[lev, w] and bases[lev - 1, w])
               for lev in range(len(levels))]
    tables[:] = [t if count else None for t, count in zip(tables, unbuilt)]

    def block(lev, w):
        tgt = bases[lev - 1, w]
        nondegenerate = set(tgt)

        def image(mono):
            acc = {}
            _add_faces(acc, tables[lev], mono, 1)
            # degenerate targets are zero in the normalized complex
            return {m: c for m, c in acc.items() if m in nondegenerate}

        matrix = SparseMatrix.from_images(bases[lev, w], tgt, image)
        unbuilt[lev] -= 1
        if not unbuilt[lev]:
            tables[lev] = None
        return matrix

    return homology_by_blocks(deg_cap, weight_cap, 0, bases, block)
