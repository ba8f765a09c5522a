"""The n-dimensional representation functor on semi-free DG algebras,
cyclic-word quotient complexes, and the trace chain map between them.

rep_n(R) is the abelianization of the matrix reduction R_n of [BKR]: the
CommDGAlgebra on the entries g:ab of a generic n x n matrix per
generator g of R, whose d(g:ab) is the (a, b) entry of d(g) evaluated on
those matrices, one word of entry names per term of d(g) and index path
a = c_0, ..., c_k = b.  Built from that presentation directly, it is
what abelianize makes of the free algebra R_n.  The cyclic quotient is spanned by necklaces:
words up to rotation with the Koszul rotation sign, a class vanishing
when some rotation fixes the word with sign -1.
"""

from itertools import product

from .commalg import CommDGAlgebra
from .freealg import GeneratorSpec
from .linalg import SparseMatrix, add_term

__all__ = ["rep_n", "CyclicQuotientComplex", "trace_chain_map", "hr_n"]


def _entry_names(R, n):
    """names[g][a][b]: the name of the (a, b) entry of the n x n matrix of
    each generator g of R.  Both indices are padded to the width of n, so
    that no two entries share a name."""
    width = len(str(n))
    return {g: [["%s:%0*d%0*d" % (g, width, a + 1, width, b + 1)
                 for b in range(n)] for a in range(n)]
            for g in R.gen_by_name}


def _entry_words(names, word, a, b):
    """The (a, b) entry of the product of the generic matrices of a word's
    letters: one word of entry names per index path a = c_0, ..., c_k = b
    (the empty word is the identity matrix)."""
    if not word:
        return [()] if a == b else []
    n = len(names[word[0]])
    paths = ((a,) + inner + (b,)
             for inner in product(range(n), repeat=len(word) - 1))
    return [tuple(names[g][c[i]][c[i + 1]] for i, g in enumerate(word))
            for c in paths]


def rep_n(R, n):
    """rep_n(R): the CommDGAlgebra on the matrix-reduction presentation,
    n^2 generators g:ab per generator g of R."""
    if n < 1:
        raise ValueError("n must be >= 1")
    names = _entry_names(R, n)
    pairs = [(a, b) for a in range(n) for b in range(n)]
    gens = [GeneratorSpec(names[g.name][a][b], g.hdeg, g.weight)
            for g in R.generators for a, b in pairs]
    diff = {}
    for name, dg in R.differential.items():
        for a, b in pairs:
            # distinct (term, path) pairs give distinct words
            diff[names[name][a][b]] = {
                entry: c for word, c in dg.items()
                for entry in _entry_words(names, word, a, b)}
    return CommDGAlgebra(gens, diff)


def _necklace(R, word):
    """Canonical rotation of a word with its Koszul sign.

    Returns (sign, canonical word); (0, None) when the class vanishes
    because a rotation fixes the word with sign -1.
    """
    if not word:
        return 1, ()
    k = len(word)
    degs = [R.gen_by_name[nm].hdeg for nm in word]
    total = sum(degs)
    best = None
    best_sign = 1
    zero = False
    pre = 0  # degree of the rotated-away prefix
    for r in range(k):
        rot = word[r:] + word[:r]
        sign = -1 if (pre * (total - pre)) % 2 else 1
        if rot == word and sign == -1:
            zero = True
        if best is None or rot < best:
            best, best_sign = rot, sign
        pre += degs[r]
    if zero:
        return 0, None
    return best_sign, best


class CyclicQuotientComplex:
    """Blockwise bases of R/[R,R] by necklaces, with the induced d."""

    def __init__(self, R):
        self.R = R
        self._bases = {}

    def _words(self, h, w):
        out = []
        stack = [(h, w, ())]
        while stack:
            hh, ww, acc = stack.pop()
            if hh == 0 and ww == 0:
                out.append(acc)
                continue
            for g in self.R.generators:
                if g.hdeg <= hh and g.weight <= ww:
                    stack.append((hh - g.hdeg, ww - g.weight,
                                  acc + (g.name,)))
        return out

    def basis(self, h, w):
        """Sorted canonical necklaces in bidegree (h, w)."""
        key = (h, w)
        if key not in self._bases:
            reps = set()
            for word in self._words(h, w):
                sign, can = _necklace(self.R, word)
                if sign:
                    reps.add(can)
            self._bases[key] = sorted(reps)
        return self._bases[key]

    def project(self, poly):
        """Class of a polynomial of R (dict word -> coeff) in the quotient:
        dict necklace -> coeff."""
        out = {}
        for word, c in poly.items():
            sign, can = _necklace(self.R, word)
            if sign:
                add_term(out, can, c * sign)
        return out

    def block_matrix(self, h, w):
        """Induced differential from block (h, w) to (h-1, w)."""
        return SparseMatrix.from_images(
            self.basis(h, w), self.basis(h - 1, w),
            lambda word: self.project(self.R.d({word: 1})))


def trace_chain_map(R, n, deg_cap, weight_cap):
    """Blockwise matrices of the trace map R/[R,R] -> rep_n(R).

    A necklace g1...gk goes to the trace of the product of the generic
    matrices of its letters, its closed-path words sorted into monomials.
    Returns (cyclic complex, rep algebra, dict (h, w) -> SparseMatrix on
    the block bases).
    """
    cyc = CyclicQuotientComplex(R)
    S = rep_n(R, n)
    names = _entry_names(R, n)

    def trace(word):
        out = {}
        for a in range(n):
            for entry in _entry_words(names, word, a, a):
                sign, mono = S.normalize(entry)
                if sign:
                    add_term(out, mono, sign)
        return out

    blocks = {(h, w): SparseMatrix.from_images(cyc.basis(h, w),
                                               S.monomial_basis(h, w), trace)
              for h in range(deg_cap + 1) for w in range(weight_cap + 1)}
    return cyc, S, blocks


def hr_n(R, n, deg_cap, weight_cap):
    """Betti table of rep_n(R): representation homology with k^n."""
    return rep_n(R, n).homology_table(deg_cap, weight_cap)
