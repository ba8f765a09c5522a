"""The n-dimensional representation functor on semi-free DG algebras,
cyclic-word quotient complexes, and the trace chain map between them.

rep_n replaces every generator by a generic n x n matrix of commuting
generators; the differential is evaluated entrywise through matrix
products in the graded-commutative target (Koszul signs come out of the
word order automatically).  The cyclic quotient is spanned by necklaces:
words up to rotation with the Koszul rotation sign, a class vanishing
when some rotation fixes the word with sign -1.
"""

from .commalg import CommDGAlgebra
from .freealg import GeneratorSpec
from .linalg import SparseMatrix, add_term

__all__ = ["rep_n", "CyclicQuotientComplex", "cyclic_quotient",
           "trace_chain_map", "hr_n"]


def _entry_name(gname, a, b):
    return "%s:%d%d" % (gname, a + 1, b + 1)


def _matrix_of_word(S, n, word):
    """Entries of the product of the generic n x n matrices of a word's
    letters, in rep_n's algebra S: dict (a, b) -> polynomial."""
    mat = {(a, b): ({(): 1} if a == b else {})
           for a in range(n) for b in range(n)}
    for gname in word:
        nxt = {}
        for a in range(n):
            for b in range(n):
                acc = {}
                for c in range(n):
                    left = mat[(a, c)]
                    if left:
                        gen = {(S.index[_entry_name(gname, c, b)],): 1}
                        for m, v in S.mul(left, gen).items():
                            add_term(acc, m, v)
                nxt[(a, b)] = acc
        mat = nxt
    return mat


def rep_n(R, n):
    """Matrix-entry model of R: n^2 commuting generators per generator."""
    if n < 1:
        raise ValueError("n must be >= 1")
    gens = []
    for g in R.generators:
        for a in range(n):
            for b in range(n):
                gens.append(GeneratorSpec(_entry_name(g.name, a, b),
                                          g.hdeg, g.weight))
    S = CommDGAlgebra(gens)  # bare algebra first, for index/parity tables
    diff = {}
    for g in R.generators:
        dg = R.differential.get(g.name)
        if dg is None:
            continue
        entry_polys = {(a, b): {} for a in range(n) for b in range(n)}
        for word, coeff in dg.items():
            for ab, poly in _matrix_of_word(S, n, word).items():
                for m, c in poly.items():
                    add_term(entry_polys[ab], m, c * coeff)
        for (a, b), poly in entry_polys.items():
            if poly:
                diff[_entry_name(g.name, a, b)] = poly
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


def cyclic_quotient(R):
    return CyclicQuotientComplex(R)


def trace_chain_map(R, n, deg_cap, weight_cap):
    """Blockwise matrices of the trace map R/[R,R] -> rep_n(R).

    A necklace g1...gk goes to the trace of the product of the generic
    matrices of its letters.  Returns (cyclic complex, rep algebra,
    dict (h, w) -> SparseMatrix on the block bases).
    """
    cyc = CyclicQuotientComplex(R)
    S = rep_n(R, n)

    def trace(word):
        mat = _matrix_of_word(S, n, word)
        out = {}
        for a in range(n):
            for m, v in mat[(a, a)].items():
                add_term(out, m, v)
        return out

    blocks = {(h, w): SparseMatrix.from_images(cyc.basis(h, w),
                                               S.monomial_basis(h, w), trace)
              for h in range(deg_cap + 1) for w in range(weight_cap + 1)}
    return cyc, S, blocks


def hr_n(R, n, deg_cap, weight_cap):
    """Betti table of rep_n(R): representation homology with k^n."""
    return rep_n(R, n).homology_table(deg_cap, weight_cap)
