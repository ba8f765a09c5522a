"""The n-dimensional representation functor on semi-free DG algebras.

rep_n(R) is the abelianization of the matrix reduction R_n of [BKR]: the
CommDGAlgebra on the entries g:ab of a generic n x n matrix per
generator g of R, whose d(g:ab) is the (a, b) entry of d(g) evaluated on
those matrices, one word of entry names per term of d(g) and index path
a = c_0, ..., c_k = b.  Built from that presentation directly, it is
what abelianize makes of the free algebra R_n.
"""

from itertools import product

from .commalg import CommDGAlgebra
from .freealg import GeneratorSpec

__all__ = ["rep_n", "hr_n"]


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


def hr_n(R, n, deg_cap, weight_cap):
    """Betti table of rep_n(R): representation homology with k^n."""
    return rep_n(R, n).homology_table(deg_cap, weight_cap)
