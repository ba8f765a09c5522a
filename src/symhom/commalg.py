"""Graded-commutative DG algebras (polynomial tensor exterior) and their
blockwise homology.

A CommDGAlgebra is presented as a FreeDGAlgebra is: weight-graded
generators and the value of d on each, a dict of words of generator
names.  The constructor sorts each word into a monomial, a nondecreasing
tuple of generator indices: odd-degree generators square to zero and
reordering follows the Koszul rule.  So the abelianization of a
semi-free algebra on (V, d) is the CommDGAlgebra on the same (V, d).
Every Koszul sign comes from _merge, the product of two monomials:
sort_word merges in a word's letters one at a time, and d merges each
term of d(x) into the rest of a monomial, never re-sorting it whole.
freealg.grading_shifts checks the grading of both classes; here the
sorted differential must shift weight by one fixed amount (0 for honest
weight gradings, -1 for the abelianized cobar of a plain Lie algebra).

homology_table hands its blocks to linalg.homology_by_blocks, which
builds and ranks each nonzero block once.  The block bases come from one
enumeration of the box the call needs (monomial_bases), which visits each
monomial of the box once and lives only for that call.
"""

from bisect import bisect_left

from .betti import BettiTable
from .freealg import grading_shifts
from .linalg import SparseMatrix, add_term, exact_vector, homology_by_blocks

__all__ = ["CommDGAlgebra", "sort_word", "abelianize"]


def _merge(a, b, parities):
    """The product a . b of two monomials as (sign, monomial): the Koszul
    sign is -1 to the number of odd pairs (x in a, y in b) with x > y, and
    an odd letter in both makes the product 0, given as (0, None)."""
    flips = 0
    odd_a = [x for x in a if parities[x]]
    if odd_a:
        odd_b = [y for y in b if parities[y]]
        for x in odd_a:
            i = bisect_left(odd_b, x)
            if i < len(odd_b) and odd_b[i] == x:
                return 0, None
            flips += i
    return -1 if flips & 1 else 1, tuple(sorted(a + b))


def sort_word(word, parities):
    """Sort a word of generator indices into a canonical monomial.

    Returns (sign, monomial) with the Koszul sign of the sorting
    permutation, or (0, None) when an odd generator repeats: the word is
    the product of its letters, merged in one at a time."""
    sign, mono = 1, ()
    for x in word:
        s, mono = _merge(mono, (x,), parities)
        if not s:
            return 0, None
        sign *= s
    return sign, mono


class CommDGAlgebra:
    """Free graded-commutative DG algebra on weight-graded generators."""

    def __init__(self, generators, differential=None):
        """differential is presented as for FreeDGAlgebra: it maps a
        generator name to a dict word -> scalar, a word being a tuple of
        generator names in any order.  Each word is sorted into a monomial
        with its Koszul sign (normalize), odd squares vanish, reorderings
        of one monomial are summed, and the scalars are made exact."""
        self.generators = list(generators)
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        self.index = {g.name: i for i, g in enumerate(self.generators)}
        self.parities = [g.hdeg % 2 for g in self.generators]
        self.differential = {}
        for name, poly in (differential or {}).items():
            out = {}
            for word, c in exact_vector(poly).items():
                sign, mono = self.normalize(word)
                if sign:
                    add_term(out, mono, c * sign)
            if out:
                self.differential[self.index[name]] = out
        # The shifts are read off the sorted terms, not the words given:
        # the free cobar of sl2 has quadratic coproduct terms of shift 0
        # beside linear ones of shift -1, and only after sorting do the
        # quadratic terms cancel (CE(g) is cocommutative).
        shifts = sorted(grading_shifts(self.generators, self.differential))
        if len(shifts) > 1:
            raise ValueError("differential is not weight-homogeneous "
                             "(shifts %s)" % shifts)
        self.weight_shift = shifts[0] if shifts else 0

    def normalize(self, word):
        """A word of generator names as (sign, monomial); see sort_word."""
        return sort_word([self.index[n] for n in word], self.parities)

    # polynomial arithmetic (dict monomial -> scalar) --------------------

    def d(self, p):
        """Derivation differential of a polynomial.

        At a letter x of a sorted monomial pre . x . post the term is
        (-1)^|pre| pre . d(x) . post = +-d(x) . (pre . post), -1 when x and
        the count of odd letters in pre are both odd (d(x) has the other
        parity); each term of d(x) is merged into pre . post (_merge).
        """
        out = {}
        parities = self.parities
        for mono, c in p.items():
            odd_pre = 0
            for r, i in enumerate(mono):
                dg = self.differential.get(i)
                if dg is not None:
                    rest = mono[:r] + mono[r + 1:]
                    sign = -c if odd_pre & parities[i] else c
                    for m, cg in dg.items():
                        s, word = _merge(m, rest, parities)
                        if not s:
                            continue
                        v = out.get(word, 0) + s * sign * cg
                        if v:
                            out[word] = v
                        elif word in out:
                            del out[word]
                odd_pre += parities[i]
        return out

    def check_d_squared(self):
        """True iff d(d(g)) = 0 on every generator g."""
        return not any(self.d(dg) for dg in self.differential.values())

    # bases and homology -------------------------------------------------

    def monomial_bases(self, hdeg_cap, weight_cap):
        """{(h, w): sorted basis of block (h, w)} for every nonempty block
        with h <= hdeg_cap and w <= weight_cap: one search up from the
        unit monomial files each monomial of the box under its own (h, w),
        so each is visited once."""
        gens = [(g.hdeg, g.weight, odd)
                for g, odd in zip(self.generators, self.parities)]
        out = {}
        stack = [(0, 0, 0, ())] if min(hdeg_cap, weight_cap) >= 0 else []
        while stack:
            start, h, w, mono = stack.pop()
            out.setdefault((h, w), []).append(mono)
            for i in range(start, len(gens)):
                gh, gw, odd = gens[i]
                if h + gh <= hdeg_cap and w + gw <= weight_cap:
                    # an odd generator squares to zero: never repeat it
                    stack.append((i + odd, h + gh, w + gw, mono + (i,)))
        return {key: sorted(basis) for key, basis in out.items()}

    def monomial_basis(self, hdeg, weight):
        """Sorted basis of the (hdeg, weight) block."""
        return self.monomial_bases(hdeg, weight).get((hdeg, weight), [])

    def block_matrix(self, hdeg, weight, bases):
        """Matrix of d from block (hdeg, weight) to (hdeg-1, weight+shift),
        on the buckets of a monomial_bases dict whose box holds both
        blocks."""
        return SparseMatrix.from_images(
            bases.get((hdeg, weight), []),
            bases.get((hdeg - 1, weight + self.weight_shift), []),
            lambda mono: self.d({mono: 1}))

    def homology_table(self, deg_cap, weight_cap):
        """BettiTable of blockwise homology, exact within the caps.  The
        blocks at (h, w) reach degree h + 1 and weight w - weight_shift
        (the shift is <= 0), so one monomial_bases call supplies every
        basis."""
        bases = self.monomial_bases(deg_cap + 1,
                                    weight_cap - self.weight_shift)
        positions = [(h, w) for h in range(deg_cap + 1)
                     for w in range(weight_cap + 1)]
        return BettiTable(deg_cap, weight_cap, homology_by_blocks(
            positions, lambda h, w: self.block_matrix(h, w, bases),
            self.weight_shift, bases))


def abelianize(R):
    """Universal graded-commutative quotient of a FreeDGAlgebra: the free
    graded-commutative algebra on R's generators and differential."""
    return CommDGAlgebra(R.generators, R.differential)
