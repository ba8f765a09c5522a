"""Graded-commutative DG algebras (polynomial tensor exterior) and their
blockwise homology.

A CommDGAlgebra is presented as a FreeDGAlgebra is: weight-graded
generators and the value of d on each, a dict of words of generator
names.  The constructor sorts each word into a monomial, a nondecreasing
tuple of generator indices: odd-degree generators square to zero and
reordering follows the Koszul rule.  So the abelianization of a
semi-free algebra on (V, d) is the CommDGAlgebra on the same (V, d).
freealg.grading_shifts checks the grading of both classes; here the
sorted differential must shift weight by one fixed amount (0 for honest
weight gradings, -1 for the abelianized cobar of a plain Lie algebra).

homology_table hands its blocks to linalg.homology_by_blocks, which
builds and ranks each block once.  The block bases come from one
enumeration of the box the call needs (monomial_bases), which visits each
monomial of the box once and lives only for that call.
"""

from .betti import BettiTable
from .freealg import grading_shifts
from .linalg import SparseMatrix, add_term, exact_vector, homology_by_blocks

__all__ = ["CommDGAlgebra", "sort_word", "abelianize"]


def sort_word(word, parities):
    """Sort a word of generator indices into a canonical monomial.

    Returns (sign, monomial) with the Koszul sign of the sorting
    permutation, or (0, None) when an odd generator repeats.
    """
    word = list(word)
    sign = 1
    # insertion sort; each adjacent swap of two odd letters flips the sign
    for i in range(1, len(word)):
        j = i
        while j > 0 and word[j - 1] > word[j]:
            if parities[word[j - 1]] and parities[word[j]]:
                sign = -sign
            word[j - 1], word[j] = word[j], word[j - 1]
            j -= 1
    for i in range(1, len(word)):
        if word[i] == word[i - 1] and parities[word[i]]:
            return 0, None
    return sign, tuple(word)


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

    def mono_hdeg(self, mono):
        return sum(self.generators[i].hdeg for i in mono)

    def mono_weight(self, mono):
        return sum(self.generators[i].weight for i in mono)

    def d(self, p):
        """Derivation differential of a polynomial.

        Each term pre . d(g) . post is sorted once; its Koszul sign is the
        product of the signs of sorting pre . d(g) and then the rest.
        """
        out = {}
        for mono, c in p.items():
            sign = c
            for r, i in enumerate(mono):
                dg = self.differential.get(i)
                if dg is not None:
                    pre, post = mono[:r], mono[r + 1:]
                    for m, cg in dg.items():
                        s, word = sort_word(pre + m + post, self.parities)
                        if not s:
                            continue
                        term = sign * cg
                        v = out.get(word, 0) + (term if s > 0 else -term)
                        if v:
                            out[word] = v
                        elif word in out:
                            del out[word]
                if self.parities[i]:
                    sign = -sign
        return out

    def check_d_squared(self, deg_cap, weight_cap):
        for i, g in enumerate(self.generators):
            if g.hdeg <= deg_cap and g.weight <= weight_cap:
                if self.d(self.differential.get(i, {})):
                    return False
        return True

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

    def block_matrix(self, hdeg, weight, bases=None):
        """Matrix of d from block (hdeg, weight) to (hdeg-1, weight+shift),
        on the buckets of a monomial_bases dict whose box holds both blocks
        (by default the box below (hdeg, weight))."""
        if bases is None:
            bases = self.monomial_bases(hdeg, weight)
        return SparseMatrix.from_images(
            bases.get((hdeg, weight), []),
            bases.get((hdeg - 1, weight + self.weight_shift), []),
            lambda mono: self.d({mono: 1}))

    def _homology(self, positions):
        """{(h, w): dim} through the shared block driver.  The blocks at
        (h, w) reach degree h + 1 and weight w - weight_shift (the shift
        is <= 0), so one monomial_bases call supplies every basis."""
        bases = self.monomial_bases(
            max((h for h, _ in positions), default=-1) + 1,
            max((w for _, w in positions), default=0) - self.weight_shift)
        return homology_by_blocks(
            positions, lambda h, w: self.block_matrix(h, w, bases),
            self.weight_shift)

    def homology_table(self, deg_cap, weight_cap):
        """BettiTable of blockwise homology, exact within the caps."""
        positions = [(h, w) for h in range(deg_cap + 1)
                     for w in range(weight_cap + 1)]
        return BettiTable(deg_cap, weight_cap, self._homology(positions))

    def euler_check(self, weight, deg_cap):
        """Per-weight Euler characteristic conservation.

        Valid when the weight-`weight` part of the complex is entirely
        below deg_cap (raises otherwise) and the weight shift is 0.
        """
        if self.weight_shift != 0:
            raise ValueError("Euler check needs a weight-preserving d")
        bases = self.monomial_bases(deg_cap + 1, weight)
        dims = [len(bases.get((h, weight), [])) for h in range(deg_cap + 2)]
        if dims[deg_cap + 1]:
            raise ValueError("weight %d block extends beyond deg_cap" % weight)
        chi_complex = sum((-1) ** h * dims[h] for h in range(deg_cap + 1))
        homology = self._homology([(h, weight) for h in range(deg_cap + 1)])
        chi_homology = sum((-1) ** h * dim
                           for (h, _), dim in homology.items())
        return chi_complex == chi_homology


def abelianize(R):
    """Universal graded-commutative quotient of a FreeDGAlgebra: the free
    graded-commutative algebra on R's generators and differential."""
    return CommDGAlgebra(R.generators, R.differential)
