"""Chevalley-Eilenberg complexes of finite-dimensional DG Lie algebras,
the cobar construction on the CE coalgebra, and closed-form homology of
enveloping algebras.

The CE complex is the exterior coalgebra on the suspension: a wedge word
is a monomial of commalg's graded-commutative algebra on the suspended
generators (parity = degree + 1, weight = exterior length), and every
Koszul sign comes from commalg.sort_word.  The differential combines the
internal differential of the Lie algebra (that algebra's derivation d)
with bracket contraction, and the reduced coproduct is the unshuffle.
DGLie.validate checks the Lie axioms as d^2 = 0 on wedge words of length
<= 3, and each route reads its wedge words from one monomial_bases box.
Longer words need no check of their own: linalg.homology_by_blocks checks
d o d = 0 on every block a table uses, and CE homology is one such table
(_ce_dims), summed by degree in ce_homology.
The cobar construction is freealg.cobar on the CE coalgebra (that
function alone writes the desuspension sign); its abelianization is
weight-graded by exterior length (the differential drops it by exactly
1).  Scalars are exact (linalg.exact), so the structure constants of the
built-ins and every differential built on them are ints.
"""

from .commalg import CommDGAlgebra, abelianize, sort_word
from .betti import BettiTable
from .freealg import GeneratorSpec, cobar as cobar_of
from .linalg import SparseMatrix, add_term, exact_vector, homology_by_blocks

import json

__all__ = ["DGLie", "CECoalgebra", "ce_complex", "ce_homology",
           "cobar", "hs_env_via_cobar", "hs_env_closed_form",
           "sl2", "heisenberg", "abelian_lie", "nonabelian_2dim",
           "direct_sum"]


class DGLie:
    """Finite-dimensional DG Lie algebra by structure constants.

    Given by basis names: bracket maps (name, name) -> {name: scalar},
    either order of a pair, the other filled in by graded antisymmetry,
    and differential maps name -> {name: scalar}; both are stored keyed
    by basis index (position in names).  Degrees are integers >= 0, names
    distinct, and scalars are made exact (linalg.exact) here.
    """

    def __init__(self, names, hdegs, bracket=None, differential=None):
        self.names = list(names)
        self.hdegs = list(hdegs)
        if len(self.names) != len(self.hdegs):
            raise ValueError("need one degree per basis name")
        index = {x: i for i, x in enumerate(self.names)}
        if len(index) != len(self.names):
            raise ValueError("basis names must be distinct")
        for name, h in zip(self.names, self.hdegs):
            if type(h) is not int or h < 0:
                raise ValueError("degree of %s must be an integer >= 0, "
                                 "got %r" % (name, h))
        self.dim = len(self.names)
        self.bracket = {}
        for (x, y), vec in (bracket or {}).items():
            self._set_bracket(index[x], index[y], exact_vector(
                {index[z]: c for z, c in vec.items()}))
        self.differential = {}
        for x, vec in (differential or {}).items():
            vec = exact_vector({index[z]: c for z, c in vec.items()})
            if vec:
                self.differential[index[x]] = vec
        self.validate()

    def _set_bracket(self, i, j, vec):
        sgn = -1 if (self.hdegs[i] * self.hdegs[j]) % 2 == 0 else 1
        flipped = {k: sgn * c for k, c in vec.items()}
        for key, val in (((i, j), vec), ((j, i), flipped)):
            if key in self.bracket and self.bracket[key] != val:
                raise ValueError("inconsistent bracket [%s,%s]"
                                 % (self.names[i], self.names[j]))
        if vec:
            self.bracket[(i, j)] = vec
            if i != j:
                self.bracket[(j, i)] = flipped

    def bkt(self, i, j):
        return self.bracket.get((i, j), {})

    def validate(self):
        """Check that this is a DG Lie algebra; raise ValueError if not.

        Homogeneity, [x,x] = 0 for even x (x^x = 0 among wedge words) and
        d of degree -1 are checked by hand.  The rest is the L-infinity
        characterization (Lada-Stasheff, Introduction to sh Lie algebras
        for physicists, 1993): graded Jacobi, d a derivation of the bracket
        and d^2 = 0 hold exactly when the CE differential squares to zero.
        d^2 is a coderivation, so it vanishes once its projection to single
        letters does, and that projection only sees words of length <= 3.
        The first word, by length, with d^2 != 0 names the failed axiom.
        """
        for (i, j), vec in self.bracket.items():
            deg = self.hdegs[i] + self.hdegs[j]
            for k in vec:
                if self.hdegs[k] != deg:
                    raise ValueError("bracket [%s,%s] not homogeneous"
                                     % (self.names[i], self.names[j]))
        for i in range(self.dim):
            if self.hdegs[i] % 2 == 0 and self.bkt(i, i):
                raise ValueError("[x,x] != 0 for even %s" % self.names[i])
            for k in self.differential.get(i, {}):
                if self.hdegs[k] != self.hdegs[i] - 1:
                    raise ValueError("d not of degree -1 on %s"
                                     % self.names[i])
        C = CECoalgebra(self)
        bases = C.alg.monomial_bases(3 * max(self.hdegs, default=0) + 3, 3)
        failures = ("d^2 != 0 on %s", "d not a bracket derivation at [%s,%s]",
                    "Jacobi fails on (%s, %s, %s)")
        for _, word in sorted((len(w), w) for words in bases.values()
                              for w in words if w):
            if C.d_squared(word):
                raise ValueError(failures[len(word) - 1]
                                 % tuple(self.names[i] for i in word))

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        return cls([b["name"] for b in data["basis"]],
                   [b.get("hdeg", 0) for b in data["basis"]],
                   {(x, y): vec for x, y, vec in data.get("bracket", [])},
                   data.get("differential"))


# suspended exterior coalgebra -------------------------------------------

class CECoalgebra:
    """Wedge words on the suspension of a DG Lie algebra, with the CE
    differential (a coderivation) and the unshuffle reduced coproduct.

    alg is the graded-commutative algebra on the suspended basis, weight
    being exterior length, with the suspended internal differential: its
    monomials are the wedge words, and its d is the internal part of the
    CE differential."""

    def __init__(self, lie):
        self.lie = lie
        self.alg = CommDGAlgebra(
            [GeneratorSpec(name, h + 1, 1)
             for name, h in zip(lie.names, lie.hdegs)],
            {lie.names[i]: {(lie.names[k],): c for k, c in vec.items()}
             for i, vec in lie.differential.items()})
        self.parities = self.alg.parities

    def diff(self, word):
        """CE differential of a wedge word: dict word -> coeff."""
        out = self.alg.d({word: 1})
        # bracket part: pull a pair to the front (the Koszul sign of the
        # pull is that of sorting back) and contract it
        for r in range(len(word)):
            for s in range(r + 1, len(word)):
                rest = word[:r] + word[r + 1:s] + word[s + 1:]
                coeff = sort_word((word[r], word[s]) + rest,
                                  self.parities)[0]
                if self.parities[word[r]] == 0:
                    coeff = -coeff
                for k, c in self.lie.bkt(word[r], word[s]).items():
                    sign, mono = sort_word((k,) + rest, self.parities)
                    if sign:
                        add_term(out, mono, coeff * c * sign)
        return out

    def reduced_coproduct(self, word):
        """Proper unshuffle splits: dict (word1, word2) -> coeff, the
        Koszul sign of pulling word1's letters to the front."""
        out = {}
        ell = len(word)
        for mask in range(1, (1 << ell) - 1):
            left, right = [], []
            for pos in range(ell):
                (left if mask >> pos & 1 else right).append(word[pos])
            add_term(out, (tuple(left), tuple(right)),
                     sort_word(left + right, self.parities)[0])
        return out

    def d_squared(self, word):
        """d(d(word)) as a dict word -> coeff (empty when it vanishes)."""
        out = {}
        for w2, c in self.diff(word).items():
            for w3, c2 in self.diff(w2).items():
                add_term(out, w3, c * c2)
        return out


def ce_complex(a):
    """The CE coalgebra of a.  d^2 = 0 is checked where input enters
    (DGLie.validate, on wedge words of length <= 3) and on every block a
    table uses (linalg.homology_by_blocks raises CompositionNonZeroError),
    so a sign error on longer words fails the table that reads it.  The
    benchmark's tracer times CE setup under this name (lie.ce_s)."""
    return CECoalgebra(a)


def _ce_dims(a, cap):
    """BettiTable of CE homology, (h, ell), through degree cap (unreduced).

    ell is exterior length, which d shifts by -1 (pure bracket) or by 0
    (pure internal d).  A d with both parts is graded by degree alone,
    with every word at ell = 0.  A word of degree h has length <= h, so
    the weight cap cap + 1 leaves out no block a degree <= cap reads.
    """
    C = ce_complex(a)
    bases = C.alg.monomial_bases(cap + 1, cap + 1)
    shift = -1 if a.bracket else 0
    if a.bracket and a.differential:
        shift = 0
        bases = {(h, 0): sorted(w for (hh, _), words in bases.items()
                                if hh == h for w in words)
                 for h in range(cap + 2)}
    return homology_by_blocks(
        cap, cap + 1, shift, bases,
        lambda h, ell: SparseMatrix.from_images(
            bases[h, ell], bases[h - 1, ell + shift], C.diff))


def ce_homology(a, cap):
    """Dimensions of CE homology H_i(a; k) for i = 0..cap (unreduced)."""
    dims = _ce_dims(a, cap)
    return [dims.degree_total(i) for i in range(cap + 1)]


# cobar ------------------------------------------------------------------

def cobar(C, deg_cap, weight_cap):
    """freealg.cobar of CE(a) on the nonempty wedge words of one box,
    sorted by (CE degree, word) and named [a^b].  d keeps a word's length
    or lowers it and the coproduct splits it, so both stay in the box."""
    names = C.lie.names
    words = sorted((h, w) for (h, _), ws in
                   C.alg.monomial_bases(deg_cap + 1, weight_cap).items()
                   if h for w in ws)
    return cobar_of([(w, "[%s]" % "^".join(names[i] for i in w), h, len(w))
                     for h, w in words], C.diff, C.reduced_coproduct)


def hs_env_via_cobar(a, deg_cap, weight_cap):
    """Betti table of the abelianized cobar construction on CE(a).

    The entries at the top degree and weight need the incoming block from
    degree deg_cap + 1 and weight weight_cap + 1 (d lowers weight by one),
    so the generators are kept one step past both caps.
    """
    C = ce_complex(a)
    omega = cobar(C, deg_cap + 1, weight_cap + 1)
    S = abelianize(omega)
    return S.homology_table(deg_cap, weight_cap)


def hs_env_closed_form(a, deg_cap, weight_cap):
    """Free graded-commutative algebra on reduced CE homology, shifted
    down by one; expanded into a Betti table through the caps."""
    if a.bracket and a.differential:
        raise ValueError(
            "bigraded CE homology needs a pure bracket or pure internal "
            "differential")
    # the unreduced H_0 = k contributes the algebra unit
    gens = [GeneratorSpec("u%d_%d_%d" % (h, ell, r), h - 1, ell)
            for (h, ell), dim in _ce_dims(a, deg_cap + 1).entries.items()
            if h for r in range(dim)]
    bases = CommDGAlgebra(gens).monomial_bases(deg_cap, weight_cap)
    return BettiTable(deg_cap, weight_cap,
                      {pos: len(basis) for pos, basis in bases.items()})


# built-in Lie algebras --------------------------------------------------

def sl2():
    """sl(2): e, f, h with [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return DGLie(
        ["e", "f", "h"], [0, 0, 0],
        {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}})


def heisenberg():
    """Heisenberg algebra: [x, y] = z central."""
    return DGLie(["x", "y", "z"], [0, 0, 0], {("x", "y"): {"z": 1}})


def abelian_lie(n):
    return DGLie(["v%d" % (i + 1) for i in range(n)], [0] * n)


def nonabelian_2dim():
    """The unique nonabelian 2-dimensional Lie algebra: [x, y] = y."""
    return DGLie(["x", "y"], [0, 0], {("x", "y"): {"y": 1}})


def direct_sum(a, b):
    """Direct sum: a's basis names prefixed "a.", b's prefixed "b."."""
    names, hdegs, bracket, diff = [], [], {}, {}
    for prefix, part in (("a.", a), ("b.", b)):
        name = [prefix + x for x in part.names]
        names += name
        hdegs += part.hdegs
        for (i, j), vec in part.bracket.items():
            bracket[(name[i], name[j])] = {name[k]: c for k, c in vec.items()}
        for i, vec in part.differential.items():
            diff[name[i]] = {name[k]: c for k, c in vec.items()}
    return DGLie(names, hdegs, bracket, diff)
