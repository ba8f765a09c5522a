"""Free associative DG algebras with derivation differentials.

A FreeDGAlgebra is presented by weight-graded generators and the value of
the differential on each generator; the differential extends as a degree
-1 derivation with the Koszul sign d(ab) = d(a)b + (-1)^{|a|} a d(b).
An element of the algebra is a plain dict word -> scalar, a word being a
tuple of generator names, as every vector in the package is a plain dict.
commalg.CommDGAlgebra takes the same presentation, so abelianizing is a
constructor call; grading_shifts checks the grading of d for both.
Every resolution here is one call to cobar, the one place that writes
the desuspension sign: lie.cobar and the two standard resolutions below.
"""

import json
from dataclasses import dataclass

from .linalg import add_term, exact_vector

__all__ = ["GeneratorSpec", "FreeDGAlgebra", "grading_shifts", "cobar",
           "dual_numbers_resolution", "free_resolution_of_tensor_algebra"]


@dataclass(frozen=True)
class GeneratorSpec:
    """A graded generator: homological degree >= 0, internal weight >= 1."""
    name: str
    hdeg: int
    weight: int

    def __post_init__(self):
        for attr, value, low in (("hdeg", self.hdeg, 0),
                                 ("weight", self.weight, 1)):
            if type(value) is not int or value < low:
                raise ValueError("%s of %s must be an integer >= %d, got %r"
                                 % (attr, self.name, low, value))


def grading_shifts(spec, differential):
    """The set of weight shifts of the terms of a differential, after
    checking that each term of d(g) has degree hdeg(g) - 1 and weight at
    most weight(g).  differential maps a key of spec to a dict word ->
    scalar, whose words are tuples of keys of spec; spec maps each key to
    its GeneratorSpec."""
    shifts = set()
    for key, poly in differential.items():
        g = spec[key]
        for word in poly:
            hdeg = weight = 0
            for x in word:
                hdeg += spec[x].hdeg
                weight += spec[x].weight
            if hdeg != g.hdeg - 1:
                problem = "a term of wrong degree"
            elif weight > g.weight:
                problem = "a weight-raising term"
            else:
                shifts.add(weight - g.weight)
                continue
            raise ValueError("d(%s) has %s: %s" % (
                g.name, problem, tuple(spec[x].name for x in word)))
    return shifts


class FreeDGAlgebra:
    """Semi-free associative DG algebra on weight-graded generators."""

    def __init__(self, generators, differential=None):
        """differential maps a generator name to its image, a dict word ->
        scalar; the scalars are made exact (linalg.exact) and zeros
        dropped here."""
        self.generators = list(generators)
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        self.gen_by_name = {g.name: g for g in self.generators}
        self.differential = {}
        for name, poly in (differential or {}).items():
            if name not in self.gen_by_name:
                raise ValueError("differential on unknown generator %r" % name)
            terms = exact_vector({tuple(w): c for w, c in poly.items()})
            if terms:
                self.differential[name] = terms
        grading_shifts(self.gen_by_name, self.differential)

    def d(self, poly):
        """Derivation differential: d(ab) = d(a)b + (-1)^{|a|} a d(b)."""
        out = {}
        for word, c in poly.items():
            sign = c
            for i, name in enumerate(word):
                for m, cg in self.differential.get(name, {}).items():
                    add_term(out, word[:i] + m + word[i + 1:], sign * cg)
                if self.gen_by_name[name].hdeg % 2:
                    sign = -sign
        return out

    def check_d_squared(self):
        """True iff d(d(g)) = 0 on every generator g."""
        return not any(self.d(dg) for dg in self.differential.values())

    # JSON presentation format -------------------------------------------

    def to_json(self):
        return json.dumps({
            "generators": [
                {"name": g.name, "hdeg": g.hdeg, "weight": g.weight}
                for g in self.generators],
            "differential": [
                [name, sorted([list(w), str(c)]
                              for w, c in poly.items())]
                for name, poly in sorted(self.differential.items())],
        }, indent=2)

    @classmethod
    def from_json(cls, text):
        """The algebra of a to_json text, checked to be a resolution's
        presentation: d(d(g)) = 0 on every generator.  The constructor
        does not check it, so that a deliberately broken differential (a
        negative control) can still be built."""
        data = json.loads(text)
        gens = [GeneratorSpec(g["name"], g["hdeg"], g["weight"])
                for g in data["generators"]]
        diff = {}
        for name, terms in data.get("differential", []):
            diff[name] = {tuple(w): c for w, c in terms}
        alg = cls(gens, diff)
        if not alg.check_d_squared():
            raise ValueError("d(d(g)) != 0 on some generator g")
        return alg


def cobar(coalgebra, d, coproduct):
    """Omega C, the free DG algebra on the desuspended reduced part of a
    coaugmented DG coalgebra C (Loday-Vallette, Algebraic Operads, ch. 2-3).
    coalgebra lists that part's basis as (key, name, degree >= 1, weight),
    d(key) is {key: c} and coproduct(key) is {(key1, key2): c}.  Generator
    name has degree - 1, and d(s^-1 c) = -s^-1(dc) - sum (-1)^{|c1|}
    s^-1 c1 s^-1 c2, the sign of desuspending the left tensor leg."""
    names = {key: name for key, name, _, _ in coalgebra}
    odd = {key: degree % 2 for key, _, degree, _ in coalgebra}
    diff = {}
    for key, name, _, _ in coalgebra:
        terms = diff[name] = {}
        for k, c in d(key).items():
            add_term(terms, (names[k],), -c)
        for (k1, k2), c in coproduct(key).items():
            add_term(terms, (names[k1], names[k2]), c if odd[k1] else -c)
    return FreeDGAlgebra([GeneratorSpec(name, degree - 1, weight)
                          for _, name, degree, weight in coalgebra], diff)


def dual_numbers_resolution(i_max):
    """The standard semi-free resolution of k[x]/(x^2), Omega of the bars
    c_i = [x|...|x] of i + 1 letters with d = 0 and deconcatenation.

    Generators: x = s^-1 c_0 in degree 0 weight 1 and t_i = s^-1 c_i in
    degree i weight i+1 for 1 <= i <= i_max, with d(t_1) = x^2 and
    d(t_i) = sum_j (-1)^j t_j t_{i-1-j} where t_0 stands for x.
    """
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    return cobar([(i, "t%d" % i if i else "x", i + 1, i + 1)
                  for i in range(i_max + 1)], lambda i: {},
                 lambda i: {(j, i - 1 - j): 1 for j in range(i)})


def free_resolution_of_tensor_algebra(num_gens):
    """k<x_1..x_n> resolving itself: Omega(k + V), V in degree 1, d = 0."""
    return cobar([(i, "x%d" % (i + 1), 1, 1) for i in range(num_gens)],
                 lambda i: {}, lambda i: {})
