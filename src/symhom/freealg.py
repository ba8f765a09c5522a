"""Free associative DG algebras with derivation differentials.

A FreeDGAlgebra is presented by weight-graded generators and the value of
the differential on each generator; the differential extends as a degree
-1 derivation with the Koszul sign d(ab) = d(a)b + (-1)^{|a|} a d(b).
An element of the algebra is a plain dict word -> scalar, a word being a
tuple of generator names, as every vector in the package is a plain dict.
commalg.CommDGAlgebra takes the same presentation, so abelianizing is a
constructor call; grading_shifts checks the grading of d for both.
"""

import json
from dataclasses import dataclass

from .linalg import add_term, exact_vector
from .rationals import qq

__all__ = ["GeneratorSpec", "FreeDGAlgebra", "grading_shifts",
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

    def d_gen(self, name):
        return self.differential.get(name, {})

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

    def check_d_squared(self, deg_cap, weight_cap):
        """True iff d(d(g)) = 0 for all generators within the caps."""
        for g in self.generators:
            if g.hdeg <= deg_cap and g.weight <= weight_cap:
                if self.d(self.d_gen(g.name)):
                    return False
        return True

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
        data = json.loads(text)
        gens = [GeneratorSpec(g["name"], g["hdeg"], g["weight"])
                for g in data["generators"]]
        diff = {}
        for name, terms in data.get("differential", []):
            diff[name] = {tuple(w): qq(c) for w, c in terms}
        return cls(gens, diff)


def dual_numbers_resolution(i_max):
    """The standard semi-free resolution of k[x]/(x^2).

    Generators: x in degree 0 weight 1 and t_i in degree i weight i+1 for
    1 <= i <= i_max, with d(t_1) = x^2 and
    d(t_i) = sum_j (-1)^j t_j t_{i-1-j} where t_0 stands for x.
    """
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    gens = [GeneratorSpec("x", 0, 1)]
    gens += [GeneratorSpec("t%d" % i, i, i + 1) for i in range(1, i_max + 1)]

    def tname(j):
        return "x" if j == 0 else "t%d" % j

    diff = {"t%d" % i: {(tname(j), tname(i - 1 - j)): (-1) ** j
                        for j in range(i)}
            for i in range(1, i_max + 1)}
    return FreeDGAlgebra(gens, diff)


def free_resolution_of_tensor_algebra(num_gens):
    """k<x_1..x_n> resolving itself: degree-0 generators, zero differential."""
    gens = [GeneratorSpec("x%d" % (i + 1), 0, 1) for i in range(num_gens)]
    return FreeDGAlgebra(gens, {})
