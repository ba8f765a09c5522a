"""Associative algebras given by structure constants.

Vectors are sparse dicts basis-index -> scalar, and integral structure
constants are held as ints (linalg.exact), so that the bar faces built
on them run on int arithmetic.  An algebra may carry a weight grading
(multiplication adds weights); graded algebras of infinite total
dimension (polynomial and tensor algebras) are represented by a basis
truncated at a weight bound, with products beyond the bound discarded
-- sound for any weight-graded computation below the bound.
"""

import itertools
import json
import math

from .linalg import add_term, exact_vector

__all__ = ["FinDimAlgebra", "dual_numbers_algebra", "matrix_algebra",
           "upper_triangular_algebra", "truncated_poly_algebra",
           "free_tensor_algebra"]


class FinDimAlgebra:
    """Unital associative algebra with explicit structure constants, given
    by basis names: mult maps (name, name) -> {name: scalar}, a pair left
    out multiplying to zero.  unit, mult and weights are stored keyed by
    basis index, the position of a name in basis."""

    def __init__(self, basis, unit, mult, weights=None, truncation=None):
        self.basis = list(basis)
        self.index = index = {b: i for i, b in enumerate(self.basis)}
        if len(index) != len(self.basis):
            raise ValueError("duplicate basis names")
        self.unit = exact_vector({index[b]: c for b, c in unit.items()})
        self.mult = {}
        for (a, b), vec in mult.items():
            vec = exact_vector({index[k]: c for k, c in vec.items()})
            if vec:
                self.mult[(index[a], index[b])] = vec
        self.weights = None
        if weights is not None:
            self.weights = [0] * len(self.basis)
            for b, w in weights.items():
                if type(w) is not int or w < 0:
                    raise ValueError("weight of %s must be an integer >= 0, "
                                     "got %r" % (b, w))
                self.weights[index[b]] = w
        self.truncation = truncation
        if truncation is not None:
            if self.weights is None:
                raise ValueError("truncation requires a weight grading")
            if type(truncation) is not int or truncation < 0:
                raise ValueError("truncation must be an integer >= 0, got %r"
                                 % (truncation,))
        self.validate()

    @property
    def dim(self):
        return len(self.basis)

    def multiply(self, u, v):
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                for k, c in self.mult.get((i, j), {}).items():
                    add_term(out, k, a * b * c)
        return out

    def multiply_word(self, indices):
        """Ordered product of basis elements; the empty word gives the
        unit, and a nonempty one starts from its first letter (validate
        checks the unit law, so that is the same product)."""
        if not indices:
            return dict(self.unit)
        out = {indices[0]: 1}
        for i in indices[1:]:
            out = self.multiply(out, {i: 1})
        return out

    def _triples(self):
        """Every basis triple (i, j, k) inside the truncation; the basis is
        bucketed by weight, so no triple beyond it is visited."""
        if self.truncation is None:
            yield from itertools.product(range(self.dim), repeat=3)
            return
        by_weight = {}
        for i, w in enumerate(self.weights):
            by_weight.setdefault(w, []).append(i)
        for wi, wj, wk in itertools.product(sorted(by_weight), repeat=3):
            if wi + wj + wk <= self.truncation:
                yield from itertools.product(
                    by_weight[wi], by_weight[wj], by_weight[wk])

    def validate(self):
        """Unitality, weight additivity on the basis, and associativity on
        every basis triple inside the truncation."""
        for b in range(self.dim):
            e = {b: 1}
            if self.multiply(self.unit, e) != e or \
                    self.multiply(e, self.unit) != e:
                raise ValueError("unit fails on %s" % self.basis[b])
        if self.weights is not None:
            for (i, j), vec in self.mult.items():
                wij = self.weights[i] + self.weights[j]
                for k in vec:
                    if self.weights[k] != wij:
                        raise ValueError(
                            "product %s*%s not weight-homogeneous"
                            % (self.basis[i], self.basis[j]))
        mult, zero = self.mult, {}
        for i, j, k in self._triples():
            lhs, rhs = {}, {}  # (i j) k and i (j k), straight from mult
            for m, a in mult.get((i, j), zero).items():
                for n, b in mult.get((m, k), zero).items():
                    add_term(lhs, n, a * b)
            for m, a in mult.get((j, k), zero).items():
                for n, b in mult.get((i, m), zero).items():
                    add_term(rhs, n, a * b)
            if lhs != rhs:
                raise ValueError(
                    "associativity fails on (%s, %s, %s)"
                    % (self.basis[i], self.basis[j], self.basis[k]))

    def augmented_split(self):
        """(unit index, augmentation-ideal indices) of a connected
        weight-graded algebra, the bar route's input; raises ValueError
        on any other algebra.

        Connected means that the unit is a basis element of weight 0 and
        every other basis element has weight >= 1.  The augmentation is
        then the unit coefficient: its ideal is spanned by the other basis
        elements, and holds their products, since products add weight.
        """
        if self.weights is None:
            raise ValueError("algebra is not connected graded: it has no "
                             "weights")
        zero = [i for i, w in enumerate(self.weights) if w == 0]
        if len(zero) != 1 or self.unit != {zero[0]: 1}:
            raise ValueError("algebra is not connected graded: the unit is "
                             "not the one basis element of weight 0")
        u, = zero
        return u, [i for i in range(self.dim) if i != u]

    # serialization -------------------------------------------------------

    def to_json(self):
        name = self.basis

        def named(vec):
            return {name[k]: str(c) for k, c in sorted(vec.items())}

        data = {"basis": name, "unit": named(self.unit),
                "mult": [[name[i], name[j], named(vec)]
                         for (i, j), vec in sorted(self.mult.items())]}
        if self.weights is not None:
            data["weights"] = dict(zip(name, self.weights))
        if self.truncation is not None:
            data["truncation"] = self.truncation
        return json.dumps(data, indent=2)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        return cls(data["basis"], data["unit"],
                   {(a, b): vec for a, b, vec in data["mult"]},
                   weights=data.get("weights"),
                   truncation=data.get("truncation"))


def dual_numbers_algebra():
    """k[x]/(x^2), connected weight-graded with weight(x) = 1."""
    return FinDimAlgebra(
        ["1", "x"], {"1": 1},
        {("1", "1"): {"1": 1}, ("1", "x"): {"x": 1}, ("x", "1"): {"x": 1}},
        weights={"1": 0, "x": 1})


def _matrix_units(pairs):
    """The span of the matrix units e_ab, (a, b) in pairs (1-based), with
    e_ab * e_bd = e_ad; pairs must be closed under that product.  Both
    indices are padded to the width of the largest, so that no two units
    share a name (e11..e99 up to 9)."""
    width = len(str(max(max(p) for p in pairs)))
    name = {p: "e%0*d%0*d" % (width, p[0], width, p[1]) for p in pairs}
    return FinDimAlgebra(
        list(name.values()),
        {name[(a, b)]: 1 for a, b in pairs if a == b},
        {(name[(a, b)], name[(c, d)]): {name[(a, d)]: 1}
         for a, b in pairs for c, d in pairs if b == c})


def matrix_algebra(n=2):
    """Full matrix algebra M_n(k) on the elementary matrices."""
    return _matrix_units([(a + 1, b + 1) for a in range(n)
                          for b in range(n)])


def upper_triangular_algebra():
    """Upper-triangular 2x2 matrices: e11, e22, e12."""
    return _matrix_units([(1, 1), (2, 2), (1, 2)])


def truncated_poly_algebra(weight_cap, nvars=1):
    """k[x_1..x_nvars] with basis the monomials of degree <= weight_cap,
    weight = degree.  Basis names: 1, x^i for one variable, and products
    such as x1^2*x3^1 for several."""
    # a monomial of degree d as the sorted tuple of its d variables: their
    # order, reversed, is ascending lexicographic order of the exponents
    exponents = [
        tuple(m.count(v) for v in range(nvars))
        for d in range(weight_cap + 1)
        for m in reversed(list(
            itertools.combinations_with_replacement(range(nvars), d)))]
    letters = ["x"] if nvars == 1 else ["x%d" % (v + 1) for v in range(nvars)]
    name = {e: "*".join("%s^%d" % (x, i)
                        for x, i in zip(letters, e) if i) or "1"
            for e in exponents}
    # exponents are listed by degree, so those of degree <= k are the
    # first comb(nvars + k, nvars): a's partners, for k = cap - |a|
    mult = {(na, name[b]): {name[tuple(p + q for p, q in zip(a, b))]: 1}
            for a, na in name.items() for b in
            exponents[:math.comb(nvars + weight_cap - sum(a), nvars)]}
    return FinDimAlgebra(
        list(name.values()), {"1": 1}, mult,
        weights={n: sum(e) for e, n in name.items()},
        truncation=weight_cap,
    )


def free_tensor_algebra(num_gens, weight_cap):
    """Tensor algebra on num_gens letters, truncated beyond weight_cap."""
    letters = [chr(ord("a") + i) for i in range(num_gens)]
    words = [""]
    frontier = [""]
    for _ in range(weight_cap):
        frontier = [w + l for w in frontier for l in letters]
        words.extend(frontier)
    name = {w: w or "1" for w in words}
    return FinDimAlgebra(
        list(name.values()), {"1": 1},
        {(name[u], name[v]): {name[u + v]: 1}
         for u in words for v in words if len(u) + len(v) <= weight_cap},
        weights={n: len(w) for w, n in name.items()},
        truncation=weight_cap,
    )
