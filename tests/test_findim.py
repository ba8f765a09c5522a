"""Structure-constant algebras: validation, products, serialization."""

import itertools
import random

import pytest

from symhom.findim import (FinDimAlgebra, _matrix_units, dual_numbers_algebra,
                           free_tensor_algebra, matrix_algebra,
                           truncated_poly_algebra, upper_triangular_algebra)
from symhom.rationals import QQ


def named_mult(A):
    """A's stored products, keyed by basis names as the constructor takes
    them."""
    return {(A.basis[i], A.basis[j]): {A.basis[k]: c for k, c in vec.items()}
            for (i, j), vec in A.mult.items()}


def test_builtins_validate():
    for A in (dual_numbers_algebra(), matrix_algebra(2), matrix_algebra(3),
              upper_triangular_algebra(), truncated_poly_algebra(5),
              free_tensor_algebra(2, 3)):
        A.validate()


def test_broken_unit_rejected():
    # x*1 = 0 contradicts unitality
    with pytest.raises(ValueError):
        FinDimAlgebra(
            ["1", "x"], {"1": 1},
            {("1", "1"): {"1": 1}, ("1", "x"): {"x": 1}, ("x", "x"): {"1": 1}})


def test_broken_associativity_rejected():
    # e12*e21 = e11 but e21*e12 deliberately wrong
    A = matrix_algebra(2)
    mult = named_mult(A)
    mult[("e21", "e12")] = {"e11": 1}
    with pytest.raises(ValueError):
        FinDimAlgebra(A.basis, {"e11": 1, "e22": 1}, mult)


def test_broken_associativity_at_the_truncation_weight_rejected():
    # k[x] truncated at weight 3, with x * x^2 = 2 x^3 but x^2 * x = x^3:
    # only the triple (x, x, x), of weight exactly 3, sees the fault
    A = truncated_poly_algebra(3)
    mult = named_mult(A)
    mult[("x^1", "x^2")] = {"x^3": 2}
    with pytest.raises(ValueError, match="associativity"):
        FinDimAlgebra(A.basis, {"1": 1}, mult,
                      weights=dict(zip(A.basis, A.weights)), truncation=3)


def test_non_homogeneous_weights_rejected():
    with pytest.raises(ValueError):
        FinDimAlgebra(
            ["1", "x"], {"1": 1},
            {("1", "1"): {"1": 1}, ("1", "x"): {"x": 1}, ("x", "1"): {"x": 1},
             ("x", "x"): {"x": 1}},
            weights={"1": 0, "x": 1})


@pytest.mark.parametrize("weight", [1.5, True, -1])
def test_weight_must_be_an_int_at_least_0(weight):
    A = dual_numbers_algebra()
    with pytest.raises(ValueError, match="integer"):
        FinDimAlgebra(A.basis, {"1": 1}, named_mult(A),
                      weights={"1": 0, "x": weight})


@pytest.mark.parametrize("truncation", [1.5, True, -1])
def test_truncation_must_be_an_int_at_least_0(truncation):
    A = truncated_poly_algebra(2)
    with pytest.raises(ValueError, match="integer"):
        FinDimAlgebra(A.basis, {"1": 1}, named_mult(A),
                      weights=dict(zip(A.basis, A.weights)),
                      truncation=truncation)


def test_dual_numbers_products():
    A = dual_numbers_algebra()
    x = A.index["x"]
    assert A.multiply({x: QQ(1)}, {x: QQ(1)}) == {}
    assert A.multiply_word(()) == {A.index["1"]: QQ(1)}
    assert A.multiply_word((x, x)) == {}


def test_matrix_algebra_products():
    A = matrix_algebra(2)
    e12, e21, e11 = A.index["e12"], A.index["e21"], A.index["e11"]
    assert A.multiply({e12: QQ(1)}, {e21: QQ(1)}) == {e11: QQ(1)}
    assert A.multiply({e12: QQ(1)}, {e12: QQ(1)}) == {}


def test_multiply_word_associativity_random():
    rng = random.Random(31)
    for A in (matrix_algebra(2), upper_triangular_algebra(),
              free_tensor_algebra(2, 4)):
        for _ in range(30):
            word = [rng.randrange(A.dim) for _ in range(3)]
            if A.truncation is not None and \
                    sum(A.weights[i] for i in word) > A.truncation:
                continue
            left = A.multiply(A.mult.get((word[0], word[1]), {}),
                              {word[2]: QQ(1)})
            right = A.multiply({word[0]: QQ(1)},
                               A.mult.get((word[1], word[2]), {}))
            assert left == right


def test_augmented_split():
    A = dual_numbers_algebra()
    u, ideal = A.augmented_split()
    assert A.basis[u] == "1"
    assert [A.basis[i] for i in ideal] == ["x"]
    # no weights, and a second basis element of weight 0
    for B in (matrix_algebra(2),
              FinDimAlgebra(["1", "e"], {"1": 1},
                            {("1", "1"): {"1": 1}, ("1", "e"): {"e": 1},
                             ("e", "1"): {"e": 1}, ("e", "e"): {"e": 1}},
                            weights={"1": 0, "e": 0})):
        with pytest.raises(ValueError, match="not connected graded"):
            B.augmented_split()


@pytest.mark.parametrize("A", [dual_numbers_algebra(),
                               truncated_poly_algebra(4),
                               free_tensor_algebra(2, 3)],
                         ids=["dual-numbers", "poly", "free"])
def test_products_of_ideal_letters_have_no_unit_part(A):
    # the bar faces multiply ideal letters with multiply_word and no
    # guard: the letters have weight >= 1, and products add weight
    u, ideal = A.augmented_split()
    for length in range(1, 4):
        for word in itertools.product(ideal, repeat=length):
            assert u not in A.multiply_word(word)


def test_truncated_poly_structure():
    A = truncated_poly_algebra(4)
    assert A.dim == 5
    i1, i3 = A.index["x^1"], A.index["x^3"]
    assert A.multiply({i1: QQ(1)}, {i3: QQ(1)}) == {A.index["x^4"]: QQ(1)}
    # products beyond the truncation are discarded
    assert A.multiply({i3: QQ(1)}, {i3: QQ(1)}) == {}


def _reference_poly_json(weight_cap, nvars):
    """to_json() of k[x_1..x_nvars] truncated at weight_cap, its basis
    enumerated over all (weight_cap + 1)^nvars exponent vectors and sorted
    by degree, lexicographically within a degree."""
    exponents = sorted(
        (e for e in itertools.product(range(weight_cap + 1), repeat=nvars)
         if sum(e) <= weight_cap), key=sum)
    letters = ["x"] if nvars == 1 else ["x%d" % (v + 1) for v in range(nvars)]
    name = {e: "*".join("%s^%d" % (x, i) for x, i in zip(letters, e) if i)
            or "1" for e in exponents}
    mult = {(na, nb): {name[ab]: 1} for a, na in name.items()
            for b, nb in name.items()
            for ab in [tuple(p + q for p, q in zip(a, b))] if ab in name}
    return FinDimAlgebra(list(name.values()), {"1": 1}, mult,
                         weights={n: sum(e) for e, n in name.items()},
                         truncation=weight_cap).to_json()


def test_truncated_poly_matches_the_full_enumeration():
    for nvars in range(1, 5):
        for weight_cap in range(6):
            assert truncated_poly_algebra(weight_cap, nvars).to_json() == \
                _reference_poly_json(weight_cap, nvars)


def test_truncated_poly_in_many_variables_builds_its_basis_only():
    # C(22, 2) = 231 monomials; the full enumeration would visit 3^20
    A = truncated_poly_algebra(2, 20)
    assert A.dim == 231
    assert sum(w == 2 for w in A.weights) == 210


def test_matrix_unit_names_stay_distinct_past_index_9():
    # unpadded, e_{1,11} and e_{11,1} would both be e111
    A = _matrix_units([(1, 1), (1, 11), (11, 1), (11, 11)])
    assert A.basis == ["e0101", "e0111", "e1101", "e1111"]
    assert A.mult[(A.index["e0111"], A.index["e1101"])] == \
        {A.index["e0101"]: 1}
    assert matrix_algebra(3).basis[:3] == ["e11", "e12", "e13"]


def test_free_tensor_algebra_structure():
    A = free_tensor_algebra(2, 3)
    assert A.dim == 1 + 2 + 4 + 8
    ia, ib = A.index["a"], A.index["b"]
    assert A.multiply({ia: QQ(1)}, {ib: QQ(1)}) == {A.index["ab"]: QQ(1)}
    assert A.weights[A.index["aba"]] == 3


def test_json_round_trip():
    for A in (dual_numbers_algebra(), matrix_algebra(2), matrix_algebra(3),
              upper_triangular_algebra(), truncated_poly_algebra(3),
              truncated_poly_algebra(3, 2), free_tensor_algebra(2, 3)):
        B = FinDimAlgebra.from_json(A.to_json())
        assert B.basis == A.basis
        assert B.unit == A.unit
        assert B.mult == A.mult
        assert B.weights == A.weights
        assert B.truncation == A.truncation
