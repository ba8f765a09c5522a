"""Free associative DG algebras and the standard resolutions."""

import random

import pytest

from symhom.freealg import (FreeDGAlgebra, GeneratorSpec,
                            dual_numbers_resolution,
                            free_resolution_of_tensor_algebra)
from symhom.linalg import SparseMatrix, add_term, homology_dim
from symhom.rationals import QQ


def _mul(p, q):
    """Product of two noncommutative polynomials (dict word -> scalar)."""
    out = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            add_term(out, w1 + w2, c1 * c2)
    return out


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("bad", -1, 1)
    with pytest.raises(ValueError):
        GeneratorSpec("bad", 0, 0)
    # a grading is an int, and a bool is none, as in DGLie
    for hdeg, weight in ((0.5, 1), (True, 1), (0, 2.0), (0, True)):
        with pytest.raises(ValueError, match="integer"):
            GeneratorSpec("bad", hdeg, weight)


def test_duplicate_generator_names_rejected():
    with pytest.raises(ValueError):
        FreeDGAlgebra([GeneratorSpec("x", 0, 1), GeneratorSpec("x", 1, 2)])


def test_wrong_degree_differential_rejected():
    gens = [GeneratorSpec("x", 0, 1), GeneratorSpec("t", 2, 2)]
    with pytest.raises(ValueError):
        FreeDGAlgebra(gens, {"t": {("x",): 1}})


def test_weight_raising_differential_rejected():
    gens = [GeneratorSpec("x", 0, 2), GeneratorSpec("t", 1, 1)]
    with pytest.raises(ValueError):
        FreeDGAlgebra(gens, {"t": {("x",): 1}})


def test_weight_dropping_differential_allowed():
    # the differential may lose weight (needed by the cobar construction)
    gens = [GeneratorSpec("x", 0, 1), GeneratorSpec("t", 1, 3)]
    R = FreeDGAlgebra(gens, {"t": {("x",): 1}})
    assert R.d_gen("t") == {("x",): 1}


def test_differential_coefficients_are_rationals_without_zeros():
    gens = [GeneratorSpec("x", 0, 1), GeneratorSpec("s", 1, 2),
            GeneratorSpec("t", 1, 2), GeneratorSpec("u", 1, 2)]
    R = FreeDGAlgebra(gens, {"s": {("x", "x"): QQ(4, 2), ("x",): 0},
                             "t": {("x", "x"): 0},
                             "u": {("x", "x"): "1/2"}})
    assert R.differential == {"s": {("x", "x"): 2},
                              "u": {("x", "x"): QQ(1, 2)}}
    assert type(R.d_gen("s")[("x", "x")]) is int
    assert type(R.d_gen("u")[("x", "x")]) is QQ
    assert R.d_gen("t") == {}


def test_derivation_leibniz_rule():
    R = dual_numbers_resolution(4)
    rng = random.Random(7)
    names = [g.name for g in R.generators]

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            word = tuple(rng.choice(names) for _ in range(rng.randint(0, 3)))
            terms[word] = rng.randint(-2, 2)
        return {w: c for w, c in terms.items() if c}

    for _ in range(40):
        # check on homogeneous a: d(ab) = d(a) b + (-1)^{|a|} a d(b)
        word = tuple(rng.choice(names) for _ in range(rng.randint(0, 3)))
        a = {word: 1}
        b = rand_poly()
        sign = -1 if sum(R.gen_by_name[g].hdeg for g in word) % 2 else 1
        rhs = _mul(R.d(a), b)
        for w, c in _mul(a, R.d(b)).items():
            add_term(rhs, w, sign * c)
        assert R.d(_mul(a, b)) == rhs


def test_dual_numbers_resolution_d_squared():
    R = dual_numbers_resolution(9)
    assert R.check_d_squared(9, 12)


def test_dual_numbers_resolution_low_differentials():
    R = dual_numbers_resolution(3)
    assert R.d_gen("t1") == {("x", "x"): 1}
    assert R.d_gen("t2") == {("x", "t1"): 1, ("t1", "x"): -1}
    assert R.d_gen("t3") == \
        {("x", "t2"): 1, ("t1", "t1"): -1, ("t2", "x"): 1}


def _word_basis(R, hdeg, weight):
    """All words of the given bidegree in the free algebra."""
    out = []

    def rec(h, w, acc):
        if h == 0 and w == 0:
            out.append(tuple(acc))
            return
        for g in R.generators:
            if g.hdeg <= h and g.weight <= w:
                acc.append(g.name)
                rec(h - g.hdeg, w - g.weight, acc)
                acc.pop()

    rec(hdeg, weight, [])
    return sorted(out)


def _word_block_homology(R, hdeg, weight):
    """Homology of the full word complex of R at one bidegree."""
    def block(h):
        src = _word_basis(R, h, weight)
        tgt = _word_basis(R, h - 1, weight)
        ti = {w: r for r, w in enumerate(tgt)}
        entries = {}
        for c, word in enumerate(src):
            for w2, v in R.d({word: 1}).items():
                entries[(ti[w2], c)] = v
        return SparseMatrix(len(tgt), len(src), entries)

    mid = len(_word_basis(R, hdeg, weight))
    d_out = block(hdeg) if hdeg > 0 else SparseMatrix(0, mid)
    return homology_dim(d_out, block(hdeg + 1))


def test_resolution_is_acyclic_as_noncommutative_complex():
    # H_0 must be the two-dimensional target algebra, H_{>0} must vanish:
    # this is the property making the two homology pipelines comparable.
    R = dual_numbers_resolution(5)
    h0 = {w: _word_block_homology(R, 0, w) for w in range(7)}
    assert h0 == {0: 1, 1: 1, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0}
    for h in range(1, 4):
        for w in range(7):
            assert _word_block_homology(R, h, w) == 0, (h, w)


def test_free_resolution_of_tensor_algebra():
    R = free_resolution_of_tensor_algebra(3)
    assert [g.name for g in R.generators] == ["x1", "x2", "x3"]
    assert not R.differential


def test_json_round_trip():
    R = dual_numbers_resolution(4)
    S = FreeDGAlgebra.from_json(R.to_json())
    assert [g.name for g in S.generators] == [g.name for g in R.generators]
    assert S.differential == R.differential
