"""The symmetric category: normal forms, composition, factorization,
the bar action, the free-group functor, and degree-0 coequalizers."""

import itertools
import random

import pytest

from symhom.deltas import (ArityMismatchError, _coequalizer_space,
                           abelianization_quotient, arity, b_sym_action,
                           compose, face_embedding, factorize,
                           format_morphism, hc0_coequalizer, hochschild_face,
                           hs0_coequalizer, identity, morphism, multiply_map,
                           parse_morphism, permutation_morphism, psi_sym,
                           rotation, transposition)
from symhom.findim import (dual_numbers_algebra, free_tensor_algebra,
                           matrix_algebra, upper_triangular_algebra)
from symhom.linalg import SparseMatrix, rank


def all_morphisms(src_arity, tgt_arity):
    """Every morphism with the given arities, each exactly once."""
    for perm in itertools.permutations(range(src_arity)):
        for cuts in itertools.combinations(
                range(src_arity + tgt_arity - 1), tgt_arity - 1):
            # stars-and-bars: cut positions determine the slot sizes
            mon = []
            sizes = []
            last = -1
            for c in cuts:
                sizes.append(c - last - 1)
                last = c
            sizes.append(src_arity + tgt_arity - 1 - last - 1)
            pos = 0
            for s in sizes:
                mon.append(tuple(perm[pos:pos + s]))
                pos += s
            yield morphism(mon)


def random_morphism(rng, src_arity, tgt_arity):
    perm = list(range(src_arity))
    rng.shuffle(perm)
    cuts = sorted(rng.sample(range(src_arity + tgt_arity - 1),
                             tgt_arity - 1))
    sizes = []
    last = -1
    for c in cuts:
        sizes.append(c - last - 1)
        last = c
    sizes.append(src_arity + tgt_arity - 1 - last - 1)
    mon = []
    pos = 0
    for s in sizes:
        mon.append(tuple(perm[pos:pos + s]))
        pos += s
    return morphism(mon)


def test_normal_form_validation():
    assert morphism([[1, 0], [2]]) == ((1, 0), (2,))
    with pytest.raises(ValueError):
        morphism(((0, 0),))  # variable repeated
    with pytest.raises(ValueError):
        morphism(((0,), (2,)))  # variable 1 missing
    with pytest.raises(ValueError):
        morphism(())
    with pytest.raises(ValueError):
        morphism(((), ()))  # source arity 0: Delta-S has no object [-1]


def test_arities():
    f = morphism(((1, 0), (2,)))
    assert arity(f) == 3 and len(f) == 2


def test_enumeration_counts():
    # (source arity)! * C(source + target - 1, target - 1) morphisms
    import math
    for a in range(1, 5):
        for b in range(1, 5):
            count = sum(1 for _ in all_morphisms(a, b))
            assert count == math.factorial(a) * math.comb(a + b - 1, b - 1)
            distinct = set(all_morphisms(a, b))
            assert len(distinct) == count


def test_identity_laws_exhaustive_small():
    for a in range(1, 4):
        for b in range(1, 4):
            for f in all_morphisms(a, b):
                assert compose(identity(len(f) - 1), f) == f
                assert compose(f, identity(arity(f) - 1)) == f


def test_composition_associativity_random():
    rng = random.Random(101)
    for _ in range(300):
        a, b, c, d = (rng.randint(1, 5) for _ in range(4))
        f = random_morphism(rng, a, b)
        g = random_morphism(rng, b, c)
        h = random_morphism(rng, c, d)
        assert compose(h, compose(g, f)) == compose(compose(h, g), f)


def test_compose_arity_mismatch():
    f = morphism(((1, 0), (2,)))  # arity 3 -> 2
    with pytest.raises(ArityMismatchError):
        compose(f, f)


def test_factorization_exhaustive_small():
    for a in range(1, 5):
        for b in range(1, 5):
            for f in all_morphisms(a, b):
                sigma, mono = factorize(f)
                # monotone part: consecutive variables in each slot
                flat = [v for m in mono for v in m]
                assert flat == sorted(flat) == list(range(a))
                assert compose(mono, permutation_morphism(sigma)) == f


def test_factorization_of_random_composites():
    rng = random.Random(55)
    for _ in range(200):
        a, b, c = (rng.randint(1, 6) for _ in range(3))
        f = compose(random_morphism(rng, b, c), random_morphism(rng, a, b))
        sigma, mono = factorize(f)
        assert compose(mono, permutation_morphism(sigma)) == f


def test_generators_have_expected_normal_forms():
    assert format_morphism(transposition(2, 0)) == "(x1)|(x0)|(x2)"
    assert format_morphism(rotation(2)) == "(x2)|(x0)|(x1)"
    assert format_morphism(multiply_map(2, 0)) == "(x0 x1)|(x2)"
    assert format_morphism(face_embedding(2, 1)) == "(x0)|1|(x1)"


def test_parser_round_trip_exhaustive():
    for a in range(1, 4):
        for b in range(1, 4):
            for f in all_morphisms(a, b):
                assert parse_morphism(format_morphism(f)) == f


def test_parser_rejects_garbage():
    with pytest.raises(ValueError):
        parse_morphism("(x0 y1)")
    with pytest.raises(ValueError):
        parse_morphism("x0|x1")


def test_bar_action_functoriality():
    rng = random.Random(17)
    for A in (dual_numbers_algebra(), upper_triangular_algebra(),
              matrix_algebra(2)):
        for _ in range(60):
            a, b, c = (rng.randint(1, 4) for _ in range(3))
            f = random_morphism(rng, a, b)
            g = random_morphism(rng, b, c)
            word = tuple(rng.randrange(A.dim) for _ in range(a))
            v = {word: 1}
            assert b_sym_action(A, compose(g, f), v) == \
                b_sym_action(A, g, b_sym_action(A, f, v))


def test_bar_action_identity_and_units():
    A = dual_numbers_algebra()
    x = A.index["x"]
    v = {(x, x): 1}
    assert b_sym_action(A, identity(1), v) == v
    # merging the two x slots gives x*x = 0
    assert b_sym_action(A, multiply_map(1, 0), v) == {}
    # an empty monomial inserts the unit
    w = b_sym_action(A, face_embedding(2, 1), v)
    assert w == {(x, A.index["1"], x): 1}


def test_bar_action_arity_guard():
    A = dual_numbers_algebra()
    with pytest.raises(ArityMismatchError):
        b_sym_action(A, identity(2), {(0, 1): 1})
    # every word is checked, not only the first
    with pytest.raises(ArityMismatchError):
        b_sym_action(A, identity(1), {(0, 1): 1, (0, 1, 1): 2})


def substitute(images, word):
    """A positive word in the generators X_v with each X_v replaced by
    the word images[v]: the free-group homomorphism given by images,
    applied to word."""
    return tuple(u for v in word for u in images[v])


def test_psi_sym_contravariance():
    # Psi(g o f) = Psi(f) o Psi(g): X_j goes to the j-th image word of g,
    # with each X_v in it replaced by the v-th image word of f
    rng = random.Random(29)
    for _ in range(200):
        a, b, c = (rng.randint(1, 5) for _ in range(3))
        f = random_morphism(rng, a, b)
        g = random_morphism(rng, b, c)
        gf = psi_sym(compose(g, f))
        assert len(gf) == c
        for j, word in enumerate(psi_sym(g)):
            assert gf[j] == substitute(psi_sym(f), word)


def test_psi_sym_images():
    f = parse_morphism("(x1 x0)|(x2)")
    # X0 -> x1 x0, X1 -> x2: generators of <2> go to words in <3>
    assert psi_sym(f) == ((1, 0), (2,))


def test_cyclic_rotation_embedding():
    for n in range(1, 5):
        # n+1 rotations give the identity
        g = identity(n)
        for _ in range(n + 1):
            g = compose(rotation(n), g)
        assert g == identity(n)


def test_hochschild_face_wraparound():
    A = upper_triangular_algebra()
    e12, e22, e11 = A.index["e12"], A.index["e22"], A.index["e11"]
    v = {(e12, e11, e22): 1}
    # d_2 multiplies the last slot into the first: (e22 e12) x e11 = 0
    assert b_sym_action(A, hochschild_face(2, 2), v) == {}
    w = {(e22, e11, e12): 1}
    out = b_sym_action(A, hochschild_face(2, 2), w)
    assert out == {(e12, e11): 1}


def test_abelianization_quotient_dimensions():
    assert abelianization_quotient(dual_numbers_algebra()).dim == 2
    assert abelianization_quotient(matrix_algebra(2)).dim == 0
    assert abelianization_quotient(upper_triangular_algebra()).dim == 2
    # TV on two letters abelianizes onto k[a, b]: dims 1+2+3+4 below wt 4
    assert abelianization_quotient(free_tensor_algebra(2, 3)).dim == 10


def test_hs0_coequalizer_values():
    assert hs0_coequalizer(dual_numbers_algebra(), 3) == 2
    assert hs0_coequalizer(matrix_algebra(2), 3) == 0
    assert hs0_coequalizer(upper_triangular_algebra(), 3) == 2


def test_hc0_coequalizer_values():
    # A/[A, A]: 2 for the dual numbers, 1 for M2, 2 for upper-triangular
    assert hc0_coequalizer(dual_numbers_algebra(), 3) == 2
    assert hc0_coequalizer(matrix_algebra(2), 3) == 1
    assert hc0_coequalizer(upper_triangular_algebra(), 3) == 2


def test_coequalizer_comparison_is_canonical_quotient():
    for A in (dual_numbers_algebra(), upper_triangular_algebra()):
        quo = _coequalizer_space(A, 3, cyclic=False)
        aab = abelianization_quotient(A)
        # the induced map HS_0 -> A_ab: columns indexed by the coequalizer
        # quotient basis, rows by the quotient of A
        comparison = SparseMatrix.from_images(
            quo.basis, aab.basis,
            lambda nw: aab.project(A.multiply_word(nw[1])))
        assert quo.dim == hs0_coequalizer(A, 3)
        assert comparison.rows == aab.dim and comparison.cols == quo.dim
        # the comparison matrix has full row rank: the map is onto
        assert rank(comparison) == aab.dim


def test_arity_cap_guard():
    with pytest.raises(ValueError):
        hs0_coequalizer(dual_numbers_algebra(), 0)
