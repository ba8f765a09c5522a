"""The symmetric category: normal forms, composition, factorization,
the bar action, the free-group functor, and degree-0 coequalizers."""

import itertools
import math
import random

import pytest

from symhom import deltas
from symhom.deltas import (ArityMismatchError, _coequalizer_space,
                           _relation_counts, abelianization_quotient, arity,
                           b_sym_action, compose, factorize, format_morphism,
                           hc0_coequalizer, hs0_coequalizer, monotone,
                           morphism, multiply_map, parse_morphism, psi_sym)
from symhom.findim import (FinDimAlgebra, dual_numbers_algebra,
                           free_tensor_algebra, matrix_algebra,
                           upper_triangular_algebra)
from symhom.linalg import QuotientSpace, SparseMatrix, add_term, rank


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
                assert compose(loop_identity(len(f) - 1), f) == f
                assert compose(f, loop_identity(arity(f) - 1)) == f


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
                assert compose(mono, loop_permutation(sigma)) == f


def test_factorization_of_random_composites():
    rng = random.Random(55)
    for _ in range(200):
        a, b, c = (rng.randint(1, 6) for _ in range(3))
        f = compose(random_morphism(rng, b, c), random_morphism(rng, a, b))
        sigma, mono = factorize(f)
        assert compose(mono, loop_permutation(sigma)) == f


def test_generators_have_expected_normal_forms():
    assert format_morphism(loop_transposition(2, 0)) == "(x1)|(x0)|(x2)"
    assert format_morphism(loop_rotation(2)) == "(x2)|(x0)|(x1)"
    assert format_morphism(multiply_map(2, 0)) == "(x0 x1)|(x2)"
    assert format_morphism(monotone([1, 0, 1])) == "(x0)|1|(x1)"


# reference builders laid out slot by slot, independent of monotone; the
# automorphisms are built only here


def loop_identity(n):
    return tuple((i,) for i in range(n + 1))


def loop_permutation(sigma):
    """The automorphism sending variable j to slot sigma[j]."""
    mon = [None] * len(sigma)
    for j, s in enumerate(sigma):
        mon[s] = (j,)
    return tuple(mon)


def loop_transposition(n, i):
    mon = [(j,) for j in range(n + 1)]
    mon[i], mon[i + 1] = mon[i + 1], mon[i]
    return tuple(mon)


def loop_rotation(n):
    return ((n,),) + tuple((j,) for j in range(n))


def loop_face_embedding(n, i):
    mon = []
    for l in range(n + 1):
        if l < i:
            mon.append((l,))
        elif l == i:
            mon.append(())
        else:
            mon.append((l - 1,))
    return tuple(mon)


def loop_multiply_map(n, i):
    mon = []
    for l in range(n):
        if l < i:
            mon.append((l,))
        elif l == i:
            mon.append((i, i + 1))
        else:
            mon.append((l + 1,))
    return tuple(mon)


def test_builders_match_the_hand_written_loops():
    for n in range(7):
        for i in range(n):
            assert multiply_map(n, i) == loop_multiply_map(n, i)
        # the rotation and the transpositions agree with the permutations
        assert loop_rotation(n) == \
            loop_permutation(list(range(1, n + 1)) + [0])
        for i in range(n):
            sigma = list(range(n + 1))
            sigma[i], sigma[i + 1] = i + 1, i
            assert loop_transposition(n, i) == loop_permutation(sigma)


@pytest.mark.parametrize("builder, last", [
    (multiply_map, lambda n: n - 1)], ids=["multiply_map"])
def test_builder_index_range(builder, last):
    for n in range(1, 5):
        builder(n, last(n))
        for i in (-1, last(n) + 1):
            with pytest.raises(IndexError):
                builder(n, i)


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
    assert b_sym_action(A, loop_identity(1), v) == v
    # merging the two x slots gives x*x = 0
    assert b_sym_action(A, multiply_map(1, 0), v) == {}
    # an empty monomial inserts the unit
    w = b_sym_action(A, loop_face_embedding(2, 1), v)
    assert w == {(x, A.index["1"], x): 1}


def test_bar_action_arity_guard():
    A = dual_numbers_algebra()
    with pytest.raises(ArityMismatchError):
        b_sym_action(A, loop_identity(2), {(0, 1): 1})
    # every word is checked, not only the first
    with pytest.raises(ArityMismatchError):
        b_sym_action(A, loop_identity(1), {(0, 1): 1, (0, 1, 1): 2})


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
        g = loop_identity(n)
        for _ in range(n + 1):
            g = compose(loop_rotation(n), g)
        assert g == loop_identity(n)


def test_hochschild_face_wraparound():
    # the last Hochschild face d_2 multiplies the last slot into the
    # first: the first merge after the rotation
    face = compose(multiply_map(2, 0), loop_rotation(2))
    assert face == ((2, 0), (1,))
    A = upper_triangular_algebra()
    e12, e22, e11 = A.index["e12"], A.index["e22"], A.index["e11"]
    v = {(e12, e11, e22): 1}
    # (e22 e12) x e11 = 0
    assert b_sym_action(A, face, v) == {}
    w = {(e22, e11, e12): 1}
    out = b_sym_action(A, face, w)
    assert out == {(e12, e11): 1}


def test_abelianization_quotient_dimensions():
    assert abelianization_quotient(dual_numbers_algebra()).dim == 2
    assert abelianization_quotient(matrix_algebra(2)).dim == 0
    assert abelianization_quotient(upper_triangular_algebra()).dim == 2
    # TV on two letters abelianizes onto k[a, b]: dims 1+2+3+4 below wt 4
    assert abelianization_quotient(free_tensor_algebra(2, 3)).dim == 10


def test_hs0_coequalizer_values():
    for cap in range(3, 9):
        assert hs0_coequalizer(dual_numbers_algebra(), cap) == 2
        assert hs0_coequalizer(matrix_algebra(2), cap) == 0
        assert hs0_coequalizer(upper_triangular_algebra(), cap) == 2


def test_hc0_coequalizer_values():
    # A/[A, A]: 2 for the dual numbers, 1 for M2, 2 for upper-triangular
    for cap in range(3, 7):
        assert hc0_coequalizer(dual_numbers_algebra(), cap) == 2
        assert hc0_coequalizer(matrix_algebra(2), cap) == 1
        assert hc0_coequalizer(upper_triangular_algebra(), cap) == 2


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
    for coequalizer in (hs0_coequalizer, hc0_coequalizer):
        with pytest.raises(ValueError):
            coequalizer(dual_numbers_algebra(), 0)


# degree-0 coequalizers against references --------------------------------

def group_algebra(elements, product):
    """The ungraded group algebra k[G] on the named elements, the first
    one the identity."""
    mult = {(g, h): {product(g, h): 1} for g in elements for h in elements}
    return FinDimAlgebra(elements, {elements[0]: 1}, mult)


def cyclic_group_algebra(order):
    return group_algebra([str(k) for k in range(order)],
                         lambda g, h: str((int(g) + int(h)) % order))


def s3_group_algebra():
    # a permutation of {0, 1, 2} is named by its images, "012" the identity
    perms = ["".join(map(str, p)) for p in itertools.permutations(range(3))]
    return group_algebra(perms, lambda g, h: "".join(g[int(i)] for i in h))


def weak_compositions(total, parts):
    return [c for c in itertools.product(range(total + 1), repeat=parts)
            if sum(c) == total]


def every_morphism(arity_cap, cyclic):
    """Every morphism of the truncated category as pairs (n, f), f out of
    [n]: monotone(sizes) o sigma, sigma a permutation, or a rotation for
    the cyclic category."""
    for n in range(arity_cap):
        if cyclic:
            sigmas = [[(j + k) % (n + 1) for j in range(n + 1)]
                      for k in range(n + 1)]
        else:
            sigmas = itertools.permutations(range(n + 1))
        for sigma in sigmas:
            for m in range(arity_cap):
                for sizes in weak_compositions(n + 1, m + 1):
                    yield n, compose(monotone(sizes),
                                     loop_permutation(sigma))


def earlier_generators(arity_cap, cyclic):
    """The larger generating families hs0 and hc0 once used: every
    adjacent transposition, merge and unit insertion for the symmetric
    category; the rotation, every Hochschild face and the degeneracies
    for the cyclic one."""
    for n in range(arity_cap):
        if cyclic:
            if n >= 1:
                yield n, loop_rotation(n)
                for i in range(n):
                    yield n, multiply_map(n, i)
                yield n, compose(multiply_map(n, 0), loop_rotation(n))
            if n + 1 < arity_cap:
                for i in range(n + 1):
                    yield n, loop_face_embedding(n + 1, i + 1)
        else:
            for i in range(n):
                yield n, loop_transposition(n, i)
                yield n, multiply_map(n, i)
            if n + 1 < arity_cap:
                for i in range(n + 2):
                    yield n, loop_face_embedding(n + 1, i)


def coequalizer_dim(A, arity_cap, morphisms):
    """The dimension of the words of length <= arity_cap modulo
    x - f_*(x), for every word x out of [n] and every (n, f) given."""
    labels = [(n, w) for n in range(arity_cap)
              for w in itertools.product(range(A.dim), repeat=n + 1)]
    relations = []
    for n, f in morphisms:
        for w in itertools.product(range(A.dim), repeat=n + 1):
            rel = {(n, w): 1}
            for iw, c in b_sym_action(A, f, {w: 1}).items():
                add_term(rel, (len(f) - 1, iw), -c)
            relations.append(rel)
    return QuotientSpace(labels, relations).dim


SMALL_ALGEBRAS = {
    "dual-numbers": dual_numbers_algebra, "m2": matrix_algebra,
    "ut2": upper_triangular_algebra, "k[C2]": lambda: cyclic_group_algebra(2),
    "k[C3]": lambda: cyclic_group_algebra(3)}


@pytest.mark.parametrize("name", SMALL_ALGEBRAS)
def test_coequalizers_equal_those_over_every_morphism(name):
    A = SMALL_ALGEBRAS[name]()
    for cap in (1, 2, 3):
        assert hs0_coequalizer(A, cap) == \
            coequalizer_dim(A, cap, every_morphism(cap, cyclic=False))
        assert hc0_coequalizer(A, cap) == \
            coequalizer_dim(A, cap, every_morphism(cap, cyclic=True))


@pytest.mark.parametrize("name", SMALL_ALGEBRAS)
def test_coequalizers_equal_those_of_the_earlier_generators(name):
    A = SMALL_ALGEBRAS[name]()
    assert hs0_coequalizer(A, 4) == \
        coequalizer_dim(A, 4, earlier_generators(4, cyclic=False))
    assert hc0_coequalizer(A, 4) == \
        coequalizer_dim(A, 4, earlier_generators(4, cyclic=True))


@pytest.mark.parametrize("A, abelianization, classes", [
    (cyclic_group_algebra(2), 2, 2), (cyclic_group_algebra(3), 3, 3),
    (s3_group_algebra(), 2, 3)], ids=["C2", "C3", "S3"])
def test_group_algebras_in_degree_0(A, abelianization, classes):
    # HS_0(k[G]) = k[G_ab] and HC_0(k[G]) = k[conjugacy classes of G]
    for cap in (3, 4):
        assert hs0_coequalizer(A, cap) == abelianization
        assert hc0_coequalizer(A, cap) == classes


def orbit_count(d, length, cyclic):
    """The number of orbits of words of the given length in d letters:
    multisets under the symmetric group; necklaces under the rotations,
    by Burnside, the rotation by k fixing d^gcd(k, length) words."""
    if not cyclic:
        return math.comb(d + length - 1, length)
    return sum(d ** math.gcd(k, length) for k in range(length)) // length


def orbit_of(word, cyclic):
    """The orbit itself, as a set of words."""
    if cyclic:
        return frozenset(word[k:] + word[:k] for k in range(len(word)))
    return frozenset(itertools.permutations(word))


@pytest.mark.parametrize("cyclic", [False, True], ids=["S", "C"])
@pytest.mark.parametrize("name", ["dual-numbers", "m2", "ut2"])
def test_one_label_per_orbit_and_the_budget_counts_the_relations(
        name, cyclic, monkeypatch):
    A = SMALL_ALGEBRAS[name]()
    monkeypatch.setattr(deltas, "QuotientSpace",
                        lambda labels, relations: (labels, relations))
    for cap in range(1, 6):
        labels, relations = _coequalizer_space(A, cap, cyclic)
        for n in range(cap):
            words = [w for m, w in labels if m == n]
            orbits = {orbit_of(w, cyclic) for w in words}
            assert len(orbits) == len(words) == \
                orbit_count(A.dim, n + 1, cyclic)
        assert len(relations) == sum(_relation_counts(A.dim, cap, cyclic))
        # every relation is written on the labels
        assert set().union(*relations) <= set(labels)
