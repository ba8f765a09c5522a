"""DG Lie algebras, Chevalley-Eilenberg complexes, and the cobar route."""

import random

import pytest

from symhom.commalg import sort_word
from symhom.freealg import FreeDGAlgebra
from symhom.lie import (CECoalgebra, DGLie, abelian_lie, ce_complex,
                        ce_homology, cobar, direct_sum, heisenberg,
                        hs_env_closed_form, hs_env_via_cobar, nonabelian_2dim,
                        sl2)
from symhom.linalg import CompositionNonZeroError, add_term
from symhom.rationals import QQ, ZERO


def even_letters():
    """[u, u] = v with u odd: both suspended letters are even, so wedge
    words repeat letters (u^u, u^u^v, ...)."""
    return DGLie(["u", "v"], [1, 2], {("u", "u"): {"v": 1}})


def odd_first():
    """[x, u] = u, [x, v] = 2v, [u, u] = v with the odd-degree letters
    listed first, so a contracted pair can open with an even suspended
    letter: the one Lie algebra here whose CE d^2 = 0 needs the sign of
    that case."""
    return DGLie(["v", "u", "x"], [2, 1, 0],
                 {("x", "u"): {"u": 1}, ("x", "v"): {"v": 2},
                  ("u", "u"): {"v": 1}})


def ce_d_squared_vanishes(C, cap):
    """Whether the CE d^2 = 0 on every wedge word of degree <= cap."""
    return not any(C.d_squared(w) for words in
                   C.alg.monomial_bases(cap, cap).values() for w in words)


def flipped_cobar(C):
    """cobar(C, 4, 6) without the desuspension Koszul factor that
    freealg.cobar writes: each quadratic term whose left generator has
    even hdeg is negated.  A negative control, on which d^2 != 0 for a Lie
    algebra with enough bracket (sl2)."""
    omega = cobar(C, 4, 6)
    hdeg = {g.name: g.hdeg for g in omega.generators}
    return FreeDGAlgebra(omega.generators, {
        name: {w: -c if len(w) == 2 and hdeg[w[0]] % 2 == 0 else c
               for w, c in terms.items()}
        for name, terms in omega.differential.items()})


def test_builtins_validate():
    for a in (sl2(), heisenberg(), abelian_lie(3), nonabelian_2dim()):
        a.validate()


def test_jacobi_violation_rejected():
    # [x,y] = z, [y,z] = x, [z,x] = x violates Jacobi
    with pytest.raises(ValueError):
        DGLie(["x", "y", "z"], [0, 0, 0],
              {("x", "y"): {"z": 1}, ("y", "z"): {"x": 1},
               ("z", "x"): {"x": 1}})


@pytest.mark.parametrize("names, hdegs", [
    (["x", "y"], [0, -1]),
    (["x"], [0.5]),
    (["x", "x"], [0, 0]),
])
def test_bad_degree_and_repeated_name_rejected(names, hdegs):
    with pytest.raises(ValueError):
        DGLie(names, hdegs)


def test_inconsistent_bracket_rejected_by_name():
    # [y, x] must be -[x, y] for even x and y
    with pytest.raises(ValueError, match=r"inconsistent bracket \[y,x\]"):
        DGLie(["x", "y"], [0, 0], {("x", "y"): {"y": 1}, ("y", "x"): {"y": 1}})


def test_inhomogeneous_bracket_rejected():
    with pytest.raises(ValueError):
        DGLie(["x", "y"], [0, 1], {("x", "x"): {"y": 1}})


def test_leibniz_checked_on_pairs_with_zero_bracket():
    # [a1, a2] = 0, so d[a1, a2] = 0, but [d a1, a2] = 2 [a0, a2] = 2 a2
    with pytest.raises(ValueError, match="d not a bracket derivation"):
        DGLie(["a0", "a1", "a2"], [0, 1, 2], {("a0", "a2"): {"a2": 1}},
              {"a1": {"a0": 2}})


def brute_force_dg_lie(hdegs, bracket, differential):
    """Whether graded Jacobi holds on every ordered triple, d is a
    derivation of the bracket on every ordered pair (zero brackets
    included) and d^2 = 0 on every letter.  bracket maps an index pair
    (one order) and differential an index to {index: int}; homogeneity
    and the degree of d are taken as given."""
    table = {}
    for (i, j), vec in bracket.items():
        sign = 1 if hdegs[i] * hdegs[j] % 2 else -1
        table[(i, j)] = vec
        table[(j, i)] = {k: sign * c for k, c in vec.items()}

    def combine(*terms):
        out = {}
        for scale, vec in terms:
            for k, c in vec.items():
                out[k] = out.get(k, 0) + scale * c
        return {k: c for k, c in out.items() if c}

    def bkt(u, v):
        return combine(*((a * b, table.get((i, j), {}))
                         for i, a in u.items() for j, b in v.items()))

    def d(u):
        return combine(*((a, differential.get(i, {})) for i, a in u.items()))

    letters = [{i: 1} for i in range(len(hdegs))]
    for i, x in enumerate(letters):
        if d(d(x)):
            return False
        for j, y in enumerate(letters):
            xy = bkt(x, y)
            if d(xy) != combine((1, bkt(d(x), y)),
                                ((-1) ** hdegs[i], bkt(x, d(y)))):
                return False
            for z in letters:
                if bkt(x, bkt(y, z)) != combine(
                        (1, bkt(xy, z)),
                        ((-1) ** (hdegs[i] * hdegs[j]), bkt(y, bkt(x, z)))):
                    return False
    return True


def random_dg_lie_data(rng):
    """Homogeneous brackets and a degree -1 d on at most 4 letters of
    degrees 0-3, with [x,x] only for odd x."""
    n = rng.randint(1, 4)
    hdegs = [rng.randint(0, 3) for _ in range(n)]

    def vector(deg):
        return {k: rng.choice((-1, 1, 2)) for k in range(n)
                if hdegs[k] == deg and rng.random() < 0.75}

    bracket = {(i, j): vector(hdegs[i] + hdegs[j])
               for i in range(n) for j in range(i, n)
               if (i < j or hdegs[i] % 2) and rng.random() < 0.75}
    differential = {i: vector(hdegs[i] - 1) for i in range(n)
                    if rng.random() < 0.75}
    return hdegs, bracket, differential


def test_validate_accepts_exactly_the_brute_force_dg_lie_algebras():
    # validate reads the axioms off CE d^2 on words of length <= 3; this
    # checks it against the axioms written out letter by letter
    rng = random.Random(20)
    accepted = rejected = 0
    for _ in range(1000):
        hdegs, bracket, differential = random_dg_lie_data(rng)
        names = ["a%d" % i for i in range(len(hdegs))]
        try:
            a = DGLie(names, hdegs,
                      {(names[i], names[j]): {names[k]: c
                                              for k, c in vec.items()}
                       for (i, j), vec in bracket.items()},
                      {names[i]: {names[k]: c for k, c in vec.items()}
                       for i, vec in differential.items()})
        except ValueError:
            assert not brute_force_dg_lie(hdegs, bracket, differential)
            rejected += 1
            continue
        assert brute_force_dg_lie(hdegs, bracket, differential)
        assert ce_d_squared_vanishes(CECoalgebra(a), 3 * max(hdegs) + 6)
        accepted += 1
    assert accepted >= 100 and rejected >= 100


def test_non_derivation_differential_rejected():
    # d[x, u] = d(u) = x, but [dx, u] + [x, du] = [x, x] = 0
    with pytest.raises(ValueError):
        DGLie(["x", "u"], [0, 1], {("x", "u"): {"u": 1}}, {"u": {"x": 1}})


def test_bracket_antisymmetry_autofill():
    a = sl2()
    e, f, h = 0, 1, 2
    assert a.bkt(h, e) == {e: QQ(2)}
    assert a.bkt(e, h) == {e: QQ(-2)}
    assert a.bkt(f, e) == {h: QQ(-1)}


def test_ce_wedge_dimensions():
    C = CECoalgebra(sl2())
    # Lambda(k^3) in suspension degrees: binomial dimensions 1, 3, 3, 1
    bases = C.alg.monomial_bases(4, 4)
    assert [len(bases.get((h, h), [])) for h in range(5)] == [1, 3, 3, 1, 0]


def test_ce_d_squared_all_builtins():
    for a in (sl2(), heisenberg(), nonabelian_2dim(), abelian_lie(2),
              even_letters(), direct_sum(sl2(), even_letters()),
              odd_first()):
        assert ce_d_squared_vanishes(CECoalgebra(a), 5)


def test_ce_d_squared_with_internal_differential():
    # sl2 plus a contractible summand exercises mixed Koszul signs
    contractible = DGLie(["u", "v"], [1, 0], differential={"u": {"v": 1}})
    mixed = direct_sum(sl2(), contractible)
    assert ce_d_squared_vanishes(CECoalgebra(mixed), 5)


def test_ce_homology_sl2():
    # Whitehead: H_0 = H_3 = k, H_1 = H_2 = 0
    assert ce_homology(sl2(), 4) == [1, 0, 0, 1, 0]


def test_ce_homology_heisenberg():
    assert ce_homology(heisenberg(), 3) == [1, 2, 2, 1]


def test_ce_homology_abelian():
    assert ce_homology(abelian_lie(3), 3) == [1, 3, 3, 1]


def test_ce_homology_nonabelian_2dim():
    assert ce_homology(nonabelian_2dim(), 2) == [1, 1, 0]


def test_ce_homology_of_a_mixed_differential_is_graded_by_degree():
    # c alone has a pure internal d; beside sl2 or heisenberg d has a
    # bracket and an internal part, so no exterior-length grading
    c = DGLie(["u", "v"], [1, 0], differential={"u": {"v": 1}})
    assert ce_homology(c, 3) == [1, 0, 0, 0]
    assert ce_homology(direct_sum(sl2(), c), 5) == [1, 0, 0, 1, 0, 0]
    assert ce_homology(direct_sum(heisenberg(), c), 4) == [1, 2, 2, 1, 0]


def test_reduced_coproduct_coassociativity():
    for a in (sl2(), nonabelian_2dim(), even_letters(),
              direct_sum(sl2(), even_letters())):
        C = CECoalgebra(a)
        for words in C.alg.monomial_bases(3, 3).values():
            for word in words:
                lhs = {}
                rhs = {}
                for (w1, w2), c in C.reduced_coproduct(word).items():
                    for (u1, u2), c2 in C.reduced_coproduct(w1).items():
                        key = (u1, u2, w2)
                        lhs[key] = lhs.get(key, ZERO) + c * c2
                    for (u1, u2), c2 in C.reduced_coproduct(w2).items():
                        key = (w1, u1, u2)
                        rhs[key] = rhs.get(key, ZERO) + c * c2
                lhs = {k: v for k, v in lhs.items() if v}
                rhs = {k: v for k, v in rhs.items() if v}
                assert lhs == rhs, word


def test_cobar_d_squared():
    for a in (sl2(), heisenberg(), nonabelian_2dim(), abelian_lie(2)):
        C = ce_complex(a)
        omega = cobar(C, 4, 6)
        assert omega.check_d_squared()


def test_cobar_flipped_sign_breaks_d_squared():
    # negative control: dropping the desuspension Koszul factor must not
    # give a differential (detected by a Lie algebra with enough bracket)
    assert not flipped_cobar(ce_complex(sl2())).check_d_squared()


def doubled_first_contraction(diff):
    """CECoalgebra.diff with the contraction of a word's first two letters
    added a second time on words of length >= 4: a sign error that
    validate, which only sees words of length <= 3, cannot see."""
    def broken(self, word):
        out = diff(self, word)
        if len(word) >= 4:
            coeff = 1 if self.parities[word[0]] else -1
            for k, c in self.lie.bkt(word[0], word[1]).items():
                sign, mono = sort_word((k,) + word[2:], self.parities)
                if sign:
                    add_term(out, mono, coeff * c * sign)
        return out
    return broken


@pytest.mark.parametrize("make", [
    lambda: direct_sum(sl2(), heisenberg()),
    lambda: direct_sum(sl2(), nonabelian_2dim()),
], ids=["sl2+heisenberg", "sl2+nab2"])
def test_a_ce_sign_error_on_long_words_fails_every_lie_route(make,
                                                             monkeypatch):
    # no route checks d^2 on the whole CE box first: the d o d = 0 check
    # on each block a table reads is what catches the broken sign
    a = make()
    routes = [lambda: ce_homology(a, 5), lambda: hs_env_via_cobar(a, 3, 5),
              lambda: hs_env_closed_form(a, 3, 5)]
    ce, via_cobar, closed_form = (route() for route in routes)
    assert len(ce) == 6 and via_cobar == closed_form
    monkeypatch.setattr(CECoalgebra, "diff",
                        doubled_first_contraction(CECoalgebra.diff))
    for route in routes:
        with pytest.raises(CompositionNonZeroError):
            route()


def test_sl2_scalars_are_ints():
    # a silent fall-back to Fraction arithmetic fails here
    a = sl2()
    C = ce_complex(a)
    omega = cobar(C, 4, 6)
    vectors = list(a.bracket.values())
    vectors += [C.diff(w) for words in C.alg.monomial_bases(3, 3).values()
                for w in words]
    vectors += list(omega.differential.values())
    assert len(omega.differential) == 4
    assert all(type(c) is int for vec in vectors for c in vec.values())


def test_sl2_cobar_table_entries():
    t = hs_env_via_cobar(sl2(), 4, 6)
    assert t.entries == {(0, 0): 1, (2, 3): 1, (4, 6): 1}


def test_closed_form_needs_homogeneous_length():
    contractible = DGLie(["u", "v"], [1, 0], differential={"u": {"v": 1}})
    mixed = direct_sum(sl2(), contractible)
    with pytest.raises(ValueError):
        hs_env_closed_form(mixed, 3, 4)


def test_direct_sum_structure():
    s = direct_sum(sl2(), abelian_lie(2))
    assert s.dim == 5
    s.validate()


def test_from_json():
    text = """{
      "basis": [{"name": "x"}, {"name": "y"}],
      "bracket": [["x", "y", {"y": "1"}]]
    }"""
    a = DGLie.from_json(text)
    assert a.bkt(0, 1) == {1: QQ(1)}
    a.validate()
    text = """{
      "basis": [{"name": "e", "hdeg": 0}, {"name": "f"}, {"name": "h"}],
      "bracket": [["h", "e", {"e": 2}], ["h", "f", {"f": "-2"}],
                  ["e", "f", {"h": "1"}]],
      "differential": {}
    }"""
    assert DGLie.from_json(text).bracket == sl2().bracket
