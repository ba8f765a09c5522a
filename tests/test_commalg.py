"""Graded-commutative DG algebras, abelianization, blockwise homology."""

import random

import pytest

from symhom.commalg import CommDGAlgebra, abelianize, sort_word
from symhom.freealg import (FreeDGAlgebra, GeneratorSpec,
                            dual_numbers_resolution, grading_shifts)
from symhom.lie import ce_complex, cobar, sl2
from symhom.rationals import QQ
from symhom.repfun import rep_n


def test_sort_word_signs():
    # two odd letters swap with a sign; even letters commute freely
    assert sort_word((1, 0), [1, 1]) == (-1, (0, 1))
    assert sort_word((1, 0), [0, 0]) == (1, (0, 1))
    assert sort_word((1, 0), [0, 1]) == (1, (0, 1))
    assert sort_word((0, 0), [1, 1]) == (0, None)
    assert sort_word((2, 1, 0), [1, 1, 1]) == (-1, (0, 1, 2))
    assert sort_word((), [1]) == (1, ())


def test_sort_word_matches_permutation_parity():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(1, 6)
        parities = [1] * n  # all odd: Koszul sign = permutation sign
        word = list(range(n))
        rng.shuffle(word)
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if word[i] > word[j])
        sign, mono = sort_word(tuple(word), parities)
        assert mono == tuple(range(n))
        assert sign == (-1) ** inversions


def _dual_abelianized(i_max=5):
    return abelianize(dual_numbers_resolution(i_max))


def test_graded_commutativity_of_mul():
    # m1 m2 = (-1)^{|m1||m2|} m2 m1 in normal form
    S = _dual_abelianized()
    rng = random.Random(13)
    n = len(S.generators)
    for _ in range(40):
        m1 = tuple(sorted(rng.choice(range(n))
                          for _ in range(rng.randint(0, 3))))
        m2 = tuple(sorted(rng.choice(range(n))
                          for _ in range(rng.randint(0, 3))))
        s1, m1 = sort_word(m1, S.parities)
        s2, m2 = sort_word(m2, S.parities)
        if not s1 or not s2:
            continue
        h1, h2 = S.mono_hdeg(m1), S.mono_hdeg(m2)
        sign = -1 if (h1 * h2) % 2 else 1
        s12, m12 = sort_word(m1 + m2, S.parities)
        s21, m21 = sort_word(m2 + m1, S.parities)
        assert (s12, m12) == (s21 * sign, m21)


def test_odd_generators_square_to_zero():
    S = _dual_abelianized()
    i = S.index["t1"]
    assert sort_word((i, i), S.parities) == (0, None)


def test_abelianize_d_squared():
    S = _dual_abelianized(8)
    assert S.check_d_squared(8, 10)


def test_abelianize_matches_sorted_free_differential():
    R = dual_numbers_resolution(4)
    S = abelianize(R)
    # d(t2) = x t1 - t1 x collapses to zero after sorting
    assert S.differential.get(S.index["t2"], {}) == {}
    # d(t3) = x t2 - t1^2 + t2 x collapses to 2 x t2 - 0
    x, t2 = S.index["x"], S.index["t2"]
    mono = tuple(sorted((x, t2)))
    assert S.differential[S.index["t3"]] == {mono: QQ(2)}


def test_unsorted_name_words_are_sorted_with_koszul_signs():
    # x, y even and a, b odd; d is given on words in any order
    gens = [GeneratorSpec("x", 0, 1), GeneratorSpec("y", 0, 1),
            GeneratorSpec("a", 1, 1), GeneratorSpec("b", 1, 1),
            GeneratorSpec("s", 1, 2), GeneratorSpec("t", 3, 2),
            GeneratorSpec("u", 3, 2)]
    diff = {"s": {("y", "x"): QQ(1), ("x", "y"): 1},  # even letters sum
            "t": {("b", "a"): 1, ("a", "b"): 1},  # odd letters cancel
            "u": {("a", "a"): 1}}  # an odd square vanishes
    S = CommDGAlgebra(gens, diff)
    x, y = S.index["x"], S.index["y"]
    assert S.differential == {S.index["s"]: {(x, y): 2}}
    assert type(S.differential[S.index["s"]][(x, y)]) is int
    assert S.weight_shift == 0
    assert abelianize(FreeDGAlgebra(gens, diff)).differential == \
        S.differential


def test_weight_shift_is_read_after_sorting():
    # the free cobar of sl2 has linear terms of shift -1 and quadratic
    # coproduct terms of shift 0; the quadratic ones cancel in the
    # abelianization (CE(sl2) is cocommutative), leaving one shift
    omega = cobar(ce_complex(sl2()), 4, 5)
    assert grading_shifts(omega.gen_by_name, omega.differential) == {0, -1}
    assert abelianize(omega).weight_shift == -1


def test_grading_errors_name_the_term():
    gens = [GeneratorSpec("x", 0, 1), GeneratorSpec("s", 1, 1)]
    for cls in (FreeDGAlgebra, CommDGAlgebra):
        with pytest.raises(ValueError, match="wrong degree"):
            cls(gens, {"s": {("s",): 1}})
        with pytest.raises(ValueError,
                           match=r"weight-raising term: \('x', 'x'\)"):
            cls(gens, {"s": {("x", "x"): 1}})


def test_inhomogeneous_weight_shift_rejected():
    gens = [GeneratorSpec("x", 0, 1), GeneratorSpec("s", 1, 2),
            GeneratorSpec("t", 1, 3)]
    diff = {"s": {("x",): QQ(1)},  # shift -1
            "t": {("x",): QQ(1)}}  # shift -2
    with pytest.raises(ValueError):
        CommDGAlgebra(gens, diff)


def test_uniform_negative_weight_shift_tracked():
    gens = [GeneratorSpec("x", 0, 1), GeneratorSpec("s", 1, 2)]
    S = CommDGAlgebra(gens, {"s": {("x",): QQ(1)}})
    assert S.weight_shift == -1


def test_monomial_basis_counts():
    S = _dual_abelianized()
    # weight-0 block: only the empty monomial
    assert S.monomial_basis(0, 0) == [()]
    # degree 0 weight w: powers of x only
    for w in range(5):
        assert len(S.monomial_basis(0, w)) == 1
    # degree 1 weight 3: x t1 only (t2 has degree 2)
    assert len(S.monomial_basis(1, 3)) == 1


def test_monomial_basis_brute_force_cross_check():
    S = _dual_abelianized(4)
    n = len(S.generators)
    for h in range(4):
        for w in range(6):
            seen = set()

            def rec(start, mono):
                weight = sum(S.generators[i].weight for i in mono)
                if S.mono_hdeg(mono) == h and weight == w:
                    seen.add(mono)
                if weight >= w:
                    return
                for i in range(start, n):
                    if S.parities[i] and mono and mono[-1] == i:
                        continue
                    if mono and i < mono[-1]:
                        continue
                    rec(i, mono + (i,))

            rec(0, ())
            assert sorted(seen) == S.monomial_basis(h, w), (h, w)


def test_homology_table_known_low_degrees():
    S = _dual_abelianized(6)
    t = S.homology_table(3, 6)
    assert t.get(0, 0) == 1 and t.get(0, 1) == 1
    assert t.degree_total(1) == 0
    assert t.get(2, 3) == 1
    assert t.get(3, 5) == 1


def euler_prediction(R, n, weight_cap):
    """The Euler characteristic per weight w <= weight_cap of rep_n(R), the
    free graded-commutative algebra on n^2 copies of R's generators, read
    off the generators alone: [q^w] of the product over them of
    1 / (1 - q^weight) for an even one and 1 - q^weight for an odd one,
    that is of prod_w (1 - q^w)^(-n^2 g_w) with g_w the hdeg-signed count
    of generators of weight w."""
    series = [1] + [0] * weight_cap
    for g in R.generators:
        for _ in range(n * n):
            if g.hdeg % 2:
                for k in range(weight_cap, g.weight - 1, -1):
                    series[k] -= series[k - g.weight]
            else:
                for k in range(g.weight, weight_cap + 1):
                    series[k] += series[k - g.weight]
    return series


def table_euler(table):
    """sum_h (-1)^h dim H_(h, w) for each weight w of a BettiTable."""
    return [sum((-1) ** h * table.get(h, w)
                for h in range(table.deg_cap + 1))
            for w in range(table.weight_cap + 1)]


def test_euler_check_per_weight():
    # chi telescopes to the chi of the bases, so this checks the basis
    # enumeration against a count that needs no basis; every column
    # w <= 6 lies in degrees < w, inside the table
    R = dual_numbers_resolution(7)
    assert table_euler(abelianize(R).homology_table(6, 6)) == \
        euler_prediction(R, 1, 6) == [1, 1, 0, 1, 0, 0, 1]


def test_homology_table_keeps_no_cache_between_calls():
    S = _dual_abelianized(5)
    calls = []
    real = S.monomial_bases

    def counting(hdeg_cap, weight_cap):
        calls.append((hdeg_cap, weight_cap))
        return real(hdeg_cap, weight_cap)

    S.monomial_bases = counting
    first = S.homology_table(4, 6)
    # one enumeration of the box the call needs: degree 5, weight 6
    assert calls == [(5, 6)]
    # a second call enumerates again and gives the same table
    assert S.homology_table(4, 6) == first
    assert calls == [(5, 6), (5, 6)]


def _per_block_search(S, hdeg, weight):
    """The per-block depth-first search monomial_bases replaced: every
    partial monomial below (hdeg, weight), kept when it lands on it."""
    out = []
    stack = [(0, hdeg, weight, ())]
    while stack:
        start, h, w, acc = stack.pop()
        if h == 0 and w == 0:
            out.append(acc)
            continue
        for i in range(start, len(S.generators)):
            g = S.generators[i]
            if g.weight <= w and g.hdeg <= h:
                stack.append((i + 1 if S.parities[i] else i,
                              h - g.hdeg, w - g.weight, acc + (i,)))
    return sorted(out)


@pytest.mark.parametrize("make", [
    lambda: _dual_abelianized(6),
    lambda: rep_n(dual_numbers_resolution(4), 2),
    lambda: ce_complex(sl2()).alg,  # odd generators
    lambda: abelianize(cobar(ce_complex(sl2()), 4, 5)),  # shift -1
], ids=["dual", "rep2", "ce-sl2", "cobar-sl2"])
def test_monomial_bases_match_the_per_block_search(make):
    S = make()
    hcap, wcap = 5, 6
    bases = S.monomial_bases(hcap, wcap)
    assert all(bases.values())  # only nonempty blocks are filed
    assert all(0 <= h <= hcap and 0 <= w <= wcap for h, w in bases)
    for h in range(-1, hcap + 1):
        for w in range(-1, wcap + 1):
            expect = _per_block_search(S, h, w)
            assert bases.get((h, w), []) == expect, (h, w)
            assert S.monomial_basis(h, w) == expect, (h, w)
    assert S.monomial_bases(-1, wcap) == S.monomial_bases(hcap, -1) == {}
