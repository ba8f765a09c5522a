"""The simplicial pipeline: levels, faces, normalization, homology."""

import itertools
import random

import pytest

from symhom.bar import (CapOverflowError, _decorate, bar_level_basis,
                        face_map, hr_via_bar)
from symhom.deltas import abelianization_quotient
from symhom.findim import (dual_numbers_algebra, free_tensor_algebra,
                           truncated_poly_algebra)
from symhom.rationals import QQ


def test_level_zero_basis_is_symmetric_algebra_on_ideal():
    A = dual_numbers_algebra()
    lvl = bar_level_basis(A, 0, 3)
    # monomials in the single ideal element x: 1, x, x^2, x^3
    assert len(lvl) == 4
    assert lvl[0] == ()


def test_level_one_degenerate_monomials_dropped():
    A = dual_numbers_algebra()
    lvl = bar_level_basis(A, 1, 3)
    x = A.augmented_split()[1][0]
    # every factor a singleton bracket => degenerate, so ((x,),) is out
    assert ((x,),) not in lvl
    # a length-2 bracket is not degenerate
    assert ((x, x),) in lvl
    # mixed monomials are degenerate only when all factors are singletons
    assert ((x,), (x, x)) in lvl


def test_empty_monomial_degenerate_in_positive_levels():
    A = dual_numbers_algebra()
    assert () in bar_level_basis(A, 0, 2)
    assert () not in bar_level_basis(A, 1, 2)
    assert () not in bar_level_basis(A, 2, 2)


def test_budget_overflow_raises():
    A = free_tensor_algebra(2, 6)
    # the message names the block whose basis crossed the budget
    with pytest.raises(CapOverflowError,
                       match=r"budget 100 at \(level, weight\) = \(3, 5\)"):
        bar_level_basis(A, 3, 6, budget=100)
    assert len(bar_level_basis(A, 3, 4, budget=100)) <= 100
    with pytest.raises(CapOverflowError,
                       match=r"budget 1000 at \(level, weight\) = \(1, 5\)"):
        hr_via_bar(A, 3, 6, budget=1000)


def test_weight_cap_guard():
    A = truncated_poly_algebra(3)
    with pytest.raises(ValueError):
        hr_via_bar(A, 2, 5)  # truncated below the requested weight cap


def test_simplicial_identities():
    rng = random.Random(71)
    for A in (dual_numbers_algebra(), free_tensor_algebra(2, 4)):
        for n in (2, 3):
            basis = bar_level_basis(A, n, 4)
            if not basis:
                continue
            for _ in range(20):
                el = {rng.choice(basis): QQ(rng.randint(1, 3))}
                for i in range(n):
                    for j in range(i + 1, n + 1):
                        lhs = face_map(A, n - 1, i, face_map(A, n, j, el))
                        rhs = face_map(A, n - 1, j - 1,
                                       face_map(A, n, i, el))
                        assert lhs == rhs, (n, i, j)


def test_degree_zero_homology_is_abelianization():
    for A in (dual_numbers_algebra(), free_tensor_algebra(2, 4),
              truncated_poly_algebra(4)):
        cap = A.truncation if A.truncation is not None else 4
        table = hr_via_bar(A, 0, cap)
        expected = abelianization_quotient(A)
        # compare total dimensions (the quotient includes the unit's span)
        assert table.degree_total(0) == expected.dim


def test_poly_algebra_has_no_higher_homology():
    A = truncated_poly_algebra(4)
    table = hr_via_bar(A, 3, 4)
    assert table.degree_totals() == [5, 0, 0, 0]


def _brute_force_level(A, n, weight_cap):
    """Level n by definition: every multiset of depth-n trees of total
    weight <= weight_cap, minus those in which some layer is singleton
    brackets in every factor; ordered by weight, then monomial."""
    ideal = A.augmented_split()[1]
    trees = [(A.weights[i], i) for i in ideal if A.weights[i] <= weight_cap]
    for _ in range(n):
        trees = [(sum(w for w, _ in kids), tuple(t for _, t in kids))
                 for k in range(1, weight_cap + 1)
                 for kids in itertools.product(trees, repeat=k)
                 if sum(w for w, _ in kids) <= weight_cap]
    trees.sort()

    def layer(tree, j):
        nodes = [tree]
        for _ in range(j - 1):
            nodes = [child for node in nodes for child in node]
        return nodes

    out = []
    for k in range(weight_cap + 1):
        for combo in itertools.combinations_with_replacement(trees, k):
            weight = sum(w for w, _ in combo)
            mono = tuple(sorted(t for _, t in combo))
            degenerate = n > 0 and (not mono or any(
                all(len(b) == 1 for t in mono for b in layer(t, j))
                for j in range(1, n + 1)))
            if weight <= weight_cap and not degenerate:
                out.append((weight, mono))
    return [mono for _, mono in sorted(out)]


@pytest.mark.parametrize("A, levels, weight_cap", [
    (dual_numbers_algebra(), 4, 4),
    (free_tensor_algebra(2, 3), 3, 3),
], ids=["dual-numbers", "free:2"])
def test_level_basis_matches_brute_force(A, levels, weight_cap):
    for n in range(levels):
        assert bar_level_basis(A, n, weight_cap) == \
            _brute_force_level(A, n, weight_cap), n


def test_matrix_variant_on_poly_algebra():
    A = truncated_poly_algebra(3)
    table = hr_via_bar(A, 2, 3, n=2)
    assert table.degree_totals() == [35, 0, 0]


def _ordered_decorations(monos, n):
    """The decorated basis by its old definition: every ordered
    decoration of each factor by an index pair, sorted and deduplicated."""
    pairs = list(itertools.product(range(n), repeat=2))
    return sorted({tuple(sorted((t,) + ab for t, ab in zip(mono, choice)))
                   for mono in monos
                   for choice in itertools.product(pairs, repeat=len(mono))})


@pytest.mark.parametrize("A, levels, weight_cap", [
    (dual_numbers_algebra(), 3, 4),
    (free_tensor_algebra(2, 3), 2, 3),
    (truncated_poly_algebra(3, 2), 2, 3),
], ids=["dual-numbers", "free:2", "poly:2"])
def test_decorated_basis_is_the_set_of_ordered_decorations(A, levels,
                                                            weight_cap):
    for n in (2, 3):
        for lev in range(levels):
            monos = bar_level_basis(A, lev, weight_cap)
            assert _decorate(monos, n) == _ordered_decorations(monos, n), \
                (n, lev)
