"""The simplicial pipeline: levels, faces, normalization, homology."""

import collections
import itertools
import random

import pytest

from symhom import bar
from symhom.bar import (CapOverflowError, _decorate, bar_level_basis,
                        face_map, hr_via_bar)
from symhom.deltas import abelianization_quotient
from symhom.findim import (dual_numbers_algebra, free_tensor_algebra,
                           truncated_poly_algebra)
from symhom.linalg import SparseMatrix, add_term
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


def test_negative_level_is_a_value_error():
    with pytest.raises(ValueError, match="level must be >= 0"):
        bar_level_basis(dual_numbers_algebra(), -1, 3)


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
    assert [table.degree_total(h)
            for h in range(table.deg_cap + 1)] == [5, 0, 0, 0]


def _words(items, weight_cap):
    """Every nonempty word in (weight, x) items, weights >= 1, of total
    weight <= weight_cap, as (weight, tuple of x)."""
    out = []
    words = [(0, ())]
    while words:
        words = [(w + v, word + (x,)) for w, word in words
                 for v, x in items if w + v <= weight_cap]
        out += words
    return out


def _multisets(items, weight_cap):
    """Every multiset of (weight, x) items of total weight <= weight_cap,
    the empty one included, as (weight, tuple of x in item order)."""
    out = []
    level = [(0, (), 0)]
    while level:
        out += [(w, xs) for w, xs, _ in level]
        level = [(w + items[j][0], xs + (items[j][1],), j)
                 for w, xs, start in level
                 for j in range(start, len(items))
                 if w + items[j][0] <= weight_cap]
    return out


def _brute_force_level(A, n, weight_cap):
    """Level n by definition: every multiset of depth-n trees of total
    weight <= weight_cap, minus those in which some layer is singleton
    brackets in every factor; ordered by weight, then monomial."""
    ideal = A.augmented_split()[1]
    trees = [(A.weights[i], i) for i in ideal if A.weights[i] <= weight_cap]
    for _ in range(n):
        trees = _words(trees, weight_cap)
    trees.sort()

    def layer(tree, j):
        nodes = [tree]
        for _ in range(j - 1):
            nodes = [child for node in nodes for child in node]
        return nodes

    out = []
    for weight, combo in _multisets(trees, weight_cap):
        mono = tuple(sorted(combo))
        degenerate = n > 0 and (not mono or any(
            all(len(b) == 1 for t in mono for b in layer(t, j))
            for j in range(1, n + 1)))
        if not degenerate:
            out.append((weight, mono))
    return [mono for _, mono in sorted(out)]


# levels past the weight: a nondegenerate level-n monomial has weight
# >= n + 1, so the top levels are empty
@pytest.mark.parametrize("A, levels, weight_cap", [
    (dual_numbers_algebra(), 6, 4),
    (free_tensor_algebra(2, 3), 5, 3),
], ids=["dual-numbers", "free:2"])
def test_level_basis_matches_brute_force(A, levels, weight_cap):
    for n in range(levels):
        assert bar_level_basis(A, n, weight_cap) == \
            _brute_force_level(A, n, weight_cap), n


def test_levels_past_the_weight_build_no_trees(monkeypatch):
    depths = set()
    real = bar._trees

    def recording(A, ideal, depth, weight, cache):
        depths.add(depth)
        return real(A, ideal, depth, weight, cache)

    monkeypatch.setattr(bar, "_trees", recording)
    hr_via_bar(dual_numbers_algebra(), 5, 5)
    # levels 5 and 6 need weight >= 6 and 7
    assert depths == set(range(5))


def test_matrix_variant_on_poly_algebra():
    A = truncated_poly_algebra(3)
    table = hr_via_bar(A, 2, 3, n=2)
    assert [table.degree_total(h)
            for h in range(table.deg_cap + 1)] == [35, 0, 0]


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
    for n in (1, 2, 3):
        for lev in range(levels):
            monos = bar_level_basis(A, lev, weight_cap)
            trees = sorted({t for mono in monos for t in mono})
            decorated = _decorate(monos, {t: s for s, t in enumerate(trees)},
                                  n)
            # read each decorated factor id * n^2 + a * n + b back
            assert [tuple((trees[x // (n * n)], x // n % n, x % n)
                          for x in mono) for mono in decorated] == \
                _ordered_decorations(monos, n), (n, lev)


@pytest.mark.parametrize("n", [2, 3])
def test_budget_counts_decorated_monomials(n):
    A = dual_numbers_algebra()
    total = 0
    for lev in range(5):
        for w in range(5):
            monos = bar_level_basis(A, lev, w)
            if w:
                monos = monos[len(bar_level_basis(A, lev, w - 1)):]
            size = len(_ordered_decorations(monos, n))
            if size:
                # a budget one short of the count through (lev, w)
                with pytest.raises(CapOverflowError,
                                   match=r"\(level, weight\) = \(%d, %d\)"
                                   % (lev, w)):
                    hr_via_bar(A, 3, 4, n=n, budget=total + size - 1)
            total += size
    assert hr_via_bar(A, 3, 4, n=n, budget=total).deg_cap == 3


def test_each_tree_s_faces_are_computed_once_per_call(monkeypatch):
    computed = []
    towers = []
    built = []
    real_faces, real_tables = bar._tree_faces, bar._face_tables

    def tree_faces(A, d, key, below, keys, faces):
        computed.append((d, key))
        return real_faces(A, d, key, below, keys, faces)

    def face_tables(A, levels, n):
        towers.append([list(level) for level in levels])
        built.append(real_tables(A, levels, n)[0])
        return built[-1], None

    monkeypatch.setattr(bar, "_tree_faces", tree_faces)
    monkeypatch.setattr(bar, "_face_tables", face_tables)
    # free:2 below weight 4 has empty levels 3 and 4, which build no block
    for A, weight_cap, n in [(dual_numbers_algebra(), 5, 2),
                             (free_tensor_algebra(2, 3), 3, 1)]:
        for seen in (computed, towers, built):
            seen.clear()
        hr_via_bar(A, 3, weight_cap, n=n)
        # one tower of trees per call: the trees of each level's basis
        assert towers == [[sorted({t for mono in bar_level_basis(
            A, lev, weight_cap) for t in mono}) for lev in range(5)]]
        # and the faces of each tree of levels >= 1 once
        assert len(set(computed)) == len(computed) == \
            sum(len(level) for level in towers[0][1:])
        # each level's tables are dropped with its last block
        assert built[0][1:] == [None] * 4


# The per-monomial face maps on (tree, a, b) factors that hr_via_bar's face
# tables replaced, kept as the reference for its blocks.

def _reference_flatten(tree, i):
    """Merge layers i and i+1 of a depth >= i+1 tree."""
    if i == 1:
        return tuple(x for child in tree for x in child)
    return tuple(_reference_flatten(child, i - 1) for child in tree)


def _reference_multiply_innermost(A, tree, depth):
    """Replace each innermost bracket by its product: dict tree -> coeff."""
    if depth == 1:
        return A.multiply_word(tree)
    out = {(): 1}
    for child in tree:
        sub = _reference_multiply_innermost(A, child, depth - 1)
        out = {pref + (t,): c1 * c2 for pref, c1 in out.items()
               for t, c2 in sub.items()}
    return out


def _reference_sort_collapse(d):
    """Re-sort monomial keys, summing collisions."""
    out = {}
    for k, v in d.items():
        add_term(out, tuple(sorted(k)), v)
    return out


def _reference_face(A, nlev, i, mono, n):
    """Face i of a level-nlev monomial of (tree, a, b) factors."""
    if i == 0:
        out = {(): 1}
        for t, a, b in mono:
            paths = [((), a)]
            for child in t[:-1]:
                paths = [(fac + ((child, c0, c),), c)
                         for fac, c0 in paths for c in range(n)]
            ends = [fac + ((t[-1], c0, b),) for fac, c0 in paths]
            out = {pre + end: 1 for pre in out for end in ends}
        return _reference_sort_collapse(out)
    if i < nlev:
        return {tuple(sorted((_reference_flatten(t, i), a, b)
                             for t, a, b in mono)): 1}
    out = {(): 1}
    for t, a, b in mono:
        sub = _reference_multiply_innermost(A, t, nlev)
        out = {pre + ((t2, a, b),): c1 * c2
               for pre, c1 in out.items() for t2, c2 in sub.items()}
    return _reference_sort_collapse(out)


def _reference_block(A, lev, w, n):
    """Block (lev, w) of hr_via_bar, built monomial by monomial."""
    def basis(level):
        monos = bar_level_basis(A, level, w)
        if w:
            monos = monos[len(bar_level_basis(A, level, w - 1)):]
        return _ordered_decorations(monos, n)

    src, tgt = basis(lev), basis(lev - 1)
    nondegenerate = set(tgt)

    def image(mono):
        acc = {}
        for i in range(lev + 1):
            for m2, c in _reference_face(A, lev, i, mono, n).items():
                add_term(acc, m2, -c if i % 2 else c)
        return {m: c for m, c in acc.items() if m in nondegenerate}

    return SparseMatrix.from_images(src, tgt, image)


@pytest.mark.parametrize("A, caps", [
    (dual_numbers_algebra(), {1: (3, 4), 2: (3, 4), 3: (3, 4)}),
    (free_tensor_algebra(2, 4), {1: (3, 4), 2: (3, 4), 3: (2, 3)}),
    (truncated_poly_algebra(4, 2), {1: (3, 4), 2: (3, 4), 3: (2, 3)}),
], ids=["dual-numbers", "free:2", "poly:2"])
def test_blocks_match_the_per_monomial_faces(A, caps, monkeypatch):
    blocks = {}
    real = bar.homology_by_blocks

    def recording(deg_cap, weight_cap, shift, bases, block):
        def kept(lev, w):
            blocks[lev, w] = block(lev, w)
            return blocks[lev, w]
        return real(deg_cap, weight_cap, shift, bases, kept)

    monkeypatch.setattr(bar, "homology_by_blocks", recording)
    for n, (deg_cap, weight_cap) in caps.items():
        blocks.clear()
        hr_via_bar(A, deg_cap, weight_cap, n=n)
        # every built block is the reference; every other one has a zero
        # side (level 0 maps to the zero group below it)
        for lev in range(1, deg_cap + 2):
            for w in range(weight_cap + 1):
                ref = _reference_block(A, lev, w, n)
                if (lev, w) not in blocks:
                    assert not (ref.rows and ref.cols), (n, lev, w)
                    continue
                M = blocks[lev, w]
                assert (M.rows, M.cols) == (ref.rows, ref.cols), (n, lev, w)
                assert M.entries == ref.entries, (n, lev, w)
        assert all(lev for lev, _ in blocks)
