"""Exact sparse linear algebra: elimination, rank, quotients, homology."""

import itertools
import random
import sys

import pytest

from symhom import cli, linalg
from symhom.bar import bar_level_basis, face_map, hr_via_bar
from symhom.betti import BettiTable
from symhom.commalg import abelianize
from symhom.findim import dual_numbers_algebra, free_tensor_algebra
from symhom.freealg import dual_numbers_resolution
from symhom.lie import ce_homology, heisenberg, hs_env_via_cobar, sl2
from symhom.linalg import (CompositionNonZeroError, QuotientSpace,
                           SparseMatrix, homology_by_blocks, homology_dim,
                           rank)
from symhom.rationals import QQ
from symhom.repfun import rep_n


def matrix(rows, cols, entries):
    """The rows x cols SparseMatrix with the given {(i, j): v} entries,
    filled by from_images as every matrix of the package is."""
    columns = [{} for _ in range(cols)]
    for (i, j), v in entries.items():
        columns[j][i] = v
    return SparseMatrix.from_images(range(cols), range(rows),
                                    columns.__getitem__)


def dense(data):
    """The SparseMatrix of a list of rows."""
    return matrix(len(data), len(data[0]) if data else 0,
                  {(i, j): v for i, row in enumerate(data)
                   for j, v in enumerate(row)})


def transpose(M):
    return matrix(M.cols, M.rows,
                  {(j, i): v for (i, j), v in M.entries.items()})


def same_matrix(A, B):
    return (A.rows, A.cols, A.entries) == (B.rows, B.cols, B.entries)


def row_dicts(M):
    return [dict(r) for r in M.data]


def random_matrix(rng, rows, cols, density=0.4):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                entries[(i, j)] = QQ(rng.randint(-5, 5))
    return matrix(rows, cols, entries)


def dense_rank(M):
    """Reference rank: dense left-to-right elimination."""
    a = [[QQ(0)] * M.cols for _ in range(M.rows)]
    for (i, j), v in M.entries.items():
        a[i][j] = v
    r = 0
    for c in range(M.cols):
        p = next((i for i in range(r, M.rows) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        for i in range(M.rows):
            if i != r and a[i][c]:
                f = QQ(a[i][c]) / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def tie_heavy_matrix(rng, rows, cols):
    """Rows with the same number of +-1 entries, some of them sums of
    earlier rows: many columns and rows tie on count."""
    out = []
    for i in range(rows):
        if i >= 2 and rng.random() < 0.3:
            u, v = rng.sample(out, 2)
            row = dict(u)
            for j, c in v.items():
                row[j] = row.get(j, QQ(0)) + c
            out.append({j: c for j, c in row.items() if c})
        else:
            out.append({j: QQ(rng.choice((1, -1)))
                        for j in rng.sample(range(cols), min(2, cols))})
    return matrix(rows, cols, {(i, j): c for i, r in enumerate(out)
                               for j, c in r.items()})


def seeded_matrices(seed):
    """120 seeded matrices with sides up to 14, every other one
    tie-heavy."""
    rng = random.Random(seed)
    for trial in range(120):
        rows, cols = rng.randint(1, 14), rng.randint(1, 14)
        if trial % 2:
            yield tie_heavy_matrix(rng, rows, cols)
        else:
            yield random_matrix(rng, rows, cols, density=rng.random() * 0.5)


def test_rank_matches_dense_reference():
    for M in seeded_matrices(101):
        assert rank(M) == dense_rank(M)


def test_rank_of_a_matrix_that_float_division_misranks():
    # dividing two int entries with / gives a float, and the rounding
    # left a nonzero entry here, so the dense reference read rank 4
    M = matrix(4, 7, {(0, 2): -4, (0, 6): -3, (1, 0): -5, (1, 3): 3,
                      (2, 0): 4, (2, 1): -4, (2, 3): -5,
                      (3, 1): -4, (3, 3): QQ(-13, 5)})
    assert rank(M) == dense_rank(M) == 3


def test_eliminate_pivots_are_reduced_and_count_the_rank():
    # each pivot row is zero in the columns of the pivots before it; the
    # pivot rows lie in the row space, and there are rank of them
    for M in seeded_matrices(23):
        pivots = linalg.eliminate(row_dicts(M))
        for k, (c, row) in enumerate(pivots):
            assert row[c] and not any(pc in row for pc, _ in pivots[:k])
        stacked = matrix(M.rows + len(pivots), M.cols, {
            **M.entries, **{(M.rows + k, j): v
                            for k, (_, row) in enumerate(pivots)
                            for j, v in row.items()}})
        assert len(pivots) == dense_rank(M) == dense_rank(stacked)


def test_rank_dense_examples():
    assert rank(dense([[1, 2], [2, 4]])) == 1
    assert rank(dense([[1, 0], [0, 1]])) == 2
    assert rank(dense([[0, 0], [0, 0]])) == 0
    assert rank(dense([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 2
    assert rank(SparseMatrix(5, 7)) == 0
    assert rank(matrix(6, 6, {(i, i): 1 for i in range(6)})) == 6


def test_rank_fractional_entries():
    M = dense([["1/2", "1/3"], ["1/4", "1/6"]])
    assert rank(M) == 1


def test_rank_equals_transpose_rank():
    rng = random.Random(11)
    for _ in range(25):
        M = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        assert rank(M) == rank(transpose(M))


def test_from_images_writes_columns_on_the_target_basis():
    M = SparseMatrix.from_images(
        ["u", "v"], ["a", "b", "c"],
        lambda x: {"a": QQ(1), "c": QQ(2)} if x == "u" else {"b": QQ(-1)})
    assert same_matrix(M, dense([[1, 0], [0, -1], [2, 0]]))


def test_from_images_rejects_a_term_outside_the_target():
    with pytest.raises(KeyError):
        SparseMatrix.from_images(["u"], ["a", "b"],
                                 lambda x: {"a": QQ(1), "z": QQ(3)})


def test_add_term_cancels_and_keeps_ints():
    acc = {}
    linalg.add_term(acc, "k", 2)
    linalg.add_term(acc, "j", QQ(1, 2))
    linalg.add_term(acc, "k", -2)
    linalg.add_term(acc, "i", 0)
    assert acc == {"j": QQ(1, 2)}
    linalg.add_term(acc, "n", 3)
    assert type(acc["n"]) is int


def test_matmul_shapes_and_values():
    A = dense([[1, 2], [3, 4]])
    B = dense([[0, 1], [1, 0]])
    assert same_matrix(A.matmul(B), dense([[2, 1], [4, 3]]))
    with pytest.raises(ValueError):
        A.matmul(SparseMatrix(3, 3))


def test_homology_dim_small_complex():
    # 0 -> k -> k^2 -> k -> 0 with d_in = [1, 0]^T, d_out = [0, 1]
    d_in = dense([[1], [0]])
    d_out = dense([[0, 1]])
    assert homology_dim(d_out, d_in) == 0


def test_homology_dim_rejects_non_complex():
    d_in = dense([[1], [0]])
    d_out = dense([[1, 0]])
    with pytest.raises(CompositionNonZeroError):
        homology_dim(d_out, d_in)


def test_homology_dim_shape_mismatch():
    with pytest.raises(ValueError):
        homology_dim(SparseMatrix(1, 3), SparseMatrix(2, 1))


def test_quotient_space_basics():
    # k^3 / span(e0 - e1) has dimension 2 and identifies e0 with e1
    q = QuotientSpace(["a", "b", "c"], [{"a": 1, "b": -1}])
    assert q.dim == 2
    assert q.project({"a": QQ(1)}) == q.project({"b": QQ(1)})
    assert q.project({"a": QQ(1), "b": QQ(-1)}) == {}


def test_quotient_space_relations_project_to_zero():
    rng = random.Random(77)
    labels = list(range(8))
    rels = []
    for _ in range(5):
        rels.append({j: QQ(rng.randint(-3, 3)) for j in rng.sample(labels, 3)})
    q = QuotientSpace(labels, rels)
    for rel in rels:
        assert q.project(rel) == {}
    assert q.dim >= len(labels) - len(rels)


def test_quotient_space_matches_dense_reference():
    rng = random.Random(202)
    for trial in range(120):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        if trial % 2:
            M = tie_heavy_matrix(rng, rows, cols)
        else:
            M = random_matrix(rng, rows, cols, density=rng.random() * 0.5)
        # labels in an order unrelated to the columns
        labels = [("v", j) for j in range(cols)]
        rng.shuffle(labels)
        rels = [{labels[j]: c for j, c in r.items()} for r in row_dicts(M)]
        q = QuotientSpace(labels, rels)
        assert q.dim == cols - dense_rank(M)
        for rel in rels:
            assert q.project(rel) == {}
        for lab in q.basis:
            assert q.project({lab: QQ(1)}) == {lab: QQ(1)}


def test_quotient_projection_is_linear():
    rng = random.Random(3)
    labels = list("abcdef")
    rels = [{"a": 1, "c": -2}, {"b": 1, "d": 1, "f": -1}]
    q = QuotientSpace(labels, rels)
    for _ in range(20):
        u = {l: QQ(rng.randint(-4, 4)) for l in rng.sample(labels, 3)}
        v = {l: QQ(rng.randint(-4, 4)) for l in rng.sample(labels, 3)}
        both = dict(u)
        for l, c in v.items():
            both[l] = both.get(l, QQ(0)) + c
        pu, pv, pb = q.project(u), q.project(v), q.project(both)
        summed = dict(pu)
        for l, c in pv.items():
            s = summed.get(l, QQ(0)) + c
            if s:
                summed[l] = s
            elif l in summed:
                del summed[l]
        assert summed == pb


def simplex_faces(h, w):
    """The h-faces of the (w+1)-vertex simplex; none for h < 0."""
    return list(itertools.combinations(range(w + 1), h + 1)) if h >= 0 else []


def simplex_boundary(h, w, signed=True):
    """Boundary of the (w+1)-vertex simplex from h-faces to (h-1)-faces;
    without signs it is not a differential."""
    src, tgt = simplex_faces(h, w), simplex_faces(h - 1, w)
    ti = {t: r for r, t in enumerate(tgt)}
    entries = {}
    for c, face in enumerate(src):
        for k in range(len(face) if h else 0):
            sign = (-1) ** k if signed else 1
            entries[(ti[face[:k] + face[k + 1:]], c)] = sign
    return matrix(len(tgt), len(src), entries)


def simplex_groups(hdeg_cap, weight_cap):
    """{(h, w): h-faces of the (w+1)-vertex simplex} within the caps."""
    return {(h, w): simplex_faces(h, w) for h in range(hdeg_cap + 1)
            for w in range(weight_cap + 1)}


def test_homology_by_blocks_builds_and_ranks_each_block_once(monkeypatch):
    built = []
    ranked = []
    real_rank = linalg.rank

    def counting_rank(M, cleared=(), pivots=None):
        ranked.append((cleared, pivots))
        return real_rank(M, cleared, pivots)

    def block(h, w):
        built.append((h, w))
        return simplex_boundary(h, w)

    monkeypatch.setattr(linalg, "rank", counting_rank)
    positions = [(h, w) for h in range(4) for w in range(4)]
    dims = homology_by_blocks(3, 3, 0, simplex_groups(4, 3), block)
    # a simplex is connected and acyclic
    assert dims == BettiTable(3, 3, {(h, w): int(h == 0)
                                     for h, w in positions})
    # exactly the blocks between two nonzero groups: h-faces exist for
    # h <= w, and (h-1)-faces for h >= 1; blocks (0, w) and (4, w) are not
    assert sorted(built) == [(h, w) for h in range(1, 5)
                             for w in range(4) if h <= w]
    assert len(ranked) == len(built)
    # each block is ranked as it is built; one whose d_out below it was
    # built is ranked without the rows at d_out's pivot columns, and one
    # with no d_out is ranked whole
    by_block = dict(zip(built, ranked))
    for (h, w), (cleared, _) in by_block.items():
        below = by_block.get((h - 1, w))
        assert set(cleared) == (below[1] if below else set()), (h, w)
    assert any(cleared for cleared, _ in ranked)


def test_homology_by_blocks_rejects_non_complex():
    with pytest.raises(CompositionNonZeroError):
        homology_by_blocks(
            2, 2, 0, simplex_groups(3, 2),
            lambda h, w: simplex_boundary(h, w, signed=False))


def test_homology_by_blocks_rejects_a_block_of_the_wrong_shape():
    # a 2x2 block against a 3-element source basis, with no neighbour
    # built that would fail to compose with it
    bases = {(0, 0): "ab", (1, 0): "xyz"}
    with pytest.raises(ValueError):
        homology_by_blocks(1, 0, 0, bases,
                           lambda h, w: dense([[1, 0], [0, 1]]))


# clearing --------------------------------------------------------------

CLEARED_JOBS = {
    "bar-dual-n1": lambda: hr_via_bar(dual_numbers_algebra(), 3, 6),
    "bar-dual-n2": lambda: hr_via_bar(dual_numbers_algebra(), 2, 4, n=2),
    "bar-free2": lambda: hr_via_bar(free_tensor_algebra(2, 4), 2, 4),
    "dg-dual": lambda: abelianize(
        dual_numbers_resolution(12)).homology_table(11, 15),
    "rep2-dual": lambda: rep_n(
        dual_numbers_resolution(5), 2).homology_table(3, 4),
    "cobar-sl2": lambda: hs_env_via_cobar(sl2(), 4, 6),
    "ce-heisenberg": lambda: ce_homology(heisenberg(), 4),
}


@pytest.mark.parametrize("job", sorted(CLEARED_JOBS))
def test_every_cleared_rank_is_the_full_rank(monkeypatch, job):
    ranks = []
    real_rank = linalg.rank

    def full_and_cleared_rank(M, *args):
        full = len(linalg.eliminate(row_dicts(M)))
        ranks.append((real_rank(M, *args), full))
        return ranks[-1][0]

    monkeypatch.setattr(linalg, "rank", full_and_cleared_rank)
    CLEARED_JOBS[job]()
    assert ranks
    assert all(cleared == full for cleared, full in ranks), ranks


@pytest.mark.parametrize("job, rows, rank_sum", [
    ("bar-dual-n1", 330, 329), ("dg-dual", 210, 199), ("cobar-sl2", 159, 159)])
def test_clearing_hands_elimination_fewer_rows(monkeypatch, job, rows,
                                               rank_sum):
    # the full blocks have 449, 305 and 210 nonzero rows
    handed, found = [], []
    real_eliminate = linalg.eliminate

    def counting_eliminate(row_list):
        handed.append(sum(1 for r in row_list if r))
        pivots = real_eliminate(row_list)
        found.append(len(pivots))
        return pivots

    monkeypatch.setattr(linalg, "eliminate", counting_eliminate)
    CLEARED_JOBS[job]()
    assert (sum(handed), sum(found)) == (rows, rank_sum)


def test_d_squared_is_checked_on_a_row_that_clearing_drops():
    # d_1 = [1 0] has its pivot in column 0, so d_2 = [[1], [0]] is
    # ranked without row 0, where d_1 . d_2 = [1] is nonzero; the ranks
    # give 2 - 1 - 0 >= 0, so only the product sees it
    blocks = {1: dense([[1, 0]]), 2: dense([[1], [0]])}
    bases = {(0, 0): "a", (1, 0): "bc", (2, 0): "d"}
    with pytest.raises(CompositionNonZeroError):
        homology_by_blocks(1, 0, 0, bases, lambda h, w: blocks[h])


# one route's small input per kind of cli.PIPELINES
ROUTE_INPUTS = {"resolution": lambda: dual_numbers_resolution(4),
                "algebra": dual_numbers_algebra, "lie": sl2}
RANKED_JOBS = {
    "%s-n%d" % (name, n): (lambda route=route, kind=kind, n=n:
                           route(ROUTE_INPUTS[kind](), 2, 3, n))
    for name, (kind, route) in cli.PIPELINES.items()
    for n in ((1,) if kind == "lie" else (1, 2))}
RANKED_JOBS["ce_homology"] = lambda: ce_homology(sl2(), 3)


@pytest.mark.parametrize("job", sorted(RANKED_JOBS))
def test_every_rank_of_a_route_runs_inside_the_homology_loop(monkeypatch,
                                                             job):
    callers = []
    real_rank = linalg.rank

    def checked_rank(M, *args):
        callers.append(sys._getframe(1).f_code)
        return real_rank(M, *args)

    monkeypatch.setattr(linalg, "rank", checked_rank)
    RANKED_JOBS[job]()
    assert callers
    assert set(callers) == {linalg.homology_by_blocks.__code__}


# integral scalars ------------------------------------------------------

def is_exact(x):
    """An exact scalar: an int, or a Fraction that is not integral."""
    return type(x) is int or (type(x) is QQ and x.denominator != 1)


def test_entries_are_held_as_ints_when_integral():
    M = matrix(2, 2, {(0, 0): QQ(4, 2), (0, 1): "3/6", (1, 1): -1})
    assert M.entries == {(0, 0): 2, (0, 1): QQ(1, 2), (1, 1): -1}
    assert [type(M.entries[k]) for k in ((0, 0), (0, 1), (1, 1))] == \
        [int, QQ, int]
    assert all(type(v) is int for v in dense(
        [[QQ(2), 0], [QQ(-3), QQ(6, 3)]]).entries.values())


def test_div_stays_integral_when_exact():
    assert linalg.div(6, 3) == 2 and type(linalg.div(6, 3)) is int
    assert linalg.div(-6, 4) == QQ(-3, 2)
    assert linalg.div(QQ(3, 2), QQ(1, 2)) == 3
    assert type(linalg.div(QQ(3, 2), QQ(1, 2))) is int
    assert linalg.div(1, QQ(2, 3)) == QQ(3, 2)


def test_eliminate_on_ints_and_fractions_agrees():
    for M in seeded_matrices(303):
        int_rows = row_dicts(M)
        assert all(type(v) is int for r in int_rows for v in r.values())
        frac_rows = [{j: QQ(v) for j, v in r.items()} for r in int_rows]
        with_ints = linalg.eliminate([dict(r) for r in int_rows])
        with_fracs = linalg.eliminate(frac_rows)
        assert [c for c, _ in with_ints] == [c for c, _ in with_fracs]
        assert [r for _, r in with_ints] == [r for _, r in with_fracs]


def test_pivots_that_force_fractions():
    # every column is hit by both rows, so the first pivot is 2 in
    # column 0 and the second row is reduced by the factor 3/2
    M = dense([[2, 1, 1], [3, 1, 2]])
    pivots = linalg.eliminate(row_dicts(M))
    assert pivots == [(0, {0: 2, 1: 1, 2: 1}),
                      (1, {1: QQ(-1, 2), 2: QQ(1, 2)})]
    assert rank(M) == 2
    q = QuotientSpace("abc", [{"a": 2, "b": 1, "c": 1},
                              {"a": 3, "b": 1, "c": 2}])
    assert q.basis == ["c"]
    # a + c = 0 and b = c in the quotient
    assert q.project({"a": 1}) == {"c": -1}
    # the row reduced by 3/2 holds Fractions; the coordinate comes out int
    assert type(q.project({"a": 1})["c"]) is int
    assert q.project({"b": 1}) == {"c": 1}
    assert q.project({"a": 1, "b": 1}) == {}
    # a relation whose first pivot divides nothing: 3/2, -1/2
    q = QuotientSpace("ab", [{"a": 2, "b": 3}])
    assert q.project({"a": 1}) == {"b": QQ(-3, 2)}


def test_no_float_ever_appears():
    rng = random.Random(404)
    for trial in range(60):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        entries = {(i, j): rng.choice((rng.randint(-4, 4),
                                       QQ(rng.randint(-4, 4), 3)))
                   for i in range(rows) for j in range(cols)
                   if rng.random() < 0.5}
        M = matrix(rows, cols, entries)
        assert all(is_exact(v) for v in M.entries.values())
        assert all(is_exact(v) for v in M.matmul(transpose(M))
                   .entries.values())
        for _, row in linalg.eliminate(row_dicts(M)):
            assert all(type(v) in (int, QQ) for v in row.values())
        q = QuotientSpace(range(cols), [{j: v for j, v in r.items()}
                                        for r in row_dicts(M)])
        for j in range(cols):
            assert all(type(v) in (int, QQ)
                       for v in q.project({j: QQ(1, 2)}).values())


def test_bar_and_dg_blocks_are_integral(monkeypatch):
    """The dual-numbers bar blocks (n = 1, 2) and the DG blocks, and the
    faces and the differential that build them, hold only ints: a silent
    fall-back to Fraction arithmetic fails here."""
    blocks = []
    real_rank = linalg.rank

    def recording_rank(M, *args):
        blocks.append(M)
        return real_rank(M, *args)

    monkeypatch.setattr(linalg, "rank", recording_rank)
    A = dual_numbers_algebra()
    hr_via_bar(A, 3, 5)
    hr_via_bar(A, 2, 3, n=2)
    C = abelianize(dual_numbers_resolution(5))
    C.homology_table(4, 6)
    assert sum(len(M.entries) for M in blocks) > 400
    assert all(type(v) is int for M in blocks for v in M.entries.values())
    assert all(type(c) is int for poly in C.differential.values()
               for c in poly.values())
    for h in range(5):
        for mono in C.monomial_basis(h, 6):
            assert all(type(c) is int for c in C.d({mono: 1}).values())
    for n in range(1, 4):
        for mono in bar_level_basis(A, n, 5):
            for i in range(n + 1):
                face = face_map(A, n, i, {mono: 1})
                assert all(type(c) is int for c in face.values())
