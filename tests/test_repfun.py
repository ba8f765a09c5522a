"""The matrix representation functor, cyclic quotients, and the trace."""

import pytest

from symhom.commalg import abelianize
from symhom.freealg import (FreeDGAlgebra, GeneratorSpec,
                            dual_numbers_resolution,
                            free_resolution_of_tensor_algebra)
from symhom.lie import ce_complex, cobar, sl2
from symhom.repfun import (CyclicQuotientComplex, hr_n, rep_n,
                           trace_chain_map, _necklace)
from symhom.rationals import QQ


def test_rep_1_matches_abelianization():
    R = dual_numbers_resolution(4)
    assert rep_n(R, 1).homology_table(3, 6) == \
        abelianize(R).homology_table(3, 6)


@pytest.mark.parametrize("R", [
    dual_numbers_resolution(4),
    # the sl2 cobar algebra as hs_env_via_cobar builds it at caps (3, 4)
    cobar(ce_complex(sl2()), 4, 5),
], ids=["dual-numbers", "sl2-cobar"])
def test_rep_1_is_the_abelianization_renamed(R):
    S, ab = rep_n(R, 1), abelianize(R)
    assert [(g.name, g.hdeg, g.weight) for g in S.generators] == \
        [(g.name + ":11", g.hdeg, g.weight) for g in ab.generators]
    assert S.differential == ab.differential


def test_rep_2_of_a_unit_boundary_is_diagonal():
    # d(t) = 1 is the identity matrix: d(t:11) = d(t:22) = 1, d(t:12) = 0
    R = FreeDGAlgebra([GeneratorSpec("t", 1, 1)], {"t": {(): 1}})
    S = rep_n(R, 2)
    assert {S.generators[i].name: poly
            for i, poly in S.differential.items()} == \
        {"t:11": {(): 1}, "t:22": {(): 1}}


def test_rep_n_d_squared():
    R = dual_numbers_resolution(3)
    for n in (1, 2, 3):
        assert rep_n(R, n).check_d_squared(3, 4)


def test_rep_2_generator_count():
    R = dual_numbers_resolution(2)
    S = rep_n(R, 2)
    assert len(S.generators) == 4 * len(R.generators)
    assert "x:12" in S.index and "t2:21" in S.index


def test_rep_2_differential_entry():
    # d(t1) = x^2, so d(t1:11) = x:11 x:11 + x:12 x:21
    R = dual_numbers_resolution(1)
    S = rep_n(R, 2)
    dt = S.differential[S.index["t1:11"]]
    x11, x12, x21 = (S.index[n] for n in ("x:11", "x:12", "x:21"))
    expected = {(x11, x11): QQ(1),
                tuple(sorted((x12, x21))): QQ(1)}
    assert dt == expected


def test_rep_n_guard():
    with pytest.raises(ValueError):
        rep_n(dual_numbers_resolution(1), 0)


def test_necklace_rotation_invariance():
    R = dual_numbers_resolution(3)
    sign, can = _necklace(R, ("t1", "x"))
    sign2, can2 = _necklace(R, ("x", "t1"))
    assert can == can2 and sign and sign2


def test_necklace_vanishing_class():
    # rotating (t1, t1) by one fixes it with Koszul sign -1
    R = dual_numbers_resolution(2)
    assert _necklace(R, ("t1", "t1")) == (0, None)


def test_cyclic_basis_excludes_vanishing_necklaces():
    R = dual_numbers_resolution(2)
    cyc = CyclicQuotientComplex(R)
    assert ("t1", "t1") not in cyc.basis(2, 4)


def test_cyclic_differential_squares_to_zero():
    R = dual_numbers_resolution(4)
    cyc = CyclicQuotientComplex(R)
    for h in range(2, 5):
        for w in range(7):
            prod = cyc.block_matrix(h - 1, w).matmul(cyc.block_matrix(h, w))
            assert prod.is_zero(), (h, w)


def test_trace_is_a_chain_map():
    R = dual_numbers_resolution(4)
    n, deg_cap, weight_cap = 2, 3, 5
    cyc, S, blocks = trace_chain_map(R, n, deg_cap, weight_cap)
    for h in range(1, deg_cap + 1):
        for w in range(weight_cap + 1):
            lhs = S.block_matrix(h, w).matmul(blocks[(h, w)])
            rhs = blocks[(h - 1, w)].matmul(cyc.block_matrix(h, w))
            assert lhs == rhs, (h, w)


def test_trace_of_single_generator_is_matrix_trace():
    R = dual_numbers_resolution(2)
    cyc, S, blocks = trace_chain_map(R, 2, 1, 2)
    # x has weight 1: the (0, 1) block sends x to x:11 + x:22
    m = blocks[(0, 1)]
    tgt = S.monomial_basis(0, 1)
    col = {tgt[r]: v for (r, c), v in m.entries.items() if c == 0}
    x11, x22 = S.index["x:11"], S.index["x:22"]
    assert col == {(x11,): QQ(1), (x22,): QQ(1)}


def test_representation_homology_of_poly_vanishes():
    R = free_resolution_of_tensor_algebra(1)
    for n in (1, 2):
        table = hr_n(R, n, 4, 4)
        for h in range(1, 5):
            assert table.degree_total(h) == 0, (n, h)
        assert table.degree_total(0) > 0


def test_rep_2_dual_numbers_regression():
    # frozen values for the 2x2 representation homology of k[x]/(x^2)
    R = dual_numbers_resolution(3)
    table = hr_n(R, 2, 2, 4)
    assert [table.get(0, w) for w in range(5)] == [1, 4, 6, 7, 9]
    assert table.degree_total(1) == 0
    assert table.get(2, 3) == 1 and table.get(2, 4) == 4
