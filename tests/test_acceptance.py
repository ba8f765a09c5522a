"""Acceptance gate: the seven headline checks, one pass/fail line each.

Each test prints exactly one "CRITERION k: PASS/FAIL" line (run pytest
with -s or look at captured output).  Expected values are pinned from
independent oracles; see the project notes for the provenance of the
dual-numbers table and the degree-0 stabilization targets.
"""

import itertools
import random
import time

from symhom.bar import bar_level_basis, face_map, hr_via_bar
from symhom.commalg import abelianize
from symhom.deltas import (_coequalizer_space, _orbit,
                           abelianization_quotient, arity, b_sym_action,
                           compose, factorize, format_morphism,
                           hc0_coequalizer, hs0_coequalizer, monotone,
                           morphism, psi_sym)
from symhom.findim import (dual_numbers_algebra, free_tensor_algebra,
                           matrix_algebra, upper_triangular_algebra)
from symhom.freealg import dual_numbers_resolution, \
    free_resolution_of_tensor_algebra
from symhom.lie import (abelian_lie, ce_complex, cobar, hs_env_closed_form,
                        hs_env_via_cobar, nonabelian_2dim, sl2)
from symhom.linalg import SparseMatrix, rank
from symhom.rationals import QQ, ZERO
from symhom.repfun import hr_n, rep_n
from test_commalg import euler_prediction, table_euler
from test_deltas import loop_permutation
from test_lie import flipped_cobar


def _report(k, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    line = "CRITERION %d: %s (%.1fs, budget %ds)" % (k, status, elapsed,
                                                     budget)
    if detail:
        line += " -- " + detail
    print(line)
    assert ok, line
    assert elapsed < budget, "criterion %d exceeded runtime budget" % k


# the dual-numbers symmetric homology table (degrees 0..8): each class is
# a one-dimensional cyclic module, so the degreewise totals are
# [2, 0, 1, 1, 2, 2, 2, 2, 3] with the weight placement below
DUAL_NUMBERS_TABLE = {
    (0, 0): 1, (0, 1): 1,
    (2, 3): 1,
    (3, 5): 1,
    (4, 5): 1, (4, 6): 1,
    (5, 7): 1, (5, 8): 1,
    (6, 7): 1, (6, 8): 1,
    (7, 9): 1, (7, 10): 1,
    (8, 9): 1, (8, 10): 2,
}


def test_criterion_1_dual_numbers_dg_table():
    t0 = time.time()
    table = abelianize(dual_numbers_resolution(9)).homology_table(8, 12)
    ok = table.entries == DUAL_NUMBERS_TABLE
    totals = [table.degree_total(h) for h in range(table.deg_cap + 1)]
    ok = ok and totals == [2, 0, 1, 1, 2, 2, 2, 2, 3]
    _report(1, ok, time.time() - t0, 60,
            "degree totals %s" % totals)


def test_criterion_2_cross_pipeline_agreement():
    t0 = time.time()
    dg = abelianize(dual_numbers_resolution(5)).homology_table(4, 8)
    bar = hr_via_bar(dual_numbers_algebra(), 4, 8, budget=2_000_000)
    diffs = dg.diff(bar)
    _report(2, not diffs, time.time() - t0, 300,
            "entrywise equal for hdeg<=4, weight<=8" if not diffs
            else "diffs: %s" % diffs)


def test_criterion_3_free_algebras_and_poly_rep():
    t0 = time.time()
    ok = True
    notes = []
    # tensor algebras: homology concentrated in degree 0 with the
    # symmetric-algebra dimensions per weight
    for dim_v, deg_cap in ((1, 3), (2, 2)):
        A = free_tensor_algebra(dim_v, 6)
        table = hr_via_bar(A, deg_cap, 6, budget=2_000_000)
        sym_dims = [len(list(itertools.combinations_with_replacement(
            range(dim_v), w))) for w in range(7)]
        got = [table.get(0, w) for w in range(7)]
        higher = sum(table.degree_total(h) for h in range(1, deg_cap + 1))
        if got != sym_dims or higher:
            ok = False
            notes.append("TV dim %d: got %s higher %d" % (dim_v, got, higher))
    # representation homology of k[x] vanishes in positive degrees
    R = free_resolution_of_tensor_algebra(1)
    for n in (1, 2):
        table = hr_n(R, n, 4, 4)
        if any(table.degree_total(h) for h in range(1, 5)):
            ok = False
            notes.append("HR(k[x], k^%d) nonzero in positive degree" % n)
    _report(3, ok, time.time() - t0, 120, "; ".join(notes))


def test_criterion_4_abelian_closed_form():
    t0 = time.time()
    ok = True
    for n in (2, 3):
        a = abelian_lie(n)
        if hs_env_via_cobar(a, 4, 6) != hs_env_closed_form(a, 4, 6):
            ok = False
    _report(4, ok, time.time() - t0, 120, "abelian dims 2, 3")


def test_criterion_5_semisimple_and_solvable_closed_form():
    t0 = time.time()
    ok = True
    notes = []
    for a, label, wcap in ((sl2(), "sl2", 9), (nonabelian_2dim(), "nab2", 7)):
        left = hs_env_via_cobar(a, 6, wcap)
        right = hs_env_closed_form(a, 6, wcap)
        if left != right:
            ok = False
            notes.append("%s: %s" % (label, left.diff(right)))
    _report(5, ok, time.time() - t0, 300, "; ".join(notes) or "hdeg<=6")


def test_criterion_6_degree_zero_stabilization():
    t0 = time.time()
    ok = True
    notes = []
    targets = ((dual_numbers_algebra(), "dual", 2),
               (matrix_algebra(2), "m2", 0),
               (upper_triangular_algebra(), "ut2", 2))
    for A, label, expected in targets:
        d3 = hs0_coequalizer(A, 3)
        d4 = hs0_coequalizer(A, 4)
        if not (d3 == d4 == expected):
            ok = False
            notes.append("%s: cap3=%d cap4=%d want %d"
                         % (label, d3, d4, expected))
    # the composite HC_0 -> HS_0 -> A_ab must be the canonical quotient:
    # starting from the class of a single basis element, both routes land
    # on its class in the degree-0 symmetric quotient of A
    def to_aab(A, aab, coords):
        out = {}
        for (n, w), c in coords.items():
            for lab, v in aab.project(A.multiply_word(w)).items():
                s = out.get(lab, ZERO) + c * v
                if s:
                    out[lab] = s
                elif lab in out:
                    del out[lab]
        return out

    for A, label, _ in targets:
        quo = _coequalizer_space(A, 3, cyclic=False)
        aab = abelianization_quotient(A)
        # the induced map HS_0 -> A_ab on the quotient bases
        comparison = SparseMatrix.from_images(
            quo.basis, aab.basis,
            lambda nw: aab.project(A.multiply_word(nw[1])))
        if rank(comparison) != aab.dim:
            ok = False
            notes.append("%s: comparison not onto" % label)
        if hc0_coequalizer(A, 3) < quo.dim:
            ok = False
            notes.append("%s: HC_0 smaller than HS_0" % label)
        cycq = _coequalizer_space(A, 3, cyclic=True)
        for i in range(A.dim):
            canonical = aab.project({i: QQ(1)})
            via_hs = to_aab(A, aab, quo.project({(0, (i,)): QQ(1)}))
            hs_coords = {}
            for (n, w), c in cycq.project({(0, (i,)): QQ(1)}).items():
                # Delta-C inside Delta-S, on orbits: a necklace lies in
                # one symmetric orbit
                key = (n, _orbit(w, cyclic=False))
                for k2, v in quo.project({key: c}).items():
                    s = hs_coords.get(k2, ZERO) + v
                    if s:
                        hs_coords[k2] = s
                    elif k2 in hs_coords:
                        del hs_coords[k2]
            via_hc = to_aab(A, aab, hs_coords)
            if via_hs != canonical or via_hc != canonical:
                ok = False
                notes.append("%s: composite differs at %s"
                             % (label, A.basis[i]))
    _report(6, ok, time.time() - t0, 60, "; ".join(notes))


def _all_morphisms(src_arity, tgt_arity):
    for perm in itertools.permutations(range(src_arity)):
        for cuts in itertools.combinations(
                range(src_arity + tgt_arity - 1), tgt_arity - 1):
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
            yield morphism(mon)


def _random_morphism(rng, src_arity, tgt_arity):
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


def test_criterion_7_property_suites():
    t0 = time.time()
    ok = True
    notes = []

    def fail(msg):
        nonlocal ok
        ok = False
        notes.append(msg)

    # (a) d^2 = 0 for every constructed differential
    R = dual_numbers_resolution(6)
    if not R.check_d_squared():
        fail("free d^2")
    if not abelianize(R).check_d_squared():
        fail("abelianized d^2")
    for a in (sl2(), nonabelian_2dim(), abelian_lie(2)):
        C = ce_complex(a)
        if not cobar(C, 4, 6).check_d_squared():
            fail("cobar d^2")
    # negative control: the flipped coproduct sign must break d^2 = 0
    if flipped_cobar(ce_complex(sl2())).check_d_squared():
        fail("negative control passed d^2")

    # (b) category laws and unique factorization, exhaustive arity <= 5
    for a in range(1, 6):
        for b in range(1, 6):
            for f in _all_morphisms(a, b):
                if compose(monotone([1] * len(f)), f) != f or \
                        compose(f, monotone([1] * arity(f))) != f:
                    fail("identity law %s" % format_morphism(f))
                sigma, mono = factorize(f)
                flat = [v for m in mono for v in m]
                if flat != list(range(a)) or \
                        compose(mono, loop_permutation(sigma)) != f:
                    fail("factorization %s" % format_morphism(f))

    # (c) 1000 seeded random composites: associativity, factorization,
    # contravariance of the free-group functor, bar functoriality
    rng = random.Random(2026)
    A = dual_numbers_algebra()
    for _ in range(1000):
        a, b, c, d = (rng.randint(1, 5) for _ in range(4))
        f = _random_morphism(rng, a, b)
        g = _random_morphism(rng, b, c)
        h = _random_morphism(rng, c, d)
        gf = compose(g, f)
        if compose(h, gf) != compose(compose(h, g), f):
            fail("associativity")
        sigma, mono = factorize(gf)
        if compose(mono, loop_permutation(sigma)) != gf:
            fail("composite factorization")
        # Psi(g o f) = Psi(f) o Psi(g): the j-th image word of g with each
        # generator X_v replaced by the v-th image word of f
        psi_f = psi_sym(f)
        if list(psi_sym(gf)) != [tuple(u for v in word for u in psi_f[v])
                                 for word in psi_sym(g)]:
            fail("psi contravariance")
        word = tuple(rng.randrange(A.dim) for _ in range(a))
        v = {word: 1}
        if b_sym_action(A, gf, v) != \
                b_sym_action(A, g, b_sym_action(A, f, v)):
            fail("bar functoriality")

    # (d) per-weight Euler characteristic of the tables against the
    # prediction read off the resolution's generators
    R4, R7 = dual_numbers_resolution(4), dual_numbers_resolution(7)
    if table_euler(abelianize(R7).homology_table(6, 6)) != \
            euler_prediction(R7, 1, 6):
        fail("Euler characteristic (dg)")
    if table_euler(rep_n(R4, 2).homology_table(4, 4)) != \
            euler_prediction(R4, 2, 4):
        fail("Euler characteristic (rep)")

    # (e) simplicial identities d_i d_j = d_{j-1} d_i on bar levels
    for n in (2, 3):
        basis = bar_level_basis(A, n, 5)
        for mono in basis:
            el = {mono: QQ(1)}
            for i in range(n):
                for j in range(i + 1, n + 1):
                    if face_map(A, n - 1, i, face_map(A, n, j, el)) != \
                            face_map(A, n - 1, j - 1,
                                     face_map(A, n, i, el)):
                        fail("simplicial identity")

    _report(7, ok, time.time() - t0, 300, "; ".join(notes[:5]))
