import os
import random
import subprocess
import sys

import numpy as np
import pytest

from ncdeg import degdet, linalg, mvsp
from ncdeg.errors import (
    AlgorithmStall,
    EnumerationCapExceeded,
    NotSkewSymmetric,
    Singular,
    SizeBudgetExceeded,
)
from ncdeg.mvsp import (
    FRWitness,
    blowup_witness,
    count_subspaces,
    enumerate_subspaces,
    matroid_intersection,
    max_matching,
    mvsp_bipartite,
    mvsp_matroid_intersection,
    nc_rank,
    nested_witness,
    triangular,
    _max_vanishing_V,
    _pivots,
)
from ncdeg.scalar import GF
from ncdeg.symbolic import SymbolicMatrix, default_trials
from referee import mvsp_exhaustive, mvsp_symmetric_exhaustive


def unit(n_rows, n_cols, i, j):
    M = np.zeros((n_rows, n_cols), dtype=np.int64)
    M[i, j] = 1
    return M


def tutte_k3(F):
    terms = []
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        M = np.zeros((3, 3), dtype=np.int64)
        M[i, j] = 1
        M[j, i] = (-1) % F.p
        terms.append(M)
    return SymbolicMatrix(F, terms)


def edmonds(F, n_rows, n_cols, edges):
    return SymbolicMatrix(F, [unit(n_rows, n_cols, i, j) for i, j in edges])


def contains(big, small, p):
    """The row space of big holds that of small."""
    big = np.asarray(big, dtype=np.int64)
    return linalg.rank(np.concatenate([big, np.asarray(small, dtype=np.int64)]), p) == linalg.rank(big, p)


# ---------------------------------------------------------------------------
# canonical bases


def test_subspace_completion_nonsingular():
    # triangular completes a canonical basis with unit vectors
    rng = random.Random(5)
    for _ in range(25):
        B = linalg.row_basis(linalg.rand_mat(rng, rng.randint(0, 4), 4, 7), 7)
        full = triangular(B)
        assert full.shape == (4, 4)
        assert linalg.rank(full, 7) == 4
        assert np.array_equal(full[_pivots(B)], B)


def test_subspace_enumeration_counts():
    assert count_subspaces(2, 3) == 16
    assert count_subspaces(2, 4) == 67
    assert count_subspaces(3, 3) == 28
    subs = enumerate_subspaces(GF(2), 3)
    assert len(subs) == 16
    assert all(np.array_equal(linalg.row_basis(b, 2), b) for b in subs)
    assert len({(b.shape, b.tobytes()) for b in subs}) == 16


def test_subspace_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded):
        enumerate_subspaces(GF(65521), 4)


# ---------------------------------------------------------------------------
# nc_rank


def test_nc_rank_identity_and_zero():
    F = GF(65521)
    rng = random.Random(0)
    n = 4
    eye = SymbolicMatrix(F, [linalg.identity(n)])
    assert nc_rank(eye, rng) == 4
    zero = SymbolicMatrix(F, [np.zeros((3, 3), dtype=np.int64)])
    assert nc_rank(zero, rng) == 0


def test_nc_rank_k3_is_three_despite_rank_two():
    # the triangle's skew matrix: every substitution has rank 2
    for p in [2, 3, 65521]:
        F = GF(p)
        A = tutte_k3(F)
        assert nc_rank(A, random.Random(7)) == 3


def test_nc_rank_rectangular():
    F = GF(65521)
    A = SymbolicMatrix(F, [unit(1, 2, 0, 0), unit(1, 2, 0, 1)])
    assert nc_rank(A, random.Random(1)) == 1


def test_nc_rank_stalls_when_blowup_rank_never_divides(monkeypatch):
    # orders 1 and 2 for n = 3: a rank of 1 never divides 2, and at order
    # 1 the identity's pair has value 3, so no draw certifies
    monkeypatch.setattr(mvsp.linalg, "rank", lambda A, p: 1)
    A = SymbolicMatrix(GF(5), [linalg.identity(3)])
    with pytest.raises(AlgorithmStall, match="certified"):
        nc_rank(A, random.Random(0))


def test_blowup_witness_stalls_under_the_nc_rank_cap(monkeypatch):
    # no draw reaches a rank that certifies a pair: 64 rounds of the
    # field's trial count at each of the orders 1 and 2 are drawn, then
    # the search gives up
    draws = []
    monkeypatch.setattr(mvsp.linalg, "rank", lambda A, p: 1)
    rand_mat = mvsp.linalg.rand_mat
    monkeypatch.setattr(mvsp.linalg, "rand_mat", lambda *a: draws.append(1) or rand_mat(*a))
    with pytest.raises(AlgorithmStall, match="certified"):
        blowup_witness(SymbolicMatrix(GF(5), [linalg.identity(3)]), random.Random(0))
    assert len(draws) == 64 * default_trials(5) * 2


def test_nc_rank_of_a_perfect_matching_certifies_at_order_one(monkeypatch):
    # a commutative rank of n certifies at d = 1, so no draw goes past
    # n x n, where the (n - 1)-th blow-up would be 1560 x 1560; nc_rank
    # takes Koenig here, so the blow-up witness is called directly
    n = 40
    r = random.Random(3)
    edges = {(i, i) for i in range(n)} | {(r.randrange(n), r.randrange(n)) for _ in range(n)}
    A = edmonds(GF(65521), n, n, sorted(edges))
    shapes = []
    rank = mvsp.linalg.rank
    monkeypatch.setattr(mvsp.linalg, "rank", lambda M, p: shapes.append(M.shape) or rank(M, p))
    assert blowup_witness(A, random.Random(0))[0].value() == n
    assert shapes and set(shapes) == {(n, n)}


def test_blowup_witness_refuses_orders_beyond_the_side_cap(monkeypatch):
    # K3's Tutte matrix has rank 2 at d = 1 and needs d = 2, a side of 6
    monkeypatch.setattr(mvsp, "MAX_SIDE", 5)
    with pytest.raises(SizeBudgetExceeded, match="order"):
        blowup_witness(tutte_k3(GF(65521)), random.Random(0))


def draw_orders(monkeypatch):
    """The order d of every draw blowup_witness takes from rng, in turn."""
    orders = []
    rand_mat = mvsp.linalg.rand_mat
    monkeypatch.setattr(mvsp.linalg, "rand_mat", lambda rng, m, d, p: orders.append(d) or rand_mat(rng, m, d, p))
    return orders


@pytest.mark.parametrize("p", [2, 65521])
def test_alternating_stack_leaves_order_one_once_an_odd_nc_rank_is_pinned(monkeypatch, p):
    # K3's Tutte matrix is alternating with nc-rank 3: the first order-1
    # draw has rank 2 and a pair of value 3, so order 1 is spent, where
    # it used to take default_trials(p) draws
    orders = draw_orders(monkeypatch)
    w, R = blowup_witness(tutte_k3(GF(p)), random.Random(0))
    assert w.value() == 3 and R.shape == (3, 2, 2)
    assert orders[:2] == [1, 2] and orders.count(1) == 1


def test_symmetric_gf2_stack_keeps_its_order_one_draws(monkeypatch):
    # diag(x, y, x + y) over GF(2) is symmetric, so every draw B has
    # B + B^t = 0, and a draw such as diag(1, 0, 1) has rank 2 and a pair
    # of value 3; but the terms have a nonzero diagonal, so order 1 runs
    # its full trials (its det xy(x + y) vanishes on GF(2)) before order 2
    F = GF(2)
    A = SymbolicMatrix(F, [np.diag([1, 0, 1]), np.diag([0, 1, 1])])
    orders = draw_orders(monkeypatch)
    w, R = blowup_witness(A, random.Random(0))
    assert w.value() == 3 and R.shape[1] == 2
    assert orders.index(2) == default_trials(2) and set(orders[: default_trials(2)]) == {1}


def test_zero_draw_of_a_non_alternating_stack_keeps_order_one(monkeypatch):
    # the 1 x 1 stack [x] over GF(2) has only order 1; seed 2 draws
    # x = 0, 0, 0, 1: a zero, and so alternating, B of rank 0 whose pair
    # has value 1, twice repeated, and then the draw that certifies
    orders = draw_orders(monkeypatch)
    w, R = blowup_witness(SymbolicMatrix(GF(2), [[[1]]]), random.Random(2))
    assert w.value() == 1 and R.tolist() == [[[1]]]
    assert orders == [1, 1, 1, 1]


def test_certifying_start_draws_nothing(monkeypatch):
    A = tutte_k3(GF(5))
    w, R = blowup_witness(A, random.Random(0))
    monkeypatch.setattr(mvsp.linalg, "rand_mat", lambda *a: pytest.fail("a certifying start needs no draw"))
    warm, R2 = blowup_witness(A, None, R)
    assert np.array_equal(warm.U, w.U) and np.array_equal(warm.V, w.V)
    assert np.array_equal(R2, R)
    # the route hands the start to the blow-up witness too
    assert np.array_equal(mvsp.witness(A, None, R)[1], R)


def test_guarantees_hold_under_optimize_flag():
    # python -O strips asserts: every engine must still finish with the
    # right values, and nc_rank must still give up instead of looping forever
    script = """
import random
import numpy as np
from ncdeg import linalg, mvsp
from ncdeg.apps import BipartiteInstance, build_edmonds
from ncdeg.degdet import DualSolution, hungarian_deg_det, symmetric_hungarian
from ncdeg.errors import AlgorithmStall
from ncdeg.scalar import GF
from ncdeg.symbolic import SymbolicMatrix, WeightedSymbolicMatrix
from referee import NotSorted, dual_forms_convert

print("debug", __debug__)
F = GF(5)
inst = BipartiteInstance(2, [(0, 0), (0, 1), (1, 1)], [3, 1, 2])
Ac = build_edmonds(inst, F)
prof = hungarian_deg_det(Ac, rng=random.Random(0))
print("values", sorted(prof.values.items()))
e = linalg.identity(3)
edges = ((0, 1), (0, 2), (1, 2))
K3 = SymbolicMatrix(F, [(np.outer(e[i], e[j]) - np.outer(e[j], e[i])) % 5 for i, j in edges])
prof = symmetric_hungarian(K3, [2, 1, 1], rng=random.Random(0))
print("symmetric", sorted(prof.values.items()))
G = GF(65521)
skew = [np.outer(a, b) - np.outer(b, a) for a, b in ((e[2], e[1]), (e[1] + e[2], e[0]))]
S = SymbolicMatrix(G, skew)
prof = hungarian_deg_det(WeightedSymbolicMatrix(S, [0, 0]), rng=random.Random(0))
w, _ = mvsp.blowup_witness(S, random.Random(0))
print("skew", sorted(prof.values.items()), (w.r, w.s))
mvsp.linalg.rank = lambda A, p: 1
try:
    mvsp.nc_rank(SymbolicMatrix(F, [linalg.identity(3)]), random.Random(0))
except AlgorithmStall:
    print("stall")
I = linalg.identity(2)
try:
    dual_forms_convert(DualSolution([0, 1], I, [0, 0], I, F), 1)
except NotSorted:
    print("not sorted")
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mvsp.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(os.path.abspath(__file__))]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:6] == [
        "debug False",
        "values [(0, 0), (1, 3), (2, 5)]",
        "symmetric [(0, 0), (1, 2), (2, 4), (3, 4)]",
        "skew [(0, 0), (1, 0), (2, 0), (3, -inf)] (2, 2)",  # dominant U = V = <e1, e2 - e3>
        "stall",
        "not sorted",
    ]


# ---------------------------------------------------------------------------
# exhaustive solver


def test_exhaustive_k3_value_and_dominant_pair():
    F = GF(2)
    A = tutte_k3(F)
    w = mvsp_exhaustive(A)
    assert w.value() == 3
    assert (w.r, w.s) == (3, 0)
    assert w.verify(A)


def test_exhaustive_zero_matrix():
    F = GF(3)
    A = SymbolicMatrix(F, [np.zeros((2, 2), dtype=np.int64)])
    w = mvsp_exhaustive(A)
    assert w.value() == 0
    assert (w.r, w.s) == (2, 2)
    assert w.verify(A)


def test_exhaustive_single_entry():
    F = GF(2)
    A = SymbolicMatrix(F, [unit(2, 2, 0, 0)])
    w = mvsp_exhaustive(A)
    assert w.value() == 1
    assert w.verify(A)
    # dominant U is everything that kills row 0 from the left, plus more:
    # u' E00 v = u_0 v_0, so U = span{e1} pairs with V = K^2, and
    # U = K^2 pairs with V = span{e1}; the former has the larger value sum
    assert w.r + w.s == 3
    assert contains(w.U, [[0, 1]], F.p)


def test_exhaustive_matches_nc_rank_random():
    rng = random.Random(23)
    for p in [2, 3]:
        F = GF(p)
        for _ in range(6):
            n = rng.randint(1, 3)
            m = rng.randint(1, 3)
            A = SymbolicMatrix(
                F, [linalg.rand_mat(rng, n, n, p) for _ in range(m)]
            )
            w = mvsp_exhaustive(A)
            assert w.verify(A)
            assert w.value() == nc_rank(A, rng)


def test_exhaustive_dominance_containment():
    rng = random.Random(91)
    F = GF(2)
    for _ in range(5):
        n = 3
        A = SymbolicMatrix(
            F, [linalg.rand_mat(rng, n, n, 2) for _ in range(rng.randint(1, 2))]
        )
        w = mvsp_exhaustive(A)
        val = w.value()
        for Ub in enumerate_subspaces(F, n):
            Vb = _max_vanishing_V(A, Ub)
            if 2 * n - Ub.shape[0] - Vb.shape[0] == val:
                assert contains(w.U, Ub, F.p)


# ---------------------------------------------------------------------------
# bipartite solver


@pytest.mark.parametrize("stored", ["factors", "terms"])
@pytest.mark.parametrize("rank", [1, 2])
def test_verify_rejects_bad_witnesses(rank, stored):
    F = GF(5)
    e = np.eye(3, dtype=np.int64)
    if rank == 1:  # e_0 e_0^t
        C, R = e[None, :, :1], e[None, :1, :]
        X, Y = [1, 2], [1, 2]
    else:  # e_0 e_1^t - e_1 e_0^t = [e_0 e_1] [e_1; -e_0]^t
        C, R = e[None, :, :2], np.stack([e[1], -e[0]])[None]
        X, Y = [0, 2], [0, 2]
    A = SymbolicMatrix(F, factors=(C, R))
    if stored == "terms":
        A = SymbolicMatrix(F, A.terms)
    assert FRWitness(F, e[X], e[Y]).verify(A)
    assert not FRWitness(F, e[[0, 1]], e[[0, 1]]).verify(A)  # a broken zero block
    # each basis below spans a vanishing space but is not in pivot form
    zero_row = np.stack([e[X[0]], 0 * e[0]])
    repeated = np.stack([e[X[0]], e[X[0]]])
    above = np.stack([e[X[1]], e[X[0]] + e[X[1]]])  # nonzero on the pivot above
    for bad in (zero_row, repeated, above):
        assert not FRWitness(F, bad, e[Y]).verify(A)
        assert not FRWitness(F, e[X], bad).verify(A)


def test_bipartite_single_edge():
    # dominant: r maximum, so both rows join the zero block against the
    # untouched column
    w = mvsp_bipartite(2, 2, [(0, 0)], GF(5))
    assert (w.r, w.s) == (2, 1)
    assert w.value() == 1
    A = edmonds(GF(5), 2, 2, [(0, 0)])
    assert w.verify(A)


def test_bipartite_perfect_matching():
    edges = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)]
    w = mvsp_bipartite(3, 3, edges, GF(2))
    assert w.value() == 3
    assert w.verify(edmonds(GF(2), 3, 3, edges))


def test_bipartite_empty_graph_needs_a_term():
    # an all-zero term stands in for the empty edge set
    F = GF(3)
    w = mvsp_bipartite(2, 3, [], F)
    assert w.value() == 0
    assert (w.r, w.s) == (2, 3)


def test_bipartite_matches_exhaustive_on_square():
    rng = random.Random(17)
    F = GF(2)
    for _ in range(8):
        n = 3
        all_edges = [(i, j) for i in range(n) for j in range(n)]
        k = rng.randint(1, 6)
        edges = sorted(rng.sample(all_edges, k))
        A = edmonds(F, n, n, edges)
        wb = mvsp_bipartite(n, n, edges, F)
        we = mvsp_exhaustive(A)
        assert wb.value() == we.value()
        assert (wb.r, wb.s) == (we.r, we.s)
        assert wb.verify(A)


def test_bipartite_rectangular_value():
    rng = random.Random(29)
    F = GF(5)
    for _ in range(5):
        nr, nc = 2, 4
        all_edges = [(i, j) for i in range(nr) for j in range(nc)]
        edges = sorted(rng.sample(all_edges, rng.randint(1, 5)))
        A = edmonds(F, nr, nc, edges)
        wb = mvsp_bipartite(nr, nc, edges, F)
        assert wb.verify(A)
        assert wb.value() == nc_rank(A, rng)


def test_max_matching_koenig_consistency():
    rng = random.Random(31)
    for _ in range(20):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        all_edges = [(i, j) for i in range(nr) for j in range(nc)]
        edges = rng.sample(all_edges, rng.randint(0, len(all_edges)))
        mr, mc = max_matching(nr, nc, edges)
        size = sum(1 for j in mr if j != -1)
        w = mvsp_bipartite(nr, nc, edges, GF(2))
        # matching size equals minimum cover size
        assert size == (nr - w.r) + (nc - w.s)


# ---------------------------------------------------------------------------
# matroid intersection solver


def test_matroid_free_case():
    F = GF(5)
    va = linalg.identity(3)
    J, I = matroid_intersection(va, va, 5)
    assert J == {0, 1, 2}
    assert I == set()  # the least minimizer: r_a({}) + r_b({0, 1, 2}) = 3
    # the witness carries the min-max certificate: value |J| = 3
    w, J = mvsp_matroid_intersection(va, va, F)
    assert J == (0, 1, 2) and w.value() == 3 and (w.r, w.s) == (3, 0)


def test_matroid_witness_stalls_on_a_short_common_independent_set(monkeypatch):
    # a J below the minimizer's bound breaks |J| = r_a(I) + r_b(E - I)
    route = mvsp.matroid_intersection
    monkeypatch.setattr(mvsp, "matroid_intersection", lambda *a: (set(list(route(*a)[0])[1:]), route(*a)[1]))
    with pytest.raises(AlgorithmStall, match="min-max"):
        mvsp_matroid_intersection(linalg.identity(3), linalg.identity(3), GF(5))


def test_koenig_witness_stalls_on_a_matching_that_is_not_maximum(monkeypatch):
    # an augmenting path is left, so the cover is larger than the matching
    monkeypatch.setattr(mvsp, "max_matching", lambda nr, nc, edges: ([-1] * nr, [-1] * nc))
    with pytest.raises(AlgorithmStall, match="not maximum"):
        mvsp_bipartite(2, 2, [(0, 0), (1, 1)], GF(5))
    with pytest.raises(AlgorithmStall, match="not maximum"):
        mvsp.nc_rank(edmonds(GF(5), 2, 2, [(0, 1)]))


def test_matroid_witness_diagonal():
    F = GF(5)
    eye = linalg.identity(3)
    w, J = mvsp_matroid_intersection(eye, eye, F)
    assert J == (0, 1, 2)
    A = SymbolicMatrix(
        F, [np.outer(eye[k], eye[k]) for k in range(3)]
    )
    assert w.value() == 3
    assert w.verify(A)


def test_matroid_all_zero_vectors():
    F = GF(3)
    va = np.zeros((2, 3), dtype=np.int64)
    w, J = mvsp_matroid_intersection(va, va, F)
    assert J == ()
    assert w.value() == 0
    A = SymbolicMatrix(F, [np.zeros((3, 3), dtype=np.int64)] * 2)
    assert w.verify(A)


def test_matroid_dependent_a_side():
    F = GF(7)
    e = linalg.identity(2)
    va = np.stack([e[0], e[0]])
    vb = np.stack([e[0], e[1]])
    w, J = mvsp_matroid_intersection(va, vb, F)
    A = SymbolicMatrix(F, [np.outer(va[k], vb[k]) for k in range(2)])
    assert w.verify(A)
    assert w.value() == blowup_witness(A, random.Random(2))[0].value() == 1
    # a start dependent on the a side is pruned to what both sides keep
    # independent, and the witness does not move
    warm, Jw = mvsp_matroid_intersection(va, vb, F, start=(0, 1))
    assert len(J) == len(Jw) == 1
    assert np.array_equal(warm.U, w.U) and np.array_equal(warm.V, w.V)


def test_matroid_matches_nc_rank_random():
    rng = random.Random(41)
    F = GF(5)
    for _ in range(8):
        m = rng.randint(1, 4)
        n = rng.randint(2, 3)
        va = linalg.rand_mat(rng, m, n, 5)
        vb = linalg.rand_mat(rng, m, n, 5)
        A = SymbolicMatrix(F, [np.outer(va[k], vb[k]) for k in range(m)])
        w, _ = mvsp_matroid_intersection(va, vb, F)
        assert w.verify(A)
        assert w.value() == blowup_witness(A, rng)[0].value()


# ---------------------------------------------------------------------------
# skew case


def test_symmetric_witness_k3():
    for p in [2, 3]:
        F = GF(p)
        A = tutte_k3(F)
        w = mvsp_symmetric_exhaustive(A)
        assert contains(w.U, w.V, F.p)
        assert np.array_equal(w.U[: w.s], w.V)
        assert w.verify(A)
        assert w.value() == 3


def test_symmetric_rejects_asymmetric():
    F = GF(3)
    A = SymbolicMatrix(F, [unit(2, 2, 0, 0)])
    with pytest.raises(NotSkewSymmetric):
        mvsp_symmetric_exhaustive(A)


def test_symmetric_random_skew_nests_subspaces():
    rng = random.Random(53)
    F = GF(3)
    for _ in range(5):
        n = 4
        terms = []
        for _ in range(2):
            M = np.zeros((n, n), dtype=np.int64)
            for i in range(n):
                for j in range(i + 1, n):
                    v = rng.randrange(3)
                    M[i, j] = v
                    M[j, i] = (-v) % 3
            terms.append(M)
        A = SymbolicMatrix(F, terms)
        w = mvsp_symmetric_exhaustive(A)
        assert contains(w.U, w.V, F.p)
        assert np.array_equal(w.U[: w.s], w.V)
        assert w.verify(A)


# ---------------------------------------------------------------------------
# pivot form


def test_pivot_form_reads_pivots():
    B = np.array([[0, 1, 2], [1, 0, 0]], dtype=np.int64)
    L = triangular(B)
    assert np.array_equal(L, [[1, 0, 0], [0, 1, 2], [0, 0, 1]])
    assert np.array_equal(L[[1, 0]], B)
    assert np.array_equal(triangular(np.zeros((0, 2), dtype=np.int64)), linalg.identity(2))


def test_pivot_form_rejects():
    for B in (
        np.zeros((1, 2), dtype=np.int64),  # a zero row
        np.array([[1, 0], [0, 0]], dtype=np.int64),  # a zero row below
        np.array([[1, 1], [1, 0]], dtype=np.int64),  # a repeated pivot
        np.array([[0, 1], [1, 1]], dtype=np.int64),  # nonzero on the pivot above
    ):
        with pytest.raises(Singular):
            triangular(B)


# ---------------------------------------------------------------------------
# block-diagonalization: a witness of a leading matrix splits along the
# runs of alpha and beta, so the Hungarian loop folds it as it is


def tight_part(A, alpha, beta, c):
    """The leading matrix of A[c] at (alpha, beta): each term kept on its
    cells with alpha_i + beta_j + c_k = 0."""
    tight = np.add.outer(alpha, beta)[None] + np.array(c)[:, None, None] == 0
    return SymbolicMatrix(A.F, A.terms * tight)


def across_runs(L, values):
    """L's entries whose row and column lie in different runs of values."""
    v = np.asarray(values)
    return L[v[:, None] != v[None, :]]


def test_blockdiag_single_block_always_safe():
    # with one run every entry is tight, and the fold leaves the zero
    # block X x Y zero
    rng = random.Random(71)
    F = GF(2)
    for _ in range(6):
        n = 3
        A = SymbolicMatrix(
            F, [linalg.rand_mat(rng, n, n, 2) for _ in range(rng.randint(1, 2))]
        )
        w = mvsp_exhaustive(A)
        folded = A.sandwich(triangular(w.U), triangular(w.V).T).terms
        assert w.verify(A)
        assert not folded[:, _pivots(w.U)][:, :, _pivots(w.V)].any()


def test_blockdiag_permutation_witness_any_partition():
    # a Koenig witness is a pair of distinct unit vectors, inside the runs
    # of any partition, and folds as the identity; a zero row, a repeated
    # pivot, a scaled unit row or a row of two entries is no such pair
    F = GF(5)
    w = mvsp_bipartite(3, 3, [(0, 0), (1, 0), (2, 2)], F)
    assert (w.r, w.s) == (3, 1)
    for B in (w.U, w.V):
        assert degdet._unit_rows(B)
        assert np.array_equal(triangular(B), linalg.identity(3))
    for B in ([[0, 0, 0]], [[1, 0, 0], [1, 0, 0]], [[0, 2, 0]], [[1, 1, 0]]):
        assert not degdet._unit_rows(np.array(B))


def test_blockdiag_keeps_a_nested_witness_nested():
    # the nested witness of a skew leading matrix leads U with V, and both
    # bases split along the runs of alpha = beta
    F = GF(2)
    A = tutte_k3(F)
    for alpha, c in (([0, 0, 0], [0, 0, -1]), ([1, 1, 0], [-2, -2, -1]), ([2, 1, 0], [-3, -2, -2])):
        At = tight_part(A, alpha, alpha, c)
        w = nested_witness(blowup_witness(At, random.Random(0))[0])
        assert w.verify(At) and np.array_equal(w.U[: w.s], w.V)
        assert w.value() == 2
        assert not across_runs(triangular(w.U), alpha).any()


def test_blockdiag_structure_is_block_diagonal():
    # on leading matrices with two runs a side, both factors of every
    # route's witness are block-diagonal for the runs, and invertible
    rng = random.Random(73)
    F = GF(3)
    n = 4
    alpha, beta = [1, 1, 0, 0], [5, 5, -2, -2]
    for _ in range(8):
        m = rng.randint(1, 3)
        terms = [np.outer(linalg.rand_mat(rng, 1, n, 3), linalg.rand_mat(rng, 1, n, 3)) for _ in range(m)]
        c = [rng.choice([-6, -5, 1, 2]) for _ in range(m)]
        At = tight_part(SymbolicMatrix(F, terms), alpha, beta, c)
        for w in (mvsp.witness(At)[0], blowup_witness(At, random.Random(0))[0], mvsp_exhaustive(At)):
            assert w.verify(At)
            for B, values in ((w.U, alpha), (w.V, beta)):
                L = triangular(B)
                assert not across_runs(L, values).any()
                assert linalg.rank(L, 3) == n
