import os
import random
import subprocess
import sys

import numpy as np
import pytest

from ncdeg import linalg, mvsp
from ncdeg.errors import (
    AlgorithmStall,
    EnumerationCapExceeded,
    NotSkewSymmetric,
    NotSorted,
    PartitionMismatch,
    Singular,
    SizeBudgetExceeded,
)
from ncdeg.mvsp import (
    FRWitness,
    Subspace,
    block_diagonalize_symmetric,
    block_diagonalize_witness,
    blowup_witness,
    count_subspaces,
    enumerate_subspaces,
    matroid_intersection,
    max_matching,
    mvsp_bipartite,
    mvsp_exhaustive,
    mvsp_matroid_intersection,
    mvsp_symmetric_exhaustive,
    nc_rank,
    pivot_form,
    _max_vanishing_V,
    _witness_from_subspaces,
)
from ncdeg.scalar import GF
from ncdeg.symbolic import SymbolicMatrix, default_trials


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


# ---------------------------------------------------------------------------
# Subspace


def test_subspace_canonical_equality():
    F = GF(5)
    a = Subspace(F, [[1, 2, 3], [0, 1, 4]])
    # scramble by row operations: same space, same canonical basis
    b = Subspace(F, [[1, 3, 7], [2, 4, 6]])
    assert a == b
    assert hash(a) == hash(b)
    assert a.dim == 2


def test_subspace_modular_identity():
    F = GF(3)
    rng = random.Random(11)
    for _ in range(40):
        n = 4
        A = Subspace(F, linalg.rand_mat(rng, rng.randint(0, 3), n, 3))
        B = Subspace(F, linalg.rand_mat(rng, rng.randint(0, 3), n, 3))
        s = A.add(B)
        i = A.intersect(B)
        assert s.dim + i.dim == A.dim + B.dim
        assert s.contains_subspace(A) and s.contains_subspace(B)
        assert A.contains_subspace(i) and B.contains_subspace(i)


def test_subspace_annihilator_involution():
    F = GF(5)
    rng = random.Random(3)
    for _ in range(25):
        A = Subspace(F, linalg.rand_mat(rng, 2, 4, 5))
        assert A.annihilator().annihilator() == A
        assert A.dim + A.annihilator().dim == 4


def test_subspace_completion_nonsingular():
    F = GF(7)
    rng = random.Random(5)
    for _ in range(25):
        A = Subspace(F, linalg.rand_mat(rng, rng.randint(0, 4), 4, 7))
        full = np.concatenate([A.basis, A.completion()])
        assert full.shape == (4, 4)
        assert linalg.rank(full, 7) == 4


def test_subspace_enumeration_counts():
    assert count_subspaces(2, 3) == 16
    assert count_subspaces(2, 4) == 67
    assert count_subspaces(3, 3) == 28
    subs = enumerate_subspaces(GF(2), 3)
    assert len(subs) == 16
    seen = {Subspace(GF(2), b).encode() for b in subs}
    assert len(seen) == 16


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


def test_guarantees_hold_under_optimize_flag():
    # python -O strips asserts: every engine must still finish with the
    # right values, and nc_rank must still give up instead of looping forever
    script = """
import random
import numpy as np
from ncdeg import linalg, mvsp
from ncdeg.apps import BipartiteInstance, build_edmonds
from ncdeg.degdet import (
    DualSolution, deg_subdet, dual_forms_convert, hungarian_deg_det, symmetric_hungarian
)
from ncdeg.errors import AlgorithmStall, NotSorted
from ncdeg.scalar import GF
from ncdeg.symbolic import RationalSymbolicMatrix, SymbolicMatrix, WeightedSymbolicMatrix

print("debug", __debug__)
F = GF(5)
inst = BipartiteInstance(2, [(0, 0), (0, 1), (1, 1)], [3, 1, 2])
Ac = build_edmonds(inst, F)
prof = hungarian_deg_det(Ac, rng=random.Random(0))
print("values", sorted(prof.values.items()))
prof = deg_subdet(RationalSymbolicMatrix.from_weighted(Ac), rng=random.Random(0))
print("subdet", sorted(prof.values.items()))
e = linalg.identity(3)
edges = ((0, 1), (0, 2), (1, 2))
K3 = SymbolicMatrix(F, [(np.outer(e[i], e[j]) - np.outer(e[j], e[i])) % 5 for i, j in edges])
prof = symmetric_hungarian(K3, [2, 1, 1], rng=random.Random(0))
print("symmetric", sorted(prof.values.items()))
G = GF(65521)
skew = [np.outer(a, b) - np.outer(b, a) for a, b in ((e[2], e[1]), (e[1] + e[2], e[0]))]
S = SymbolicMatrix(G, skew)
prof = hungarian_deg_det(WeightedSymbolicMatrix(S, [0, 0]), rng=random.Random(0))
w = mvsp.blowup_witness(S, random.Random(0))[0]
print("skew", sorted(prof.values.items()), (w.r, w.s))
mvsp.linalg.rank = lambda A, p: 1
try:
    mvsp.nc_rank(SymbolicMatrix(F, [linalg.identity(3)]), random.Random(0))
except AlgorithmStall:
    print("stall")
I = linalg.identity(2)
try:
    dual_forms_convert(DualSolution([0, 1], I, [0, 0], I, "monomial", F), 1)
except NotSorted:
    print("not sorted")
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mvsp.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:7] == [
        "debug False",
        "values [(0, 0), (1, 3), (2, 5)]",
        "subdet [(0, 0), (1, 3), (2, 5)]",
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
    w, U, V = mvsp_exhaustive(A)
    assert w.value() == 3
    assert (U.dim, V.dim) == (3, 0)
    assert w.verify(A)
    assert (w.r, w.s) == (U.dim, V.dim)


def test_exhaustive_zero_matrix():
    F = GF(3)
    A = SymbolicMatrix(F, [np.zeros((2, 2), dtype=np.int64)])
    w, U, V = mvsp_exhaustive(A)
    assert w.value() == 0
    assert (U.dim, V.dim) == (2, 2)
    assert w.verify(A)


def test_exhaustive_single_entry():
    F = GF(2)
    A = SymbolicMatrix(F, [unit(2, 2, 0, 0)])
    w, U, V = mvsp_exhaustive(A)
    assert w.value() == 1
    assert w.verify(A)
    # dominant U is everything that kills row 0 from the left, plus more:
    # u' E00 v = u_0 v_0, so U = span{e1} pairs with V = K^2, and
    # U = K^2 pairs with V = span{e1}; the former has the larger value sum
    assert U.dim + V.dim == 3
    assert U.contains([0, 1])


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
            w, U, V = mvsp_exhaustive(A)
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
        w, U, V = mvsp_exhaustive(A)
        val = w.value()
        for Ub in enumerate_subspaces(F, n):
            Vb = _max_vanishing_V(A, Ub)
            if 2 * n - Ub.shape[0] - Vb.shape[0] == val:
                assert U.contains_subspace(Subspace(F, Ub))


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
    S_sing, T_sing = e.copy(), e.copy()
    S_sing[({0, 1, 2} - set(X)).pop()] = 0  # singular, same zero block
    T_sing[:, ({0, 1, 2} - set(Y)).pop()] = 0
    assert FRWitness(F, e, e, 2, 2, X, Y).verify(A)
    assert not FRWitness(F, e, e, 2, 2, [0, 1], [0, 1]).verify(A)  # nonzero in the block
    assert not FRWitness(F, S_sing, e, 2, 2, X, Y).verify(A)
    assert not FRWitness(F, e, T_sing, 2, 2, X, Y).verify(A)
    assert not FRWitness(F, e, e, 2, 2, X[:1], Y).verify(A)  # row_set of the wrong length


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
        we, U, V = mvsp_exhaustive(A)
        assert wb.value() == we.value()
        assert (wb.r, wb.s) == (U.dim, V.dim)
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


def test_matroid_witness_diagonal():
    F = GF(5)
    eye = linalg.identity(3)
    w = mvsp_matroid_intersection(eye, eye, F)
    A = SymbolicMatrix(
        F, [np.outer(eye[k], eye[k]) for k in range(3)]
    )
    assert w.value() == 3
    assert w.verify(A)


def test_matroid_all_zero_vectors():
    F = GF(3)
    va = np.zeros((2, 3), dtype=np.int64)
    w = mvsp_matroid_intersection(va, va, F)
    assert w.value() == 0
    A = SymbolicMatrix(F, [np.zeros((3, 3), dtype=np.int64)] * 2)
    assert w.verify(A)


def test_matroid_dependent_a_side():
    F = GF(7)
    e = linalg.identity(2)
    va = np.stack([e[0], e[0]])
    vb = np.stack([e[0], e[1]])
    w = mvsp_matroid_intersection(va, vb, F)
    A = SymbolicMatrix(F, [np.outer(va[k], vb[k]) for k in range(2)])
    assert w.verify(A)
    assert w.value() == blowup_witness(A, random.Random(2))[0].value() == 1


def test_matroid_matches_nc_rank_random():
    rng = random.Random(41)
    F = GF(5)
    for _ in range(8):
        m = rng.randint(1, 4)
        n = rng.randint(2, 3)
        va = linalg.rand_mat(rng, m, n, 5)
        vb = linalg.rand_mat(rng, m, n, 5)
        A = SymbolicMatrix(F, [np.outer(va[k], vb[k]) for k in range(m)])
        w = mvsp_matroid_intersection(va, vb, F)
        assert w.verify(A)
        assert w.value() == blowup_witness(A, rng)[0].value()


# ---------------------------------------------------------------------------
# skew case


def test_symmetric_witness_k3():
    for p in [2, 3]:
        F = GF(p)
        A = tutte_k3(F)
        w, U, V = mvsp_symmetric_exhaustive(A)
        assert U.contains_subspace(V)
        assert np.array_equal(w.T, w.S.T)
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
        w, U, V = mvsp_symmetric_exhaustive(A)
        assert U.contains_subspace(V)
        assert np.array_equal(w.T, w.S.T)
        assert w.verify(A)


# ---------------------------------------------------------------------------
# pivot form


def test_pivot_form_reads_pivots():
    S = np.array([[0, 1, 2], [1, 0, 0], [0, 0, 3]], dtype=np.int64)
    pi, U = pivot_form(S)
    assert pi.tolist() == [1, 0, 2]
    assert np.array_equal(U, [[1, 0, 0], [0, 1, 2], [0, 0, 3]])
    assert np.array_equal(U[pi], S)


def test_pivot_form_rejects():
    for S in (
        np.zeros((2, 2), dtype=np.int64),  # a zero row
        np.array([[1, 0], [0, 0]], dtype=np.int64),  # a zero row below
        np.array([[1, 1], [1, 0]], dtype=np.int64),  # a repeated pivot
        np.array([[0, 1], [1, 1]], dtype=np.int64),  # nonzero on the pivot above
        np.ones((2, 3), dtype=np.int64),  # not square
    ):
        with pytest.raises(Singular):
            pivot_form(S)


# ---------------------------------------------------------------------------
# block-diagonalization


def test_blockdiag_single_block_always_safe():
    rng = random.Random(71)
    F = GF(2)
    for _ in range(6):
        n = 3
        A = SymbolicMatrix(
            F, [linalg.rand_mat(rng, n, n, 2) for _ in range(rng.randint(1, 2))]
        )
        w, U, V = mvsp_exhaustive(A)
        out = block_diagonalize_witness(w, [0] * n, [0] * n, A)
        assert out.value() == w.value()
        assert len(out.row_set) == out.r and len(out.col_set) == out.s
        assert out.verify(A)


def test_blockdiag_permutation_witness_any_partition():
    # permutation S and T survive arbitrary consistent partitions
    F = GF(5)
    A = edmonds(F, 2, 2, [(0, 0)])
    w = mvsp_bipartite(2, 2, [(0, 0)], F)
    out = block_diagonalize_witness(w, [1, 0], [1, 0], A)
    assert out.verify(A)
    # block-diagonal with singleton blocks means monomial S and T
    assert (np.count_nonzero(out.S, axis=1) <= 1).all()


def test_blockdiag_rejects_bad_partition():
    F = GF(2)
    A = tutte_k3(F)
    w, _, _ = mvsp_exhaustive(A)
    with pytest.raises(PartitionMismatch):
        block_diagonalize_witness(w, [0, 0], [0, 0, 0], A)
    with pytest.raises(PartitionMismatch):
        block_diagonalize_witness(w, [0, 0, 0], [1, 0, 0, 0], A)
    with pytest.raises(NotSorted):
        block_diagonalize_witness(w, [1, 0, 1], [0, 0, 0], A)
    with pytest.raises(NotSorted):
        block_diagonalize_witness(w, [0, 0, 0], [0, 0, 1], A)
    ws, _, _ = mvsp_symmetric_exhaustive(A)
    with pytest.raises(PartitionMismatch):
        block_diagonalize_symmetric(ws, [2, 1], A)
    with pytest.raises(NotSorted):
        block_diagonalize_symmetric(ws, [0, 1, 1], A)


def test_blockdiag_structure_is_block_diagonal():
    rng = random.Random(73)
    F = GF(3)
    n = 4
    U, V = (Subspace(F, linalg.rand_mat(rng, rng.randint(1, n), n, 3)) for _ in range(2))
    w = _witness_from_subspaces(F, U, V)
    w = FRWitness(F, w.S, w.T, 0, 0)
    out = block_diagonalize_witness(w, [1, 1, 0, 0], [5, 5, -2, -2], SymbolicMatrix(F, [w.S]))
    assert out.S[np.ix_([0, 1], [2, 3])].sum() == 0
    assert out.S[np.ix_([2, 3], [0, 1])].sum() == 0
    assert out.T[np.ix_([0, 1], [2, 3])].sum() == 0
    assert out.T[np.ix_([2, 3], [0, 1])].sum() == 0
    assert linalg.rank(out.S, 3) == n
    assert linalg.rank(out.T, 3) == n
