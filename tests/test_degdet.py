import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from ncdeg import degdet, linalg
from ncdeg.apps import BipartiteInstance, brute_force_matching_oracles, build_edmonds
from ncdeg.degdet import (
    DegreeProfile,
    DualSolution,
    NEG_INF,
    StepSizes,
    deg_det,
    deg_subdet,
    dual_forms_convert,
    hungarian_deg_det,
    optimize_Q,
    random_feasible_dual,
    renormalize,
    symmetric_hungarian,
    verify_dual,
)
from ncdeg.errors import (
    LPInfeasible,
    NotComplementarySlack,
    NotSkewSymmetric,
    NotSorted,
)
from ncdeg.mvsp import (
    blowup_witness,
    mvsp_bipartite,
    mvsp_exhaustive,
    mvsp_matroid_intersection,
)
from ncdeg.ratfunc import Poly, RatFn, RationalMatrix, classify_biproper
from ncdeg.scalar import GF
from ncdeg.symbolic import (
    RationalSymbolicMatrix,
    SymbolicMatrix,
    WeightedSymbolicMatrix,
)


def unit(n_rows, n_cols, i, j):
    M = np.zeros((n_rows, n_cols), dtype=np.int64)
    M[i, j] = 1
    return M


def edmonds_w(F, n_rows, n_cols, cells):
    """One variable per cell (i, j, weight)."""
    base = SymbolicMatrix(F, [unit(n_rows, n_cols, i, j) for i, j, _ in cells])
    return WeightedSymbolicMatrix(base, [w for _, _, w in cells])


def tutte_k3(F):
    terms = []
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        M = np.zeros((3, 3), dtype=np.int64)
        M[i, j] = 1
        M[j, i] = (-1) % F.p
        terms.append(M)
    return SymbolicMatrix(F, terms)


def bf_matching(cells, ell):
    """Max weight of an ell-matching among (i, j, w) cells."""
    best = NEG_INF
    for sub in combinations(cells, ell):
        rows = {i for i, _, _ in sub}
        cols = {j for _, j, _ in sub}
        if len(rows) == ell and len(cols) == ell:
            best = max(best, sum(w for _, _, w in sub))
    return best if ell else 0


def bf_common_independent(va, vb, c, ell, p):
    """Max weight common independent ell-subset of paired vectors."""
    m = va.shape[0]
    best = NEG_INF
    for sub in combinations(range(m), ell):
        idx = list(sub)
        if (
            linalg.rank(va[idx], p) == ell
            and linalg.rank(vb[idx], p) == ell
        ):
            best = max(best, sum(c[k] for k in idx))
    return best if ell else 0


def rational_diag(F, *entries):
    n = len(entries)
    rows = [
        [entries[i] if i == j else RatFn.zero(F) for j in range(n)]
        for i in range(n)
    ]
    return RationalMatrix(F, rows)


def rmat_eq(A, B):
    ra, ca = A.shape
    rb, cb = B.shape
    if (ra, ca) != (rb, cb):
        return False
    return all(A.rows[i][j] == B.rows[i][j] for i in range(ra) for j in range(ca))


# ---------------------------------------------------------------------------
# general engine


def test_deg_det_diagonal_powers():
    F = GF(65521)
    t2 = RatFn.monomial(F, 1, 2)
    t3 = RatFn.monomial(F, 1, 3)
    z = RatFn.zero(F)
    B = RationalSymbolicMatrix(
        F,
        [
            RationalMatrix(F, [[t2, z], [z, z]]),
            RationalMatrix(F, [[z, z], [z, t3]]),
        ],
    )
    prof = deg_subdet(B, rng=random.Random(1))
    assert prof.values == {0: 0, 1: 3, 2: 5}
    assert deg_det(B, rng=random.Random(1)) == 5
    for ell in (1, 2):
        assert verify_dual(prof.duals[ell], B, ell, prof.values[ell])


def test_deg_det_weighted_bipartite():
    F = GF(65521)
    Ac = edmonds_w(F, 2, 2, [(0, 0, 3), (0, 1, 1), (1, 0, 2), (1, 1, 4)])
    B = RationalSymbolicMatrix.from_weighted(Ac)
    assert deg_det(B, rng=random.Random(2)) == 7


def test_deg_det_rank_deficient_is_neg_inf():
    F = GF(65521)
    ones = RationalMatrix.from_scalars(F, np.ones((2, 2), dtype=np.int64))
    B = RationalSymbolicMatrix(F, [ones])
    prof = deg_subdet(B, rng=random.Random(3))
    assert prof.values == {0: 0, 1: 0, 2: NEG_INF}
    assert deg_det(B, rng=random.Random(3)) == NEG_INF


def test_deg_subdet_single_variable_diagonal():
    F = GF(65521)
    B = RationalSymbolicMatrix(
        F,
        [rational_diag(F, RatFn.monomial(F, 1, 2), RatFn.monomial(F, 1, 1))],
    )
    prof = deg_subdet(B, rng=random.Random(4))
    assert prof.values == {0: 0, 1: 2, 2: 3}
    assert prof.is_concave()


def test_deg_subdet_k3_unit_weights():
    F = GF(65521)
    Ac = WeightedSymbolicMatrix(tutte_k3(F), [1, 1, 1])
    prof = deg_subdet(RationalSymbolicMatrix.from_weighted(Ac), rng=random.Random(5))
    assert prof.values == {0: 0, 1: 1, 2: 2, 3: 3}


def test_deg_subdet_rank_one_tail():
    F = GF(65521)
    t1 = RatFn.monomial(F, 1, 1)
    one = RatFn.one(F)
    B = RationalSymbolicMatrix(
        F, [RationalMatrix(F, [[t1, one], [t1, one]])]
    )
    prof = deg_subdet(B, rng=random.Random(6))
    assert prof.values == {0: 0, 1: 1, 2: NEG_INF}


def test_deg_subdet_rational_entries():
    F = GF(65521)
    inv1t = RatFn(Poly.one(F), Poly(F, [1, 1]))  # 1/(1+t)
    one = RatFn.one(F)
    B1 = RationalSymbolicMatrix(F, [RationalMatrix(F, [[inv1t]])])
    assert deg_subdet(B1, rng=random.Random(7)).values == {0: 0, 1: -1}
    B2 = RationalSymbolicMatrix(
        F, [RationalMatrix(F, [[inv1t, one], [one, one]])]
    )
    prof = deg_subdet(B2, rng=random.Random(8))
    assert prof.values == {0: 0, 1: 0, 2: 0}


def test_deg_subdet_agrees_with_hungarian_on_monomials():
    rng = random.Random(99)
    F = GF(65521)
    for _ in range(12):
        n_r = rng.randint(1, 3)
        n_c = rng.randint(1, 3)
        cells = [
            (i, j, rng.randint(-3, 3))
            for i in range(n_r)
            for j in range(n_c)
            if rng.random() < 0.7
        ]
        if not cells:
            continue
        Ac = edmonds_w(F, n_r, n_c, cells)
        hun = hungarian_deg_det(Ac, rng=random.Random(10))
        gen = deg_subdet(
            RationalSymbolicMatrix.from_weighted(Ac), rng=random.Random(11)
        )
        assert hun.values == gen.values


# ---------------------------------------------------------------------------
# monomial engine


def test_hungarian_two_by_two_complete():
    F = GF(65521)
    Ac = edmonds_w(F, 2, 2, [(0, 0, 3), (0, 1, 1), (1, 0, 2), (1, 1, 4)])
    prof = hungarian_deg_det(Ac, rng=random.Random(12))
    assert prof.values == {0: 0, 1: 4, 2: 7}
    assert prof.meta["iteration_bound_ok"]
    for ell in (1, 2):
        assert verify_dual(prof.duals[ell], Ac, ell, prof.values[ell])


def test_hungarian_weights_beyond_int64():
    # past 2^61 the slack arithmetic runs on Python ints, still exactly
    big = 10**30
    F = GF(65521)
    Ac = edmonds_w(F, 2, 2, [(0, 0, 3 * big), (0, 1, big), (1, 0, 2 * big), (1, 1, 4 * big + 1)])
    prof = hungarian_deg_det(Ac, rng=random.Random(12))
    assert prof.values == {0: 0, 1: 4 * big + 1, 2: 7 * big + 1}
    assert all(verify_dual(prof.duals[l], Ac, l, prof.values[l]) for l in (1, 2))
    sym = symmetric_hungarian(tutte_k3(GF(5)), [2 * big, big, big], rng=random.Random(22))
    assert sym.values == {0: 0, 1: 2 * big, 2: 4 * big, 3: 4 * big}


def test_hungarian_k3_unit_weights():
    F = GF(5)
    Ac = WeightedSymbolicMatrix(tutte_k3(F), [1, 1, 1])
    prof = hungarian_deg_det(Ac, rng=random.Random(13))
    assert prof.values == {0: 0, 1: 1, 2: 2, 3: 3}


def test_hungarian_zero_weights():
    F = GF(5)
    Ac = WeightedSymbolicMatrix(tutte_k3(F), [0, 0, 0])
    prof = hungarian_deg_det(Ac, rng=random.Random(14))
    assert prof.values == {0: 0, 1: 0, 2: 0, 3: 0}

    ones = SymbolicMatrix(GF(65521), [np.ones((2, 2), dtype=np.int64)])
    prof2 = hungarian_deg_det(
        WeightedSymbolicMatrix(ones, [0]), rng=random.Random(15)
    )
    assert prof2.values == {0: 0, 1: 0, 2: NEG_INF}


def test_hungarian_matches_brute_force():
    rng = random.Random(1234)
    F = GF(65521)
    for _ in range(40):
        n_r = rng.randint(1, 3)
        n_c = rng.randint(1, 3)
        cells = [
            (i, j, rng.randint(-4, 4))
            for i in range(n_r)
            for j in range(n_c)
            if rng.random() < 0.6
        ]
        if not cells:
            continue
        Ac = edmonds_w(F, n_r, n_c, cells)
        prof = hungarian_deg_det(Ac, rng=random.Random(16))
        n = prof.n
        assert prof.is_concave()
        assert prof.meta["iteration_bound_ok"]
        for ell in range(n + 1):
            expect = bf_matching(cells, ell) if ell <= min(n_r, n_c) else NEG_INF
            assert prof.values[ell] == expect, (cells, ell)
            if prof.values[ell] != NEG_INF and ell > 0:
                assert verify_dual(prof.duals[ell], Ac, ell, prof.values[ell])


def test_hungarian_matroid_instances():
    rng = random.Random(77)
    F = GF(5)
    for _ in range(8):
        n = 4
        m = rng.randint(2, 6)
        va = linalg.rand_mat(rng, m, n, 5)
        vb = linalg.rand_mat(rng, m, n, 5)
        c = [rng.randint(-2, 3) for _ in range(m)]
        terms = [np.outer(va[k], vb[k]) % 5 for k in range(m)]
        Ac = WeightedSymbolicMatrix(SymbolicMatrix(F, terms), c)
        prof = hungarian_deg_det(Ac, rng=random.Random(17))
        for ell in range(n + 1):
            assert prof.values[ell] == bf_common_independent(va, vb, c, ell, 5)


def test_hungarian_solver_variants_agree(monkeypatch):
    # every leading matrix the engine meets gets the same certified value
    # from each witness solver that applies to it
    seen = []
    route = degdet.witness

    def record(A, rng):
        seen.append(A)
        return route(A, rng)

    monkeypatch.setattr(degdet, "witness", record)
    F = GF(5)
    hungarian_deg_det(WeightedSymbolicMatrix(tutte_k3(F), [2, 1, 1]), rng=random.Random(18))
    hungarian_deg_det(
        edmonds_w(F, 2, 2, [(0, 0, 1), (1, 1, 2), (0, 1, 0)]), rng=random.Random(20)
    )
    assert len(seen) == 5
    n_bipartite = 0
    for A in seen:
        witnesses = [mvsp_exhaustive(A)[0], blowup_witness(A, random.Random(0))[0]]
        C, R = A.factors
        if C.shape[2] == 1:
            u, v = C[:, :, 0], R[:, 0, :]
            witnesses.append(mvsp_matroid_intersection(u, v, F))
            if ((u != 0).sum(axis=1) <= 1).all() and ((v != 0).sum(axis=1) <= 1).all():
                n_bipartite += 1
                edges = [(a.argmax(), b.argmax()) for a, b in zip(u, v) if a.any() and b.any()]
                witnesses.append(mvsp_bipartite(A.n_rows, A.n_cols, edges, F))
        assert all(w.verify(A) for w in witnesses)
        assert len({w.value() for w in witnesses}) == 1
        assert route(A, random.Random(0)).value() == witnesses[0].value()
    assert n_bipartite == 2


# ---------------------------------------------------------------------------
# symmetric engine


def test_symmetric_k3_unit_weights():
    F = GF(5)
    prof = symmetric_hungarian(tutte_k3(F), [1, 1, 1], rng=random.Random(21))
    assert prof.values == {0: 0, 1: 1, 2: 2, 3: 3}
    assert isinstance(prof.duals[3].alpha[0], Fraction)


def test_symmetric_k3_uneven_weights():
    # the 2x2 minor on rows {0,1} x cols {0,1} uses the weight-2 edge
    # twice, so level 2 reaches 4
    F = GF(5)
    prof = symmetric_hungarian(tutte_k3(F), [2, 1, 1], rng=random.Random(22))
    assert prof.values == {0: 0, 1: 2, 2: 4, 3: 4}


def test_symmetric_zero_weights():
    F = GF(5)
    prof = symmetric_hungarian(tutte_k3(F), [0, 0, 0], rng=random.Random(23))
    assert prof.values == {0: 0, 1: 0, 2: 0, 3: 0}


def test_symmetric_single_edge_tail():
    F = GF(5)
    M = np.zeros((4, 4), dtype=np.int64)
    M[0, 1] = 1
    M[1, 0] = (-1) % 5
    prof = symmetric_hungarian(
        SymbolicMatrix(F, [M]), [3], rng=random.Random(24)
    )
    assert prof.values == {0: 0, 1: 3, 2: 6, 3: NEG_INF, 4: NEG_INF}


def test_symmetric_matches_two_sided():
    rng = random.Random(555)
    for _ in range(10):
        p = rng.choice([3, 5])
        F = GF(p)
        n = 4
        m = rng.randint(1, 3)
        terms = []
        for _ in range(m):
            Mu = np.triu(linalg.rand_mat(rng, n, n, p), 1)
            terms.append((Mu - Mu.T) % p)
        c = [rng.randint(0, 2) for _ in range(m)]
        A = SymbolicMatrix(F, terms)
        sym = symmetric_hungarian(A, c, rng=random.Random(25))
        two = hungarian_deg_det(
            WeightedSymbolicMatrix(A, c), rng=random.Random(26)
        )
        assert sym.values == two.values
        Ac = WeightedSymbolicMatrix(A, c)
        for ell, v in sym.values.items():
            if v != NEG_INF and ell > 0:
                assert verify_dual(sym.duals[ell], Ac, ell, v)


def test_symmetric_rejects_asymmetric():
    F = GF(5)
    with pytest.raises(NotSkewSymmetric):
        symmetric_hungarian(
            SymbolicMatrix(F, [unit(2, 2, 0, 1)]), [1]
        )


# ---------------------------------------------------------------------------
# step sizes and renormalization


def test_step_sizes_prefix_sets_unbounded_kappa2():
    F = GF(5)
    Ac = edmonds_w(F, 2, 2, [(0, 0, 0)])
    inc_a, inc_b = degdet._two_sided_direction([0], [0], 2)
    ks = degdet._step_bounds(Ac.base.support(), [0, 0], [-5, -5], Ac.c, inc_a, inc_b)
    assert ks.kappa2 == float("inf")
    assert ks.kappa1 == 5
    assert ks.kappa == 5


def test_step_sizes_adjacent_gap_binds():
    F = GF(5)
    Ac = edmonds_w(F, 2, 2, [(1, 0, 0)])
    inc_a, inc_b = degdet._two_sided_direction([1], [0, 1], 2)
    ks = degdet._step_bounds(Ac.base.support(), [2, 0], [0, -1], Ac.c, inc_a, inc_b)
    assert ks.kappa2 == 2


def test_renormalize_spec_example():
    F = GF(5)
    U = np.array([[1, 1], [0, 1]], dtype=np.int64)
    P = RationalMatrix.identity(F, 2)
    exps, P2 = renormalize(1, [1], [1, 0], U, P, side="left")
    assert exps == [1, 1]
    assert classify_biproper(P2).is_biproper


def test_renormalize_rejects_unsorted():
    F = GF(5)
    with pytest.raises(NotSorted):
        renormalize(1, [0], [0, 1], np.eye(2, dtype=np.int64),
                    RationalMatrix.identity(F, 2), side="left")


def test_renormalize_left_identity():
    # (t^{kappa 1_r}) pi U (t^alpha) P  must equal  pi sigma' (t^{alpha'}) P'
    F = GF(5)
    rng = random.Random(31)
    for _ in range(6):
        n = 3
        alpha = sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True)
        U = np.triu(linalg.rand_mat(rng, n, n, 5), 1) + np.eye(n, dtype=np.int64)
        perm = list(range(n))
        rng.shuffle(perm)
        r = rng.randint(1, n)
        kappa = rng.randint(1, 3)
        P = RationalMatrix.from_scalars(F, linalg.rand_mat(rng, n, n, 5))
        X = {perm[i] for i in range(r)}

        exps, P2 = renormalize(kappa, X, alpha, U, P, side="left")

        Pi = RationalMatrix.from_scalars(
            F, np.eye(n, dtype=np.int64)[perm]
        )
        lhs = (
            RationalMatrix.identity(F, n)
            .scale_rows([kappa if i < r else 0 for i in range(n)])
            .matmul(Pi)
            .matmul(RationalMatrix.from_scalars(F, U).scale_cols(alpha))
            .matmul(P)
        )
        raised = [alpha[i] + (kappa if i in X else 0) for i in range(n)]
        sigma = sorted(range(n), key=lambda i: (-raised[i], i))
        Sg = np.zeros((n, n), dtype=np.int64)
        for a, i in enumerate(sigma):
            Sg[a, i] = 1
        rhs = (
            Pi
            .matmul(RationalMatrix.from_scalars(F, Sg.T))
            .matmul(RationalMatrix.identity(F, n).scale_rows(exps))
            .matmul(P2)
        )
        assert rmat_eq(lhs, rhs)


def test_renormalize_right_identity():
    # Q (t^beta) M pi (t^{kappa(1_s - 1)})  must equal  Q' (t^{beta'}) sigma pi
    F = GF(5)
    rng = random.Random(32)
    for _ in range(6):
        n = 3
        beta = sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True)
        M = np.tril(linalg.rand_mat(rng, n, n, 5), -1) + np.eye(n, dtype=np.int64)
        perm = list(range(n))
        rng.shuffle(perm)
        s = rng.randint(1, n)
        kappa = rng.randint(1, 3)
        Q = RationalMatrix.from_scalars(F, linalg.rand_mat(rng, n, n, 5))
        Pi = RationalMatrix.from_scalars(F, np.eye(n, dtype=np.int64)[perm])
        Y = {j for j in range(n) if perm[j] < s}

        exps, Q2 = renormalize(kappa, Y, beta, M, Q, side="right")

        lhs = (
            Q.matmul(RationalMatrix.from_scalars(F, M).scale_rows(beta))
            .matmul(Pi)
            .matmul(
                RationalMatrix.identity(F, n).scale_cols(
                    [0 if j < s else -kappa for j in range(n)]
                )
            )
        )
        raised = [beta[j] + (0 if j in Y else -kappa) for j in range(n)]
        sigma = sorted(range(n), key=lambda j: (-raised[j], j))
        Sg = np.zeros((n, n), dtype=np.int64)
        for a, j in enumerate(sigma):
            Sg[a, j] = 1
        rhs = (
            Q2.matmul(RationalMatrix.identity(F, n).scale_cols(exps))
            .matmul(RationalMatrix.from_scalars(F, Sg))
            .matmul(Pi)
        )
        assert rmat_eq(lhs, rhs)


# ---------------------------------------------------------------------------
# dual conversions


def test_dual_forms_convert_identity():
    F = GF(5)
    Ac = WeightedSymbolicMatrix(tutte_k3(F), [1, 1, 1])
    prof = hungarian_deg_det(Ac, rng=random.Random(27))
    sol = prof.duals[3]
    xi, eta, gamma, flags_U, flags_V = dual_forms_convert(sol, 3)
    assert all(x >= 0 for x in xi) and all(e >= 0 for e in eta)
    assert sum(xi) + sum(eta) + 3 * gamma == prof.values[3]
    # arithmetic feasibility on the transformed support
    p = F.p
    for k in range(3):
        M = linalg.matmul(
            linalg.matmul(sol.P, Ac.base.term(k), p), sol.Q, p
        )
        for i, j in zip(*np.nonzero(M)):
            assert xi[i] + eta[j] + gamma >= Ac.c[k]
    assert [f.dim for f in flags_U] == [1, 2, 3]
    assert all(
        flags_U[i].contains_subspace(flags_U[i - 1]) for i in range(1, 3)
    )
    assert all(
        flags_V[j].contains_subspace(flags_V[j - 1]) for j in range(1, 3)
    )


def test_dual_forms_convert_needs_flat_head():
    F = GF(5)
    sol = DualSolution(
        [2, 1, 0], linalg.identity(3), [0, 0, 0], linalg.identity(3),
        "monomial", F,
    )
    with pytest.raises(NotComplementarySlack):
        dual_forms_convert(sol, 1)


def test_dual_forms_convert_rejects_unsorted_alpha():
    # the head is flat, but alpha rises after it, so xi would go negative
    F = GF(5)
    I = linalg.identity(2)
    sol = DualSolution([0, 1], I, [0, 0], I, "monomial", F)
    with pytest.raises(NotSorted):
        dual_forms_convert(sol, 1)


# ---------------------------------------------------------------------------
# the subdeterminant polytope


def test_optimize_q_bipartite():
    F = GF(65521)
    Ac = edmonds_w(F, 2, 2, [(0, 0, 3), (0, 1, 1), (1, 0, 2), (1, 1, 4)])
    assert optimize_Q(Ac, 0, rng=random.Random(28)) == [0, 0, 0, 0]
    assert optimize_Q(Ac, 2, rng=random.Random(28)) == [1, 0, 0, 1]
    u1 = optimize_Q(Ac, 1, rng=random.Random(28))
    assert sum(u1) == 1
    assert sum(c * u for c, u in zip(Ac.c, u1)) == 4


def test_optimize_q_k3():
    F = GF(5)
    Ac = WeightedSymbolicMatrix(tutte_k3(F), [1, 1, 1])
    assert optimize_Q(Ac, 3, rng=random.Random(29)) == [1, 1, 1]


def test_optimize_q_weights_beyond_int64():
    # 24 edges on n = 6 give perturbed weights near 7^24 ~ 1.9e20 > 2^63
    F = GF(65521)
    wr = random.Random(31)
    edges = [(i, (i + d) % 6) for i in range(6) for d in range(4)]
    inst = BipartiteInstance(6, edges, [wr.randint(-10, 10) for _ in edges])
    Ac = build_edmonds(inst, F)
    for ell in range(1, 7):
        u = optimize_Q(Ac, ell, rng=random.Random(ell))
        support = [edges[k] for k, uk in enumerate(u) if uk]
        assert set(u) <= {0, 1} and len(support) == ell
        assert len({i for i, _ in support}) == len({j for _, j in support}) == ell
        assert sum(c * uk for c, uk in zip(Ac.c, u)) == brute_force_matching_oracles(inst, ell)


def test_optimize_q_makes_two_engine_runs(monkeypatch):
    F = GF(65521)
    Ac = edmonds_w(F, 3, 3, [(0, 0, 3), (0, 1, 1), (1, 0, 2), (1, 1, 4), (2, 2, -1), (2, 0, 5)])
    runs = []
    engine = degdet.hungarian_deg_det

    def counted(*args):
        runs.append(args)
        return engine(*args)

    monkeypatch.setattr(degdet, "hungarian_deg_det", counted)
    for ell in range(1, 4):
        runs.clear()
        optimize_Q(Ac, ell, rng=random.Random(ell))
        assert len(runs) == 2


def test_optimize_q_infeasible_level():
    F = GF(65521)
    ones = SymbolicMatrix(F, [np.ones((2, 2), dtype=np.int64)])
    Ac = WeightedSymbolicMatrix(ones, [1])
    with pytest.raises(LPInfeasible):
        optimize_Q(Ac, 2, rng=random.Random(30))


# ---------------------------------------------------------------------------
# duality invariants


def test_weak_duality_random_duals():
    rng = random.Random(4321)
    F = GF(65521)
    for _ in range(15):
        n_r = rng.randint(1, 3)
        n_c = rng.randint(1, 3)
        cells = [
            (i, j, rng.randint(-3, 3))
            for i in range(n_r)
            for j in range(n_c)
            if rng.random() < 0.7
        ]
        if not cells:
            continue
        Ac = edmonds_w(F, n_r, n_c, cells)
        prof = hungarian_deg_det(Ac, rng=random.Random(33))
        for _ in range(12):
            sol = random_feasible_dual(Ac, rng)
            assert sol.feasible(Ac)
            for ell in range(prof.n + 1):
                if prof.values[ell] != NEG_INF:
                    assert sol.objective(ell) >= prof.values[ell]


def test_profile_accessors():
    F = GF(65521)
    Ac = edmonds_w(F, 2, 2, [(0, 0, 3), (1, 1, 4)])
    prof = hungarian_deg_det(Ac, rng=random.Random(34))
    assert prof.delta(2) == 7
    assert prof.delta_max() == 7
    assert prof.finite_levels() == [0, 1, 2]
    assert prof.is_concave()
    assert "DegreeProfile" in repr(prof)
