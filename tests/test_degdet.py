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
    hungarian_deg_det,
    optimize_Q,
    symmetric_hungarian,
    verify_dual,
)
from ncdeg.errors import (
    AlgorithmStall,
    LPInfeasible,
    NotSkewSymmetric,
    Singular,
)
from ncdeg.mvsp import (
    FRWitness,
    blowup_witness,
    mvsp_bipartite,
    mvsp_matroid_intersection,
    triangular,
)
from ncdeg.scalar import GF
from ncdeg.symbolic import (
    SymbolicMatrix,
    WeightedSymbolicMatrix,
)
from referee import (
    NotComplementarySlack,
    NotSorted,
    Poly,
    RatFn,
    RationalMatrix,
    RationalState,
    RationalSymbolicMatrix,
    classify_biproper,
    deg_det,
    deg_subdet,
    dual_forms_convert,
    feasible,
    is_concave,
    mvsp_exhaustive,
    random_feasible_dual,
    verify_general_dual,
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
        assert verify_general_dual(prof.duals[ell], B, ell, prof.values[ell])


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
    assert is_concave(prof)


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


def test_deg_subdet_denominator_not_a_power_of_t():
    # det [[1, 1], [1, t/(1+t)]] = -1/(1+t) has degree -1; a floor taken
    # entry by entry, ord(num) - deg(den), put the cutoff above it and
    # claimed -inf
    F = GF(7)
    one = RatFn.one(F)
    x = RatFn(Poly(F, [0, 1]), Poly(F, [1, 1]))
    B = RationalSymbolicMatrix(F, [RationalMatrix(F, [[one, one], [one, x]])])
    prof = deg_subdet(B, rng=random.Random(0))
    assert prof.values == {0: 0, 1: 0, 2: -1}
    for l, sol in prof.duals.items():
        assert verify_general_dual(sol, B, l, prof.values[l])


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
    assert prof.meta["iterations"] <= 4 * max(prof.meta["r_star"], 1) * prof.n**2
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
        assert is_concave(prof)
        assert prof.meta["iterations"] <= 4 * max(prof.meta["r_star"], 1) * prof.n**2
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

    def record(A, rng, start=()):
        seen.append(A)
        return route(A, rng, start)

    monkeypatch.setattr(degdet, "witness", record)
    F = GF(5)
    hungarian_deg_det(WeightedSymbolicMatrix(tutte_k3(F), [2, 1, 1]), rng=random.Random(18))
    hungarian_deg_det(
        edmonds_w(F, 2, 2, [(0, 0, 1), (1, 1, 2), (0, 1, 0)]), rng=random.Random(20)
    )
    assert len(seen) == 5
    n_bipartite = 0
    for A in seen:
        witnesses = [mvsp_exhaustive(A), blowup_witness(A, random.Random(0))[0]]
        C, R = A.factors
        if C.shape[2] == 1:
            u, v = C[:, :, 0], R[:, 0, :]
            witnesses.append(mvsp_matroid_intersection(u, v, F)[0])
            if ((u != 0).sum(axis=1) <= 1).all() and ((v != 0).sum(axis=1) <= 1).all():
                n_bipartite += 1
                edges = [(a.argmax(), b.argmax()) for a, b in zip(u, v) if a.any() and b.any()]
                witnesses.append(mvsp_bipartite(A.n_rows, A.n_cols, edges, F))
        assert all(w.verify(A) for w in witnesses)
        assert len({w.value() for w in witnesses}) == 1
        assert route(A, random.Random(0))[0].value() == witnesses[0].value()
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
    # X = Y = {0}: alpha rises on row 0, beta drops off column 0
    support = Ac.base.support()
    deg = np.asarray(Ac.c)[support[0]]
    assert degdet._step_bound(support, [0, 0], [-5, -5], deg, [1, 0], [0, -1]) == 5


def whole_space_pair(A, *_):
    """(I_n, I_n), a pivot-form pair that does not vanish on A != 0."""
    I = linalg.identity(A.n_rows)
    return FRWitness(A.F, I, I)


def test_hungarian_stalls_at_the_step_on_a_pair_that_does_not_vanish(monkeypatch):
    monkeypatch.setattr(degdet, "witness", lambda A, rng, start=(): (whole_space_pair(A), ()))
    Ac = edmonds_w(GF(5), 2, 2, [(0, 0, 3), (0, 1, 1), (1, 1, 2)])
    with pytest.raises(AlgorithmStall, match="zero block"):
        hungarian_deg_det(Ac, rng=random.Random(0))


def test_symmetric_stalls_at_the_step_on_a_pair_that_does_not_vanish(monkeypatch):
    monkeypatch.setattr(degdet, "blowup_witness", lambda A, rng, start=(): (whole_space_pair(A), ()))
    with pytest.raises(AlgorithmStall, match="zero block"):
        symmetric_hungarian(tutte_k3(GF(5)), [2, 1, 1], rng=random.Random(0))


def test_long_step_crosses_runs_and_resorts():
    # the second step drops beta from [-7, -7, -14] to [-7, -16, -14],
    # past beta_2; a step that stopped where beta would become unsorted
    # takes three rounds here
    inst = BipartiteInstance(3, [(0, 0), (0, 1), (1, 0), (1, 2)], [7, 0, -2, 0])
    Ac = build_edmonds(inst, GF(5))
    prof = hungarian_deg_det(Ac, rng=random.Random(0))
    assert [prof.values[l] for l in range(4)] == [0, 7, 7, NEG_INF]
    assert prof.meta["iterations"] == 2
    for l, sol in prof.duals.items():
        assert sol.is_sorted()
        assert verify_dual(sol, Ac, l, prof.values[l])


def test_deg_subdet_on_an_edmonds_matrix_folds_nothing(monkeypatch):
    # every witness is Koenig's, of unit vectors, so the loop forms no
    # RationalMatrix product and P, Q stay permutations
    wr = random.Random(41)
    F = GF(5)
    edges = sorted(wr.sample([(i, j) for i in range(5) for j in range(5)], 12))
    inst = BipartiteInstance(5, edges, [wr.randint(-9, 9) for _ in edges])
    B = RationalSymbolicMatrix.from_weighted(build_edmonds(inst, F))
    calls = []
    product = RationalMatrix.matmul
    monkeypatch.setattr(RationalMatrix, "matmul", lambda X, Y: calls.append(1) or product(X, Y))
    prof = deg_subdet(B, rng=random.Random(0))
    assert calls == [] and prof.meta["iterations"] > 2
    monkeypatch.undo()
    assert prof.values == hungarian_deg_det(build_edmonds(inst, F), rng=random.Random(0)).values
    one, zero = RatFn.one(F), RatFn.zero(F)
    for l, sol in prof.duals.items():
        for X in (sol.P, sol.Q):
            assert all(e in (one, zero) for row in X.rows for e in row)
            ones = np.array([[e == one for e in row] for row in X.rows])
            assert (ones.sum(axis=0) == 1).all() and (ones.sum(axis=1) == 1).all()
        assert verify_general_dual(sol, B, l, prof.values[l])


def rational_step(state, L, R, alpha, beta, kappa, X, Y):
    """The tail of one round on the rational state: fold L and R, raise
    alpha by kappa on X, drop beta by kappa off Y, and re-sort."""
    state.fold(L, R, alpha, beta)
    alpha = [a + (kappa if i in X else 0) for i, a in enumerate(alpha)]
    beta = [b - (0 if j in Y else kappa) for j, b in enumerate(beta)]
    sa, sb = degdet._sorting_sigma(alpha), degdet._sorting_sigma(beta)
    state.permute(sa, sb)
    return [alpha[i] for i in sa], sa, [beta[j] for j in sb], sb


def random_rational_state(rng, F, n):
    terms = [
        RationalMatrix.from_scalars(F, linalg.rand_mat(rng, n, n, F.p)).scale_cols([rng.randint(-2, 2) for _ in range(n)])
        for _ in range(2)
    ]
    return RationalState(RationalSymbolicMatrix(F, terms))


def random_fold_round(rng, F, n):
    """(L, R, kappa, X, Y) of witness shape: L = triangular(U), R =
    triangular(V)^t, X and Y the pivots of U and V."""
    U, V = (linalg.row_basis(linalg.rand_mat(rng, rng.randint(1, n), n, F.p), F.p) for _ in range(2))
    return triangular(U), triangular(V).T, rng.randint(1, 3), set(degdet._pivots(U)), set(degdet._pivots(V))


def test_renormalize_spec_example():
    # alpha = (1, 0) and U = [[1, 1], [0, 1]]: P folds to [[1, t^-1], [0, 1]],
    # biproper, and raising row 1 by one makes alpha = (1, 1)
    F = GF(5)
    state = RationalState(RationalSymbolicMatrix(F, [RationalMatrix.identity(F, 2)]))
    U = np.array([[1, 1], [0, 1]], dtype=np.int64)
    alpha, _, beta, _ = rational_step(state, U, linalg.identity(2), [1, 0], [0, 0], 1, {1}, {0, 1})
    assert alpha == [1, 1] and beta == [0, 0]
    one, zero = RatFn.one(F), RatFn.zero(F)
    assert state.P.rows == [[one, RatFn.monomial(F, 1, -1)], [zero, one]]
    assert state.Q.rows == RationalMatrix.identity(F, 2).rows
    assert classify_biproper(state.P).is_biproper


def test_renormalize_rejects_unsorted():
    F = GF(5)
    state = RationalState(RationalSymbolicMatrix(F, [RationalMatrix.identity(F, 2)]))
    I = linalg.identity(2)
    with pytest.raises(NotSorted):
        state.fold(I, I, [0, 1], [0, 0])
    with pytest.raises(NotSorted):
        state.fold(I, I, [0, 0], [-1, 0])


def test_renormalize_left_identity():
    # t^alpha' P' == sigma t^(kappa 1_X) L t^alpha P, with sigma the
    # permutation that sorts alpha + kappa 1_X, over two rounds
    rng = random.Random(31)
    for p in (2, 5):
        F = GF(p)
        for _ in range(3):
            n = 3
            state = random_rational_state(rng, F, n)
            alpha = sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True)
            beta = sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True)
            for _ in range(2):
                L, R, kappa, X, Y = random_fold_round(rng, F, n)
                lhs = (
                    RationalMatrix.from_scalars(F, L)
                    .scale_rows([kappa if i in X else 0 for i in range(n)])
                    .matmul(state.P.scale_rows(alpha))
                )
                alpha, sa, beta, _ = rational_step(state, L, R, alpha, beta, kappa, X, Y)
                assert state.P.scale_rows(alpha).rows == [lhs.rows[i] for i in sa]
                assert classify_biproper(state.P).is_biproper


def test_renormalize_right_identity():
    # Q' t^beta' == Q t^beta R t^(-kappa 1_notY) sigma^t, with sigma the
    # permutation that sorts beta - kappa 1_notY, over two rounds
    rng = random.Random(37)
    for p in (2, 5):
        F = GF(p)
        for _ in range(3):
            n = 3
            state = random_rational_state(rng, F, n)
            alpha = sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True)
            beta = sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True)
            for _ in range(2):
                L, R, kappa, X, Y = random_fold_round(rng, F, n)
                rhs = state.Q.scale_cols(beta).matmul(
                    RationalMatrix.from_scalars(F, R).scale_cols([0 if j in Y else -kappa for j in range(n)])
                )
                alpha, _, beta, sb = rational_step(state, L, R, alpha, beta, kappa, X, Y)
                assert state.Q.scale_cols(beta).rows == [[row[j] for j in sb] for row in rhs.rows]
                assert classify_biproper(state.Q).is_biproper


def test_general_feasibility_reads_shifted_degrees():
    F = GF(7)
    t = RatFn.monomial(F, 1, 1)
    one, zero = RatFn.one(F), RatFn.zero(F)
    I = RationalMatrix.identity(F, 2)
    B = RationalSymbolicMatrix(F, [RationalMatrix(F, [[t, one], [t * t, t]])])
    # alpha=(-1,-2), beta=(0,0): shifted degrees [[0,-1],[0,-1]]
    assert feasible(DualSolution([-1, -2], I, [0, 0], I, F), B)
    state = RationalState(B)
    tight = degdet._slacks(state.support, [-1, -2], [0, 0], state.deg) == 0
    assert state.leading(tight).terms[0].tolist() == [[1, 0], [1, 0]]
    assert not feasible(DualSolution([0, 0], I, [0, 0], I, F), B)
    P = RationalMatrix(F, [[one, RatFn.monomial(F, 3, -1)], [zero, one]])
    ident = RationalSymbolicMatrix(F, [I])
    assert feasible(DualSolution([0, 0], P, [0, 0], I, F), ident)
    assert not feasible(DualSolution([0, 0, 0], P, [0, 0, 0], I, F), ident)


def test_monomial_feasibility_reduces_p_and_q_first():
    # [[2, -1], [-1, 2]] has rows and columns summing to 1, but over
    # GF(3) it is [[2, 2], [2, 2]], singular; I + 3 is I there
    F = GF(3)
    Ac = edmonds_w(F, 2, 2, [(0, 0, 0), (1, 1, 0)])
    I = linalg.identity(2)
    assert DualSolution([0, 0], I + 3, [0, 0], I, F).feasible(Ac)
    singular = np.array([[2, -1], [-1, 2]])
    assert not DualSolution([0, 0], singular, [0, 0], I, F).feasible(Ac)


def test_monomial_feasibility_of_side_zero():
    # the 0 x 0 permutations relabel an empty support: no constraint,
    # feasible, against no term or one, stored dense or factored
    F = GF(5)
    I = linalg.identity(0)
    for m in (0, 1):
        for base in (SymbolicMatrix(F, np.zeros((m, 0, 0))), SymbolicMatrix(F, factors=(np.zeros((m, 0, 1)), np.zeros((m, 1, 0))))):
            assert DualSolution([], I, [], I, F).feasible(WeightedSymbolicMatrix(base, [3] * m))


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
    # the flags are canonical bases of nested spans
    for flags in (flags_U, flags_V):
        assert [f.shape for f in flags] == [(1, 3), (2, 3), (3, 3)]
        assert all(np.array_equal(linalg.row_basis(f, p), f) for f in flags)
        assert all(
            linalg.rank(np.concatenate([flags[i], flags[i - 1]]), p) == i + 1
            for i in range(1, 3)
        )


def test_dual_forms_convert_needs_flat_head():
    F = GF(5)
    sol = DualSolution(
        [2, 1, 0], linalg.identity(3), [0, 0, 0], linalg.identity(3), F
    )
    with pytest.raises(NotComplementarySlack):
        dual_forms_convert(sol, 1)


def test_dual_forms_convert_rejects_unsorted_alpha():
    # the head is flat, but alpha rises after it, so xi would go negative
    F = GF(5)
    I = linalg.identity(2)
    sol = DualSolution([0, 1], I, [0, 0], I, F)
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


def test_optimize_q_makes_one_engine_run(monkeypatch):
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
        assert len(runs) == 1


def test_optimize_q_refuses_a_tie_broken_low(monkeypatch):
    # all four edges at weight 0: w = (27, 9, 3, 1) scores the matching
    # (0,0), (1,1) at 28 and (0,1), (1,0) at 12; a run claiming 12 at
    # level 2 decodes to the second, with c'u = 0 as at the optimum, but
    # the run's level dual still reads 28
    F = GF(65521)
    Ac = edmonds_w(F, 2, 2, [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)])
    engine = degdet.hungarian_deg_det

    def forged(Aw, rng):
        prof = engine(Aw, rng)
        if any(Aw.c):
            prof.values[2] = sum(w * u for w, u in zip(Aw.c, [0, 1, 1, 0]))
        return prof

    assert optimize_Q(Ac, 2, rng=random.Random(32)) == [1, 0, 0, 1]
    monkeypatch.setattr(degdet, "hungarian_deg_det", forged)
    with pytest.raises(AlgorithmStall):
        optimize_Q(Ac, 2, rng=random.Random(32))


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
    assert prof.values[2] == 7
    assert max(v for v in prof.values.values() if v != NEG_INF) == 7
    assert [l for l in range(prof.n + 1) if prof.values[l] != NEG_INF] == [0, 1, 2]
    assert is_concave(prof)
    assert "DegreeProfile" in repr(prof)


@pytest.mark.parametrize("U", [[[1, 0], [1, 0]], [[1, 0], [0, 0]]], ids=["repeated-pivot", "zero-row"])
def test_hungarian_refuses_a_malformed_unit_pair(monkeypatch, U):
    # a repeated unit row or a zero row is no pair of distinct unit
    # vectors, so the loop folds it and triangular refuses it
    V = linalg.identity(2)[[1]]
    monkeypatch.setattr(degdet, "witness", lambda A, rng, start=(): (FRWitness(A.F, U, V), ()))
    Ac = edmonds_w(GF(5), 2, 2, [(0, 0, 3), (0, 1, 1), (1, 1, 2)])
    with pytest.raises(Singular):
        hungarian_deg_det(Ac, rng=random.Random(0))


def test_hungarian_folds_a_scaled_unit_row(monkeypatch):
    # rows 2 e_x are in pivot form but not unit vectors: the loop folds
    # them, doubling rows of P, and the duals still verify
    route = degdet.witness

    def scaled(A, rng, start=()):
        w, J = route(A, rng, start)
        return FRWitness(A.F, 2 * w.U, w.V), J

    monkeypatch.setattr(degdet, "witness", scaled)
    inst = BipartiteInstance(3, [(0, 0), (0, 1), (1, 0), (1, 2)], [7, 0, -2, 0])
    Ac = build_edmonds(inst, GF(5))
    prof = hungarian_deg_det(Ac, rng=random.Random(0))
    assert [prof.values[l] for l in range(4)] == [0, 7, 7, NEG_INF]
    assert prof.duals[1].P.tolist() == prof.duals[1].Q.tolist() == linalg.identity(3).tolist()
    assert prof.duals[2].P.tolist() == [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    assert prof.duals[2].Q.tolist() == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    for l, sol in prof.duals.items():
        assert verify_dual(sol, Ac, l, prof.values[l])
