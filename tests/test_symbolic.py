import random

import numpy as np
import pytest

from ncdeg import linalg
from ncdeg.degdet import hungarian_deg_det
from ncdeg.errors import (
    BadCardinality,
    EnumerationCapExceeded,
    MissingSymbol,
)
from ncdeg.ratfunc import NEG_INF
from ncdeg.scalar import GF
from ncdeg.symbolic import (
    Delta_blowup_oracle,
    SymbolicMatrix,
    WeightedSymbolicMatrix,
    polymat_degdet,
    random_rank,
    weighted_degdet,
)
from referee import (
    Poly,
    RatFn,
    RationalMatrix,
    RationalSymbolicMatrix,
    blow_up,
    blow_up_weighted,
    delta_ell_oracle,
    general_degree_data,
)


def unit(n, i, j):
    E = np.zeros((n, n), dtype=np.int64)
    E[i, j] = 1
    return E


def tutte_k3(F):
    """Tutte matrix of the triangle: one skew term per edge."""
    terms = []
    for u, v in [(0, 1), (0, 2), (1, 2)]:
        terms.append(unit(3, u, v) - unit(3, v, u))
    return SymbolicMatrix(F, np.stack(terms))


def edmonds(F, nr, nc, edges):
    terms = [np.zeros((nr, nc), dtype=np.int64) for _ in edges]
    for k, (i, j) in enumerate(edges):
        terms[k][i, j] = 1
    return SymbolicMatrix(F, np.stack(terms))


def rand_values(rng, F, m):
    return linalg.rand_mat(rng, 1, m, F.p)[0]


def rand_weighted(rng, F, nr, nc, m, wmax):
    terms = np.stack([linalg.rand_mat(rng, nr, nc, F.p) for _ in range(m)])
    c = [rng.randrange(-wmax, wmax + 1) for _ in range(m)]
    return WeightedSymbolicMatrix(SymbolicMatrix(F, terms), c)


def test_substitute_and_missing_symbol():
    F = GF(7)
    A = edmonds(F, 2, 2, [(0, 0), (1, 1)])
    M = A.substitute([3, 5])
    assert np.array_equal(M, np.array([[3, 0], [0, 5]]))
    with pytest.raises(MissingSymbol):
        A.substitute([3])
    with pytest.raises(MissingSymbol):
        RationalSymbolicMatrix.from_weighted(WeightedSymbolicMatrix(A, [0, 0])).shrink([1])


def test_shrink_zero_substitution():
    F = GF(5)
    A = tutte_k3(F)
    assert not A.substitute([0, 0, 0]).any()


def test_shrink_single_edge():
    F = GF(5)
    A = edmonds(F, 2, 2, [(0, 0)])
    M = A.substitute([1])
    assert np.array_equal(M, unit(2, 0, 0))


def test_k3_rank_two():
    F = GF(65521)
    A = tutte_k3(F)
    rng = random.Random(42)
    s = rand_values(rng, F, 3)
    assert linalg.rank(A.substitute(s), F.p) == 2
    assert random_rank(A, rng) == 2


def test_blow_up_shapes():
    F = GF(5)
    A = SymbolicMatrix(F, np.stack([unit(2, 0, 1)]))
    B1 = blow_up(A, 1)
    assert B1.n_terms == 1 and B1.shape == (2, 2)
    assert np.array_equal(B1.terms, A.terms)
    B2 = blow_up(A, 2)
    assert B2.shape == (4, 4) and B2.n_terms == 4
    # cell (0, i, j) holds A_0 (x) E_ij
    cells = B2.terms.reshape(1, 2, 2, 4, 4)
    for i in range(2):
        for j in range(2):
            T = cells[0, i, j]
            assert T[i, 2 + j] == 1 and T.sum() == 1


def test_k3_blowup_rank_six():
    F = GF(65521)
    A = tutte_k3(F)
    B = blow_up(A, 2)
    assert B.shape == (6, 6) and B.n_terms == 12
    rng = random.Random(7)
    s = rand_values(rng, F, 12)
    assert linalg.rank(B.substitute(s), F.p) == 6


def test_blowup_substitute_matches_materialized():
    F = GF(65521)
    rng = random.Random(11)
    A = SymbolicMatrix(F, np.stack([linalg.rand_mat(rng, 2, 3, F.p) for _ in range(2)]))
    B = blow_up(A, 2)
    Rs = np.stack([linalg.rand_mat(rng, 2, 2, F.p) for _ in range(2)])
    direct = A.blowup_substitute(Rs)
    # the blow-up's symbols run k-major, then row-major over each R_k
    assert np.array_equal(direct, B.substitute(Rs.reshape(-1)))


def test_block_scalar_substitution_multiplies_rank():
    F = GF(65521)
    rng = random.Random(13)
    A = SymbolicMatrix(F, np.stack([linalg.rand_mat(rng, 3, 3, F.p) for _ in range(2)]))
    s = rand_values(rng, F, 2)
    base_rank = linalg.rank(A.substitute(s), F.p)
    for d in [2, 3]:
        B = blow_up(A, d)
        vals = np.einsum("k,ij->kij", s, np.eye(d, dtype=np.int64)).reshape(-1)
        assert linalg.rank(B.substitute(vals), F.p) == d * base_rank


def test_shrink_commutes_with_submatrix():
    F = GF(65521)
    rng = random.Random(17)
    A = SymbolicMatrix(F, np.stack([linalg.rand_mat(rng, 4, 5, F.p) for _ in range(3)]))
    s = rand_values(rng, F, 3)
    rowsel, colsel = [0, 2, 3], [1, 2, 4]
    M1 = A.submatrix(rowsel, colsel).substitute(s)
    M2 = A.substitute(s)[np.ix_(rowsel, colsel)]
    assert np.array_equal(M1, M2)


def test_pad_square():
    F = GF(5)
    A = edmonds(F, 2, 3, [(0, 0), (1, 2)]).submatrix([0, 1], [0, 1, 2])
    W = WeightedSymbolicMatrix(A, [1, -2]).pad_square()
    assert W.shape == (3, 3)
    assert not W.base.terms[:, 2, :].any()


# ---------------------------------------------------------------------------
# polynomial deg det kernels, dual-routed against RatFn elimination


def rand_polymat_coeffs(rng, n, L, p):
    C = np.zeros((n, n, L), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            for l in range(L):
                if rng.random() < 0.6:
                    C[i, j, l] = rng.randrange(p)
    return C


def coeffs_to_rational(C, F):
    n = C.shape[0]
    return RationalMatrix(
        F,
        [
            [RatFn.from_poly(Poly(F, list(C[i, j]))) for j in range(n)]
            for i in range(n)
        ],
    )


def column_reduction_cases(rng, p):
    """Polynomial matrices, n <= 5, at the edges of column reduction: a
    zero column, a repeated column, a column t^2 times another, monomial
    entries c_ij t^(a_i + b_j) with nonsingular c and a nonzero last row
    (a leading matrix of rank one, a nonzero det), and the chain
    col_j + t col_(j-1) + t^2 col_(j-2) + ..., which takes several
    rounds."""
    for n in range(2, 6):
        C = rand_polymat_coeffs(rng, n, 3, p)
        zero, rep, shift = C.copy(), C.copy(), C.copy()
        zero[:, rng.randrange(n)] = 0
        rep[:, 1] = C[:, 0]
        shift[:, 0, 1:] = 0
        shift[:, 1] = np.roll(shift[:, 0], 2, axis=1)
        c = np.ones((n, n), dtype=np.int64)
        while linalg.rank(c, p) < n:
            c[:-1] = linalg.rand_mat(rng, n - 1, n, p)
        a, b = [0] * (n - 1) + [1], [rng.randrange(2) for _ in range(n)]
        mono = np.zeros((n, n, 4), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                mono[i, j, a[i] + b[j]] = c[i, j]
        chain = np.zeros((n, n, 3 + n), dtype=np.int64)
        chain[:, 0, :3] = C[:, 0]
        for j in range(1, n):
            chain[:, j, :3] = C[:, j]
            chain[:, j, 1:] += chain[:, j - 1, :-1]
        yield from (zero, rep, shift, mono, chain % p)


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
def test_polymat_degdet_vs_rational_elimination(p, monkeypatch):
    F = GF(p)
    rng = random.Random(800 + p)
    cases = [rand_polymat_coeffs(rng, rng.randrange(1, 4), rng.randrange(1, 4), p) for _ in range(25)]
    cases += column_reduction_cases(rng, p)
    for C in cases:
        assert polymat_degdet(C, p) == coeffs_to_rational(C, F).degdet()
    assert polymat_degdet(np.zeros((0, 0, 1), dtype=np.int64), p) == 0
    # the last case, the chain of side 5, takes several rounds
    rounds = []
    monkeypatch.setattr(linalg, "nullspace", lambda M, p, f=linalg.nullspace: rounds.append(1) or f(M, p))
    polymat_degdet(cases[-1], p)
    assert len(rounds) >= 4


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_weighted_degdet_vs_shrink(p):
    F = GF(p)
    rng = random.Random(802 + p)
    for _ in range(20):
        n = rng.randrange(1, 4)
        m = rng.randrange(1, 4)
        Ac = rand_weighted(rng, F, n, n, m, 3)
        s = rand_values(rng, F, m)
        got = weighted_degdet(Ac, s)
        want = RationalSymbolicMatrix.from_weighted(Ac).shrink(s).degdet()
        assert got == want


# ---------------------------------------------------------------------------
# degree oracles


def test_delta_oracle_validates():
    F = GF(5)
    Ac = WeightedSymbolicMatrix(tutte_k3(F), [0, 0, 0])
    with pytest.raises(BadCardinality):
        delta_ell_oracle(Ac, -1)
    with pytest.raises(BadCardinality):
        delta_ell_oracle(Ac, 4)
    big = edmonds(F, 9, 9, [(0, 0)])
    with pytest.raises(EnumerationCapExceeded):
        delta_ell_oracle(WeightedSymbolicMatrix(big, [0]), 1)
    assert delta_ell_oracle(Ac, 0) == 0
    assert Delta_blowup_oracle(Ac, 0) == 0


def test_delta_oracle_two_matchings():
    F = GF(65521)
    A = edmonds(F, 2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    Ac = WeightedSymbolicMatrix(A, [3, 1, 2, 4])
    # two perfect matchings with weights 3+4 and 1+2
    assert delta_ell_oracle(Ac, 2, rng=random.Random(1)) == 7
    assert delta_ell_oracle(Ac, 1, rng=random.Random(1)) == 4


def test_delta_oracle_k3_odd_minor_vanishes():
    F = GF(65521)
    for c in [[0, 0, 0], [1, 1, 1], [3, -2, 5]]:
        Ac = WeightedSymbolicMatrix(tutte_k3(F), c)
        assert delta_ell_oracle(Ac, 3, rng=random.Random(2)) == NEG_INF


def test_blowup_oracle_rank_one_cases():
    F = GF(65521)
    rng = random.Random(3)
    A = edmonds(F, 2, 2, [(0, 0), (1, 1)])
    Ac = WeightedSymbolicMatrix(A, [5, -2])
    assert Delta_blowup_oracle(Ac, 1, rng=rng) == 5
    zero = SymbolicMatrix(F, np.zeros((1, 2, 2), dtype=np.int64))
    assert Delta_blowup_oracle(WeightedSymbolicMatrix(zero, [4]), 1, rng=rng) == NEG_INF
    assert delta_ell_oracle(WeightedSymbolicMatrix(zero, [4]), 1, rng=rng) == NEG_INF


def test_blowup_oracle_k3_unit_weights():
    F = GF(65521)
    Ac = WeightedSymbolicMatrix(tutte_k3(F), [1, 1, 1])
    got = Delta_blowup_oracle(Ac, 3, rng=random.Random(5))
    assert got == 3
    # dual route: materialize the 6x6 blow-up, shrink, exact deg det over K(t)
    B = blow_up_weighted(Ac, 2)
    s = rand_values(random.Random(6), F, B.n_terms)
    dd = RationalSymbolicMatrix.from_weighted(B).shrink(s).degdet()
    assert dd == 6  # divided by d = 2 gives 3


def test_blowup_oracle_matches_hungarian():
    F = GF(65521)
    rng = random.Random(8)
    for _ in range(6):
        Ac = rand_weighted(rng, F, 3, 3, 3, 3)
        exact = hungarian_deg_det(Ac, rng=random.Random(0)).values
        for ell in range(1, 4):
            # attained w.h.p. over a big field
            assert Delta_blowup_oracle(Ac, ell, rng=random.Random(100)) == exact[ell]


def test_delta_le_Delta_invariant():
    F = GF(65521)
    rng = random.Random(9)
    for _ in range(8):
        nr = rng.randrange(1, 4)
        nc = rng.randrange(1, 4)
        Ac = rand_weighted(rng, F, nr, nc, rng.randrange(1, 4), 3)
        for ell in range(0, min(nr, nc) + 1):
            d1 = delta_ell_oracle(Ac, ell, rng=random.Random(50))
            d2 = Delta_blowup_oracle(Ac, ell, rng=random.Random(51))
            assert d1 <= d2 or d2 == NEG_INF and d1 == NEG_INF


def test_rational_symbolic_matrix():
    F = GF(5)
    Ac = rand_weighted(random.Random(10), F, 2, 3, 2, 2)
    R = RationalSymbolicMatrix.from_weighted(Ac)
    assert R.n == 3 and R.n_terms == 2
    assert general_degree_data(R)[0] <= 2
    s = [1, 3]
    M = R.shrink(s)
    C, shift = Ac.pad_square().coeff_array(s)
    for i in range(3):
        for j in range(3):
            want = RatFn.zero(F)
            for l, a in enumerate(C[i, j]):
                want = want + RatFn.monomial(F, int(a), shift + l)
            assert M.rows[i][j] == want
    P = RationalMatrix.identity(F, 3)
    assert R.transform(P, P).terms[0].rows == R.terms[0].rows
