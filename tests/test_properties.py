"""Property tests on small random instances: the monomial engines and
optimize_Q against brute force, optimize_Q across seeds on rank-two
terms, the engines against each other and against the Monte-Carlo
blow-up oracle, the blow-up and matroid
witnesses against subspace enumeration, every route's witness in pivot
form and through block-diagonal shaping, matroid intersection against
brute force, the builders' rank factors against their dense terms, and
the stacked matmul and the factored products against the per-term
loop, the general engine against brute force on rational entries
and its fold against the identity it must keep, and monomial dual
feasibility against the densely formed products P A_k Q."""

import json
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncdeg import linalg
from ncdeg.apps import (
    BipartiteInstance,
    LineCollection,
    MatroidPairInstance,
    brute_force_matching_oracles,
    build_edmonds,
    build_matroid_intersection,
    build_matroid_matching,
)
from ncdeg import degdet
from ncdeg.degdet import (
    NEG_INF,
    DualSolution,
    hungarian_deg_det,
    optimize_Q,
    symmetric_hungarian,
    verify_dual,
)
from ncdeg.errors import DimensionMismatch, LPInfeasible
from ncdeg.instances import parse_text
from ncdeg.mvsp import (
    SUBSPACE_CAP,
    FRWitness,
    blowup_witness,
    count_subspaces,
    matroid_intersection,
    mvsp_matroid_intersection,
    nc_rank,
    nested_witness,
    triangular,
    witness,
)
from ncdeg.scalar import GF
from ncdeg.symbolic import (
    Delta_blowup_oracle,
    SymbolicMatrix,
    WeightedSymbolicMatrix,
)
from referee import (
    Poly,
    RatFn,
    RationalMatrix,
    RationalState,
    RationalSymbolicMatrix,
    build_tutte,
    classify_biproper,
    deg_subdet,
    delta_ell_oracle,
    mvsp_exhaustive,
    verify_general_dual,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=50)


def check_profile(prof, Ac, want):
    """A Hungarian profile: the wanted values, within the iteration bound,
    and every dual sorted and certifying its level."""
    assert [prof.values[l] for l in range(prof.n + 1)] == want
    assert prof.meta["iterations"] <= 4 * max(prof.meta["r_star"], 1) * prof.n**2
    for l, sol in prof.duals.items():
        assert sol.is_sorted()
        assert verify_dual(sol, Ac, l, prof.values[l])


@st.composite
def bipartite_instances(draw, max_n=5, max_w=10):
    n = draw(st.integers(1, max_n))
    cells = [(i, j) for i in range(n) for j in range(n)]
    edges = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=len(cells), unique=True))
    weights = draw(st.lists(st.integers(-max_w, max_w), min_size=len(edges), max_size=len(edges)))
    return BipartiteInstance(n, edges, weights)


@st.composite
def matroid_pairs(draw):
    p = draw(st.sampled_from([5, 65521]))
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 2 * n))
    vec = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    a = draw(st.lists(vec, min_size=m, max_size=m))
    b = draw(st.lists(vec, min_size=m, max_size=m))
    weights = draw(st.lists(st.integers(-10, 10), min_size=m, max_size=m))
    return MatroidPairInstance(GF(p), a, b, weights)


def oracle_values(inst, n):
    return [brute_force_matching_oracles(inst, l) for l in range(n + 1)]


@PROPERTY
@given(bipartite_instances(max_n=7, max_w=1000))
def test_hungarian_matches_brute_force_on_bipartite(inst):
    # wide weights make long steps that cross equal-value runs of alpha
    # and beta, which the loop re-sorts
    Ac = build_edmonds(inst, GF(65521))
    prof = hungarian_deg_det(Ac, rng=random.Random(0))
    check_profile(prof, Ac, oracle_values(inst, inst.n))


@PROPERTY
@given(bipartite_instances(max_n=7, max_w=1000))
def test_hungarian_duals_on_bipartite_input_keep_permutations(inst):
    # every witness is a pair of unit vectors, which folds as the
    # identity, so P and Q only ever move by the sorting permutations
    prof = hungarian_deg_det(build_edmonds(inst, GF(5)), rng=random.Random(0))
    for sol in prof.duals.values():
        for M in (sol.P, sol.Q):
            ones = M.argmax(axis=1)
            assert np.array_equal(np.eye(len(M), dtype=np.int64)[ones], M) and len(set(ones)) == len(M)


@PROPERTY
@given(matroid_pairs())
def test_hungarian_matches_brute_force_on_matroid_pairs(inst):
    Ac = build_matroid_intersection(inst)
    prof = hungarian_deg_det(Ac, rng=random.Random(0))
    check_profile(prof, Ac, oracle_values(inst, inst.n))


def check_optimize_Q(inst, Ac, is_independent):
    """At ell = r_star, optimize_Q returns a 0/1 vector whose support is
    independent and whose weight is the brute-force Delta_ell."""
    ell = hungarian_deg_det(Ac, rng=random.Random(0)).meta["r_star"]
    u = optimize_Q(Ac, ell, rng=random.Random(1))
    support = [k for k, uk in enumerate(u) if uk]
    assert set(u) <= {0, 1} and len(support) == ell
    assert is_independent(support)
    assert sum(c * uk for c, uk in zip(Ac.c, u)) == brute_force_matching_oracles(inst, ell)


@PROPERTY
@given(bipartite_instances())
def test_optimize_Q_picks_a_max_weight_matching(inst):
    def is_matching(support):
        rows = {inst.edges[k][0] for k in support}
        cols = {inst.edges[k][1] for k in support}
        return len(rows) == len(cols) == len(support)

    check_optimize_Q(inst, build_edmonds(inst, GF(65521)), is_matching)


@PROPERTY
@given(matroid_pairs())
def test_optimize_Q_picks_a_max_weight_common_independent_set(inst):
    def is_common_independent(support):
        p = inst.F.p
        return all(
            linalg.rank(vecs[support], p) == len(support)
            for vecs in (inst.a_vectors, inst.b_vectors)
        )

    check_optimize_Q(inst, build_matroid_intersection(inst), is_common_independent)


@st.composite
def line_collections(draw):
    """Up to n + 1 lines of GF(2)^n or GF(3)^n, n <= 5; a pair that
    spans no line becomes (e_1, e_2)."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, n + 1))
    vec = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    a, b = (np.array(draw(st.lists(vec, min_size=m, max_size=m)), dtype=np.int64) for _ in "ab")
    for k in range(m):
        if linalg.rank(np.stack([a[k], b[k]]), p) < 2:
            a[k], b[k] = np.eye(2, n, dtype=np.int64)
    weights = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    return build_matroid_matching(LineCollection(GF(p), list(zip(a, b)), weights, n))


@PROPERTY
@given(line_collections())
def test_optimize_Q_on_rank_two_terms(Ac):
    # the witness of rank-two terms draws from rng, yet u is the unique
    # maximizer at the perturbed weights, so no seed moves it
    prof = hungarian_deg_det(Ac, rng=random.Random(0))
    for ell in range(1, prof.n + 1):
        if prof.values[ell] == NEG_INF:
            for seed in (1, 2):
                with pytest.raises(LPInfeasible):
                    optimize_Q(Ac, ell, rng=random.Random(seed))
            continue
        u = optimize_Q(Ac, ell, rng=random.Random(1))
        assert optimize_Q(Ac, ell, rng=random.Random(2)) == u
        assert sum(u) == ell
        assert sum(c * uk for c, uk in zip(Ac.c, u)) == prof.values[ell]


@st.composite
def skew_inputs(draw):
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 3))
    cells = st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n)
    terms = []
    for _ in range(m):
        U = np.array(draw(cells), dtype=np.int64).reshape(n, n)
        terms.append((U - U.T) % p)
    c = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    return SymbolicMatrix(GF(p), terms), c


# n = 5, beyond skew_inputs: on these terms a_k b_k^t - b_k a_k^t the
# symmetric engine must fold U's whole nested basis into both sides, not
# V's alone, or its step collapses to 0
NESTED_FOLD = (
    SymbolicMatrix(
        GF(2),
        [
            (np.outer(a, b) - np.outer(b, a)) % 2
            for a, b in zip(
                np.array([(1, 1, 1, 1, 0), (0, 1, 1, 1, 0), (0, 0, 1, 1, 0)]),
                np.array([(0, 0, 0, 1, 1), (0, 1, 0, 0, 0), (1, 1, 0, 0, 1)]),
            )
        ],
    ),
    [3, -3, -3],
)


@PROPERTY
@given(skew_inputs())
@example(NESTED_FOLD)
def test_symmetric_engine_matches_two_sided_engine(skew):
    A, c = skew
    Ac = WeightedSymbolicMatrix(A, c)
    two = hungarian_deg_det(Ac, rng=random.Random(0))
    sym = symmetric_hungarian(A, c, rng=random.Random(0))
    check_profile(sym, Ac, [two.values[l] for l in range(A.n_rows + 1)])
    for sol in sym.duals.values():
        assert np.array_equal(sol.Q, sol.P.T)


@st.composite
def witness_inputs(draw):
    """General, skew or rank-one terms on up to five coordinates a side,
    small enough for subspace enumeration to referee; skew terms are
    square, the others draw n_rows and n_cols apart."""
    p = draw(st.sampled_from([2, 3, 5]))
    side = st.integers(1, 5 if p < 5 else 4)
    nr = draw(side)
    m = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["general", "skew", "rank-one"]))
    nc = nr if kind == "skew" else draw(side)

    def vec(n):
        return st.lists(st.integers(0, p - 1), min_size=n, max_size=n)

    terms = []
    for _ in range(m):
        if kind == "general":
            terms.append(np.array(draw(st.lists(vec(nc), min_size=nr, max_size=nr))))
        else:
            a, b = np.array(draw(vec(nr))), np.array(draw(vec(nc)))
            terms.append(np.outer(a, b) - (np.outer(b, a) if kind == "skew" else 0))
    return SymbolicMatrix(GF(p), terms)


@PROPERTY
@given(witness_inputs(), st.randoms(use_true_random=False))
def test_blowup_witness_is_the_enumerated_dominant_optimum(A, rnd):
    # from any start the blow-up witness finds the cold start's pair: its
    # own certifying draw, another draw at the same order, and, dropped
    # without touching rng, a draw of an order it never draws or with one
    # R_k too few or too many; the route drops a draw on the rank-one
    # routes.  On rank-one stacks matroid intersection started from any
    # subset of the terms, dependent ones included, finds the cold
    # start's I and so the same witness
    w, R = blowup_witness(A, random.Random(0))
    enum = mvsp_exhaustive(A)
    assert np.array_equal(w.U, enum.U) and np.array_equal(w.V, enum.V)
    assert w.verify(A)
    assert nc_rank(A, random.Random(1)) == w.value()
    p, m, d, n = A.F.p, A.n_terms, R.shape[1], max(A.shape)
    seed = rnd.randrange(1 << 16)
    cold = blowup_witness(A, random.Random(seed))[1]
    wrong_order = linalg.rand_mat(rnd, m * (n + 1), n + 1, p).reshape(m, n + 1, n + 1)
    for start in (R, linalg.rand_mat(rnd, m * d, d, p).reshape(m, d, d), wrong_order, R[1:], np.concatenate([R, R[:1]])):
        warm, Rw = blowup_witness(A, random.Random(seed), start)
        assert np.array_equal(warm.U, enum.U) and np.array_equal(warm.V, enum.V)
        if start.shape[1] != d or len(start) != m:  # dropped, so rng draws as from a cold start
            assert np.array_equal(Rw, cold)
        warm = witness(A, random.Random(seed), start)[0]
        assert np.array_equal(warm.U, enum.U) and np.array_equal(warm.V, enum.V)
    C, R = A.factors
    if C.shape[2] == 1:
        va, vb = C[:, :, 0], R[:, 0, :]
        start = [k for k in range(A.n_terms) if rnd.random() < 0.5]
        assert matroid_intersection(va, vb, A.F.p, start)[1] == matroid_intersection(va, vb, A.F.p)[1]
        w, _ = mvsp_matroid_intersection(va, vb, A.F, start)
        assert np.array_equal(w.U, enum.U) and np.array_equal(w.V, enum.V)


@st.composite
def leading_matrices(draw):
    """A stack shaped like an engine's leading matrix: term k lives on the
    cells where alpha_i + beta_j = t_k, for non-increasing alpha and beta.
    Terms are general, single entries, rank one (u on one run of alpha, v
    on one run of beta) or, with beta = alpha, skew."""
    p = draw(st.sampled_from([2, 3, 65521]))
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["general", "entry", "rank-one", "skew"]))
    exps = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    alpha = np.array(sorted(draw(exps), reverse=True))
    beta = alpha if kind == "skew" else np.array(sorted(draw(exps), reverse=True))
    cell = st.integers(0, p - 1)
    terms = []
    for _ in range(m):
        if kind == "entry":
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            term = np.zeros((n, n), dtype=np.int64)
            term[i, j] = 1
        elif kind == "rank-one":
            a0, b0 = draw(st.sampled_from(alpha.tolist())), draw(st.sampled_from(beta.tolist()))
            u, v = (np.array(draw(st.lists(cell, min_size=n, max_size=n))) for _ in "uv")
            term = np.outer(np.where(alpha == a0, u, 0), np.where(beta == b0, v, 0))
        else:
            M = np.array(draw(st.lists(cell, min_size=n * n, max_size=n * n))).reshape(n, n)
            tight = np.add.outer(alpha, beta) == draw(st.integers(-4, 4))
            term = np.where(tight, M - (M.T if kind == "skew" else 0), 0)
        terms.append(term % p)
    return SymbolicMatrix(GF(p), terms), alpha.tolist(), beta.tolist(), kind == "skew"


def in_runs(B, values):
    """Whether every row of B lies in the run of the non-increasing values
    that holds its pivot: B equals its mask to the runs."""
    v = np.asarray(values)
    return all((v[np.flatnonzero(row)] == v[np.flatnonzero(row)[0]]).all() for row in B)


@PROPERTY
@given(leading_matrices())
def test_witnesses_are_in_pivot_form_and_block_diagonalize(case):
    # every route returns both bases in pivot form, each row inside the
    # run of alpha or beta that holds its pivot (the dominant optimum is
    # invariant under diag(lambda^alpha) scaling), so the fold is
    # block-diagonal for the runs
    A, alpha, beta, skew = case
    F, n = A.F, A.n_rows
    w_blowup, _ = blowup_witness(A, random.Random(0))
    witnesses = [witness(A, random.Random(1))[0], w_blowup]
    if count_subspaces(F.p, n) <= SUBSPACE_CAP:
        witnesses.append(mvsp_exhaustive(A))
    nested = [nested_witness(w_blowup)] if skew else []
    for w in witnesses + nested:
        for B in (w.U, w.V):
            assert np.array_equal(triangular(B)[(B != 0).argmax(axis=1)], B)
        assert w.verify(A)
        assert in_runs(w.U, alpha) and in_runs(w.V, beta)
    for w in nested:
        assert np.array_equal(w.U[: w.s], w.V)


@st.composite
def engine_inputs(draw):
    """A bipartite, matroid-pair or skew-lines instance over GF(2), GF(3)
    or GF(65521), with the engine that runs it.  Sparse vectors, up to
    eight coordinates and weights close together give witnesses with
    rows of several entries where alpha and beta have several runs."""
    p = draw(st.sampled_from([2, 3, 65521]))
    F = GF(p)
    kind = draw(st.sampled_from(["bipartite", "matroid", "lines"]))
    if kind == "bipartite":
        return hungarian_deg_det, build_edmonds(draw(bipartite_instances()), F)
    n = draw(st.integers(2, 8))
    m = draw(st.integers(n, 2 * n))
    vec = st.lists(st.just(0) | st.integers(1, p - 1), min_size=n, max_size=n)
    a, b = (np.array(draw(st.lists(vec, min_size=m, max_size=m)), dtype=np.int64) for _ in "ab")
    weights = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    if kind == "matroid":
        return hungarian_deg_det, build_matroid_intersection(MatroidPairInstance(F, a, b, weights))
    for k in range(m):
        if linalg.rank(np.stack([a[k], b[k]]), p) < 2:  # not a line: take e_1, e_2
            a[k], b[k] = np.eye(2, n, dtype=np.int64)
    Ac = build_matroid_matching(LineCollection(F, list(zip(a, b)), weights, n))
    return (lambda Ac, rng: symmetric_hungarian(Ac.base, Ac.c, rng)), Ac


@PROPERTY
@given(engine_inputs())
def test_every_folded_witness_lies_in_the_runs(case):
    # the loop folds each witness as the route returns it: recorded where
    # the step bound reads alpha and beta, every row of U and V already
    # lies in its pivot's run
    engine, Ac = case
    last, folded = [], []

    def record(route):
        def wrapped(*args):
            out = route(*args)
            last[:] = [out[0] if isinstance(out, tuple) else out]
            return out

        return wrapped

    def check(support, alpha, beta, *rest):
        w = last[0]
        folded.append(in_runs(w.U, alpha) and in_runs(w.V, beta))
        return step_bound(support, alpha, beta, *rest)

    step_bound = degdet._step_bound
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(degdet, "witness", record(degdet.witness))
        mp.setattr(degdet, "nested_witness", record(degdet.nested_witness))
        mp.setattr(degdet, "_step_bound", check)
        engine(Ac, random.Random(0))
    assert all(folded)


@st.composite
def vector_pairs(draw):
    """Up to seven pairs (a_k, b_k) over GF(2) or GF(3), each entry zero
    or not by its own draw, so sparse and zero vectors come up."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 7))
    vec = st.lists(st.just(0) | st.integers(1, p - 1), min_size=n, max_size=n)
    va, vb = (np.array(draw(st.lists(vec, min_size=m, max_size=m)), dtype=np.int64).reshape(m, n) for _ in "ab")
    return va, vb, p


@PROPERTY
@given(vector_pairs(), st.randoms(use_true_random=False))
def test_matroid_intersection_matches_brute_force(pair, rnd):
    # J is common independent, |J| is the least r1(I) + r2([m] - I), and
    # I is the intersection of all minimizers, from a cold start and from
    # a random start, which is often dependent here
    va, vb, p = pair
    m = va.shape[0]
    J, I = matroid_intersection(va, vb, p)
    Jw, Iw = matroid_intersection(va, vb, p, [k for k in range(m) if rnd.random() < 0.5])
    assert Iw == I and len(Jw) == len(J)
    assert linalg.rank(va[sorted(Jw)], p) == linalg.rank(vb[sorted(Jw)], p) == len(Jw)
    assert linalg.rank(va[sorted(J)], p) == linalg.rank(vb[sorted(J)], p) == len(J)
    cost = {}
    for mask in range(1 << m):
        S = [k for k in range(m) if mask >> k & 1]
        rest = [k for k in range(m) if not mask >> k & 1]
        cost[frozenset(S)] = linalg.rank(va[S], p) + linalg.rank(vb[rest], p)
    best = min(cost.values())
    assert len(J) == best
    assert I == set.intersection(*(set(S) for S, v in cost.items() if v == best))


@st.composite
def weighted_matrices(draw):
    """Square A[c] over a small field with n <= 4 and sparse terms of any
    rank, so every witness route can come up."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    entries = st.lists(st.sampled_from([0, 0, 0, 1, p - 1]), min_size=n * n, max_size=n * n)
    terms = [np.array(draw(entries), dtype=np.int64).reshape(n, n) for _ in range(m)]
    c = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    return WeightedSymbolicMatrix(SymbolicMatrix(GF(p), terms), c)


@PROPERTY
@given(weighted_matrices())
def test_general_engine_matches_hungarian(Ac):
    B = RationalSymbolicMatrix.from_weighted(Ac)
    want = hungarian_deg_det(Ac, rng=random.Random(0)).values
    prof = deg_subdet(B, rng=random.Random(0))
    assert prof.values == want
    for l, sol in prof.duals.items():
        assert verify_general_dual(sol, B, l, prof.values[l])


def _rational_entry(rng, F):
    """num/den with num of degree below 3 (zero a fair share of the time)
    and den monic of degree at most 2, often not a power of t."""
    num = Poly(F, [rng.randrange(F.p) for _ in range(rng.randint(0, 3))])
    den = Poly(F, [rng.randrange(F.p) for _ in range(rng.randint(0, 2))] + [1])
    return RatFn(num, den)


def test_general_engine_matches_brute_force_on_rational_entries():
    # single-term B = M x: Delta_l is the largest deg det over l x l
    # minors of M, which RationalMatrix.degdet computes exactly
    rng = random.Random(15)
    for _ in range(300):
        F = GF(rng.choice([2, 3, 7]))
        n = rng.randint(1, 3)
        M = RationalMatrix(F, [[_rational_entry(rng, F) for _ in range(n)] for _ in range(n)])
        B = RationalSymbolicMatrix(F, [M])
        want = {0: 0}
        for l in range(1, n + 1):
            want[l] = max(
                RationalMatrix(F, [[M.rows[i][j] for j in C] for i in R]).degdet()
                for R in combinations(range(n), l)
                for C in combinations(range(n), l)
            )
        prof = deg_subdet(B, rng=random.Random(0))
        assert prof.values == want
        for l, sol in prof.duals.items():
            assert verify_general_dual(sol, B, l, prof.values[l])


def test_rational_fold_conjugates_the_witness_into_p_and_q():
    # t^alpha P' B Q' t^beta == L (t^alpha P B Q t^beta) R for L, R of
    # witness shape and sorted alpha, beta; a second fold starts from
    # P, Q != I, and both stay biproper
    rng = random.Random(31)
    for p in (2, 5):
        F = GF(p)
        for _ in range(4):
            n = 3
            B = RationalSymbolicMatrix(
                F, [RationalMatrix(F, [[_rational_entry(rng, F) for _ in range(n)] for _ in range(n)]) for _ in range(2)]
            )
            state = RationalState(B)
            for _ in range(2):
                alpha = sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True)
                beta = sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True)
                U, V = (linalg.row_basis(linalg.rand_mat(rng, rng.randint(1, n), n, p), p) for _ in range(2))
                L, R = triangular(U), triangular(V).T

                def frame(M):
                    return M.scale_rows(alpha).scale_cols(beta)

                before = [frame(state.P.matmul(Bk).matmul(state.Q)) for Bk in B.terms]
                state.fold(L, R, alpha, beta)
                Ls, Rs = RationalMatrix.from_scalars(F, L), RationalMatrix.from_scalars(F, R)
                for Bk, Gk, Hk in zip(B.terms, state.G, before):
                    assert Gk.rows == state.P.matmul(Bk).matmul(state.Q).rows
                    assert frame(Gk).rows == Ls.matmul(Hk).matmul(Rs).rows
                assert classify_biproper(state.P).is_biproper and classify_biproper(state.Q).is_biproper


@PROPERTY
@given(weighted_matrices())
def test_blowup_oracle_never_exceeds_exact_value(Ac):
    # both oracles are one-sided at any trial count; delta_l <= Delta_l
    exact = hungarian_deg_det(Ac, rng=random.Random(0)).values
    rng = random.Random(1)
    for l, v in exact.items():
        assert Delta_blowup_oracle(Ac, l, trials=3, rng=rng) <= v
        assert delta_ell_oracle(Ac, l, trials=3, rng=rng) <= v


@st.composite
def matmul_operands(draw):
    """(A, B, p, inner_matches) with a stack on one or both sides."""
    p = draw(st.sampled_from([2, 3, 65521]))
    m, r, k, c = (draw(st.integers(1, 4)) for _ in range(4))
    k2 = draw(st.one_of(st.just(k), st.integers(1, 4)))
    a_stack, b_stack = draw(st.sampled_from([(True, False), (False, True), (True, True)]))
    shape_a = (m, r, k) if a_stack else (r, k)
    shape_b = (m, k2, c) if b_stack else (k2, c)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.integers(0, p, size=shape_a, dtype=np.int64)
    B = rng.integers(0, p, size=shape_b, dtype=np.int64)
    return A, B, p, k == k2


@PROPERTY
@given(matmul_operands())
def test_stacked_matmul_equals_per_term_loop(operands):
    A, B, p, inner_matches = operands
    if not inner_matches:
        with pytest.raises(DimensionMismatch):
            linalg.matmul(A, B, p)
        return
    m = A.shape[0] if A.ndim == 3 else B.shape[0]
    per_term = np.stack(
        [
            linalg.matmul(A[k] if A.ndim == 3 else A, B[k] if B.ndim == 3 else B, p)
            for k in range(m)
        ]
    )
    assert np.array_equal(linalg.matmul(A, B, p), per_term)


@st.composite
def built_matrices(draw):
    """(A, dense terms built entry by entry) for every builder and for a
    parsed symbolic file."""
    p = draw(st.sampled_from([2, 3, 5, 65521]))
    F = GF(p)
    n = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["edmonds", "tutte", "matroid", "lines", "symbolic"]))
    m = draw(st.integers(0, 6))
    vec = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    ref = np.zeros((m, n, n), dtype=np.int64)
    if kind in ("edmonds", "tutte"):
        cells = [(i, j) for i in range(n) for j in range(n) if kind == "edmonds" or i != j]
        edges = draw(st.lists(st.sampled_from(cells), max_size=m, unique=True))
        m = len(edges)
        ref = ref[:m]
        inst = BipartiteInstance(n, edges, [0] * m)
        for k, (i, j) in enumerate(edges):
            ref[k, i, j] = 1
            if kind == "tutte":
                ref[k, j, i] = p - 1
        build = build_edmonds if kind == "edmonds" else build_tutte
        return build(inst, F).base, ref
    a = np.array(draw(st.lists(vec, min_size=m, max_size=m)), dtype=np.int64).reshape(m, n)
    b = np.array(draw(st.lists(vec, min_size=m, max_size=m)), dtype=np.int64).reshape(m, n)
    if kind == "matroid":
        inst = MatroidPairInstance(F, a, b, [0] * m)
        for k in range(m):
            ref[k] = np.outer(a[k], b[k]) % p
        return build_matroid_intersection(inst).base, ref
    if kind == "lines":
        for k in range(m):
            if linalg.rank(np.stack([a[k], b[k]]), p) < 2:  # not a line: take e_1, e_2
                a[k], b[k] = np.eye(2, n, dtype=np.int64)
            ref[k] = (np.outer(a[k], b[k]) - np.outer(b[k], a[k])) % p
        return build_matroid_matching(LineCollection(F, list(zip(a, b)), [0] * m, n)).base, ref
    m = max(m, 1)
    entry = st.tuples(st.integers(1, n), st.integers(1, n), st.integers(-p, p))
    triples = draw(st.lists(st.lists(entry, max_size=n * n), min_size=m, max_size=m))
    ref = np.zeros((m, n, n), dtype=np.int64)
    for k, term in enumerate(triples):
        for i, j, v in term:
            ref[k, i - 1, j - 1] = (ref[k, i - 1, j - 1] + v) % p
    doc = {"field": {"p": p}, "kind": "symbolic", "payload": {"rows": n, "cols": n, "terms": triples}}
    return parse_text(json.dumps(doc)).obj, ref


@PROPERTY
@given(built_matrices())
def test_builder_factors_multiply_to_the_terms(built):
    A, ref = built
    C, R = A.factors
    m, n, r = C.shape
    p = A.F.p
    ranks = [linalg.rank(T, p) for T in ref]
    assert R.shape == (m, r, n) and r >= max(ranks + [1])
    assert np.array_equal(C @ R % p, ref)
    assert np.array_equal(A.terms, ref)


@st.composite
def factored_products(draw):
    """(A, L, Rt): a stack stored as rank-r factors with sparse entries,
    and the two sides of L A_k Rt."""
    p = draw(st.sampled_from([2, 3, 65521]))
    m, nr, nc, r, a, b = (draw(st.integers(lo, 4)) for lo in (0, 1, 1, 1, 1, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def sparse(shape):
        return rng.integers(0, p, size=shape) * (rng.random(shape) < 0.5)

    A = SymbolicMatrix(GF(p), factors=(sparse((m, nr, r)), sparse((m, r, nc))))
    return A, sparse((a, nr)), sparse((nc, b))


@PROPERTY
@given(factored_products())
def test_factored_products_equal_the_per_term_loop(case):
    A, L, Rt = case
    p = A.F.p
    ref = np.zeros((A.n_terms, L.shape[0], Rt.shape[1]), dtype=np.int64)
    for k in range(A.n_terms):
        ref[k] = (L @ A.terms[k] % p) @ Rt % p
    for stored in (A, SymbolicMatrix(A.F, A.terms)):
        B = stored.sandwich(L, Rt)
        assert np.array_equal(B.terms, ref)
        assert all(np.array_equal(x, y) for x, y in zip(B.support(), np.nonzero(ref)))


def dense_sums(Ac, alpha, P, beta, Q):
    """alpha_i + beta_j + c_k, in exact Python numbers, wherever the
    densely formed (P A_k Q)_ij is nonzero, P and Q reduced mod p."""
    p, sq = Ac.F.p, Ac.pad_square()
    P, Q = (np.asarray(X, dtype=np.int64) % p for X in (P, Q))
    return [
        alpha[i] + beta[j] + ck
        for Ak, ck in zip(sq.base.terms, sq.c)
        for i, j in zip(*np.nonzero(P @ Ak % p @ Q % p))
    ]


def dense_feasible(sol, Ac):
    """DualSolution.feasible by its definition: sorted, P and Q
    invertible mod p, and every dense_sums entry at most 0."""
    p = Ac.F.p
    if not sol.is_sorted() or min(linalg.rank(np.asarray(X, dtype=np.int64) % p, p) for X in (sol.P, sol.Q)) < sol.n:
        return False
    return all(s <= 0 for s in dense_sums(Ac, sol.alpha, sol.P, sol.beta, sol.Q))


class FractionSubclass(Fraction):
    """Not a Fraction by type, so feasible compares it as an object."""


@st.composite
def monomial_duals(draw):
    """(sol, A[c]): A over GF(2), GF(3) or GF(65521), up to 4 x 4 and
    padded when rectangular, with single-entry, rank-one or rank-two
    terms stored factored or dense; P and Q permutations, either of them
    unreduced (X + p Y) or replaced by an arbitrary matrix; sorted alpha
    and beta, integral or half-integral, as ints, Fractions or a Fraction
    subclass, some beyond 2^61, some shifted to make the tightest entry
    tight or just infeasible."""
    p = draw(st.sampled_from([2, 3, 65521]))
    nr, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    nc = draw(st.sampled_from([nr, 1, 2, 3, 4]))
    n = max(nr, nc)
    r = draw(st.sampled_from([0, 1, 2]))  # 0: single entries
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if r == 0:
        C, R = np.zeros((m, nr, 1), dtype=np.int64), np.zeros((m, 1, nc), dtype=np.int64)
        for k in range(m):
            C[k, rng.integers(nr), 0], R[k, 0, rng.integers(nc)] = rng.integers(1, p), 1
    else:
        C, R = (rng.integers(0, p, size=s) * (rng.random(s) < 0.8) for s in ((m, nr, r), (m, r, nc)))
    A = SymbolicMatrix(GF(p), factors=(C, R))
    if draw(st.booleans()):
        A = SymbolicMatrix(A.F, A.terms)
    Ac = WeightedSymbolicMatrix(A, draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m)))
    P, Q = (np.eye(n, dtype=np.int64)[draw(st.permutations(range(n)))] for _ in range(2))
    side = draw(st.sampled_from(["both", "both", "P", "Q"]))  # the side that stays a permutation
    if side != "both":
        other = rng.integers(0, p, size=(n, n))
        P, Q = (P, other) if side == "P" else (other, Q)
    P, Q = (X + p * rng.integers(-2, 3, size=(n, n)) * draw(st.booleans()) for X in (P, Q))
    den = draw(st.sampled_from([1, 1, 2]))
    big = draw(st.sampled_from([0, 0, 2**62, 2**70]))
    whole = draw(st.booleans())  # integral entries as ints
    form = draw(st.sampled_from([Fraction, Fraction, FractionSubclass]))

    def number(x):
        q = Fraction(x, den)
        return int(q) if whole and q.denominator == 1 else form(q)

    vals = st.lists(st.integers(-4, 6), min_size=n, max_size=n)
    alpha, beta = ([number(x + sign * big * den) for x in sorted(draw(vals), reverse=True)] for sign in (1, -1))
    shift = draw(st.sampled_from([None, None, 0, Fraction(1, den)]))
    if shift is not None:
        worst = max(dense_sums(Ac, alpha, P, beta, Q), default=0)
        beta = [b - worst + shift for b in beta]
    return DualSolution(alpha, P, beta, Q, A.F), Ac


# P != P^t: entry (1, 0) lands in row 2, where P[2, 1] = 1 and alpha is
# 0, feasible; read through P^t it would land in row 0, where alpha is 1
THREE_CYCLE = (
    DualSolution([1, 0, 0], np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]]), [0, 0, 0], linalg.identity(3), GF(5)),
    WeightedSymbolicMatrix(SymbolicMatrix(GF(5), [[[0, 0, 0], [1, 0, 0], [0, 0, 0]]]), [0]),
)


# a Fraction subclass after an int must not be cast to int64: entry
# (1, 1) reads 1/2 + 0 + 0 > 0, infeasible, and cast it would read 0
SUBCLASS_AFTER_INT = (
    DualSolution([1, FractionSubclass(1, 2)], linalg.identity(2), [0, 0], linalg.identity(2), GF(5)),
    WeightedSymbolicMatrix(SymbolicMatrix(GF(5), [[[0, 0], [0, 1]]]), [0]),
)


@settings(PROPERTY, max_examples=300)
@given(monomial_duals())
@example(THREE_CYCLE)
@example(SUBCLASS_AFTER_INT)
def test_monomial_feasibility_matches_the_dense_products(case):
    sol, Ac = case
    assert sol.feasible(Ac) == dense_feasible(sol, Ac)
