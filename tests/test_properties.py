"""Property tests on small random instances: the monomial engines and
optimize_Q against brute force, the engines against each other and
against the Monte-Carlo blow-up oracle, the blow-up and matroid
witnesses against subspace enumeration, every route's witness in pivot
form and through block-diagonal shaping, matroid intersection against
brute force, the builders' rank factors against their dense terms, and
the stacked matmul and the factored products against the per-term
loop."""

import json

import random

import numpy as np
import pytest
from hypothesis import given, settings
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
    build_tutte,
)
from ncdeg.degdet import (
    deg_subdet,
    hungarian_deg_det,
    optimize_Q,
    symmetric_hungarian,
    verify_dual,
)
from ncdeg.errors import DimensionMismatch
from ncdeg.instances import parse_text
from ncdeg.mvsp import (
    SUBSPACE_CAP,
    block_diagonalize_symmetric,
    block_diagonalize_witness,
    blowup_witness,
    count_subspaces,
    matroid_intersection,
    mvsp_exhaustive,
    mvsp_matroid_intersection,
    nc_rank,
    nested_witness,
    pivot_form,
    witness,
)
from ncdeg.scalar import GF
from ncdeg.symbolic import (
    Delta_blowup_oracle,
    RationalSymbolicMatrix,
    SymbolicMatrix,
    WeightedSymbolicMatrix,
    delta_ell_oracle,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=50)


def check_profile(prof, Ac, want):
    assert [prof.values[l] for l in range(prof.n + 1)] == want
    for l, sol in prof.duals.items():
        assert verify_dual(sol, Ac, l, prof.values[l])


@st.composite
def bipartite_instances(draw):
    n = draw(st.integers(1, 5))
    cells = [(i, j) for i in range(n) for j in range(n)]
    edges = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=len(cells), unique=True))
    weights = draw(st.lists(st.integers(-10, 10), min_size=len(edges), max_size=len(edges)))
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
@given(bipartite_instances())
def test_hungarian_matches_brute_force_on_bipartite(inst):
    Ac = build_edmonds(inst, GF(65521))
    prof = hungarian_deg_det(Ac, rng=random.Random(0))
    check_profile(prof, Ac, oracle_values(inst, inst.n))


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


@PROPERTY
@given(skew_inputs())
def test_symmetric_engine_matches_two_sided_engine(skew):
    A, c = skew
    Ac = WeightedSymbolicMatrix(A, c)
    two = hungarian_deg_det(Ac, rng=random.Random(0))
    sym = symmetric_hungarian(A, c, rng=random.Random(0))
    check_profile(sym, Ac, [two.values[l] for l in range(A.n_rows + 1)])


@st.composite
def witness_inputs(draw):
    """General, skew or rank-one terms on up to five coordinates, small
    enough for subspace enumeration to referee."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 5 if p < 5 else 4))
    m = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["general", "skew", "rank-one"]))
    vec = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    terms = []
    for _ in range(m):
        if kind == "general":
            terms.append(np.array(draw(st.lists(vec, min_size=n, max_size=n))))
        else:
            a, b = np.array(draw(vec)), np.array(draw(vec))
            terms.append(np.outer(a, b) - (np.outer(b, a) if kind == "skew" else 0))
    return SymbolicMatrix(GF(p), terms)


@PROPERTY
@given(witness_inputs())
def test_blowup_witness_is_the_enumerated_dominant_optimum(A):
    w, U, V = blowup_witness(A, random.Random(0))
    _, U_enum, V_enum = mvsp_exhaustive(A)
    assert (U, V) == (U_enum, V_enum)
    assert (w.r, w.s) == (U.dim, V.dim) and w.verify(A)
    assert nc_rank(A, random.Random(1)) == w.value()
    C, R = A.factors
    if C.shape[2] == 1:
        w = mvsp_matroid_intersection(C[:, :, 0], R[:, 0, :], A.F)
        assert (w.r, w.s) == (U.dim, V.dim) and w.verify(A)


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


@PROPERTY
@given(leading_matrices())
def test_witnesses_are_in_pivot_form_and_block_diagonalize(case):
    # every route builds S and T^t in pivot form, and shaping each witness
    # for the runs of alpha and beta keeps its zero block
    A, alpha, beta, skew = case
    F, n = A.F, A.n_rows
    w_blowup, U, V = blowup_witness(A, random.Random(0))
    witnesses = [witness(A, random.Random(1)), w_blowup]
    if count_subspaces(F.p, n) <= SUBSPACE_CAP:
        witnesses.append(mvsp_exhaustive(A)[0])
    nested = [nested_witness(F, U, V)] if skew else []
    for w in witnesses + nested:
        for M in (w.S, w.T.T):
            pi, Up = pivot_form(M)
            assert np.array_equal(Up[pi], M)
        assert block_diagonalize_witness(w, alpha, beta, A).verify(A)
    for w in nested:
        assert block_diagonalize_symmetric(w, alpha, A).verify(A)


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
@given(vector_pairs())
def test_matroid_intersection_matches_brute_force(pair):
    # J is common independent, |J| is the least r1(I) + r2([m] - I), and
    # I is the intersection of all minimizers
    va, vb, p = pair
    m = va.shape[0]
    J, I = matroid_intersection(va, vb, p)
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
        assert sol.mode == "general" and verify_dual(sol, B, l, prof.values[l])


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
