"""Property tests on small random instances: the monomial engines and
optimize_Q against brute force, the engines against each other, and the
stacked matmul against the per-term loop."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdeg import linalg
from ncdeg.apps import (
    BipartiteInstance,
    MatroidPairInstance,
    brute_force_matching_oracles,
    build_edmonds,
    build_matroid_intersection,
)
from ncdeg.degdet import hungarian_deg_det, optimize_Q, symmetric_hungarian, verify_dual
from ncdeg.errors import DimensionMismatch
from ncdeg.scalar import GF
from ncdeg.symbolic import SymbolicMatrix, WeightedSymbolicMatrix

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
