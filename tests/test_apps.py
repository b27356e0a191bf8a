import random
from fractions import Fraction

import numpy as np
import pytest

from ncdeg.apps import (
    BLDatum,
    BipartiteInstance,
    FractionalMatching,
    LineCollection,
    MatroidPairInstance,
    NEG_INF,
    bl_membership_rank2,
    brute_force_matching_oracles,
    build_edmonds,
    build_matroid_intersection,
    build_matroid_matching,
    build_tutte,
    fmm_max_weight,
    fmp_lp_oracle,
)
from ncdeg.degdet import hungarian_deg_det, symmetric_hungarian
from ncdeg.errors import DimensionMismatch
from ncdeg.scalar import GF


def k3_lines(F):
    e = np.eye(3, dtype=np.int64)
    return LineCollection(
        F, [(e[0], e[1]), (e[0], e[2]), (e[1], e[2])], [1, 1, 1]
    )


def random_lines(rng, F, n, m):
    pairs = []
    while len(pairs) < m:
        a = [rng.randrange(F.p) for _ in range(n)]
        b = [rng.randrange(F.p) for _ in range(n)]
        M = np.array([a, b], dtype=np.int64)
        from ncdeg import linalg

        if linalg.rank(M, F.p) == 2:
            pairs.append((a, b))
    c = [rng.randint(-3, 3) for _ in range(m)]
    return LineCollection(F, pairs, c)


# ---------------------------------------------------------------------------
# builders


def test_build_edmonds_single_edge():
    F = GF(5)
    Ac = build_edmonds(BipartiteInstance(1, [(0, 0)], [5]), F)
    assert Ac.base.n_terms == 1
    assert Ac.base.term(0).tolist() == [[1]]
    assert Ac.c == [5]


def test_build_tutte_k3_skew():
    for p in (2, 5):
        F = GF(p)
        inst = BipartiteInstance(3, [(0, 1), (0, 2), (1, 2)], [1, 1, 1])
        Ac = build_tutte(inst, F)
        assert Ac.base.n_terms == 3
        for k in range(3):
            M = Ac.base.term(k)
            assert ((M + M.T) % p == 0).all()
            assert (np.diag(M) == 0).all()
            assert (M != 0).sum() == 2


def test_build_matroid_matching_unit():
    F = GF(5)
    e = np.eye(3, dtype=np.int64)
    H = LineCollection(F, [(e[0], e[1])], [2])
    Ac = build_matroid_matching(H)
    M = Ac.base.term(0)
    assert M[0, 1] == 1 and M[1, 0] == 4 and (M != 0).sum() == 2


def test_build_matroid_intersection_outer():
    F = GF(5)
    inst = MatroidPairInstance(F, [[1, 2]], [[0, 3]], [1])
    M = build_matroid_intersection(inst).base.term(0)
    assert M.tolist() == [[0, 3], [0, 6 % 5]]


def test_builder_validation():
    F = GF(5)
    with pytest.raises(DimensionMismatch):
        BipartiteInstance(2, [(0, 0), (0, 0)], [1, 1])
    with pytest.raises(DimensionMismatch):
        BipartiteInstance(2, [(0, 2)], [1])
    with pytest.raises(DimensionMismatch):
        build_tutte(BipartiteInstance(2, [(1, 1)], [1]), F)
    with pytest.raises(DimensionMismatch):
        LineCollection(F, [([1, 0], [2, 0])], [1])
    with pytest.raises(DimensionMismatch):
        BLDatum(F, [[[1, 0, 0], [2, 0, 0]]], [Fraction(1, 2)])


def test_collections_take_their_dimension():
    F = GF(5)
    H = LineCollection(F, [], [], n=3)
    assert H.n == 3
    assert build_matroid_matching(H).base.terms.shape == (0, 3, 3)
    assert BLDatum(F, [], [], n=3).lines().n == 3
    e = np.eye(2, dtype=np.int64)
    assert LineCollection(F, [(e[0], e[1])], [1]).n == BLDatum(F, [e], [1]).n == 2
    with pytest.raises(DimensionMismatch):
        LineCollection(F, [], [])
    with pytest.raises(DimensionMismatch):
        BLDatum(F, [], [])
    with pytest.raises(DimensionMismatch):
        LineCollection(F, [(e[0], e[1])], [1], n=3)
    with pytest.raises(DimensionMismatch):
        BLDatum(F, [e], [1], n=3)


# ---------------------------------------------------------------------------
# fractional matroid matching LP


def test_fmp_lp_k3_unit_weights():
    H = k3_lines(GF(3))
    val, y = fmp_lp_oracle(H)
    assert val == Fraction(3, 2)
    assert y == [Fraction(1, 2)] * 3
    val3, y3 = fmp_lp_oracle(H, ell=3)
    assert val3 == Fraction(3, 2)
    assert fmp_lp_oracle(H, ell=2)[0] == 1


def test_fmp_lp_single_line():
    F = GF(3)
    H = LineCollection(F, [([1, 0], [0, 1])], [7])
    assert fmp_lp_oracle(H)[0] == 7
    assert fmp_lp_oracle(H, ell=2) == (7, [Fraction(1)])
    assert fmp_lp_oracle(H, ell=1)[0] == Fraction(7, 2)
    assert fmp_lp_oracle(H, ell=4)[0] == NEG_INF


def test_fmp_lp_nonpositive_weights():
    H = k3_lines(GF(3))
    val, y = fmp_lp_oracle(H, c=[-1, -2, 0])
    assert val == 0


def test_fmp_lp_empty():
    F = GF(3)
    H = LineCollection(F, [], [], n=0)
    assert fmp_lp_oracle(H) == (0, [])
    assert fmp_lp_oracle(H, ell=2) == (NEG_INF, None)


def test_fmp_lp_k3_skewed_regression():
    H = k3_lines(GF(3))
    val, y = fmp_lp_oracle(H, c=[2, 1, 1])
    val_e, _ = fmp_lp_oracle(H, c=[2, 1, 1], method="enumerate")
    assert val == val_e == 2


def test_fmp_routes_agree_random():
    rng = random.Random(2024)
    for _ in range(8):
        F = GF(2)
        n = rng.randint(2, 4)
        m = rng.randint(1, 3)
        H = random_lines(rng, F, n, m)
        for ell in [None] + list(range(n + 1)):
            fast = fmp_lp_oracle(H, ell=ell, method="halfint")
            slow = fmp_lp_oracle(H, ell=ell, method="enumerate")
            assert fast[0] == slow[0], (H, ell)
            if fast[0] != NEG_INF:
                # both optimal points must verify
                for _, y in (fast, slow):
                    fm = FractionalMatching(y)
                    assert fm.verify(H)


def test_fractional_matching_verify():
    H = k3_lines(GF(3))
    good = FractionalMatching([Fraction(1, 2)] * 3)
    assert good.verify(H)
    assert good.is_perfect(3)
    bad = FractionalMatching([1, 1, 0])
    assert not bad.verify(H)


# ---------------------------------------------------------------------------
# weighted fractional matroid matching vs the symmetric engine


def test_fmm_k3_unit_weights():
    H = k3_lines(GF(3))
    best, curve = fmm_max_weight(H, rng=random.Random(0))
    assert best == Fraction(3, 2)
    assert curve == {
        0: 0,
        1: Fraction(1, 2),
        2: Fraction(1),
        3: Fraction(3, 2),
    }


def test_fmm_single_line():
    F = GF(3)
    H = LineCollection(F, [([1, 0], [0, 1])], [7])
    best, curve = fmm_max_weight(H, rng=random.Random(1))
    assert best == 7
    assert curve[2] == 7 and curve[1] == Fraction(7, 2)


def test_fmm_nonpositive_weights():
    H = k3_lines(GF(3))
    best, _ = fmm_max_weight(H, c=[-1, -2, -1], rng=random.Random(2))
    assert best == 0


def test_fmm_matches_lp_random():
    rng = random.Random(77)
    for _ in range(8):
        F = GF(rng.choice([2, 3]))
        n = rng.randint(2, 4)
        m = rng.randint(1, 4)
        H = random_lines(rng, F, n, m)
        A = build_matroid_matching(H)
        prof = symmetric_hungarian(A.base, H.weights, rng=random.Random(5))
        for ell in range(n + 1):
            lp_val, _ = fmp_lp_oracle(H, ell=ell)
            want = NEG_INF if lp_val == NEG_INF else 2 * lp_val
            assert prof.values[ell] == want, (H, ell, prof.values)


# ---------------------------------------------------------------------------
# Brascamp-Lieb membership


def coordinate_datum(F, p):
    e = np.eye(3, dtype=np.int64)
    maps = [np.stack([e[0], e[1]]), np.stack([e[0], e[2]]), np.stack([e[1], e[2]])]
    return BLDatum(F, maps, p)


def test_bl_k3_accept():
    datum = coordinate_datum(GF(3), [Fraction(1, 2)] * 3)
    ok, cert = bl_membership_rank2(datum)
    assert ok and cert is None


def test_bl_dimension_reject():
    datum = coordinate_datum(
        GF(3), [Fraction(1, 2), Fraction(1, 2), Fraction(3, 4)]
    )
    ok, cert = bl_membership_rank2(datum)
    assert not ok
    assert cert["kind"] == "dimension"
    assert cert["lhs"] == Fraction(7, 2) and cert["rhs"] == 3


def test_bl_subspace_reject():
    datum = coordinate_datum(GF(3), [1, Fraction(1, 2), 0])
    ok, cert = bl_membership_rank2(datum)
    assert not ok
    assert cert["kind"] == "subspace"
    # recheck the certificate arithmetic against the returned basis
    from ncdeg.apps import _dim_intersection

    X = np.array(cert["basis"], dtype=np.int64)
    H = datum.lines()
    lhs = sum(
        pj * _dim_intersection(H.basis(k), X, 3)
        for k, pj in enumerate(datum.p)
    )
    assert lhs == cert["lhs"] and lhs > cert["rhs"] == X.shape[0]


def test_fmp_constraints_match_per_subspace_reference():
    # the batched kernel against one _dim_intersection per line and X,
    # keeping the first X of least dimension for each coefficient row
    from ncdeg.apps import _dim_intersection, _fmp_constraints
    from ncdeg.mvsp import enumerate_subspaces

    rng = random.Random(11)
    for p, n in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5), (5, 3), (5, 4)]:
        F = GF(p)
        for m in (1, 4):
            H = random_lines(rng, F, n, m)
            want = {}
            for X in enumerate_subspaces(F, n)[1:]:
                row = tuple(_dim_intersection(H.basis(k), X, p) for k in range(m))
                if any(row) and (row not in want or X.shape[0] < want[row].shape[0]):
                    want[row] = X
            got = _fmp_constraints(H)
            assert [row for row, _, _ in got] == list(want)
            for row, dx, X in got:
                assert dx == X.shape[0] and np.array_equal(X, want[row])


def test_bl_integer_pair_reject():
    datum = coordinate_datum(GF(3), [1, 1, 0])
    ok, cert = bl_membership_rank2(datum)
    assert not ok and cert["kind"] == "dimension"


# ---------------------------------------------------------------------------
# brute-force referees


def test_bf_bipartite_values():
    inst = BipartiteInstance(
        2, [(0, 0), (0, 1), (1, 0), (1, 1)], [3, 1, 2, 4]
    )
    assert brute_force_matching_oracles(inst, 0) == 0
    assert brute_force_matching_oracles(inst, 1) == 4
    assert brute_force_matching_oracles(inst, 2) == 7
    sparse = BipartiteInstance(3, [(0, 0), (1, 0)], [5, 9])
    assert brute_force_matching_oracles(sparse, 1) == 9
    assert brute_force_matching_oracles(sparse, 2) == NEG_INF


def test_bf_matroid_values():
    F = GF(5)
    inst = MatroidPairInstance(
        F, [[1, 0], [0, 1], [1, 1]], [[1, 0], [1, 0], [0, 1]], [4, 1, 2]
    )
    assert brute_force_matching_oracles(inst, 1) == 4
    # {0,1} dependent on the b side, {0,2} works: 4+2
    assert brute_force_matching_oracles(inst, 2) == 6


def test_bf_dispatch_error():
    with pytest.raises(TypeError):
        brute_force_matching_oracles(k3_lines(GF(3)), 1)


# ---------------------------------------------------------------------------
# builders feed the engines


def test_edmonds_engine_vs_brute_force():
    rng = random.Random(31)
    F = GF(65521)
    for _ in range(10):
        n = rng.randint(1, 3)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if rng.random() < 0.6
        ]
        if not edges:
            continue
        inst = BipartiteInstance(n, edges, [rng.randint(-4, 4) for _ in edges])
        prof = hungarian_deg_det(build_edmonds(inst, F), rng=random.Random(7))
        for ell in range(n + 1):
            assert prof.values[ell] == brute_force_matching_oracles(inst, ell)


def test_matroid_engine_vs_brute_force():
    rng = random.Random(32)
    F = GF(5)
    for _ in range(8):
        n = 3
        m = rng.randint(1, 5)
        inst = MatroidPairInstance(
            F,
            [[rng.randrange(5) for _ in range(n)] for _ in range(m)],
            [[rng.randrange(5) for _ in range(n)] for _ in range(m)],
            [rng.randint(-3, 3) for _ in range(m)],
        )
        prof = hungarian_deg_det(
            build_matroid_intersection(inst), rng=random.Random(8)
        )
        for ell in range(n + 1):
            assert prof.values[ell] == brute_force_matching_oracles(inst, ell)
