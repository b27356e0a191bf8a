"""End-to-end acceptance battery.

Each test is one numbered criterion with its own tolerance and, where
stated, a wall-clock budget; pytest -v prints the pass/fail line per
criterion.  Instance families are generated once from fixed seeds and
shared, so the per-criterion timings cover exactly the work the
criterion adds.
"""

import random
import time
from fractions import Fraction

import numpy as np

from ncdeg.apps import (
    BLDatum,
    BipartiteInstance,
    LineCollection,
    MatroidPairInstance,
    brute_force_matching_oracles,
    build_edmonds,
    build_matroid_intersection,
    build_matroid_matching,
    bl_membership_rank2,
    fmp_lp_oracle,
)
from ncdeg.degdet import (
    NEG_INF,
    hungarian_deg_det,
    optimize_Q,
    symmetric_hungarian,
    verify_dual,
)
from ncdeg.mvsp import nc_rank
from ncdeg.scalar import GF
from ncdeg.symbolic import (
    Delta_blowup_oracle,
    SymbolicMatrix,
    WeightedSymbolicMatrix,
    random_rank,
)
from referee import (
    RationalSymbolicMatrix,
    deg_subdet,
    delta_ell_oracle,
    general_degree_data,
    is_concave,
    random_feasible_dual,
)

_SUITES = {}


def tutte_k3(F):
    e = np.eye(3, dtype=np.int64)
    terms = [
        (np.outer(e[i], e[j]) - np.outer(e[j], e[i])) % F.p
        for i, j in ((0, 1), (0, 2), (1, 2))
    ]
    return SymbolicMatrix(F, terms)


def bipartite_suite():
    """200 weighted bipartite instances, n <= 6, weights in [-10, 10]."""
    if "bipartite" not in _SUITES:
        rng = random.Random(10_002)
        F = GF(65521)
        runs = []
        while len(runs) < 200:
            n = rng.randint(1, 6)
            edges = [
                (i, j) for i in range(n) for j in range(n) if rng.random() < 0.55
            ]
            if not edges:
                continue
            inst = BipartiteInstance(
                n, edges, [rng.randint(-10, 10) for _ in edges]
            )
            Ac = build_edmonds(inst, F)
            prof = hungarian_deg_det(Ac, rng=random.Random(rng.randrange(2**30)))
            runs.append((inst, Ac, prof))
        _SUITES["bipartite"] = runs
    return _SUITES["bipartite"]


def matroid_suite():
    """100 matroid intersection instances over GF(5), n <= 5, m <= 8."""
    if "matroid" not in _SUITES:
        rng = random.Random(10_003)
        F = GF(5)
        runs = []
        for _ in range(100):
            n = rng.randint(1, 5)
            m = rng.randint(1, 8)
            inst = MatroidPairInstance(
                F,
                [[rng.randrange(5) for _ in range(n)] for _ in range(m)],
                [[rng.randrange(5) for _ in range(n)] for _ in range(m)],
                [rng.randint(-8, 8) for _ in range(m)],
            )
            Ac = build_matroid_intersection(inst)
            prof = hungarian_deg_det(Ac, rng=random.Random(rng.randrange(2**30)))
            runs.append((inst, Ac, prof))
        _SUITES["matroid"] = runs
    return _SUITES["matroid"]


def lines_suite():
    """100 line collections over GF(2)/GF(3), n <= 4, m <= 5, c in [-3, 3]."""
    if "lines" not in _SUITES:
        rng = random.Random(10_004)
        runs = []
        for _ in range(100):
            F = GF(rng.choice([2, 3]))
            n = rng.randint(2, 4)
            m = rng.randint(1, 5)
            pairs = []
            while len(pairs) < m:
                a = [rng.randrange(F.p) for _ in range(n)]
                b = [rng.randrange(F.p) for _ in range(n)]
                from ncdeg import linalg

                if linalg.rank(np.array([a, b], dtype=np.int64), F.p) == 2:
                    pairs.append((a, b))
            H = LineCollection(F, pairs, [rng.randint(-3, 3) for _ in range(m)])
            Ac = build_matroid_matching(H)
            prof = symmetric_hungarian(
                Ac.base, H.weights, rng=random.Random(rng.randrange(2**30))
            )
            runs.append((H, Ac, prof))
        _SUITES["lines"] = runs
    return _SUITES["lines"]


def all_weighted_runs():
    for _, Ac, prof in bipartite_suite():
        yield Ac, prof
    for _, Ac, prof in matroid_suite():
        yield Ac, prof
    for _, Ac, prof in lines_suite():
        yield WeightedSymbolicMatrix(Ac.base, Ac.c), prof


def test_criterion_01_triangle_rank_gap():
    t0 = time.perf_counter()
    F = GF(65521)
    A = tutte_k3(F)
    assert random_rank(A, random.Random(1)) == 2
    assert nc_rank(A, random.Random(2)) == 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 1: PASS (rank 2 vs nc-rank 3 in {elapsed:.3f}s)")


def test_criterion_02_bipartite_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for inst, Ac, prof in bipartite_suite():
        for ell in range(inst.n + 1):
            assert prof.values[ell] == brute_force_matching_oracles(inst, ell), (
                inst.edges,
                inst.weights,
                ell,
            )
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 2: PASS ({checked} level checks on 200 instances in {elapsed:.1f}s)")


def test_criterion_03_matroid_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for inst, Ac, prof in matroid_suite():
        for ell in range(inst.n + 1):
            assert prof.values[ell] == brute_force_matching_oracles(inst, ell), (
                inst,
                ell,
            )
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 3: PASS ({checked} level checks on 100 instances in {elapsed:.1f}s)")


def test_criterion_04_fractional_matroid_matching():
    t0 = time.perf_counter()
    checked = 0
    for H, Ac, prof in lines_suite():
        for ell in range(H.n + 1):
            lp_val, _ = fmp_lp_oracle(H, ell=ell)
            want = NEG_INF if lp_val == NEG_INF else 2 * lp_val
            assert prof.values[ell] == want, (H, ell, prof.values)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"criterion 4: PASS ({checked} level checks on 100 instances in {elapsed:.1f}s)")


def test_criterion_05_blowup_oracle_consistency():
    t0 = time.perf_counter()
    rng = random.Random(10_005)
    total = 0
    equal = 0
    for Ac, prof in all_weighted_runs():
        n = prof.n
        ell = rng.randint(1, n)
        est = Delta_blowup_oracle(Ac, ell, rng=random.Random(rng.randrange(2**30)))
        true = prof.values[ell]
        assert est <= true or true == NEG_INF and est == NEG_INF, (ell, est, true)
        total += 1
        if est == true:
            equal += 1
    elapsed = time.perf_counter() - t0
    assert equal >= 0.99 * total, f"{equal}/{total} exact"
    print(
        f"criterion 5: PASS (oracle never above, {equal}/{total} exact, {elapsed:.1f}s)"
    )


def test_criterion_06_duality_certification():
    t0 = time.perf_counter()
    emitted = 0
    for Ac, prof in all_weighted_runs():
        for ell, sol in prof.duals.items():
            assert verify_dual(sol, Ac, ell, prof.values[ell]), (ell, sol)
            emitted += 1
    weak = 0
    for name, suite in (
        ("bipartite", bipartite_suite()),
        ("matroid", matroid_suite()),
        ("lines", lines_suite()),
    ):
        rng = random.Random(10_006)
        for t in range(1000):
            _, Ac, prof = suite[t % len(suite)]
            if name == "lines":
                Ac = WeightedSymbolicMatrix(Ac.base, Ac.c)
            sol = random_feasible_dual(Ac, rng)
            ell = rng.randint(0, prof.n)
            assert sol.objective(ell) >= prof.values[ell]
            weak += 1
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 6: PASS ({emitted} emitted duals verified, {weak} weak-duality draws, {elapsed:.1f}s)"
    )


def test_criterion_07_iteration_bounds():
    t0 = time.perf_counter()
    for _, _, prof in bipartite_suite() + matroid_suite():
        n = prof.n
        r_star = prof.meta["r_star"]
        assert prof.meta["iterations"] <= 4 * max(r_star, 1) * n * n
    subdet_runs = 0
    rng = random.Random(10_007)
    for _, Ac, hung in (bipartite_suite()[:30] + matroid_suite()[:20]):
        B = RationalSymbolicMatrix.from_weighted(Ac)
        prof = deg_subdet(B, rng=random.Random(rng.randrange(2**30)))
        d, d0 = general_degree_data(B)
        assert prof.meta["iterations"] <= B.n * (d - d0)
        for ell in range(prof.n + 1):
            assert prof.values[ell] == hung.values[ell]
        subdet_runs += 1
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 7: PASS (300 monomial runs, {subdet_runs} general runs in bound, {elapsed:.1f}s)"
    )


def test_criterion_08_concavity_and_coordinates():
    t0 = time.perf_counter()
    rng = random.Random(10_008)
    coords = 0
    for Ac, prof in all_weighted_runs():
        assert is_concave(prof), prof
        ell = prof.meta["r_star"]
        u = optimize_Q(Ac, ell, rng=random.Random(rng.randrange(2**30)))
        assert sum(u) == ell
        assert sum(ci * ui for ci, ui in zip(Ac.c, u)) == prof.values[ell]
        coords += 1
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 8: PASS (concavity everywhere, {coords} optimize_Q outputs, {elapsed:.1f}s)"
    )


def test_criterion_09_delta_gap_witness():
    F = GF(5)
    Ac = WeightedSymbolicMatrix(tutte_k3(F), [1, 1, 1])
    prof = hungarian_deg_det(Ac, rng=random.Random(9))
    assert prof.values[3] == 3
    assert delta_ell_oracle(Ac, 3, rng=random.Random(9)) == NEG_INF
    print("criterion 9: PASS (Delta_3 = 3, ordinary delta_3 = -inf)")


def test_criterion_10_bl_membership():
    t0 = time.perf_counter()
    F = GF(3)
    e = np.eye(3, dtype=np.int64)
    maps = [np.stack([e[0], e[1]]), np.stack([e[0], e[2]]), np.stack([e[1], e[2]])]
    half = Fraction(1, 2)
    ok, cert = bl_membership_rank2(BLDatum(F, maps, [half, half, half]))
    assert ok and cert is None
    ok, cert = bl_membership_rank2(
        BLDatum(F, maps, [half, half, Fraction(3, 4)])
    )
    assert not ok
    assert cert["kind"] in ("dimension", "subspace")
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 10: PASS (accept and reject with certificate in {elapsed:.3f}s)")
