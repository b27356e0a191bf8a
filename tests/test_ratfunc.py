import random
from itertools import permutations

import numpy as np
import pytest

from ncdeg.ratfunc import NEG_INF, POS_INF
from ncdeg.scalar import GF
from referee import NotBiproper, Poly, RatFn, RationalMatrix, ZeroInversion, classify_biproper, inv, poly_gcd

PRIMES = [2, 3, 5, 65521]


def rand_poly(rng, F, maxdeg):
    d = rng.randrange(-1, maxdeg + 1)
    if d < 0:
        return Poly.zero(F)
    c = [rng.randrange(F.p) for _ in range(d)] + [rng.randrange(1, F.p)]
    return Poly(F, c)


def rand_ratfn(rng, F, maxdeg):
    num = rand_poly(rng, F, maxdeg)
    den = Poly.zero(F)
    while den.is_zero():
        den = rand_poly(rng, F, maxdeg)
    return RatFn(num, den)


@pytest.mark.parametrize("p", PRIMES)
def test_poly_arithmetic_via_evaluation(p):
    F = GF(p)
    rng = random.Random(600 + p)
    for _ in range(200):
        f = rand_poly(rng, F, 5)
        g = rand_poly(rng, F, 5)
        a = rng.randrange(F.p)
        assert (f + g).eval(a) == (f.eval(a) + g.eval(a)) % F.p
        assert (f * g).eval(a) == (f.eval(a) * g.eval(a)) % F.p
        assert (f - g).eval(a) == (f.eval(a) - g.eval(a)) % F.p
        if not (f.is_zero() or g.is_zero()):
            assert (f * g).deg == f.deg + g.deg
            assert (f * g).ord == f.ord + g.ord


@pytest.mark.parametrize("p", PRIMES)
def test_poly_divmod(p):
    F = GF(p)
    rng = random.Random(601 + p)
    for _ in range(200):
        f = rand_poly(rng, F, 6)
        d = Poly.zero(F)
        while d.is_zero():
            d = rand_poly(rng, F, 3)
        q, r = f.divmod(d)
        assert q * d + r == f
        assert r.is_zero() or r.deg < d.deg


@pytest.mark.parametrize("p", PRIMES)
def test_poly_gcd(p):
    F = GF(p)
    rng = random.Random(602 + p)
    for _ in range(100):
        f = rand_poly(rng, F, 4)
        g = rand_poly(rng, F, 4)
        h = poly_gcd(f, g)
        if f.is_zero() and g.is_zero():
            assert h.is_zero()
            continue
        assert not h.is_zero() and h.lc() == 1
        assert (f % h).is_zero() or f.is_zero()
        assert (g % h).is_zero() or g.is_zero()
        # common factors show up in the gcd
        m = rand_poly(rng, F, 2)
        if not m.is_zero():
            h2 = poly_gcd(f * m, g * m)
            if not h2.is_zero():
                assert (h2 % m.monic()).is_zero()


def test_poly_degree_sentinels():
    F = GF(5)
    assert Poly.zero(F).deg == NEG_INF
    assert Poly.zero(F).ord == POS_INF
    assert Poly.one(F).deg == 0
    assert Poly.t_power(F, 3).deg == 3
    assert Poly(F, [0, 0, 2, 0]).ord == 2
    with pytest.raises(ZeroInversion):
        Poly.zero(F).lc()


@pytest.mark.parametrize("p", PRIMES)
def test_ratfn_field_ops_via_evaluation(p):
    F = GF(p)
    rng = random.Random(603 + p)
    checked = 0
    while checked < 150:
        f = rand_ratfn(rng, F, 3)
        g = rand_ratfn(rng, F, 3)
        a = rng.randrange(F.p)
        try:
            fa, ga = f.eval(a), g.eval(a)
        except ZeroInversion:
            continue
        assert (f + g).eval(a) == (fa + ga) % F.p
        assert (f * g).eval(a) == (fa * ga) % F.p
        assert (f - g).eval(a) == (fa - ga) % F.p
        if ga != 0 and not g.is_zero():
            assert (f / g).eval(a) == fa * inv(F, ga) % F.p
        checked += 1


def test_ratfn_normalized():
    F = GF(5)
    t = Poly.t_power(F, 1)
    one = Poly.one(F)
    # (t^2 - 1) / (2t - 2) reduces to (t+1)/2 with monic denominator
    f = RatFn(t * t - one, Poly(F, [-2, 2]))
    assert f.den == one
    assert f.num == Poly(F, [3, 3])  # (t+1) * inv(2) = 3t + 3
    assert f == RatFn(Poly(F, [3, 3]), one)
    assert hash(f) == hash(RatFn(Poly(F, [3, 3]), one))


def test_ratfn_deg_mindeg_shift():
    F = GF(5)
    f = RatFn.monomial(F, 2, -3)
    assert f.deg == -3 and f.mindeg == -3
    g = RatFn.from_poly(Poly(F, [0, 1, 1]))  # t + t^2
    assert g.deg == 2 and g.mindeg == 1
    h = g.shift(-4)
    assert h.deg == -2 and h.mindeg == -3
    assert h.shift(4) == g
    z = RatFn.zero(F)
    assert z.deg == NEG_INF and z.mindeg == POS_INF
    assert z.shift(5) == z


def test_ratfn_at_infinity():
    F = GF(7)
    # (3t^2 + 1) / (2t^2 + t) -> 3/2 = 5 mod 7
    f = RatFn(Poly(F, [1, 0, 3]), Poly(F, [0, 1, 2]))
    assert f.at_infinity() == 5
    g = RatFn(Poly(F, [1]), Poly(F, [0, 1]))
    assert g.at_infinity() == 0
    h = RatFn(Poly(F, [0, 0, 1]), Poly(F, [1, 1]))
    with pytest.raises(NotBiproper):
        h.at_infinity()


def naive_rational_det(M):
    m, n = M.shape
    assert m == n
    total = RatFn.zero(M.F)
    for perm in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = RatFn.one(M.F)
        for i in range(n):
            term = term * M.rows[i][perm[i]]
        if inv % 2:
            term = -term
        total = total + term
    return total


@pytest.mark.parametrize("p", [2, 5, 65521])
def test_matrix_det_rank_inverse(p):
    F = GF(p)
    rng = random.Random(604 + p)
    for _ in range(25):
        n = rng.randrange(1, 4)
        M = RationalMatrix(F, [[rand_ratfn(rng, F, 2) for _ in range(n)] for _ in range(n)])
        d = naive_rational_det(M)
        assert M.determinant() == d
        assert M.degdet() == d.deg
        assert (M.rank() < n) == d.is_zero()


def test_matrix_scale_shifts_degrees():
    F = GF(5)
    M = RationalMatrix.from_scalars(F, [[1, 2], [3, 4]])
    S = M.scale_rows([1, -2])
    assert S.rows[0][0].deg == 1
    assert S.rows[1][1].deg == -2
    C = M.scale_cols([0, 3])
    assert C.rows[0][1].deg == 3 and C.rows[0][0].deg == 0
    assert S.degdet() == M.degdet() + 1 - 2


def test_leading_matrix_and_biproper_inverse():
    F = GF(5)
    t_inv = RatFn.monomial(F, 1, -1)
    one = RatFn.one(F)
    zero = RatFn.zero(F)
    M = RationalMatrix(F, [[one, t_inv], [zero, one + t_inv]])
    L = M.leading_matrix()
    assert np.array_equal(L, np.array([[1, 0], [0, 1]]))


def test_degdet_of_shifted_identity():
    F = GF(65521)
    n = 4
    M = RationalMatrix.identity(F, n).scale_rows([3, 1, 0, -2])
    assert M.degdet() == 2
    assert M.rank() == n


def test_degree_and_order_accessors():
    F = GF(5)
    f = RatFn(Poly(F, [1, 0, 1]), Poly.t_power(F, 5))
    assert f.deg == -3
    assert f.mindeg == -5
    assert Poly(F, [0, 1]).deg == 1
    assert Poly(F, [0, 0, 3]).ord == 2
    assert RatFn.zero(F).deg == NEG_INF
    assert RatFn.zero(F).mindeg == POS_INF
    M = RationalMatrix.identity(F, 3)
    assert M.rank() == 3
    assert M.degdet() == 0


@pytest.mark.parametrize("p", [5, 65521])
def test_degdet_product_rule(p):
    F = GF(p)
    rng = random.Random(610 + p)
    done = 0
    while done < 15:
        n = rng.randrange(1, 4)
        M = RationalMatrix(F, [[rand_ratfn(rng, F, 2) for _ in range(n)] for _ in range(n)])
        N = RationalMatrix(F, [[rand_ratfn(rng, F, 2) for _ in range(n)] for _ in range(n)])
        dm, dn = M.degdet(), N.degdet()
        if dm == NEG_INF or dn == NEG_INF:
            continue
        assert M.matmul(N).degdet() == dm + dn
        done += 1


def test_degdet_of_proper_matrix_nonpositive():
    F = GF(5)
    rng = random.Random(611)
    for _ in range(30):
        n = rng.randrange(1, 4)
        rows = []
        for _ in range(n):
            row = []
            for _ in range(n):
                num = rand_poly(rng, F, 2)
                d = Poly.zero(F)
                while d.is_zero() or (not num.is_zero() and d.deg < num.deg):
                    d = rand_poly(rng, F, 4)
                row.append(RatFn(num, d))
            rows.append(row)
        M = RationalMatrix(F, rows)
        assert M.max_deg() <= 0
        assert M.degdet() <= 0


def test_degdet_brute_force_4x4():
    F = GF(65521)
    rng = random.Random(612)
    for _ in range(3):
        M = RationalMatrix(
            F,
            [[RatFn.from_poly(rand_poly(rng, F, 3)) for _ in range(4)] for _ in range(4)],
        )
        assert M.degdet() == naive_rational_det(M).deg


def test_classify_biproper():
    F = GF(5)
    one, zero = RatFn.one(F), RatFn.zero(F)
    tinv = RatFn.monomial(F, 1, -1)
    good = RationalMatrix(F, [[one, tinv], [zero, one]])
    flag = classify_biproper(good)
    assert flag.is_proper and flag.leading_invertible and flag.is_biproper
    improper = RationalMatrix(F, [[RatFn.monomial(F, 1, 1), zero], [zero, one]])
    assert not classify_biproper(improper).is_proper
    degenerate = RationalMatrix(F, [[tinv, zero], [zero, one]])
    flag = classify_biproper(degenerate)
    assert flag.is_proper and not flag.leading_invertible and not flag.is_biproper
