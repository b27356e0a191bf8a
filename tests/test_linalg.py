import random
from itertools import product

import numpy as np
import pytest

from ncdeg import linalg as la

PRIMES = [2, 3, 5, 65521]


def naive_det(A, p):
    n = A.shape[0]
    if n == 0:
        return 1 % p
    total = 0
    import itertools

    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for sign
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j]
        )
        sign = -1 if inv % 2 else 1
        term = sign
        for i in range(n):
            term *= int(A[i, perm[i]])
        total += term
    return total % p


@pytest.mark.parametrize("p", PRIMES)
def test_det_matches_permanent_expansion(p):
    rng = random.Random(500 + p)
    for _ in range(60):
        n = rng.randrange(0, 5)
        A = la.rand_mat(rng, n, n, p)
        assert la.det(A, p) == naive_det(A, p)


@pytest.mark.parametrize("p", PRIMES)
def test_batched_det_agrees_with_scalar(p):
    rng = random.Random(77 + p)
    stack = np.stack([la.rand_mat(rng, 4, 4, p) for _ in range(40)])
    bd = la.batched_det(stack, p)
    for i in range(40):
        assert bd[i] == la.det(stack[i], p)


@pytest.mark.parametrize("p", PRIMES)
def test_rank_and_rref(p):
    rng = random.Random(9 + p)
    for _ in range(50):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        r = rng.randrange(0, min(m, n) + 1)
        # build a rank-r matrix as a product of random m x r and r x n
        B = la.rand_mat(rng, m, r, p)
        C = la.rand_mat(rng, r, n, p)
        A = la.matmul(B, C, p) if r else np.zeros((m, n), dtype=np.int64)
        got = la.rank(A, p)
        assert got <= r
        R, piv = la.rref(A, p)
        assert got == len(piv)
        # RREF invariants: pivot columns are unit vectors
        for i, j in enumerate(piv):
            col = R[:, j]
            assert col[i] == 1 and np.count_nonzero(col) == 1
    # full-rank products over a big field are almost surely rank r; spot check
    if p == 65521:
        B = la.rand_mat(rng, 5, 3, p)
        C = la.rand_mat(rng, 3, 5, p)
        assert la.rank(la.matmul(B, C, p), p) == 3


@pytest.mark.parametrize("p", PRIMES)
def test_nullspace(p):
    # the null space comes as its canonical (RREF) basis, for 0-row,
    # rank-deficient and full-rank inputs alike
    rng = random.Random(31 + p)
    for t in range(60):
        m = rng.randrange(0, 6)
        n = rng.randrange(1, 6)
        r = rng.randrange(0, min(m, n) + 1) if t % 2 else min(m, n)
        A = la.matmul(la.rand_mat(rng, m, r, p), la.rand_mat(rng, r, n, p), p)
        N = la.nullspace(A, p)
        assert N.shape == (n - la.rank(A, p), n)
        assert np.array_equal(N, la.row_basis(N, p))
        assert np.all(la.matmul(A, N.T, p) == 0)
    assert np.array_equal(la.nullspace(np.zeros((0, 3), dtype=np.int64), p), la.identity(3))
    assert la.nullspace(la.identity(3), p).shape == (0, 3)


@pytest.mark.parametrize("p", PRIMES)
def test_rref_is_canonical(p):
    # the RREF of a matrix is that of any matrix with the same row space
    rng = random.Random(61 + p)
    for _ in range(40):
        m, n = rng.randrange(1, 6), rng.randrange(1, 7)
        A = la.rand_mat(rng, m, n, p)
        G = la.rand_mat(rng, m, m, p)
        if la.rank(G, p) < m:
            continue
        R, piv = la.rref(A, p)
        R2, piv2 = la.rref(la.matmul(G, A, p), p)
        assert piv == piv2 and np.array_equal(R, R2)


def test_row_basis_canonical():
    p = 5
    A = np.array([[1, 2, 3], [2, 4, 1], [3, 1, 4]], dtype=np.int64)
    B1 = la.row_basis(A, p)
    # scrambling the generating set leaves the canonical basis unchanged
    A2 = np.array([[3, 1, 4], [4, 3, 2], [1, 2, 3]], dtype=np.int64)  # row ops of A
    assert la.rank(np.concatenate([A, A2]), p) == la.rank(A, p)
    B2 = la.row_basis(A2, p)
    assert np.array_equal(B1, B2)


def test_row_basis_canonical_equality():
    # scrambling a basis by row operations, with entries off their
    # residues, leaves the canonical basis unchanged
    p = 5
    a = la.row_basis(np.array([[1, 2, 3], [0, 1, 4]], dtype=np.int64), p)
    b = la.row_basis(np.array([[1, 3, 7], [2, 4, 6]], dtype=np.int64), p)
    assert np.array_equal(a, b)
    assert a.shape == (2, 3)


def test_inv_table_small():
    for p in PRIMES:
        tab = la.inv_table(p)
        assert tab[0] == 0
        for a in range(1, min(p, 200)):
            assert (a * int(tab[a])) % p == 1
