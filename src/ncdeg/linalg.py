"""Dense exact linear algebra over GF(p) on numpy int64 arrays.

Entries are kept reduced into [0, p).  GF refuses moduli p >= 2^16, so
any product of two entries fits in int64 and matmul inner sums stay exact
for inner dimensions up to 2^31.
"""

import numpy as np

from .errors import DimensionMismatch, NotSquare

_INV_TABLES: dict = {}


def inv_table(p: int) -> np.ndarray:
    """Vector of modular inverses: inv_table(p)[a] == a^-1 mod p, 0 maps to 0."""
    tab = _INV_TABLES.get(p)
    if tab is None:
        b = np.arange(p, dtype=np.int64)
        r = np.ones(p, dtype=np.int64)
        e = p - 2
        while e:
            if e & 1:
                r = (r * b) % p
            b = (b * b) % p
            e >>= 1
        r[0] = 0
        r.setflags(write=False)
        _INV_TABLES[p] = r
        tab = r
    return tab


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def matmul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p; either side may be an (m, r, c) stack of matrices,
    which multiplies every matrix of the stack."""
    if A.shape[-1] != B.shape[-2]:
        raise DimensionMismatch(f"{A.shape} @ {B.shape}")
    return (A @ B) % p


def rand_mat(rng, m: int, n: int, p: int) -> np.ndarray:
    flat = [rng.randrange(p) for _ in range(m * n)]
    return np.array(flat, dtype=np.int64).reshape(m, n)


def rank(A: np.ndarray, p: int) -> int:
    return len(rref(A, p)[1])


def rref(A: np.ndarray, p: int):
    """Reduced row echelon form.  Returns (R, pivot_columns).

    Each pivot row, scaled to a unit pivot, moves to row r and clears its
    column with one rank-one update of the whole matrix, in which row r's
    own factor is zero.
    """
    R = np.array(A, dtype=np.int64, copy=True) % p
    m, n = R.shape
    inv = inv_table(p)
    pivots = []
    r = 0
    for j in range(n):
        if r == m:
            break
        i = r + int(R[r:, j].argmax())
        if not R[i, j]:
            continue
        row = R[i] * inv[R[i, j]] % p
        R[i] = R[r]
        R[r] = row
        f = R[:, j].copy()
        f[r] = 0
        R -= np.outer(f, row)
        R %= p
        pivots.append(j)
        r += 1
    return R, pivots


def row_basis(A: np.ndarray, p: int) -> np.ndarray:
    """Canonical (RREF) basis of the row space."""
    R, piv = rref(A, p)
    return R[: len(piv)]


def nullspace(A: np.ndarray, p: int) -> np.ndarray:
    """Canonical (RREF) basis of the right null space: A @ N.T == 0 mod p.

    Eliminating A with its columns reversed gives the usual basis (a 1
    at a free column, minus that column's coordinates on the pivots), in
    which a row's nonzeros lie at or before its free column.  Reversing
    its columns and rows back puts each row's 1 first, at increasing
    columns, with later nonzeros on pivot columns only: RREF.
    """
    R, piv = rref(np.asarray(A)[:, ::-1], p)
    n = R.shape[1]
    free = np.ones(n, dtype=bool)
    free[piv] = False
    free = np.flatnonzero(free)
    N = np.zeros((free.size, n), dtype=np.int64)
    N[np.arange(free.size), free] = 1
    N[:, piv] = (-R[: len(piv), free].T) % p
    return N[::-1, ::-1].copy()


def det(A: np.ndarray, p: int) -> int:
    A = np.asarray(A, dtype=np.int64)
    if A.shape[0] != A.shape[1]:
        raise NotSquare(f"shape {A.shape}")
    if A.shape[0] == 0:
        return 1 % p
    return int(batched_det(A[None, :, :] % p, p)[0])


def batched_det(stack: np.ndarray, p: int) -> np.ndarray:
    """Determinants of a (B, n, n) stack, eliminating all B matrices in lockstep.

    Dead batch members (no pivot in some column) pick up a zero pivot and
    stay zero from then on, so no mask is needed.
    """
    A = np.array(stack, dtype=np.int64, copy=True) % p
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise NotSquare(f"shape {A.shape}")
    nb, n, _ = A.shape
    inv = inv_table(p)
    d = np.ones(nb, dtype=np.int64)
    for j in range(n):
        nz = A[:, j:, j] != 0
        piv = np.argmax(nz, axis=1)
        moved = np.nonzero(piv > 0)[0]
        if moved.size:
            src = j + piv[moved]
            tmp = A[moved, j, :].copy()
            A[moved, j, :] = A[moved, src, :]
            A[moved, src, :] = tmp
            d[moved] = (-d[moved]) % p
        pv = A[:, j, j]
        d = (d * pv) % p
        if j + 1 < n:
            f = (A[:, j + 1 :, j] * inv[pv][:, None]) % p
            A[:, j + 1 :, :] = (A[:, j + 1 :, :] - f[:, :, None] * A[:, j, :][:, None, :]) % p
    return d
