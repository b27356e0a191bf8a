"""Linear symbolic matrices A = sum_k A_k x_k, weighted variants A[c] with
monomial coefficients t^{c_k}, blow-ups, random substitution, and the
Monte-Carlo degree oracles delta_ell / Delta via blow-up.

The degree oracles never touch rational-function arithmetic on the hot
path: a substituted weighted matrix is a matrix of polynomials in t,
held as an (n_rows, n_cols, L) int64 coefficient array, and its deg det
is computed exactly either by evaluation-interpolation (enough points
available, p > degree bound) or by fraction-free elimination on the
coefficient arrays (small p).
"""

import itertools
from random import Random

import numpy as np

from . import linalg
from .errors import (
    AlgorithmStall,
    BadCardinality,
    DimensionMismatch,
    EnumerationCapExceeded,
    MissingSymbol,
    NotSquare,
)
from .ratfunc import NEG_INF, RatFn, RationalMatrix
from .scalar import GF

ENUM_CAP = 8  # submatrix enumeration is C(n, l)^2; larger sides are refused


def default_trials(p: int) -> int:
    """Monte-Carlo repetition count tuned to the field size.

    Against GF(65521) a single substitution misses with probability well
    under 1e-6 at desk scale, so 3 trials are plenty.  Small fields need
    real repetition: a random substitution over GF(2) can miss a rank or
    degree witness with constant probability per trial.
    """
    if p >= 11:
        return 3
    if p >= 5:
        return 8
    return 24


def as_rng(rng) -> Random:
    if isinstance(rng, Random):
        return rng
    return Random(0 if rng is None else rng)


class Substitution:
    """Scalar values for the symbols x_1..x_m (flat index order).

    Blow-up matrices index their fresh symbols as (k, i, j) cells; those
    flatten k-major then row-major, see blowup_cell_index.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = [int(v) for v in values]

    @classmethod
    def random(cls, F: GF, count: int, rng: Random):
        return cls([F.random_elem(rng) for _ in range(count)])

    def __len__(self):
        return len(self.values)

    def __getitem__(self, k):
        return self.values[k]

    def cell(self, k: int, i: int, j: int, d: int) -> int:
        return self.values[blowup_cell_index(k, i, j, d)]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.int64)


def blowup_cell_index(k: int, i: int, j: int, d: int) -> int:
    return (k * d + i) * d + j


class SymbolicMatrix:
    """A = sum_k A_k x_k; terms held as one (m, n_rows, n_cols) int64 stack."""

    __slots__ = ("F", "terms")

    def __init__(self, F: GF, terms):
        T = np.asarray(terms, dtype=np.int64)
        if T.ndim != 3:
            raise DimensionMismatch(f"terms must be a stack of matrices, ndim={T.ndim}")
        if T.shape[0] < 1:
            raise DimensionMismatch("at least one term matrix is required")
        self.F = F
        self.terms = T % F.p

    @property
    def n_rows(self):
        return self.terms.shape[1]

    @property
    def n_cols(self):
        return self.terms.shape[2]

    @property
    def n_terms(self):
        return self.terms.shape[0]

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    def __repr__(self):
        return f"SymbolicMatrix({self.F!r}, {self.n_terms} terms, shape {self.shape})"

    def term(self, k: int) -> np.ndarray:
        return self.terms[k]

    def transpose(self):
        return SymbolicMatrix(self.F, np.transpose(self.terms, (0, 2, 1)))

    def submatrix(self, rows, cols):
        return SymbolicMatrix(self.F, self.terms[np.ix_(range(self.n_terms), rows, cols)])

    def pad_square(self):
        """Zero-pad to n x n, n = max(n_rows, n_cols)."""
        nr, nc = self.shape
        n = max(nr, nc)
        if nr == nc:
            return self
        T = np.zeros((self.n_terms, n, n), dtype=np.int64)
        T[:, :nr, :nc] = self.terms
        return SymbolicMatrix(self.F, T)

    def substitute(self, s) -> np.ndarray:
        vals = s.as_array() if isinstance(s, Substitution) else np.asarray(s, dtype=np.int64)
        if vals.shape[0] < self.n_terms:
            raise MissingSymbol(
                f"{self.n_terms} symbols, substitution covers {vals.shape[0]}"
            )
        vals = vals[: self.n_terms] % self.F.p
        return np.einsum("k,kij->ij", vals, self.terms) % self.F.p

    def blow_up(self, d: int) -> "SymbolicMatrix":
        """Replace each symbol by a d x d grid of fresh symbols: sum A_k (x) X_k."""
        if d < 1:
            raise ValueError("blow-up order must be >= 1")
        m, nr, nc = self.terms.shape
        out = np.zeros((m * d * d, nr * d, nc * d), dtype=np.int64)
        for k in range(m):
            for i in range(d):
                for j in range(d):
                    E = np.zeros((d, d), dtype=np.int64)
                    E[i, j] = 1
                    out[blowup_cell_index(k, i, j, d)] = np.kron(self.terms[k], E)
        return SymbolicMatrix(self.F, out)

    def blowup_substitute(self, Rs: np.ndarray) -> np.ndarray:
        """sum_k A_k (x) R_k for given d x d matrices R_k, without materializing
        the blow-up's term stack."""
        m, nr, nc = self.terms.shape
        Rs = np.asarray(Rs, dtype=np.int64) % self.F.p
        d = Rs.shape[1]
        out = np.einsum("kab,kcd->acbd", self.terms, Rs).reshape(nr * d, nc * d)
        return out % self.F.p


class WeightedSymbolicMatrix:
    """A[c] = sum_k A_k t^{c_k} x_k: a SymbolicMatrix plus integer weights."""

    __slots__ = ("base", "c")

    def __init__(self, base: SymbolicMatrix, c):
        c = [int(w) for w in c]
        if len(c) != base.n_terms:
            raise DimensionMismatch(
                f"{base.n_terms} terms but {len(c)} weights"
            )
        self.base = base
        self.c = c

    @property
    def F(self):
        return self.base.F

    @property
    def shape(self):
        return self.base.shape

    @property
    def n_rows(self):
        return self.base.n_rows

    @property
    def n_cols(self):
        return self.base.n_cols

    @property
    def n_terms(self):
        return self.base.n_terms

    def __repr__(self):
        return f"WeightedSymbolicMatrix({self.base!r}, c={self.c})"

    def submatrix(self, rows, cols):
        return WeightedSymbolicMatrix(self.base.submatrix(rows, cols), self.c)

    def transpose(self):
        return WeightedSymbolicMatrix(self.base.transpose(), self.c)

    def pad_square(self):
        return WeightedSymbolicMatrix(self.base.pad_square(), self.c)

    def blow_up(self, d: int) -> "WeightedSymbolicMatrix":
        return WeightedSymbolicMatrix(
            self.base.blow_up(d), [w for w in self.c for _ in range(d * d)]
        )

    def coeff_array(self, s):
        """Substituted matrix as polynomial coefficients: (C, shift) with
        entry (i, j) equal to t^shift * sum_l C[i,j,l] t^l."""
        vals = s.as_array() if isinstance(s, Substitution) else np.asarray(s, dtype=np.int64)
        if vals.shape[0] < self.n_terms:
            raise MissingSymbol(
                f"{self.n_terms} symbols, substitution covers {vals.shape[0]}"
            )
        p = self.F.p
        shift = min(self.c)
        L = max(self.c) - shift + 1
        C = np.zeros((self.n_rows, self.n_cols, L), dtype=np.int64)
        for k in range(self.n_terms):
            C[:, :, self.c[k] - shift] += (vals[k] % p) * self.base.terms[k]
        return C % p, shift


class RationalSymbolicMatrix:
    """B = sum_k B_k x_k with the B_k square matrices over K(t)."""

    __slots__ = ("F", "terms")

    def __init__(self, F: GF, terms):
        terms = list(terms)
        if not terms:
            raise DimensionMismatch("at least one term matrix is required")
        n = terms[0].shape[0]
        for B in terms:
            if B.shape != (n, n):
                raise NotSquare(f"term shape {B.shape}, expected ({n}, {n})")
        self.F = F
        self.terms = terms

    @property
    def n(self):
        return self.terms[0].shape[0]

    @property
    def n_terms(self):
        return len(self.terms)

    @classmethod
    def from_weighted(cls, Ac: WeightedSymbolicMatrix):
        sq = Ac.pad_square()
        mats = []
        for k in range(sq.n_terms):
            M = RationalMatrix.from_scalars(sq.F, sq.base.terms[k])
            mats.append(M.scale_rows([sq.c[k]] * sq.n_rows))
        return cls(sq.F, mats)

    def max_deg(self):
        best = NEG_INF
        for B in self.terms:
            d = B.max_deg()
            if d > best:
                best = d
        return best

    def min_mindeg(self):
        best = None
        for B in self.terms:
            for row in B.rows:
                for e in row:
                    md = e.mindeg
                    if md != float("inf") and (best is None or md < best):
                        best = md
        return best

    def shrink(self, s) -> RationalMatrix:
        vals = s.values if isinstance(s, Substitution) else list(s)
        if len(vals) < self.n_terms:
            raise MissingSymbol(
                f"{self.n_terms} symbols, substitution covers {len(vals)}"
            )
        F = self.F
        n = self.n
        out = RationalMatrix(
            F, [[RatFn.zero(F)] * n for _ in range(n)]
        )
        for k, B in enumerate(self.terms):
            a = RatFn.const(F, vals[k])
            if a.is_zero():
                continue
            for i in range(n):
                for j in range(n):
                    e = B.rows[i][j]
                    if not e.is_zero():
                        out.rows[i][j] = out.rows[i][j] + a * e
        return out

    def transform(self, P: RationalMatrix, Q: RationalMatrix):
        """Termwise P B_k Q."""
        return RationalSymbolicMatrix(
            self.F, [P.matmul(B).matmul(Q) for B in self.terms]
        )


def shrink(A, s):
    """Substitute scalars for symbols.

    SymbolicMatrix -> int64 matrix; WeightedSymbolicMatrix -> RationalMatrix
    with entries sum_k s_k t^{c_k} (A_k)_{ij}.
    """
    if isinstance(A, WeightedSymbolicMatrix):
        vals = s.values if isinstance(s, Substitution) else list(s)
        if len(vals) < A.n_terms:
            raise MissingSymbol(f"{A.n_terms} symbols, substitution covers {len(vals)}")
        F = A.F
        rows = []
        for i in range(A.n_rows):
            row = []
            for j in range(A.n_cols):
                e = RatFn.zero(F)
                for k in range(A.n_terms):
                    a = F.mul(vals[k], int(A.base.terms[k][i, j]))
                    if a:
                        e = e + RatFn.monomial(F, a, A.c[k])
                row.append(e)
            rows.append(row)
        return RationalMatrix(F, rows)
    if isinstance(A, SymbolicMatrix):
        return A.substitute(s)
    raise TypeError(f"cannot shrink {type(A).__name__}")


def random_rank(A: SymbolicMatrix, rng=None, trials: int = None) -> int:
    """Monte-Carlo commutative rank: max rank over random substitutions.

    One-sided: never exceeds the true rank over K(x), attains it w.h.p.
    """
    rng = as_rng(rng)
    if trials is None:
        trials = default_trials(A.F.p)
    best = 0
    top = min(A.shape)
    for _ in range(trials):
        s = Substitution.random(A.F, A.n_terms, rng)
        r = linalg.rank(A.substitute(s), A.F.p)
        if r > best:
            best = r
            if best == top:
                break
    return best


# ---------------------------------------------------------------------------
# deg det of polynomial matrices given as coefficient arrays


def poly_degree(coeffs: np.ndarray):
    nz = np.nonzero(coeffs)[0]
    return int(nz[-1]) if nz.size else NEG_INF


def _newton_degrees(x: np.ndarray, V: np.ndarray, p: int):
    """Degrees of the interpolating polynomials, one per column of V.

    x: (N,) distinct points; V: (N, cols) values.  N must exceed every
    true degree, which makes the divided-difference tail exactly zero and
    the last nonzero index the degree.
    """
    a = V.copy() % p
    x = x % p
    N = x.shape[0]
    inv = linalg.inv_table(p)
    for k in range(1, N):
        a[k:] = ((a[k:] - a[k - 1 : -1]) * inv[(x[k:] - x[:-k]) % p][:, None]) % p
    out = []
    for col in range(V.shape[1]):
        nz = np.nonzero(a[:, col])[0]
        out.append(int(nz[-1]) if nz.size else NEG_INF)
    return out


def _trim3(C: np.ndarray) -> np.ndarray:
    nz = np.nonzero(C.any(axis=(0, 1)))[0]
    L = int(nz[-1]) + 1 if nz.size else 1
    return np.ascontiguousarray(C[:, :, :L])


def _conv_with_poly(R: np.ndarray, q: np.ndarray, p: int) -> np.ndarray:
    r, c, L = R.shape
    out = np.zeros((r, c, L + q.shape[0] - 1), dtype=np.int64)
    for d2 in range(q.shape[0]):
        a = int(q[d2])
        if a:
            out[:, :, d2 : d2 + L] += a * R
    return out % p


def _outer_conv(colv: np.ndarray, rowv: np.ndarray, p: int) -> np.ndarray:
    r, L = colv.shape
    c = rowv.shape[0]
    out = np.zeros((r, c, 2 * L - 1), dtype=np.int64)
    for d2 in range(L):
        cd = colv[:, d2]
        if cd.any():
            out[:, :, d2 : d2 + L] += cd[:, None, None] * rowv[None, :, :]
    return out % p


def _exact_div(M: np.ndarray, q: np.ndarray, p: int) -> np.ndarray:
    """Entrywise exact polynomial division by q; the elimination identity
    guarantees zero remainder, checked."""
    if q.shape[0] == 1:
        return (M * int(linalg.inv_table(p)[q[0]])) % p
    r, c, Ln = M.shape
    Lq = q.shape[0]
    if Ln < Lq:
        if M.any():
            raise AlgorithmStall("non-exact division in fraction-free elimination")
        return np.zeros((r, c, 1), dtype=np.int64)
    ilead = int(linalg.inv_table(p)[q[-1]])
    Q = np.zeros((r, c, Ln - Lq + 1), dtype=np.int64)
    W = M.copy()
    for i in range(Ln - 1, Lq - 2, -1):
        f = (W[:, :, i] * ilead) % p
        Q[:, :, i - Lq + 1] = f
        W[:, :, i - Lq + 1 : i + 1] = (
            W[:, :, i - Lq + 1 : i + 1] - f[:, :, None] * q[None, None, :]
        ) % p
    if W.any():
        raise AlgorithmStall("non-exact division in fraction-free elimination")
    return Q


def _degdet_bareiss(C: np.ndarray, p: int):
    """Fraction-free elimination on polynomial coefficient arrays.

    Works over any p; used when the field is too small for interpolation.
    Row/column swaps only flip the sign of det, which degrees ignore.
    """
    B = _trim3(C.copy() % p)
    prev = np.ones(1, dtype=np.int64)
    while True:
        m = B.shape[0]
        nz = B.any(axis=2)
        if not nz.any():
            return NEG_INF
        i0, j0 = map(int, np.argwhere(nz)[0])
        if i0:
            B[[0, i0]] = B[[i0, 0]]
        if j0:
            B[:, [0, j0]] = B[:, [j0, 0]]
        piv = B[0, 0][: poly_degree(B[0, 0]) + 1].copy()
        if m == 1:
            return poly_degree(B[0, 0])
        T1 = _conv_with_poly(B[1:, 1:, :], piv, p)
        T2 = _outer_conv(B[1:, 0, :], B[0, 1:, :], p)
        L = max(T1.shape[2], T2.shape[2])
        M = np.zeros((m - 1, m - 1, L), dtype=np.int64)
        M[:, :, : T1.shape[2]] = T1
        M[:, :, : T2.shape[2]] -= T2
        B = _trim3(_exact_div(M % p, prev, p))
        prev = piv


def _degdet_interp(C: np.ndarray, p: int, bound: int):
    pts = np.arange(bound + 1, dtype=np.int64)
    L = C.shape[2]
    P = np.ones((bound + 1, L), dtype=np.int64)
    for e in range(1, L):
        P[:, e] = (P[:, e - 1] * pts) % p
    stack = np.einsum("ijl,pl->pij", C % p, P) % p
    vals = linalg.batched_det(stack, p)
    return _newton_degrees(pts, vals[:, None], p)[0]


def polymat_degdet(C: np.ndarray, p: int):
    """deg det of a square polynomial matrix, exactly; -inf if det = 0.

    C has shape (n, n, L): entry (i, j) is sum_l C[i,j,l] t^l.
    """
    n = C.shape[0]
    if C.ndim != 3 or C.shape[1] != n:
        raise NotSquare(f"shape {C.shape}")
    if n == 0:
        return 0
    bound = n * (C.shape[2] - 1)
    if p >= bound + 1:
        return _degdet_interp(C, p, bound)
    return _degdet_bareiss(C, p)


def weighted_degdet(Ac: WeightedSymbolicMatrix, s):
    """deg det of the substituted weighted matrix, exactly; -inf if singular."""
    n = Ac.n_rows
    if n != Ac.n_cols:
        raise NotSquare(f"shape {Ac.shape}")
    if n == 0:
        return 0
    C, shift = Ac.coeff_array(s)
    d = polymat_degdet(C, Ac.F.p)
    return d if d == NEG_INF else d + n * shift


# ---------------------------------------------------------------------------
# Monte-Carlo degree oracles


def _check_ell(Ac, ell):
    top = min(Ac.n_rows, Ac.n_cols)
    if not 0 <= ell <= top:
        raise BadCardinality(f"l = {ell} outside [0, {top}]")


def _check_cap(Ac):
    side = max(Ac.n_rows, Ac.n_cols)
    if side > ENUM_CAP:
        raise EnumerationCapExceeded(
            f"submatrix enumeration refused for side {side} > {ENUM_CAP}"
        )


def delta_ell_oracle(Ac: WeightedSymbolicMatrix, ell: int, trials: int = None, rng=None):
    """Monte-Carlo delta_l: max over l x l submatrices of deg det after a
    random substitution, maximized over trials.

    One-sided: result <= true delta_l, equality w.h.p.  l = 0 gives 0.
    """
    _check_ell(Ac, ell)
    if ell == 0:
        return 0
    _check_cap(Ac)
    rng = as_rng(rng)
    p = Ac.F.p
    if trials is None:
        trials = default_trials(p)
    nr, nc = Ac.shape
    pairs = [
        (I, J)
        for I in itertools.combinations(range(nr), ell)
        for J in itertools.combinations(range(nc), ell)
    ]
    best = NEG_INF
    for _ in range(trials):
        s = Substitution.random(Ac.F, Ac.n_terms, rng)
        C, shift = Ac.coeff_array(s)
        bound = ell * (C.shape[2] - 1)
        if p >= bound + 1:
            got = _batched_submatrix_degdets(C, pairs, ell, bound, p)
        else:
            got = [
                _degdet_bareiss(C[np.ix_(I, J)], p) for I, J in pairs
            ]
        for d in got:
            if d != NEG_INF and d + ell * shift > best:
                best = d + ell * shift
    return best


def _batched_submatrix_degdets(C, pairs, ell, bound, p):
    """deg det for every row/column selection at once: evaluate the full
    matrix at bound+1 points, take batched determinants of all selected
    submatrices, interpolate degrees columnwise."""
    pts = np.arange(bound + 1, dtype=np.int64)
    L = C.shape[2]
    P = np.ones((bound + 1, L), dtype=np.int64)
    for e in range(1, L):
        P[:, e] = (P[:, e - 1] * pts) % p
    stack = np.einsum("ijl,pl->pij", C % p, P) % p
    npts = bound + 1
    npairs = len(pairs)
    rowsel = np.array([I for I, _ in pairs])
    colsel = np.array([J for _, J in pairs])
    sub = stack[
        np.arange(npts)[:, None, None, None],
        rowsel[None, :, :, None],
        colsel[None, :, None, :],
    ]
    # sub: (npts, npairs, ell, ell) -> flatten for one batched elimination
    dets = linalg.batched_det(sub.reshape(npts * npairs, ell, ell), p)
    V = dets.reshape(npts, npairs)
    return _newton_degrees(pts, V, p)


def Delta_blowup_oracle(
    Ac: WeightedSymbolicMatrix,
    ell: int,
    trials: int = None,
    rng=None,
    strategy: str = "submatrices",
):
    """Monte-Carlo Delta_l via blow-ups of order d = max(l-1, 1).

    strategy "submatrices": per l x l submatrix, substitute random d x d
    matrices for the symbols and take deg det / d; this follows the
    defining maximum directly.  strategy "mixed": one blow-up of the full
    matrix compressed to an ld x ld corner by random side multipliers;
    much cheaper, same one-sided guarantee, used at scale.

    Estimates below the true value can fail to be divisible by d; those
    floor-divide (still a valid lower bound) rather than abort, and count
    toward the Monte-Carlo error budget.
    """
    _check_ell(Ac, ell)
    if ell == 0:
        return 0
    rng = as_rng(rng)
    p = Ac.F.p
    F = Ac.F
    if trials is None:
        trials = default_trials(p)
    d = max(ell - 1, 1)
    m = Ac.n_terms
    best = NEG_INF
    if strategy == "submatrices":
        _check_cap(Ac)
        nr, nc = Ac.shape
        pairs = [
            (I, J)
            for I in itertools.combinations(range(nr), ell)
            for J in itertools.combinations(range(nc), ell)
        ]
        subs = [Ac.base.submatrix(I, J) for I, J in pairs]
        for _ in range(trials):
            Rs = np.stack([linalg.rand_mat(rng, d, d, p) for _ in range(m)])
            for bse in subs:
                got, shift = _weighted_blowup_degdet(bse, Ac.c, Rs, p)
                if got != NEG_INF:
                    got = (got + ell * d * shift) // d
                    if got > best:
                        best = got
    elif strategy == "mixed":
        n2 = max(Ac.n_rows, Ac.n_cols)
        sq = Ac.base.pad_square()
        for _ in range(trials):
            Rs = np.stack([linalg.rand_mat(rng, d, d, p) for _ in range(m)])
            # a rank-deficient compressor wastes the whole trial, which
            # over GF(2) happens more often than not; condition on full
            # rank instead (any fixed pair still gives a lower bound)
            R1 = _full_rank_mat(rng, ell * d, n2 * d, p)
            R2 = _full_rank_mat(rng, n2 * d, ell * d, p)
            shift = min(Ac.c)
            L = max(Ac.c) - shift + 1
            C = np.zeros((ell * d, ell * d, L), dtype=np.int64)
            for k in range(m):
                Mk = np.kron(sq.terms[k], Rs[k]) % p
                C[:, :, Ac.c[k] - shift] += (R1 @ Mk @ R2) % p
            got = polymat_degdet(C % p, p)
            if got != NEG_INF:
                got = (got + ell * d * shift) // d
                if got > best:
                    best = got
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return best


def _full_rank_mat(rng, nr: int, nc: int, p: int) -> np.ndarray:
    for _ in range(64):
        M = linalg.rand_mat(rng, nr, nc, p)
        if linalg.rank(M, p) == min(nr, nc):
            return M
    raise AlgorithmStall(f"no full-rank {nr}x{nc} draw over GF({p})")


def _weighted_blowup_degdet(base: SymbolicMatrix, c, Rs: np.ndarray, p: int):
    shift = min(c)
    L = max(c) - shift + 1
    d = Rs.shape[1]
    nr, nc = base.shape
    C = np.zeros((nr * d, nc * d, L), dtype=np.int64)
    for k in range(base.n_terms):
        C[:, :, c[k] - shift] += np.kron(base.terms[k], Rs[k]) % p
    return polymat_degdet(C % p, p), shift
