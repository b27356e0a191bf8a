"""Linear symbolic matrices A = sum_k A_k x_k, weighted variants A[c] with
monomial coefficients t^{c_k}, blow-up substitution, random substitution,
and the Monte-Carlo degree oracle Delta via one compressed blow-up.

The degree oracle needs no rational-function arithmetic: a substituted
weighted matrix is a matrix of polynomials in t, held as an
(n_rows, n_cols, L) int64 coefficient array, and its deg det is computed
exactly by column reduction on that array, in place, over any p.
"""

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
    SizeBudgetExceeded,
)
from .ratfunc import NEG_INF
from .scalar import GF

ENUM_CAP = 8  # largest side for the degree oracles: the blow-up stack grows as m (n d)^2
MAX_SIDE = 2048  # largest n: P and Q are dense n x n
MAX_STACK = 1 << 24  # largest m n^2: entries of one dense (m, n, n) stack


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


def check_budget(n: int, m: int):
    """Refuse an n x n matrix with m terms beyond the size budget.

    The monomial engines keep dense n x n P and Q, and an instance may
    materialize its dense (m, n, n) int64 term stack, so instances are
    checked before anything of that size is allocated: n <= MAX_SIDE and
    m n^2 <= MAX_STACK entries (128 MiB).
    """
    if not 0 <= n <= MAX_SIDE:
        raise SizeBudgetExceeded(f"side {n} outside the budget 0..{MAX_SIDE}")
    if m * n * n > MAX_STACK:
        raise SizeBudgetExceeded(
            f"{m} terms of side {n} make {m * n * n} stack entries, beyond the budget {MAX_STACK}"
        )


def rank_factors(T: np.ndarray, p: int):
    """Factors (C, R) of a term stack, padded to the largest term rank r
    (at least 1): C_k holds the pivot columns of T_k and R_k the nonzero
    rows of its RREF, so T_k = C_k R_k."""
    m, nr, nc = T.shape
    parts = []
    for M in T:
        E, piv = linalg.rref(M, p)
        parts.append((M[:, piv], E[: len(piv)]))
    r = max([len(R) for _, R in parts] + [1])
    C = np.zeros((m, nr, r), dtype=np.int64)
    R = np.zeros((m, r, nc), dtype=np.int64)
    for k, (Ck, Rk) in enumerate(parts):
        C[k, :, : Ck.shape[1]] = Ck
        R[k, : Rk.shape[0]] = Rk
    return C, R


class SymbolicMatrix:
    """A = sum_k A_k x_k over GF(p).

    Every term is held as rank factors A_k = C_k R_k: C an (m, n_rows, r)
    and R an (m, r, n_cols) stack, padded to one r no smaller than any
    term's rank (rank_factors takes the largest rank, at least 1).  The dense (m, n_rows, n_cols) stack `terms` stays
    available.  Either form may be given; the other is computed once, when
    it is first read, so a matrix built from a bare dense stack is factored
    at most once.  The monomial engines read the factors, and P A_k Q =
    (P C_k)(R_k Q) then costs O(n^2 r) per term instead of O(n^3).

    A matrix is a value: nothing writes its stacks after construction, so
    what is read off them (the other form, the support) is computed once.
    """

    __slots__ = ("F", "_terms", "_factors", "_support")

    def __init__(self, F: GF, terms=None, factors=None):
        self.F = F
        self._terms = self._factors = self._support = None
        if terms is not None:
            T = np.asarray(terms, dtype=np.int64)
            if T.ndim != 3:
                raise DimensionMismatch(f"terms must be a stack of matrices, ndim={T.ndim}")
            self._terms = T % F.p
        if factors is not None:
            C, R = (np.asarray(X, dtype=np.int64) % F.p for X in factors)
            if C.ndim != 3 or R.ndim != 3 or C.shape[0] != R.shape[0] or C.shape[2] != R.shape[1]:
                raise DimensionMismatch(f"factor stacks {C.shape} and {R.shape} do not multiply")
            self._factors = C, R
        if self._terms is None and self._factors is None:
            raise DimensionMismatch("a symbolic matrix needs its terms or their factors")

    @classmethod
    def _reduced(cls, F: GF, terms=None, factors=None) -> "SymbolicMatrix":
        """A matrix of stacks already reduced mod p and of matching shapes,
        stored as given."""
        out = cls.__new__(cls)
        out.F, out._terms, out._factors, out._support = F, terms, factors, None
        return out

    @property
    def terms(self) -> np.ndarray:
        if self._terms is None:
            self._terms = linalg.matmul(*self._factors, self.F.p)
        return self._terms

    @property
    def factors(self):
        """(C, R) with terms[k] == C[k] @ R[k] mod p."""
        if self._factors is None:
            self._factors = rank_factors(self._terms, self.F.p)
        return self._factors

    @property
    def n_rows(self):
        return self._terms.shape[1] if self._factors is None else self._factors[0].shape[1]

    @property
    def n_cols(self):
        return self._terms.shape[2] if self._factors is None else self._factors[1].shape[2]

    @property
    def n_terms(self):
        return self._terms.shape[0] if self._factors is None else self._factors[0].shape[0]

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    def __repr__(self):
        return f"SymbolicMatrix({self.F!r}, {self.n_terms} terms, shape {self.shape})"

    def term(self, k: int) -> np.ndarray:
        return self.terms[k]

    def sandwich(self, L: np.ndarray, Rt: np.ndarray) -> "SymbolicMatrix":
        """The matrix with terms L A_k Rt, factored as (L C_k)(R_k Rt) when
        the factors are stored, else dense."""
        p = self.F.p
        if self._factors is None:
            return SymbolicMatrix._reduced(self.F, linalg.matmul(linalg.matmul(L, self._terms, p), Rt, p))
        C, R = self._factors
        return SymbolicMatrix._reduced(self.F, factors=(linalg.matmul(L, C, p), linalg.matmul(R, Rt, p)))

    def is_zero(self) -> bool:
        """Whether every term vanishes; rank-one factors answer in O(mn),
        as u v^t = 0 exactly when u = 0 or v = 0."""
        if self._factors is None or self._factors[0].shape[2] > 1:
            return not self.terms.any()
        C, R = self._factors
        return not (C.any(axis=(1, 2)) & R.any(axis=(1, 2))).any()

    def support(self):
        """(k, i, j) of the nonzero term entries, in C order, computed on
        the first call and kept, as the matrix is a value; callers share
        the arrays and must not write them.  Rank-one factors give them in
        O(nnz) with no dense stack: u_i v_j != 0 exactly when u_i != 0 and
        v_j != 0."""
        if self._support is None:
            self._support = self._find_support()
        return self._support

    def _find_support(self):
        if self._factors is None or self._factors[0].shape[2] > 1:
            return np.nonzero(self.terms)
        C, R = self._factors
        ku, iu = np.nonzero(C[:, :, 0])
        kv, jv = np.nonzero(R[:, 0, :])
        nv = np.bincount(kv, minlength=C.shape[0])
        first = np.cumsum(nv) - nv  # where term k's columns start in jv
        rep = nv[ku]  # each (k, i) meets every column of term k
        step = np.arange(rep.sum()) - np.repeat(np.cumsum(rep) - rep, rep)
        return np.repeat(ku, rep), np.repeat(iu, rep), jv[np.repeat(first[ku], rep) + step]

    def submatrix(self, rows, cols):
        """Terms A_k[rows][:, cols], in whichever of the dense and factored
        forms are stored; index lists that are permutations reorder."""
        T = None if self._terms is None else self._terms[:, rows][:, :, cols]
        CR = None if self._factors is None else (self._factors[0][:, rows], self._factors[1][:, :, cols])
        return SymbolicMatrix._reduced(self.F, T, CR)

    def pad_square(self):
        """Zero-pad to n x n, n = max(n_rows, n_cols)."""
        nr, nc = self.shape
        n = max(nr, nc)
        if nr == nc:
            return self
        C, R = self.factors
        return SymbolicMatrix(
            self.F, factors=(np.pad(C, ((0, 0), (0, n - nr), (0, 0))), np.pad(R, ((0, 0), (0, 0), (0, n - nc))))
        )

    def substitute(self, s) -> np.ndarray:
        vals = np.asarray(s, dtype=np.int64)
        if vals.shape[0] < self.n_terms:
            raise MissingSymbol(
                f"{self.n_terms} symbols, substitution covers {vals.shape[0]}"
            )
        vals = vals[: self.n_terms] % self.F.p
        return np.einsum("k,kij->ij", vals, self.terms) % self.F.p

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

    def pad_square(self):
        return WeightedSymbolicMatrix(self.base.pad_square(), self.c)

    def coeff_array(self, s):
        """Substituted matrix as polynomial coefficients: (C, shift) with
        entry (i, j) equal to t^shift * sum_l C[i,j,l] t^l.  An array of
        more than MAX_STACK entries is refused before it is allocated."""
        vals = np.asarray(s, dtype=np.int64)
        if vals.shape[0] < self.n_terms:
            raise MissingSymbol(
                f"{self.n_terms} symbols, substitution covers {vals.shape[0]}"
            )
        p = self.F.p
        shift = min(self.c)
        L = max(self.c) - shift + 1
        if self.n_rows * self.n_cols * L > MAX_STACK:
            raise SizeBudgetExceeded(
                f"weights {shift}..{max(self.c)} make a {self.n_rows} x {self.n_cols} x {L} "
                f"coefficient array, beyond the budget {MAX_STACK}"
            )
        C = np.zeros((self.n_rows, self.n_cols, L), dtype=np.int64)
        for k in range(self.n_terms):
            C[:, :, self.c[k] - shift] += (vals[k] % p) * self.base.terms[k]
        return C % p, shift


def random_rank(A: SymbolicMatrix, rng=None) -> int:
    """Monte-Carlo commutative rank: max rank over default_trials(p)
    random substitutions.

    One-sided: never exceeds the true rank over K(x), attains it w.h.p.
    """
    rng = as_rng(rng)
    best = 0
    top = min(A.shape)
    for _ in range(default_trials(A.F.p)):
        s = linalg.rand_mat(rng, 1, A.n_terms, A.F.p)[0]
        r = linalg.rank(A.substitute(s), A.F.p)
        if r > best:
            best = r
            if best == top:
                break
    return best


# ---------------------------------------------------------------------------
# deg det of polynomial matrices given as coefficient arrays


def polymat_degdet(C: np.ndarray, p: int):
    """deg det of a square polynomial matrix, exactly; -inf if det = 0.

    C has shape (n, n, L): entry (i, j) is sum_l C[i,j,l] t^l.  Column
    reduction (Kailath, Linear Systems, 1980; Murota, SIAM J. Comput.
    1995): with d_j the degree of column j, det C has degree sum_j d_j
    exactly when the leading column-coefficient matrix C[:, j, d_j] is
    nonsingular; a zero column makes det C = 0.  Otherwise each round
    orders the columns by d, descending and stable, and takes the RREF
    basis of the leading matrix's kernel.  A basis vector v has a 1 at a
    free column f and its other nonzeros on pivot columns i after f, so
    d_i <= d_f, and col_f += sum_i v_i t^(d_f - d_i) col_i cancels col_f's
    leading coefficients, dropping d_f by at least 1.  Pivot columns never
    change, so every free column updates at once, in place, and the move
    is unimodular: det C keeps its value.  sum_j d_j <= n (L - 1) bounds
    the rounds, nothing grows beyond C's own n x n x L array, and an entry
    stays below n p^2 before it is reduced: below 2^44 for every array
    coeff_array admits, as n^2 <= MAX_STACK.
    """
    n = C.shape[0]
    if C.ndim != 3 or C.shape[1] != n:
        raise NotSquare(f"shape {C.shape}")
    C = C % p
    L = C.shape[2]
    while True:
        d = np.where(C.any(axis=0), np.arange(L), -1).max(axis=1, initial=-1)
        if (d < 0).any():
            return NEG_INF
        order = np.argsort(-d, kind="stable")
        K = linalg.nullspace(C[:, order, d[order]], p)
        if not len(K):
            return int(d.sum())
        for v in K:
            k = np.flatnonzero(v)
            f = order[k[0]]
            for i, a in zip(order[k[1:]], v[k[1:]]):
                C[:, f, d[f] - d[i] : d[f] + 1] += a * C[:, i, : d[i] + 1]
            C[:, f] %= p


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
            f"degree oracle refused for side {side} > {ENUM_CAP}"
        )


def Delta_blowup_oracle(Ac: WeightedSymbolicMatrix, ell: int, trials: int = None, rng=None):
    """Monte-Carlo Delta_l via the blow-up of order d = max(l-1, 1).

    One-sided: result <= true Delta_l, equality w.h.p.  l = 0 gives 0.
    """
    return _compressed_blowup_oracle(Ac, ell, max(ell - 1, 1), trials, rng)


def _compressed_blowup_oracle(Ac, ell, d, trials, rng):
    """max over trials of deg det(sum_k t^{c_k} R1 (A_k (x) R_k) R2) // d.

    A trial draws the d x d matrices R_k as one rand_mat and full-rank
    compressors R1 (ld x nd) and R2 (nd x ld), n the padded side.  With
    M = sum_k t^{c_k} A_k (x) R_k, Cauchy-Binet writes det(R1 M R2) as
    sum over ld-subsets I, J of det R1[:, I] det M[I, J] det R2[J, :], a
    combination of ld-minors of the substituted blow-up with scalar
    coefficients.  Its degree is never above the largest minor degree,
    at most d Delta_l by the blow-up regularity of Ivanyos, Qiao and
    Subrahmanyam (2017) (at d = 1, delta_l by definition), so the
    estimate is one-sided.  When every ld-minor vanishes
    identically the combination is zero under every draw, so -inf is
    exact.  A draw below the true value need not be divisible by d; it
    floor-divides, still a lower bound, and counts toward the Monte-Carlo
    error budget.
    """
    _check_ell(Ac, ell)
    if ell == 0:
        return 0
    _check_cap(Ac)
    rng = as_rng(rng)
    F, p, m = Ac.F, Ac.F.p, Ac.n_terms
    if trials is None:
        trials = default_trials(p)
    sq = Ac.base.pad_square()
    n = sq.n_rows
    check_budget(n * d, m)
    best = NEG_INF
    for _ in range(trials):
        Rs = linalg.rand_mat(rng, m * d, d, p).reshape(m, d, d)
        # a rank-deficient compressor wastes the whole trial, which over
        # GF(2) happens more often than not; condition on full rank
        # instead (any fixed pair still gives a lower bound)
        R1 = _full_rank_mat(rng, ell * d, n * d, p)
        R2 = _full_rank_mat(rng, n * d, ell * d, p)
        M = np.einsum("kab,kcd->kacbd", sq.terms, Rs).reshape(m, n * d, n * d)
        T = linalg.matmul(linalg.matmul(R1, M, p), R2, p)
        got = weighted_degdet(WeightedSymbolicMatrix(SymbolicMatrix(F, T), Ac.c), np.ones(m, dtype=np.int64))
        if got != NEG_INF and got // d > best:
            best = got // d
    return best


def _full_rank_mat(rng, nr: int, nc: int, p: int) -> np.ndarray:
    for _ in range(64):
        M = linalg.rand_mat(rng, nr, nc, p)
        if linalg.rank(M, p) == min(nr, nc):
            return M
    raise AlgorithmStall(f"no full-rank {nr}x{nc} draw over GF({p})")
