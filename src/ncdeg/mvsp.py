"""nc-rank and vanishing-subspace witnesses.

The vanishing-subspace problem: given A = sum_k A_k x_k, find subspaces
(U, V) with u' A_k v = 0 for all k, u in U, v in V, minimizing
n_rows + n_cols - dim U - dim V.  The minimum equals the nc-rank, and a
minimizing pair converts to a witness (S, T, r, s): nonsingular S whose
first r rows span U and nonsingular T whose first s columns span V, so
S A_k T has an upper-left r x s zero block for every k.

Solvers: exhaustive subspace enumeration over small fields (dominant),
Koenig max-matching/min-cover for bipartite-support matrices (dominant),
and linear matroid intersection for stacks of rank-one terms (dominance
not claimed).  Bruhat decomposition and witness block-diagonalization
feed the degree algorithms.
"""

from typing import NamedTuple, Optional

import numpy as np

from . import linalg
from .errors import (
    AlgorithmStall,
    DimensionMismatch,
    EnumerationCapExceeded,
    NotSkewSymmetric,
    PartitionMismatch,
    Singular,
)
from .scalar import GF
from .symbolic import SymbolicMatrix, as_rng, default_trials

SUBSPACE_CAP = 5000


class Subspace:
    """Row space of a canonical (RREF) basis; equality is structural."""

    __slots__ = ("F", "basis")

    def __init__(self, F: GF, vectors):
        V = np.asarray(vectors, dtype=np.int64)
        if V.ndim == 1:
            V = V[None, :]
        self.F = F
        self.basis = linalg.row_basis(V % F.p, F.p)

    @classmethod
    def zero(cls, F, n):
        return cls(F, np.zeros((1, n), dtype=np.int64))

    @classmethod
    def full(cls, F, n):
        return cls(F, linalg.identity(n))

    @property
    def n(self):
        return self.basis.shape[1]

    @property
    def dim(self):
        return self.basis.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and other.F == self.F
            and other.basis.shape == self.basis.shape
            and bool(np.array_equal(other.basis, self.basis))
        )

    def __hash__(self):
        return hash((self.F, self.basis.tobytes(), self.basis.shape))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of K^{self.n})"

    def encode(self):
        """Lexicographic key: (dim, flattened canonical basis)."""
        return (self.dim, tuple(int(x) for x in self.basis.ravel()))

    def contains(self, vec) -> bool:
        v = np.asarray(vec, dtype=np.int64) % self.F.p
        stacked = np.concatenate([self.basis, v[None, :]])
        return linalg.rank(stacked, self.F.p) == self.dim

    def contains_subspace(self, other: "Subspace") -> bool:
        stacked = np.concatenate([self.basis, other.basis])
        return linalg.rank(stacked, self.F.p) == self.dim

    def add(self, other: "Subspace") -> "Subspace":
        return Subspace(self.F, np.concatenate([self.basis, other.basis]))

    def annihilator(self) -> "Subspace":
        """{y : b . y = 0 for every basis vector b}."""
        return Subspace(self.F, linalg.nullspace(self.basis, self.F.p))

    def intersect(self, other: "Subspace") -> "Subspace":
        both = np.concatenate(
            [self.annihilator().basis, other.annihilator().basis]
        )
        return Subspace(self.F, linalg.nullspace(both, self.F.p))

    def completion(self) -> np.ndarray:
        """Rows extending the basis to a basis of K^n (unit vectors on the
        non-pivot coordinates)."""
        piv = []
        for row in self.basis:
            nz = np.nonzero(row)[0]
            piv.append(int(nz[0]))
        rest = [j for j in range(self.n) if j not in set(piv)]
        out = np.zeros((len(rest), self.n), dtype=np.int64)
        for k, j in enumerate(rest):
            out[k, j] = 1
        return out


class FRWitness:
    """Certificate (S, T, r, s): S A_k T has an r x s zero block, upper-left
    by default or at (row_set x col_set) when those are given."""

    __slots__ = ("F", "S", "T", "r", "s", "dominant", "row_set", "col_set")

    def __init__(self, F, S, T, r, s, dominant=False, row_set=None, col_set=None):
        self.F = F
        self.S = np.asarray(S, dtype=np.int64) % F.p
        self.T = np.asarray(T, dtype=np.int64) % F.p
        self.r = int(r)
        self.s = int(s)
        self.dominant = bool(dominant)
        self.row_set = list(range(r)) if row_set is None else sorted(row_set)
        self.col_set = list(range(s)) if col_set is None else sorted(col_set)

    @property
    def n_rows(self):
        return self.S.shape[0]

    @property
    def n_cols(self):
        return self.T.shape[0]

    def value(self) -> int:
        """The certified nc-rank: n_rows + n_cols - r - s."""
        return self.n_rows + self.n_cols - self.r - self.s

    def __repr__(self):
        return (
            f"FRWitness(r={self.r}, s={self.s}, value={self.value()}, "
            f"dominant={self.dominant})"
        )

    def verify(self, A: SymbolicMatrix) -> bool:
        """Exact check of the zero-block identity and invertibility."""
        p = self.F.p
        if linalg.rank(self.S, p) < self.S.shape[0]:
            return False
        if linalg.rank(self.T, p) < self.T.shape[0]:
            return False
        if len(self.row_set) != self.r or len(self.col_set) != self.s:
            return False
        M = linalg.matmul(linalg.matmul(self.S, A.terms, p), self.T, p)
        return not M[:, self.row_set][:, :, self.col_set].any()


# ---------------------------------------------------------------------------
# nc-rank by blow-up


def nc_rank(A: SymbolicMatrix, rng=None, trials: Optional[int] = None) -> int:
    """nc-rank via random substitution into the (n-1)-th blow-up.

    One-sided Monte Carlo: never above the true value, equal w.h.p.  The
    attained maximum is divisible by the blow-up order, so a remainder
    proves every trial so far undershot; over a small field that happens
    often enough that we keep drawing, in batches of the original trial
    count, until the maximum is divisible or a hard cap gives up.
    """
    rng = as_rng(rng)
    if trials is None:
        trials = default_trials(A.F.p)
    sq = A.pad_square()
    n = sq.n_rows
    if n == 0:
        return 0
    d = max(n - 1, 1)
    p = A.F.p
    best = 0
    spent = 0
    while True:
        for _ in range(trials):
            Rs = np.stack(
                [linalg.rand_mat(rng, d, d, p) for _ in range(sq.n_terms)]
            )
            r = linalg.rank(sq.blowup_substitute(Rs), p)
            if r > best:
                best = r
                if best == n * d:
                    break
        spent += trials
        if best % d == 0:
            return best // d
        if spent >= 64 * trials:
            raise AlgorithmStall(f"blow-up rank stuck at {best}, not divisible by {d}")


# ---------------------------------------------------------------------------
# exhaustive solver


_SUBSPACE_CACHE: dict = {}


def count_subspaces(q: int, n: int) -> int:
    total = 0
    for k in range(n + 1):
        num, den = 1, 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (i + 1) - 1
        total += num // den
    return total


def enumerate_subspaces(F: GF, n: int, cap: int = SUBSPACE_CAP):
    """All subspaces of K^n as canonical bases, in a fixed deterministic
    order (by dimension, then lexicographic on the basis encoding)."""
    key = (F.p, n)
    cached = _SUBSPACE_CACHE.get(key)
    if cached is not None:
        return cached
    total = count_subspaces(F.p, n)
    if total > cap:
        raise EnumerationCapExceeded(
            f"{total} subspaces of GF({F.p})^{n} exceeds cap {cap}"
        )
    q = F.p
    import itertools

    out = [np.zeros((0, n), dtype=np.int64)]
    for k in range(1, n + 1):
        for piv in itertools.combinations(range(n), k):
            free_pos = []
            for i, pj in enumerate(piv):
                for j in range(pj + 1, n):
                    if j not in piv:
                        free_pos.append((i, j))
            B0 = np.zeros((k, n), dtype=np.int64)
            for i, pj in enumerate(piv):
                B0[i, pj] = 1
            for fill in itertools.product(range(q), repeat=len(free_pos)):
                B = B0.copy()
                for (i, j), v in zip(free_pos, fill):
                    B[i, j] = v
                out.append(B)
    if len(out) != total:
        raise AlgorithmStall(f"enumerated {len(out)} subspaces, expected {total}")
    _SUBSPACE_CACHE[key] = out
    return out


def _max_vanishing_V(A: SymbolicMatrix, Ubasis: np.ndarray) -> np.ndarray:
    """Largest V with u' A_k v = 0 for all u in U, k: the null space of the
    stacked row images u' A_k."""
    p = A.F.p
    if Ubasis.shape[0] == 0:
        return linalg.identity(A.n_cols)
    W = linalg.matmul(Ubasis, A.terms, p).reshape(-1, A.n_cols)
    return linalg.nullspace(W, p)


def _witness_from_subspaces(A, U: Subspace, V: Subspace, dominant: bool) -> FRWitness:
    S = np.concatenate([U.basis, U.completion()])
    T = np.concatenate([V.basis, V.completion()]).T
    return FRWitness(A.F, S, T, U.dim, V.dim, dominant=dominant)


def mvsp_exhaustive(A: SymbolicMatrix, want_dominant: bool = True, cap: int = SUBSPACE_CAP):
    """Minimize n_rows + n_cols - dim U - dim V over vanishing pairs by
    enumerating every U; the best V for a given U is unique and maximal.

    Returns (witness, U, V).  With want_dominant the returned optimum has
    the largest U of all optima (their sum, since optimal pairs are closed
    under (U + U', V intersect V')); otherwise the first optimum in
    enumeration order.
    """
    sq = A.pad_square()
    n = sq.n_rows
    F = A.F
    best_val = None
    best = []  # (U basis, V basis) for all optimal U
    for Ub in enumerate_subspaces(F, n, cap):
        Vb = _max_vanishing_V(sq, Ub)
        val = 2 * n - Ub.shape[0] - Vb.shape[0]
        if best_val is None or val < best_val:
            best_val = val
            best = [(Ub, Vb)]
        elif val == best_val:
            best.append((Ub, Vb))
    if not want_dominant:
        Ub, Vb = best[0]
        U, V = Subspace(F, Ub), Subspace(F, Vb)
        return _witness_from_subspaces(sq, U, V, False), U, V
    U = Subspace(F, np.concatenate([ub for ub, _ in best]))
    V = Subspace(F, _max_vanishing_V(sq, U.basis))
    if 2 * n - U.dim - V.dim != best_val:
        raise AlgorithmStall("optimum not closed under joins")
    return _witness_from_subspaces(sq, U, V, True), U, V


def _check_skew(A: SymbolicMatrix):
    if A.n_rows != A.n_cols:
        raise NotSkewSymmetric(f"shape {A.shape}")
    T = A.terms
    if ((T + T.transpose(0, 2, 1)) % A.F.p).any() or T.diagonal(axis1=1, axis2=2).any():
        raise NotSkewSymmetric("terms must be skew-symmetric with zero diagonal")


def mvsp_symmetric_exhaustive(A: SymbolicMatrix, cap: int = SUBSPACE_CAP):
    """Dominant witness for a zero-diagonal skew-symmetric matrix, shaped
    so that T = S transposed: the dominant optimum has U containing V, and
    S lists a basis of V first, extended to U, then completed."""
    _check_skew(A)
    p = A.F.p
    w, U, V = mvsp_exhaustive(A, want_dominant=True, cap=cap)
    if not U.contains_subspace(V):
        raise AlgorithmStall("dominant optimum of a skew matrix should nest V in U")
    mid = _extend_basis(V.basis, U.basis, p)
    S = np.concatenate([V.basis, mid, _full_completion(np.concatenate([V.basis, mid]), p)])
    return FRWitness(A.F, S, S.T, U.dim, V.dim, dominant=True), U, V


def _extend_basis(inner: np.ndarray, outer: np.ndarray, p: int) -> np.ndarray:
    """Rows of outer that extend span(inner) to span(outer)."""
    cur = inner
    picked = []
    for row in outer:
        if linalg.rank(np.concatenate([cur, row[None, :]]), p) > cur.shape[0]:
            picked.append(row)
            cur = np.concatenate([cur, row[None, :]])
    return (
        np.stack(picked)
        if picked
        else np.zeros((0, inner.shape[1]), dtype=np.int64)
    )


def _full_completion(rows: np.ndarray, p: int) -> np.ndarray:
    n = rows.shape[1]
    cur = rows
    picked = []
    for j in range(n):
        e = np.zeros(n, dtype=np.int64)
        e[j] = 1
        if linalg.rank(np.concatenate([cur, e[None, :]]), p) > cur.shape[0]:
            picked.append(e)
            cur = np.concatenate([cur, e[None, :]])
    return (
        np.stack(picked) if picked else np.zeros((0, n), dtype=np.int64)
    )


# ---------------------------------------------------------------------------
# bipartite (Koenig) solver


def max_matching(n_rows: int, n_cols: int, edges):
    """Augmenting-path maximum matching; returns row->col map."""
    adj = [[] for _ in range(n_rows)]
    for i, j in edges:
        adj[i].append(j)
    match_row = [-1] * n_rows
    match_col = [-1] * n_cols

    def try_augment(i, seen):
        for j in adj[i]:
            if seen[j]:
                continue
            seen[j] = True
            if match_col[j] == -1 or try_augment(match_col[j], seen):
                match_row[i] = j
                match_col[j] = i
                return True
        return False

    for i in range(n_rows):
        try_augment(i, [False] * n_cols)
    return match_row, match_col


def mvsp_bipartite(n_rows: int, n_cols: int, edges, F: Optional[GF] = None) -> FRWitness:
    """Dominant witness for a matrix whose k-th term is the single entry
    (i_k, j_k): permutation S, T from a maximum matching / minimum vertex
    cover, with the uncovered rows and columns forming the zero block.

    Alternating reachability from the unmatched columns yields the minimum
    cover with the fewest covered rows, so the uncovered-row set (and with
    it r) is maximum: the dominant optimum for this class.
    """
    edges = [(int(i), int(j)) for i, j in edges]
    match_row, match_col = max_matching(n_rows, n_cols, edges)
    radj = [[] for _ in range(n_cols)]
    for i, j in edges:
        radj[j].append(i)
    # from unmatched columns: any edge col -> row, matching edge row -> col
    row_seen = [False] * n_rows
    col_seen = [False] * n_cols
    stack = [j for j in range(n_cols) if match_col[j] == -1]
    for j in stack:
        col_seen[j] = True
    while stack:
        j = stack.pop()
        for i in radj[j]:
            if not row_seen[i]:
                row_seen[i] = True
                j2 = match_row[i]
                if j2 != -1 and not col_seen[j2]:
                    col_seen[j2] = True
                    stack.append(j2)
    zrows = [i for i in range(n_rows) if not row_seen[i]]  # uncovered rows
    zcols = [j for j in range(n_cols) if col_seen[j]]  # uncovered cols
    S = np.zeros((n_rows, n_rows), dtype=np.int64)
    for a, i in enumerate(zrows + [i for i in range(n_rows) if row_seen[i]]):
        S[a, i] = 1
    T = np.zeros((n_cols, n_cols), dtype=np.int64)
    for b, j in enumerate(zcols + [j for j in range(n_cols) if not col_seen[j]]):
        T[j, b] = 1
    if F is None:
        F = GF(2)
    return FRWitness(F, S, T, len(zrows), len(zcols), dominant=True)


# ---------------------------------------------------------------------------
# matroid intersection solver


def matroid_intersection(va: np.ndarray, vb: np.ndarray, p: int):
    """Maximum common independent set of the two linear matroids on [m]
    spanned by the rows of va and vb, via shortest augmenting paths.

    Returns (J, I) where J is the common independent set and I minimizes
    r1(I) + r2([m] - I), certified by |J| = r1(I) + r2([m] - I).
    """
    m = va.shape[0]
    J: set = set()

    def rank_a(idx):
        return linalg.rank(va[sorted(idx)], p) if idx else 0

    def rank_b(idx):
        return linalg.rank(vb[sorted(idx)], p) if idx else 0

    while True:
        notJ = [y for y in range(m) if y not in J]
        rJ = len(J)
        X1 = [y for y in notJ if rank_a(J | {y}) > rJ]
        X2 = [y for y in notJ if rank_b(J | {y}) > rJ]
        # exchange arcs
        succ = {v: [] for v in range(m)}
        for x in J:
            Jx = J - {x}
            for y in notJ:
                if rank_a(Jx | {y}) == rJ:
                    succ[x].append(y)
                if rank_b(Jx | {y}) == rJ:
                    succ[y].append(x)
        # BFS shortest path from X1 to X2
        prev = {v: None for v in X1}
        frontier = list(X1)
        goal = None
        if set(X1) & set(X2):
            goal = next(iter(sorted(set(X1) & set(X2))))
        while frontier and goal is None:
            nxt = []
            for v in frontier:
                for w in succ[v]:
                    if w not in prev:
                        prev[w] = v
                        if w in X2:
                            goal = w
                            break
                        nxt.append(w)
                if goal is not None:
                    break
            frontier = nxt
        if goal is None:
            reach = set(prev.keys())
            I = set(range(m)) - reach
            if rank_a(I) + rank_b(set(range(m)) - I) != len(J):
                raise AlgorithmStall("matroid intersection lost its min-max certificate")
            return J, I
        path = []
        v = goal
        while v is not None:
            path.append(v)
            v = prev[v]
        J ^= set(path)


def mvsp_matroid_intersection(vectors_a, vectors_b, F: GF) -> FRWitness:
    """Witness for A = sum_k a_k b_k' x_k from the matroid-intersection
    minimizer: U annihilates {a_k : k in I}, V annihilates the rest of the
    b_k.  Dominance is not claimed for this construction."""
    va = np.asarray(vectors_a, dtype=np.int64) % F.p
    vb = np.asarray(vectors_b, dtype=np.int64) % F.p
    if va.shape[0] != vb.shape[0]:
        raise DimensionMismatch("need one a_k per b_k")
    m = va.shape[0]
    _, I = matroid_intersection(va, vb, F.p)
    notI = sorted(set(range(m)) - I)
    n1, n2 = va.shape[1], vb.shape[1]
    Ua = va[sorted(I)] if I else np.zeros((0, n1), dtype=np.int64)
    Vb = vb[notI] if notI else np.zeros((0, n2), dtype=np.int64)
    U = Subspace(F, linalg.nullspace(Ua, F.p)) if Ua.shape[0] else Subspace.full(F, n1)
    V = Subspace(F, linalg.nullspace(Vb, F.p)) if Vb.shape[0] else Subspace.full(F, n2)
    S = np.concatenate([U.basis, U.completion()])
    T = np.concatenate([V.basis, V.completion()]).T
    return FRWitness(F, S, T, U.dim, V.dim, dominant=False)


# ---------------------------------------------------------------------------
# Bruhat decomposition


class BruhatTriple(NamedTuple):
    L: np.ndarray  # lower-triangular, nonsingular
    pi: tuple  # pi[i] = column of the sole nonzero in row i
    U: np.ndarray  # upper-unitriangular

    def permutation_matrix(self) -> np.ndarray:
        n = len(self.pi)
        P = np.zeros((n, n), dtype=np.int64)
        for i, j in enumerate(self.pi):
            P[i, j] = 1
        return P

    def reconstruct(self, p: int) -> np.ndarray:
        return linalg.matmul(
            linalg.matmul(self.L, self.permutation_matrix(), p), self.U, p
        )


def bruhat(S: np.ndarray, F: GF) -> BruhatTriple:
    """S = L pi U by the forward sweep: for each row in order, the pivot is
    its leftmost surviving nonzero; later rows are cleared below it and
    later columns to its right."""
    p = F.p
    S = np.asarray(S, dtype=np.int64) % p
    n = S.shape[0]
    if S.shape != (n, n) or linalg.rank(S, p) < n:
        raise Singular("Bruhat decomposition needs a nonsingular square matrix")
    cur = S.copy()
    E = linalg.identity(n)  # accumulated row ops: E @ S @ C = monomial
    C = linalg.identity(n)
    pi = [0] * n
    inv = linalg.inv_table(p)
    for i in range(n):
        nz = np.nonzero(cur[i])[0]
        j = int(nz[0])
        pi[i] = j
        pv_inv = int(inv[cur[i, j]])
        for i2 in range(i + 1, n):
            if cur[i2, j]:
                f = (cur[i2, j] * pv_inv) % p
                cur[i2] = (cur[i2] - f * cur[i]) % p
                E[i2] = (E[i2] - f * E[i]) % p
        for j2 in range(j + 1, n):
            if cur[i, j2]:
                f = (cur[i, j2] * pv_inv) % p
                cur[:, j2] = (cur[:, j2] - f * cur[:, j]) % p
                C[:, j2] = (C[:, j2] - f * C[:, j]) % p
    # cur is monomial: cur = D pi_mat, so S = E^-1 D pi_mat C^-1
    Einv = linalg.inverse(E, p)
    Cinv = linalg.inverse(C, p)
    D = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        D[i, i] = cur[i, pi[i]]
    L = linalg.matmul(Einv, D, p)
    return BruhatTriple(L, tuple(pi), Cinv)


# ---------------------------------------------------------------------------
# witness block-diagonalization


def _check_partition(blocks, n):
    flat = [i for b in blocks for i in b]
    if flat != list(range(n)):
        raise PartitionMismatch(
            "ordered partition must list 0..n-1 in consecutive blocks"
        )


def _mask_blocks(M: np.ndarray, blocks) -> np.ndarray:
    out = np.zeros_like(M)
    for b in blocks:
        out[np.ix_(b, b)] = M[np.ix_(b, b)]
    return out


def block_diagonalize_witness(
    w: FRWitness, row_partition, col_partition, terms: Optional[SymbolicMatrix] = None
) -> FRWitness:
    """Rebuild a witness so S and T are block-diagonal for the given ordered
    partitions, with the zero block's rows sitting at the top of each row
    block and its columns at the front of each column block.

    S is Bruhat-decomposed as L pi U; dropping L keeps the zero block, and
    zeroing the cross-block entries of U keeps it again because the pattern
    of the certified matrix ties tight entries to single block pairs.  T is
    handled the same way transposed.  Dominance carries over.
    """
    F = w.F
    p = F.p
    n_r, n_c = w.n_rows, w.n_cols
    _check_partition(row_partition, n_r)
    _check_partition(col_partition, n_c)
    if w.row_set != list(range(w.r)) or w.col_set != list(range(w.s)):
        raise PartitionMismatch("expected an upper-left zero block witness")

    bs = bruhat(w.S, F)
    X0 = sorted(bs.pi[i] for i in range(w.r))
    Score = _mask_blocks(
        linalg.matmul(np.diag(np.diag(bs.L)) % p, bs.U, p), row_partition
    )

    bt = bruhat(w.T.T, F)
    Y0 = sorted(bt.pi[j] for j in range(w.s))
    Tcore = _mask_blocks(
        linalg.matmul(np.diag(np.diag(bt.L)) % p, bt.U, p), col_partition
    ).T

    # reposition: within each block, zero-set indices first
    Xset, Yset = set(X0), set(Y0)
    row_order = [i for b in row_partition for i in ([i for i in b if i in Xset] + [i for i in b if i not in Xset])]
    col_order = [j for b in col_partition for j in ([j for j in b if j in Yset] + [j for j in b if j not in Yset])]
    Pr = np.zeros((n_r, n_r), dtype=np.int64)
    for a, i in enumerate(row_order):
        Pr[a, i] = 1
    Pc = np.zeros((n_c, n_c), dtype=np.int64)
    for b, j in enumerate(col_order):
        Pc[j, b] = 1
    S2 = linalg.matmul(Pr, Score, p)
    T2 = linalg.matmul(Tcore, Pc, p)
    X = sorted(row_order.index(i) for i in X0)
    Y = sorted(col_order.index(j) for j in Y0)
    out = FRWitness(
        F, S2, T2, w.r, w.s, dominant=w.dominant, row_set=X, col_set=Y
    )
    if terms is not None and not out.verify(terms):
        raise AlgorithmStall("block-diagonalization lost the zero block")
    return out
