"""nc-rank and vanishing-subspace witnesses.

The vanishing-subspace problem: given A = sum_k A_k x_k, find subspaces
(U, V) with u' A_k v = 0 for all k, u in U, v in V, minimizing
n_rows + n_cols - dim U - dim V.  The minimum equals the nc-rank, and a
minimizing pair converts to a witness (S, T, r, s): nonsingular S whose
first r rows span U and nonsingular T whose first s columns span V, so
S A_k T has an upper-left r x s zero block for every k.

Every solver returns the dominant optimum, the optimal pair with the
largest U: the blow-up witness, a random substitution into the d-th
blow-up, d = 1, 2, 4, ..., n-1, followed by the second Wong sequence and
certified by the substitution's rank (Las Vegas, any field), whose value
is also the certified nc_rank; Koenig max-matching/min-cover
for bipartite-support matrices; linear matroid intersection for stacks of
rank-one terms; and exhaustive subspace enumeration over small fields,
the referee for tests and the LP oracles.
Bruhat decomposition and witness block-diagonalization feed the degree
algorithms.
"""

import itertools
from typing import NamedTuple, Optional

import numpy as np

from . import linalg
from .errors import (
    AlgorithmStall,
    DimensionMismatch,
    EnumerationCapExceeded,
    NotSkewSymmetric,
    NotSorted,
    PartitionMismatch,
    Singular,
    SizeBudgetExceeded,
)
from .scalar import GF
from .symbolic import MAX_SIDE, SymbolicMatrix, as_rng, default_trials

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

    __slots__ = ("F", "S", "T", "r", "s", "row_set", "col_set")

    def __init__(self, F, S, T, r, s, row_set=None, col_set=None):
        self.F = F
        self.S = np.asarray(S, dtype=np.int64) % F.p
        self.T = np.asarray(T, dtype=np.int64) % F.p
        self.r = int(r)
        self.s = int(s)
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
        return f"FRWitness(r={self.r}, s={self.s}, value={self.value()})"

    def verify(self, A: SymbolicMatrix) -> bool:
        """Exact check of invertibility and of the zero block, read as
        (S[X] C_k)(R_k T[:, Y]) when A's factors are stored."""
        p = self.F.p
        if linalg.rank(self.S, p) < self.S.shape[0]:
            return False
        if linalg.rank(self.T, p) < self.T.shape[0]:
            return False
        if len(self.row_set) != self.r or len(self.col_set) != self.s:
            return False
        return A.sandwich(self.S[self.row_set], self.T[:, self.col_set]).is_zero()


# ---------------------------------------------------------------------------
# nc-rank by blow-up


def nc_rank(A: SymbolicMatrix, rng=None, trials: Optional[int] = None) -> int:
    """nc-rank, certified: the value of blowup_witness's pair (Las Vegas)."""
    return blowup_witness(A, rng, trials)[0].value()


def _wong_limit(sq: SymbolicMatrix, B: np.ndarray, d: int) -> np.ndarray:
    """Limit of the second Wong sequence W <- W + sum_k A_k Z, where Z is
    the span of the column slices of ker((C_W (x) I_d) B) and the rows of
    C_W span the annihilator of W; returns the annihilator's basis."""
    n, p = sq.n_rows, sq.F.p
    Wb = np.zeros((0, n), dtype=np.int64)
    while True:
        C = linalg.nullspace(Wb, p)
        CB = linalg.matmul(C, B.reshape(n, -1), p).reshape(-1, n * d)
        Y = linalg.nullspace(CB, p)
        Z = Y.reshape(-1, n, d).transpose(0, 2, 1).reshape(-1, n)
        gens = linalg.matmul(Z, sq.terms.transpose(0, 2, 1), p).reshape(-1, n)
        grown = linalg.row_basis(np.concatenate([Wb, gens]), p)
        if grown.shape[0] == Wb.shape[0]:
            return C
        Wb = grown


def blowup_witness(A: SymbolicMatrix, rng=None, trials: Optional[int] = None):
    """Dominant optimum from a random blow-up, certified by its rank.

    Draw B = sum_k A_k (x) R_k into the d-th blow-up and run the second
    Wong sequence (Ivanyos-Karpinski-Qiao-Santha) from W = 0 to its limit;
    then U = W^perp and V is the largest vanishing space for U.  Every
    vanishing pair bounds the nc-rank from above and rank(B) / d bounds it
    from below, so value * d == rank(B) certifies the optimum at every
    order d.  Each of at most 64 rounds spends trials draws (default
    default_trials(p)) at each order d = 1, 2, 4, ..., n - 1 whose side
    n d is within MAX_SIDE.  Low orders are cheap and certify whenever
    their maximum rank reaches d * nc-rank; d = n - 1 always can, by
    blow-up regularity (Ivanyos-Qiao-Subrahmanyam).  A draw whose rank
    is not a multiple of d, or not above every earlier rank at its order,
    cannot certify and skips the Wong sequence.

    The certified witness is also dominant; the proof uses only
    rank(B) = d * nc-rank, so it holds at every order.  Write A V' for
    the image sum_k A_k V'.  Such a B has ker B inside V' (x) K^d and
    B (V' (x) K^d) = (A V') (x) K^d for every optimal V'.  So if W lies
    in A V', then B^-1(W (x) K^d) lies in V' (x) K^d, its slices lie in
    V', and the next W lies in A V' again: by induction the limit W is
    the least image of all optima, and U = W^perp is the largest optimal
    U.

    Returns (witness, U, V) like mvsp_exhaustive.  Raises
    SizeBudgetExceeded when nothing certified and n - 1 was beyond the
    budget, else AlgorithmStall.
    """
    rng = as_rng(rng)
    sq = A.pad_square()
    n, F = sq.n_rows, A.F
    if n == 0:  # the empty pair is optimal with no draw
        U = Subspace.zero(F, 0)
        return _witness_from_subspaces(F, U, U), U, U
    if trials is None:
        trials = default_trials(F.p)
    top = max(n - 1, 1)
    doubling = [1 << i for i in range((top - 1).bit_length())]
    orders = [d for d in doubling + [top] if d == 1 or n * d <= MAX_SIDE]
    best = dict.fromkeys(orders, -1)
    for _, d, _ in itertools.product(range(64), orders, range(trials)):
        Rs = linalg.rand_mat(rng, sq.n_terms * d, d, F.p).reshape(-1, d, d)
        B = sq.blowup_substitute(Rs)
        rB = linalg.rank(B, F.p)
        if rB % d == 0 and rB > best[d]:
            U = Subspace(F, _wong_limit(sq, B, d))
            V = Subspace(F, _max_vanishing_V(sq, U.basis))
            if (2 * n - U.dim - V.dim) * d == rB:
                return _witness_from_subspaces(F, U, V), U, V
        best[d] = max(best[d], rB)
    if orders[-1] < top:
        raise SizeBudgetExceeded(f"no draw certified, and order {top} needs side {n * top} > {MAX_SIDE}")
    raise AlgorithmStall("no blow-up draw certified a vanishing pair")


# ---------------------------------------------------------------------------
# exhaustive solver


_SUBSPACE_CACHE: dict = {}
_RESIDUE_CACHE: dict = {}


def count_subspaces(q: int, n: int) -> int:
    total = 0
    for k in range(n + 1):
        num, den = 1, 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (i + 1) - 1
        total += num // den
    return total


def enumerate_subspaces(F: GF, n: int):
    """All subspaces of K^n as canonical bases, in a fixed deterministic
    order (by dimension, then lexicographic on the basis encoding)."""
    key = (F.p, n)
    cached = _SUBSPACE_CACHE.get(key)
    if cached is not None:
        return cached
    total = count_subspaces(F.p, n)
    if total > SUBSPACE_CAP:
        raise EnumerationCapExceeded(
            f"{total} subspaces of GF({F.p})^{n} exceeds cap {SUBSPACE_CAP}"
        )
    q = F.p
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
    residues = np.tile(linalg.identity(n), (total, 1, 1))
    for t, X in enumerate(out):
        residues[t, (X != 0).argmax(axis=1)] -= X
    _SUBSPACE_CACHE[key] = out
    _RESIDUE_CACHE[key] = residues % q
    return out


def subspace_residues(F: GF, n: int) -> np.ndarray:
    """Stack of I - S_X over enumerate_subspaces(F, n), in its order: row
    piv_i of S_X is the i-th RREF row X_i of X, whose pivot is piv_i, and
    every other row is zero.  v (I - S_X) reduces v modulo X, so it
    vanishes exactly when v lies in X."""
    enumerate_subspaces(F, n)
    return _RESIDUE_CACHE[(F.p, n)]


def _max_vanishing_V(A: SymbolicMatrix, Ubasis: np.ndarray) -> np.ndarray:
    """Largest V with u' A_k v = 0 for all u in U, k: the null space of the
    stacked row images u' A_k."""
    p = A.F.p
    if Ubasis.shape[0] == 0:
        return linalg.identity(A.n_cols)
    W = linalg.matmul(Ubasis, A.terms, p).reshape(-1, A.n_cols)
    return linalg.nullspace(W, p)


def _witness_from_subspaces(F, U: Subspace, V: Subspace) -> FRWitness:
    S = np.concatenate([U.basis, U.completion()])
    T = np.concatenate([V.basis, V.completion()]).T
    return FRWitness(F, S, T, U.dim, V.dim)


def mvsp_exhaustive(A: SymbolicMatrix):
    """Minimize n_rows + n_cols - dim U - dim V over vanishing pairs by
    enumerating every U; the best V for a given U is unique and maximal.

    Returns (witness, U, V) for the dominant optimum: the one with the
    largest U of all optima (their sum, since optimal pairs are closed
    under (U + U', V intersect V')).
    """
    sq = A.pad_square()
    n = sq.n_rows
    F = A.F
    best_val = None
    best = []  # (U basis, V basis) for all optimal U
    for Ub in enumerate_subspaces(F, n):
        Vb = _max_vanishing_V(sq, Ub)
        val = 2 * n - Ub.shape[0] - Vb.shape[0]
        if best_val is None or val < best_val:
            best_val = val
            best = [(Ub, Vb)]
        elif val == best_val:
            best.append((Ub, Vb))
    U = Subspace(F, np.concatenate([ub for ub, _ in best]))
    V = Subspace(F, _max_vanishing_V(sq, U.basis))
    if 2 * n - U.dim - V.dim != best_val:
        raise AlgorithmStall("optimum not closed under joins")
    return _witness_from_subspaces(F, U, V), U, V


def _check_skew(A: SymbolicMatrix):
    if A.n_rows != A.n_cols:
        raise NotSkewSymmetric(f"shape {A.shape}")
    T = A.terms
    if ((T + T.transpose(0, 2, 1)) % A.F.p).any() or T.diagonal(axis1=1, axis2=2).any():
        raise NotSkewSymmetric("terms must be skew-symmetric with zero diagonal")


def mvsp_symmetric_exhaustive(A: SymbolicMatrix):
    """Dominant witness for a zero-diagonal skew-symmetric matrix, shaped
    so that T = S transposed (see nested_witness)."""
    _check_skew(A)
    _, U, V = mvsp_exhaustive(A)
    return nested_witness(A.F, U, V), U, V


def nested_witness(F: GF, U: Subspace, V: Subspace) -> FRWitness:
    """T = S^t witness for the dominant optimum (U, V) of a skew matrix,
    which nests V in U: S lists a basis of V first, extended to U, then
    completed."""
    if not U.contains_subspace(V):
        raise AlgorithmStall("dominant optimum of a skew matrix should nest V in U")
    head = np.concatenate([V.basis, _extend_basis(V.basis, U.basis, F.p)])
    S = np.concatenate([head, _extend_basis(head, linalg.identity(U.n), F.p)])
    return FRWitness(F, S, S.T, U.dim, V.dim)


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


def mvsp_bipartite(n_rows: int, n_cols: int, edges, F: GF) -> FRWitness:
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
    return FRWitness(F, S, T, len(zrows), len(zcols))


# ---------------------------------------------------------------------------
# matroid intersection solver


def matroid_intersection(va: np.ndarray, vb: np.ndarray, p: int):
    """Maximum common independent set of the two linear matroids on [m]
    spanned by the rows of va and vb, via shortest augmenting paths.

    Returns (J, I) where J is the common independent set and I is the
    least minimizer of r1(I) + r2([m] - I), certified by |J| = r1(I) +
    r2([m] - I).

    Once no X1-X2 path is left, I is the set of elements from which X2 is
    reachable, a minimizer by Edmonds' min-max (Schrijver, Combinatorial
    Optimization, Thm 41.2).  It lies in every minimizer I':
    |J| = |J & I'| + |J - I'| <= r1(I') + r2([m] - I') = |J| forces J & I'
    to span I' in matroid 1 and J - I' to span [m] - I' in matroid 2.  So
    X2 lies in I', and no arc enters I' from outside: for x in J - I' and
    y in I', J - x contains J & I', which spans y in matroid 1 (no arc
    x -> y); for y outside I' and x in J & I', J - x contains J - I',
    which spans y in matroid 2 (no arc y -> x).  Hence whatever reaches X2
    lies in I'.
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
            pred = {v: [] for v in range(m)}
            for v, ws in succ.items():
                for w in ws:
                    pred[w].append(v)
            I, stack = set(X2), list(X2)
            while stack:
                for v in pred[stack.pop()]:
                    if v not in I:
                        I.add(v)
                        stack.append(v)
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
    """Dominant witness for A = sum_k a_k b_k' x_k from the least
    matroid-intersection minimizer I: U annihilates {a_k : k in I}, V
    annihilates the rest of the b_k.

    Any optimal pair (U', V') kills a_k for k in some I' and b_k for the
    rest, so U' lies in ann(a_k : k in I'), V' in ann(b_k : k not in I'),
    and optimality makes I' a minimizer.  I lies in I', so U' lies in U:
    U is the largest optimal U, and V, optimal with it, is the largest V
    vanishing against it.
    """
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
    return _witness_from_subspaces(F, U, V)


# ---------------------------------------------------------------------------
# Bruhat decomposition


class BruhatTriple(NamedTuple):
    L: np.ndarray  # lower-triangular, nonsingular
    pi: tuple  # pi[i] = column of the sole nonzero in row i
    U: np.ndarray  # upper-unitriangular

    def reconstruct(self, p: int) -> np.ndarray:
        return linalg.matmul(self.L, self.U[list(self.pi)], p)


def bruhat(S: np.ndarray, F: GF) -> BruhatTriple:
    """S = L pi U by the forward sweep: for each row in order, the pivot is
    its leftmost surviving nonzero, and later rows are cleared below it.

    Clearing the pivot's row to its right would touch no other row, so
    the sweep reads the factors off directly: L's column i is the pivot
    column from row i down, and U's row pi[i] is row i scaled to a unit
    pivot.  A row with no surviving nonzero means S is singular.
    """
    p = F.p
    cur = np.asarray(S, dtype=np.int64) % p
    n = cur.shape[0]
    if cur.shape != (n, n):
        raise Singular(f"Bruhat decomposition needs a square matrix, got {cur.shape}")
    L = np.zeros((n, n), dtype=np.int64)
    U = np.zeros((n, n), dtype=np.int64)
    pi = []
    inv = linalg.inv_table(p)
    for i in range(n):
        nz = np.nonzero(cur[i])[0]
        if nz.size == 0:
            raise Singular("Bruhat decomposition needs a nonsingular matrix")
        j = int(nz[0])
        pi.append(j)
        pv_inv = int(inv[cur[i, j]])
        L[i:, i] = cur[i:, j]
        U[j] = (cur[i] * pv_inv) % p
        f = (cur[i + 1:, j] * pv_inv) % p
        cur[i + 1:] = (cur[i + 1:] - f[:, None] * cur[i]) % p
    return BruhatTriple(L, tuple(pi), U)


# ---------------------------------------------------------------------------
# witness block-diagonalization


def _blockdiag_core(S: np.ndarray, F: GF, values, sizes):
    """S = L pi U shaped block-diagonal for the equal-value runs of the
    non-increasing vector values.

    Dropping L's off-diagonal part keeps the pivot pattern, and masking
    D U (D the diagonal of L) to the runs' diagonal blocks keeps the
    zero block because the certified pattern ties tight entries to
    single block pairs.  Within each run, rows come in tiers: first the
    pivots of S's first sizes[0] rows, then those of its first sizes[1]
    rows, and so on, then the rest.  Returns the reordered core and, for
    each tier, the sorted positions of its pivots in that order.
    """
    n = S.shape[0]
    if len(values) != n:
        raise PartitionMismatch(f"{len(values)} values for {n} rows")
    if any(values[i] < values[i + 1] for i in range(n - 1)):
        raise NotSorted(f"expected non-increasing values, got {list(values)}")
    run = np.cumsum([0] + [values[i] != values[i + 1] for i in range(n - 1)])
    bs = bruhat(S, F)
    DU = (np.diag(bs.L)[:, None] * bs.U) % F.p
    core = np.where(run[:, None] == run[None, :], DU, 0)
    tier = np.full(n, len(sizes))
    for t in reversed(range(len(sizes))):
        tier[list(bs.pi[: sizes[t]])] = t
    order = np.lexsort((tier, run))  # stable, so ties keep index order
    pos = np.argsort(order)
    return core[order], [sorted(pos[list(bs.pi[:k])].tolist()) for k in sizes]


def block_diagonalize_witness(w: FRWitness, alpha, beta, terms: SymbolicMatrix) -> FRWitness:
    """Rebuild a witness so S and T are block-diagonal for the equal-value
    runs of the non-increasing alpha (rows) and beta (columns), with the
    zero block's rows at the top of each row block and its columns at the
    front of each column block.

    S and T^t are shaped by _blockdiag_core, each with its zero-block
    pivots as the one tier; r and s carry over.
    """
    if w.row_set != list(range(w.r)) or w.col_set != list(range(w.s)):
        raise PartitionMismatch("expected an upper-left zero block witness")
    S, (X,) = _blockdiag_core(w.S, w.F, alpha, [w.r])
    Tt, (Y,) = _blockdiag_core(w.T.T, w.F, beta, [w.s])
    out = FRWitness(w.F, S, Tt.T, w.r, w.s, row_set=X, col_set=Y)
    if not out.verify(terms):
        raise AlgorithmStall("block-diagonalization lost the zero block")
    return out


def block_diagonalize_symmetric(w: FRWitness, alpha, terms: SymbolicMatrix) -> FRWitness:
    """Block-diagonal form of a witness with T = S^t that keeps T = S^t:
    one shared ordering puts column-set pivots first, then the remaining
    row-set pivots, in each run of alpha."""
    S, (Y, X) = _blockdiag_core(w.S, w.F, alpha, [w.s, w.r])
    out = FRWitness(w.F, S, S.T, w.r, w.s, row_set=X, col_set=Y)
    if not out.verify(terms):
        raise AlgorithmStall("symmetric block-diagonalization lost the zero block")
    return out
