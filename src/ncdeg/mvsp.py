"""nc-rank and vanishing-subspace witnesses.

The vanishing-subspace problem: given A = sum_k A_k x_k, find subspaces
(U, V) with u' A_k v = 0 for all k, u in U, v in V, minimizing
n_rows + n_cols - dim U - dim V.  The minimum equals the nc-rank
(Fortin-Reutenauer), and a minimizing pair is the witness: an FRWitness
holds a basis of U and one of V, each in pivot form (every row nonzero
at its pivot, its first nonzero, and zero on the pivots of the rows
above it).  triangular completes such a basis to an invertible
upper-triangular matrix, the factor the degree algorithms fold.

Every solver returns the dominant optimum, the optimal pair with the
largest U: the blow-up witness, a random substitution into the d-th
blow-up, d = 1, 2, 4, ..., n-1, followed by the second Wong sequence and
certified by the substitution's rank (Las Vegas, any field); Koenig
max-matching/min-cover for bipartite-support matrices; and linear
matroid intersection for stacks of rank-one terms.  Subspace
enumeration over small fields serves the LP oracles here; the
exhaustive solvers built on it, the tests' referees, live in
tests/referee.py.
`witness` is the one route the engines and nc_rank take: Koenig, then
matroid intersection, else the blow-up witness.  nc_rank is its value,
so it is deterministic on rank-one stacks and Las Vegas otherwise.
Every route returns a witness in A's own shape, U in K^n_rows and V in
K^n_cols, with no padding to a square, and its bases in pivot form:
canonical (RREF) bases, or unit vectors for Koenig, which degdet
folds as the identity.
"""

import itertools

import numpy as np

from . import linalg
from .errors import (
    AlgorithmStall,
    DimensionMismatch,
    EnumerationCapExceeded,
    NotSkewSymmetric,
    Singular,
    SizeBudgetExceeded,
)
from .scalar import GF
from .symbolic import MAX_SIDE, SymbolicMatrix, as_rng, default_trials

SUBSPACE_CAP = 5000


def _pivots(M: np.ndarray) -> np.ndarray:
    """Column of each row's first nonzero (0 for a zero row)."""
    if M.shape[1] == 0:
        return np.zeros(M.shape[0], dtype=np.intp)
    return (M != 0).argmax(axis=1)


def triangular(B: np.ndarray) -> np.ndarray:
    """The identity of side B.shape[1] with each row of B put at its pivot.

    For B in pivot form this is upper-triangular with a nonzero diagonal,
    so invertible, and its rows at B's pivots are B's rows.  Raises
    Singular when B has a zero row or is nonzero on the pivot of a row
    above, as a row repeating an earlier pivot is.
    """
    B = np.asarray(B, dtype=np.int64)
    pi = _pivots(B)
    if not B[np.arange(B.shape[0]), pi].all():
        raise Singular("pivot form needs a nonzero row")
    if np.tril(B[:, pi], -1).any():
        raise Singular("pivot form needs each row zero on the pivots above it")
    L = linalg.identity(B.shape[1])
    L[pi] = B
    return L


class FRWitness:
    """Vanishing pair (U, V): u' A_k v = 0 for every row u of the r x n_rows
    basis U, row v of the s x n_cols basis V and term k, with both bases
    in pivot form."""

    __slots__ = ("F", "U", "V")

    def __init__(self, F, U, V):
        self.F = F
        self.U = np.asarray(U, dtype=np.int64) % F.p
        self.V = np.asarray(V, dtype=np.int64) % F.p

    @property
    def r(self):
        return self.U.shape[0]

    @property
    def s(self):
        return self.V.shape[0]

    @property
    def n_rows(self):
        return self.U.shape[1]

    @property
    def n_cols(self):
        return self.V.shape[1]

    def value(self) -> int:
        """The certified nc-rank: n_rows + n_cols - r - s."""
        return self.n_rows + self.n_cols - self.r - self.s

    def __repr__(self):
        return f"FRWitness(r={self.r}, s={self.s}, value={self.value()})"

    def verify(self, A: SymbolicMatrix) -> bool:
        """Exact check of pivot form, which makes both bases independent,
        and of the vanishing, read as (U C_k)(R_k V^t) when A's factors
        are stored."""
        try:
            triangular(self.U)
            triangular(self.V)
        except Singular:
            return False
        return A.sandwich(self.U, self.V.T).is_zero()


# ---------------------------------------------------------------------------
# witness route, nc-rank and the blow-up witness


def witness(A: SymbolicMatrix, rng=None, start=()):
    """Certified dominant witness by the cheapest route A's factors allow:
    Koenig when every live term is a single entry, matroid intersection
    when every term has rank at most one (exact by Lovasz, 1989), else
    the blow-up witness, the only route that draws from rng.  The solvers
    are read as module globals at call time, so the bench tracer's
    wrappers see every call.

    Returns (w, start'), where start' seeds the next call's search: a
    caller whose next matrix keeps the terms' indices passes it back as
    start.  On the matroid route it is the maximum common independent
    set J, as term indices of A, and whatever of a start J is dead or
    dependent there is dropped.  On the blow-up route it is the
    certifying draw (see blowup_witness).  Koenig's route returns ().  A
    start from another route is dropped, and the witness does not depend
    on start.
    """
    C, R = A.factors
    if C.shape[2] == 1:
        u, v = C[:, :, 0], R[:, 0, :]
        live = u.any(axis=1) & v.any(axis=1)
        u, v = u[live], v[live]
        if ((u != 0).sum(axis=1) == 1).all() and ((v != 0).sum(axis=1) == 1).all():
            edges = sorted(set(zip(np.nonzero(u)[1].tolist(), np.nonzero(v)[1].tolist())))
            return mvsp_bipartite(A.n_rows, A.n_cols, edges, A.F), ()
        terms = np.flatnonzero(live)
        at = np.cumsum(live) - 1  # a live term's index among the live ones
        J = start if np.ndim(start) == 1 else ()  # a draw is no set of term indices
        w, J = mvsp_matroid_intersection(u, v, A.F, [int(at[k]) for k in J if live[k]])
        return w, tuple(terms[list(J)].tolist())
    return blowup_witness(A, rng, start)


def nc_rank(A: SymbolicMatrix, rng=None) -> int:
    """nc-rank, certified: the value of witness's pair, deterministic on
    rank-one stacks and Las Vegas otherwise."""
    return witness(A, rng)[0].value()


def _wong_limit(A: SymbolicMatrix, B: np.ndarray, d: int) -> np.ndarray:
    """Limit of the second Wong sequence W <- W + sum_k A_k Z, where Z is
    the span of the column slices of ker((C_W (x) I_d) B) and the rows of
    C_W span the annihilator of W; returns the annihilator's canonical
    (RREF) basis.  W lies in K^n_rows and the slices in K^n_cols."""
    nr, nc, p = A.n_rows, A.n_cols, A.F.p
    Wb = np.zeros((0, nr), dtype=np.int64)
    while True:
        C = linalg.nullspace(Wb, p)
        CB = linalg.matmul(C, B.reshape(nr, -1), p).reshape(-1, nc * d)
        Y = linalg.nullspace(CB, p)
        Z = Y.reshape(-1, nc, d).transpose(0, 2, 1).reshape(-1, nc)
        gens = linalg.matmul(Z, A.terms.transpose(0, 2, 1), p).reshape(-1, nr)
        grown = linalg.row_basis(np.concatenate([Wb, gens]), p)
        if grown.shape[0] == Wb.shape[0]:
            return C
        Wb = grown


def blowup_witness(A: SymbolicMatrix, rng=None, start=()):
    """Dominant optimum from a random blow-up, certified by its rank.

    Draw B = sum_k A_k (x) R_k into the d-th blow-up and run the second
    Wong sequence (Ivanyos-Karpinski-Qiao-Santha) from W = 0 to its limit;
    then U = W^perp and V is the largest vanishing space for U.  Every
    vanishing pair bounds the nc-rank from above and rank(B) / d bounds it
    from below, so value * d == rank(B) certifies the optimum at every
    order d, and a draw certifies exactly when rank(B) = d * nc-rank.
    With n = max(n_rows, n_cols), each of at most 64 rounds spends
    default_trials(p) draws at each order d = 1, 2, 4, ..., n - 1 whose
    side n d is within MAX_SIDE; the answer is certified, so the count
    only sets the time.  Low orders are cheap and certify whenever their
    maximum rank reaches d * nc-rank; d = n - 1 always can, by blow-up
    regularity (Ivanyos-Qiao-Subrahmanyam).  A draw whose rank is not a
    multiple of d, or not above every earlier failed rank at its order,
    cannot certify and skips the Wong sequence.

    start, a draw that an earlier call returned, is tried before any
    draw from rng: the engines' next leading matrix often certifies with
    the last one.  It is the (m, d, d) stack of the R_k, so it carries
    its order d, and it is used only when it has one R_k per term of A
    and d is in the order list; otherwise it is dropped.

    When every term of A is alternating (skew with a zero diagonal),
    order 1 stops once a failed draw pins an odd nc-rank.  A failed
    draw has rank(B) < d * nc-rank, and its pair's value bounds the
    nc-rank from above, so an order-1 pair of value rank(B) + 1 pins
    nc-rank = rank(B) + 1.  Every order-1 B = sum_k r_k A_k is then
    alternating, of even rank, so rank(B) + 1 is odd and no order-1 draw
    can reach it.  The test reads A's terms, never one draw: over GF(2)
    B + B^t = 0 does not make B alternating, and a zero draw is
    alternating whatever A is, so on a 1 x 1 stack [1] it would pin 1
    and leave no order to draw.

    The certified witness is also dominant; the proof uses only
    rank(B) = d * nc-rank, so it holds at every order.  Write A V' for
    the image sum_k A_k V'.  Such a B has ker B inside V' (x) K^d and
    B (V' (x) K^d) = (A V') (x) K^d for every optimal V'.  So if W lies
    in A V', then B^-1(W (x) K^d) lies in V' (x) K^d, its slices lie in
    V', and the next W lies in A V' again: by induction the limit W is
    the least image of all optima, and U = W^perp is the largest optimal
    U.  So the witness does not depend on the draw, or on start.

    Returns (w, R) with R the certifying draw, w in A's own shape, U in
    K^n_rows and V in K^n_cols; a matrix with a zero dimension gives the
    pair of whole spaces with no draw, and R = ().  Raises
    SizeBudgetExceeded when nothing certified and n - 1 was beyond the
    budget, else AlgorithmStall.
    """
    rng = as_rng(rng)
    F = A.F
    if 0 in A.shape:
        return FRWitness(F, linalg.identity(A.n_rows), linalg.identity(A.n_cols)), ()
    n = max(A.shape)
    top = max(n - 1, 1)
    doubling = [1 << i for i in range((top - 1).bit_length())]
    orders = [d for d in doubling + [top] if d == 1 or n * d <= MAX_SIDE]
    best = dict.fromkeys(orders, -1)  # the orders still drawn, each with its highest failed rank
    m, d = np.shape(start)[:2] if np.ndim(start) == 3 else (0, 0)
    first = [start] if m == A.n_terms and d in best else []
    draws = (
        linalg.rand_mat(rng, A.n_terms * d, d, F.p).reshape(-1, d, d)
        for _, d, _ in itertools.product(range(64), orders, range(default_trials(F.p)))
        if d in best
    )
    alternating = _is_alternating(A)
    for Rs in itertools.chain(first, draws):
        d = Rs.shape[1]
        B = A.blowup_substitute(Rs)
        rB = linalg.rank(B, F.p)
        if rB % d == 0 and rB > best[d]:
            U = _wong_limit(A, B, d)
            w = FRWitness(F, U, _max_vanishing_V(A, U))
            if w.value() * d == rB:
                return w, Rs
            if d == 1 and alternating and w.value() == rB + 1:
                del best[1]  # the nc-rank is odd, out of order 1's reach
                continue
        best[d] = max(best[d], rB)
    if orders[-1] < top:
        raise SizeBudgetExceeded(f"no draw certified, and order {top} needs side {n * top} > {MAX_SIDE}")
    raise AlgorithmStall("no blow-up draw certified a vanishing pair")


# ---------------------------------------------------------------------------
# subspace enumeration


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
        residues[t, _pivots(X)] -= X
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
    """Canonical basis of the largest V with u' A_k v = 0 for all u in U,
    k: the null space of the stacked row images u' A_k."""
    p = A.F.p
    if Ubasis.shape[0] == 0:
        return linalg.identity(A.n_cols)
    W = linalg.matmul(Ubasis, A.terms, p).reshape(-1, A.n_cols)
    return linalg.nullspace(W, p)


def _is_alternating(A: SymbolicMatrix) -> bool:
    """Whether A is square with every term skew and zero on the diagonal."""
    if A.n_rows != A.n_cols:
        return False
    T = A.terms
    return not (((T + T.transpose(0, 2, 1)) % A.F.p).any() or T.diagonal(axis1=1, axis2=2).any())


def _check_skew(A: SymbolicMatrix):
    if A.n_rows != A.n_cols:
        raise NotSkewSymmetric(f"shape {A.shape}")
    if not _is_alternating(A):
        raise NotSkewSymmetric("terms must be skew-symmetric with zero diagonal")


def nested_witness(w: FRWitness) -> FRWitness:
    """The dominant optimum (U, V) of a skew matrix, which nests V in U,
    with U's basis led by V's: V's canonical basis, then the rows of U's
    canonical basis whose pivots V lacks.  V inside U puts V's pivots
    among U's, so these rows extend V to U in pivot form, and
    triangular(U) holds V's rows at V's pivots as triangular(V) does: one
    factor serves rows and columns."""
    if linalg.rank(np.concatenate([w.U, w.V]), w.F.p) != w.r:
        raise AlgorithmStall("dominant optimum of a skew matrix should nest V in U")
    extra = w.U[~np.isin(_pivots(w.U), _pivots(w.V))]
    return FRWitness(w.F, np.concatenate([w.V, extra]), w.V)


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
    (i_k, j_k): unit-vector bases of the rows and columns a minimum vertex
    cover, read off a maximum matching, leaves uncovered.

    Alternating reachability from the unmatched columns yields the minimum
    cover with the fewest covered rows, so the uncovered-row set (and with
    it r) is maximum: the dominant optimum for this class, certified by
    value() == the matching's size (no augmenting path left).
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
    zrows, zcols = ~np.array(row_seen, dtype=bool), np.array(col_seen, dtype=bool)  # uncovered
    w = FRWitness(F, linalg.identity(n_rows)[zrows], linalg.identity(n_cols)[zcols])
    if w.value() != n_rows - match_row.count(-1):
        raise AlgorithmStall("Koenig cover exceeds the matching: it is not maximum")
    return w


# ---------------------------------------------------------------------------
# matroid intersection solver


def matroid_intersection(va: np.ndarray, vb: np.ndarray, p: int, start=()):
    """Maximum common independent set of the two linear matroids on [m]
    spanned by the rows of va and vb, via shortest augmenting paths, each
    round's exchange graph read off one elimination per matroid
    (Cunningham, SIAM J. Comput. 1986).

    The search starts from J = start, as Frank's weight-splitting method
    keeps its common independent set across dual steps.  The round's
    elimination lists J's columns first, so its pivots among them show
    whether J is independent in each matroid; if not, J shrinks to the
    elements that are pivots in both, independent in both, and the round
    is redone.  A cold start is start = ().

    Returns (J, I) where J is the common independent set and I is the
    least minimizer of r1(I) + r2([m] - I), so |J| = r1(I) + r2([m] - I),
    which mvsp_matroid_intersection checks.  I does not depend on start.

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
    J = set(start)
    while True:
        Jl = list(J)
        notJ = [y for y in range(m) if y not in J]
        r = len(Jl)
        # one RREF of the columns [v_J | v_notJ] per matroid: J is
        # independent iff its r columns are all pivots; then y lies outside
        # span(J) iff its column has a nonzero below row |J|, and otherwise
        # J - x + y is independent iff y's coordinate on x is nonzero
        Es = []
        for vecs in (va, vb):
            E, piv = linalg.rref(vecs[Jl + notJ].T, p)
            J &= {Jl[c] for c in piv if c < r}
            Es.append(E)
        if len(J) < r:
            continue
        outs, arcs = [], []
        for E in Es:
            out = E[r:, r:].any(axis=0)
            outs.append([y for y, o in zip(notJ, out) if o])
            arcs.append((E[:r, r:] != 0) | out)
        X1, X2 = outs
        succ = {v: [] for v in range(m)}
        for a, x in enumerate(Jl):
            for b, y in enumerate(notJ):
                if arcs[0][a, b]:
                    succ[x].append(y)
                if arcs[1][a, b]:
                    succ[y].append(x)
        # BFS shortest path from X1 to X2
        prev = {v: None for v in X1}
        frontier = list(X1)
        goal = min(set(X1) & set(X2), default=None)
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
            return J, I
        path = []
        v = goal
        while v is not None:
            path.append(v)
            v = prev[v]
        J ^= set(path)


def mvsp_matroid_intersection(vectors_a, vectors_b, F: GF, start=()):
    """Dominant witness for A = sum_k a_k b_k' x_k from the least
    matroid-intersection minimizer I: U annihilates {a_k : k in I}, V
    annihilates the rest of the b_k.  Returns (w, J), with J the maximum
    common independent set, sorted, that matroid_intersection reached
    from start; w does not depend on start, and w.value() == |J|
    certifies it (the min-max, as dim U = n_rows - r1(I)).

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
    J, I = matroid_intersection(va, vb, F.p, start)
    notI = sorted(set(range(m)) - I)
    w = FRWitness(F, linalg.nullspace(va[sorted(I)], F.p), linalg.nullspace(vb[notI], F.p))
    if w.value() != len(J):
        raise AlgorithmStall("matroid intersection lost its min-max certificate")
    return w, tuple(sorted(J))
