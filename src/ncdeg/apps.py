"""Instance builders and desk-scale oracles for the matrix classes the
degree machinery serves: weighted bipartite matching, linear matroid
intersection, fractional linear matroid matching, and rank-2
Brascamp-Lieb membership.

The oracles here are deliberately independent of the iterative engines:
matching and common-independent-set values come from raw enumeration,
and the fractional matroid matching LP is solved over the explicitly
enumerated subspace constraints, so they can referee the engines.
"""

import itertools
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import DimensionMismatch, EnumerationCapExceeded
from .mvsp import enumerate_subspaces, subspace_residues
from .ratfunc import NEG_INF
from .scalar import GF
from .symbolic import SymbolicMatrix, WeightedSymbolicMatrix, as_rng, check_budget

BRUTE_FORCE_N_CAP = 8
BRUTE_FORCE_M_CAP = 12
LP_BASIS_CAP = 500_000


# ---------------------------------------------------------------------------
# instance types


class BipartiteInstance:
    """Edge-weighted bipartite graph on [n] x [n]; doubles as a plain
    graph on n vertices for the Tutte builder."""

    __slots__ = ("n", "edges", "weights")

    def __init__(self, n: int, edges, weights):
        edges = [(int(i), int(j)) for i, j in edges]
        weights = [int(w) for w in weights]
        if len(edges) != len(weights):
            raise DimensionMismatch(
                f"{len(edges)} edges but {len(weights)} weights"
            )
        if len(set(edges)) != len(edges):
            raise DimensionMismatch("duplicate edge")
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise DimensionMismatch(f"edge ({i}, {j}) outside [0, {n})")
        self.n = int(n)
        self.edges = edges
        self.weights = weights

    def __repr__(self):
        return f"BipartiteInstance(n={self.n}, m={len(self.edges)})"


class MatroidPairInstance:
    """Two ground-set-aligned lists of vectors with one weight per index."""

    __slots__ = ("F", "a_vectors", "b_vectors", "weights", "n", "m")

    def __init__(self, F: GF, a_vectors, b_vectors, weights):
        a = np.asarray(a_vectors, dtype=np.int64) % F.p
        b = np.asarray(b_vectors, dtype=np.int64) % F.p
        if a.ndim != 2 or b.shape != a.shape:
            raise DimensionMismatch(
                f"vector stacks {a.shape} vs {b.shape} must agree"
            )
        if len(weights) != a.shape[0]:
            raise DimensionMismatch("one weight per vector pair")
        self.F = F
        self.a_vectors = a
        self.b_vectors = b
        self.weights = [int(w) for w in weights]
        self.m, self.n = a.shape

    def __repr__(self):
        return f"MatroidPairInstance(n={self.n}, m={self.m}, p={self.F.p})"


def _ambient_dim(first, n):
    """n, or the length of the first vector when n is None; a collection
    with nothing to read it from must give n."""
    if n is None:
        if first is None:
            raise DimensionMismatch("an empty collection needs its dimension n")
        return first.shape[-1]
    return int(n)


class LineCollection:
    """2-dimensional subspaces H_k = span(a_k, b_k) of K^n with weights;
    n is read off the first pair unless given, which it must be for no
    pairs."""

    __slots__ = ("F", "pairs", "weights", "n", "m")

    def __init__(self, F: GF, pairs, weights, n=None):
        self.F = F
        pairs = [tuple(np.asarray(v, dtype=np.int64) % F.p for v in ab) for ab in pairs]
        n = _ambient_dim(pairs[0][0] if pairs else None, n)
        self.pairs = []
        for a, b in pairs:
            if a.shape != (n,) or b.shape != (n,):
                raise DimensionMismatch(f"spanning vectors of shapes {a.shape}, {b.shape} in K^{n}")
            if linalg.rank(np.stack([a, b]), F.p) != 2:
                raise DimensionMismatch(
                    "spanning pair is linearly dependent; not a 2-space"
                )
            self.pairs.append((a, b))
        if len(weights) != len(self.pairs):
            raise DimensionMismatch("one weight per line")
        self.weights = [int(w) for w in weights]
        self.n = n
        self.m = len(self.pairs)

    def basis(self, k: int) -> np.ndarray:
        a, b = self.pairs[k]
        return np.stack([a, b])

    def __repr__(self):
        return f"LineCollection(n={self.n}, m={self.m}, p={self.F.p})"


class FractionalMatching:
    """Candidate y >= 0 for the subspace covering constraints."""

    __slots__ = ("y",)

    def __init__(self, y):
        self.y = [Fraction(v) for v in y]
        if any(v < 0 for v in self.y):
            raise DimensionMismatch("negative component")

    def verify(self, H: LineCollection) -> bool:
        """Check sum_k y_k dim(H_k ^ X) <= dim X over every subspace."""
        if len(self.y) != H.m:
            raise DimensionMismatch("length does not match the collection")
        for row, dim_x, _ in _fmp_constraints(H):
            if sum(yk * rk for yk, rk in zip(self.y, row)) > dim_x:
                return False
        return True

    def is_perfect(self, n: int) -> bool:
        return 2 * sum(self.y, Fraction(0)) == n

    def __repr__(self):
        return f"FractionalMatching({[str(v) for v in self.y]})"


class BLDatum:
    """Surjective 2-row maps B_j : K^n -> K^2 with exponents p_j; n is
    read off the first map unless given, which it must be for no maps."""

    __slots__ = ("F", "maps", "p", "n", "m")

    def __init__(self, F: GF, maps, p, n=None):
        self.F = F
        maps = [np.asarray(B, dtype=np.int64) % F.p for B in maps]
        n = _ambient_dim(maps[0] if maps else None, n)
        self.maps = []
        for B in maps:
            if B.ndim != 2 or B.shape[0] != 2:
                raise DimensionMismatch("each map needs exactly two rows")
            if B.shape[1] != n:
                raise DimensionMismatch(f"map of shape {B.shape} on K^{n}")
            if linalg.rank(B, F.p) != 2:
                raise DimensionMismatch("map is not surjective onto K^2")
            self.maps.append(B)
        self.p = [Fraction(v) for v in p]
        if len(self.p) != len(self.maps):
            raise DimensionMismatch("one exponent per map")
        if any(v < 0 for v in self.p):
            raise DimensionMismatch("negative exponent")
        self.n = n
        self.m = len(self.maps)

    def lines(self) -> LineCollection:
        """Row spaces of the maps in K^n, weighted trivially."""
        return LineCollection(self.F, [(B[0], B[1]) for B in self.maps], [0] * self.m, self.n)

    def __repr__(self):
        return f"BLDatum(n={self.n}, m={self.m}, p={self.F.p})"


# ---------------------------------------------------------------------------
# builders


def build_edmonds(inst: BipartiteInstance, F: GF) -> WeightedSymbolicMatrix:
    """One variable per edge: A = sum e_i e_j^t x_ij, factored as e_i, e_j."""
    m, n = len(inst.edges), inst.n
    check_budget(n, m)
    C = np.zeros((m, n, 1), dtype=np.int64)
    R = np.zeros((m, 1, n), dtype=np.int64)
    for k, (i, j) in enumerate(inst.edges):
        C[k, i, 0] = R[k, 0, j] = 1
    return WeightedSymbolicMatrix(SymbolicMatrix(F, factors=(C, R)), inst.weights)


def build_matroid_intersection(inst: MatroidPairInstance) -> WeightedSymbolicMatrix:
    """A = sum a_k b_k^t x_k, factored as a_k, b_k."""
    check_budget(inst.n, inst.m)
    factors = (inst.a_vectors[:, :, None], inst.b_vectors[:, None, :])
    return WeightedSymbolicMatrix(SymbolicMatrix(inst.F, factors=factors), inst.weights)


def _skew_terms(F: GF, a: np.ndarray, b: np.ndarray) -> SymbolicMatrix:
    """Terms a_k b_k^t - b_k a_k^t for (m, n) stacks a, b, factored as
    [a_k b_k] times [b_k; -a_k]^t."""
    return SymbolicMatrix(F, factors=(np.stack([a, b], axis=2), np.stack([b, -a], axis=1)))


def build_tutte(inst: BipartiteInstance, F: GF) -> WeightedSymbolicMatrix:
    """Skew-symmetric edge terms e_i e_j^t - e_j e_i^t on n vertices.
    The diagonal stays zero, so the skew shape survives characteristic 2."""
    m, n = len(inst.edges), inst.n
    check_budget(n, m)
    a = np.zeros((m, n), dtype=np.int64)
    b = np.zeros((m, n), dtype=np.int64)
    for k, (i, j) in enumerate(inst.edges):
        if i == j:
            raise DimensionMismatch(f"loop ({i}, {i}) has no skew term")
        a[k, i] = b[k, j] = 1
    return WeightedSymbolicMatrix(_skew_terms(F, a, b), inst.weights)


def build_matroid_matching(H: LineCollection) -> WeightedSymbolicMatrix:
    """Terms a_k b_k^t - b_k a_k^t for the spanning pairs of the lines."""
    check_budget(H.n, H.m)
    ab = np.array([np.stack(pair) for pair in H.pairs], dtype=np.int64).reshape(H.m, 2, H.n)
    return WeightedSymbolicMatrix(_skew_terms(H.F, ab[:, 0], ab[:, 1]), H.weights)


# ---------------------------------------------------------------------------
# fractional matroid matching LP


def _dim_intersection(B1: np.ndarray, B2: np.ndarray, p: int) -> int:
    # dim(U ^ W) = dim U + dim W - dim(U + W)
    if B1.shape[0] == 0 or B2.shape[0] == 0:
        return 0
    return (
        B1.shape[0] + B2.shape[0] - linalg.rank(np.vstack([B1, B2]), p)
    )


def _fmp_constraints(H: LineCollection):
    """Deduplicated covering constraints: for each realized coefficient
    row (dim(H_k ^ X))_k the tightest right-hand side dim X, with a
    witnessing subspace basis kept for certificates.

    One kernel reads every row off the residues B_k (I - S_X) of the
    lines' bases modulo every X (see subspace_residues): a residue's
    rank is 2 - dim(H_k ^ X), and a 2-row matrix has rank 0 when it is
    zero, 2 when a 2x2 minor is nonzero and 1 otherwise.  Subspaces are
    enumerated by dimension, so a row's first X is its first minimal
    one."""
    subs = enumerate_subspaces(H.F, H.n)
    if H.m == 0:
        return []
    p = H.F.p
    bases = np.stack([H.basis(k) for k in range(H.m)])
    R = linalg.matmul(bases[None], subspace_residues(H.F, H.n)[:, None], p)
    i, j = np.triu_indices(H.n, 1)
    minors = (R[..., 0, i] * R[..., 1, j] - R[..., 0, j] * R[..., 1, i]) % p
    rank = np.where(minors.any(axis=-1), 2, R.any(axis=(-2, -1)))
    rows, first = np.unique(2 - rank, axis=0, return_index=True)
    keep = sorted(t for row, t in zip(rows, first) if row.any())
    return [(tuple(int(v) for v in 2 - rank[t]), subs[t].shape[0], subs[t]) for t in keep]


def _solve_fraction_system(rows, rhs):
    """Exact Gaussian elimination; None when the system is singular."""
    m = len(rows)
    M = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(m):
        piv = next((r for r in range(col, m) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        inv = M[col][col]
        M[col] = [v / inv for v in M[col]]
        for r in range(m):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [M[r][m] for r in range(m)]


def _lp_by_basis_enumeration(H, c, ell, constraints):
    """Literal vertex enumeration: each candidate vertex is cut out by m
    linearly independent tight constraints drawn from the covering rows,
    the sign bounds y_k >= 0 and, when a cardinality is fixed, the
    equation 2 1^t y = ell.  Slow but assumption-free."""
    m = H.m
    pool = [(row, dx) for row, dx, _ in constraints]
    pool += [(tuple(-1 if k == j else 0 for k in range(m)), 0) for j in range(m)]
    fixed = [] if ell is None else [(tuple(2 for _ in range(m)), ell)]
    need = m - len(fixed)
    total = 1
    for i in range(need):
        total = total * (len(pool) - i) // (i + 1)
    if total > LP_BASIS_CAP:
        raise EnumerationCapExceeded(
            f"{total} candidate bases exceed cap {LP_BASIS_CAP}"
        )
    best = None
    for combo in itertools.combinations(pool, need):
        active = fixed + list(combo)
        y = _solve_fraction_system([a for a, _ in active], [b for _, b in active])
        if y is None or any(v < 0 for v in y):
            continue
        if any(
            sum(rk * yk for rk, yk in zip(row, y)) > dx for row, dx in pool
        ):
            continue
        if fixed and 2 * sum(y, Fraction(0)) != ell:
            continue
        val = sum(Fraction(ck) * yk for ck, yk in zip(c, y))
        if best is None or val > best[0]:
            best = (val, y)
    if best is None:
        return NEG_INF, None
    return best


def _lp_by_half_integral_points(H, c, ell, constraints):
    """Vertices of the covering polytope are half-integral, so doubled
    candidates live in {0,1,2}^m; a fixed-cardinality optimum lies on a
    segment between two of them, and for each pair of cardinality
    classes only the best representative matters."""
    m = H.m
    if m > 10:
        raise EnumerationCapExceeded(f"3^{m} candidate points refused")
    rows = np.array([row for row, _, _ in constraints], dtype=np.int64)
    rhs = np.array([dx for _, dx, _ in constraints], dtype=np.int64)
    cands = np.array(
        list(itertools.product(range(3), repeat=m)), dtype=np.int64
    ).reshape(3**m, m)
    if rows.size:
        ok = (cands @ rows.T <= 2 * rhs[None, :]).all(axis=1)
        cands = cands[ok]
    sizes = cands.sum(axis=1)  # = 2 1^t y
    cvec = np.array(c, dtype=np.int64)
    vals = cands @ cvec  # = 2 c^t y
    by_size = {}
    for idx in range(cands.shape[0]):
        s = int(sizes[idx])
        if s not in by_size or vals[idx] > by_size[s][0]:
            by_size[s] = (int(vals[idx]), cands[idx])
    if ell is None:
        s_best = max(by_size, key=lambda s: Fraction(by_size[s][0], 2))
        v, y2 = by_size[s_best]
        return Fraction(v, 2), [Fraction(int(t), 2) for t in y2]
    best = None
    if ell in by_size:
        v, y2 = by_size[ell]
        best = (Fraction(v, 2), [Fraction(int(t), 2) for t in y2])
    for su, (vu, u2) in by_size.items():
        if su >= ell:
            continue
        for sv, (vv, v2) in by_size.items():
            if sv <= ell:
                continue
            # chord value at the cardinality-ell crossing
            val = Fraction(vu * (sv - ell) + vv * (ell - su), 2 * (sv - su))
            if best is None or val > best[0]:
                theta = Fraction(ell - su, sv - su)
                y = [
                    (Fraction(int(a), 2) + theta * Fraction(int(b) - int(a), 2))
                    for a, b in zip(u2, v2)
                ]
                best = (val, y)
    if best is None:
        return NEG_INF, None
    return best


def fmp_lp_oracle(H: LineCollection, c=None, ell=None, method="halfint"):
    """Exact optimum of max c^t y over the covering constraints, plus an
    optimal y; with ell fixed, restricted to 2 1^t y = ell (value -inf
    when that slice is empty).

    method 'halfint' is the fast production route; 'enumerate' is the
    assumption-free cross-check for small instances.
    """
    if c is None:
        c = H.weights
    if len(c) != H.m:
        raise DimensionMismatch("one weight per line")
    if H.m == 0:
        if ell in (None, 0):
            return Fraction(0), []
        return NEG_INF, None
    constraints = _fmp_constraints(H)
    if method == "halfint":
        return _lp_by_half_integral_points(H, c, ell, constraints)
    if method == "enumerate":
        return _lp_by_basis_enumeration(H, c, ell, constraints)
    raise ValueError(f"unknown method {method!r}")


def fmm_max_weight(H: LineCollection, c=None, rng=None):
    """Maximum weight of a fractional matroid matching, with the whole
    per-cardinality curve: value ell holds half the degree the symmetric
    engine reports at ell."""
    from .degdet import symmetric_hungarian

    if c is None:
        c = H.weights
    if len(c) != H.m:
        raise DimensionMismatch("one weight per line")
    rng = as_rng(rng)
    A = build_matroid_matching(H)
    prof = symmetric_hungarian(A.base, [int(ck) for ck in c], rng=rng)
    per_level = {}
    for l, v in sorted(prof.values.items()):
        per_level[l] = NEG_INF if v == NEG_INF else Fraction(int(v), 2)
    best = max(v for v in per_level.values() if v != NEG_INF)
    return best, per_level


# ---------------------------------------------------------------------------
# rank-2 Brascamp-Lieb membership


def bl_membership_rank2(datum: BLDatum):
    """Membership of p in the polytope cut out by the perfect matching
    conditions on the row spaces: the scaling equation 2 sum p = n and
    every subspace covering constraint.  Returns (verdict, certificate);
    the certificate names the failed equation or a violated subspace."""
    total = 2 * sum(datum.p, Fraction(0))
    if total != datum.n:
        return False, {
            "kind": "dimension",
            "lhs": total,
            "rhs": datum.n,
        }
    H = datum.lines()
    for row, dx, X in _fmp_constraints(H):
        lhs = sum(pj * rk for pj, rk in zip(datum.p, row))
        if lhs > dx:
            return False, {
                "kind": "subspace",
                "basis": X.tolist(),
                "lhs": lhs,
                "rhs": dx,
            }
    return True, None


# ---------------------------------------------------------------------------
# brute-force referees


def _bf_bipartite(inst: BipartiteInstance, ell: int):
    if ell == 0:
        return 0
    if inst.n > BRUTE_FORCE_N_CAP:
        raise EnumerationCapExceeded(f"side {inst.n} > {BRUTE_FORCE_N_CAP}")
    w = {e: wt for e, wt in zip(inst.edges, inst.weights)}
    rows = sorted({i for i, _ in inst.edges})
    cols = sorted({j for _, j in inst.edges})
    if ell > min(len(rows), len(cols)):
        return NEG_INF
    best = NEG_INF
    for rsub in itertools.combinations(rows, ell):
        for csub in itertools.combinations(cols, ell):
            for perm in itertools.permutations(csub):
                total = 0
                for i, j in zip(rsub, perm):
                    wt = w.get((i, j))
                    if wt is None:
                        break
                    total += wt
                else:
                    best = max(best, total)
    return best


def _bf_matroid_pair(inst: MatroidPairInstance, ell: int):
    if ell == 0:
        return 0
    if inst.m > BRUTE_FORCE_M_CAP or inst.n > BRUTE_FORCE_N_CAP:
        raise EnumerationCapExceeded(
            f"(n, m) = ({inst.n}, {inst.m}) beyond brute-force caps"
        )
    p = inst.F.p
    best = NEG_INF
    for sub in itertools.combinations(range(inst.m), ell):
        idx = list(sub)
        if linalg.rank(inst.a_vectors[idx], p) != ell:
            continue
        if linalg.rank(inst.b_vectors[idx], p) != ell:
            continue
        best = max(best, sum(inst.weights[k] for k in idx))
    return best


def brute_force_matching_oracles(instance, ell: int):
    """Ground truth by enumeration: max-weight ell-matching for a
    bipartite instance, max-weight common independent ell-set for a
    matroid pair; -inf when no candidate of size ell exists."""
    if ell < 0:
        raise DimensionMismatch(f"ell = {ell} negative")
    if isinstance(instance, BipartiteInstance):
        return _bf_bipartite(instance, ell)
    if isinstance(instance, MatroidPairInstance):
        return _bf_matroid_pair(instance, ell)
    raise TypeError(f"no brute-force oracle for {type(instance).__name__}")
