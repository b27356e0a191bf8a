"""Instance builders and desk-scale oracles for the matrix classes the
degree machinery serves: weighted bipartite matching, linear matroid
intersection, fractional linear matroid matching, and rank-2
Brascamp-Lieb membership.

The oracles here are deliberately independent of the iterative engines:
matching and common-independent-set values come from raw enumeration,
and the fractional matroid matching LP is solved over the explicitly
enumerated subspace constraints, so they can referee the engines.  The
slower references the tests check these oracles against (literal LP
vertex enumeration, per-subspace intersection dimensions, the Tutte
builder) live in tests/referee.py.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import DimensionMismatch, EnumerationCapExceeded
from .mvsp import enumerate_subspaces, subspace_residues
from .ratfunc import NEG_INF
from .scalar import GF
from .symbolic import SymbolicMatrix, WeightedSymbolicMatrix, check_budget

BRUTE_FORCE_N_CAP = 8
BRUTE_FORCE_M_CAP = 12


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


def build_matroid_matching(H: LineCollection) -> WeightedSymbolicMatrix:
    """Terms a_k b_k^t - b_k a_k^t for the spanning pairs of the lines."""
    check_budget(H.n, H.m)
    ab = np.array([np.stack(pair) for pair in H.pairs], dtype=np.int64).reshape(H.m, 2, H.n)
    return WeightedSymbolicMatrix(_skew_terms(H.F, ab[:, 0], ab[:, 1]), H.weights)


# ---------------------------------------------------------------------------
# fractional matroid matching LP


def _fmp_constraints(H: LineCollection):
    """Deduplicated covering constraints: for each realized coefficient
    row (dim(H_k ^ X))_k the tightest right-hand side dim X, with a
    witnessing subspace basis kept for certificates.

    One kernel reads every row off the residues B_k (I - S_X) of the
    lines' bases modulo every X (see subspace_residues): a residue's
    rank is 2 - dim(H_k ^ X), and a 2-row matrix has rank 0 when it is
    zero, 2 when a 2x2 minor is nonzero and 1 otherwise.  The subspaces
    X are enumerated by dimension, so a row's first X is its first
    minimal one."""
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
    # |2 c^t y| <= 2 m max|c| <= 20 max|c|: exact Python ints beyond int64
    dtype = np.int64 if 20 * max(abs(ck) for ck in c) < 1 << 63 else object
    vals = cands @ np.array(c, dtype=dtype)  # = 2 c^t y
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


def fmp_lp_oracle(H: LineCollection, c=None, ell=None):
    """Exact optimum of max c^t y over the covering constraints, plus an
    optimal y; with ell fixed, restricted to 2 1^t y = ell (value -inf
    when that slice is empty).  Read off the half-integral points;
    _lp_by_basis_enumeration in tests/referee.py is the assumption-free
    cross-check for small instances."""
    if c is None:
        c = H.weights
    if len(c) != H.m:
        raise DimensionMismatch("one weight per line")
    if H.m == 0:
        if ell in (None, 0):
            return Fraction(0), []
        return NEG_INF, None
    return _lp_by_half_integral_points(H, c, ell, _fmp_constraints(H))


# ---------------------------------------------------------------------------
# rank-2 Brascamp-Lieb membership


def bl_membership_rank2(datum: BLDatum):
    """Membership of p in the polytope cut out by the perfect matching
    conditions on the row spaces: the scaling equation 2 sum p = n and
    every subspace covering constraint.  Returns (verdict, certificate);
    the certificate names the failed equation or a violated subspace."""
    total = 2 * sum(datum.p, Fraction(0))
    if total != datum.n:
        return False, {"kind": "dimension", "lhs": total, "rhs": datum.n}
    cons = _fmp_constraints(datum.lines())
    # all rows in one integer product: D * lhs > D * dx, D the lcm of p's denominators
    D = math.lcm(*(pj.denominator for pj in datum.p))
    pD, rhs = [int(pj * D) for pj in datum.p], [D * dx for _, dx, _ in cons]
    dtype = np.int64 if max([2 * sum(pD), *rhs]) < 1 << 62 else object  # row entries are at most 2
    rows = np.array([row for row, _, _ in cons], dtype=dtype).reshape(len(cons), datum.m)
    over = np.flatnonzero(rows @ np.array(pD, dtype=dtype) > np.array(rhs, dtype=dtype))
    if over.size:
        row, dx, X = cons[over[0]]
        lhs = sum(pj * rk for pj, rk in zip(datum.p, row))
        return False, {"kind": "subspace", "basis": X.tolist(), "lhs": lhs, "rhs": dx}
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
