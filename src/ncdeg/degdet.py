"""Degree-of-determinant algorithms.

One Hungarian loop, _hungarian, computes the maximum degrees Delta_ell
of ell x ell subdeterminants (Dieudonne sense) of a linear symbolic
matrix over K(t).  It keeps every (t^alpha) P B_k Q (t^beta) proper,
folds the witness of the leading matrix, a vanishing pair (U, V) in
pivot form, into P and Q, raises alpha on U's pivots and beta on V's
by the longest feasible step (kappa1), and re-sorts both by
permutations.  Both callers run it on the field state, P, Q over the
base field and every entry of term k at degree c_k:

* hungarian_deg_det: weighted matrices A[c].  A witness of unit vectors
  folds as the identity, so on bipartite input P and Q stay
  permutations and the loop is Kuhn's Hungarian method.
* symmetric_hungarian: skew-symmetric A[c], with half-integral
  alpha = beta, doubled internally so every step is integral, and
  always the nested blow-up witness (U's basis led by V's).

tests/referee.py runs the same loop on a rational state over K(t), the
reference the field engine is checked against.  Every other leading matrix gets its witness from mvsp.witness,
the cheapest route its factors allow.  Each caller emits a DegreeProfile
of exact values, certifying duals and run metadata.  Every dual is
monomial and verifies on its own, from one side: any feasible dual
upper-bounds every Delta_ell (weak duality), so feasibility plus
objective equality proves Delta_ell <= the value.  That the value is
reached rests on the run that emitted it.
"""

import math
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import (
    AlgorithmStall,
    BadCardinality,
    DimensionMismatch,
    LPInfeasible,
)
from .mvsp import (
    _check_skew,
    _pivots,
    blowup_witness,
    nested_witness,
    triangular,
    witness,
)
from .ratfunc import NEG_INF, POS_INF
from .symbolic import SymbolicMatrix, WeightedSymbolicMatrix, as_rng

_EXACT = 1 << 61  # below this, sums of three weights stay exact in int64


# ---------------------------------------------------------------------------
# domain types


class DualSolution:
    """Feasible dual state (alpha, P, beta, Q), monomial: P, Q are
    invertible matrices over the field F, and feasibility reads
    alpha_i + beta_j + c_k <= 0 on the support of P A_k Q.
    """

    __slots__ = ("alpha", "P", "beta", "Q", "F")

    def __init__(self, alpha, P, beta, Q, F):
        self.alpha = list(alpha)
        self.P = P
        self.beta = list(beta)
        self.Q = Q
        self.F = F

    @property
    def n(self):
        return len(self.alpha)

    def objective(self, ell):
        """-(sum of the ell smallest alpha) - (sum of the ell smallest beta)."""
        n = self.n
        if not 0 <= ell <= n:
            raise BadCardinality(f"ell={ell} outside [0, {n}]")
        val = -sum(self.alpha[n - ell:]) - sum(self.beta[n - ell:])
        if isinstance(val, Fraction) and val.denominator == 1:
            return int(val)
        return val

    def is_sorted(self):
        return all(x[i] >= x[i + 1] for x in (self.alpha, self.beta) for i in range(len(x) - 1))

    def feasible(self, target) -> bool:
        """Sorted, with P and Q invertible and every entry feasible.  P and
        Q reduced mod p to permutations make P A_k Q A_k relabelled: entry
        (k, i, j) moves to (x, y) with P[x, i] = Q[j, y] = 1, one entry to
        a cell, so A's own support, relabelled, is exactly P A_k Q's.
        Other P, Q need P Q invertible, and P A_k Q formed."""
        if not self.is_sorted():
            return False
        Ac = target if target.n_rows == target.n_cols else target.pad_square()
        A, p = Ac.base, Ac.F.p
        P, Q = (np.asarray(X, dtype=np.int64) % p for X in (self.P, self.Q))
        if P.shape == Q.shape == A.shape == (self.n, self.n) and _unit_rows(P) and _unit_rows(Q):
            k, i, j = A.support()
            support = k, P.T.nonzero()[1][i], Q.nonzero()[1][j]
        elif linalg.rank(linalg.matmul(P, Q, p), p) < self.n:
            return False
        else:
            support = A.sandwich(P, Q).support()
        # scaled by the lcm D of the denominators, half-integral duals
        # compare in int64 rather than as Fractions
        dens = [x.denominator for x in self.alpha + self.beta if type(x) is Fraction]
        D = math.lcm(*dens)
        a, b = (_scaled(x, D) for x in (self.alpha, self.beta)) if dens else (self.alpha, self.beta)
        c = _exact(Ac.c if D == 1 else [D * ck for ck in Ac.c])
        return not (_slacks(support, a, b, c[support[0]]) > 0).any()

    def __repr__(self):
        return f"DualSolution(alpha={self.alpha}, beta={self.beta})"


class DegreeProfile:
    """All Delta_ell values with certifying duals and run metadata."""

    def __init__(self, n):
        self.n = n
        self.values = {0: 0}
        self.duals = {}
        self.meta = {"iterations": 0}

    def __repr__(self):
        vals = [self.values.get(l) for l in range(self.n + 1)]
        return f"DegreeProfile({vals})"


# ---------------------------------------------------------------------------
# step sizes


def _unit_rows(B) -> bool:
    """Whether B's rows, entries in [0, p), are distinct rows of the identity."""
    return bool((B.sum(axis=1) == 1).all() and (B.sum(axis=0) <= 1).all())


def _exact(values) -> np.ndarray:
    """values as an int64 array when any sum of three stays exact, else as
    an object array of the Python numbers themselves.  A list of Python
    ints is range-checked entry by entry, cheaper than two reductions."""
    if all(type(x) is int and -_EXACT < x < _EXACT for x in values):
        return np.array(values, dtype=np.int64)
    a = np.asarray(values)
    if a.dtype == np.int64 and (not a.size or -_EXACT < a.min() and a.max() < _EXACT):
        return a
    return np.array(values, dtype=object)


def _scaled(values, D):
    """D * values, with Fractions made Python ints (D clears their
    denominators) and any other entry multiplied as it is."""
    return [int(x * D) if type(x) is Fraction else x * D for x in values]


def _slacks(support, alpha, beta, deg):
    """alpha_i + beta_j + deg over a support (k, i, j) of term entries,
    deg holding each entry's degree; alpha and beta are lists, or arrays
    that _exact made."""
    _, i, j = support
    a, b = (x if isinstance(x, np.ndarray) else _exact(x) for x in (alpha, beta))
    return a[i] + b[j] + deg


def _step_bound(support, alpha, beta, deg, inc_a, inc_b):
    """kappa1, the largest kappa keeping every nonzero entry (k, i, j) of
    the stack P B_k Q, of degree deg, feasible under alpha + kappa*inc_a
    and beta + kappa*inc_b; +inf when no entry's slack shrinks."""
    _, i, j = support
    inc = np.asarray(inc_a, dtype=np.int64)[i] + np.asarray(inc_b, dtype=np.int64)[j]
    up = inc > 0
    slack = _slacks([x[up] for x in support], alpha, beta, deg[up])
    return int((-slack // inc[up]).min()) if up.any() else POS_INF


def _sorting_sigma(raw):
    """Order indices by value descending, stably."""
    return sorted(range(len(raw)), key=lambda i: (-raw[i], i))


# ---------------------------------------------------------------------------
# loop states: P, Q and the entries of the terms P B_k Q


class _FieldState:
    """P, Q over GF(p) and B with terms P A_k Q, factored as
    (P C_k)(R_k Q); each entry of term k has degree c_k."""

    def __init__(self, A: SymbolicMatrix, c):
        self.F = A.F
        self.P = self.Q = linalg.identity(A.n_rows)
        self.B = SymbolicMatrix(A.F, factors=A.factors)
        self.c = _exact(c)
        self._read()

    def _read(self):
        self.support = self.B.support()
        self.deg = self.c[self.support[0]]

    def leading(self, tight):
        """B on its tight entries; rank-one terms keep it factored."""
        k, i, j = (x[tight] for x in self.support)
        PC, RQ = self.B.factors
        if PC.shape[2] == 1:
            rows = np.zeros(PC.shape, dtype=bool)
            cols = np.zeros(RQ.shape, dtype=bool)
            rows[k, i, 0] = cols[k, 0, j] = True
            return SymbolicMatrix(self.F, factors=(PC * rows, RQ * cols))
        mask = np.zeros(self.B.terms.shape, dtype=bool)
        mask[k, i, j] = True
        return SymbolicMatrix(self.F, self.B.terms * mask)

    def fold(self, L, R, alpha, beta):
        """P <- L P, Q <- Q R, B <- L B R: L and R commute with t^alpha
        and t^beta (see _hungarian)."""
        p = self.F.p
        self.P, self.Q = linalg.matmul(L, self.P, p), linalg.matmul(self.Q, R, p)
        self.B = self.B.sandwich(L, R)
        self._read()

    def permute(self, sa, sb):
        self.P, self.Q, self.B = self.P[sa], self.Q[:, sb], self.B.submatrix(sa, sb)
        k, i, j = self.support
        self.support = k, np.argsort(sa)[i], np.argsort(sb)[j]


# ---------------------------------------------------------------------------
# the Hungarian loop and its two callers


def _hungarian(state, alpha, beta, cutoff, cap, symmetric, rng):
    """The Hungarian loop of both engines, on a state holding P, Q and
    the terms P B_k Q, from a feasible sorted (alpha, beta).  Level
    ell is -inf once its bound drops below ell * cutoff, and more than
    cap rounds stall.  The symmetric engine doubles c, alpha and beta, so
    every step is integral; values and duals shed the factor on the way.

    The tight entries, alpha_i + beta_j + deg e = 0, give the leading
    matrix At, whose witness is a vanishing pair (U, V) in pivot form,
    with pivots X and Y.  L = triangular(U) and R = triangular(V)^t fold
    into the state, whose terms become L B R in the frame t^alpha, t^beta
    (R = L^t on the symmetric engine, whose nested pair puts V's rows at
    V's pivots of L too, so Q = P^t).  Distinct unit vectors, as every
    Koenig witness is, give L = R = I and fold as nothing, so on
    bipartite input P and Q stay permutations and the loop is Kuhn's.

    The field state holds P A_k Q as (P C_k)(R_k Q), so a round costs
    O(n^2 r) per term, and each entry of term k has degree c_k.  It folds
    P <- L P and Q <- Q R: every row of U lies in the run of alpha that
    holds its pivot, and of V in its run of beta, so L and R commute with
    t^alpha and t^beta.  For lambda != 0 in an extension field,
    D = diag(lambda^alpha), E = diag(lambda^beta) give D At_k E =
    lambda^(-c_k) At_k, as At lives on alpha_i + beta_j = -c_k, so
    (U, V) -> (U D^-1, V E^-1) keeps vanishing pairs and dimensions and
    fixes the dominant optimum, which is unique (over the algebraic
    closure too, so Frobenius fixes that one: it is GF(p)'s).  For lambda
    of order above the spread of alpha, D's eigenspaces are alpha's runs,
    so U is the direct sum of its pieces in them, and each row of its
    canonical basis, the union of theirs, lies in one run; so for V.
    Every route returns rows of such bases (Koenig's unit vectors are).

    The step bound re-checks the pair.  An entry of L B R in X x Y is
    u_x B v_y^t, proper in the frame with constant term u_x At v_y^t, so
    a tight one there is a nonzero entry of U At V^t; the step direction
    is at least +1 there (on the symmetric engine Y lies in X, +1 on Y,
    0 on X minus Y), so kappa1 = 0 and the loop stalls, as it does on an
    infeasible L B R.

    With rank-one terms P A_k Q = u v^t, feasibility makes the tight part
    of term k the product of u on the rows where alpha is largest over
    supp u and v on the columns where beta is largest over supp v (or
    zero), so the leading matrix comes out factored.  Higher ranks mask
    the dense terms.  Each round hands the witness route's start' back
    as the next round's start.  On the matroid route that is the common
    independent set J, as Frank's weight-splitting algorithm keeps its J
    across dual steps: the sorting permutations move rows and columns
    only, so J's term indices stay valid.  On the blow-up route it is
    the certifying draw, one R_k per term, which the next leading
    matrix, the same terms folded and re-sorted, tries first; the
    symmetric engine calls the blow-up route directly.

    A step runs until the next entry becomes tight (kappa1), as in Kuhn's
    Hungarian method; sorting permutations then reorder alpha with the
    rows of P and B, and beta with the columns of Q and B (one serves
    both sides on the symmetric engine, where alpha = beta).
    Feasibility, alpha_i + beta_j + deg e <= 0 on every entry, survives
    any simultaneous permutation.  The zero block's rows need not lead
    their runs: after the step the stable sort orders each run's rows by
    their new values, in index order among equals, wherever they stood.
    The leading rank cannot drop: the leading part of L B R is zero on
    X x Y, X x notY and notX x Y carry nc-rank (n-s) + (n-r) = ell, and
    the step keeps alpha_i + beta_j on both, in any order.
    """
    n = len(alpha)
    profile = DegreeProfile(n)
    scale = 2 if symmetric else 1
    ell = 0
    start = ()

    def emit(lo, hi):
        """One dual certifies levels lo..hi.  It holds state.P and state.Q
        themselves: a state replaces them on fold and permute, never writing in place."""
        a, b = alpha, beta
        if scale > 1:
            a = [Fraction(x, scale) for x in alpha]
            b = [Fraction(x, scale) for x in beta]
        sol = DualSolution(a, state.P, b, state.Q, state.F)
        for l in range(lo, hi + 1):
            profile.values[l] = sol.objective(l)
            profile.duals[l] = sol

    def emit_neg(lo):
        for l in range(lo, n + 1):
            profile.values[l] = NEG_INF

    while True:
        a, b = _exact(alpha), _exact(beta)
        slack = _slacks(state.support, a, b, state.deg)
        if (slack > 0).any():
            k, i, j = (int(x[np.argmax(slack > 0)]) for x in state.support)
            raise AlgorithmStall(f"dual infeasible at entry ({i},{j}) of term {k}")
        At = state.leading(slack == 0)
        if symmetric:
            w, start = blowup_witness(At, rng, start)
            w = nested_witness(w)
        else:
            w, start = witness(At, rng, start)
        lbar = w.value()
        if lbar < ell:
            raise AlgorithmStall(f"leading rank dropped from {ell} to {lbar}")
        if lbar > ell:
            emit(ell + 1, lbar)
            ell = lbar
        if ell == n:
            break
        if -sum(alpha[n - ell - 1:]) - sum(beta[n - ell - 1:]) < (ell + 1) * cutoff:  # objective at ell + 1
            emit_neg(ell + 1)
            break

        inc_a = np.zeros(n, dtype=np.int64)
        inc_b = np.full(n, -1, dtype=np.int64)
        inc_a[_pivots(w.U)] = 1  # raise alpha on X, drop beta off Y
        inc_b[_pivots(w.V)] = 0
        if symmetric:  # 1_X - 1_{notY}: +1 on Y, 0 on X minus Y, -1 off X
            inc_a = inc_b = inc_a + inc_b
        if not (_unit_rows(w.U) and _unit_rows(w.V)):  # else L = R = I
            L = triangular(w.U)
            state.fold(L, (L if symmetric else triangular(w.V)).T, alpha, beta)
        kappa = _step_bound(state.support, a, b, state.deg, inc_a, inc_b)
        if kappa == POS_INF:
            emit_neg(ell + 1)
            break
        if kappa < 1:
            raise AlgorithmStall(f"step collapsed to {kappa}: a tight entry sits in the witness's zero block")
        alpha = [a + kappa * d for a, d in zip(alpha, inc_a.tolist())]
        beta = [b + kappa * d for b, d in zip(beta, inc_b.tolist())]
        sa, sb = _sorting_sigma(alpha), _sorting_sigma(beta)
        alpha, beta = [alpha[i] for i in sa], [beta[j] for j in sb]
        state.permute(sa, sb)
        profile.meta["iterations"] += 1
        if profile.meta["iterations"] > cap:
            raise AlgorithmStall(f"{profile.meta['iterations']} iterations exceed the bound {cap}")
    profile.meta["r_star"] = ell
    return profile


def _field_hungarian(A, c, alpha, beta, symmetric, rng):
    """_hungarian on the field state of a square A[c], capped at
    16 n^3 + 64 rounds."""
    n = A.n_rows
    if n == 0:
        return DegreeProfile(0)
    return _hungarian(_FieldState(A, c), alpha, beta, min(c, default=0), 16 * n**3 + 64, symmetric, rng)


def hungarian_deg_det(Ac: WeightedSymbolicMatrix, rng=None) -> DegreeProfile:
    """All Delta_ell of A[c] with field-valued P, Q.

    The dual never leaves the monomial world: alpha and beta move by
    integer steps kappa1, the longest that keeps every entry feasible,
    and are re-sorted after each (see _hungarian).
    """
    sq = Ac.pad_square()
    n = sq.base.n_rows
    return _field_hungarian(sq.base, sq.c, [0] * n, [-max(sq.c, default=0)] * n, False, as_rng(rng))


def symmetric_hungarian(A: SymbolicMatrix, c, rng=None) -> DegreeProfile:
    """One-sided profile for skew-symmetric A[c] with half-integral
    alpha = beta: the shared loop runs on doubled weights so every step
    is integer, and emitted values and duals shed the factor again.

    The dominant optimum of a skew leading matrix, found by the blow-up
    witness, nests V inside U, so a single transform serves both sides
    (triangular(U) with U's basis led by V's, and one sorting permutation
    after each step, keeping Q = P^t) and the step direction is +1 on the
    V part, 0 on the rest of the U part, -1 outside.
    """
    _check_skew(A)
    if len(c) != A.n_terms:
        raise DimensionMismatch("one weight per term")
    c2 = [2 * int(ck) for ck in c]
    a2 = [-max(c2, default=0) // 2] * A.n_rows  # alpha = -max(c)/2, tight on the top terms
    return _field_hungarian(A, c2, a2, a2, True, as_rng(rng))


# ---------------------------------------------------------------------------
# the Q_ell polytope


def optimize_Q(Ac: WeightedSymbolicMatrix, ell, rng=None):
    """Integral maximizer of c'u over the ell-th subdeterminant polytope.

    One run at the perturbed weight w_k = c_k N^m + N^(m-1-k), N = n + 1,
    scores u (0 <= u_k <= n) as c'u N^m plus u in base N.  Level ell is
    -inf iff the nc-rank, which no weight enters, is below ell.  If
    sum(u) = ell and c'u = cu, top = w'u, and the level dual proves
    Delta_ell(w) <= top: a low answer (a tie broken wrongly) is refused.
    A high one passes: nothing proves a value from below (ROADMAP item 1).
    """
    m = Ac.base.n_terms
    n = max(Ac.base.n_rows, Ac.base.n_cols)
    if not 0 <= ell <= n:
        raise BadCardinality(f"ell={ell} outside [0, {n}]")
    if ell == 0:
        return [0] * m
    N = n + 1
    Aw = WeightedSymbolicMatrix(Ac.base, [ck * N**m + N ** (m - 1 - k) for k, ck in enumerate(Ac.c)])
    prof = hungarian_deg_det(Aw, rng)
    if (top := prof.values[ell]) == NEG_INF:
        raise LPInfeasible(f"level {ell} has value -inf")
    cu, tail = divmod(top, N**m)
    u = [tail // N ** (m - 1 - k) % N for k in range(m)]
    decoded = sum(u) == ell and sum(ck * uk for ck, uk in zip(Ac.c, u)) == cu
    if not (decoded and verify_dual(prof.duals[ell], Aw, ell, top)):
        raise AlgorithmStall(f"decoded u = {u} at level {ell} fails its sum, its c'u = {cu} or the level dual")
    return u


# ---------------------------------------------------------------------------
# verification helpers


def verify_dual(sol: DualSolution, target, ell, expected) -> bool:
    """sol is feasible for target with objective expected at ell.  By weak duality that
    proves Delta_ell <= expected, and nothing more: lowering every beta by 1 keeps a
    dual feasible and raises its objective by ell, so a loosened dual passes a raised value."""
    return sol.feasible(target) and sol.objective(ell) == expected
