"""Degree-of-determinant algorithms.

One Hungarian loop, _hungarian, computes the maximum degrees Delta_ell
of ell x ell subdeterminants (Dieudonne sense) of a linear symbolic
matrix over K(t).  It keeps every (t^alpha) P B_k Q (t^beta) proper,
folds the witness of the leading matrix, a vanishing pair (U, V) in
pivot form, into P and Q, raises alpha on U's pivots and beta on V's
by the longest feasible step (kappa1), and re-sorts both by
permutations.  It has three callers:

* hungarian_deg_det: weighted matrices A[c] on the field state, P, Q
  over the base field and every entry of term k at degree c_k.  A
  witness of unit vectors folds as the identity, so on bipartite input
  P and Q stay permutations and the loop is Kuhn's Hungarian method.
* symmetric_hungarian: skew-symmetric A[c] on the field state, with
  half-integral alpha = beta, doubled internally so every step is
  integral, and always the nested blow-up witness (U's basis led by V's).
* deg_subdet / deg_det: matrices over K(t) on the rational state,
  biproper P, Q over K(t) and each entry of P B_k Q at its own degree.

Every other leading matrix gets its witness from mvsp.witness, the
cheapest route its factors allow.  Each caller emits a DegreeProfile of
exact values, certifying duals and run metadata.  Duals verify on their
own, from one side: any feasible dual upper-bounds every Delta_ell (weak
duality), so feasibility plus objective equality proves Delta_ell <= the
value.  That the value is reached rests on the run that emitted it.
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
    NcdegError,
    NotComplementarySlack,
    NotSorted,
)
from .mvsp import (
    _check_skew,
    _pivots,
    blowup_witness,
    nested_witness,
    triangular,
    witness,
)
from .ratfunc import NEG_INF, POS_INF, Poly, RationalMatrix, classify_biproper, poly_gcd
from .symbolic import (
    RationalSymbolicMatrix,
    SymbolicMatrix,
    WeightedSymbolicMatrix,
    as_rng,
)

_EXACT = 1 << 61  # below this, sums of three weights stay exact in int64


# ---------------------------------------------------------------------------
# domain types


class DualSolution:
    """Feasible dual state (alpha, P, beta, Q).

    monomial mode: P, Q are invertible field matrices and feasibility reads
    alpha_i + beta_j + c_k <= 0 on the support of P A_k Q.  general
    mode: P, Q are biproper rational matrices and every entry of
    (t^alpha) P B_k Q (t^beta) must be proper.
    """

    __slots__ = ("alpha", "P", "beta", "Q", "mode", "F")

    def __init__(self, alpha, P, beta, Q, mode, F):
        self.alpha = list(alpha)
        self.P = P
        self.beta = list(beta)
        self.Q = Q
        if mode not in ("monomial", "general"):
            raise NcdegError(f"dual mode must be monomial or general, got {mode!r}")
        self.mode = mode
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
        """Sorted, with P and Q invertible and every entry feasible.  In
        monomial mode, P and Q reduced mod p to permutations make P A_k Q
        A_k relabelled: entry (k, i, j) moves to (x, y) with P[x, i] =
        Q[j, y] = 1, one entry to a cell, so A's own support, relabelled, is
        exactly P A_k Q's.  Other P, Q need P Q invertible, and P A_k Q formed."""
        if not self.is_sorted():
            return False
        if self.mode == "monomial":
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
        try:
            if not all(classify_biproper(X).is_biproper for X in (self.P, self.Q)):
                return False
            state = _RationalState(target.transform(self.P, self.Q))
        except NcdegError:
            return False
        return len(self.beta) == self.n == target.n and not (_slacks(state.support, self.alpha, self.beta, state.deg) > 0).any()

    def __repr__(self):
        return f"DualSolution(mode={self.mode}, alpha={self.alpha}, beta={self.beta})"


class DegreeProfile:
    """All Delta_ell values with certifying duals and run metadata."""

    def __init__(self, n):
        self.n = n
        self.values = {0: 0}
        self.duals = {}
        self.meta = {"iterations": 0}

    def delta(self, ell):
        return self.values[ell]

    def delta_max(self):
        return max(v for v in self.values.values() if v != NEG_INF)

    def finite_levels(self):
        return [l for l in range(self.n + 1) if self.values[l] != NEG_INF]

    def is_concave(self) -> bool:
        """Finite levels form an initial segment and their values are
        discretely concave."""
        fin = self.finite_levels()
        if fin != list(range(len(fin))):
            return False
        v = [self.values[l] for l in fin]
        return all(v[i + 1] - v[i] <= v[i] - v[i - 1] for i in range(1, len(v) - 1))

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

    mode = "monomial"

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


class _RationalState:
    """Biproper P, Q over K(t) and the terms G_k = P B_k Q; each entry
    has its own degree."""

    mode = "general"

    def __init__(self, B: RationalSymbolicMatrix):
        self.F = B.F
        self.P = self.Q = RationalMatrix.identity(B.F, B.n)
        self.G = B.terms
        self._read()

    def _read(self):
        """Support (k, i, j), degrees and leading coefficients of G's nonzero
        entries; a RatFn's denominator is monic, so lc(num)/lc(den) is lc(num)."""
        found = [
            (k, i, j, e.deg, e.num.lc())
            for k, Gk in enumerate(self.G) for i, row in enumerate(Gk.rows) for j, e in enumerate(row)
            if not e.is_zero()
        ]
        k, i, j, deg, lc = (list(x) for x in zip(*found)) if found else ([],) * 5
        self.support = tuple(np.array(x, dtype=np.intp) for x in (k, i, j))
        self.deg, self.lc = _exact(deg), np.array(lc, dtype=np.int64)

    def leading(self, tight):
        """The leading coefficients of G's tight entries, as a dense stack."""
        n = self.P.shape[0]
        T = np.zeros((len(self.G), n, n), dtype=np.int64)
        k, i, j = (x[tight] for x in self.support)
        T[k, i, j] = self.lc[tight]
        return SymbolicMatrix(self.F, T)

    def fold(self, L, R, alpha, beta):
        """P <- t^-alpha L t^alpha P and Q <- Q t^beta R t^-beta, and G
        alike, so t^alpha G t^beta becomes L (t^alpha G t^beta) R.  The
        conjugates are biproper only for non-increasing alpha and beta."""
        if any(x[i] < x[i + 1] for x in (alpha, beta) for i in range(len(x) - 1)):
            raise NotSorted(f"alpha {alpha} and beta {beta} must be non-increasing")
        F = self.F
        Lt = RationalMatrix.from_scalars(F, L).scale_rows([-a for a in alpha]).scale_cols(alpha)
        Rt = RationalMatrix.from_scalars(F, R).scale_rows(beta).scale_cols([-b for b in beta])
        self.P, self.Q = Lt.matmul(self.P), self.Q.matmul(Rt)
        self.G = [Lt.matmul(Gk).matmul(Rt) for Gk in self.G]
        self._read()

    def permute(self, sa, sb):
        F = self.F
        self.P = RationalMatrix(F, [self.P.rows[i] for i in sa])
        self.Q = RationalMatrix(F, [[row[j] for j in sb] for row in self.Q.rows])
        self.G = [RationalMatrix(F, [[Gk.rows[i][j] for j in sb] for i in sa]) for Gk in self.G]
        k, i, j = self.support
        self.support = k, np.argsort(sa)[i], np.argsort(sb)[j]


# ---------------------------------------------------------------------------
# the Hungarian loop and its three callers


def _bound(alpha, beta, ell):
    n = len(alpha)
    return -sum(alpha[n - ell:]) - sum(beta[n - ell:])


def _hungarian(state, alpha, beta, cutoff, cap, symmetric, rng):
    """The Hungarian loop of all three engines, on a state holding P, Q
    and the terms P B_k Q, from a feasible sorted (alpha, beta).  Level
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

    The rational state (deg_subdet) holds G_k = P B_k Q over K(t); an
    entry e has degree deg e and, where tight, puts lc(num)/lc(den) into
    At.  The tight entries of a term need not share alpha_i + beta_j, so
    the runs argument fails, and the fold puts t^-alpha L t^alpha into P
    and t^beta R t^-beta into Q, biproper as L is upper and R lower
    triangular and alpha and beta are sorted.  On the field state these
    equal L and R.

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
    the dense terms.  On the matroid route the loop hands each round's
    common independent set J back to witness as the next start, as
    Frank's weight-splitting algorithm keeps its J across dual steps:
    the sorting permutations move rows and columns only, so J's term
    indices stay valid.

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
    J = ()

    def emit(lo, hi):
        """One dual certifies levels lo..hi.  It holds state.P and state.Q
        themselves: both states replace them on fold and permute, never writing in place."""
        a, b = alpha, beta
        if scale > 1:
            a = [Fraction(x, scale) for x in alpha]
            b = [Fraction(x, scale) for x in beta]
        sol = DualSolution(a, state.P, b, state.Q, state.mode, state.F)
        for l in range(lo, hi + 1):
            profile.values[l] = _bound(alpha, beta, l) // scale
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
            w = nested_witness(blowup_witness(At, rng))
        else:
            w, J = witness(At, rng, J)
        lbar = w.value()
        if lbar < ell:
            raise AlgorithmStall(f"leading rank dropped from {ell} to {lbar}")
        if lbar > ell:
            emit(ell + 1, lbar)
            ell = lbar
        if ell == n:
            break
        if _bound(alpha, beta, ell + 1) < (ell + 1) * cutoff:
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
    16 n^3 + 64 rounds; meta records whether the run kept within 4 ell n^2."""
    n = A.n_rows
    if n == 0:
        return DegreeProfile(0)
    profile = _hungarian(_FieldState(A, c), alpha, beta, min(c, default=0), 16 * n**3 + 64, symmetric, rng)
    profile.meta["iteration_bound_ok"] = profile.meta["iterations"] <= 4 * max(profile.meta["r_star"], 1) * n * n
    return profile


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


def _general_degree_data(B: RationalSymbolicMatrix):
    """(d, d0): the largest entry degree, and a floor with every nonzero
    ell-minor of degree at least ell*d0.  Over the common denominator D,
    the lcm of all denominators, an ell-minor is det(N')/D^ell with N'
    polynomial of order at least min mindeg + ord D, and a nonzero
    polynomial's degree is at least its order."""
    d, low, D = NEG_INF, POS_INF, Poly.one(B.F)
    for Bk in B.terms:
        for row in Bk.rows:
            for e in row:
                if not e.is_zero():
                    d = max(d, e.deg)
                    low = min(low, e.mindeg)
                    D = D * e.den.divmod(poly_gcd(D, e.den))[0]
    return d, low + D.ord - D.deg


def deg_subdet(B: RationalSymbolicMatrix, rng=None) -> DegreeProfile:
    """All Delta_ell of a square matrix over K(t), with certifying duals:
    the Hungarian loop on the rational state, from alpha = 0, beta = -d.

    -inf levels are detected either by an unbounded step or by the
    cutoff ell*d0 that every finite Delta_ell must respect (see
    _general_degree_data).  The run stops within n(d - d0) + 1 steps: a
    finite bound stays between ell*d0 and ell*d, and proving -inf takes
    one unit step more, to put the bound strictly below the cutoff.
    """
    n = B.n
    d, d0 = _general_degree_data(B)
    if d == NEG_INF:  # zero matrix, or n = 0
        profile = DegreeProfile(n)
        for l in range(1, n + 1):
            profile.values[l] = NEG_INF
        return profile
    return _hungarian(_RationalState(B), [0] * n, [-d] * n, d0, n * (d - d0) + 1, False, as_rng(rng))


def deg_det(B: RationalSymbolicMatrix, rng=None):
    """Degree of the Dieudonne determinant: the top profile entry."""
    return deg_subdet(B, rng).values[B.n]


# ---------------------------------------------------------------------------
# dual conversions and the Q_ell polytope


def dual_forms_convert(sol: DualSolution, ell):
    """Flag-form and arithmetic-form duals from a monomial one.

    Requires the top n - ell entries of alpha and of beta to share one
    value each; emits xi, eta >= 0, the scalar gamma, and the two flags:
    the canonical (RREF) bases of the spans of P's row prefixes and of
    Q's column prefixes.
    """
    if sol.mode != "monomial":
        raise NotComplementarySlack("flag conversion needs a monomial dual")
    n = sol.n
    if not 0 <= ell <= n:
        raise BadCardinality(f"ell={ell} outside [0, {n}]")
    head = n - ell
    if len(set(sol.alpha[:head])) > 1 or len(set(sol.beta[:head])) > 1:
        raise NotComplementarySlack(
            "alpha and beta must be constant on the leading n - ell entries"
        )
    g1 = sol.alpha[0] if n else 0
    g2 = sol.beta[0] if n else 0
    xi = [g1 - a for a in sol.alpha]
    eta = [g2 - b for b in sol.beta]
    gamma = -(g1 + g2)
    if min(xi + eta, default=0) < 0:
        raise NotSorted(f"alpha {sol.alpha} and beta {sol.beta} must be non-increasing")
    p = sol.F.p
    P = np.asarray(sol.P, dtype=np.int64)
    Q = np.asarray(sol.Q, dtype=np.int64)
    flags_U = [linalg.row_basis(P[:i], p) for i in range(1, n + 1)]
    flags_V = [linalg.row_basis(Q[:, :j].T, p) for j in range(1, n + 1)]
    return xi, eta, gamma, flags_U, flags_V


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


def random_feasible_dual(Ac: WeightedSymbolicMatrix, rng) -> DualSolution:
    """Random monomial-mode feasible dual with P = Q = I: sorted random
    alpha, beta with beta shifted until every support constraint clears."""
    rng = as_rng(rng)
    sq = Ac.pad_square()
    n = sq.base.n_rows
    alpha = sorted((rng.randint(-5, 5) for _ in range(n)), reverse=True)
    beta = sorted((rng.randint(-5, 5) for _ in range(n)), reverse=True)
    worst = None
    for k in range(sq.base.n_terms):
        M = sq.base.term(k)
        for i, j in zip(*np.nonzero(M)):
            v = alpha[i] + beta[j] + sq.c[k]
            worst = v if worst is None else max(worst, v)
    if worst is not None and worst > 0:
        beta = [b - worst for b in beta]
    return DualSolution(
        alpha, linalg.identity(n), beta, linalg.identity(n), "monomial", sq.base.F
    )
