"""Degree-of-determinant algorithms.

Three engines compute the maximum degrees Delta_ell of ell x ell
subdeterminants (Dieudonne sense) of a linear symbolic matrix over
K(t):

* deg_subdet / deg_det: general engine over rational-function state,
  maintaining biproper P, Q and a sorted exponent pair (alpha, beta) so
  that every (t^alpha) P B_k Q (t^beta) stays proper.  Witnesses for
  the leading coefficient matrix drive dual updates; renormalization
  restores sortedness and biproperness after each long step.
* hungarian_deg_det: monomial engine for weighted matrices A[c].  P, Q
  stay over the base field, alpha and beta move by the longest feasible
  integral step (kappa1) and are re-sorted by permutations; a witness
  of unit vectors folds as the identity, so on bipartite input P and Q
  stay permutations and the loop is Kuhn's Hungarian method.
* symmetric_hungarian: one-sided half-integral variant for
  skew-symmetric inputs; alpha is scaled by two internally so the
  integer machinery applies unchanged.

The two monomial engines run one Hungarian loop and differ only in the
weight scale, the witness route and the step direction.  The symmetric
engine always takes the nested blow-up witness (U's basis led by V's);
every other leading matrix gets its witness from mvsp.witness, the
cheapest route its factors allow.  All three engines fold a witness,
the vanishing pair (U, V) in pivot form, alike: triangular(U) goes into
P and triangular(V)^t into Q, the step raises alpha on U's pivots and
beta on V's, and a stable sort restores the order.

All three emit a DegreeProfile carrying exact values, certifying dual
solutions, and run metadata.  Dual solutions verify independently:
feasibility plus objective equality is strong duality, and any
feasible dual upper-bounds every Delta_ell (weak duality).
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
from .ratfunc import NEG_INF, POS_INF, Poly, RationalMatrix, classify_biproper, leading_coeff_matrix, poly_gcd
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
        a, b = self.alpha, self.beta
        return all(a[i] >= a[i + 1] for i in range(len(a) - 1)) and all(
            b[j] >= b[j + 1] for j in range(len(b) - 1)
        )

    def feasible(self, target) -> bool:
        if not self.is_sorted():
            return False
        if self.mode == "monomial":
            Ac = target.pad_square()
            p = Ac.base.F.p
            if linalg.rank(linalg.matmul(self.P, self.Q, p), p) < self.n:
                return False  # the square P Q is invertible iff P and Q are
            support = Ac.base.sandwich(self.P, self.Q).support()
            # scaled by the lcm D of the denominators, half-integral duals
            # compare in int64 rather than as Fractions
            D = math.lcm(*(x.denominator for x in self.alpha + self.beta if isinstance(x, Fraction)))
            a, b = _scaled(self.alpha, D), _scaled(self.beta, D)
            return not (_slacks(support, a, b, [D * ck for ck in Ac.c]) > 0).any()
        try:
            if not all(classify_biproper(X).is_biproper for X in (self.P, self.Q)):
                return False
            for G in target.transform(self.P, self.Q).terms:
                leading_coeff_matrix(G, self.alpha, self.beta)
        except NcdegError:
            return False
        return True

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
# step sizes and renormalization


def _unit_rows(B) -> bool:
    """Whether B's rows, entries in [0, p), are distinct rows of the identity."""
    return bool((B.sum(axis=1) == 1).all() and (B.sum(axis=0) <= 1).all())


def _exact(values) -> np.ndarray:
    """values as an int64 array when any sum of three stays exact, else as
    an object array of the Python numbers themselves."""
    a = np.asarray(values)
    if a.dtype == np.int64 and (not a.size or -_EXACT < a.min() and a.max() < _EXACT):
        return a
    return np.array(values, dtype=object)


def _scaled(values, D):
    """D * values, with Fractions made Python ints (D clears their
    denominators) and any other entry multiplied as it is."""
    return [int(x * D) if isinstance(x, Fraction) else x * D for x in values]


def _slacks(support, alpha, beta, c):
    """alpha_i + beta_j + c_k over a support (k, i, j) of term entries."""
    k, i, j = support
    return _exact(alpha)[i] + _exact(beta)[j] + _exact(c)[k]


def _step_bound(support, alpha, beta, c, inc_a, inc_b):
    """kappa1, the largest kappa keeping every nonzero entry (k, i, j) of
    the stack P A_k Q feasible under alpha + kappa*inc_a and
    beta + kappa*inc_b; +inf when no entry's slack shrinks."""
    _, i, j = support
    inc = np.asarray(inc_a, dtype=np.int64)[i] + np.asarray(inc_b, dtype=np.int64)[j]
    up = inc > 0
    slack = _slacks([x[up] for x in support], alpha, beta, c)
    return int((-slack // inc[up]).min()) if up.any() else POS_INF


def _sorting_sigma(raw):
    """Order indices by value descending, stably."""
    return sorted(range(len(raw)), key=lambda i: (-raw[i], i))


def renormalize(kappa, indices, exponents, tri, mat):
    """Push a long step through the stored prefix:

        (t^{kappa 1_X}) L (t^alpha) P  ==  sigma (t^{alpha'}) P'

    with L = tri upper-triangular.  The conjugate (t^{-alpha}) L (t^alpha)
    is proper because alpha is sorted, so it folds into P, and a sorting
    permutation sigma restores alpha + kappa*1_X to non-increasing order.
    Columns fold as the rows of the transpose.

    Returns (exponents', mat').  Raises NotSorted for unsorted input.
    """
    exps = list(exponents)
    if any(exps[i] < exps[i + 1] for i in range(len(exps) - 1)):
        raise NotSorted(f"exponents must be non-increasing: {exps}")
    marked = set(indices)
    raised = [e + (kappa if i in marked else 0) for i, e in enumerate(exps)]
    conj = RationalMatrix.from_scalars(mat.F, tri).scale_rows([-e for e in exps]).scale_cols(exps)
    folded = conj.matmul(mat)
    sigma = _sorting_sigma(raised)
    return [raised[i] for i in sigma], RationalMatrix(mat.F, [folded.rows[i] for i in sigma])


# ---------------------------------------------------------------------------
# general engine (rational-function state)


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


def _bound(alpha, beta, ell):
    n = len(alpha)
    return -sum(alpha[n - ell:]) - sum(beta[n - ell:])


def deg_subdet(B: RationalSymbolicMatrix, rng=None) -> DegreeProfile:
    """All Delta_ell of a square matrix over K(t), with certifying duals.

    kappa is the largest feasibility-preserving step and a sorting
    renormalization absorbs any order violation.  -inf levels are
    detected either by an unbounded step or by the cutoff ell*d0 that
    every finite Delta_ell must respect (see _general_degree_data).  The
    run stops within n(d - d0) + 1 steps: a finite bound stays between
    ell*d0 and ell*d, and proving -inf takes one unit step more, to put
    the bound strictly below the cutoff.
    """
    rng = as_rng(rng)
    n = B.n
    profile = DegreeProfile(n)
    if n == 0:
        return profile
    F = B.F
    d, d0 = _general_degree_data(B)
    if d == NEG_INF:  # zero matrix
        for l in range(1, n + 1):
            profile.values[l] = NEG_INF
        return profile

    alpha = [0] * n
    beta = [-d] * n
    P = RationalMatrix.identity(F, n)
    Q = RationalMatrix.identity(F, n)
    ell = 0
    budget = n * (d - d0) + 1

    def emit(lo, hi):
        for l in range(lo, hi + 1):
            profile.values[l] = _bound(alpha, beta, l)
            profile.duals[l] = DualSolution(
                alpha, P.copy(), beta, Q.copy(), "general", F
            )

    def emit_neg(lo):
        for l in range(lo, n + 1):
            profile.values[l] = NEG_INF

    while True:
        G = B.transform(P, Q).terms
        At = SymbolicMatrix(F, [leading_coeff_matrix(Gk, alpha, beta) for Gk in G])
        w = witness(At, rng)[0]
        lbar = w.value()
        if lbar < ell:
            raise AlgorithmStall(f"leading rank dropped from {ell} to {lbar}")
        if lbar > ell:
            emit(ell + 1, lbar)
            ell = lbar
        if ell == n:
            break
        if _bound(alpha, beta, ell + 1) < (ell + 1) * d0:
            emit_neg(ell + 1)
            break

        # kappa1 bounds U G V^t, the block the pair certifies zero in the
        # leading matrix; G meets V^t first, as the dominant witness
        # maximizes dim U
        S_rat = RationalMatrix.from_scalars(F, w.U)
        T_rat = RationalMatrix.from_scalars(F, w.V.T)
        kappa1 = POS_INF
        for Gk in G:
            H = S_rat.matmul(Gk.scale_rows(alpha).scale_cols(beta).matmul(T_rat))
            for row in H.rows:
                for e in row:
                    if not e.is_zero():
                        kappa1 = min(kappa1, -e.deg)
        if kappa1 == POS_INF:
            emit_neg(ell + 1)
            break
        if kappa1 < 1:
            raise AlgorithmStall("witness zero block must clear the tight entries")

        # beta - kappa*1_{notY} is beta + kappa*1_Y shifted down by kappa
        alpha, P = renormalize(kappa1, _pivots(w.U).tolist(), alpha, triangular(w.U), P)
        beta, Qt = renormalize(kappa1, _pivots(w.V).tolist(), beta, triangular(w.V), Q.transpose())
        beta, Q = [b - kappa1 for b in beta], Qt.transpose()
        profile.meta["iterations"] += 1
        if profile.meta["iterations"] > budget:
            raise AlgorithmStall(
                f"{profile.meta['iterations']} iterations exceed the "
                f"n(d - d0) + 1 = {budget} guarantee"
            )
    profile.meta["r_star"] = ell
    return profile


def deg_det(B: RationalSymbolicMatrix, rng=None):
    """Degree of the Dieudonne determinant: the top profile entry."""
    return deg_subdet(B, rng).values[B.n]


# ---------------------------------------------------------------------------
# monomial engines (Hungarian)


def _hungarian(A, c, alpha, beta, symmetric, rng):
    """The Hungarian loop shared by both monomial engines.

    A is square and, for the symmetric engine, c, alpha, beta are already
    doubled, so every step is integral; values and duals shed the factor
    on the way out.  The loop holds B with terms P A_k Q, factored as
    (P C_k)(R_k Q), so a round costs O(n^2 r) per term.  B's tight entries
    give the leading matrix At, whose witness is a vanishing pair (U, V)
    in pivot form, with pivots X and Y.  L = triangular(U) and
    R = triangular(V)^t fold into P <- L P and Q <- Q R, and L B R bounds
    the step and is the next round's B (R = L^t on the symmetric engine,
    whose nested pair puts V's rows at V's pivots of L too, so Q = P^t).
    Distinct unit vectors, as every Koenig witness is, give L = R = I and
    fold as nothing, so on bipartite input the loop is Kuhn's method.

    Every row of U lies in the run of alpha that holds its pivot, and of
    V in its run of beta, so L B R stays feasible.  For lambda != 0 in an
    extension field, D = diag(lambda^alpha), E = diag(lambda^beta) give
    D At_k E = lambda^(-c_k) At_k, as At lives on alpha_i + beta_j = -c_k,
    so (U, V) -> (U D^-1, V E^-1) keeps vanishing pairs and dimensions and
    fixes the dominant optimum, which is unique (over the algebraic
    closure too, so Frobenius fixes that one: it is GF(p)'s).  For lambda
    of order above the spread of alpha, D's eigenspaces are alpha's runs,
    so U is the direct sum of its pieces in them, and each row of its
    canonical basis, the union of theirs, lies in one run; so for V.
    Every route returns rows of such bases (Koenig's unit vectors are).

    The step bound re-checks the pair.  With rows inside runs, each
    product in (L B_k R)[x, y] = u_x B_k v_y^t has the one slack
    alpha_x + beta_y + c_k, so a tight entry of L B R in X x Y is a
    nonzero entry of U At V^t; the step direction is at least +1 there
    (on the symmetric engine Y lies in X, +1 on Y, 0 on X minus Y), so
    kappa1 = 0 and the loop stalls, as it does on an infeasible L B R.

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
    Hungarian method; sorting permutations then reorder alpha with the rows
    of P and P C_k, and beta with the columns of Q and R_k Q (alpha = beta
    on the symmetric engine, so one serves both sides and Q = P^t holds).
    Feasibility, alpha_i + beta_j + c_k <= 0 on the support of P A_k Q,
    survives any simultaneous permutation.  The zero block's rows need
    not lead their runs: after the step the stable sort orders each run's
    rows by their new values, in index order among equals, wherever they
    stood.  The leading rank cannot drop: the leading part of L B R is
    zero on X x Y, X x notY and notX x Y carry nc-rank (n-s) + (n-r) =
    ell, and the step keeps alpha_i + beta_j on both, in any order.
    """
    n = A.n_rows
    profile = DegreeProfile(n)
    if n == 0:
        return profile
    F = A.F
    p = F.p
    scale = 2 if symmetric else 1
    P = Q = linalg.identity(n)
    B = SymbolicMatrix(F, factors=A.factors)
    support = B.support()
    cmin = min(c, default=0)
    ell = 0
    J = ()
    hard_cap = 16 * n * n * n + 64

    def emit(lo, hi):
        a, b = alpha, beta
        if scale > 1:
            a = [Fraction(x, scale) for x in alpha]
            b = [Fraction(x, scale) for x in beta]
        for l in range(lo, hi + 1):
            profile.values[l] = _bound(alpha, beta, l) // scale
            profile.duals[l] = DualSolution(a, P.copy(), b, Q.copy(), "monomial", F)

    def emit_neg(lo):
        for l in range(lo, n + 1):
            profile.values[l] = NEG_INF

    while True:
        slack = _slacks(support, alpha, beta, c)
        if (slack > 0).any():
            k, i, j = (int(x[np.argmax(slack > 0)]) for x in support)
            raise AlgorithmStall(f"dual infeasible at entry ({i},{j}) of term {k}")
        tight = slack == 0
        k, i, j = (x[tight] for x in support)
        PC, RQ = B.factors
        if PC.shape[2] == 1:
            rows = np.zeros(PC.shape, dtype=bool)
            cols = np.zeros(RQ.shape, dtype=bool)
            rows[k, i, 0] = cols[k, 0, j] = True
            At = SymbolicMatrix(F, factors=(PC * rows, RQ * cols))
        else:
            mask = np.zeros(B.terms.shape, dtype=bool)
            mask[k, i, j] = True
            At = SymbolicMatrix(F, B.terms * mask)
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
        if _bound(alpha, beta, ell + 1) < (ell + 1) * cmin:
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
            R = (L if symmetric else triangular(w.V)).T
            P, Q = linalg.matmul(L, P, p), linalg.matmul(Q, R, p)
            B = B.sandwich(L, R)
            support = B.support()
        kappa = _step_bound(support, alpha, beta, c, inc_a, inc_b)
        if kappa == POS_INF:
            emit_neg(ell + 1)
            break
        if kappa < 1:
            raise AlgorithmStall(f"step collapsed to {kappa}: a tight entry sits in the witness's zero block")
        alpha = [a + kappa * d for a, d in zip(alpha, inc_a.tolist())]
        beta = [b + kappa * d for b, d in zip(beta, inc_b.tolist())]
        sa, sb = _sorting_sigma(alpha), _sorting_sigma(beta)
        alpha, beta = [alpha[i] for i in sa], [beta[j] for j in sb]
        P, Q, B = P[sa], Q[:, sb], B.submatrix(sa, sb)
        support = support[0], np.argsort(sa)[support[1]], np.argsort(sb)[support[2]]
        profile.meta["iterations"] += 1
        if profile.meta["iterations"] > hard_cap:
            raise AlgorithmStall(f"no convergence within {hard_cap} iterations")
    profile.meta["r_star"] = ell
    profile.meta["iteration_bound_ok"] = (
        profile.meta["iterations"] <= 4 * max(ell, 1) * n * n
    )
    return profile


def hungarian_deg_det(Ac: WeightedSymbolicMatrix, rng=None) -> DegreeProfile:
    """All Delta_ell of A[c] with field-valued P, Q.

    The dual never leaves the monomial world: alpha and beta move by
    integer steps kappa1, the longest that keeps every entry feasible,
    and are re-sorted after each (see _hungarian).
    """
    sq = Ac.pad_square()
    n = sq.base.n_rows
    return _hungarian(sq.base, sq.c, [0] * n, [-max(sq.c, default=0)] * n, False, as_rng(rng))


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
    return _hungarian(A, c2, a2, a2, True, as_rng(rng))


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
    """Integral maximizer of c'u over the ell-th subdeterminant
    polytope, read off one run at a lexicographically perturbed weight.

    With N = n + 1 and 0 <= u_k <= n, w_k = c_k N^m + N^(m-1-k) scores u
    as c'u N^m plus u in base N, so divmod decodes every coordinate; a
    digit above n would carry and break the digit sum.  A run at c finds
    -inf levels and checks c'u.
    """
    rng = as_rng(rng)
    m = Ac.base.n_terms
    n = max(Ac.base.n_rows, Ac.base.n_cols)
    if not 0 <= ell <= n:
        raise BadCardinality(f"ell={ell} outside [0, {n}]")
    if ell == 0:
        return [0] * m
    best = hungarian_deg_det(Ac, rng).values[ell]
    if best == NEG_INF:
        raise LPInfeasible(f"level {ell} has value -inf")
    N = n + 1
    w = [ck * N**m + N ** (m - 1 - k) for k, ck in enumerate(Ac.c)]
    top = hungarian_deg_det(WeightedSymbolicMatrix(Ac.base, w), rng).values[ell]
    cu, tail = divmod(top, N**m)
    u = [tail // N ** (m - 1 - k) % N for k in range(m)]
    if sum(u) != ell or cu != best:
        raise AlgorithmStall(f"decoded c'u = {cu}, sum(u) = {sum(u)}; expected {best}, {ell}")
    return u


# ---------------------------------------------------------------------------
# verification helpers


def verify_dual(sol: DualSolution, target, ell, expected) -> bool:
    """Strong duality check: feasibility plus objective equality."""
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
