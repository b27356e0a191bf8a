"""Reference implementations the tests check the package against.  No
command reaches them.

* The rational deg-Det engine.  It runs the Hungarian loop of
  ncdeg.degdet, unchanged, on matrices B = sum_k B_k x_k with B_k over
  K(t), the general engine of Hirai (2018) and Hirai and Ikeda (2022):
  biproper P, Q over K(t), each entry of P B_k Q at its own degree.
  Every weighted matrix A[c] lifts to one
  (RationalSymbolicMatrix.from_weighted), and the tests compare the two
  engines' profiles and check this engine's duals with the general
  feasibility check below.  Polynomials and rational functions in t
  normalize eagerly: gcd cancelled, denominator monic and nonzero, so
  equality is structural.
* The exhaustive vanishing-subspace solvers, over every subspace U.
* The fractional matroid matching LP by literal vertex enumeration,
  with per-subspace intersection dimensions, FractionalMatching and the
  Tutte builder.
* Random feasible duals, the flag and arithmetic forms of a dual, blow-ups
  as symbolic matrices, the Monte-Carlo delta_l oracle (the compressed
  blow-up at order 1), and the concavity of a profile.
"""

import itertools
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from ncdeg import linalg
from ncdeg.apps import BipartiteInstance, LineCollection, _fmp_constraints, _skew_terms
from ncdeg.degdet import DegreeProfile, DualSolution, _exact, _hungarian, _slacks
from ncdeg.errors import (
    AlgorithmStall,
    BadCardinality,
    DimensionMismatch,
    EnumerationCapExceeded,
    MissingSymbol,
    NcdegError,
    NotSquare,
    SizeBudgetExceeded,
)
from ncdeg.mvsp import FRWitness, _check_skew, _max_vanishing_V, enumerate_subspaces, nested_witness
from ncdeg.ratfunc import NEG_INF, POS_INF
from ncdeg.scalar import GF
from ncdeg.symbolic import (
    MAX_STACK,
    SymbolicMatrix,
    WeightedSymbolicMatrix,
    _compressed_blowup_oracle,
    as_rng,
    check_budget,
)

LP_BASIS_CAP = 500_000


class NotBiproper(NcdegError, ValueError):
    """A biproper matrix was required (degree <= 0, invertible leading term)."""


class ZeroInversion(NcdegError, ZeroDivisionError):
    """Inverse of the zero field element was requested."""


class NotSorted(NcdegError, ValueError):
    """A vector was required to be sorted (non-increasing)."""


class NotComplementarySlack(NcdegError, ValueError):
    """Primal/dual pair fails a complementary slackness condition."""


def inv(F: GF, a: int) -> int:
    """a^-1 in F, by Fermat: a^(p-2) = a^-1 for a != 0."""
    a = int(a) % F.p
    if a == 0:
        raise ZeroInversion(f"0 has no inverse mod {F.p}")
    return pow(a, F.p - 2, F.p)


class Poly:
    """Dense polynomial over GF(p); coeffs[i] is the coefficient of t^i."""

    __slots__ = ("F", "c")

    def __init__(self, F: GF, coeffs):
        c = [int(x) % F.p for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.F = F
        self.c = tuple(c)

    @classmethod
    def zero(cls, F):
        return cls(F, ())

    @classmethod
    def one(cls, F):
        return cls(F, (1,))

    @classmethod
    def const(cls, F, a):
        return cls(F, (a,))

    @classmethod
    def t_power(cls, F, k):
        if k < 0:
            raise ValueError("negative power of t is not a polynomial")
        return cls(F, (0,) * k + (1,))

    def is_zero(self):
        return not self.c

    @property
    def deg(self):
        return len(self.c) - 1 if self.c else NEG_INF

    @property
    def ord(self):
        """Index of the lowest nonzero coefficient (+inf for 0)."""
        for i, a in enumerate(self.c):
            if a:
                return i
        return POS_INF

    def lc(self):
        if not self.c:
            raise ZeroInversion("leading coefficient of the zero polynomial")
        return self.c[-1]

    def monic(self):
        if not self.c:
            return self
        s = inv(self.F, self.c[-1])
        return Poly(self.F, [a * s for a in self.c])

    def __eq__(self, other):
        return (
            isinstance(other, Poly) and other.F == self.F and other.c == self.c
        )

    def __hash__(self):
        return hash((self.F, self.c))

    def __add__(self, other):
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return Poly(self.F, out)

    def __neg__(self):
        return Poly(self.F, [-a for a in self.c])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly(self.F, [a * other for a in self.c])
        a, b = self.c, other.c
        if not a or not b:
            return Poly.zero(self.F)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Poly(self.F, out)

    __rmul__ = __mul__

    def shift(self, k: int):
        """Multiply by t^k, k >= 0."""
        if self.is_zero():
            return self
        return Poly(self.F, (0,) * k + self.c)

    def divmod(self, other):
        if other.is_zero():
            raise ZeroInversion("polynomial division by zero")
        F = self.F
        r = list(self.c)
        d = other.c
        dd = len(d) - 1
        ilc = inv(F, d[-1])
        q = [0] * max(0, len(r) - dd)
        for i in range(len(r) - 1, dd - 1, -1):
            if r[i] % F.p == 0:
                continue
            f = (r[i] * ilc) % F.p
            q[i - dd] = f
            for j in range(dd + 1):
                r[i - dd + j] -= f * d[j]
        return Poly(F, q), Poly(F, r[:dd])

    def __mod__(self, other):
        return self.divmod(other)[1]

    def eval(self, a: int) -> int:
        acc = 0
        for x in reversed(self.c):
            acc = (acc * a + x) % self.F.p
        return acc


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


class RatFn:
    """Quotient of two polynomials, kept reduced with monic denominator."""

    __slots__ = ("F", "num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroInversion("rational function with zero denominator")
        F = num.F
        if num.is_zero():
            num, den = Poly.zero(F), Poly.one(F)
        else:
            g = poly_gcd(num, den)
            if g.deg > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            s = inv(F, den.lc())
            num = num * s
            den = den * s
        self.F = F
        self.num = num
        self.den = den

    @classmethod
    def zero(cls, F):
        return cls(Poly.zero(F), Poly.one(F))

    @classmethod
    def one(cls, F):
        return cls(Poly.one(F), Poly.one(F))

    @classmethod
    def const(cls, F, a):
        return cls(Poly.const(F, a), Poly.one(F))

    @classmethod
    def from_poly(cls, num: Poly):
        return cls(num, Poly.one(num.F))

    @classmethod
    def monomial(cls, F, a, k: int):
        """a * t^k with k allowed negative (Laurent monomial)."""
        if k >= 0:
            return cls(Poly.const(F, a).shift(k), Poly.one(F))
        return cls(Poly.const(F, a), Poly.t_power(F, -k))

    def is_zero(self):
        return self.num.is_zero()

    @property
    def deg(self):
        if self.num.is_zero():
            return NEG_INF
        return self.num.deg - self.den.deg

    @property
    def mindeg(self):
        """Order at t = 0 (+inf for the zero function)."""
        if self.num.is_zero():
            return POS_INF
        return self.num.ord - self.den.ord

    def __eq__(self, other):
        return (
            isinstance(other, RatFn)
            and other.F == self.F
            and other.num == self.num
            and other.den == self.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        return RatFn(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self):
        return RatFn(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RatFn(self.num * other.num, self.den * other.den)

    def inv(self):
        if self.is_zero():
            raise ZeroInversion("inverse of the zero rational function")
        return RatFn(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inv()

    def shift(self, k: int):
        """Multiply by t^k for any integer k."""
        if self.is_zero() or k == 0:
            return self
        if k > 0:
            return RatFn(self.num.shift(k), self.den)
        return RatFn(self.num, self.den.shift(-k))

    def at_infinity(self) -> int:
        """Limit at t -> inf; requires deg <= 0."""
        d = self.deg
        if d is NEG_INF or d < 0:
            return 0
        if d > 0:
            raise NotBiproper(f"degree {d} entry has no limit at infinity")
        return self.num.lc() * inv(self.F, self.den.lc()) % self.F.p

    def eval(self, a: int) -> int:
        db = self.den.eval(a)
        if db == 0:
            raise ZeroInversion(f"pole at t={a}")
        return self.num.eval(a) * inv(self.F, db) % self.F.p


class RationalMatrix:
    """Dense matrix of RatFn entries, exact arithmetic throughout."""

    __slots__ = ("F", "rows")

    def __init__(self, F: GF, rows):
        self.F = F
        self.rows = [list(r) for r in rows]
        w = {len(r) for r in self.rows}
        if len(w) > 1:
            raise DimensionMismatch("ragged rows")

    @property
    def shape(self):
        m = len(self.rows)
        return (m, len(self.rows[0]) if m else 0)

    @classmethod
    def from_scalars(cls, F, M):
        return cls(F, [[RatFn.const(F, int(a)) for a in row] for row in M])

    @classmethod
    def identity(cls, F, n):
        one, zero = RatFn.one(F), RatFn.zero(F)
        return cls(F, [[one if i == j else zero for j in range(n)] for i in range(n)])

    def matmul(self, other: "RationalMatrix"):
        m, k = self.shape
        k2, n = other.shape
        if k != k2:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        z = RatFn.zero(self.F)
        out = []
        for i in range(m):
            row = []
            for j in range(n):
                acc = z
                for l in range(k):
                    a = self.rows[i][l]
                    b = other.rows[l][j]
                    if not (a.is_zero() or b.is_zero()):
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return RationalMatrix(self.F, out)

    def scale_rows(self, shifts):
        """Left-multiply by diag(t^shifts)."""
        m, _ = self.shape
        if len(shifts) != m:
            raise DimensionMismatch("one shift per row required")
        return RationalMatrix(
            self.F,
            [[e.shift(s) for e in row] for row, s in zip(self.rows, shifts)],
        )

    def scale_cols(self, shifts):
        """Right-multiply by diag(t^shifts)."""
        _, n = self.shape
        if len(shifts) != n:
            raise DimensionMismatch("one shift per column required")
        return RationalMatrix(
            self.F,
            [[e.shift(shifts[j]) for j, e in enumerate(row)] for row in self.rows],
        )

    def max_deg(self):
        m, n = self.shape
        if m == 0 or n == 0:
            return NEG_INF
        return max(e.deg for row in self.rows for e in row)

    def leading_matrix(self):
        """Coefficient matrix at t -> inf; requires every entry proper."""
        return np.array(
            [[e.at_infinity() for e in row] for row in self.rows], dtype="int64"
        ).reshape(self.shape)

    def _eliminate(self):
        """Gaussian elimination; returns (rank, det RatFn)."""
        m, n = self.shape
        F = self.F
        A = [list(r) for r in self.rows]
        det = RatFn.one(F)
        r = 0
        for j in range(n):
            if r == m:
                break
            pi = next((i for i in range(r, m) if not A[i][j].is_zero()), None)
            if pi is None:
                det = RatFn.zero(F)
                continue
            if pi != r:
                A[r], A[pi] = A[pi], A[r]
                det = -det
            pv = A[r][j]
            det = det * pv
            pvi = pv.inv()
            A[r] = [e * pvi for e in A[r]]
            for i in range(m):
                if i != r and not A[i][j].is_zero():
                    f = A[i][j]
                    A[i] = [a - f * b for a, b in zip(A[i], A[r])]
            r += 1
        return r, det

    def rank(self) -> int:
        return self._eliminate()[0]

    def determinant(self) -> RatFn:
        m, n = self.shape
        if m != n:
            raise NotSquare(f"shape {self.shape}")
        if m == 0:
            return RatFn.one(self.F)
        r, det = self._eliminate()
        return det if r == m else RatFn.zero(self.F)

    def degdet(self):
        """deg det, exactly; -inf when singular."""
        return self.determinant().deg


class BiproperFlag(NamedTuple):
    is_proper: bool
    leading_invertible: bool

    @property
    def is_biproper(self) -> bool:
        return self.is_proper and self.leading_invertible


def classify_biproper(M: RationalMatrix) -> BiproperFlag:
    m, n = M.shape
    if m != n:
        raise NotSquare(f"shape {M.shape}")
    if M.max_deg() > 0:
        return BiproperFlag(False, False)
    L = M.leading_matrix()
    return BiproperFlag(True, linalg.rank(L, M.F.p) == n)


class RationalSymbolicMatrix:
    """B = sum_k B_k x_k with the B_k n x n matrices over K(t); n is read
    off the first term unless given, which it must be for no terms."""

    __slots__ = ("F", "terms", "n")

    def __init__(self, F: GF, terms, n=None):
        terms = list(terms)
        if n is None:
            if not terms:
                raise DimensionMismatch("a matrix without terms needs its size")
            n = terms[0].shape[0]
        for B in terms:
            if B.shape != (n, n):
                raise NotSquare(f"term shape {B.shape}, expected ({n}, {n})")
        self.F = F
        self.terms = terms
        self.n = n

    @property
    def n_terms(self):
        return len(self.terms)

    @classmethod
    def from_weighted(cls, Ac: WeightedSymbolicMatrix):
        """The terms as RatFn matrices.  A RatFn entry takes some 220 bytes
        where check_budget charges 8, so m n^2 is held to MAX_STACK >> 5;
        t^{c_k} stores |c_k| + 1 dense coefficients per entry, so
        n^2 sum_k (|c_k| + 1) is held to MAX_STACK, as in coeff_array.
        Both are checked before the dense terms are read."""
        sq = Ac.pad_square()
        m, n = sq.n_terms, sq.n_rows
        if m * n * n > MAX_STACK >> 5:
            raise SizeBudgetExceeded(
                f"{m} terms of side {n} make {m * n * n} rational entries, beyond the budget {MAX_STACK >> 5}"
            )
        coeffs = n * n * sum(abs(ck) + 1 for ck in sq.c)
        if coeffs > MAX_STACK:
            raise SizeBudgetExceeded(
                f"weights {min(sq.c)}..{max(sq.c)} make {coeffs} dense coefficients, beyond the budget {MAX_STACK}"
            )
        mats = []
        for k in range(sq.n_terms):
            M = RationalMatrix.from_scalars(sq.F, sq.base.terms[k])
            mats.append(M.scale_rows([sq.c[k]] * sq.n_rows))
        return cls(sq.F, mats, sq.n_rows)

    def shrink(self, s) -> RationalMatrix:
        vals = list(s)
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
            self.F, [P.matmul(B).matmul(Q) for B in self.terms], self.n
        )


class RationalState:
    """The loop state of ncdeg.degdet._hungarian over K(t): biproper P, Q
    and the terms G_k = P B_k Q, each entry at its own degree.

    An entry e is tight when alpha_i + beta_j + deg e = 0, and then puts
    lc(num)/lc(den) into the leading matrix.  The tight entries of a term
    need not share alpha_i + beta_j, so the field state's argument that L
    and R commute with t^alpha and t^beta fails; the fold puts
    t^-alpha L t^alpha into P and t^beta R t^-beta into Q, biproper as L
    is upper and R lower triangular and alpha and beta are sorted.  On
    the field state these equal L and R."""

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


def general_degree_data(B: RationalSymbolicMatrix):
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
    general_degree_data).  The run stops within n(d - d0) + 1 steps: a
    finite bound stays between ell*d0 and ell*d, and proving -inf takes
    one unit step more, to put the bound strictly below the cutoff.
    """
    n = B.n
    d, d0 = general_degree_data(B)
    if d == NEG_INF:  # zero matrix, or n = 0
        profile = DegreeProfile(n)
        for l in range(1, n + 1):
            profile.values[l] = NEG_INF
        return profile
    return _hungarian(RationalState(B), [0] * n, [-d] * n, d0, n * (d - d0) + 1, False, as_rng(rng))


def deg_det(B: RationalSymbolicMatrix, rng=None):
    """Degree of the Dieudonne determinant: the top profile entry."""
    return deg_subdet(B, rng).values[B.n]


def feasible(sol, B: RationalSymbolicMatrix) -> bool:
    """A dual (alpha, P, beta, Q) of deg_subdet's is feasible for B:
    sorted, P and Q biproper, and every entry of
    (t^alpha) P B_k Q (t^beta) proper."""
    if not sol.is_sorted():
        return False
    try:
        if not all(classify_biproper(X).is_biproper for X in (sol.P, sol.Q)):
            return False
        state = RationalState(B.transform(sol.P, sol.Q))
    except NcdegError:
        return False
    return len(sol.beta) == sol.n == B.n and not (_slacks(state.support, sol.alpha, sol.beta, state.deg) > 0).any()


def verify_general_dual(sol, B: RationalSymbolicMatrix, ell, expected) -> bool:
    """degdet.verify_dual for deg_subdet's duals."""
    return feasible(sol, B) and sol.objective(ell) == expected


# ---------------------------------------------------------------------------
# exhaustive vanishing-subspace solvers


def mvsp_exhaustive(A: SymbolicMatrix) -> FRWitness:
    """Minimize n_rows + n_cols - dim U - dim V over vanishing pairs by
    enumerating every U in K^n_rows; the best V for a given U is unique
    and maximal.

    Returns the witness of the dominant optimum: the one with the largest
    U of all optima (their sum, since optimal pairs are closed under
    (U + U', V intersect V')).
    """
    best_val, best = None, []  # bases of all optimal U
    for Ub in enumerate_subspaces(A.F, A.n_rows):
        val = A.n_rows + A.n_cols - Ub.shape[0] - _max_vanishing_V(A, Ub).shape[0]
        if best_val is None or val < best_val:
            best_val, best = val, [Ub]
        elif val == best_val:
            best.append(Ub)
    U = linalg.row_basis(np.concatenate(best), A.F.p)
    w = FRWitness(A.F, U, _max_vanishing_V(A, U))
    if w.value() != best_val:
        raise AlgorithmStall("optimum not closed under joins")
    return w


def mvsp_symmetric_exhaustive(A: SymbolicMatrix) -> FRWitness:
    """Dominant witness for a zero-diagonal skew-symmetric matrix, nested
    (see nested_witness)."""
    _check_skew(A)
    return nested_witness(mvsp_exhaustive(A))


# ---------------------------------------------------------------------------
# fractional matroid matching LP by vertex enumeration, and the Tutte builder


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


def _dim_intersection(B1: np.ndarray, B2: np.ndarray, p: int) -> int:
    # dim(U ^ W) = dim U + dim W - dim(U + W)
    if B1.shape[0] == 0 or B2.shape[0] == 0:
        return 0
    return (
        B1.shape[0] + B2.shape[0] - linalg.rank(np.vstack([B1, B2]), p)
    )


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


# ---------------------------------------------------------------------------
# duals, blow-ups and profiles


def random_feasible_dual(Ac: WeightedSymbolicMatrix, rng) -> DualSolution:
    """Random feasible dual with P = Q = I: sorted random
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
    return DualSolution(alpha, linalg.identity(n), beta, linalg.identity(n), sq.base.F)


def dual_forms_convert(sol: DualSolution, ell):
    """Flag-form and arithmetic-form duals from a monomial one.

    Requires the top n - ell entries of alpha and of beta to share one
    value each; emits xi, eta >= 0, the scalar gamma, and the two flags:
    the canonical (RREF) bases of the spans of P's row prefixes and of
    Q's column prefixes.
    """
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


def blow_up(A: SymbolicMatrix, d: int) -> SymbolicMatrix:
    """Replace each symbol by a d x d grid of fresh symbols: sum A_k (x) X_k."""
    if d < 1:
        raise ValueError("blow-up order must be >= 1")
    m, nr, nc = A.terms.shape
    E = np.eye(d * d, dtype=np.int64).reshape(d * d, d, d)
    out = np.einsum("kab,ecd->keacbd", A.terms, E)  # symbol (k, i, j) at k d^2 + i d + j
    return SymbolicMatrix(A.F, out.reshape(m * d * d, nr * d, nc * d))


def blow_up_weighted(Ac: WeightedSymbolicMatrix, d: int) -> WeightedSymbolicMatrix:
    return WeightedSymbolicMatrix(blow_up(Ac.base, d), [w for w in Ac.c for _ in range(d * d)])


def delta_ell_oracle(Ac: WeightedSymbolicMatrix, ell: int, trials: int = None, rng=None):
    """Monte-Carlo delta_l, the largest deg det of an l x l submatrix
    over K(x): the compressed blow-up kernel at order d = 1.

    One-sided: result <= true delta_l, equality w.h.p.  l = 0 gives 0.
    """
    return _compressed_blowup_oracle(Ac, ell, 1, trials, rng)


def is_concave(prof: DegreeProfile) -> bool:
    """Finite levels form an initial segment and their values are
    discretely concave."""
    fin = [l for l in range(prof.n + 1) if prof.values[l] != NEG_INF]
    if fin != list(range(len(fin))):
        return False
    v = [prof.values[l] for l in fin]
    return all(v[i + 1] - v[i] <= v[i] - v[i - 1] for i in range(1, len(v) - 1))
