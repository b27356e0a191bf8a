"""Polynomials and rational functions in t over a prime field, plus exact
matrices of rational functions.

Degrees use float("-inf") for the zero polynomial so that max/min/+ behave.
Rational functions normalize eagerly: gcd cancelled, denominator monic and
nonzero.  Equality is therefore structural.
"""

from typing import NamedTuple

from .errors import (
    DimensionMismatch,
    NotBiproper,
    NotSquare,
    ZeroInversion,
)
from .scalar import GF

NEG_INF = float("-inf")
POS_INF = float("inf")


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
        s = self.F.inv(self.c[-1])
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
        ilc = F.inv(d[-1])
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

    def __repr__(self):
        if not self.c:
            return "0"
        parts = []
        for i, a in enumerate(self.c):
            if not a:
                continue
            if i == 0:
                parts.append(str(a))
            elif i == 1:
                parts.append(f"{a}*t" if a != 1 else "t")
            else:
                parts.append(f"{a}*t^{i}" if a != 1 else f"t^{i}")
        return " + ".join(parts)


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
            s = F.inv(den.lc())
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
        return self.F.div(self.num.lc(), self.den.lc())

    def eval(self, a: int) -> int:
        db = self.den.eval(a)
        if db == 0:
            raise ZeroInversion(f"pole at t={a}")
        return self.F.div(self.num.eval(a), db)

    def __repr__(self):
        if self.den == Poly.one(self.F):
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


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

    def copy(self):
        return RationalMatrix(self.F, [list(r) for r in self.rows])

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
        import numpy as np

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
    from . import linalg

    m, n = M.shape
    if m != n:
        raise NotSquare(f"shape {M.shape}")
    if M.max_deg() > 0:
        return BiproperFlag(False, False)
    L = M.leading_matrix()
    return BiproperFlag(True, linalg.rank(L, M.F.p) == n)

