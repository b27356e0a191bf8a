"""Prime fields with plain-int elements.

Field elements are ordinary Python ints in [0, p); all structure lives in
the GF context object.  Keeping elements unboxed matters: the numpy kernels
in linalg.py work on int arrays and only need p at the boundary.
"""

from random import Random

from .errors import ZeroInversion


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class GF:
    """Context for arithmetic in the prime field Z/pZ, for primes p < 2^16.

    The bound keeps the numpy kernels in linalg.py exact in int64 and
    their inverse tables small.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p >= 2**16:
            raise ValueError(f"modulus must be below 2^16, got {p}")
        if not _is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"

    def elem(self, a: int) -> int:
        return a % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        a = int(a) % self.p
        if a == 0:
            raise ZeroInversion(f"0 has no inverse mod {self.p}")
        # Fermat: a^(p-2) = a^(-1) for a != 0
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def random_elem(self, rng: Random) -> int:
        return rng.randrange(self.p)

    def random_nonzero(self, rng: Random) -> int:
        return rng.randrange(1, self.p)

