"""Prime fields with plain-int elements.

Field elements are ordinary ints in [0, p), held in numpy int64 arrays;
the GF object only checks and carries the modulus.  The arithmetic lives
in the kernels of linalg.py, which need p only at the boundary.
"""


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
    """The prime field Z/pZ, for primes p < 2^16.

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
