import random

import pytest

from ncdeg import linalg
from ncdeg.scalar import GF
from referee import ZeroInversion, inv

PRIMES = [2, 3, 5, 7, 65521]


def test_rejects_composite_modulus():
    for n in [0, 1, 4, 6, 9, 15, 91]:
        with pytest.raises(ValueError):
            GF(n)


def test_rejects_prime_at_or_above_two_to_sixteen():
    # the int64 kernels and inverse tables assume p < 2^16
    for p in [65537, 4294967311]:
        with pytest.raises(ValueError, match="2\\^16"):
            GF(p)


@pytest.mark.parametrize("p", PRIMES)
def test_field_axioms_randomized(p):
    # every nonzero element has an inverse: the referee's Fermat inverse
    # and the kernels' inverse table agree on it
    F = GF(p)
    rng = random.Random(12345 + p)
    tab = linalg.inv_table(p)
    for _ in range(2000):
        a = rng.randrange(1, p)
        assert a * inv(F, a) % p == 1
        assert tab[a] == inv(F, a)


@pytest.mark.parametrize("p", PRIMES)
def test_inv_of_zero_raises(p):
    with pytest.raises(ZeroInversion):
        inv(GF(p), 0)
    with pytest.raises(ZeroInversion):
        inv(GF(p), p)


def test_context_equality():
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert len({GF(5), GF(5), GF(7)}) == 2
