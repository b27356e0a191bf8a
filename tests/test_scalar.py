import random

import pytest

from ncdeg.errors import ZeroInversion
from ncdeg.scalar import GF

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
    F = GF(p)
    rng = random.Random(12345 + p)
    for _ in range(2000):
        a = F.random_elem(rng)
        b = F.random_elem(rng)
        c = F.random_elem(rng)
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == 0
        assert F.sub(a, b) == F.add(a, F.neg(b))
        if a != 0:
            assert F.mul(a, F.inv(a)) == 1
            assert F.div(b, a) == F.mul(b, F.inv(a))


@pytest.mark.parametrize("p", PRIMES)
def test_inv_of_zero_raises(p):
    with pytest.raises(ZeroInversion):
        GF(p).inv(0)
    with pytest.raises(ZeroInversion):
        GF(p).inv(p)


def test_elem_reduces():
    F = GF(7)
    assert F.elem(-1) == 6
    assert F.elem(7) == 0
    assert F.elem(15) == 1


def test_random_elem_deterministic():
    F = GF(65521)
    a = [F.random_elem(random.Random(99)) for _ in range(10)]
    b = [F.random_elem(random.Random(99)) for _ in range(10)]
    assert a == b
    rng = random.Random(7)
    assert all(F.random_nonzero(rng) != 0 for _ in range(1000))


def test_context_equality():
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert len({GF(5), GF(5), GF(7)}) == 2
