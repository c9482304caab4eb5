"""Primality, the space checks, index codecs, and character table."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffrestrict.field import (
    DEFAULT_POINT_CAP,
    VectorSpace,
    is_prime,
)

def _sieve(limit: int) -> set[int]:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for n in range(2, int(limit ** 0.5) + 1):
        if flags[n]:
            flags[n * n::n] = False
    return {int(n) for n in np.flatnonzero(flags)}


def test_is_prime_matches_sieve():
    primes = _sieve(2000)
    for n in range(2000):
        assert is_prime(n) == (n in primes), n


def test_is_prime_large_values():
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 31 - 2)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        VectorSpace(6, 1)
    with pytest.raises(ValueError):
        VectorSpace(1, 1)


@pytest.mark.parametrize("p, error, message", [
    (True, TypeError, "modulus must be an int, got bool"),
    (5.0, TypeError, "modulus must be an int, got float"),
    (2147483659, ValueError,
     "modulus 2147483659 exceeds the supported range p < 2^31"),
    (6, ValueError, "modulus 6 is not prime"),
    (1, ValueError, "modulus 1 is not prime"),
])
def test_space_rejects_bad_modulus_with_exact_message(p, error, message):
    with pytest.raises(error) as info:
        VectorSpace(p, 1)
    assert str(info.value) == message


def test_modulus_is_checked_before_dimension():
    with pytest.raises(ValueError, match="^modulus 9 is not prime$"):
        VectorSpace(9, 0)
    with pytest.raises(ValueError, match="^dimension must be >= 1, got 0$"):
        VectorSpace(5, 0)


def test_require_odd():
    VectorSpace(3, 1).require_odd("test")
    with pytest.raises(ValueError) as info:
        VectorSpace(2, 1).require_odd("test")
    assert str(info.value) == "test requires odd characteristic, got p = 2"


def test_encode_decode_bijection():
    for p, d in [(3, 4), (5, 3), (7, 2), (13, 1)]:
        space = VectorSpace(p, d)
        seen = set()
        for idx in range(space.size):
            coords = space.decode(idx)
            assert len(coords) == d
            assert all(0 <= c < p for c in coords)
            assert space.encode(coords) == idx
            seen.add(coords)
        assert len(seen) == space.size


def test_encode_is_little_endian():
    space = VectorSpace(5, 3)
    assert space.encode((1, 0, 0)) == 1
    assert space.encode((0, 1, 0)) == 5
    assert space.encode((0, 0, 1)) == 25
    assert space.encode((2, 3, 4)) == 2 + 3 * 5 + 4 * 25


def test_coordinate_matches_decode():
    space = VectorSpace(7, 3)
    idx = space.all_indices()
    for axis in range(3):
        col = space.coordinate(idx, axis)
        expect = np.array([space.decode(i)[axis] for i in idx])
        assert np.array_equal(col, expect)


def test_index_add_and_neg():
    space = VectorSpace(5, 2)
    a = space.all_indices()
    b = np.roll(a, 7)
    summed = space.index_add(a, b)
    for i, (ia, ib) in enumerate(zip(a, b)):
        ca, cb = space.decode(int(ia)), space.decode(int(ib))
        expect = tuple((x + y) % 5 for x, y in zip(ca, cb))
        assert space.decode(int(summed[i])) == expect
    negged = [space.encode(tuple(-c for c in space.decode(int(i))))
              for i in a]
    zero = space.index_add(a, negged)
    assert np.all(zero == 0)


def test_character_is_additive():
    for p in [3, 7, 11]:
        space = VectorSpace(p, 1)
        for a in range(p):
            for b in range(p):
                lhs = space.chi_table[a] * space.chi_table[b]
                rhs = space.chi_table[(a + b) % p]
                assert abs(lhs - rhs) < 1e-12


def test_character_orthogonality():
    # sum_t chi(x t) = p if x = 0 else 0
    for p in [3, 5, 13]:
        space = VectorSpace(p, 1)
        for x in range(p):
            total = sum(space.chi_table[x * t % p] for t in range(p))
            expect = p if x == 0 else 0
            assert abs(total - expect) < 1e-9


def test_chi_table_read_only():
    space = VectorSpace(5, 1)
    with pytest.raises(ValueError):
        space.chi_table[0] = 0


def test_point_cap_enforced():
    with pytest.raises(ValueError, match="max_points"):
        VectorSpace(5, 20)
    # explicit override admits the same space
    big = VectorSpace(5, 11, max_points=5 ** 11)
    assert big.size == 5 ** 11
    assert DEFAULT_POINT_CAP == 2 ** 24
    # a huge d is rejected without evaluating p^d
    with pytest.raises(ValueError, match="max_points"):
        VectorSpace(3, 10 ** 15)


def test_space_equality_and_hash():
    a = VectorSpace(7, 2)
    b = VectorSpace(7, 2)
    c = VectorSpace(7, 3)
    assert a == b and hash(a) == hash(b)
    assert a != c


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([(3, 3), (5, 2), (11, 2), (13, 1)]),
       st.integers(0, 10 ** 6))
def test_decode_encode_roundtrip_property(shape, raw):
    p, d = shape
    space = VectorSpace(p, d)
    idx = raw % space.size
    assert space.encode(space.decode(idx)) == idx
