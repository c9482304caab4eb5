"""Prime fields F_p, the vector spaces F_p^d, and the additive character.

Residues are plain Python ints in [0, p).  Points of F_p^d are tuples of
residues; bulk work uses flat indices under the little-endian mixed-radix
bijection index = sum(coords[i] * p**i).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Default cap on p**d; transforms store dense length-p^d arrays.
DEFAULT_POINT_CAP = 2 ** 24

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def over_point_cap(p: int, d: int, cap: int) -> bool:
    """True when p^d exceeds cap.  p^d >= 2^d, so a d past the cap's bit
    length fails without taking the power."""
    return d > int(cap).bit_length() or p ** d > cap


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the supported p < 2^31."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == q:
            return True
        if n % q == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field F_p of integers mod a prime p < 2^31."""

    modulus: int

    def __post_init__(self) -> None:
        p = self.modulus
        if not isinstance(p, int) or isinstance(p, bool):
            raise TypeError(f"modulus must be an int, got {type(p).__name__}")
        if p >= 2 ** 31:
            raise ValueError(f"modulus {p} exceeds the supported range p < 2^31")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")

    @property
    def p(self) -> int:
        return self.modulus

    def require_odd(self, context: str) -> None:
        # Spheres and parabolas need 2 to be invertible.
        if self.modulus == 2:
            raise ValueError(f"{context} requires odd characteristic, got p = 2")

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.modulus

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.modulus

    def neg(self, a: int) -> int:
        return (-a) % self.modulus

    def inv(self, a: int) -> int:
        if a % self.modulus == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return pow(a, self.modulus - 2, self.modulus)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(a), -e, self.modulus)
        return pow(a, e, self.modulus)


class VectorSpace:
    """F_p^d with the canonical index bijection and the character table.

    The additive character is fixed as chi(t) = exp(2*pi*i*t/p); values
    are precomputed in a table of length p.  Instances are immutable and
    safe to share across threads.
    """

    def __init__(self, fld: PrimeField, dimension: int,
                 max_points: int = DEFAULT_POINT_CAP) -> None:
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        if over_point_cap(fld.modulus, dimension, max_points):
            raise ValueError(
                f"p^d = {fld.modulus}^{dimension} exceeds the point cap "
                f"{max_points}; raise max_points explicitly if this size "
                "is intended")
        size = fld.modulus ** dimension
        self._field = fld
        self._dimension = dimension
        self._size = size
        table = np.exp(2j * np.pi * np.arange(fld.modulus) / fld.modulus)
        table.setflags(write=False)
        self._chi_table = table

    @property
    def field(self) -> PrimeField:
        return self._field

    @property
    def p(self) -> int:
        return self._field.modulus

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def size(self) -> int:
        return self._size

    @property
    def chi_table(self) -> np.ndarray:
        return self._chi_table

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, VectorSpace)
                and other.p == self.p
                and other.dimension == self.dimension)

    def __hash__(self) -> int:
        return hash((self.p, self._dimension))

    def __repr__(self) -> str:
        return f"VectorSpace(F_{self.p}^{self._dimension})"

    def encode(self, coords: Sequence[int]) -> int:
        if len(coords) != self._dimension:
            raise ValueError(
                f"expected {self._dimension} coordinates, got {len(coords)}")
        idx = 0
        for i, c in enumerate(coords):
            idx += (c % self.p) * self.p ** i
        return idx

    def decode(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self._size:
            raise ValueError(f"index {index} out of range [0, {self._size})")
        p = self.p
        return tuple((index // p ** i) % p for i in range(self._dimension))

    def coordinate(self, indices: np.ndarray, axis: int) -> np.ndarray:
        """Coordinates along axis; serves index_add, dft_reference, verify."""
        if not 0 <= axis < self._dimension:
            raise ValueError(f"axis {axis} out of range")
        return (indices // self.p ** axis) % self.p

    def all_indices(self) -> np.ndarray:
        """Every flat index; serves dft_reference and verify."""
        return np.arange(self._size, dtype=np.int64)

    def index_add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Flat index of the coordinate-wise sum, vectorized."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        for i in range(self._dimension):
            c = (self.coordinate(a, i) + self.coordinate(b, i)) % self.p
            out += c * self.p ** i
        return out


class SpaceArray:
    """A read-only dense array over the points of one VectorSpace.

    The ownership rule of the package's value types: the public
    constructor copies a caller's array, `_adopt` freezes an array the
    package has just made in place, and both check its shape and the
    subclass's `_check` first.  Subclasses set `_dtype` and `_noun`.
    """

    _dtype: type
    _noun: str

    def __init__(self, space: VectorSpace, array, *args, **kwargs) -> None:
        arr = np.asarray(array, dtype=self._dtype)
        if arr.base is not None or arr.flags.writeable:
            arr = arr.copy()
        self._own(space, arr, *args, **kwargs)

    @classmethod
    def _adopt(cls, space: VectorSpace, array, *args, **kwargs):
        """Wrap an array the package has just made: checked like the
        public constructor, then frozen in place instead of copied."""
        obj = cls.__new__(cls)
        obj._own(space, np.asarray(array, dtype=cls._dtype), *args, **kwargs)
        return obj

    def _own(self, space: VectorSpace, arr: np.ndarray) -> None:
        if arr.shape != (space.size,):
            raise ValueError(f"expected {space.size} {self._noun} for "
                             f"{space}, got shape {arr.shape}")
        self._check(arr)
        arr.setflags(write=False)
        self._space = space
        self._array = arr

    def _check(self, arr: np.ndarray) -> None:
        """The subclass's own checks on an array of the right shape."""

    @property
    def space(self) -> VectorSpace:
        return self._space
