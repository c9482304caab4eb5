"""Explicit subsets of F_p^d: spheres, products, Hamming varieties,
Sidon sets, cutoff cylinders, and their surface measures."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .field import SpaceArray, VectorSpace
from .spectral import FFMeasure

# is_sidon enumerates all unordered pairs; O(|E|^2) sums.
SIDON_CHECK_CAP = 10 ** 4


@dataclass(frozen=True)
class SetDescriptor:
    """Family name plus parameters; identifies a set construction in
    reports and sweeps independently of the field size."""

    family: str
    params: tuple[tuple[str, int], ...]

    @classmethod
    def make(cls, family: str, **params: int) -> "SetDescriptor":
        return cls(family, tuple(sorted(params.items())))

    def params_dict(self) -> dict[str, int]:
        return dict(self.params)

    def params_json(self) -> str:
        return json.dumps(self.params_dict(), sort_keys=True,
                          separators=(",", ":"))


class PointSet(SpaceArray):
    """A subset E of F_p^d and its dense membership bitmap.

    A set built as a product E_1 x ... x E_k keeps its factors, E_1 on
    the low-weight coordinates, so that its spectrum can be read from
    theirs; any other set is its own single factor.  A product is made
    only by `_product`: it takes its cardinality from its factors and
    makes its bitmap from them on first use, then freezes and keeps it.
    """

    _dtype = bool
    _noun = "membership flags"

    def _own(self, space: VectorSpace, memb: np.ndarray,
             descriptor: SetDescriptor | None = None) -> None:
        super()._own(space, memb)
        self._cardinality = int(memb.sum())
        self.descriptor = descriptor
        self._factors = ()

    @classmethod
    def _product(cls, space: VectorSpace, factors: tuple["PointSet", ...],
                 descriptor: SetDescriptor) -> "PointSet":
        """The product of factors on space, with no bitmap until
        `membership` is read."""
        if (any(f.space.p != space.p for f in factors)
                or sum(f.space.dimension for f in factors)
                != space.dimension):
            raise ValueError(f"factors do not tile {space}")
        obj = cls.__new__(cls)
        obj._space = space
        obj._array = None
        obj._cardinality = _product_cardinality(factors)
        obj.descriptor = descriptor
        obj._factors = factors
        return obj

    @property
    def membership(self) -> np.ndarray:
        if self._array is None:
            memb = _product_membership(self._factors)
            memb.setflags(write=False)
            self._array = memb
        return self._array

    def support_indices(self) -> np.ndarray:
        return np.flatnonzero(self.membership)

    @property
    def cardinality(self) -> int:
        return self._cardinality

    def alpha(self) -> float:
        """Regularity exponent of the surface measure: log|E| / log p."""
        return float(np.log(self._cardinality) / np.log(self._space.p))

    @property
    def factors(self) -> tuple["PointSet", ...]:
        """The sets whose product this is, low-weight coordinates first;
        (self,) for a set with no product structure."""
        return self._factors or (self,)


def _product_membership(factors: tuple[PointSet, ...]) -> np.ndarray:
    """The membership bitmap of the product of factors, the first on the
    low-weight coordinates: flat index in a x b is ia + p^da * ib."""
    memb = factors[0].membership
    for f in factors[1:]:
        memb = np.outer(f.membership, memb).reshape(-1)
    return memb


def full_space(space: VectorSpace) -> PointSet:
    return PointSet._adopt(space, np.ones(space.size, dtype=bool),
                           SetDescriptor.make("full-space", d=space.dimension))


# sphere, hamming_variety and sidon_parabola broadcast length-p residue
# tables over the C-order (p,)*d cube, whose flat order is that of
# VectorSpace.encode: the last axis is coordinate 0.  Each reduces the
# other coordinates into a (p,)*(d-1) table and compares it with the
# length-p table of values that coordinate 0 completes to a member, so
# no p^d integer array is made.


def sphere(space: VectorSpace, r: int) -> PointSet:
    """S_r^{k-1} = {x in F_p^k : x.x = r}, k >= 2, p odd."""
    space.require_odd("sphere")
    if space.dimension < 2:
        raise ValueError("sphere requires dimension >= 2")
    p = space.p
    r = r % p
    squares = np.arange(p, dtype=np.int64) ** 2 % p
    total = np.zeros((), dtype=np.int64)
    for _ in range(space.dimension - 1):
        total = (total[..., None] + squares) % p
    memb = total[..., None] == (r - squares) % p
    return PointSet._adopt(space, memb.reshape(-1),
                           SetDescriptor.make("sphere", k=space.dimension, r=r))


def _product_cardinality(factors: tuple[PointSet, ...]) -> int:
    """|E_1 x ... x E_k| = |E_1| ... |E_k|, exactly."""
    return math.prod(f.cardinality for f in factors)


def _product_on(space: VectorSpace, parts: tuple[PointSet, ...],
                descriptor: SetDescriptor) -> PointSet:
    """parts[0] x parts[1] x ... on space, parts[0] on the low-weight
    coordinates; the result keeps the parts' own factors."""
    return PointSet._product(
        space, tuple(f for part in parts for f in part.factors), descriptor)


def product(a: PointSet, b: PointSet) -> PointSet:
    """A x B in F_p^{da+db}; A occupies the low-weight coordinates."""
    if a.space.p != b.space.p:
        raise ValueError("product requires a common base field")
    target = VectorSpace(a.space.p, a.space.dimension + b.space.dimension)
    return _product_on(target, (a, b), SetDescriptor.make(
        "product", da=a.space.dimension, db=b.space.dimension))


def sphere_product(space: VectorSpace, k: int, m: int, r: int = 1) -> PointSet:
    """The m-fold product of spheres S_r^{k-1}, inside F_p^{km}."""
    if space.dimension != k * m:
        raise ValueError(f"space dimension must be k*m = {k * m}")
    factor = sphere(VectorSpace(space.p, k), r)
    return _product_on(space, (factor,) * m, SetDescriptor.make(
        "sphere-product", k=k, m=m, r=r % space.p))


def hamming_variety(space: VectorSpace, j: int) -> PointSet:
    """H_j = {x : prod_k x_k = j}, j != 0; |H_j| = (p-1)^{d-1}."""
    p = space.p
    j = j % p
    if j == 0:
        raise ValueError("hamming variety requires j != 0")
    if space.dimension < 2:
        raise ValueError("hamming variety requires dimension >= 2")
    residues = np.arange(p, dtype=np.int64)
    prod = np.ones((), dtype=np.int64)
    for _ in range(space.dimension - 1):
        prod = prod[..., None] * residues % p
    # x_0 completes the product to j iff x_0 != 0 and prod = j / x_0;
    # -1 matches no residue, so x_0 = 0 never does
    quotient = np.full(p, -1, dtype=np.int64)
    quotient[1:] = [j * pow(c, p - 2, p) % p for c in range(1, p)]
    memb = prod[..., None] == quotient
    return PointSet._adopt(space, memb.reshape(-1),
                           SetDescriptor.make("hamming", d=space.dimension, j=j))


def sidon_parabola(space: VectorSpace) -> PointSet:
    """{(t, t^2) : t in F_p} in F_p^2; a Sidon set of size p, p odd."""
    space.require_odd("sidon parabola")
    if space.dimension != 2:
        raise ValueError("sidon parabola lives in dimension 2")
    p = space.p
    t = np.arange(p, dtype=np.int64)
    # rows are y = coordinate 1, columns x = coordinate 0
    memb = t[:, None] == t * t % p
    return PointSet._adopt(space, memb.reshape(-1),
                           SetDescriptor.make("sidon-parabola", d=2))


def is_sidon(e: PointSet) -> bool:
    """True iff a + b = c + d in E forces {a, b} = {c, d}.

    Equivalently all sums over unordered pairs (repetition allowed) are
    distinct.  The examples in this package assume odd characteristic;
    over F_2 doubling collapses and no 2-point set passes.
    """
    n = e.cardinality
    if n > SIDON_CHECK_CAP:
        raise ValueError(f"is_sidon capped at {SIDON_CHECK_CAP} points, got {n}")
    pts = e.support_indices()
    space = e.space
    sums = space.index_add(pts[:, None], pts[None, :])
    iu, ju = np.triu_indices(n)
    pair_sums = sums[iu, ju]
    return len(np.unique(pair_sums)) == len(pair_sums)


def cutoff_cylinder(space: VectorSpace, n: int, m: int, k: int) -> PointSet:
    """(F^n \\ F^m) x S_1^k inside F_p^{n+k+1}.

    F^m sits inside F^n as the first m coordinates; membership demands
    coordinates m..n-1 not all zero and the last k+1 coordinates on the
    unit sphere.  Requires n > m >= 1 and k > 2(n-m).
    """
    if not n > m >= 1:
        raise ValueError(f"need n > m >= 1, got n={n}, m={m}")
    if not k > 2 * (n - m):
        raise ValueError(f"need k > 2(n-m) = {2 * (n - m)}, got k={k}")
    if space.dimension != n + k + 1:
        raise ValueError(f"space dimension must be n+k+1 = {n + k + 1}")
    space.require_odd("cutoff cylinder")
    p = space.p
    # the slab F^m x (F^{n-m} minus 0) in F^n, coordinates m..n-1 on the
    # high-weight axis, times the unit sphere on coordinates n..n+k
    punctured = np.ones(p ** (n - m), dtype=bool)
    punctured[0] = False
    slab = PointSet._adopt(VectorSpace(p, n, max_points=space.size),
                           np.repeat(punctured, p ** m))
    cap = sphere(VectorSpace(p, k + 1, max_points=space.size), 1)
    return _product_on(space, (slab, cap), SetDescriptor.make(
        "cutoff-cylinder", n=n, m=m, k=k))


def surface_measure(e: PointSet) -> FFMeasure:
    """The uniform probability measure mu(x) = E(x)/|E|."""
    if e.cardinality == 0:
        raise ValueError("surface measure of an empty set")
    return FFMeasure._adopt(e.space, e.membership / e.cardinality)


def random_set(space: VectorSpace, percent: int, seed: int) -> PointSet:
    """Bernoulli(percent / 100) membership per point, seeded; retried if
    empty.  percent is a whole number in (0, 100], recorded exactly as
    the `random` family's parameter of that name."""
    if (isinstance(percent, bool) or not isinstance(percent, int)
            or not 0 < percent <= 100):
        raise ValueError(f"percent must be an integer in (0, 100], "
                         f"got {percent!r}")
    density = percent / 100.0
    for attempt in range(1000):
        rng = np.random.default_rng((seed, attempt))
        memb = rng.random(space.size) < density
        if memb.any():
            return PointSet._adopt(space, memb, SetDescriptor.make(
                "random", d=space.dimension, seed=seed, percent=percent))
    raise RuntimeError("random_set failed to produce a nonempty set")
