"""Salem exponents: spectral profiles, log-log regression fits across
growing fields, and the exact Hamming-variety transform.

A set E is (p, s)-Salem when its surface measure satisfies
||mu^||_p <= C |E|^{-s} with C independent of the field size.  The
implicit constant is absorbed into the regression intercept, so the
fitted slope, not any pointwise ratio, is the tested quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ensembles import PointSet, SetDescriptor, surface_measure
from .field import VectorSpace
from .rationals import Exact
from .spectral import fourier_forward, lp_average_norm


@dataclass(frozen=True)
class SpectralProfile:
    """||mu^||_p over a grid of exponents, at one field size."""

    descriptor: SetDescriptor | None
    field_size: int
    dimension: int
    set_size: int
    entries: tuple[tuple[float, float], ...]  # (p_exp, norm), p_exp ascending

    def norm_at(self, p_exp: float) -> float:
        for pe, norm in self.entries:
            if pe == p_exp:
                return norm
        raise KeyError(f"p_exp {p_exp} not in profile")


@dataclass(frozen=True)
class SalemFit:
    """Least-squares slope of -log ||mu^||_p against log |E|."""

    descriptor: SetDescriptor | None
    p_exp: float
    fitted_s: float
    stderr: float
    field_sizes: tuple[int, ...]
    set_sizes: tuple[int, ...]
    predicted_s: Exact | None = None

    @property
    def n_points(self) -> int:
        return len(self.field_sizes)


def profile(e: PointSet, p_grid: Sequence[float]) -> SpectralProfile:
    """||mu^||_p of e's surface measure over p_grid, from one transform.

    The only place in this module that transforms: every other Salem
    quantity reads its norms from here.  The measure is a temporary, so
    it is freed before the transform allocates its output.
    """
    grid = sorted(set(float(pe) for pe in p_grid))
    if not grid:
        raise ValueError("empty p_grid")
    mhat = fourier_forward(surface_measure(e).as_grid())
    entries = tuple((pe, lp_average_norm(mhat, pe)) for pe in grid)
    return SpectralProfile(e.descriptor, e.space.p, e.space.dimension,
                           e.cardinality, entries)


def fit_salem_exponent(builder: Callable[[int], PointSet], p_exp: float,
                       field_sizes: Sequence[int],
                       predicted_s: Exact | None = None) -> SalemFit:
    """Fit s in ||mu^||_p ~ |E|^{-s} over growing base fields.

    builder maps a field size p to the family instance in F_p^d.
    Requires at least 4 field sizes; zero norms (full-space-like inputs)
    are degenerate and rejected.
    """
    sizes = sorted(set(int(p) for p in field_sizes))
    if len(sizes) < 4:
        raise ValueError(f"need >= 4 field sizes, got {len(sizes)}")
    set_sizes = []
    norms = []
    descriptor = None
    for p in sizes:
        prof = profile(builder(p), [p_exp])
        descriptor = prof.descriptor if descriptor is None else descriptor
        norm = prof.norm_at(p_exp)
        # full-space-like inputs leave only rounding noise off frequency
        # zero; that is a zero norm for fitting purposes
        if norm <= 1e-12:
            raise ValueError(
                f"degenerate input: ||mu^||_{p_exp} = 0 at field size {p}")
        set_sizes.append(prof.set_size)
        norms.append(norm)
    xs = np.log(np.array(set_sizes, dtype=np.float64))
    ys = -np.log(np.array(norms, dtype=np.float64))
    if np.ptp(xs) == 0.0:
        raise ValueError("degenerate input: set size does not grow")
    coeffs, cov = np.polyfit(xs, ys, 1, cov=True)
    return SalemFit(descriptor, float(p_exp), float(coeffs[0]),
                    float(np.sqrt(cov[0, 0])), tuple(sizes),
                    tuple(set_sizes), predicted_s)


def _hamming_zero_free_value(space: VectorSpace, j: int,
                             coords: tuple[int, ...]) -> complex:
    """Direct character sum for a frequency with no zero coordinate.

    Parametrizes H_j by the first d-1 coordinates over units, the last
    one forced to j / prod.  The sum is a Kloosterman-type sum; Deligne's
    bound |sum| <= d p^{(d-1)/2} is asserted as an internal sanity check.
    """
    p, d = space.p, space.dimension
    inv_table = np.zeros(p, dtype=np.int64)
    for u in range(1, p):
        inv_table[u] = pow(u, p - 2, p)
    grids = np.indices((p - 1,) * (d - 1), dtype=np.int64) + 1
    free = [g.reshape(-1) for g in grids]
    prod = np.ones(free[0].shape, dtype=np.int64)
    phase = np.zeros(free[0].shape, dtype=np.int64)
    for i in range(d - 1):
        prod = (prod * free[i]) % p
        phase = (phase + coords[i] * free[i]) % p
    last = (j * inv_table[prod]) % p
    phase = (phase + coords[d - 1] * last) % p
    total = complex(space.chi_table[(-phase) % p].sum())
    value = total / (p - 1) ** (d - 1)
    deligne = d * p ** ((d - 1) / 2) / (p - 1) ** (d - 1)
    if abs(value) > deligne * (1 + 1e-9):
        raise RuntimeError(
            f"Kloosterman-type sum exceeded the Deligne bound at m={coords}")
    return value


def _as_coords(space: VectorSpace, m) -> tuple[int, ...]:
    if isinstance(m, (int, np.integer)):
        return space.decode(int(m))
    coords = tuple(int(c) % space.p for c in m)
    if len(coords) != space.dimension:
        raise ValueError(f"expected {space.dimension} coordinates")
    return coords


def hamming_exact_transform(space: VectorSpace, j: int, m) -> complex:
    """mu_j^(m) for the Hamming surface measure, in closed form.

    With l = #zero coordinates of m:
        l >= 1:  (-1)^{d-l} (p-1)^{-(d-l)}   (exact)
        l  = 0:  the direct Kloosterman-type character sum, which obeys
                 |mu^(m)| <= C p^{-(d-1)/2}
    m may be a coordinate sequence or a flat index.
    """
    j = j % space.p
    if j == 0:
        raise ValueError("hamming variety requires j != 0")
    coords = _as_coords(space, m)
    d = space.dimension
    zeros = sum(1 for c in coords if c == 0)
    if zeros >= 1:
        return complex((-1) ** (d - zeros) / (space.p - 1) ** (d - zeros))
    return _hamming_zero_free_value(space, j, coords)


def hamming_decay_constant(space: VectorSpace, j: int, m) -> float:
    """Measured C in |mu^(m)| <= C p^{-(d-1)/2} at a zero-free frequency."""
    coords = _as_coords(space, m)
    if any(c == 0 for c in coords):
        raise ValueError("decay constant is defined for zero-free frequencies")
    value = hamming_exact_transform(space, j, coords)
    return abs(value) * space.p ** ((space.dimension - 1) / 2)


@dataclass(frozen=True)
class UniversalSalemReport:
    """Check of the universal (p, 1/p)-Salem property for one set."""

    p_exp: float
    norm: float
    bound: float
    ratio: float
    passed: bool


def check_universal_salem(e: PointSet, p_exp: float) -> UniversalSalemReport:
    """Every set is (p, 1/p)-Salem: ||mu^||_p <= |E|^{-1/p} exactly.

    At p = 2 this sharpens to the identity ||mu^||_2^2 = 1/|E| - p^{-d};
    at p = inf it is the trivial bound ||mu^||_inf <= 1.
    """
    if p_exp != math.inf and p_exp < 2:
        raise ValueError(f"p_exp must be in [2, inf], got {p_exp}")
    norm = profile(e, [p_exp]).norm_at(p_exp)
    if p_exp == math.inf:
        bound = 1.0
    else:
        bound = float(e.cardinality) ** (-1.0 / p_exp)
    ratio = norm / bound
    return UniversalSalemReport(float(p_exp), norm, bound, ratio,
                                ratio <= 1.0 + 1e-9)


def universal_l2_identity(e: PointSet) -> tuple[float, float]:
    """Both sides of ||mu^||_2^2 = 1/|E| - p^{-d} (Plancherel on E/|E|)."""
    lhs = profile(e, [2.0]).norm_at(2.0) ** 2
    rhs = 1.0 / e.cardinality - 1.0 / e.space.size
    return lhs, rhs
