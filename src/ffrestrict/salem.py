"""Salem exponents: spectral profiles, log-log regression fits across
growing fields, and the closed-form Hamming-variety transform, which
reads every frequency of a spectrum in one vectorized call.

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
    """||mu^||_p of e's surface measure over p_grid, from one transform
    per factor of e.

    The only place in this module that transforms: every other Salem
    quantity reads its norms from here.  The surface measure of a
    product is the product of its factors' surface measures, so a
    product set is transformed factor by factor and never as its dense
    p^d grid; a set with no product structure is its own single factor.
    Each measure is transformed straight from its float64 weights to its
    half spectrum, with no complex copy, and freed once transformed.
    """
    grid = sorted(set(float(pe) for pe in p_grid))
    if not grid:
        raise ValueError("empty p_grid")
    mhats = tuple(fourier_forward(surface_measure(f)) for f in e.factors)
    entries = tuple((pe, lp_average_norm(mhats, pe)) for pe in grid)
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


def hamming_exact_transform(space: VectorSpace, j: int, m):
    """mu_j^(m) for the surface measure of H_j = {x : prod x_i = j}, in
    closed form, at a flat index m (a complex) or at an array of flat
    indices (an array of the same shape).

    With l = #zero coordinates of m:
        l >= 1:  (-1)^{d-l} (p-1)^{-(d-l)}   (exact)
        l  = 0:  K(j prod m) / (p-1)^{d-1}, K(c) the hyper-Kloosterman
                 sum of chi(-sum y) over y in (F_p^*)^d with prod y = c
    Substituting y_i = x_i m_i gives the second line.  With y_i = g^a_i
    for a primitive root g, K is the d-fold cyclic convolution on
    Z/(p-1) of u(a) = chi(-g^a), so one FFT of length p-1 gives K at
    every c.  Deligne's bound |K| <= d p^{(d-1)/2}, that is
    |mu^(m)| <= C p^{-(d-1)/2}, is asserted as an internal sanity check.
    """
    p, d = space.p, space.dimension
    j = j % p
    if j == 0:
        raise ValueError("hamming variety requires j != 0")
    # a tuple or list would be read as flat indices, not as coordinates
    if not isinstance(m, (int, np.integer, np.ndarray)):
        raise TypeError(f"expected flat indices, got {type(m).__name__}")
    idx = np.asarray(m)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError(f"expected flat indices, got dtype {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= space.size):
        raise ValueError(f"index out of range [0, {space.size})")
    idx = idx.astype(np.int64)
    zeros = np.zeros(idx.shape, dtype=np.int64)
    # j prod m, reduced per coordinate: both factors are < p < 2^31
    prod = np.full(idx.shape, j, dtype=np.int64)
    for axis in range(d):
        c = space.coordinate(idx, axis)
        zeros += c == 0
        prod = prod * c % p

    # g^a for a < p - 1, doubled block by block, for the least g whose
    # powers fill F_p^*; then log[g^a] = a
    for g in range(1, p):
        powers = np.ones(p - 1, dtype=np.int64)
        k = 1
        while k < p - 1:
            n = min(k, p - 1 - k)
            powers[k:k + n] = powers[:n] * pow(g, k, p) % p
            k += n
        if len(np.unique(powers)) == p - 1:
            break
    log = np.zeros(p, dtype=np.int64)
    log[powers] = np.arange(p - 1)
    kloosterman = np.fft.ifft(np.fft.fft(space.chi_table[-powers % p]) ** d)
    if np.max(np.abs(kloosterman)) > d * p ** ((d - 1) / 2) * (1 + 1e-9):
        raise RuntimeError(
            f"hyper-Kloosterman sum exceeded the Deligne bound on {space}")

    table = [(-1) ** (d - l) / (p - 1) ** (d - l) for l in range(d + 1)]
    out = np.where(zeros > 0, np.array(table)[zeros],
                   kloosterman[log[prod]] / (p - 1) ** (d - 1))
    return complex(out) if out.ndim == 0 else out


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
