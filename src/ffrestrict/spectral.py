"""Dense functions on F_p^d, Fourier transforms, and the L^p machinery.

Conventions (unnormalized counting sums):

    forward    f^(xi)  = sum_x f(x) chi(-xi.x)
    inverse    f^v(xi) = sum_x f(x) chi(+xi.x)
    inversion  (f^)^v  = p^d f
    Parseval   sum_xi f^(xi) conj(g^(xi)) = p^d sum_x f(x) conj(g(x))

The normalized p-average of a transform excludes the zero frequency:

    ||mu^||_p   = (p^-d sum_{xi != 0} |mu^(xi)|^p)^(1/p)
    ||mu^||_inf = sup_{xi != 0} |mu^(xi)|
"""

from __future__ import annotations

import math

import numpy as np

from .field import SpaceArray, VectorSpace


class GridFunction(SpaceArray):
    """A complex-valued function on F_p^d, stored densely by flat index."""

    _dtype = np.complex128
    _noun = "values"

    def _check(self, arr: np.ndarray) -> None:
        if not np.all(np.isfinite(arr)):
            raise ValueError("values must be finite (no NaN/Inf)")

    @property
    def values(self) -> np.ndarray:
        return self._array

    def __len__(self) -> int:
        return self._space.size

    @classmethod
    def constant(cls, space: VectorSpace, value: complex = 1.0) -> "GridFunction":
        return cls._adopt(space, np.full(space.size, value, dtype=np.complex128))

    @classmethod
    def dirac(cls, space: VectorSpace, index: int = 0) -> "GridFunction":
        if not 0 <= index < space.size:
            raise ValueError(f"index {index} out of range")
        v = np.zeros(space.size, dtype=np.complex128)
        v[index] = 1.0
        return cls._adopt(space, v)


class FFMeasure(SpaceArray):
    """A probability measure on F_p^d: nonnegative weights summing to 1."""

    _dtype = np.float64
    _noun = "weights"

    def _check(self, w: np.ndarray) -> None:
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {total!r}")

    @property
    def weights(self) -> np.ndarray:
        return self._array

    def support_indices(self) -> np.ndarray:
        return np.flatnonzero(self._array)

    def as_grid(self) -> GridFunction:
        return GridFunction._adopt(self._space,
                                   self._array.astype(np.complex128))

    @classmethod
    def uniform(cls, space: VectorSpace) -> "FFMeasure":
        return cls._adopt(space, np.full(space.size, 1.0 / space.size))


def random_function(space: VectorSpace, seed: int) -> GridFunction:
    """Seeded complex standard-normal function."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(space.size)
    v = v + 1j * rng.standard_normal(space.size)
    return GridFunction._adopt(space, v)


def _transform(space: VectorSpace, values: np.ndarray, sign: int) -> np.ndarray:
    """sum_x f(x) chi(sign * xi.x): a numpy FFT along each axis of the
    (p,)*d cube.

    The C-order reshape reverses the coordinate axes; every axis gets the
    same transform, so the flat order is unchanged.  The values are those
    of np.fft.fftn (sign -1) or np.fft.ifftn(norm="forward") (sign +1),
    bit for bit, but every axis after the first is transformed in place
    instead of into a fresh p^d array.
    """
    if sign < 0:
        fft, norm = np.fft.fft, "backward"
    else:
        fft, norm = np.fft.ifft, "forward"
    cube = values.reshape((space.p,) * space.dimension)
    out = fft(cube, axis=-1, norm=norm)
    for ax in reversed(range(space.dimension - 1)):
        fft(out, axis=ax, norm=norm, out=out)
    return out.reshape(-1)


def fourier_forward(f: GridFunction) -> GridFunction:
    """f^(xi) = sum_x f(x) chi(-xi.x)."""
    return GridFunction._adopt(f.space, _transform(f.space, f.values, -1))


def fourier_inverse(f: GridFunction) -> GridFunction:
    """f^v(xi) = sum_x f(x) chi(+xi.x); satisfies (f^)^v = p^d f."""
    return GridFunction._adopt(f.space, _transform(f.space, f.values, +1))


def dft_reference(f: GridFunction, max_points: int = 4096) -> GridFunction:
    """The defining double sum, evaluated directly.  O(p^2d); test oracle.

    Chunked over frequencies so memory stays O(p^d) regardless of size.
    """
    space = f.space
    n = space.size
    if n > max_points:
        raise ValueError(f"defining-sum reference capped at {max_points} points")
    idx = space.all_indices()
    out = np.empty(n, dtype=np.complex128)
    chunk = max(1, (1 << 21) // n)
    for start in range(0, n, chunk):
        xi = idx[start:start + chunk]
        dots = np.zeros((len(xi), n), dtype=np.int64)
        for ax in range(space.dimension):
            dots += np.outer(space.coordinate(xi, ax), space.coordinate(idx, ax))
        out[start:start + len(xi)] = space.chi_table[(-dots) % space.p] @ f.values
    return GridFunction._adopt(space, out)


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """f*g(x) = sum_y f(y) g(x-y), evaluated as the defining sum.

    Deliberately transform-free so the convolution law can be checked
    against an independent route.  Cost is O(|supp| * p^d) using the
    sparser factor's support.
    """
    if f.space != g.space:
        raise ValueError("convolve requires functions on the same space")
    space = f.space
    sf = np.flatnonzero(f.values)
    sg = np.flatnonzero(g.values)
    a, b = (f, g) if len(sf) <= len(sg) else (g, f)
    support = sf if len(sf) <= len(sg) else sg
    d = space.dimension
    shape = (space.p,) * d
    cube = b.values.reshape(shape)
    out = np.zeros(shape, dtype=np.complex128)
    axes = tuple(range(d))
    for y in support:
        coords = space.decode(int(y))
        # cube axes run from the highest-weight coordinate down
        out += a.values[y] * np.roll(cube, shift=coords[::-1], axis=axes)
    return GridFunction._adopt(space, out.reshape(-1))


def parseval(f: GridFunction, g: GridFunction) -> tuple[complex, complex]:
    """Both sides of sum f^ conj(g^) = p^d sum f conj(g), for comparison."""
    if f.space != g.space:
        raise ValueError("parseval requires functions on the same space")
    fh = fourier_forward(f).values
    gh = fourier_forward(g).values
    lhs = complex(np.vdot(gh, fh))
    rhs = f.space.size * complex(np.vdot(g.values, f.values))
    return lhs, rhs


def lp_average_norm(mhat: GridFunction, p_exp: float) -> float:
    """||mu^||_p over nonzero frequencies, normalized by p^-d.

    The xi = 0 term is excluded by masking the zero index, never by
    subtracting from a power sum.  The sup M is factored out before
    powering, M (p^-d sum (|mu^|/M)^p)^(1/p), so large exponents do not
    underflow to zero.
    """
    if p_exp != math.inf and p_exp < 1:
        raise ValueError(f"p_exp must be >= 1 or inf, got {p_exp}")
    mags = np.abs(mhat.values)
    mags[0] = 0.0
    top = float(mags.max())
    if p_exp == math.inf or top == 0.0:
        return top
    mags /= top
    np.power(mags, p_exp, out=mags)
    return top * float(np.sum(mags) / mhat.space.size) ** (1.0 / p_exp)


def multiply_density(f: GridFunction, mu: FFMeasure) -> GridFunction:
    """The pointwise product (f mu)(x) = f(x) mu(x)."""
    if f.space != mu.space:
        raise ValueError("multiply_density requires a common space")
    return GridFunction._adopt(f.space, f.values * mu.weights)


def lq_norm(f: GridFunction, q: float) -> float:
    """Unnormalized counting norm (sum_x |f(x)|^q)^(1/q); sup at q = inf."""
    if q != math.inf and q < 1:
        raise ValueError(f"q must be >= 1 or inf, got {q}")
    mags = np.abs(f.values)
    if q == math.inf:
        return float(mags.max())
    return float(np.sum(mags ** q) ** (1.0 / q))


def lq_mu_norm(f: GridFunction, mu: FFMeasure, q: float) -> float:
    """Weighted norm (sum_x |f(x)|^q mu(x))^(1/q); mu-esssup at q = inf."""
    if f.space != mu.space:
        raise ValueError("lq_mu_norm requires a common space")
    if q != math.inf and q < 1:
        raise ValueError(f"q must be >= 1 or inf, got {q}")
    mags = np.abs(f.values)
    if q == math.inf:
        sup = mu.support_indices()
        return float(mags[sup].max()) if len(sup) else 0.0
    return float(np.sum(mags ** q * mu.weights) ** (1.0 / q))
