"""Dense functions on F_p^d, Fourier transforms, and the L^p machinery.

Conventions (unnormalized counting sums):

    forward    f^(xi)  = sum_x f(x) chi(-xi.x)
    inverse    f^v(xi) = sum_x f(x) chi(+xi.x)
    inversion  (f^)^v  = p^d f
    Parseval   sum_xi f^(xi) conj(g^(xi)) = p^d sum_x f(x) conj(g(x))

The normalized p-average of a transform excludes the zero frequency:

    ||mu^||_p   = (p^-d sum_{xi != 0} |mu^(xi)|^p)^(1/p)
    ||mu^||_inf = sup_{xi != 0} |mu^(xi)|

A measure is real, so mu^(-xi) = conj mu^(xi) and half of its transform
repeats the other half.  `fourier_forward` keeps a measure's transform
as its half spectrum: the frequencies whose coordinate 0 is k <= p/2,
from np.fft.rfft along that axis.  In the p-average an entry with
0 < k < p/2 stands for xi and its mirror -xi, and has weight 2; k = 0
and, at p = 2, k = p/2 = 1 are their own mirrors and have weight 1.
The zero frequency is the half spectrum's index 0, as it is the full
transform's, so it is still masked by index: subtracting its term
|mu^(0)|^p = 1 from a power sum whose other terms are small against 1
would cancel their digits.
"""

from __future__ import annotations

import math
import threading

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


class HalfSpectrum(SpaceArray):
    """The transform of a real function on F_p^d at the frequencies whose
    coordinate 0 is k <= p/2; the others are their conjugate mirrors.

    Stored by flat index of the (p,)*(d-1) + (p//2 + 1,) cube whose last
    axis is coordinate 0: the full transform's cube cut at k = p//2.
    """

    _dtype = np.complex128
    _noun = "half-spectrum values"
    _check = GridFunction._check

    @staticmethod
    def _length(space: VectorSpace) -> int:
        return space.size // space.p * (space.p // 2 + 1)

    @property
    def values(self) -> np.ndarray:
        return self._array

    def mirrored(self, entries: np.ndarray) -> np.ndarray:
        """The view of entries, laid out like values, at 0 < k < p/2:
        each stands for its frequency and that frequency's mirror."""
        p = self.space.p
        return entries.reshape(-1, p // 2 + 1)[:, 1:(p + 1) // 2]


Spectrum = GridFunction | HalfSpectrum


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

    def as_grid(self) -> GridFunction:
        return GridFunction._adopt(self._space,
                                   self._array.astype(np.complex128))


def random_function(space: VectorSpace, seed: int) -> GridFunction:
    """Seeded complex standard-normal function."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(space.size)
    v = v + 1j * rng.standard_normal(space.size)
    return GridFunction._adopt(space, v)


# an FFT pass whose output has at least this many entries runs in two
# threads (`_fft_pass`)
_SPLIT_ENTRIES = 1 << 16


def _halves(shape: tuple[int, ...], axis: int):
    """The index tuples of the lower and upper halves of the first axis of
    `shape`, other than `axis`, whose length is at least 2; None when
    there is no such axis."""
    axis %= len(shape)
    for ax, n in enumerate(shape):
        if ax != axis and n >= 2:
            head = (slice(None),) * ax
            return head + (slice(None, n // 2),), head + (slice(n // 2, None),)
    return None


def _fft_pass(fft, src: np.ndarray, axis: int, out: np.ndarray,
              **kw) -> None:
    """fft(src, axis=axis, out=out, **kw), split in two halves along
    another axis when out has at least _SPLIT_ENTRIES entries: a worker
    thread transforms the upper half into its slice of out while the
    calling thread transforms the lower half.  The worker is joined even
    if the lower half raises, and an exception it raised is raised here.

    pocketfft transforms each 1-D line on its own, so the values are the
    serial pass's bit for bit.  numpy releases the GIL inside a transform,
    so the halves run at once on two cores.  The rule is measured: a
    forced split against the serial pass for one p^d transform, on 2
    cores,

        grid     serial (ms)   split (ms)
        67^2         0.26         0.41
        131^2        0.87         0.89
        181^2        2.5          1.4
        509^2       10.4          6.2
        1021^2      32.6         18.7
        13^4         1.07         1.14
        17^4         3.35         2.49

    so a split pays from about 2^15 entries and loses below it; at
    2^16, every pass of a p <= 131 fit and every certification of an
    ascent sweep stays serial, and p = 509 and 1021 split.
    """
    halves = _halves(out.shape, axis) if out.size >= _SPLIT_ENTRIES else None
    if halves is None:
        fft(src, axis=axis, out=out, **kw)
        return
    lower, upper = halves
    raised = []

    def transform_upper() -> None:
        try:
            fft(src[upper], axis=axis, out=out[upper], **kw)
        except BaseException as exc:
            raised.append(exc)

    worker = threading.Thread(target=transform_upper)
    worker.start()
    try:
        fft(src[lower], axis=axis, out=out[lower], **kw)
    finally:
        worker.join()
    if raised:
        raise raised[0]


def _transform(space: VectorSpace, values: np.ndarray, sign: int) -> np.ndarray:
    """sum_x f(x) chi(sign * xi.x): a numpy FFT along each axis of the
    (p,)*d cube.

    values holds one function in its last axis; any leading axes index a
    batch of functions, each transformed on its own.  The C-order reshape
    reverses the coordinate axes; every axis gets the same transform, so
    the flat order is unchanged.  The values are those of np.fft.fftn
    (sign -1) or np.fft.ifftn(norm="forward") (sign +1) over the trailing
    d axes, bit for bit: the first axis is transformed into one array
    allocated up front and every later axis in place, each pass through
    `_fft_pass`, which runs a large pass in two threads.
    """
    if sign < 0:
        fft, norm = np.fft.fft, "backward"
    else:
        fft, norm = np.fft.ifft, "forward"
    d = space.dimension
    cube = values.reshape(values.shape[:-1] + (space.p,) * d)
    out = np.empty(cube.shape, dtype=np.complex128)
    _fft_pass(fft, cube, -1, out, norm=norm)
    for ax in range(2, d + 1):
        _fft_pass(fft, out, -ax, out, norm=norm)
    return out.reshape(values.shape)


def _half_transform(space: VectorSpace, weights: np.ndarray) -> np.ndarray:
    """sum_x f(x) chi(-xi.x) for real f, on the half spectrum: np.fft.rfft
    along the last cube axis (coordinate 0) into one array allocated up
    front, then fft in place along the others, each pass through
    `_fft_pass`, which runs a large pass in two threads."""
    d = space.dimension
    cube = weights.reshape((space.p,) * d)
    out = np.empty(cube.shape[:-1] + (space.p // 2 + 1,),
                   dtype=np.complex128)
    _fft_pass(np.fft.rfft, cube, -1, out)
    for ax in range(2, d + 1):
        _fft_pass(np.fft.fft, out, -ax, out)
    return out.reshape(-1)


def fourier_forward(f: GridFunction | FFMeasure) -> Spectrum:
    """f^(xi) = sum_x f(x) chi(-xi.x).

    A measure is transformed straight from its float64 weights to its
    half spectrum; a complex function to its full transform.
    """
    if isinstance(f, FFMeasure):
        half = _half_transform(f.space, f.weights)
        return HalfSpectrum._adopt(f.space, half)
    return GridFunction._adopt(f.space, _transform(f.space, f.values, -1))


def fourier_inverse(f: GridFunction) -> GridFunction:
    """f^v(xi) = sum_x f(x) chi(+xi.x); satisfies (f^)^v = p^d f."""
    return GridFunction._adopt(f.space, _transform(f.space, f.values, +1))


def _dots(space: VectorSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot products a_i . b_j mod p of two lists of flat indices, as a
    (len(a), len(b)) int64 array."""
    p = space.p
    dots = np.zeros((len(a), len(b)), dtype=np.int64)
    for ax in range(space.dimension):
        dots += np.outer(space.coordinate(a, ax), space.coordinate(b, ax))
        dots %= p
    return dots


def _character_matrix(space: VectorSpace, points: np.ndarray,
                      sign: int) -> np.ndarray:
    """K[i, xi] = chi(sign * points_i . xi) over every frequency xi, from
    the character table.  At sign -1, block @ K transforms the functions
    on `points` held in the rows of block."""
    return space.chi_table[(sign * _dots(space, points,
                                         space.all_indices())) % space.p]


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
        dots = _dots(space, xi, idx)
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


def _fold(total: float, a: float, top_r: float) -> float:
    """Fold one more factor into a product's power sum off zero.

    total and a are sum_{xi != 0} (|mu^|/M)^r for the product so far and
    for the new factor, and top_r = M^r.  Their unscaled sums S = M^r
    total and T = M^r a combine as (1 + S)(1 + T) - 1 = S + T + S T,
    because each factor's transform is 1 at zero; dividing by M^r leaves
    no power of M that could overflow and no difference that could
    cancel."""
    return total + a + top_r * total * a


# the weight of a half-spectrum entry that also stands for its mirror
_HERMITIAN_WEIGHT = 2.0


def lp_average_norm(mhat: Spectrum | tuple[Spectrum, ...],
                    p_exp: float) -> float:
    """||mu^||_p over nonzero frequencies, normalized by p^-d.

    mhat is the transform of mu, or the transforms of its factors when
    mu = mu_1 x ... x mu_k, each with mu_i^(0) = 1.  Then
    mu^(xi) = prod_i mu_i^(xi_i), so the sup over xi != 0 is the largest
    factor sup M, and the power sums fold factor by factor (`_fold`).
    Each transform is full (every entry has weight 1) or a half spectrum
    (an entry that stands for its mirror has weight 2).

    The xi = 0 term is excluded by masking the zero index, never by
    subtracting from a power sum.  The sup M is factored out before
    powering, M (p^-d sum (|mu^|/M)^p)^(1/p), so large exponents do not
    underflow to zero.
    """
    if p_exp != math.inf and p_exp < 1:
        raise ValueError(f"p_exp must be >= 1 or inf, got {p_exp}")
    parts = (mhat,) if isinstance(mhat, Spectrum) else tuple(mhat)
    if not parts:
        raise ValueError("lp_average_norm needs at least one transform")
    mags = [np.abs(part.values) for part in parts]
    for m in mags:
        m[0] = 0.0
    top = max(float(m.max()) for m in mags)
    if p_exp == math.inf or top == 0.0:
        return top
    top_r = top ** p_exp
    total = None
    size = 1
    for m, part in zip(mags, parts):
        m /= top
        np.power(m, p_exp, out=m)
        if isinstance(part, HalfSpectrum):
            part.mirrored(m)[...] *= _HERMITIAN_WEIGHT
        a = np.sum(m)
        total = a if total is None else _fold(total, a, top_r)
        size *= part.space.size
    return top * float(total / size) ** (1.0 / p_exp)


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
