"""The FFT against the defining sum, Fourier identities, and norm
conventions."""

import math
import sys
import threading
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffrestrict.ensembles import (
    PointSet,
    full_space,
    hamming_variety,
    surface_measure,
)
from ffrestrict import spectral, verify
from ffrestrict.field import VectorSpace
from ffrestrict.spectral import (
    FFMeasure,
    GridFunction,
    HalfSpectrum,
    convolve,
    dft_reference,
    fourier_forward,
    fourier_inverse,
    lp_average_norm,
    lq_mu_norm,
    lq_norm,
    multiply_density,
    parseval,
    random_function,
)


def _space(p, d, cap=None):
    if cap is None:
        return VectorSpace(p, d)
    return VectorSpace(p, d, max_points=cap)


def _dirac(space, index):
    v = np.zeros(space.size, dtype=complex)
    v[index] = 1.0
    return GridFunction(space, v)


# ------------------------------------------------------------ transforms

def test_forward_matches_defining_sum():
    for p, d in [(3, 2), (5, 2), (7, 1), (11, 1), (13, 2), (3, 3)]:
        space = _space(p, d)
        f = random_function(space, seed=1)
        got = fourier_forward(f).values
        want = dft_reference(f).values
        scale = np.abs(f.values).sum()
        assert np.max(np.abs(got - want)) < 1e-9 * scale


def test_dirac_transforms_to_character():
    space = _space(7, 2)
    a = space.encode((2, 3))
    fhat = fourier_forward(_dirac(space, a)).values
    for xi in range(space.size):
        cx = space.decode(xi)
        ca = space.decode(a)
        t = -sum(x * y for x, y in zip(cx, ca))
        assert abs(fhat[xi] - space.chi_table[t % space.p]) < 1e-12


def test_constant_transforms_to_dirac():
    space = _space(5, 2)
    fhat = fourier_forward(GridFunction(space, np.ones(space.size))).values
    assert abs(fhat[0] - space.size) < 1e-9
    assert np.max(np.abs(fhat[1:])) < 1e-9


def test_inversion_identity():
    for p, d in [(3, 3), (5, 2), (13, 1)]:
        space = _space(p, d)
        f = random_function(space, seed=2)
        back = fourier_inverse(fourier_forward(f)).values
        err = np.max(np.abs(back - space.size * f.values))
        assert err < 1e-9 * space.size * np.max(np.abs(f.values))


def test_parseval_and_plancherel():
    for p, d in [(3, 2), (7, 2), (11, 1)]:
        space = _space(p, d)
        f = random_function(space, seed=3)
        g = random_function(space, seed=4)
        fh, gh = fourier_forward(f), fourier_forward(g)
        lhs = np.vdot(gh.values, fh.values)
        rhs = space.size * np.vdot(g.values, f.values)
        assert abs(lhs - rhs) < 1e-9 * abs(rhs)
        both = parseval(f, g)
        assert abs(both[0] - both[1]) < 1e-9 * max(1.0, abs(both[1]))


def test_convolution_theorem():
    for p, d in [(5, 2), (7, 1), (3, 3)]:
        space = _space(p, d)
        f = random_function(space, seed=5)
        g = random_function(space, seed=6)
        lhs = fourier_forward(convolve(f, g)).values
        rhs = fourier_forward(f).values * fourier_forward(g).values
        scale = np.max(np.abs(rhs)) + 1.0
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * scale


def test_convolution_with_dirac_translates():
    space = _space(7, 2)
    f = random_function(space, seed=7)
    shift = space.encode((1, 2))
    moved = convolve(f, _dirac(space, shift)).values
    idx = space.all_indices()
    translated = np.empty_like(f.values)
    translated[space.index_add(idx, np.full_like(idx, shift))] = f.values
    assert np.max(np.abs(moved - translated)) < 1e-12


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def test_forward_matches_defining_sum_small_p():
    for p, d in [(5, 2), (13, 1), (7, 2)]:
        space = _space(p, d)
        f = random_function(space, seed=8)
        got = fourier_forward(f).values
        want = dft_reference(f).values
        assert np.max(np.abs(got - want)) < 1e-10 * np.abs(f.values).sum()


def test_forward_matches_defining_sum_large_p():
    for p in [67, 101, 127]:
        space = _space(p, 1)
        f = random_function(space, seed=9)
        assert _rel_err(fourier_forward(f).values,
                        dft_reference(f).values) <= 1e-12


def test_transforms_match_defining_sum_d2_above_64():
    space = _space(67, 2)
    f = random_function(space, seed=10)
    want = dft_reference(f, max_points=space.size).values
    assert _rel_err(fourier_forward(f).values, want) <= 1e-12
    # f^v = conj((conj f)^)
    conj_f = GridFunction(space, f.values.conj())
    want_inv = dft_reference(conj_f, max_points=space.size).values.conj()
    assert _rel_err(fourier_inverse(f).values, want_inv) <= 1e-12


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_half_spectrum_entries_match_defining_sum(p, d):
    # a real measure keeps the frequencies whose coordinate 0 is <= p/2,
    # the last axis of the full transform's cube cut at p // 2
    space = _space(p, d)
    w = np.random.default_rng(10 * p + d).random(space.size)
    mu = FFMeasure(space, w / w.sum())
    half = fourier_forward(mu)
    assert isinstance(half, HalfSpectrum)
    assert len(half) == space.size
    want = dft_reference(mu.as_grid()).values.reshape((p,) * d)
    want = want[..., :p // 2 + 1].reshape(-1)
    assert half.values.shape == want.shape
    assert np.max(np.abs(half.values - want)) <= 1e-12


def test_character_sign_fault_is_undone_on_exit():
    space = _space(7, 2)
    f = random_function(space, seed=11)
    want = dft_reference(f).values
    bound = 1e-10 * np.abs(f.values).sum()
    with verify.character_sign_fault():
        assert np.max(np.abs(fourier_forward(f).values - want)) > bound
    assert np.max(np.abs(fourier_forward(f).values - want)) < bound
    with pytest.raises(RuntimeError, match="inside"):
        with verify.character_sign_fault():
            raise RuntimeError("inside the fault")
    assert np.max(np.abs(fourier_forward(f).values - want)) < bound


# ------------------------------------------------------------ split passes

# every test size is below this, and every pass splits at 0
_NEVER_SPLIT = 1 << 40


def _split_and_serial(monkeypatch, transform):
    """transform() with every FFT pass split, then with none split."""
    monkeypatch.setattr(spectral, "_SPLIT_ENTRIES", 0)
    split = transform()
    monkeypatch.setattr(spectral, "_SPLIT_ENTRIES", _NEVER_SPLIT)
    return split, transform()


@pytest.mark.parametrize("p, d", [(13, 1), (11, 2), (7, 3), (5, 4), (2, 4)])
def test_split_passes_match_serial_bit_for_bit(monkeypatch, p, d):
    space = _space(p, d)
    f = random_function(space, seed=p + d)
    w = np.random.default_rng(p * d).random(space.size)
    mu = FFMeasure(space, w / w.sum())
    for sign in (-1, +1):
        split, serial = _split_and_serial(
            monkeypatch, lambda: spectral._transform(space, f.values, sign))
        assert np.array_equal(split, serial)
    split, serial = _split_and_serial(
        monkeypatch, lambda: spectral._half_transform(mu))
    assert np.array_equal(split, serial)


@pytest.mark.parametrize("rows", [1, 3, 8])
def test_split_passes_match_serial_on_an_ascent_block(monkeypatch, rows):
    # rows x p^d, zero off the support, as the FFT-route ascent passes it;
    # a one-row block halves a cube axis instead of the row axis
    space = _space(5, 3)
    support = np.arange(0, space.size, 7)
    rng = np.random.default_rng(rows)
    block = np.zeros((rows, space.size), dtype=np.complex128)
    block[:, support] = rng.standard_normal((rows, len(support)))
    for sign in (-1, +1):
        split, serial = _split_and_serial(
            monkeypatch, lambda: spectral._transform(space, block, sign))
        assert split.shape == block.shape
        assert np.array_equal(split, serial)


def test_split_passes_from_many_threads_at_once_match_serial(monkeypatch):
    # more callers than cores, each with its own worker, switching often
    space = _space(7, 3)
    fs = [random_function(space, seed=s).values for s in range(6)]
    want = [spectral._transform(space, f, -1) for f in fs]
    monkeypatch.setattr(spectral, "_SPLIT_ENTRIES", 0)
    got = [None] * len(fs)

    def run(i):
        for _ in range(20):
            got[i] = spectral._transform(space, fs[i], -1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=run, args=(i,))
                   for i in range(len(fs))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_split_pass_raises_the_worker_exception(monkeypatch):
    def fft(src, axis, out):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("upper half")
        np.fft.fft(src, axis=axis, out=out)

    monkeypatch.setattr(spectral, "_SPLIT_ENTRIES", 0)
    threads = threading.active_count()
    src = np.ones((4, 3), dtype=np.complex128)
    with pytest.raises(FloatingPointError, match="upper half"):
        spectral._fft_pass(fft, src, -1, np.empty_like(src))
    assert threading.active_count() == threads


def test_split_pass_joins_the_worker_when_the_caller_half_raises(
        monkeypatch):
    done = []

    def fft(src, axis, out):
        if threading.current_thread() is threading.main_thread():
            raise FloatingPointError("lower half")
        time.sleep(0.05)
        done.append(True)

    monkeypatch.setattr(spectral, "_SPLIT_ENTRIES", 0)
    threads = threading.active_count()
    src = np.ones((4, 3), dtype=np.complex128)
    with pytest.raises(FloatingPointError, match="lower half"):
        spectral._fft_pass(fft, src, -1, np.empty_like(src))
    assert done == [True]
    assert threading.active_count() == threads


def test_small_passes_and_passes_with_one_long_axis_run_serially(
        monkeypatch):
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: (started.append(self), start(self)))
    def uniform(space):
        return surface_measure(full_space(space))

    # the largest passes of the small-p and large-p fits below the rule
    spectral._half_transform(uniform(_space(17, 4)))
    spectral._half_transform(uniform(_space(131, 2)))
    assert started == []
    spectral._half_transform(uniform(_space(509, 2)))
    assert len(started) == 2
    # d = 1 has no other axis to halve
    monkeypatch.setattr(spectral, "_SPLIT_ENTRIES", 0)
    spectral._transform(_space(13, 1), np.ones(13, complex), -1)
    assert len(started) == 2


def _lazy_pass(fft, src, axis, out, **kw):
    """_fft_pass whose worker does nothing: the upper half of a split pass
    is left as the pass found it, the input on an in-place pass and zeros
    in the first pass's array."""
    split = out.size >= spectral._SPLIT_ENTRIES
    halves = spectral._halves(out.shape, axis) if split else None
    if halves is None:
        fft(src, axis=axis, out=out, **kw)
        return
    lower, upper = halves
    fft(src[lower], axis=axis, out=out[lower], **kw)
    if src is not out:
        out[upper] = 0


def test_split_path_oracles_catch_an_untransformed_worker_half(
        monkeypatch):
    # every other check of these suites is below the split rule
    monkeypatch.setattr(spectral, "_fft_pass", _lazy_pass)
    failed = [r.name for r in verify.run_suites(["parseval", "hamming"])
              if not r.passed]
    assert failed == ["inversion F_257^2",
                      "closed form half spectrum p=509 d=2 j=1"]


# ------------------------------------------------------------ norms

def test_lp_average_norm_masks_zero_frequency():
    space = _space(5, 2)
    # uniform measure on the full space: mu^ = dirac at 0
    mu = FFMeasure(space, np.full(space.size, 1.0 / space.size))
    mhat = fourier_forward(mu.as_grid())
    for p_exp in [1.0, 2.0, 4.0, math.inf]:
        assert lp_average_norm(mhat, p_exp) < 1e-12


def test_lp_average_norm_values():
    space = _space(3, 1)
    g = GridFunction(space, np.array([9.0, 2.0, -2.0], dtype=complex))
    # zero frequency masked, not subtracted
    assert lp_average_norm(g, math.inf) == pytest.approx(2.0)
    assert lp_average_norm(g, 2.0) == pytest.approx((8.0 / 3) ** 0.5)
    assert lp_average_norm(g, 1.0) == pytest.approx(4.0 / 3)


def test_lp_norm_monotone_in_p():
    space = _space(7, 2)
    f = random_function(space, seed=11)
    grid = [1.0, 2.0, 3.0, 6.0, 12.0, math.inf]
    vals = [lp_average_norm(f, pe) for pe in grid]
    for lo, hi in zip(vals, vals[1:]):
        assert lo <= hi + 1e-12


@pytest.fixture(scope="module")
def hamming_d4_p17():
    space = _space(17, 4)
    return fourier_forward(surface_measure(hamming_variety(space, 1)).as_grid())


def test_lp_norm_no_underflow_at_large_exponents(hamming_d4_p17):
    mhat = hamming_d4_p17
    grid = [2.0, 4.0, 8.0, 16.0, 50.0, 100.0, 200.0, 400.0, 1000.0,
            3000.0, 1e4]
    vals = [lp_average_norm(mhat, pe) for pe in grid]
    for lo, hi in zip(vals, vals[1:]):
        assert lo <= hi * (1 + 1e-12)
    sup = lp_average_norm(mhat, math.inf)
    assert 0.99 * sup <= vals[-1] <= sup


def test_lp_norm_matches_mpmath_at_p400(hamming_d4_p17):
    mhat = hamming_d4_p17
    mags = np.abs(mhat.values[1:])
    with mpmath.workdps(30):
        total = mpmath.fsum(mpmath.mpf(float(m)) ** 400 for m in mags)
        want = (total / mhat.space.size) ** (mpmath.mpf(1) / 400)
        want = float(want)
    assert want > 0.0
    assert lp_average_norm(mhat, 400.0) == pytest.approx(want, rel=1e-12)


def test_lq_norm_and_mu_norm():
    space = _space(5, 1)
    vals = np.array([1.0, -2.0, 2.0, 0.0, 1.0], dtype=complex)
    f = GridFunction(space, vals)
    # counting norm, no volume normalization
    assert lq_norm(f, 2.0) == pytest.approx(10.0 ** 0.5)
    assert lq_norm(f, math.inf) == pytest.approx(2.0)
    mu = FFMeasure(space, np.array([0.5, 0.5, 0.0, 0.0, 0.0]))
    assert lq_mu_norm(f, mu, 2.0) == pytest.approx((0.5 + 2.0) ** 0.5)
    assert lq_mu_norm(f, mu, math.inf) == pytest.approx(2.0)


def test_multiply_density():
    space = _space(5, 1)
    f = GridFunction(space, np.full(space.size, 2.0))
    mu = FFMeasure(space, np.array([0.25, 0.75, 0.0, 0.0, 0.0]))
    out = multiply_density(f, mu).values
    assert np.allclose(out, [0.5, 1.5, 0.0, 0.0, 0.0])


# ------------------------------------------------------ value objects

def test_grid_function_rejects_bad_shapes():
    space = _space(5, 1)
    with pytest.raises(ValueError):
        GridFunction(space, np.zeros(4, dtype=complex))
    with pytest.raises(ValueError):
        GridFunction(space, np.array([np.nan] * 5, dtype=complex))


def test_grid_function_values_immutable():
    space = _space(5, 1)
    f = GridFunction(space, np.ones(space.size))
    with pytest.raises(ValueError):
        f.values[0] = 7.0


def _caller_arrays(n, dtype, fill):
    """A writeable array, and a read-only view of a writeable base."""
    plain = np.full(n, fill, dtype=dtype)
    base = np.full(2 * n, fill, dtype=dtype)
    view = base[:n]
    view.setflags(write=False)
    return [(plain, plain), (view, base)]


@pytest.mark.parametrize("kind", ["grid", "measure", "pointset"])
def test_public_constructors_never_alias_caller_arrays(kind):
    space = _space(5, 1)
    make = {
        "grid": (lambda a: GridFunction(space, a).values, complex, 0.2),
        "measure": (lambda a: FFMeasure(space, a).weights, float, 0.2),
        "pointset": (lambda a: PointSet(space, a).membership, bool, True),
    }
    build, dtype, fill = make[kind]
    for arr, owner in _caller_arrays(space.size, dtype, fill):
        held = build(arr)
        before = held.copy()
        owner[:] = 0
        assert np.array_equal(held, before)
        assert not held.flags.writeable


def test_adopted_arrays_are_checked_like_public_ones():
    space = _space(5, 1)
    with pytest.raises(ValueError):
        GridFunction._adopt(space, np.full(5, np.nan, dtype=complex))
    with pytest.raises(ValueError):
        GridFunction._adopt(space, np.zeros(4, dtype=complex))
    with pytest.raises(ValueError):
        FFMeasure._adopt(space, np.array([1.5, -0.5, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        FFMeasure._adopt(space, np.full(5, 0.1))
    with pytest.raises(ValueError):
        PointSet._adopt(space, np.ones(4, dtype=bool))
    with pytest.raises(ValueError):
        HalfSpectrum._adopt(space, np.full(3, np.nan, dtype=complex))
    with pytest.raises(ValueError):
        HalfSpectrum._adopt(space, np.zeros(5, dtype=complex))


def test_package_made_arrays_are_frozen():
    e = hamming_variety(_space(5, 2), 1)
    mu = surface_measure(e)
    f = random_function(e.space, seed=3)
    for arr in (fourier_forward(f).values, fourier_inverse(f).values,
                mu.as_grid().values, mu.weights, fourier_forward(mu).values):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_measure_normalization_enforced():
    space = _space(5, 1)
    with pytest.raises(ValueError):
        FFMeasure(space, np.array([0.5, 0.1, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        FFMeasure(space, np.array([1.5, -0.5, 0.0, 0.0, 0.0]))


def test_point_mass_and_support():
    space = _space(7, 1)
    mu = FFMeasure(space, np.eye(space.size)[3])
    assert list(mu.support_indices()) == [3]
    assert mu.weights.max() == 1.0
    assert mu.as_grid().values[3] == 1.0


def test_random_function_deterministic():
    space = _space(7, 2)
    a = random_function(space, seed=42).values
    b = random_function(space, seed=42).values
    c = random_function(space, seed=43).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ------------------------------------------------------ property tests

@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(3, 2), (5, 1), (7, 1), (11, 1), (13, 1)]),
       st.integers(0, 10 ** 6))
def test_parseval_property(shape, seed):
    p, d = shape
    space = _space(p, d)
    f = random_function(space, seed=seed)
    g = random_function(space, seed=seed + 1)
    fh, gh = fourier_forward(f), fourier_forward(g)
    lhs = np.vdot(gh.values, fh.values)
    rhs = space.size * np.vdot(g.values, f.values)
    assert abs(lhs - rhs) <= 1e-9 * (abs(rhs) + 1.0)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(3, 2), (5, 1), (7, 1), (13, 1)]),
       st.integers(0, 10 ** 6))
def test_inversion_property(shape, seed):
    p, d = shape
    space = _space(p, d)
    f = random_function(space, seed=seed)
    back = fourier_inverse(fourier_forward(f)).values
    err = np.max(np.abs(back - space.size * f.values))
    assert err <= 1e-9 * space.size * (np.max(np.abs(f.values)) + 1.0)
