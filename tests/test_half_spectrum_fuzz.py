"""Differential fuzzing of the streamed half spectrum: the transform of a
random set's surface measure, read from its bitmap a row block at a
time, against np.fft.rfft and fft of its materialised weights, bit for
bit, and against the defining sum where that is small enough."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ffrestrict import spectral
from ffrestrict.ensembles import random_set, surface_measure
from ffrestrict.field import VectorSpace
from ffrestrict.spectral import (
    FFMeasure,
    GridFunction,
    dft_reference,
    fourier_forward,
)

# every test size is below this, so no pass splits
_NEVER_SPLIT = 1 << 40


def _dense_half_spectrum(weights: np.ndarray, p: int, d: int) -> np.ndarray:
    """rfft along the last cube axis, then fft along each of the others,
    of the whole (p,)*d cube of weights at once."""
    half = np.fft.rfft(weights.reshape((p,) * d), axis=-1)
    for ax in range(2, d + 1):
        half = np.fft.fft(half, axis=-ax)
    return half.reshape(-1)


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 11, 13]), d=st.integers(1, 4),
       percent=st.integers(1, 100), seed=st.integers(0, 2 ** 16),
       block=st.one_of(st.none(), st.integers(1, 64)),
       split=st.sampled_from([0, _NEVER_SPLIT]))
# 13^3 rows in blocks of 1,260 at the module's block size; 49 rows of 3
@example(p=13, d=4, percent=40, seed=0, block=None, split=0)
@example(p=7, d=3, percent=30, seed=1, block=21, split=0)
def test_streamed_half_spectrum_matches_the_dense_one(p, d, percent, seed,
                                                      block, split):
    space = VectorSpace(p, d)
    e = random_set(space, percent, seed)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(spectral, "_BLOCK_ENTRIES", block)
        mp.setattr(spectral, "_SPLIT_ENTRIES", split)
        mu = surface_measure(e)
        got = fourier_forward(mu).values
        assert mu._array is None  # the transform made no weights
        dense = FFMeasure(space, e.membership / e.cardinality)
        from_weights = fourier_forward(dense).values
    weights = mu.weights
    assert np.array_equal(weights, e.membership / e.cardinality)
    want = _dense_half_spectrum(weights, p, d)
    assert np.array_equal(got, want)
    assert np.array_equal(from_weights, want)
    if space.size <= 4096:
        full = dft_reference(GridFunction(space, weights)).values
        cut = full.reshape((p,) * d)[..., :p // 2 + 1].reshape(-1)
        assert np.max(np.abs(got - cut)) <= 1e-12
