"""Differential fuzzing of the two-thread FFT passes of `_transform`: a
batch of random complex functions transformed with every pass split
(`_SPLIT_ENTRIES` patched to 0) against the same batch with no pass
split, bit for bit, and both against np.fft.fftn / ifftn over the cube
axes.  `_half_transform`'s split is fuzzed in
`tests/test_half_spectrum_fuzz.py`."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ffrestrict import spectral
from ffrestrict.field import VectorSpace

# every test size is below this, so no pass splits
_NEVER_SPLIT = 1 << 40


def _numpy_transform(cube: np.ndarray, d: int, sign: int) -> np.ndarray:
    axes = tuple(range(-d, 0))
    if sign < 0:
        return np.fft.fftn(cube, axes=axes)
    return np.fft.ifftn(cube, axes=axes, norm="forward")


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 11, 13]), d=st.integers(1, 4),
       rows=st.one_of(st.none(), st.integers(1, 8)),
       sign=st.sampled_from([-1, 1]), seed=st.integers(0, 2 ** 16))
# one row: `_halves` skips the length-1 batch axis and halves a cube axis
@example(p=5, d=3, rows=1, sign=-1, seed=0)
# d = 1 and one row: no axis to halve, so every pass runs serially
@example(p=13, d=1, rows=1, sign=1, seed=1)
# d = 1 with a batch: the batch axis is halved
@example(p=2, d=1, rows=8, sign=-1, seed=2)
# one function with no batch axis
@example(p=7, d=2, rows=None, sign=1, seed=3)
def test_split_transform_matches_the_serial_one(p, d, rows, sign, seed):
    space = VectorSpace(p, d)
    shape = (space.size,) if rows is None else (rows, space.size)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_SPLIT_ENTRIES", 0)
        split = spectral._transform(space, values, sign)
        mp.setattr(spectral, "_SPLIT_ENTRIES", _NEVER_SPLIT)
        serial = spectral._transform(space, values, sign)
    assert split.shape == serial.shape == values.shape
    assert np.array_equal(split, serial)
    cube = values.reshape(values.shape[:-1] + (p,) * d)
    want = _numpy_transform(cube, d, sign).reshape(values.shape)
    assert np.array_equal(serial, want)
