"""Differential fuzzing of the ascent's two routes: the character matrix
over the support and the FFT over the whole grid, each run directly on
random sets, against each other and against the bounds every extension
norm obeys."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from ffrestrict import restriction
from ffrestrict.ensembles import PointSet, surface_measure
from ffrestrict.field import VectorSpace

CFG = restriction.PowerIterConfig(random_starts=2)


@st.composite
def _sets(draw):
    """A random nonempty subset of F_p^d, p in {2, 3, 5, 7}, d in 1..3."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.integers(1, 3))
    n = p ** d
    memb = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    return PointSet(VectorSpace(p, d), memb)


@settings(max_examples=40, deadline=None)
@given(_sets(), st.sampled_from([2.0, 3.0, 4.0, 6.0]))
def test_matrix_and_fft_routes_agree(e, q):
    mu = surface_measure(e)
    support = mu.support_indices()
    _, starts = restriction._starts(mu, CFG)
    bounds = []
    for route in (restriction._matrix_operator, restriction._fft_operator):
        values, *_ = restriction._ascend(mu, starts, q, CFG,
                                         route(mu.space, support))
        bounds.append(float(values.max()))
    matrix, fft = bounds
    assert abs(matrix - fft) <= 1e-9 * fft

    # the constant function has ratio >= 1, and interpolating between
    # ||A f||_2 = (p^d/|E|)^(1/2) ||f|| and ||A f||_inf <= ||f|| bounds
    # every ratio by (p^d/|E|)^(1/q)
    ratio = e.space.size / e.cardinality
    for bound in bounds:
        assert 1.0 - 1e-12 <= bound <= ratio ** (1.0 / q) * (1.0 + 1e-12)
        if q == 2.0:
            assert abs(bound - math.sqrt(ratio)) <= 1e-12 * math.sqrt(ratio)
