"""Differential fuzzing of product sets: the lazy bitmap, the cardinality
taken from the factors and the factor route of `profile`, each against
its dense twin on random products of random factors."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from ffrestrict.ensembles import (
    PointSet,
    SetDescriptor,
    _product_on,
    surface_measure,
)
from ffrestrict.field import VectorSpace
from ffrestrict.salem import profile
from ffrestrict.spectral import fourier_forward, lp_average_norm

GRID = (2.0, 4.0, 8.0, math.inf)


@st.composite
def _factors(draw):
    """1-3 nonempty random factors of dimension 1-2 over one F_p, their
    product holding at most 4000 points."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    dims = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)
                .filter(lambda ds: p ** sum(ds) <= 4000))
    return tuple(
        PointSet(VectorSpace(p, d), draw(
            st.lists(st.booleans(), min_size=p ** d, max_size=p ** d)
            .filter(any)))
        for d in dims)


def _membership_by_coordinates(factors):
    """The product's flags point by point: index i splits into one
    index per factor, the first factor's in the lowest digits."""
    idx = np.arange(math.prod(f.space.size for f in factors))
    memb = np.ones(len(idx), dtype=bool)
    for f in factors:
        memb &= f.membership[idx % f.space.size]
        idx //= f.space.size
    return memb


@settings(max_examples=60, deadline=None)
@given(_factors())
def test_lazy_product_matches_its_dense_twin(factors):
    p = factors[0].space.p
    space = VectorSpace(p, sum(f.space.dimension for f in factors))
    e = _product_on(space, factors, SetDescriptor.make("product"))
    assert np.array_equal(e.membership, _membership_by_coordinates(factors))
    assert e.cardinality == int(e.membership.sum())

    dense = fourier_forward(
        surface_measure(PointSet(e.space, e.membership)).as_grid())
    for pe, got in profile(e, GRID).entries:
        want = lp_average_norm(dense, pe)
        if e.cardinality == space.size:
            # the full space: mu^ vanishes off zero, up to rounding
            assert max(got, want) <= 1e-12, pe
        else:
            assert abs(got - want) <= 1e-12 * want, pe
