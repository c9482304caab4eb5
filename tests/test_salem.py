"""Spectral profiles, exponent fits, the exact Hamming transform, and
universal Salem properties."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ffrestrict.field import PrimeField, VectorSpace
from ffrestrict.ensembles import (
    full_space,
    hamming_variety,
    random_set,
    sphere,
    surface_measure,
)
from ffrestrict.spectral import fourier_forward, lp_average_norm
from ffrestrict.salem import (
    check_universal_salem,
    fit_salem_exponent,
    hamming_decay_constant,
    hamming_exact_transform,
    profile,
    universal_l2_identity,
)
from ffrestrict import families


def _space(p, d):
    return VectorSpace(PrimeField(p), d)


# ------------------------------------------------------------ profiles

def test_profile_matches_direct_norms():
    e = hamming_variety(_space(7, 2), 1)
    prof = profile(e, [2, 4, math.inf])
    mhat = fourier_forward(surface_measure(e).as_grid())
    for p_exp, norm in prof.entries:
        assert norm == pytest.approx(lp_average_norm(mhat, p_exp))
    assert prof.field_size == 7
    assert prof.dimension == 2
    assert prof.set_size == 6
    assert prof.descriptor == e.descriptor
    assert prof.norm_at(4.0) == pytest.approx(lp_average_norm(mhat, 4.0))


def test_profile_entries_sorted_and_deduplicated():
    e = sphere(_space(5, 2), 1)
    prof = profile(e, [8, 2, 8, math.inf, 2])
    assert [pe for pe, _ in prof.entries] == [2.0, 8.0, math.inf]


def test_profile_norms_monotone_in_p_exp():
    for p in [5, 7, 11]:
        e = hamming_variety(_space(p, 2), 1)
        prof = profile(e, [1, 2, 4, 8, 16, math.inf])
        norms = [n for _, n in prof.entries]
        assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_norm_at_unknown_exponent_raises():
    e = sphere(_space(5, 2), 1)
    prof = profile(e, [2])
    with pytest.raises(KeyError):
        prof.norm_at(3.0)


# ---------------------------------------------------------------- fits

def test_fit_recovers_hamming_exponent():
    build = families.builder("hamming", {"d": 3})
    fit = fit_salem_exponent(build, 2.0, [5, 7, 11, 13, 17],
                             predicted_s=families.prediction(
                                 "hamming", {"d": 3}).at(2))
    # closed form: min(1/(d-1) + 1/p, 1/2) = 1/2 at p_exp = 2
    assert fit.predicted_s == Fraction(1, 2)
    assert abs(fit.fitted_s - 0.5) < 0.1
    assert fit.n_points == 5
    assert fit.stderr < 0.05


def test_fit_frees_the_measure_before_transforming():
    # the largest cell holds its complex input and output (2 x 16 B per
    # point); a float64 measure still alive would add another 0.5 x
    build = families.builder("hamming", {"d": 4})
    tracemalloc.start()
    try:
        fit_salem_exponent(build, 2.0, [5, 7, 11, 31])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.4 * 16 * 31 ** 4


def test_fit_requires_four_sizes():
    build = families.builder("hamming", {"d": 2})
    with pytest.raises(ValueError, match="4 field sizes"):
        fit_salem_exponent(build, 2.0, [5, 7, 11])
    with pytest.raises(ValueError, match="4 field sizes"):
        fit_salem_exponent(build, 2.0, [5, 5, 5, 5])


def test_fit_rejects_degenerate_family():
    # the full space has mu^ = dirac at 0: all masked norms vanish
    build = families.builder("full-space", {"d": 1})
    with pytest.raises(ValueError, match="degenerate"):
        fit_salem_exponent(build, 2.0, [5, 7, 11, 13])


# ------------------------------------------------- exact hamming facts

def test_hamming_exact_transform_all_nonzero_frequencies():
    for p, d in [(3, 2), (5, 2), (3, 3), (5, 3)]:
        space = _space(p, d)
        e = hamming_variety(space, 1)
        mhat = fourier_forward(surface_measure(e).as_grid()).values
        for idx in range(1, space.size):
            coords = space.decode(idx)
            if 0 not in coords:
                continue  # Kloosterman regime, no closed form
            got = hamming_exact_transform(space, 1, coords)
            assert abs(got - mhat[idx]) < 1e-12


def test_hamming_exact_transform_value():
    # d = 2, m = (t, 0) with t != 0: value -1/(p-1)
    space = _space(7, 2)
    val = hamming_exact_transform(space, 1, (3, 0))
    assert val == pytest.approx(-1.0 / 6)
    # fully zero-free frequency falls back to the character sum route
    direct = hamming_exact_transform(space, 1, (2, 3))
    mhat = fourier_forward(
        surface_measure(hamming_variety(space, 1)).as_grid()).values
    assert abs(direct - mhat[space.encode((2, 3))]) < 1e-12


def test_hamming_exact_at_zero_frequency_is_total_mass():
    # l = d at m = 0, and the closed form degenerates to mu^(0) = 1
    assert hamming_exact_transform(_space(5, 2), 1, (0, 0)) == 1.0


def test_hamming_exact_rejects_j_zero():
    with pytest.raises(ValueError):
        hamming_exact_transform(_space(5, 2), 0, (1, 1))


def test_hamming_decay_constant_small():
    for p, d in [(5, 2), (7, 2), (5, 3)]:
        space = _space(p, d)
        worst = 0.0
        for idx in range(1, space.size):
            coords = space.decode(idx)
            if 0 in coords:
                continue
            worst = max(worst, hamming_decay_constant(space, 1, coords))
        assert worst <= 4.0


def test_hamming_decay_constant_requires_zero_free():
    with pytest.raises(ValueError):
        hamming_decay_constant(_space(5, 2), 1, (3, 0))


# ------------------------------------------------------- closed forms

def test_predict_hamming_values():
    def s(d, pe):
        return families.prediction("hamming", {"d": d}).at(pe)
    assert s(4, 12) == Fraction(5, 12)
    assert s(4, math.inf) == Fraction(1, 3)
    assert s(2, 4) == Fraction(1, 2)
    assert s(3, math.inf) == Fraction(1, 2)


def test_predict_sphere_product_values():
    def s(k, m, pe):
        return families.prediction("sphere-product", {"k": k, "m": m}).at(pe)
    assert s(2, 2, math.inf) == Fraction(1, 4)
    assert s(2, 2, 4) == Fraction(1, 2)
    assert s(2, 2, 8) == Fraction(3, 8)
    # single sphere: s = 1/2 at every exponent
    assert s(3, 1, 2) == Fraction(1, 2)
    assert s(3, 1, math.inf) == Fraction(1, 2)


def test_predict_cutoff_cylinder_values():
    pred = families.prediction("cutoff-cylinder", {"n": 2, "m": 1, "k": 3})
    assert pred.at(math.inf) == Fraction(1, 5)
    # both branches meet at the phase-transition exponent p* = 6
    assert pred.at(6) == Fraction(11, 30)
    assert pred.at(2) == Fraction(1, 2)


def test_predict_zero_sphere_values():
    pred = families.prediction("zero-sphere-product")
    assert pred.at(4) == Fraction(3, 8)
    # the cone factor dominates uniform decay: s_inf = 1/8, not 1/4
    assert pred.at(math.inf) == Fraction(1, 8)


def test_predict_sidon_values():
    pred = families.prediction("sidon-parabola")
    assert pred.at(4) == Fraction(1, 2)
    assert pred.at(8) == Fraction(1, 4)
    assert pred.at(2) == Fraction(1, 2)
    assert pred.at(math.inf) == 0


# ------------------------------------------------------ universal salem

def test_universal_salem_random_sets():
    for t, (p, d) in enumerate([(5, 1), (7, 1), (5, 2), (7, 2), (11, 1)]):
        e = random_set(_space(p, d), 0.3, seed=t)
        for p_exp in [2.0, 4.0, math.inf]:
            rep = check_universal_salem(e, p_exp)
            assert rep.passed, (p, d, p_exp, rep.ratio)
            assert rep.ratio <= 1 + 1e-9


def test_universal_l2_identity_exact():
    for p, d in [(5, 1), (7, 2), (11, 1)]:
        e = random_set(_space(p, d), 0.4, seed=p + d)
        lhs, rhs = universal_l2_identity(e)
        assert abs(lhs - rhs) < 1e-12
        assert rhs == pytest.approx(1 / e.cardinality - p ** (-d))


def test_universal_salem_rejects_exponent_below_two():
    e = sphere(_space(5, 2), 1)
    with pytest.raises(ValueError):
        check_universal_salem(e, 1.5)
