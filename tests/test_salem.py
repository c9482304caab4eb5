"""Spectral profiles, exponent fits, the exact Hamming transform, and
universal Salem properties."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ffrestrict import ensembles, spectral, verify
from ffrestrict.field import VectorSpace
from ffrestrict.ensembles import (
    PointSet,
    cutoff_cylinder,
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
    hamming_exact_transform,
    profile,
    universal_l2_identity,
)
from ffrestrict import families


def _space(p, d):
    return VectorSpace(p, d)


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


def test_fit_transforms_the_measure_without_a_complex_copy():
    # the largest cell holds its float64 measure (8 B per point), its
    # half spectrum (16 B per entry, about 8 B per point) and the
    # magnitudes (about 4 B per point); a complex copy of the measure
    # and its full transform would take 32 B per point
    build = families.builder("hamming", {"d": 4})
    tracemalloc.start()
    try:
        fit_salem_exponent(build, 2.0, [5, 7, 11, 31])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 16 * 31 ** 4


@pytest.mark.parametrize(
    "name, params, sizes", verify.HALF_CASES,
    ids=[name + "".join(f"-{k}{v}" for k, v in prm.items())
         for name, prm, _ in verify.HALF_CASES])
def test_half_spectrum_profile_matches_the_full_route(name, params, sizes):
    # the oracle: the measure's complex copy through the full transform
    build = families.builder(name, params)
    for p in sizes:
        e = build(p)
        full = fourier_forward(surface_measure(e).as_grid())
        for pe, got in profile(e, verify.PRODUCT_GRID).entries:
            want = lp_average_norm(full, pe)
            assert abs(got - want) <= 1e-12 * want, (name, p, pe)


def test_half_spectrum_oracle_catches_a_unit_mirror_weight(monkeypatch):
    # count each entry 0 < k < p/2 once instead of once per mirror: the
    # half spectrum then drops almost half of every power sum, except at
    # p = 2, where no entry has a mirror
    monkeypatch.setattr(spectral, "_HERMITIAN_WEIGHT", 1.0)
    results = [r for r in verify.run_suites(["salem"])
               if r.name.endswith("half spectrum vs full")]
    assert [r.passed for r in results] == [
        p == 2 for _, _, sizes in verify.HALF_CASES for p in sizes]
    lhs, rhs = universal_l2_identity(hamming_variety(_space(5, 2), 1))
    assert abs(lhs - rhs) > 1e-12
    monkeypatch.undo()
    lhs, rhs = universal_l2_identity(hamming_variety(_space(5, 2), 1))
    assert abs(lhs - rhs) <= 1e-12
    assert verify.mutation_check().detail == (
        "16 checks failed under fault (parseval 15, restriction 1)")


@pytest.mark.parametrize(
    "name, params, sizes", verify.PRODUCT_CASES,
    ids=[name + "".join(f"-{k}{v}" for k, v in prm.items())
         for name, prm, _ in verify.PRODUCT_CASES])
def test_product_profile_matches_the_dense_route(name, params, sizes):
    # the oracle: the same membership with its factors forgotten is
    # transformed densely
    build = families.builder(name, params)
    for p in sizes:
        e = build(p)
        assert len(e.factors) == 2
        got = profile(e, verify.PRODUCT_GRID)
        want = profile(PointSet(e.space, e.membership), verify.PRODUCT_GRID)
        assert got.set_size == want.set_size
        for (pe, g), (_, w) in zip(got.entries, want.entries):
            assert abs(g - w) <= 1e-12 * w, (name, p, pe)


def test_cylinder_profile_never_makes_the_bitmap():
    # the Salem route reads a product's factors only, so the p = 17
    # cylinder's 24.1M-flag bitmap is not made until it is asked for
    tracemalloc.start()
    try:
        e = cutoff_cylinder(VectorSpace(17, 6, max_points=17 ** 6), 2, 1, 3)
        profile(e, [2, 6, math.inf])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    memb = e.membership
    eager = e.factors[0].membership
    for f in e.factors[1:]:
        eager = np.outer(f.membership, eager).reshape(-1)
    assert np.array_equal(memb, eager)
    assert not memb.flags.writeable
    assert e.membership is memb


def test_products_oracle_catches_a_cardinality_that_drops_a_factor(
        monkeypatch):
    original = ensembles._product_cardinality
    monkeypatch.setattr(ensembles, "_product_cardinality",
                        lambda factors: original(factors[:-1]))
    faulted = [r for r in verify.run_suites(["products"]) if not r.passed]
    # sidon-embedded's last factor is the one point {0}, so dropping it
    # leaves its cardinality right
    assert len(faulted) == sum(len(sizes)
                               for name, _, sizes in verify.PRODUCT_CASES
                               if name != "sidon-embedded")
    e = families.builder("sphere-product")(5)
    lhs, rhs = universal_l2_identity(e)
    assert abs(lhs - rhs) > 1e-12
    monkeypatch.undo()
    lhs, rhs = universal_l2_identity(families.builder("sphere-product")(5))
    assert abs(lhs - rhs) <= 1e-12


def test_one_factor_norm_is_the_dense_norm_bit_for_bit():
    e = hamming_variety(_space(7, 3), 1)
    mhat = fourier_forward(surface_measure(e).as_grid())
    for pe in (1.0, 2.0, 6.0, 64.0, math.inf):
        assert lp_average_norm((mhat,), pe) == lp_average_norm(mhat, pe)
    with pytest.raises(ValueError):
        lp_average_norm((), 2.0)


def test_product_oracle_catches_a_faulty_factor_fold(monkeypatch):
    # drop the cross term of the fold: the product's power sum then
    # misses every frequency that is nonzero in two factors at once
    monkeypatch.setattr(spectral, "_fold",
                        lambda total, a, top_r: total + a)
    faulted = [r for r in verify.run_suites(["products"]) if not r.passed]
    assert len(faulted) == sum(len(sizes)
                               for _, _, sizes in verify.PRODUCT_CASES)
    # the character-sign mutation line does not move
    assert verify.mutation_check().detail == (
        "16 checks failed under fault (parseval 15, restriction 1)")


def test_product_oracle_catches_the_zero_frequency_summed(monkeypatch):
    # sum over xi = 0 as well: in units of M^r that adds M^-r to the
    # product's power sum
    original = spectral._fold
    monkeypatch.setattr(spectral, "_fold",
                        lambda total, a, top_r: original(total, a, top_r)
                        + 1.0 / top_r)
    assert not any(r.passed for r in verify.run_suites(["products"]))


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

HAMMING_CASES = [(p, d, j) for p in (2, 3, 5, 7, 13) for d in (2, 3, 4)
                 if p ** d <= 3000 for j in sorted({1, p - 1, 2})
                 if j < p]


@pytest.mark.parametrize("p, d, j", HAMMING_CASES,
                         ids=[f"p{p}-d{d}-j{j}" for p, d, j in HAMMING_CASES])
def test_hamming_exact_transform_matches_the_dense_transform(p, d, j):
    # every frequency, zero-free ones included, from one call; j = 2
    # tells j from 1/j
    space = _space(p, d)
    e = hamming_variety(space, j)
    mhat = fourier_forward(surface_measure(e).as_grid()).values
    idx = space.all_indices()
    got = hamming_exact_transform(space, j, idx)
    assert got.shape == mhat.shape
    assert np.max(np.abs(got - mhat)) <= 1e-12
    # square-root cancellation at the zero-free frequencies
    free = np.all([space.coordinate(idx, a) != 0 for a in range(d)], axis=0)
    assert np.max(np.abs(got[free])) * p ** ((d - 1) / 2) <= 4.0


def test_hamming_exact_transform_value():
    # d = 2, m = (t, 0) with t != 0: value -1/(p-1), exactly
    space = _space(7, 2)
    val = hamming_exact_transform(space, 1, space.encode((3, 0)))
    assert val == complex(-1 / 6)


def test_hamming_exact_at_zero_frequency_is_total_mass():
    # l = d at m = 0, and the closed form degenerates to mu^(0) = 1
    assert hamming_exact_transform(_space(5, 2), 1, 0) == 1.0


def test_hamming_exact_rejects_j_zero():
    space = _space(5, 2)
    with pytest.raises(ValueError, match="j != 0"):
        hamming_exact_transform(space, 0, space.encode((1, 1)))
    # and any index outside [0, p^d), or one that is not an integer
    for m in (-1, 25, np.array([0, 25])):
        with pytest.raises(ValueError, match="out of range"):
            hamming_exact_transform(space, 1, m)
    # a coordinate tuple or a list is not read as flat indices
    for m in (np.array([1.0, 2.0]), (3, 0), [3, 0], 3.0):
        with pytest.raises(TypeError, match="flat indices"):
            hamming_exact_transform(space, 1, m)


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
        e = random_set(_space(p, d), 30, seed=t)
        for p_exp in [2.0, 4.0, math.inf]:
            rep = check_universal_salem(e, p_exp)
            assert rep.passed, (p, d, p_exp, rep.ratio)
            assert rep.ratio <= 1 + 1e-9


def test_universal_l2_identity_exact():
    for p, d in [(5, 1), (7, 2), (11, 1)]:
        e = random_set(_space(p, d), 40, seed=p + d)
        lhs, rhs = universal_l2_identity(e)
        assert abs(lhs - rhs) < 1e-12
        assert rhs == pytest.approx(1 / e.cardinality - p ** (-d))


def test_universal_salem_rejects_exponent_below_two():
    e = sphere(_space(5, 2), 1)
    with pytest.raises(ValueError):
        check_universal_salem(e, 1.5)
