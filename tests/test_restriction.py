"""Threshold calculators (exact rational), optimizer, extension operator,
and power-iteration lower bounds."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ffrestrict.field import PrimeField, VectorSpace
from ffrestrict.ensembles import (
    hamming_variety,
    sidon_parabola,
    sphere,
    surface_measure,
)
from ffrestrict.spectral import FFMeasure, GridFunction, random_function
from ffrestrict.restriction import (
    PowerIterConfig,
    extension_apply,
    extension_norm_lower_bound,
    growth_sweep,
    improvement_condition,
    interpolation_params,
    main_threshold,
    mocktao_threshold,
    optimize_p,
    salem_threshold,
    witness_ratio,
)
from ffrestrict import families
from ffrestrict.rationals import Pieces


def _space(p, d):
    return VectorSpace(PrimeField(p), d)


rationals = st.fractions(min_value=Fraction(1, 32), max_value=100,
                         max_denominator=64)


# ----------------------------------------------------------- thresholds

def test_mocktao_values():
    assert mocktao_threshold(2, 1, 1) == Fraction(6)
    assert mocktao_threshold(4, 3, 1) == Fraction(6)
    assert mocktao_threshold(6, 4, 1) == Fraction(10)
    assert isinstance(mocktao_threshold(3, Fraction(3, 2), 1), Fraction)


def test_mocktao_domain():
    with pytest.raises(ValueError):
        mocktao_threshold(2, 2, 1)
    with pytest.raises(ValueError):
        mocktao_threshold(2, 1, 0)
    with pytest.raises(ValueError):
        mocktao_threshold(2, 1, 2)


def test_main_threshold_reduces_to_mocktao_at_inf():
    assert main_threshold(4, 3, math.inf, 1) == mocktao_threshold(4, 3, 1)


def test_main_threshold_inadmissible_returns_none():
    # beta_p < 2d/p
    assert main_threshold(2, 1, 2, Fraction(3, 2)) is None
    assert main_threshold(2, 1, 2, 2 - Fraction(1, 10 ** 9)) is None


def test_main_threshold_hamming_d4():
    # d=4, alpha=3, p=6, beta=3: q = 2 + 20/(18-6) = 11/3
    assert main_threshold(4, 3, 6, 3) == Fraction(11, 3)


def test_salem_matches_main_under_substitution():
    # beta_p = 2 alpha s makes the two forms identical
    cases = [(4, Fraction(3), Fraction(6), Fraction(1, 2)),
             (2, Fraction(1), Fraction(4), Fraction(1, 2)),
             (6, Fraction(4), Fraction(4), Fraction(3, 8)),
             (5, Fraction(3, 2), Fraction(3), Fraction(2, 3))]
    for d, alpha, pe, s in cases:
        beta = 2 * alpha * s
        if not 0 < beta < d:
            continue
        assert salem_threshold(d, alpha, pe, s) == \
            main_threshold(d, alpha, pe, beta)


def test_salem_threshold_vacuous_at_zero_decay():
    assert salem_threshold(3, 1, math.inf, 0) == math.inf


def test_salem_threshold_inadmissible():
    # s < d/(p alpha)
    assert salem_threshold(3, 1, 4, Fraction(1, 2)) is None


def test_improvement_condition_strict():
    # equality must not count
    assert not improvement_condition(4, Fraction(1, 2), Fraction(1, 3))
    # 1/3 + (2/3)/4 = 1/2 exactly
    assert improvement_condition(4, Fraction(1, 2) + Fraction(1, 10 ** 6),
                                 Fraction(1, 3))
    assert improvement_condition(math.inf, Fraction(1, 2), Fraction(1, 3))
    assert not improvement_condition(math.inf, Fraction(1, 3), Fraction(1, 3))


def test_interpolation_identity_hamming_d4():
    lam, q_lam, q0 = interpolation_params(4, 3, 6, 3)
    assert lam == Fraction(5, 11)
    assert q_lam == Fraction(11, 3)
    assert q0 == Fraction(11, 3)


def test_interpolation_identity_at_inf():
    lam, q_lam, q0 = interpolation_params(4, 3, math.inf, 1)
    assert q_lam == q0 == mocktao_threshold(4, 3, 1)
    assert lam == Fraction(1, 3)


@settings(max_examples=200, deadline=None)
@given(rationals, rationals, st.fractions(min_value=Fraction(1, 25),
                                          max_value=1, max_denominator=30))
def test_infinite_p_reduction_property(d_raw, alpha_scale, beta_scale):
    # main threshold at p = inf equals the uniform-decay threshold
    d = 1 + d_raw
    alpha = d * alpha_scale / (1 + alpha_scale)  # strictly inside (0, d)
    beta = d * beta_scale / 2
    if not (0 < alpha < d and 0 < beta < d):
        return
    assert main_threshold(d, alpha, math.inf, beta) == \
        mocktao_threshold(d, alpha, beta)


@settings(max_examples=150, deadline=None)
@given(rationals, st.fractions(min_value=Fraction(1, 25), max_value=1,
                               max_denominator=25),
       st.sampled_from([Fraction(2), Fraction(3), Fraction(4), Fraction(6),
                        Fraction(17, 2), Fraction(12)]),
       st.fractions(min_value=Fraction(1, 25), max_value=1,
                    max_denominator=25))
def test_interpolation_q_identity_property(d_raw, alpha_scale, pe, s):
    d = 1 + d_raw
    alpha = d * alpha_scale / (1 + alpha_scale)
    beta = 2 * alpha * s
    if not 0 < beta < d or beta < 2 * d / pe:
        return
    lam, q_lam, q0 = interpolation_params(d, alpha, pe, beta)
    assert q_lam == q0
    assert 0 <= lam <= 1


@settings(max_examples=150, deadline=None)
@given(rationals, st.fractions(min_value=Fraction(1, 25), max_value=1,
                               max_denominator=25),
       st.sampled_from([Fraction(2), Fraction(3), Fraction(4), Fraction(6),
                        Fraction(12)]),
       st.fractions(min_value=Fraction(1, 25), max_value=1,
                    max_denominator=25))
def test_substitution_property(d_raw, alpha_scale, pe, s):
    d = 1 + d_raw
    alpha = d * alpha_scale / (1 + alpha_scale)
    beta = 2 * alpha * s
    if not 0 < beta < d:
        return
    lhs = salem_threshold(d, alpha, pe, s)
    rhs = main_threshold(d, alpha, pe, beta)
    assert lhs == rhs


# ------------------------------------------------------------ optimizer

def test_optimize_p_hamming_family():
    report = families.threshold_report("hamming", {"d": 4})
    assert report.optimal_p == Fraction(6)
    assert report.q_corollary == Fraction(11, 3)
    assert report.q_main == Fraction(11, 3)
    assert report.q_mocktao == Fraction(4)
    assert report.improvement is True
    assert report.lam == Fraction(5, 11)


def test_optimize_p_flat_families_pick_infinity():
    # hamming d=3 and the single sphere have q(p) decreasing in p
    r3 = families.threshold_report("hamming", {"d": 3})
    assert r3.optimal_p == math.inf
    assert r3.q_corollary == Fraction(4)
    assert r3.improvement is False
    sph = families.threshold_report("sphere", {"k": 2})
    assert sph.optimal_p == math.inf
    assert sph.q_corollary == Fraction(6)


def test_optimize_p_sphere_product():
    rep = families.threshold_report("sphere-product", {"k": 2, "m": 2})
    assert rep.optimal_p == Fraction(4)
    assert rep.q_corollary == Fraction(8)
    assert rep.q_mocktao == Fraction(10)
    assert rep.improvement is True


def test_optimize_p_zero_sphere_product():
    rep = families.threshold_report("zero-sphere-product", {})
    assert rep.optimal_p == Fraction(4)
    assert rep.q_corollary == Fraction(8)
    assert rep.q_mocktao == Fraction(10)


def test_optimize_p_cutoff_cylinder():
    rep = families.threshold_report("cutoff-cylinder",
                                    {"n": 2, "m": 1, "k": 3})
    assert rep.optimal_p == Fraction(6)
    assert rep.q_corollary == Fraction(11, 3)
    assert rep.q_mocktao == Fraction(4)
    assert rep.improvement is True


def test_optimize_p_sidon():
    rep = families.threshold_report("sidon-parabola", {})
    assert rep.optimal_p == Fraction(4)
    assert rep.q_corollary == Fraction(8)
    assert rep.q_mocktao == math.inf
    assert rep.improvement is True


def test_sidon_embedded_inadmissible_everywhere():
    rep = families.threshold_report("sidon-embedded", {})
    assert rep.optimal_p is None
    assert rep.q_main is None
    assert rep.q_corollary is None


def test_optimize_p_raises_without_admissible_exponent():
    # s = 0 everywhere: every finite p inadmissible, p = inf vacuous
    with pytest.raises(ValueError, match="no admissible"):
        optimize_p(Pieces(((1, ((0, 0),)),)), 3, Fraction(1))


def test_optimize_p_prefers_exact_candidate():
    p_opt, q_opt = optimize_p(families.prediction("hamming", {"d": 4}),
                              4, Fraction(3))
    assert p_opt == Fraction(6)
    assert isinstance(q_opt, Fraction)


@pytest.mark.parametrize("n,m,k,q", [
    (3, 1, 5, Fraction(44, 15)),
    (4, 2, 5, Fraction(44, 15)),
    (5, 3, 5, Fraction(44, 15)),
    (6, 4, 5, Fraction(44, 15)),
    (6, 1, 12, Fraction(43, 18)),
])
def test_optimize_p_cutoff_cylinder_crossing_is_exact(n, m, k, q):
    # the optimum sits on the crossing p = 8, which a float grid point
    # just below it used to shadow
    rep = families.threshold_report("cutoff-cylinder",
                                    {"n": n, "m": m, "k": k})
    assert rep.optimal_p == Fraction(8)
    assert isinstance(rep.optimal_p, Fraction)
    assert rep.q_corollary == q
    assert rep.q_main == q


def test_pieces_evaluate_exactly_and_check_their_shape():
    sidon = Pieces(((1, ((0, 1),)), (4, ((0, 2),))))
    assert sidon.at(Fraction(7, 2)) == Fraction(2, 7)
    assert sidon.at(4) == Fraction(1, 2)
    assert sidon.at(math.inf) == 0
    with pytest.raises(ValueError, match="p_exp must be >= 1"):
        sidon.at(Fraction(1, 2))
    with pytest.raises(ValueError, match="increase"):
        Pieces(((2, ((0, 1),)), (2, ((0, 2),))))
    with pytest.raises(ValueError, match="falls"):
        Pieces(((1, ((0, 2),)), (4, ((0, 1),))))
    with pytest.raises(ValueError):
        Pieces(())
    # the zero sphere has no closed-form exponent, so no q-range report
    assert families.prediction("sphere", {"r": 0}) is None
    with pytest.raises(ValueError, match="no closed-form exponent"):
        families.threshold_report("sphere", {"r": 0})


def _grid_optimum(pieces, d, alpha):
    """Least q over the float grid the optimiser once used: 512
    log-spaced p on [2, 256], and p = inf."""
    grid = np.exp(np.linspace(np.log(2.0), np.log(256.0), 512))
    qs = [salem_threshold(d, alpha, pe, pieces.at(pe))
          for pe in [*(float(v) for v in grid if v >= 2), math.inf]]
    return min((q for q in qs if q is not None and q != math.inf),
               default=None)


_lines = st.lists(st.tuples(
    st.fractions(0, Fraction(1, 2), max_denominator=12),
    st.fractions(0, 1, max_denominator=12)), min_size=1, max_size=3)


@st.composite
def _random_pieces(draw):
    segments = [(draw(st.sampled_from([1, 2])), draw(_lines))]
    if draw(st.booleans()):
        jump = draw(st.fractions(Fraction(5, 2), 64, max_denominator=8))
        lines = draw(_lines)
        # s may rise at a jump, as sidon's does at p = 4, never fall
        assume(min(a + b / jump for a, b in lines)
               >= min(a + b / jump for a, b in segments[0][1]))
        segments.append((jump, lines))
    return Pieces(tuple(segments))


@settings(max_examples=40, deadline=None)
@given(_random_pieces(), st.integers(2, 8),
       st.fractions(Fraction(1, 16), Fraction(15, 16), max_denominator=16))
def test_optimize_p_never_loses_to_the_float_grid(pieces, d, ratio):
    alpha = d * ratio
    grid_q = _grid_optimum(pieces, d, alpha)
    try:
        p_opt, q_opt = optimize_p(pieces, d, alpha)
    except ValueError:
        assert grid_q is None
        return
    assert isinstance(p_opt, Fraction) or p_opt == math.inf
    assert q_opt == salem_threshold(d, alpha, p_opt, pieces.at(p_opt))
    if grid_q is not None:
        assert q_opt <= grid_q


# ----------------------------------------------- extension lower bounds

def test_extension_apply_linear():
    space = _space(7, 2)
    mu = surface_measure(sphere(space, 1))
    f = random_function(space, seed=1)
    g = random_function(space, seed=2)
    left = extension_apply(
        GridFunction(space, 2.0 * f.values + g.values), mu).values
    right = 2.0 * extension_apply(f, mu).values + extension_apply(g, mu).values
    assert np.max(np.abs(left - right)) < 1e-9


def test_witness_ratio_matches_manual():
    space = _space(5, 2)
    mu = surface_measure(sphere(space, 1))
    f = GridFunction.constant(space)
    from ffrestrict.spectral import lq_mu_norm, lq_norm, multiply_density
    from ffrestrict.spectral import fourier_forward
    manual = lq_norm(fourier_forward(multiply_density(f, mu)), 4.0) \
        / lq_mu_norm(f, mu, 2.0)
    assert witness_ratio(f, mu, 4.0) == pytest.approx(manual)


def test_witness_ratio_rejects_zero_witness():
    space = _space(5, 2)
    mu = surface_measure(sphere(space, 1))
    off_support = GridFunction.dirac(space, 0)  # origin not on the sphere
    with pytest.raises(ValueError):
        witness_ratio(off_support, mu, 4.0)


def test_lower_bound_dominates_any_witness():
    space = _space(7, 2)
    mu = surface_measure(hamming_variety(space, 1))
    est = extension_norm_lower_bound(mu, 4.0, PowerIterConfig(
        random_starts=2, max_iter=300))
    for seed in range(5):
        f = random_function(space, seed=seed)
        assert est.lower_bound >= witness_ratio(f, mu, 4.0) - 1e-9


def test_lower_bound_certificate_reevaluates():
    space = _space(7, 2)
    mu = surface_measure(sidon_parabola(space))
    est = extension_norm_lower_bound(mu, 6.0, PowerIterConfig(
        random_starts=2))
    again = witness_ratio(est.witness, mu, 6.0)
    assert est.lower_bound == pytest.approx(again, abs=1e-9)
    assert est.converged
    assert est.iterations >= 1
    assert est.witness_tag


def test_lower_bound_deterministic():
    space = _space(11, 2)
    mu = surface_measure(hamming_variety(space, 1))
    cfg = PowerIterConfig(random_starts=3, seed=5)
    a = extension_norm_lower_bound(mu, 3.0, cfg)
    b = extension_norm_lower_bound(mu, 3.0, cfg)
    assert a.lower_bound == b.lower_bound
    assert a.witness_tag == b.witness_tag
    assert np.array_equal(a.witness.values, b.witness.values)


def test_lower_bound_rejects_bad_q():
    space = _space(5, 2)
    mu = surface_measure(sphere(space, 1))
    with pytest.raises(ValueError):
        extension_norm_lower_bound(mu, 1.5)
    with pytest.raises(ValueError):
        extension_norm_lower_bound(mu, math.inf)


# --------------------------------------------------------------- sweeps

def test_growth_sweep_requires_four_sizes():
    build = families.builder("hamming", {"d": 2})
    with pytest.raises(ValueError, match="4 field sizes"):
        growth_sweep(build, 6.0, [5, 7, 11])


def test_growth_sweep_shape_and_order():
    build = families.builder("hamming", {"d": 2})
    sweep = growth_sweep(build, 6.0, [11, 5, 13, 7],
                         PowerIterConfig(random_starts=1, max_iter=200))
    assert tuple(row.p for row in sweep.rows) == (5, 7, 11, 13)
    assert len(sweep.rows) == 4
    assert all(row.estimate.converged for row in sweep.rows)
    assert math.isfinite(sweep.fitted_growth_exponent)
    assert sweep.q == 6.0
    assert sweep.descriptor.family == "hamming"


def test_growth_sweep_dirac_witness_grows_below_failure():
    # q = 3 sits below the hamming d=2 failure threshold 4: Dirac-type
    # witnesses force growth
    build = families.builder("hamming", {"d": 2})
    sweep = growth_sweep(build, 3.0, [5, 7, 11, 13],
                         PowerIterConfig(random_starts=1, max_iter=200))
    assert sweep.fitted_growth_exponent > 0.05
