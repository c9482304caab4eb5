"""Threshold calculators (exact rational), optimizer, extension operator,
and power-iteration lower bounds."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ffrestrict.field import VectorSpace
from ffrestrict.ensembles import (
    PointSet,
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
from ffrestrict import families, restriction, spectral, verify
from ffrestrict.rationals import Pieces


def _space(p, d):
    return VectorSpace(p, d)


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
    f = GridFunction(space, np.ones(space.size))
    from ffrestrict.spectral import lq_mu_norm, lq_norm, multiply_density
    from ffrestrict.spectral import fourier_forward
    manual = lq_norm(fourier_forward(multiply_density(f, mu)), 4.0) \
        / lq_mu_norm(f, mu, 2.0)
    assert witness_ratio(f, mu, 4.0) == pytest.approx(manual)


def test_witness_ratio_rejects_zero_witness():
    space = _space(5, 2)
    mu = surface_measure(sphere(space, 1))
    # a Dirac mass at the origin, which is not on the sphere
    off_support = GridFunction(space, np.arange(space.size) == 0)
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


@pytest.mark.parametrize("kwargs, message", [
    ({"random_starts": -1}, "starts must be >= 0"),
    ({"max_iter": 0}, "max_iter must be >= 1"),
    ({"tol": 0.0}, "tol must be finite and > 0"),
    ({"tol": -1e-8}, "tol must be finite and > 0"),
    ({"tol": math.nan}, "tol must be finite and > 0"),
    ({"tol": math.inf}, "tol must be finite and > 0"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
])
def test_power_iter_config_rejects_broken_rules(kwargs, message):
    with pytest.raises(ValueError, match=message):
        PowerIterConfig(**kwargs)
    # the edges are allowed: no random start, a single step, seed 0
    assert PowerIterConfig(random_starts=0, max_iter=1, seed=0).max_iter == 1


# ------------------------------------------------------ batched ascent

@pytest.mark.parametrize("family, params, p, q", [
    ("hamming", {"d": 2}, 11, 3.0),
    ("hamming", {"d": 2}, 11, 6.0),
    ("sphere", {"k": 2}, 7, 4.0),
], ids=["hamming-q3", "hamming-q6", "sphere-q4"])
def test_ascent_rows_match_each_start_ascended_alone(family, params, p, q):
    # rows freeze at different steps, and no row's arithmetic may depend
    # on which other rows share its block
    mu = surface_measure(families.builder(family, params)(p))
    cfg = PowerIterConfig()
    _, starts = restriction._starts(mu, cfg)
    operator = restriction._support_operator(mu)
    batch = restriction._ascend(mu, starts, q, cfg, operator)
    assert len(set(batch[2].tolist())) > 1
    for i in range(len(starts)):
        alone = restriction._ascend(mu, starts[i:i + 1], q, cfg, operator)
        for got, want in zip(batch, alone):
            assert got[i:i + 1].tobytes() == want.tobytes(), i


def _stub_operator(kills):
    """The identity on rows x |E| blocks as the operator and its adjoint,
    except that the adjoint's k-th call returns zero for every row that
    is nonzero in support column kills[k].  Once a row is ascending, the
    adjoint's k-th call is that row's step k."""
    calls = []

    def inverse(g):
        calls.append(len(g))
        out = g.copy()
        column = kills.get(len(calls))
        if column is not None:
            out[g[:, column] != 0] = 0.0
        return out

    return (lambda block: block.copy()), inverse


def _ascend_alone(mu, start, q, cfg, operator):
    """One row's ascent, step by step as the definition reads: the
    reference for `_ascend`'s bookkeeping."""
    support = mu.support_indices()
    weights = mu.weights[support]
    forward, inverse = operator
    f = start[None, support]
    norm = np.sqrt(np.sum(np.abs(f) ** 2 * weights))
    if norm == 0.0:
        return 0.0, np.zeros_like(start), 0, True
    f = f / norm
    value = 0.0
    for it in range(1, cfg.max_iter + 1):
        g = forward(f * weights)
        new = float(np.sum(np.abs(g) ** q)) ** (1.0 / q)
        slack = cfg.tol * max(1.0, value)
        assert new >= value - slack
        stopped = None
        if abs(new - value) < slack:
            stopped = True
        else:
            nxt = inverse(np.abs(g) ** (q - 2.0) * g)
            norm = np.sqrt(np.sum(np.abs(nxt) ** 2 * weights))
            if norm == 0.0:
                stopped = True
            elif it == cfg.max_iter:
                stopped = False
        if stopped is not None:
            witness = np.zeros_like(start)
            witness[support] = f[0]
            return new, witness, it, stopped
        f, value = nxt / norm, new


def test_ascent_rows_stop_for_every_reason_as_each_row_alone():
    # seven support points of F_11 (weight 11/7), q = 3, and an identity
    # stub whose iterates concentrate on their largest entry: each row
    # stops for its own reason at its own step, and the rows that stop
    # are removed from the block between the ones that go on
    e = PointSet(VectorSpace(11, 1), np.arange(11) < 7)
    mu = surface_measure(e)
    cfg = PowerIterConfig(max_iter=5)
    rows = {  # support values: (step, converged, reason)
        (1.0, 0.5, 0, 0, 0, 0, 0): (5, False, "max_iter cap"),
        (0, 0, 0, 0, 0, 0, 0): (0, True, "zero start"),
        (1.0, 0, 0, 0, 0, 0, 0.5): (3, True, "zero next iterate"),
        (0, 0, 1.0, 0, 0, 0, 0): (2, True, "converged"),
        (1.0, 0.1, 0, 0, 0, 0, 0): (4, True, "converged"),
        (0.5, 0, 0, 1.0, 0, 0.5, 0): (5, True, "zero next iterate at cap"),
        (0.25j, 1.0, 0, 0, 0, 0, 0): (5, True, "converged at the cap"),
        (0, 0.5j, 0, 0, 1.0, 0, 0): (5, False, "max_iter cap"),
    }
    kills = {3: 6, 5: 5}
    starts = np.zeros((len(rows), 11), dtype=np.complex128)
    starts[:, :7] = list(rows)
    values, witnesses, iterations, converged = restriction._ascend(
        mu, starts, 3.0, cfg, _stub_operator(kills))
    assert [(int(it), bool(c)) for it, c in zip(iterations, converged)] \
        == [(it, c) for it, c, _ in rows.values()]
    for i, start in enumerate(starts):
        value, witness, it, settled = _ascend_alone(
            mu, start, 3.0, cfg, _stub_operator(kills))
        assert values[i].hex() == value.hex(), i
        assert witnesses[i].tobytes() == witness.tobytes(), i
        assert (iterations[i], converged[i]) == (it, settled), i


@pytest.mark.parametrize("family, params, p, q, matrix", [
    ("hamming", {"d": 2}, 11, 3.0, True),
    ("hamming", {"d": 2}, 11, 6.0, True),
    ("sphere", {"k": 2}, 7, 4.0, True),
    ("random", {"d": 2, "percent": 50}, 11, 4.0, False),
], ids=["hamming-q3", "hamming-q6", "sphere-q4", "random-q4-fft"])
def test_ascent_blocks_stay_under_the_point_cap(monkeypatch, family, params,
                                                p, q, matrix):
    # at a cap of 2 p^d the 26 starts are ascended two rows at a time,
    # and the estimate is the one-block estimate bit for bit, on either
    # side of the route rule
    mu = surface_measure(families.builder(family, params)(p))
    assert restriction._takes_matrix_route(
        mu.space, len(mu.support_indices())) is matrix
    want = extension_norm_lower_bound(mu, q)
    rows = []
    support_operator = restriction._support_operator

    def counted(mu):
        def count(apply):
            def run(block):
                rows.append(len(block))
                return apply(block)
            return run
        return tuple(count(apply) for apply in support_operator(mu))

    monkeypatch.setattr(restriction, "DEFAULT_POINT_CAP", 2 * mu.space.size)
    monkeypatch.setattr(restriction, "_support_operator", counted)
    got = extension_norm_lower_bound(mu, q)
    assert max(rows) == 2
    assert got.lower_bound.hex() == want.lower_bound.hex()
    assert (got.witness_tag, got.iterations, got.converged) == (
        want.witness_tag, want.iterations, want.converged)
    assert got.witness.values.tobytes() == want.witness.values.tobytes()


def test_ascent_starts_are_built_block_by_block():
    mu = surface_measure(families.builder("sphere", {"k": 2})(7))
    cfg = PowerIterConfig(random_starts=3, seed=4)
    tags, whole = restriction._starts(mu, cfg)
    assert len(whole) == len(tags)
    for first in range(len(tags)):
        for stop in range(first, len(tags) + 1):
            same, block = restriction._starts(mu, cfg, first, stop)
            assert same == tags
            assert block.tobytes() == whole[first:stop].tobytes()


@pytest.mark.parametrize("family", ["sidon-parabola", "sidon-embedded"])
@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_q4_ascent_attains_the_sidon_norm(family, p):
    # for a Sidon set E in a space of N points every sum x + y with
    # x, y in E has at most two representations, which makes
    # ||A||^4 = N (2/|E|^2 - 1/|E|^3) exactly
    e = families.builder(family)(p)
    n, size = e.space.size, e.cardinality
    exact = float(Fraction(n * (2 * size - 1), size ** 3)) ** 0.25
    est = extension_norm_lower_bound(surface_measure(e), 4.0)
    assert est.lower_bound == pytest.approx(exact, rel=1e-12, abs=0)


def test_q2_identity_catches_a_scaled_lq_norm(monkeypatch):
    original = restriction.lq_norm
    # a 1e-3 scale is caught before any identity is read: the ascent's
    # certification against its own iterate raises
    monkeypatch.setattr(restriction, "lq_norm",
                        lambda f, q: original(f, q) * 1.001)
    results = verify.run_suites(["restriction"])
    assert [(r.name, r.passed) for r in results] == [("suite raised", False)]
    assert "certification mismatch" in results[0].detail
    # a 1e-10 scale is inside the certification tolerance and passes
    # every other check; only the exact q = 2 and Sidon q = 4 values
    # see it
    monkeypatch.setattr(restriction, "lq_norm",
                        lambda f, q: original(f, q) * (1 + 1e-10))
    failed = [r.name for r in verify.run_suites(["restriction"])
              if not r.passed]
    assert failed == [
        f"q=2 identity {name}" + "".join(f" {k}={v}" for k, v in prm.items())
        + f" p={p}" for name, prm, p in verify.Q2_CASES] + [
        "q=4 sidon norm sidon-parabola p=5"]


@pytest.mark.parametrize("q", [3.0, 4.0, 6.0])
def test_sign_fault_breaks_the_ascent_monotonicity(q):
    # the ascent transforms through spectral._transform, so the fault
    # reaches it, and the per-row monotonicity check catches it
    mu = surface_measure(families.builder("sidon-parabola")(7))
    with verify.character_sign_fault():
        with pytest.raises(RuntimeError, match="lost monotonicity"):
            extension_norm_lower_bound(mu, q)


@pytest.mark.parametrize("p", [5, 7, 11])
@pytest.mark.parametrize("q", [3.0, 4.0, 6.0])
def test_unconjugated_inverse_matrix_is_caught(monkeypatch, p, q):
    # an adjoint built from the forward matrix, K^T instead of its
    # conjugate, returns each next iterate reflected through the origin;
    # the parabola is not symmetric, so the reflected iterate leaves the
    # ascent.  (On a set with E = -E the reflection keeps every value, so
    # the fault changes no bound there.)
    mu = surface_measure(families.builder("sidon-parabola")(p))
    assert restriction._takes_matrix_route(mu.space, p)
    matrix = spectral._character_matrix
    monkeypatch.setattr(spectral, "_character_matrix",
                        lambda space, points, sign: matrix(space, points, -1))
    with pytest.raises(RuntimeError,
                       match="lost monotonicity|certification mismatch"):
        extension_norm_lower_bound(mu, q)


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
