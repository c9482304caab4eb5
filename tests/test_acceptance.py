"""Acceptance gate: eight go/no-go criteria at pinned tolerances.

Each criterion is one test, so `pytest -v` emits exactly one pass/fail
line per criterion.  Stated runtime budgets are asserted.
"""

import math
import time
from fractions import Fraction

import numpy as np

from ffrestrict import cli, families, verify
from ffrestrict.field import VectorSpace
from ffrestrict.ensembles import (
    hamming_variety,
    is_sidon,
    random_set,
    sidon_parabola,
    surface_measure,
)
from ffrestrict.restriction import (
    PowerIterConfig,
    growth_sweep,
    main_threshold,
    mocktao_threshold,
)
from ffrestrict.salem import (
    check_universal_salem,
    fit_salem_exponent,
    hamming_exact_transform,
    universal_l2_identity,
)
from ffrestrict.spectral import (
    GridFunction,
    convolve,
    fourier_forward,
    fourier_inverse,
    lp_average_norm,
    random_function,
)


def _space(p, d, cap=None):
    if cap is None:
        return VectorSpace(p, d)
    return VectorSpace(p, d, max_points=cap)


def _sparse_function(space, seed, nnz=12):
    rng = np.random.default_rng((seed, 77))
    vals = np.zeros(space.size, dtype=np.complex128)
    at = rng.choice(space.size, size=min(nnz, space.size), replace=False)
    vals[at] = rng.standard_normal(len(at)) + 1j * rng.standard_normal(len(at))
    return GridFunction(space, vals)


def test_criterion_1_fourier_identities():
    """Plancherel, Parseval, inversion, convolution law: 1e-9 relative,
    100 seeded random functions per space, p in {3,5,7,11,13}, d in
    {1,2,3}; budget 30 s."""
    t0 = time.monotonic()
    tol = 1e-9
    for p in [3, 5, 7, 11, 13]:
        for d in [1, 2, 3]:
            space = _space(p, d)
            n = space.size
            for trial in range(100):
                f = random_function(space, seed=trial)
                g = random_function(space, seed=10_000 + trial)
                fh = fourier_forward(f)
                gh = fourier_forward(g)
                # Parseval (inner products) and Plancherel (norms)
                lhs = np.vdot(gh.values, fh.values)
                rhs = n * np.vdot(g.values, f.values)
                assert abs(lhs - rhs) <= tol * abs(rhs)
                lhs2 = np.vdot(fh.values, fh.values).real
                rhs2 = n * np.vdot(f.values, f.values).real
                assert abs(lhs2 - rhs2) <= tol * rhs2
                # inversion
                back = fourier_inverse(fh).values
                err = np.max(np.abs(back - n * f.values))
                assert err <= tol * n * np.max(np.abs(f.values))
                # convolution law against the defining double sum,
                # with a sparse second factor to keep it brute-force
                h = _sparse_function(space, seed=trial)
                lhs3 = fourier_forward(convolve(f, h)).values
                rhs3 = fh.values * fourier_forward(h).values
                scale = np.max(np.abs(rhs3)) + 1.0
                assert np.max(np.abs(lhs3 - rhs3)) <= tol * scale
    elapsed = time.monotonic() - t0
    print(f"criterion 1 PASS: 1500 functions x 4 identities, {elapsed:.1f}s")
    assert elapsed < 30


def test_criterion_2_hamming_transform_exactness():
    """Closed-form transform equals the DFT at every frequency with at
    least one zero coordinate (1e-12 absolute) for p in {3,5,7,11},
    d in {2,3,4}; at zero-free frequencies the measured constant in
    |mu^| <= C p^{-(d-1)/2} stays <= 4; budget 2 min."""
    t0 = time.monotonic()
    worst_exact = 0.0
    worst_const = 0.0
    for p in [3, 5, 7, 11]:
        for d in [2, 3, 4]:
            space = _space(p, d)
            e = hamming_variety(space, 1)
            mhat = fourier_forward(surface_measure(e).as_grid()).values
            idx = space.all_indices()
            zeros = np.zeros(space.size, dtype=np.int64)
            for axis in range(d):
                zeros += space.coordinate(idx, axis) == 0
            ell_pos = zeros >= 1
            expect = ((-1.0) ** (d - zeros[ell_pos])
                      / float(p - 1) ** (d - zeros[ell_pos]))
            gap = np.max(np.abs(mhat[ell_pos] - expect))
            worst_exact = max(worst_exact, float(gap))
            zero_free = ~ell_pos
            consts = np.abs(mhat[zero_free]) * p ** ((d - 1) / 2)
            worst_const = max(worst_const, float(consts.max()))
            # the package's closed form, at every frequency in one call
            got = hamming_exact_transform(space, 1, idx)
            assert np.max(np.abs(got - mhat)) < 1e-12
    assert worst_exact < 1e-12
    assert worst_const <= 4.0
    elapsed = time.monotonic() - t0
    print(f"criterion 2 PASS: max closed-form gap {worst_exact:.2e}, "
          f"max decay constant {worst_const:.3f}, {elapsed:.1f}s")
    assert elapsed < 120


def test_criterion_3_salem_profile_fits():
    """Fitted s within 0.1 of the closed forms: Hamming d in {3,4} at
    p_exp in {2,4,8,inf}; circle products k=2,m=2 at {2,4,inf}; cutoff
    cylinder (2,1,3) at {2,6,inf}; field sizes {5,7,11,13,17};
    budget 10 min."""
    t0 = time.monotonic()
    sizes = [5, 7, 11, 13, 17]
    cases = [
        ("hamming", {"d": 3}, [2, 4, 8, math.inf], None),
        ("hamming", {"d": 4}, [2, 4, 8, math.inf], None),
        ("sphere-product", {"k": 2, "m": 2}, [2, 4, math.inf], None),
        ("cutoff-cylinder", {"n": 2, "m": 1, "k": 3}, [2, 6, math.inf],
         17 ** 6),
    ]
    report = []
    for family, params, grid, cap in cases:
        build = families.builder(family, params,
                                 max_points=cap or 2 ** 24)
        pred = families.prediction(family, params)
        for p_exp in grid:
            want = float(pred.at(p_exp))
            fit = fit_salem_exponent(build, p_exp, sizes, predicted_s=want)
            gap = abs(fit.fitted_s - want)
            report.append((family, p_exp, fit.fitted_s, want, gap))
            assert gap <= 0.1, (family, params, p_exp, fit.fitted_s, want)
    elapsed = time.monotonic() - t0
    worst = max(r[4] for r in report)
    print(f"criterion 3 PASS: {len(report)} fits, worst gap {worst:.3f}, "
          f"{elapsed:.1f}s")
    assert elapsed < 600


def test_criterion_4_threshold_reproduction():
    """Exact rational q-range values: product spheres, the zero-sphere
    product, the cutoff cylinder, Sidon sets, Hamming varieties, and the
    p = inf reduction on 1000 random tuples; budget 1 s."""
    t0 = time.monotonic()
    # q = 2 + min{2k+2, 4m}/(k-1) for the sphere product, vs MT
    for k, m in [(2, 2), (2, 3), (3, 2), (4, 2), (3, 1)]:
        rep = families.threshold_report("sphere-product", {"k": k, "m": m})
        want = 2 + Fraction(min(2 * k + 2, 4 * m), k - 1)
        assert rep.q_corollary == want, (k, m)
    rep = families.threshold_report("sphere-product", {"k": 2, "m": 2})
    assert rep.q_corollary == Fraction(8)
    assert rep.q_mocktao == Fraction(10)
    # zero-sphere product: q = 8 at p = 4, MT = 10
    rep = families.threshold_report("zero-sphere-product", {})
    assert (rep.optimal_p, rep.q_corollary, rep.q_mocktao) == \
        (Fraction(4), Fraction(8), Fraction(10))
    # cutoff cylinder (2,1,3): q = 11/3 vs MT = 4
    rep = families.threshold_report("cutoff-cylinder",
                                    {"n": 2, "m": 1, "k": 3})
    assert (rep.q_corollary, rep.q_mocktao) == (Fraction(11, 3), Fraction(4))
    # Sidon: q = 8 at p = 4
    rep = families.threshold_report("sidon-parabola", {})
    assert (rep.optimal_p, rep.q_corollary) == (Fraction(4), Fraction(8))
    # Hamming: q = (3d-1)/(d-1) at p = 2(d-1)/(d-3), MT = 4
    for d in [4, 5, 6, 7, 9]:
        rep = families.threshold_report("hamming", {"d": d})
        assert rep.q_corollary == Fraction(3 * d - 1, d - 1), d
        assert rep.optimal_p == Fraction(2 * (d - 1), d - 3), d
        assert rep.q_mocktao == Fraction(4), d
        assert rep.improvement is True, d
    # p = inf reduction to the uniform-decay threshold, 1000 tuples
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 1000:
        d = Fraction(int(rng.integers(2, 60)), int(rng.integers(1, 8)))
        alpha = d * Fraction(int(rng.integers(1, 50)), 50)
        beta = d * Fraction(int(rng.integers(1, 50)), 50)
        if not (0 < alpha < d and 0 < beta < d):
            continue
        assert main_threshold(d, alpha, math.inf, beta) == \
            mocktao_threshold(d, alpha, beta)
        checked += 1
    elapsed = time.monotonic() - t0
    print(f"criterion 4 PASS: exact thresholds + {checked} reductions, "
          f"{elapsed:.2f}s")
    assert elapsed < 1


def test_criterion_5_extension_norm_regimes():
    """Hamming d=2 sweep over p in {5,...,23}: |slope| <= 0.15 at q = 6
    (above the proven threshold) and slope >= 0.1 at q = 3 (below the
    failure threshold); budget 15 min."""
    t0 = time.monotonic()
    sizes = [5, 7, 11, 13, 17, 19, 23]
    build = families.builder("hamming", {"d": 2})
    cfg = PowerIterConfig(random_starts=8, max_iter=500, seed=0)
    bounded = growth_sweep(build, 6.0, sizes, cfg)
    growing = growth_sweep(build, 3.0, sizes, cfg)
    assert abs(bounded.fitted_growth_exponent) <= 0.15, \
        bounded.fitted_growth_exponent
    assert growing.fitted_growth_exponent >= 0.1, \
        growing.fitted_growth_exponent
    assert all(row.estimate.converged for row in bounded.rows)
    assert families.regime_label("hamming", {"d": 2}, 6.0) == "bounded"
    assert families.regime_label("hamming", {"d": 2}, 3.0) == "growing"
    elapsed = time.monotonic() - t0
    print(f"criterion 5 PASS: slope(q=6) = "
          f"{bounded.fitted_growth_exponent:+.3f}, slope(q=3) = "
          f"{growing.fitted_growth_exponent:+.3f}, {elapsed:.1f}s")
    assert elapsed < 900


def test_criterion_6_universal_salem():
    """50 seeded random sets across p in {5,7,11}, d in {1,2}: the
    (p, 1/p)-Salem ratio stays <= 1 + 1e-9 at p_exp in {2,4,inf} and the
    L2 identity holds to 1e-12."""
    t0 = time.monotonic()
    combos = [(5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (11, 2)]
    percents = [15, 30, 50, 80]
    worst_ratio = 0.0
    worst_identity = 0.0
    for seed in range(50):
        p, d = combos[seed % len(combos)]
        e = random_set(_space(p, d), percents[seed % len(percents)],
                       seed=seed)
        for p_exp in [2.0, 4.0, math.inf]:
            rep = check_universal_salem(e, p_exp)
            assert rep.passed, (p, d, seed, p_exp, rep.ratio)
            worst_ratio = max(worst_ratio, rep.ratio)
        lhs, rhs = universal_l2_identity(e)
        gap = abs(lhs - rhs)
        worst_identity = max(worst_identity, gap)
        assert gap < 1e-12
    elapsed = time.monotonic() - t0
    print(f"criterion 6 PASS: worst ratio {worst_ratio:.6f}, worst "
          f"identity gap {worst_identity:.2e}, {elapsed:.1f}s")


def test_criterion_7_sidon_suite():
    """Parabolas are Sidon for all odd p <= 31; the averaged-norm input
    ||mu^||_p <= C |E|^{-2/p} holds with C <= 4 at p_exp in {4,6,8} over
    field sizes 5..23; the embedded negative family's fitted s stays
    under min{2/p, 1/2} + 0.1."""
    t0 = time.monotonic()
    for p in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]:
        assert is_sidon(sidon_parabola(_space(p, 2)))
    field_sizes = [5, 7, 11, 13, 17, 19, 23]
    worst_c = 0.0
    for p in field_sizes:
        e = sidon_parabola(_space(p, 2))
        mhat = fourier_forward(surface_measure(e).as_grid())
        for p_exp in [4.0, 6.0, 8.0]:
            c = lp_average_norm(mhat, p_exp) * e.cardinality ** (2 / p_exp)
            worst_c = max(worst_c, c)
    assert worst_c <= 4.0, worst_c
    build = families.builder("sidon-embedded", {})
    worst_excess = -math.inf
    for p_exp in [2.0, 4.0, 8.0, math.inf]:
        fit = fit_salem_exponent(build, p_exp, field_sizes)
        cap = 0.0 if p_exp == math.inf else min(0.5, 2.0 / p_exp)
        excess = fit.fitted_s - cap
        worst_excess = max(worst_excess, excess)
        assert excess <= 0.1, (p_exp, fit.fitted_s, cap)
    elapsed = time.monotonic() - t0
    print(f"criterion 7 PASS: worst averaged-norm constant {worst_c:.3f}, "
          f"worst embedded excess {worst_excess:+.3f}, {elapsed:.1f}s")


def test_criterion_8_invariant_suites_and_mutation_check():
    """No numeric table exists to reproduce, so the gate rests on the
    identity suites plus fault injection: every verify suite passes on
    the clean build, and the transform-identity suite fails under an
    injected character-sign fault."""
    t0 = time.monotonic()
    results = verify.run_suites(None)
    bad = [r for r in results if not r.passed]
    assert not bad, bad
    mut = verify.mutation_check(results)
    assert mut.passed, mut.detail
    # the CLI front end reports the same state with exit code 0
    assert cli.main(["verify", "--suite", "parseval"]) == 0
    with verify.character_sign_fault():
        faulted = verify._suite_parseval()
        assert any(not r.passed for r in faulted)
    elapsed = time.monotonic() - t0
    print(f"criterion 8 PASS: {len(results)} checks clean, mutation "
          f"detected, {elapsed:.1f}s")
