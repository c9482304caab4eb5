"""Named invariant suites at desk scale, plus a mutation self-check.

Each suite re-derives identities from independent routes (defining sums,
closed forms, exact rational algebra) and compares against the optimized
paths.  The mutation check flips the forward character sign and demands
that the transform-identity suite notices; it guards against the suite
itself going vacuous.

Scale policy: exhaustive checks for p <= 13, sampled checks up to p = 23,
and defining-sum checks of the transform up to p = 127.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from . import families, spectral
from .ensembles import (
    PointSet,
    hamming_variety,
    is_sidon,
    random_set,
    sidon_parabola,
    sphere,
    surface_measure,
)
from .field import PrimeField, VectorSpace
from .reports import read_csv, read_set, write_csv, write_set
from .restriction import (
    extension_norm_lower_bound,
    improvement_condition,
    interpolation_params,
    main_threshold,
    mocktao_threshold,
    salem_threshold,
    witness_ratio,
    PowerIterConfig,
)
from .salem import (
    check_universal_salem,
    hamming_decay_constant,
    hamming_exact_transform,
    profile,
    universal_l2_identity,
)
from .spectral import (
    FFMeasure,
    GridFunction,
    convolve,
    dft_reference,
    fourier_forward,
    fourier_inverse,
    lp_average_norm,
    parseval,
    random_function,
)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


@contextlib.contextmanager
def character_sign_fault() -> Iterator[None]:
    """Swap in a transform whose character has sign +1 in both
    directions, so the forward transform is wrong and the inverse is
    not; for mutation testing only.  The defining-sum and inversion
    checks must fail.  The original transform is restored on exit."""
    original = spectral._transform
    spectral._transform = lambda space, values, sign: original(
        space, values, +1)
    try:
        yield
    finally:
        spectral._transform = original


def _space(p: int, d: int) -> VectorSpace:
    return VectorSpace(PrimeField(p), d)


def _suite_field() -> list[CheckResult]:
    out = []
    for p in (2, 3, 5, 7, 13):
        fld = PrimeField(p)
        ok = all(fld.mul(a, fld.inv(a)) == 1 for a in range(1, p))
        ok = ok and all(fld.add(a, fld.neg(a)) == 0 for a in range(p))
        ok = ok and all(fld.pow(a, p - 1) == 1 for a in range(1, p))
        out.append(CheckResult("field", f"arithmetic p={p}", ok))
    for p, d in ((3, 4), (5, 3), (7, 2), (13, 1)):
        space = _space(p, d)
        ok = all(space.encode(space.decode(i)) == i
                 for i in range(space.size))
        out.append(CheckResult("field", f"index bijection F_{p}^{d}", ok))
    for p, d in ((3, 2), (5, 2), (7, 1), (11, 2)):
        space = _space(p, d)
        idx = space.all_indices()
        worst = 0.0
        for xi in (1, space.size - 1, space.size // 2):
            if xi == 0:
                continue
            dots = np.zeros(space.size, dtype=np.int64)
            for ax in range(d):
                dots += space.coordinate(np.int64(xi), ax) \
                    * space.coordinate(idx, ax)
            total = abs(space.chi_table[dots % p].sum())
            worst = max(worst, float(total))
        ok = worst <= 1e-9 * space.size
        out.append(CheckResult("field", f"character orthogonality F_{p}^{d}",
                               ok, f"max |sum| = {worst:.2e}"))
    return out


def _suite_parseval() -> list[CheckResult]:
    out = []
    for p, d in ((3, 2), (5, 2), (7, 1), (11, 1), (13, 2)):
        space = _space(p, d)
        f = random_function(space, seed=1000 + p * 10 + d)
        g = random_function(space, seed=2000 + p * 10 + d)
        n1 = float(np.sum(np.abs(f.values)))

        ref = dft_reference(f)
        fh = fourier_forward(f)
        ok = bool(np.max(np.abs(fh.values - ref.values)) <= 1e-9 * n1)
        out.append(CheckResult("parseval", f"defining sum F_{p}^{d}", ok))

        inv = fourier_inverse(fh)
        err = np.max(np.abs(inv.values - space.size * f.values))
        ok = bool(err <= 1e-9 * space.size * np.max(np.abs(f.values)))
        out.append(CheckResult("parseval", f"inversion F_{p}^{d}", ok))

        lhs, rhs = parseval(f, g)
        scale = space.size * float(np.linalg.norm(f.values)
                                   * np.linalg.norm(g.values))
        ok = abs(lhs - rhs) <= 1e-9 * scale
        out.append(CheckResult("parseval", f"parseval F_{p}^{d}", ok))

        ph_lhs = float(np.sum(np.abs(fh.values) ** 2))
        ph_rhs = space.size * float(np.sum(np.abs(f.values) ** 2))
        ok = abs(ph_lhs - ph_rhs) <= 1e-9 * ph_rhs
        out.append(CheckResult("parseval", f"plancherel F_{p}^{d}", ok))

        conv = fourier_forward(convolve(f, g)).values
        prod = fh.values * fourier_forward(g).values
        denom = float(np.max(np.abs(prod))) or 1.0
        ok = bool(np.max(np.abs(conv - prod)) <= 1e-9 * denom)
        out.append(CheckResult("parseval", f"convolution law F_{p}^{d}", ok))
    for p, d in ((67, 1), (101, 1), (127, 1), (67, 2)):
        space = _space(p, d)
        f = random_function(space, seed=p + d)
        want = dft_reference(f, max_points=space.size).values
        got = fourier_forward(f).values
        err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        out.append(CheckResult("parseval", f"defining sum F_{p}^{d}",
                               err <= 1e-12, f"rel err = {err:.2e}"))
    return out


def _suite_ensembles() -> list[CheckResult]:
    out = []
    for p in (3, 5, 7, 11):
        for d in (2, 3, 4):
            space = _space(p, d)
            for j in (1, p - 1):
                e = hamming_variety(space, j)
                ok = e.cardinality == (p - 1) ** (d - 1)
                out.append(CheckResult(
                    "ensembles", f"hamming size p={p} d={d} j={j}", ok))
    for p in (3, 5, 7, 11, 13):
        for k in (2, 3):
            e = sphere(_space(p, k), 1)
            bound = 2 * p ** ((k - 1) / 2 + 0.5)
            ok = abs(e.cardinality - p ** (k - 1)) <= bound
            out.append(CheckResult(
                "ensembles", f"sphere count band p={p} k={k}", ok,
                f"|S| = {e.cardinality}"))
    for p in (3, 5, 7, 11, 13):
        e = sidon_parabola(_space(p, 2))
        out.append(CheckResult("ensembles", f"parabola sidon p={p}",
                               e.cardinality == p and is_sidon(e)))
    for p, d in ((5, 2), (7, 2)):
        e = random_set(_space(p, d), 40, seed=p)
        mu = surface_measure(e)
        ok = abs(float(mu.weights.sum()) - 1.0) <= 1e-12
        ok = ok and np.array_equal(mu.support_indices(), e.indices())
        out.append(CheckResult("ensembles", f"surface measure p={p} d={d}", ok))
    return out


def _suite_hamming() -> list[CheckResult]:
    out = []
    for p in (3, 5, 7):
        for d in (2, 3):
            space = _space(p, d)
            e = hamming_variety(space, 1)
            mhat = fourier_forward(surface_measure(e).as_grid()).values
            worst = 0.0
            worst_c = 0.0
            for m in range(space.size):
                coords = space.decode(m)
                exactv = hamming_exact_transform(space, 1, coords)
                worst = max(worst, abs(mhat[m] - exactv))
                if all(coords):
                    worst_c = max(worst_c,
                                  hamming_decay_constant(space, 1, coords))
            out.append(CheckResult(
                "hamming", f"closed form p={p} d={d}", worst <= 1e-12,
                f"max |diff| = {worst:.2e}"))
            out.append(CheckResult(
                "hamming", f"decay constant p={p} d={d}", worst_c <= 4.0,
                f"C = {worst_c:.3f}"))
    return out


def _suite_salem() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(7)
    for trial in range(6):
        p = int(rng.choice((5, 7, 11)))
        d = int(rng.choice((1, 2)))
        e = random_set(_space(p, d), int(rng.integers(10, 91)),
                       seed=300 + trial)
        for p_exp in (2.0, 4.0, math.inf):
            rep = check_universal_salem(e, p_exp)
            out.append(CheckResult(
                "salem", f"universal p={p} d={d} p_exp={p_exp} t={trial}",
                rep.passed, f"ratio = {rep.ratio:.6f}"))
        lhs, rhs = universal_l2_identity(e)
        out.append(CheckResult(
            "salem", f"l2 identity p={p} d={d} t={trial}",
            abs(lhs - rhs) <= 1e-12, f"|diff| = {abs(lhs - rhs):.2e}"))
    for p in (5, 7, 11):
        e = hamming_variety(_space(p, 2), 1)
        mhat = fourier_forward(surface_measure(e).as_grid())
        grid = [1.0, 2.0, 4.0, 8.0, 16.0, math.inf]
        norms = [lp_average_norm(mhat, pe) for pe in grid]
        mono = all(norms[i] <= norms[i + 1] + 1e-12
                   for i in range(len(norms) - 1))
        out.append(CheckResult("salem", f"norm monotonicity p={p}", mono))
        out.append(CheckResult("salem", f"trivial bound p={p}",
                               norms[-1] <= 1.0 + 1e-12))
    return out


# (family, params, field sizes) for the product-route oracle
PRODUCT_CASES = (
    ("cutoff-cylinder", {"n": 2, "m": 1, "k": 3}, (3, 5, 7)),
    ("sphere-product", {"k": 2, "m": 2}, (3, 5, 7)),
    ("sphere-product", {"k": 3, "m": 2}, (3, 5, 7)),
    ("zero-sphere-product", {}, (3, 5)),
)
PRODUCT_GRID = (1.0, 2.0, 4.0, 6.0, 8.0, 64.0, math.inf)


def _suite_products() -> list[CheckResult]:
    """The factor route of `profile` against the dense transform of the
    same membership with its factors forgotten."""
    out = []
    for name, params, sizes in PRODUCT_CASES:
        build = families.builder(name, params)
        for p in sizes:
            e = build(p)
            got = profile(e, PRODUCT_GRID).entries
            want = profile(PointSet(e.space, e.membership),
                           PRODUCT_GRID).entries
            errs = [abs(g - w) / w for (_, g), (_, w) in zip(got, want)]
            label = "".join(f" {k}={v}" for k, v in params.items())
            out.append(CheckResult(
                "products", f"{name}{label} p={p} vs dense",
                len(e.factors) > 1 and all(err <= 1e-12 for err in errs),
                f"{len(e.factors)} factors, rel err = {max(errs):.2e}"))
    return out


def _suite_restriction() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 8))
        alpha = Fraction(int(rng.integers(1, 4 * d)), 4)
        if not 0 < alpha < d:
            continue
        beta = Fraction(int(rng.integers(1, 4 * d)), 4)
        if not 0 < beta < d:
            continue
        lhs = main_threshold(d, alpha, math.inf, beta)
        rhs = mocktao_threshold(d, alpha, beta)
        worst = max(worst, abs(float(lhs) - float(rhs)))
    out.append(CheckResult("restriction", "p=inf reduction (200 tuples)",
                           worst == 0.0, f"max |diff| = {worst}"))

    ok = True
    for _ in range(100):
        d = int(rng.integers(2, 8))
        alpha = Fraction(int(rng.integers(1, 4 * d)), 4)
        if not 0 < alpha < d:
            continue
        pe = Fraction(int(rng.integers(4, 64)), 2)
        beta = Fraction(int(rng.integers(1, 4 * d)), 4)
        if not 0 < beta < d or beta < 2 * Fraction(d) / pe:
            continue
        lam, q_lam, q0 = interpolation_params(d, alpha, pe, beta)
        ok = ok and 0 <= lam <= 1 and q_lam == q0
    out.append(CheckResult("restriction", "q(lambda) = q0 (100 tuples)", ok))

    ok = True
    for _ in range(100):
        d = int(rng.integers(2, 8))
        alpha = Fraction(int(rng.integers(1, 4 * d)), 4)
        if not 0 < alpha < d:
            continue
        pe = Fraction(int(rng.integers(2, 32)))
        s = Fraction(int(rng.integers(1, 8)), 8)
        beta = 2 * alpha * s
        if not 0 < beta < d:
            # the substitution can leave the decay-exponent domain
            continue
        q_salem = salem_threshold(d, alpha, pe, s)
        q_match = main_threshold(d, alpha, pe, beta)
        if (q_salem is None) != (q_match is None):
            ok = False
        elif q_salem is not None and q_salem != q_match:
            ok = False
    out.append(CheckResult(
        "restriction", "salem form matches beta substitution", ok))

    report = families.threshold_report("hamming", {"d": 4})
    ok = (report.q_corollary == Fraction(11, 3)
          and report.optimal_p == Fraction(6)
          and report.q_mocktao == Fraction(4)
          and report.improvement)
    out.append(CheckResult("restriction", "hamming d=4 thresholds", ok))

    e = hamming_variety(_space(5, 2), 1)
    mu = surface_measure(e)
    cfg = PowerIterConfig(random_starts=2, max_iter=200)
    est = extension_norm_lower_bound(mu, 4.0, cfg)
    f = random_function(mu.space, seed=9)
    ratio = witness_ratio(f, mu, 4.0)
    out.append(CheckResult(
        "restriction", "multistart dominates a random witness",
        ratio <= est.lower_bound + 1e-9,
        f"witness {ratio:.6f} vs bound {est.lower_bound:.6f}"))
    return out


def _suite_reports() -> list[CheckResult]:
    out = []
    e = hamming_variety(_space(5, 3), 2)
    buf = io.StringIO()
    write_set(buf, e)
    buf.seek(0)
    e2 = read_set(buf)
    ok = (np.array_equal(e.membership, e2.membership)
          and e2.descriptor == e.descriptor)
    out.append(CheckResult("reports", "set file round-trip", ok))

    rows = [{"family": "hamming", "params": '{"d":2,"j":1}', "p": 5, "d": 2,
             "p_exp": "inf", "norm": "0.25", "log_set_size": "1.5",
             "log_norm": "-1.5"}]
    buf = io.StringIO()
    write_csv(buf, ("family", "params", "p", "d", "p_exp", "norm",
                    "log_set_size", "log_norm"), rows, {"cmd": "demo"})
    buf.seek(0)
    env, rows2 = read_csv(buf)
    ok = (env["config"] == {"cmd": "demo"} and env["timestamp"] is None
          and [dict(r) for r in rows2]
          == [{k: str(v) for k, v in rows[0].items()}])
    out.append(CheckResult("reports", "csv round-trip", ok))
    return out


SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "field": _suite_field,
    "parseval": _suite_parseval,
    "ensembles": _suite_ensembles,
    "hamming": _suite_hamming,
    "salem": _suite_salem,
    "products": _suite_products,
    "restriction": _suite_restriction,
    "reports": _suite_reports,
}


def run_suites(names: list[str] | None = None) -> list[CheckResult]:
    """Run the named suites (default all); a suite that raises is one
    failed check, and the later suites still run."""
    chosen = names or sorted(SUITES)
    for name in chosen:
        if name not in SUITES:
            raise ValueError(
                f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    results: list[CheckResult] = []
    for name in chosen:
        try:
            results.extend(SUITES[name]())
        except Exception as exc:
            results.append(CheckResult(
                name, "suite raised", False, f"{type(exc).__name__}: {exc}"))
    return results


def mutation_check(results: list[CheckResult] | None = None) -> CheckResult:
    """The transform-identity suite must fail under a flipped forward
    character sign and pass without it.

    The clean pass is read from the parseval checks in `results` when a
    caller has already run that suite; otherwise it is run here.
    """
    clean = [r for r in results or () if r.suite == "parseval"] \
        or _suite_parseval()
    with character_sign_fault():
        faulted = [r for r in _suite_parseval() if not r.passed]
    ok = all(r.passed for r in clean) and len(faulted) > 0
    detail = (f"{len(faulted)} checks failed under fault" if faulted
              else "fault went unnoticed")
    return CheckResult("mutation", "character sign fault detected", ok, detail)
