"""Extension-estimate thresholds, the extension operator, operator-norm
lower bounds, converse witnesses, and growth sweeps.

The q-range calculators evaluate, in exact rational arithmetic when the
inputs are rational:

    uniform-decay threshold   q >= 2 + 4(d - alpha) / beta_inf
    averaged threshold        q >= 2 + (4p - 4)(d - alpha) / (p beta_p - 2 alpha),
                              admissible when beta_p >= 2d/p
    Salem-exponent form       q >= 2 + (2p - 2)(d - alpha) / (alpha p s - alpha),
                              admissible when s >= d / (p alpha)

with beta_p = 2 alpha s linking the last two.  Operator norms of the
extension map A f = (f mu)^ from L^2(mu) to L^q are reported as certified
lower bounds only: each bound is re-evaluated from a stored witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .ensembles import PointSet, SetDescriptor, surface_measure
from .field import VectorSpace
from .rationals import Exact, Pieces, exact, is_inf
from .spectral import (
    FFMeasure,
    GridFunction,
    fourier_forward,
    fourier_inverse,
    lq_mu_norm,
    lq_norm,
    multiply_density,
)


def _validate_alpha(d, alpha) -> None:
    if not 0 < alpha < d:
        raise ValueError(f"alpha must lie in (0, d), got alpha={alpha}, d={d}")


def mocktao_threshold(d, alpha, beta_inf) -> Exact:
    """q >= 2 + 4(d - alpha)/beta_inf from uniform Fourier decay
    |mu^(xi)| <= c |F|^{-beta_inf/2}."""
    d, alpha, beta_inf = exact(d), exact(alpha), exact(beta_inf)
    _validate_alpha(d, alpha)
    if not 0 < beta_inf < d:
        raise ValueError(f"beta_inf must lie in (0, d), got {beta_inf}")
    return 2 + 4 * (d - alpha) / beta_inf


def main_threshold(d, alpha, p_exp, beta_p) -> Exact | None:
    """q >= 2 + (4p-4)(d-alpha)/(p beta_p - 2 alpha) from the averaged
    decay input ||mu^||_p <= c |F|^{-beta_p/2}.

    Returns None when inadmissible (beta_p < 2d/p).  At p_exp = inf the
    value reduces exactly to mocktao_threshold.
    """
    d, alpha, beta_p = exact(d), exact(alpha), exact(beta_p)
    _validate_alpha(d, alpha)
    if not 0 < beta_p < d:
        raise ValueError(f"beta_p must lie in (0, d), got {beta_p}")
    if is_inf(p_exp):
        return mocktao_threshold(d, alpha, beta_p)
    pe = exact(p_exp)
    if pe < 1:
        raise ValueError(f"p_exp must be >= 1 or inf, got {p_exp}")
    if beta_p < 2 * d / pe:
        return None
    return 2 + (4 * pe - 4) * (d - alpha) / (pe * beta_p - 2 * alpha)


def salem_threshold(d, alpha, p_exp, s) -> Exact | None:
    """q >= 2 + (2p-2)(d-alpha)/(alpha p s - alpha) for a (p, s)-Salem
    measure; the substitution beta_p = 2 alpha s applied to main_threshold.

    Returns None when inadmissible (s < d/(p alpha)); math.inf when the
    decay input is vacuous (s = 0 at p_exp = inf).
    """
    d, alpha = exact(d), exact(alpha)
    _validate_alpha(d, alpha)
    s = exact(s)
    if not 0 <= s <= 1:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    if is_inf(p_exp):
        if s == 0:
            return math.inf
        return 2 + 2 * (d - alpha) / (alpha * s)
    pe = exact(p_exp)
    if pe < 1:
        raise ValueError(f"p_exp must be >= 1 or inf, got {p_exp}")
    if s < d / (pe * alpha):
        return None
    return 2 + (2 * pe - 2) * (d - alpha) / (alpha * pe * s - alpha)


def improvement_condition(p_exp, s, s_inf) -> bool:
    """Strict test s > s_inf + (1 - s_inf)/p for beating the
    uniform-decay threshold; at p_exp = inf it degenerates to s > s_inf."""
    s, s_inf = exact(s), exact(s_inf)
    for name, v in (("s", s), ("s_inf", s_inf)):
        if not 0 <= v <= 1:
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    if is_inf(p_exp):
        return s > s_inf
    pe = exact(p_exp)
    if pe < 1:
        raise ValueError(f"p_exp must be >= 1 or inf, got {p_exp}")
    return s > s_inf + (1 - s_inf) / pe


def interpolation_params(d, alpha, p_exp, beta_p) -> tuple[Exact, Exact, Exact]:
    """The interpolation weight lambda = (beta_p/2 - d/p) / (beta_p/2 - d/p
    + d - alpha), the exponent q(lambda) = 2p/(1 - lambda + lambda p), and
    the threshold q0; q(lambda) = q0 identically.

    At p_exp = inf: lambda = (beta/2)/(beta/2 + d - alpha), q = 2/lambda.
    """
    d, alpha, beta_p = exact(d), exact(alpha), exact(beta_p)
    _validate_alpha(d, alpha)
    if is_inf(p_exp):
        lam = (beta_p / 2) / (beta_p / 2 + d - alpha)
        q_of_lambda = 2 / lam
        q0 = mocktao_threshold(d, alpha, beta_p)
    else:
        pe = exact(p_exp)
        surplus = beta_p / 2 - d / pe
        if surplus < 0:
            raise ValueError(
                f"inadmissible: beta_p = {beta_p} < 2d/p = {2 * d / pe}")
        lam = surplus / (surplus + d - alpha)
        q_of_lambda = 2 * pe / (1 - lam + lam * pe)
        q0 = main_threshold(d, alpha, pe, beta_p)
    if q_of_lambda != q0:
        raise AssertionError(
            f"interpolation identity failed: q(lambda)={q_of_lambda}, q0={q0}")
    return lam, q_of_lambda, q0


def optimize_p(pieces: Pieces, d, alpha) -> tuple[Exact, Exact]:
    """Minimize the Salem-form threshold over the averaging exponent p >= 2.

    Where s(p) follows one line a + b/p the threshold is
    q(p) = 2 + 2(d - alpha)(p - 1) / (alpha(a p + b - 1)), a Moebius map
    of p.  It is admissible where a p + b >= d/alpha > 1, so it has no
    pole there and is monotone.  The least attained q therefore sits at
    p = 2, a segment start, a crossing of two lines of one segment, a
    line's admissibility boundary p = (d/alpha - b)/a, or p = inf, and
    only those exact candidates are evaluated.  The open end of a
    segment at a jump is a limit that s never attains; it is never
    reported, and since s only rises at a jump it is never below the q
    attained there.  Ties break on the exact (q, p) order.  Raises when
    no p is admissible.
    """
    d, alpha = exact(d), exact(alpha)
    start = max(Fraction(2), pieces.domain)
    pool = {start}
    for lo, lines in pieces.segments:
        pool.add(lo)
        for i, (a, b) in enumerate(lines):
            if a != 0:
                pool.add((d / alpha - b) / a)
            pool.update((b2 - b) / (a - a2)
                        for a2, b2 in lines[i + 1:] if a2 != a)
    best = None
    for p_exp in [*(p for p in pool if p >= start), math.inf]:
        q = salem_threshold(d, alpha, p_exp, pieces.at(p_exp))
        # an infinite threshold (vacuous decay input) is no estimate
        if q is not None and not is_inf(q) \
                and (best is None or (q, p_exp) < best):
            best = (q, p_exp)
    if best is None:
        raise ValueError("no admissible averaging exponent p")
    q_opt, p_opt = best
    return p_opt, q_opt


@dataclass(frozen=True)
class ThresholdReport:
    """All q-range quantities for one family at its optimal averaging
    exponent; rationals stay exact."""

    family: str
    params: dict
    d: int
    alpha: Exact
    s_inf: Exact
    optimal_p: Exact | None
    s_at_optimal: Exact
    beta_p: Exact
    q_main: Exact | None
    q_corollary: Exact | None
    q_mocktao: Exact
    improvement: bool
    lam: Exact | None
    q_of_lambda: Exact | None


def extension_apply(f: GridFunction, mu: FFMeasure) -> GridFunction:
    """The extension operator A f = (f mu)^."""
    return fourier_forward(multiply_density(f, mu))


def witness_ratio(f: GridFunction, mu: FFMeasure, q: float) -> float:
    """||(f mu)^||_{L^q} / ||f||_{L^2(mu)} for a concrete witness f."""
    denom = lq_mu_norm(f, mu, 2.0)
    if denom == 0.0:
        raise ValueError("witness is mu-a.e. zero")
    return lq_norm(extension_apply(f, mu), q) / denom


@dataclass(frozen=True)
class PowerIterConfig:
    random_starts: int = 8
    max_iter: int = 500
    tol: float = 1e-8
    seed: int = 0


# the ascent starts from a Dirac mass at each of the first support points
DIRAC_STARTS = 16


@dataclass(frozen=True)
class ExtensionNormEstimate:
    """A certified lower bound on ||A||_{L^2(mu) -> L^q}: the bound is
    re-evaluated from the stored witness, never from iteration state."""

    q: float
    lower_bound: float
    witness_tag: str
    iterations: int
    converged: bool
    witness: GridFunction


def _ascend(mu: FFMeasure, support: np.ndarray, start: np.ndarray,
            q: float, cfg: PowerIterConfig) -> tuple[float, np.ndarray, int, bool]:
    """Nonlinear power iteration from one start; monotone ascent in q >= 2.

    One step: g = (f mu)^, then f <- normalize(( |g|^{q-2} g )^v 1_supp).
    """
    space = mu.space
    weights = mu.weights
    mask = np.zeros(space.size, dtype=bool)
    mask[support] = True

    def l2mu(v: np.ndarray) -> float:
        return float(np.sqrt(np.sum(np.abs(v) ** 2 * weights)))

    f = np.where(mask, start, 0.0).astype(np.complex128)
    norm = l2mu(f)
    if norm == 0.0:
        return 0.0, f, 0, True
    f = f / norm
    best_f = f
    value = 0.0
    converged = False
    iterations = 0
    for it in range(1, cfg.max_iter + 1):
        iterations = it
        g = fourier_forward(GridFunction._adopt(space, f * weights)).values
        new_value = float(np.sum(np.abs(g) ** q) ** (1.0 / q))
        if new_value < value - cfg.tol * max(1.0, value):
            raise RuntimeError(
                f"power iteration lost monotonicity at step {it}: "
                f"{value} -> {new_value}")
        best_f = f
        if abs(new_value - value) < cfg.tol * max(1.0, value):
            value = new_value
            converged = True
            break
        value = new_value
        h = np.abs(g) ** (q - 2.0) * g
        nxt = fourier_inverse(GridFunction._adopt(space, h)).values
        nxt = np.where(mask, nxt, 0.0)
        norm = l2mu(nxt)
        if norm == 0.0:
            converged = True
            break
        f = nxt / norm
    return value, best_f, iterations, converged


def extension_norm_lower_bound(mu: FFMeasure, q: float,
                               config: PowerIterConfig | None = None
                               ) -> ExtensionNormEstimate:
    """Best certified lower bound on ||A||_{L^2(mu) -> L^q} over a
    multistart ascent: constant, Dirac at the first <= DIRAC_STARTS
    support points, indicator-minus-dirac, and seeded random starts.

    Maximizing ||A f||_q on the L^2(mu) sphere is nonconvex for q > 2, so
    the result is a lower bound, not the norm.  Deterministic given
    (mu, q, config); ties across starts break by start order.
    """
    if not 2 <= q < math.inf:
        raise ValueError(f"q must lie in [2, inf), got {q}")
    cfg = config or PowerIterConfig()
    space = mu.space
    support = mu.support_indices()
    if len(support) == 0:
        raise ValueError("measure has empty support")

    starts: list[tuple[str, np.ndarray]] = []
    starts.append(("constant", np.ones(space.size, dtype=np.complex128)))
    for idx in support[:DIRAC_STARTS]:
        v = np.zeros(space.size, dtype=np.complex128)
        v[idx] = 1.0
        starts.append((f"dirac:{int(idx)}", v))
    ind_minus = np.zeros(space.size, dtype=np.complex128)
    ind_minus[support] = 1.0
    ind_minus[0] -= 1.0
    starts.append(("indicator-minus-dirac", ind_minus))
    for i in range(cfg.random_starts):
        rng = np.random.default_rng((cfg.seed, i))
        v = rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size)
        starts.append((f"random:{i}", v))

    results = [_ascend(mu, support, start, q, cfg) for _, start in starts]

    best_i = max(range(len(results)), key=lambda i: (results[i][0], -i))
    value, witness_values, iterations, converged = results[best_i]
    tag = starts[best_i][0]
    witness = GridFunction._adopt(space, witness_values)
    # certify from the stored witness, not from iteration state
    certified = witness_ratio(witness, mu, q)
    if abs(certified - value) > 1e-9 * max(1.0, value):
        raise RuntimeError(
            f"certification mismatch: iterate value {value}, "
            f"re-evaluated {certified}")
    return ExtensionNormEstimate(float(q), certified, tag, iterations,
                                 converged, witness)


@dataclass(frozen=True)
class SweepRow:
    p: int
    d: int
    estimate: ExtensionNormEstimate


@dataclass(frozen=True)
class GrowthSweep:
    """Lower bounds across field sizes and the fitted growth exponent:
    slope of log(lower bound) against log p.  Slope near zero is the
    uniform-estimate regime; slope bounded away from zero certifies
    failure via the stored witnesses."""

    descriptor: SetDescriptor | None
    q: float
    rows: tuple[SweepRow, ...]
    fitted_growth_exponent: float


def growth_sweep(builder: Callable[[int], PointSet], q: float,
                 field_sizes: Sequence[int],
                 config: PowerIterConfig | None = None) -> GrowthSweep:
    """extension_norm_lower_bound per field size, then the log-log slope."""
    sizes = sorted(set(int(p) for p in field_sizes))
    if len(sizes) < 4:
        raise ValueError(f"need >= 4 field sizes, got {len(sizes)}")
    cfg = config or PowerIterConfig()

    rows = []
    descriptor = None
    for p in sizes:
        e = builder(p)
        est = extension_norm_lower_bound(surface_measure(e), q, cfg)
        rows.append(SweepRow(p, e.space.dimension, est))
        descriptor = e.descriptor if descriptor is None else descriptor
    xs = np.log(np.array(sizes, dtype=np.float64))
    ys = np.log(np.array([r.estimate.lower_bound for r in rows]))
    slope = float(np.polyfit(xs, ys, 1)[0])
    return GrowthSweep(descriptor, float(q), tuple(rows), slope)
