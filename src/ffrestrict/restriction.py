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
The bounds come from a multistart power ascent that moves all of its
starts together, as the rows of one block, with one forward and one
inverse transform of the block per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import spectral
from .ensembles import PointSet, SetDescriptor, surface_measure
from .rationals import Exact, Pieces, exact, is_inf
from .spectral import (
    FFMeasure,
    GridFunction,
    fourier_forward,
    # unused here: the benchmark's tracer wraps the inverse by this name
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


def _starts(mu: FFMeasure, cfg: PowerIterConfig
            ) -> tuple[list[str], np.ndarray]:
    """The multistart block, one start per row and zero off the support:
    constant, Dirac at the first <= DIRAC_STARTS support points,
    indicator-minus-dirac (the indicator with its value at index 0
    removed), and cfg.random_starts seeded complex normals."""
    n = mu.space.size
    support = mu.support_indices()
    diracs = support[:DIRAC_STARTS]
    tags = ["constant", *(f"dirac:{int(i)}" for i in diracs),
            "indicator-minus-dirac",
            *(f"random:{i}" for i in range(cfg.random_starts))]
    block = np.zeros((len(tags), n), dtype=np.complex128)
    block[0, support] = 1.0
    block[np.arange(1, len(diracs) + 1), diracs] = 1.0
    ind = len(diracs) + 1
    block[ind, support] = 1.0
    block[ind, 0] = 0.0
    for i in range(cfg.random_starts):
        rng = np.random.default_rng((cfg.seed, i))
        row = block[ind + 1 + i]
        row.real = rng.standard_normal(n)
        row.imag = rng.standard_normal(n)
    block[:, mu.weights == 0] = 0.0
    return tags, block


def _ascend(mu: FFMeasure, starts: np.ndarray, q: float,
            cfg: PowerIterConfig
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nonlinear power iteration from every row of `starts` at once;
    monotone ascent in q >= 2.

    One step of each row: g = (f mu)^, then
    f <- normalize(( |g|^{q-2} g )^v 1_supp).  Each step makes one
    forward and one inverse transform of the block of rows still active.
    A row is frozen when its value stops moving (converged), when it
    reaches max_iter (not converged), or when its next iterate has zero
    L^2(mu) norm (converged); a start of zero norm is frozen at value 0
    before any step.  Every row keeps its own monotonicity check, so a
    row whose value falls raises.  Rows never mix: each row's values are
    those of the same start ascended alone.

    Returns per row the last value, the iterate that attained it (the
    witness), the step count and the converged flag.
    """
    space = mu.space
    weights = mu.weights
    off_support = weights == 0
    rows = len(starts)
    values = np.zeros(rows)
    witnesses = np.zeros_like(starts)
    iterations = np.zeros(rows, dtype=np.int64)
    converged = np.zeros(rows, dtype=bool)

    def l2mu(block: np.ndarray) -> np.ndarray:
        return np.sqrt(np.sum(np.abs(block) ** 2 * weights, axis=-1))

    norms = l2mu(starts)
    zero = norms == 0.0
    witnesses[zero] = starts[zero]
    converged[zero] = True
    active = np.flatnonzero(~zero)
    f = starts[active] / norms[active, None]
    value = np.zeros(len(active))
    for it in range(1, cfg.max_iter + 1):
        if len(active) == 0:
            break
        iterations[active] = it
        # looked up per step, so a transform swapped into spectral is used
        g = spectral._transform(space, f * weights, -1)
        mag = np.abs(g)
        # the root as a scalar power per row: numpy's array power rounds
        # differently in the last bit for some values, which would move
        # printed digits
        new_value = np.array([s ** (1.0 / q)
                              for s in np.sum(mag ** q, axis=-1)])
        slack = cfg.tol * np.maximum(1.0, value)
        fell = np.flatnonzero(new_value < value - slack)
        if len(fell):
            r = fell[0]
            raise RuntimeError(
                f"power iteration lost monotonicity at step {it}: "
                f"{float(value[r])} -> {float(new_value[r])}")
        values[active] = new_value
        done = np.abs(new_value - value) < slack
        go = np.flatnonzero(~done)
        if len(go):
            if len(go) < len(done):
                g, mag = g[go], mag[go]
            # the ** operator, not np.power: it takes exponent 2 as a
            # square, so q = 4 keeps the bits of |g|**2
            mag **= q - 2.0
            g *= mag
            nxt = spectral._transform(space, g, +1)
            nxt[:, off_support] = 0.0
            norms = l2mu(nxt)
            flat = norms == 0.0
            if flat.any():
                done[go[flat]] = True
                nxt, norms = nxt[~flat], norms[~flat]
            nxt /= norms[:, None]
        converged[active[done]] = True
        if it == cfg.max_iter:
            done[:] = True
        witnesses[active[done]] = f[done]
        active, value = active[~done], new_value[~done]
        if len(go):
            f = nxt
    return values, witnesses, iterations, converged


def extension_norm_lower_bound(mu: FFMeasure, q: float,
                               config: PowerIterConfig | None = None
                               ) -> ExtensionNormEstimate:
    """Best certified lower bound on ||A||_{L^2(mu) -> L^q} over a
    multistart ascent (`_starts`), all starts ascended together as one
    block (`_ascend`).

    Maximizing ||A f||_q on the L^2(mu) sphere is nonconvex for q > 2, so
    the result is a lower bound, not the norm.  Deterministic given
    (mu, q, config); ties across starts break by start order.  The bound
    is re-evaluated from the winning start's witness through
    `witness_ratio`, and must agree with its last iterate value.
    """
    if not 2 <= q < math.inf:
        raise ValueError(f"q must lie in [2, inf), got {q}")
    cfg = config or PowerIterConfig()
    if not mu.weights.any():
        raise ValueError("measure has empty support")

    tags, block = _starts(mu, cfg)
    values, witnesses, iterations, converged = _ascend(mu, block, q, cfg)
    # the first of the largest values: ties break by start order
    best_i = int(np.argmax(values))
    value = float(values[best_i])
    witness = GridFunction._adopt(mu.space, witnesses[best_i].copy())
    # certify from the stored witness, not from iteration state
    certified = witness_ratio(witness, mu, q)
    if abs(certified - value) > 1e-9 * max(1.0, value):
        raise RuntimeError(
            f"certification mismatch: iterate value {value}, "
            f"re-evaluated {certified}")
    return ExtensionNormEstimate(float(q), certified, tags[best_i],
                                 int(iterations[best_i]),
                                 bool(converged[best_i]), witness)


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
