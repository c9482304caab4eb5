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
The bounds come from a multistart power ascent that moves its starts
together, as the rows of a block of values on the support E, applying
the operator and its adjoint to the block once per step; a block holds
at most DEFAULT_POINT_CAP // p^d rows (at least one), so its memory
stays that of a single transform at the point cap.  A small support
applies them through an |E| x p^d character matrix, any other through
the FFT over the whole grid (`_takes_matrix_route`).  The witness is
certified through `fourier_forward` either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import spectral
from .ensembles import PointSet, SetDescriptor, surface_measure
from .field import DEFAULT_POINT_CAP, VectorSpace
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

    def __post_init__(self) -> None:
        if self.random_starts < 0:
            raise ValueError(f"starts must be >= 0, got {self.random_starts}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


def _starts(mu: FFMeasure, cfg: PowerIterConfig, first: int = 0,
            stop: int | None = None) -> tuple[list[str], np.ndarray]:
    """The tags of every start, and rows first..stop-1 of the multistart
    block, one start per row and zero off the support: constant, Dirac
    at the first <= DIRAC_STARTS support points, indicator-minus-dirac
    (the indicator with its value at index 0 removed), and
    cfg.random_starts seeded complex normals."""
    n = mu.space.size
    support = mu.support_indices()
    diracs = support[:DIRAC_STARTS]
    tags = ["constant", *(f"dirac:{int(i)}" for i in diracs),
            "indicator-minus-dirac",
            *(f"random:{i}" for i in range(cfg.random_starts))]
    ind = len(diracs) + 1
    rows = range(len(tags))[first:stop]
    block = np.zeros((len(rows), n), dtype=np.complex128)
    for row, i in zip(block, rows):
        if i in (0, ind):
            row[support] = 1.0
            if i == ind:
                row[0] = 0.0
        elif i < ind:
            row[diracs[i - 1]] = 1.0
        else:
            rng = np.random.default_rng((cfg.seed, i - ind - 1))
            row.real = rng.standard_normal(n)
            row.imag = rng.standard_normal(n)
    block[:, mu.weights == 0] = 0.0
    return tags, block


# (apply the operator, apply its adjoint) on a block of rows: the first
# takes rows x |E| values on the support to rows x p^d transforms, the
# second takes rows x p^d values back to rows x |E| on the support
SupportOperator = tuple[Callable[[np.ndarray], np.ndarray],
                        Callable[[np.ndarray], np.ndarray]]


def _takes_matrix_route(space: VectorSpace, support_size: int) -> bool:
    """The fixed route rule: a character matrix when |E| <= 2 d p and the
    matrix has at most 2^20 entries, else the FFT.

    A step costs the matrix |E| p^d multiply-adds per row, against two
    FFTs over the p^d grid.  Timed on a 2-vCPU host at q = 3 and 6, the
    matrix was 1.1-3.5x faster on every case the rule sends to it
    (Hamming d=2 at p = 5..31 and d=3 at p = 5, 7, spheres, parabolas,
    sphere products, a 10% random set at p = 23), and 1.2-2.8x slower on
    the full space at p = 11 and a 50% random set at p = 23.  The FFT
    route is also the only one whose memory fits a large support.
    """
    return (support_size <= 2 * space.dimension * space.p
            and support_size * space.size <= 2 ** 20)


def _matrix_operator(space: VectorSpace,
                     support: np.ndarray) -> SupportOperator:
    """The operator as the |E| x p^d character matrix K[x, xi] =
    chi(-x.xi) over x in support, and its adjoint as the conjugate
    matrix, each built once through `spectral._character_matrix`.

    Each row is its own vector-matrix product: a matrix-matrix product
    rounds a row differently with the rows beside it, so rows would mix.
    """
    forward = spectral._character_matrix(space, support, -1)
    inverse = spectral._character_matrix(space, support, +1).T

    def apply(block: np.ndarray, matrix: np.ndarray) -> np.ndarray:
        return np.matmul(block[:, None, :], matrix)[:, 0]

    return (lambda block: apply(block, forward),
            lambda g: apply(g, inverse))


def _fft_operator(space: VectorSpace,
                  support: np.ndarray) -> SupportOperator:
    """The operator and its adjoint as `spectral._transform` over the p^d
    grid: the block is scattered onto the grid, and the adjoint's result
    gathered back from it."""
    def forward(block: np.ndarray) -> np.ndarray:
        grid = np.zeros((len(block), space.size), dtype=np.complex128)
        grid[:, support] = block
        # looked up per call, so a transform swapped into spectral is used
        return spectral._transform(space, grid, -1)

    def inverse(g: np.ndarray) -> np.ndarray:
        return spectral._transform(space, g, +1).take(support, axis=-1)

    return forward, inverse


def _support_operator(mu: FFMeasure) -> SupportOperator:
    """The operator on supp mu by the route `_takes_matrix_route` picks."""
    support = mu.support_indices()
    if _takes_matrix_route(mu.space, len(support)):
        return _matrix_operator(mu.space, support)
    return _fft_operator(mu.space, support)


def _ascend(mu: FFMeasure, starts: np.ndarray, q: float,
            cfg: PowerIterConfig, operator: SupportOperator
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nonlinear power iteration from every row of `starts` (zero off the
    support, as `_starts` makes them) at once; monotone ascent in q >= 2.

    One step of each row: g = (f mu)^, then
    f <- normalize(( |g|^{q-2} g )^v 1_supp).  The iterates live on the
    support, as a rows x |E| block; each step applies the operator and
    then its adjoint, the pair `operator` (as `_support_operator(mu)`
    makes it), to the block of rows still active.  A row stops when its
    value stops moving (converged), when its next iterate has zero
    L^2(mu) norm (converged), or at step max_iter (not converged, unless
    one of the other two holds there); a start of zero norm stops at
    value 0 before any step.  Every row keeps its own monotonicity
    check, so a row whose value falls raises.  Rows never mix: each
    row's values are those of the same start ascended alone.

    A step where no row stops does only the arithmetic of the active
    rows.  A row's value, iterate (its witness), step count and
    converged flag are written once, on the step where it stops, and the
    active block is compacted only on such a step.

    Returns per row the last value, the iterate that attained it (the
    witness, on the whole space), the step count and the converged flag.
    Where every start ties at the optimum (the full space, say), whether
    |new - old| < tol * max(1, old) holds is decided by last-bit
    rounding, so the step count there is not a property of the set:
    forced onto both routes, F_11^2 at q = 3 stops after 9 steps on the
    matrix and 7 on the FFT, at values 4.4e-16 apart (relative).
    """
    support = mu.support_indices()
    forward, inverse = operator
    weights = mu.weights[support]
    rows = len(starts)
    values = np.zeros(rows)
    witnesses = np.zeros((rows, len(support)), dtype=np.complex128)
    iterations = np.zeros(rows, dtype=np.int64)
    converged = np.zeros(rows, dtype=bool)

    def l2mu(block: np.ndarray) -> np.ndarray:
        weighted = np.abs(block)
        weighted **= 2
        weighted *= weights
        return np.sqrt(np.add.reduce(weighted, axis=-1))

    def stop(mask: np.ndarray, active: np.ndarray, f: np.ndarray,
             value: np.ndarray, it: int, settled: bool) -> None:
        # writes the final state of the active rows that `mask` picks
        at = active[mask]
        values[at] = value[mask]
        iterations[at] = it
        converged[at] = settled
        witnesses[at] = f[mask]

    # gathered by take, which keeps the block C-ordered: numpy reduces and
    # multiplies a strided row in another order than the row alone
    block = starts.take(support, axis=-1)
    norms = l2mu(block)
    zero = norms == 0.0
    converged[zero] = True
    active = np.flatnonzero(~zero)
    f = block[active] / norms[active, None]
    value = np.zeros(len(active))
    root, lift = 1.0 / q, q - 2.0
    for it in range(1, cfg.max_iter + 1):
        if len(active) == 0:
            break
        g = forward(f * weights)
        mag = np.abs(g)
        # the root as a scalar power per row: numpy's array power rounds
        # differently in the last bit for some values, which would move
        # printed digits
        new_value = np.array([s ** root for s in
                              np.add.reduce(mag ** q, axis=-1).tolist()])
        slack = cfg.tol * np.maximum(1.0, value)
        # a row that rose by at least slack neither fell nor converged
        if not (new_value - value >= slack).all():
            fell = np.flatnonzero(new_value < value - slack)
            if len(fell):
                r = fell[0]
                raise RuntimeError(
                    f"power iteration lost monotonicity at step {it}: "
                    f"{float(value[r])} -> {float(new_value[r])}")
            done = np.abs(new_value - value) < slack
            if done.any():
                stop(done, active, f, new_value, it, True)
                go = ~done
                active, f, g, mag = active[go], f[go], g[go], mag[go]
                new_value = new_value[go]
                if len(active) == 0:
                    break
        # the ** operator, not np.power: it takes exponent 2 as a square,
        # so q = 4 keeps the bits of |g|**2
        mag **= lift
        g *= mag
        nxt = inverse(g)
        norms = l2mu(nxt)
        if it == cfg.max_iter or not norms.all():
            flat = norms == 0.0
            stop(flat, active, f, new_value, it, True)
            if it == cfg.max_iter:
                stop(~flat, active, f, new_value, it, False)
                break
            go = ~flat
            active, f, nxt, norms = active[go], f[go], nxt[go], norms[go]
            new_value = new_value[go]
        nxt /= norms[:, None]
        f, value = nxt, new_value
    on_space = np.zeros_like(starts)
    on_space[:, support] = witnesses
    return values, on_space, iterations, converged


def extension_norm_lower_bound(mu: FFMeasure, q: float,
                               config: PowerIterConfig | None = None
                               ) -> ExtensionNormEstimate:
    """Best certified lower bound on ||A||_{L^2(mu) -> L^q} over a
    multistart ascent (`_starts`), the starts ascended together in
    consecutive blocks (`_ascend`) of at most DEFAULT_POINT_CAP // p^d
    rows, each block built only when it is ascended.

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

    tags, _ = _starts(mu, cfg, 0, 0)
    rows = max(1, DEFAULT_POINT_CAP // mu.space.size)
    operator = _support_operator(mu)
    best = None
    for first in range(0, len(tags), rows):
        _, block = _starts(mu, cfg, first, first + rows)
        values, witnesses, iterations, converged = _ascend(
            mu, block, q, cfg, operator)
        # the first of the largest values: ties break by start order
        i = int(np.argmax(values))
        if best is None or values[i] > best[0]:
            best = (float(values[i]), first + i, witnesses[i].copy(),
                    int(iterations[i]), bool(converged[i]))
        del block, witnesses  # freed before the next block is built
    value, best_i, best_witness, best_iterations, best_converged = best
    witness = GridFunction._adopt(mu.space, best_witness)
    # certify from the stored witness, not from iteration state
    certified = witness_ratio(witness, mu, q)
    if abs(certified - value) > 1e-9 * max(1.0, value):
        raise RuntimeError(
            f"certification mismatch: iterate value {value}, "
            f"re-evaluated {certified}")
    return ExtensionNormEstimate(float(q), certified, tags[best_i],
                                 best_iterations, best_converged, witness)


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
