"""Registry of the named set families: construction at any field size,
idealized regularity exponents, closed-form Salem exponents s(p) as
exact pieces, and failure thresholds.

The regularity exponent alpha recorded here is the idealized rational
value (|E| ~ p^alpha), which is what the threshold formulas consume; the
finite-size alpha(p) = log|E|/log p converges to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .ensembles import (
    PointSet,
    SetDescriptor,
    cutoff_cylinder,
    embed,
    full_space,
    hamming_variety,
    product,
    random_set,
    sidon_parabola,
    sphere,
    sphere_product,
)
from .field import DEFAULT_POINT_CAP, PrimeField, VectorSpace
from .rationals import Exact, Pieces, is_inf
from .restriction import (
    ThresholdReport,
    improvement_condition,
    interpolation_params,
    main_threshold,
    mocktao_threshold,
    optimize_p,
    salem_threshold,
)


@dataclass(frozen=True)
class FamilySpec:
    """Everything the tooling needs to know about one family."""

    name: str
    param_defaults: tuple[tuple[str, int], ...]
    dimension: Callable[[dict], int]
    validate: Callable[[dict], None]
    construct: Callable[[dict, VectorSpace], PointSet]
    alpha: Callable[[dict], Exact] | None = None
    pieces: Callable[[dict], Pieces | None] | None = None
    failure_q: Callable[[dict], Exact] | None = None
    odd_p: bool = False  # the construction needs 2 invertible
    residues: tuple[str, ...] = ()  # parameters read mod p

    def size_errors(self, prm: dict, p: int) -> list[str]:
        """The rules field size p breaks: p = 2 where p must be odd, and
        p dividing a nonzero residue parameter, which it would send to 0."""
        errs = []
        if self.odd_p and p == 2:
            errs.append(f"{self.name} needs an odd field size, got p = 2")
        errs += [f"{self.name} needs p not dividing {key} = {prm[key]}, "
                 f"got p = {p}" for key in self.residues
                 if prm[key] and prm[key] % p == 0]
        return errs

    def resolve_params(self, given: Mapping[str, int]) -> dict:
        params = dict(self.param_defaults)
        allowed = set(params)
        for key, value in given.items():
            if value is None:
                continue
            if key not in allowed:
                raise ValueError(
                    f"family {self.name!r} takes parameters "
                    f"{sorted(allowed)}, not {key!r}")
            params[key] = int(value)
        self.validate(params)
        return params


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _pieces(lo, *lines) -> Pieces:
    """s(p) = min over lines (a, b) of a + b/p, for p >= lo."""
    return Pieces(((lo, lines),))


def _sphere_pieces(prm: dict) -> Pieces | None:
    # the zero sphere (a cone) has no closed-form exponent
    if prm["r"] == 0:
        return None
    return _pieces(1, (Fraction(1, 2), 0))


def _sphere_product_pieces(prm: dict) -> Pieces:
    # m-fold product of S_r^{k-1} in F^{km}:
    # s_p = min{(2k(m-1) + p(k-1)) / (2mp(k-1)), 1/2}
    k, m = prm["k"], prm["m"]
    return _pieces(2, (Fraction(1, 2 * m), Fraction(k * (m - 1), m * (k - 1))),
                   (Fraction(1, 2), 0))


def _cylinder_pieces(prm: dict) -> Pieces:
    # (F^n \ F^m) x S_1^k in F^{n+k+1}:
    # s_p = min{(n/p + k/2)/(n+k), (n-m + m/p + (k+1)/p)/(n+k)}
    n, m, k = prm["n"], prm["m"], prm["k"]
    return _pieces(1, (Fraction(k, 2 * (n + k)), Fraction(n, n + k)),
                   (Fraction(n - m, n + k), Fraction(m + k + 1, n + k)))


# a maximal Sidon set (|E| ~ p^{d/2}): s_p = 2/p for p >= 4 (fourth-moment
# bound), the universal 1/p below that
_SIDON_PIECES = Pieces(((1, ((0, 1),)), (4, ((0, 2),))))


def _build_zero_sphere_product(params: dict, space: VectorSpace) -> PointSet:
    half = VectorSpace(space.field, 3)
    e = product(sphere(half, 0), sphere(half, 1), max_points=space.size)
    return PointSet._adopt(space, e.membership,
                           SetDescriptor.make("zero-sphere-product"))


def _build_sidon_embedded(params: dict, space: VectorSpace) -> PointSet:
    plane = VectorSpace(space.field, 2)
    return embed(sidon_parabola(plane), space)


_REGISTRY: dict[str, FamilySpec] = {}


def _register(spec: FamilySpec) -> None:
    _REGISTRY[spec.name] = spec


_register(FamilySpec(
    name="hamming",
    param_defaults=(("d", 2), ("j", 1)),
    dimension=lambda prm: prm["d"],
    validate=lambda prm: (_check(prm["d"] >= 2, "hamming requires d >= 2"),
                          _check(prm["j"] != 0, "hamming requires j != 0"))[0],
    construct=lambda prm, space: hamming_variety(space, prm["j"]),
    alpha=lambda prm: Fraction(prm["d"] - 1),
    # s_p = min{1/(d-1) + 1/p, 1/2}
    pieces=lambda prm: _pieces(1, (Fraction(1, prm["d"] - 1), 1),
                               (Fraction(1, 2), 0)),
    failure_q=lambda prm: Fraction(2 * prm["d"], prm["d"] - 1),
    residues=("j",),
))

_register(FamilySpec(
    name="sphere",
    param_defaults=(("k", 2), ("r", 1)),
    dimension=lambda prm: prm["k"],
    validate=lambda prm: _check(prm["k"] >= 2, "sphere requires k >= 2"),
    construct=lambda prm, space: sphere(space, prm["r"]),
    alpha=lambda prm: Fraction(prm["k"] - 1),
    pieces=_sphere_pieces,
    failure_q=None,
    odd_p=True,
    residues=("r",),
))

_register(FamilySpec(
    name="sphere-product",
    param_defaults=(("k", 2), ("m", 2), ("r", 1)),
    dimension=lambda prm: prm["k"] * prm["m"],
    validate=lambda prm: (_check(prm["k"] >= 2, "need k >= 2"),
                          _check(prm["m"] >= 1, "need m >= 1"),
                          _check(prm["r"] != 0, "need r != 0"))[0],
    construct=lambda prm, space: sphere_product(
        space, prm["k"], prm["m"], prm["r"]),
    alpha=lambda prm: Fraction(prm["m"] * (prm["k"] - 1)),
    pieces=_sphere_product_pieces,
    failure_q=lambda prm: 2 + Fraction(2, prm["k"] - 1),
    odd_p=True,
    residues=("r",),
))

_register(FamilySpec(
    name="zero-sphere-product",
    param_defaults=(),
    dimension=lambda prm: 6,
    validate=lambda prm: None,
    construct=_build_zero_sphere_product,
    alpha=lambda prm: Fraction(4),
    # S_0^2 x S_1^2: s_p = min{1/8 + 1/p, 3/(4p) + 1/4}
    pieces=lambda prm: _pieces(1, (Fraction(1, 8), 1),
                               (Fraction(1, 4), Fraction(3, 4))),
    failure_q=lambda prm: Fraction(4),
    odd_p=True,
))

_register(FamilySpec(
    name="cutoff-cylinder",
    param_defaults=(("n", 2), ("m", 1), ("k", 3)),
    dimension=lambda prm: prm["n"] + prm["k"] + 1,
    validate=lambda prm: (
        _check(prm["n"] > prm["m"] >= 1, "need n > m >= 1"),
        _check(prm["k"] > 2 * (prm["n"] - prm["m"]), "need k > 2(n-m)"))[0],
    construct=lambda prm, space: cutoff_cylinder(
        space, prm["n"], prm["m"], prm["k"]),
    alpha=lambda prm: Fraction(prm["n"] + prm["k"]),
    pieces=_cylinder_pieces,
    failure_q=lambda prm: Fraction(2 * (prm["k"] + 1), prm["k"]),
    odd_p=True,
))

_register(FamilySpec(
    name="sidon-parabola",
    param_defaults=(("d", 2),),
    dimension=lambda prm: 2,
    validate=lambda prm: _check(prm["d"] == 2,
                                "the parabola construction is planar (d=2)"),
    construct=lambda prm, space: sidon_parabola(space),
    alpha=lambda prm: Fraction(1),
    pieces=lambda prm: _SIDON_PIECES,
    failure_q=lambda prm: Fraction(4),
    odd_p=True,
))

_register(FamilySpec(
    name="sidon-embedded",
    param_defaults=(),
    dimension=lambda prm: 3,
    validate=lambda prm: None,
    construct=_build_sidon_embedded,
    alpha=lambda prm: Fraction(1),
    pieces=lambda prm: _SIDON_PIECES,
    # the ambient dimension outruns the decay: no finite q admits a
    # uniform estimate, certified by indicator-minus-dirac witnesses
    failure_q=lambda prm: math.inf,
    odd_p=True,
))

_register(FamilySpec(
    name="full-space",
    param_defaults=(("d", 1),),
    dimension=lambda prm: prm["d"],
    validate=lambda prm: _check(prm["d"] >= 1, "need d >= 1"),
    construct=lambda prm, space: full_space(space),
))

_register(FamilySpec(
    name="random",
    param_defaults=(("d", 2), ("seed", 0), ("percent", 25)),
    dimension=lambda prm: prm["d"],
    validate=lambda prm: (_check(prm["d"] >= 1, "need d >= 1"),
                          _check(0 < prm["percent"] <= 100,
                                 "percent must lie in (0, 100]"))[0],
    construct=lambda prm, space: random_set(
        space, prm["percent"] / 100.0, prm["seed"]),
))


# shorthand accepted anywhere a family name is
_ALIASES = {"sidon": "sidon-parabola"}


def names() -> list[str]:
    return sorted(_REGISTRY)


def get(name: str) -> FamilySpec:
    name = _ALIASES.get(name, name)
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; known: {', '.join(names())}") from None


def builder(name: str, params: Mapping[str, int] | None = None,
            max_points: int = DEFAULT_POINT_CAP) -> Callable[[int], PointSet]:
    """A field-size-to-instance closure for fits and sweeps; it raises
    at a field size the family's rules exclude."""
    spec = get(name)
    prm = spec.resolve_params(params or {})

    def make(p: int) -> PointSet:
        errs = spec.size_errors(prm, p)
        if errs:
            raise ValueError("; ".join(errs))
        space = VectorSpace(PrimeField(p), spec.dimension(prm),
                            max_points=max_points)
        return spec.construct(prm, space)

    return make


def prediction(name: str,
               params: Mapping[str, int] | None = None) -> Pieces | None:
    """The family's closed-form Salem exponent s(p), or None."""
    spec = get(name)
    if spec.pieces is None:
        return None
    return spec.pieces(spec.resolve_params(params or {}))


def threshold_report(name: str,
                     params: Mapping[str, int] | None = None) -> ThresholdReport:
    """Exact q-range report for a family with a closed-form exponent."""
    spec = get(name)
    prm = spec.resolve_params(params or {})
    pieces = prediction(name, prm)
    if pieces is None:
        raise ValueError(f"family {name!r} has no closed-form exponent")
    d = spec.dimension(prm)
    alpha = spec.alpha(prm)
    s_infinity = pieces.at(math.inf)
    if s_infinity > 0:
        q_mocktao = mocktao_threshold(d, alpha, 2 * alpha * s_infinity)
    else:
        # no uniform decay input; the threshold degenerates
        q_mocktao = math.inf
    try:
        p_opt, q_opt = optimize_p(pieces, d, alpha)
    except ValueError:
        # no admissible averaging exponent anywhere
        p_opt = q_opt = None
    s_at = s_infinity if p_opt is None else pieces.at(p_opt)
    beta_p = 2 * alpha * s_at
    q_main = lam = q_of_lambda = None
    improvement = False
    if p_opt is not None:
        q_main = main_threshold(d, alpha, p_opt, beta_p)
        improvement = improvement_condition(p_opt, s_at, s_infinity)
    if q_main is not None:
        lam, q_of_lambda, _ = interpolation_params(d, alpha, p_opt, beta_p)
    return ThresholdReport(
        family=spec.name, params=prm, d=d, alpha=alpha, s_inf=s_infinity,
        optimal_p=p_opt, s_at_optimal=s_at, beta_p=beta_p, q_main=q_main,
        q_corollary=q_opt, q_mocktao=q_mocktao, improvement=improvement,
        lam=lam, q_of_lambda=q_of_lambda)


def regime_label(name: str, params: Mapping[str, int] | None, q: float) -> str:
    """Theory-predicted regime at exponent q: bounded above the proven
    threshold, growing below the failure threshold, untested between."""
    spec = get(name)
    prm = spec.resolve_params(params or {})
    if prediction(name, prm) is not None:
        report = threshold_report(name, prm)
        proven = report.q_corollary
        if proven is not None and q >= float(proven) - 1e-12:
            return "bounded"
    if spec.failure_q is not None:
        fail = spec.failure_q(prm)
        if is_inf(fail) or q < float(fail) - 1e-12:
            return "growing"
    return "untested"
