"""Command-line front end.

Commands: build-set, transform, salem-profile, salem-fit, exponents,
ext-norm, sweep, verify.  Outputs are CSV for bulk numeric data and JSON
for structured single reports; every file embeds a config echo that
reproduces the run.  Exit codes: 0 success, 1 invalid config,
2 computation error, 3 verify failure.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from datetime import datetime, timezone
from fractions import Fraction
from typing import Callable, Iterator, Sequence, TextIO

from . import __version__, families, reports, verify
from .field import DEFAULT_POINT_CAP, is_prime, over_point_cap
from .rationals import Exact
from .restriction import (
    PowerIterConfig,
    extension_norm_lower_bound,
    growth_sweep,
)
from .salem import fit_salem_exponent, profile
from .spectral import fourier_forward, fourier_inverse
from .ensembles import PointSet, is_sidon, surface_measure


class ConfigError(Exception):
    """Invalid configuration; carries one or more messages."""

    def __init__(self, messages: Sequence[str]):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route through ConfigError
    # so invalid configs uniformly exit 1
    def error(self, message: str):
        raise ConfigError([message])


@contextlib.contextmanager
def _open_out(path: str) -> Iterator[TextIO]:
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fp:
            yield fp


def _parse_grid(text: str, errors: list[str]) -> list[Exact]:
    """Exact averaging exponents >= 1 (Fractions, or inf); problems land
    in `errors`."""
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        errors.append("empty exponent grid")
    out = []
    for tok in tokens:
        if tok in ("inf", "infinity"):
            out.append(math.inf)
            continue
        try:
            # float() first: it rejects nan and overflow (1e400), and keeps
            # Fraction from expanding a huge exponent such as 1e-999999999
            approx = float(Fraction(tok)) if "/" in tok else float(tok)
            pe = Fraction(tok) if 1 <= approx < math.inf else None
        except (ValueError, ZeroDivisionError, OverflowError):
            errors.append(f"p-grid value {tok!r} is not a number")
            continue
        if pe is None or pe < 1:
            errors.append(f"p-grid value {tok} is not a finite number >= 1")
        else:
            out.append(pe)
    return out


def _parse_sizes(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError([f"bad field-size list {text!r}: {exc}"])


def _family_params(args: argparse.Namespace, errors: list[str]) -> dict:
    """The family's resolved parameters, from every family flag given, so
    `resolve_params` rejects a flag the family does not take.  ext-norm
    and sweep read --seed (default 0) for the power iteration too, so
    there it reaches only a family that takes a seed.  Problems land in
    `errors` so they can be reported together."""
    try:
        spec = families.get(args.family)
    except ValueError as exc:
        errors.append(str(exc))
        return {}
    given = {key: getattr(args, key) for key, _ in _FAMILY_FLAGS}
    if not hasattr(args, "starts") or "seed" in dict(spec.param_defaults):
        given["seed"] = getattr(args, "seed", None)
    try:
        return spec.resolve_params(given)
    except ValueError as exc:
        errors.append(str(exc))
        return {}


def _timestamp(args: argparse.Namespace) -> str | None:
    if getattr(args, "timestamp", False):
        return datetime.now(timezone.utc).isoformat()
    return None


def _family_setup(args: argparse.Namespace, sizes: Sequence[int],
                  errors: list[str]
                  ) -> tuple[dict, Callable[[int], PointSet]]:
    """The resolved family parameters and the family's builder.

    `errors` holds the command's own problems.  Every problem is reported
    at once, field sizes first, and a field size the family's rules
    exclude or over the point cap is rejected before any set is built.
    """
    errors = [f"field size {p} is not prime"
              for p in sizes if not is_prime(p)] + errors
    params = _family_params(args, errors)
    if errors:
        raise ConfigError(errors)
    spec = families.get(args.family)
    d = spec.dimension(params)
    cap = args.max_points
    errors = [msg for p in sizes for msg in spec.size_errors(params, p)]
    errors += [f"p^d = {p}^{d} exceeds the point cap {cap}; raise "
               "--max-points if this size is intended"
               for p in sizes if over_point_cap(p, d, cap)]
    if errors:
        raise ConfigError(errors)
    return params, families.builder(args.family, params,
                                    max_points=cap)


def _power_config(args: argparse.Namespace) -> PowerIterConfig:
    return PowerIterConfig(
        random_starts=args.starts,
        max_iter=args.max_iter,
        tol=args.tol,
        seed=args.seed,
    )


# ------------------------------------------------------------- subcommands

def cmd_build_set(args: argparse.Namespace) -> int:
    _, build = _family_setup(args, [args.p], [])
    e = build(args.p)
    info = sys.stderr if args.out == "-" else sys.stdout
    print(f"family: {args.family}", file=info)
    print(f"cardinality: {e.cardinality}", file=info)
    print(f"alpha: {e.alpha():.6f}", file=info)
    if args.family.startswith("sidon"):
        print(f"is_sidon: {str(is_sidon(e)).lower()}", file=info)
    with _open_out(args.out) as fp:
        reports.write_set(fp, e)
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    try:
        with open(args.infile, "r", encoding="utf-8") as fp:
            f = reports.read_function(fp, max_points=args.max_points)
    except reports.FileContentError as exc:
        raise ConfigError([f"{args.infile}: {exc}"])
    op = fourier_inverse if args.inverse else fourier_forward
    result = op(f)
    with _open_out(args.out) as fp:
        reports.write_function(fp, result)
    return 0


def cmd_salem_profile(args: argparse.Namespace) -> int:
    errors: list[str] = []
    grid = _parse_grid(args.p_grid, errors)
    params, build = _family_setup(args, [args.p], errors)
    prof = profile(build(args.p), grid)
    config = {"command": "salem-profile", "family": args.family,
              "params": params,
              "p": args.p, "p_grid": args.p_grid,
              "seed": params.get("seed", 0)}
    with _open_out(args.out) as fp:
        reports.write_csv(fp, reports.PROFILE_FIELDS,
                          reports.profile_rows(prof), config,
                          _timestamp(args))
    return 0


def cmd_salem_fit(args: argparse.Namespace) -> int:
    errors: list[str] = []
    sizes = _parse_sizes(args.field_sizes)
    if len(set(sizes)) < 4:
        errors.append(f">= 4 field sizes required, got {sorted(set(sizes))}")
    grid = _parse_grid(args.p_grid, errors)
    params, build = _family_setup(args, sizes, errors)
    pred = families.prediction(args.family, params)
    if pred is not None and min(grid) < pred.domain:
        raise ConfigError([f"{args.family} has a Salem exponent only for "
                           f"p-grid values >= {pred.domain}"])
    fits = []
    for p_exp in grid:
        predicted = pred.at(p_exp) if pred is not None else None
        fits.append(fit_salem_exponent(build, float(p_exp), sizes,
                                       predicted_s=predicted))
    config = {"command": "salem-fit", "family": args.family,
              "params": params,
              "p_grid": args.p_grid, "field_sizes": args.field_sizes,
              "seed": params.get("seed", 0)}
    with _open_out(args.out) as fp:
        reports.write_csv(fp, reports.FIT_FIELDS, reports.fit_rows(fits),
                          config, _timestamp(args))
    return 0


def cmd_exponents(args: argparse.Namespace) -> int:
    errors: list[str] = []
    params = _family_params(args, errors)
    if errors:
        raise ConfigError(errors)
    try:
        report = families.threshold_report(args.family, params)
    except ValueError as exc:
        raise ConfigError([str(exc)])
    config = {"command": "exponents", "family": args.family,
              "params": params}
    payload = reports.threshold_report_dict(report)
    with _open_out(args.out) as fp:
        reports.write_json_report(fp, payload, config, _timestamp(args))
    return 0


def cmd_ext_norm(args: argparse.Namespace) -> int:
    errors: list[str] = []
    if not 2 <= args.q < math.inf:
        errors.append(f"q must lie in [2, inf), got {args.q}")
    params, build = _family_setup(args, [args.p], errors)
    est = extension_norm_lower_bound(surface_measure(build(args.p)), args.q,
                                     _power_config(args))
    config = {"command": "ext-norm", "family": args.family,
              "params": params,
              "p": args.p, "q": args.q, "seed": args.seed,
              "starts": args.starts, "max_iter": args.max_iter,
              "tol": args.tol}
    payload = {
        "q": reports.fmt_p_exp(est.q),
        "lower_bound": reports.f17(est.lower_bound),
        "witness_tag": est.witness_tag,
        "iterations": est.iterations,
        "converged": est.converged,
    }
    with _open_out(args.out) as fp:
        reports.write_json_report(fp, payload, config, _timestamp(args))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    errors: list[str] = []
    sizes = _parse_sizes(args.field_sizes)
    if len(set(sizes)) < 4:
        errors.append(f">= 4 field sizes required, got {sorted(set(sizes))}")
    if not 2 <= args.q < math.inf:
        errors.append(f"q must lie in [2, inf), got {args.q}")
    params, build = _family_setup(args, sizes, errors)
    sweep = growth_sweep(build, args.q, sizes, _power_config(args))
    regime = families.regime_label(args.family, params, args.q)
    config = {"command": "sweep", "family": args.family,
              "params": params,
              "q": args.q, "field_sizes": args.field_sizes,
              "seed": args.seed, "starts": args.starts,
              "max_iter": args.max_iter, "tol": args.tol,
              "fitted_growth_exponent":
                  reports.f17(sweep.fitted_growth_exponent),
              "regime": regime}
    rows = [dict(row, regime=regime) for row in reports.sweep_rows(sweep)]
    with _open_out(args.out) as fp:
        reports.write_csv(fp, reports.SWEEP_FIELDS + ("regime",), rows,
                          config, _timestamp(args))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    suites = args.suite or None
    try:
        results = verify.run_suites(suites)
    except ValueError as exc:
        raise ConfigError([str(exc)])
    if suites is None:
        results.append(verify.mutation_check())
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        print(f"{status} {r.suite}: {r.name}{detail}")
        failures += 0 if r.passed else 1
    total = len(results)
    print(f"{total - failures}/{total} checks passed")
    return 0 if failures == 0 else 3


# ------------------------------------------------------------ entry point

_FAMILY_FLAGS = (
    ("d", "ambient dimension parameter"),
    ("j", "hamming product value"),
    ("k", "sphere dimension parameter"),
    ("m", "product or slab parameter"),
    ("r", "sphere radius"),
    ("n", "cylinder slab dimension"),
    ("percent", "random family density in percent"),
)


def _add_family_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", required=True,
                     help=f"one of: {', '.join(families.names())}")
    for key, text in _FAMILY_FLAGS:
        sub.add_argument(f"--{key}", type=int, help=text)


def _add_common_options(sub: argparse.ArgumentParser, *, seed: bool = True,
                        max_points: bool = True,
                        timestamp: bool = True) -> None:
    """--out, and those of --seed, --max-points and --timestamp that the
    command reads.  --seed is None when not given, so the family's own
    default applies."""
    sub.add_argument("--out", default="-", help="output path, '-' = stdout")
    if seed:
        sub.add_argument("--seed", type=int)
    if max_points:
        sub.add_argument("--max-points", type=int,
                         default=DEFAULT_POINT_CAP,
                         help="cap on p^d per constructed space")
    if timestamp:
        sub.add_argument("--timestamp", action="store_true",
                         help="stamp outputs with wall-clock time "
                              "(default: null for byte-stable output)")


def _add_power_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--starts", type=int, default=8,
                     help="random multistart count")
    sub.add_argument("--max-iter", type=int, default=500)
    sub.add_argument("--tol", type=float, default=1e-8)


def build_parser() -> _Parser:
    parser = _Parser(prog="ffr", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"ffrestrict {__version__}")
    parser.add_argument("--config", default=None,
                        help="key=value file supplying flag defaults")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("build-set", help="construct a family instance")
    _add_family_options(sub)
    sub.add_argument("--p", type=int, required=True, help="field size")
    _add_common_options(sub, timestamp=False)
    sub.set_defaults(func=cmd_build_set)

    sub = subs.add_parser("transform", help="Fourier-transform a function file")
    sub.add_argument("--in", dest="infile", required=True)
    sub.add_argument("--inverse", action="store_true")
    _add_common_options(sub, seed=False, timestamp=False)
    sub.set_defaults(func=cmd_transform)

    sub = subs.add_parser("salem-profile",
                          help="norm profile at one field size")
    _add_family_options(sub)
    sub.add_argument("--p", type=int, required=True, help="field size")
    sub.add_argument("--p-grid", dest="p_grid", default="2,4,8,inf")
    _add_common_options(sub)
    sub.set_defaults(func=cmd_salem_profile)

    sub = subs.add_parser("salem-fit",
                          help="fit Salem exponents across field sizes")
    _add_family_options(sub)
    sub.add_argument("--p-grid", dest="p_grid", default="2,4,8,inf")
    sub.add_argument("--field-sizes", dest="field_sizes",
                     default="5,7,11,13,17,19,23")
    _add_common_options(sub)
    sub.set_defaults(func=cmd_salem_fit)

    sub = subs.add_parser("exponents",
                          help="exact q-range report for a family")
    _add_family_options(sub)
    _add_common_options(sub, seed=False, max_points=False)
    sub.set_defaults(func=cmd_exponents)

    sub = subs.add_parser("ext-norm",
                          help="extension-norm lower bound at one (p, q)")
    _add_family_options(sub)
    sub.add_argument("--p", type=int, required=True, help="field size")
    sub.add_argument("--q", type=float, required=True)
    _add_power_options(sub)
    _add_common_options(sub)
    # the power iteration's random starts are seeded even without --seed
    sub.set_defaults(func=cmd_ext_norm, seed=0)

    sub = subs.add_parser("sweep",
                          help="lower-bound growth sweep across field sizes")
    _add_family_options(sub)
    sub.add_argument("--q", type=float, required=True)
    sub.add_argument("--field-sizes", dest="field_sizes",
                     default="5,7,11,13,17,19,23")
    _add_power_options(sub)
    _add_common_options(sub)
    sub.set_defaults(func=cmd_sweep, seed=0)

    sub = subs.add_parser("verify", help="run the invariant suites")
    sub.add_argument("--suite", action="append",
                     help=f"restrict to a suite "
                          f"({', '.join(sorted(verify.SUITES))}); "
                          "repeatable; default runs all plus the "
                          "mutation check")
    sub.set_defaults(func=cmd_verify)
    return parser


def _load_config_tokens(path: str) -> list[str]:
    """key=value lines become CLI tokens inserted before the real flags,
    so explicit flags override the file."""
    tokens: list[str] = []
    try:
        with open(path, "r", encoding="utf-8") as fp:
            for line in fp:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(
                        [f"config line without '=': {line!r}"])
                key, value = (part.strip() for part in line.split("=", 1))
                flag = "--" + key.replace("_", "-")
                if value.lower() in ("true", "yes"):
                    tokens.append(flag)
                elif value.lower() in ("false", "no"):
                    continue
                else:
                    tokens.extend([flag, value])
    except OSError as exc:
        raise ConfigError([f"cannot read config file {path}: {exc}"])
    return tokens


def _merge_config(argv: list[str]) -> list[str]:
    path = None
    rest: list[str] = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok == "--config":
            if i + 1 >= len(argv):
                raise ConfigError(["--config needs a path"])
            path, skip = argv[i + 1], True
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
        else:
            rest.append(tok)
    if path is None:
        return argv
    if not rest:
        raise ConfigError(["--config given without a command"])
    command, tail = rest[0], rest[1:]
    return [command] + _load_config_tokens(path) + tail


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _merge_config(argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print("invalid config:", file=sys.stderr)
        for msg in exc.messages:
            print(f"  - {msg}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError, OSError, RuntimeError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
