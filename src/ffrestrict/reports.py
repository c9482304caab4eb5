"""File formats: set files, function files, CSV report tables, and JSON
threshold reports.

Every emitted file round-trips through the parsers in this module.
Numeric CSV fields carry 17 significant digits so doubles survive the
round trip exactly; rationals appear as "num/den" strings; the infinity
sentinel is the string "inf".  Outputs are byte-stable given the same
config: the timestamp field stays null unless explicitly supplied.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from . import __version__
from .ensembles import PointSet, SetDescriptor
from .field import DEFAULT_POINT_CAP, PrimeField, VectorSpace
from .rationals import fmt as fmt_exact
from .rationals import parse as parse_exact
from .restriction import GrowthSweep, ThresholdReport
from .salem import SalemFit, SpectralProfile
from .spectral import GridFunction

PROFILE_FIELDS = ("family", "params", "p", "d", "p_exp", "norm",
                  "log_set_size", "log_norm")
FIT_FIELDS = ("family", "params", "p_exp", "fitted_s", "stderr",
              "n_points", "predicted_s")
SWEEP_FIELDS = ("family", "params", "p", "d", "q", "lower_bound",
                "witness_tag", "converged", "iters")


def f17(x: float) -> str:
    """17 significant digits: lossless for IEEE doubles."""
    return format(float(x), ".17g")


def fmt_p_exp(p_exp: float) -> str:
    if p_exp == math.inf:
        return "inf"
    if float(p_exp) == int(p_exp):
        return str(int(p_exp))
    return f17(p_exp)


def parse_p_exp(s: str) -> float:
    return math.inf if s.strip() in ("inf", "infinity") else float(s)


def envelope(config: Mapping, timestamp: str | None = None) -> dict:
    return {
        "tool": "ffrestrict",
        "version": __version__,
        "timestamp": timestamp,
        "config": dict(config),
    }


# ---------------------------------------------------------------- set files

def write_set(fp: TextIO, e: PointSet) -> None:
    """JSON header line {"p","d","family","params"}, then the sorted flat
    indices, one per line."""
    desc = e.descriptor
    header = {
        "p": e.space.p,
        "d": e.space.dimension,
        "family": desc.family if desc else "unknown",
        "params": desc.params_dict() if desc else {},
    }
    fp.write(json.dumps(header, sort_keys=True, separators=(",", ":")))
    fp.write("\n")
    for idx in e.indices():
        fp.write(f"{int(idx)}\n")


class FileContentError(ValueError):
    """A set or function file that is malformed: a header that names no
    allowed space, or rows that name no point of it or no finite value."""


def _header_int(header: dict, key: str) -> int:
    value = header[key]
    # bool is an int subclass, and int() would truncate a float
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{key} must be a JSON integer, got {value!r}")
    return value


def _read_space(fp: TextIO, max_points: int) -> tuple[dict, VectorSpace]:
    """The space named by a file's JSON header line, under the point cap."""
    try:
        header = json.loads(fp.readline())
    except ValueError as exc:
        raise FileContentError(f"unreadable header line: {exc}") from None
    try:
        p, d = _header_int(header, "p"), _header_int(header, "d")
        space = VectorSpace(PrimeField(p), d, max_points=max_points)
    except (KeyError, TypeError, ValueError) as exc:
        raise FileContentError(f"bad header {header!r}: {exc}") from None
    return header, space


def _point_index(space: VectorSpace, token: str) -> int:
    try:
        idx = int(token)
    except ValueError:
        raise FileContentError(f"index {token!r} is not an integer") from None
    if not 0 <= idx < space.size:
        raise FileContentError(
            f"index {idx} out of range [0, {space.size}) for {space}")
    return idx


def _finite(token: str) -> float:
    try:
        x = float(token)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise FileContentError(f"value {token!r} is not a finite number")
    return x


def read_set(fp: TextIO, max_points: int = DEFAULT_POINT_CAP) -> PointSet:
    header, space = _read_space(fp, max_points)
    memb = np.zeros(space.size, dtype=bool)
    for line in fp:
        line = line.strip()
        if line:
            memb[_point_index(space, line)] = True
    desc = SetDescriptor.make(header.get("family", "unknown"),
                              **header.get("params", {}))
    return PointSet._adopt(space, memb, desc)


# ----------------------------------------------------------- function files

def write_function(fp: TextIO, f: GridFunction) -> None:
    """JSON header line {"p","d"}, then CSV rows index,re,im."""
    header = {"p": f.space.p, "d": f.space.dimension}
    fp.write(json.dumps(header, sort_keys=True, separators=(",", ":")))
    fp.write("\n")
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(("index", "re", "im"))
    for idx, v in enumerate(f.values):
        writer.writerow((idx, f17(v.real), f17(v.imag)))


def read_function(fp: TextIO,
                  max_points: int = DEFAULT_POINT_CAP) -> GridFunction:
    _, space = _read_space(fp, max_points)
    values = np.zeros(space.size, dtype=np.complex128)
    seen = np.zeros(space.size, dtype=bool)
    reader = csv.reader(fp)
    try:
        head = next(reader, [])
        if head != ["index", "re", "im"]:
            raise FileContentError(f"unexpected function-file header {head}")
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise FileContentError(f"expected index,re,im, got {row}")
            idx = _point_index(space, row[0])
            if seen[idx]:
                raise FileContentError(f"index {idx} appears twice")
            seen[idx] = True
            values[idx] = _finite(row[1]) + 1j * _finite(row[2])
    except (csv.Error, UnicodeDecodeError) as exc:
        raise FileContentError(f"unreadable row: {exc}") from None
    return GridFunction._adopt(space, values)


# ------------------------------------------------------------- CSV reports

def write_csv(fp: TextIO, fields: Sequence[str], rows: Iterable[Mapping],
              config: Mapping, timestamp: str | None = None) -> None:
    """Envelope comment line, header, then rows; '\\n' line endings."""
    fp.write("# ")
    fp.write(json.dumps(envelope(config, timestamp), sort_keys=True,
                        separators=(",", ":")))
    fp.write("\n")
    writer = csv.DictWriter(fp, fieldnames=list(fields), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in fields})


def read_csv(fp: TextIO) -> tuple[dict, list[dict]]:
    first = fp.readline()
    if not first.startswith("# "):
        raise ValueError("missing envelope comment line")
    env = json.loads(first[2:])
    reader = csv.DictReader(fp)
    return env, list(reader)


def _descriptor_columns(desc: SetDescriptor | None) -> dict:
    if desc is None:
        return {"family": "unknown", "params": "{}"}
    return {"family": desc.family, "params": desc.params_json()}


def profile_rows(prof: SpectralProfile) -> list[dict]:
    base = _descriptor_columns(prof.descriptor)
    rows = []
    for p_exp, norm in prof.entries:
        rows.append({
            **base,
            "p": prof.field_size,
            "d": prof.dimension,
            "p_exp": fmt_p_exp(p_exp),
            "norm": f17(norm),
            "log_set_size": f17(math.log(prof.set_size)),
            "log_norm": f17(math.log(norm)) if norm > 0 else "-inf",
        })
    return rows


def fit_rows(fits: Sequence[SalemFit]) -> list[dict]:
    rows = []
    for fit in fits:
        base = _descriptor_columns(fit.descriptor)
        rows.append({
            **base,
            "p_exp": fmt_p_exp(fit.p_exp),
            "fitted_s": f17(fit.fitted_s),
            "stderr": f17(fit.stderr),
            "n_points": fit.n_points,
            "predicted_s": "" if fit.predicted_s is None
                           else f17(fit.predicted_s),
        })
    return rows


def sweep_rows(sweep: GrowthSweep) -> list[dict]:
    base = _descriptor_columns(sweep.descriptor)
    rows = []
    for row in sweep.rows:
        est = row.estimate
        rows.append({
            **base,
            "p": row.p,
            "d": row.d,
            "q": fmt_p_exp(sweep.q),
            "lower_bound": f17(est.lower_bound),
            "witness_tag": est.witness_tag,
            "converged": str(est.converged).lower(),
            "iters": est.iterations,
        })
    return rows


# ------------------------------------------------------------ JSON reports

def threshold_report_dict(report: ThresholdReport) -> dict:
    return {
        "family": report.family,
        "params": dict(report.params),
        "d": report.d,
        "alpha": fmt_exact(report.alpha),
        "s_inf": fmt_exact(report.s_inf),
        "optimal_p": fmt_exact(report.optimal_p),
        "s_at_optimal": fmt_exact(report.s_at_optimal),
        "beta_p": fmt_exact(report.beta_p),
        "q_main": "inadmissible" if report.q_main is None
                  else fmt_exact(report.q_main),
        "q_corollary": "inadmissible" if report.q_corollary is None
                       else fmt_exact(report.q_corollary),
        "q_mocktao": fmt_exact(report.q_mocktao),
        "improvement": report.improvement,
        "lambda": None if report.lam is None else fmt_exact(report.lam),
        "q_of_lambda": None if report.q_of_lambda is None
                       else fmt_exact(report.q_of_lambda),
    }


def parse_threshold_value(s: str):
    if s == "inadmissible":
        return None
    return parse_exact(s)


def write_json_report(fp: TextIO, payload: Mapping, config: Mapping,
                      timestamp: str | None = None) -> None:
    doc = envelope(config, timestamp)
    doc["report"] = dict(payload)
    json.dump(doc, fp, indent=2, sort_keys=True)
    fp.write("\n")
