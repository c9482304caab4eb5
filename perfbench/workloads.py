"""The benchmark's workloads: the `ffr` commands each one runs, and the
checks its outputs must pass.

Every workload is a fixed list of `ffr` invocations.  The workload seed
only picks the Hamming product value j, the sphere radius r and the
sweeps' random-start seeds.  By symmetry j and r leave every norm
unchanged, so the correctness checks hold on every seed while the
constructed sets differ.

The random starts do change the work: at seeds 0..11 one pair of sweeps
makes 7,018 to 9,234 forward transforms.  So an `ext-sweep` pass runs
the pair at SWEEP_SEEDS consecutive seeds, which averages that out.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

# Criterion-3 tolerance on |fitted_s - predicted_s|.
FIT_TOLERANCE = 0.1
# Criterion-5 rules for the extension-norm sweep.
BOUNDED_SLOPE_MAX = 0.15
GROWING_SLOPE_MIN = 0.1

SMALL_SIZES = "5,7,11,13,17"
LARGE_SIZES = "131,257,509,1021"
SWEEP_SIZES = "5,7,11,13,17,19,23"
CYLINDER_CAP = str(17 ** 6)
SWEEP_SEEDS = 4


@dataclass(frozen=True)
class Job:
    """One `ffr` invocation; `--out <dir>/<out>` is appended at run time."""

    out: str
    argv: tuple[str, ...]
    cells: int


@dataclass(frozen=True)
class SeedParams:
    j: int
    r: int
    sweep_seeds: tuple[int, ...]


def seed_params(seed: int) -> SeedParams:
    """j and r each cycle through 1..4; the sweeps take the seeds
    SWEEP_SEEDS * seed onward, so no two workload seeds share one."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    first = SWEEP_SEEDS * seed
    return SeedParams(j=1 + seed % 4, r=1 + (seed // 4) % 4,
                      sweep_seeds=tuple(range(first, first + SWEEP_SEEDS)))


def _fit(out: str, family: list[str], grid: str, sizes: str,
         extra: tuple[str, ...] = ()) -> Job:
    cells = len(grid.split(",")) * len(sizes.split(","))
    argv = ("salem-fit", "--family", *family, "--p-grid", grid,
            "--field-sizes", sizes, *extra)
    return Job(out, argv, cells)


def _sweep(out: str, j: int, q: str, seed: int) -> Job:
    argv = ("sweep", "--family", "hamming", "--d", "2", "--j", str(j),
            "--q", q, "--field-sizes", SWEEP_SIZES, "--starts", "8",
            "--seed", str(seed))
    return Job(out, argv, len(SWEEP_SIZES.split(",")))


def jobs(workload: str, seed: int) -> list[Job]:
    sp = seed_params(seed)
    j, r = str(sp.j), str(sp.r)
    if workload == "fit-small-p":
        return [
            _fit("hamming-d3.csv", ["hamming", "--d", "3", "--j", j],
                 "2,4,8,inf", SMALL_SIZES),
            _fit("hamming-d4.csv", ["hamming", "--d", "4", "--j", j],
                 "2,4,8,inf", SMALL_SIZES),
            _fit("sphere-product.csv",
                 ["sphere-product", "--k", "2", "--m", "2", "--r", r],
                 "2,4,inf", SMALL_SIZES),
            _fit("cutoff-cylinder.csv",
                 ["cutoff-cylinder", "--n", "2", "--m", "1", "--k", "3"],
                 "2,6,inf", SMALL_SIZES, ("--max-points", CYLINDER_CAP)),
        ]
    if workload == "fit-large-p":
        return [_fit("hamming-d2.csv", ["hamming", "--d", "2", "--j", j],
                     "2,4,8,inf", LARGE_SIZES)]
    if workload == "ext-sweep":
        return [_sweep(f"sweep-q{q}-seed{s}.csv", sp.j, q, s)
                for s in sp.sweep_seeds for q in ("6", "3")]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("fit-small-p", "fit-large-p", "ext-sweep")


# ------------------------------------------------------------------ checks

@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def read_report(data: bytes) -> tuple[dict, list[dict]]:
    """Parse an `ffr` CSV report: a '# {json}' envelope line, then CSV."""
    text = data.decode("utf-8")
    first, _, body = text.partition("\n")
    if not first.startswith("# "):
        raise ValueError("missing envelope line")
    return json.loads(first[2:]), list(csv.DictReader(io.StringIO(body)))


def fit_gaps(data: bytes) -> list[float]:
    """|fitted_s - predicted_s| for every row of a salem-fit report."""
    _, rows = read_report(data)
    return [abs(float(row["fitted_s"]) - float(row["predicted_s"]))
            for row in rows]


def check_fit(job: Job, data: bytes) -> list[Check]:
    try:
        gaps = fit_gaps(data)
    except (ValueError, KeyError) as exc:
        return [Check(f"{job.out}: parse", False, str(exc))]
    want_rows = len(job.argv[job.argv.index("--p-grid") + 1].split(","))
    checks = [Check(f"{job.out}: rows", len(gaps) == want_rows,
                    f"{len(gaps)} rows, want {want_rows}")]
    for i, gap in enumerate(gaps):
        checks.append(Check(f"{job.out}: row {i} gap", gap <= FIT_TOLERANCE,
                            f"|fitted - predicted| = {gap:.4f}"))
    return checks


def check_sweep(job: Job, data: bytes) -> list[Check]:
    try:
        env, rows = read_report(data)
        config = env["config"]
        q = float(config["q"])
        slope = float(config["fitted_growth_exponent"])
        regime = config["regime"]
        converged = [row["converged"] == "true" for row in rows]
    except (ValueError, KeyError) as exc:
        return [Check(f"{job.out}: parse", False, str(exc))]
    checks = [Check(f"{job.out}: rows", len(rows) == job.cells,
                    f"{len(rows)} rows, want {job.cells}")]
    if q == 6:
        checks += [
            Check(f"{job.out}: slope", abs(slope) <= BOUNDED_SLOPE_MAX,
                  f"|slope(q=6)| = {abs(slope):.4f}"),
            Check(f"{job.out}: converged", all(converged),
                  f"{sum(converged)}/{len(converged)} rows converged"),
            Check(f"{job.out}: regime", regime == "bounded", regime),
        ]
    elif q == 3:
        checks += [
            Check(f"{job.out}: slope", slope >= GROWING_SLOPE_MIN,
                  f"slope(q=3) = {slope:.4f}"),
            Check(f"{job.out}: regime", regime == "growing", regime),
        ]
    else:
        checks.append(Check(f"{job.out}: q", False, f"unexpected q = {q}"))
    return checks


def check_output(job: Job, data: bytes) -> list[Check]:
    if job.argv[0] == "salem-fit":
        return check_fit(job, data)
    return check_sweep(job, data)


def fit_gap_max(job_list: list[Job],
                outputs: dict[str, bytes]) -> float | None:
    """Worst fit gap over a pass's readable salem-fit reports; None when
    there are none (an unreadable report already fails check_fit)."""
    gaps: list[float] = []
    for job in job_list:
        if job.argv[0] == "salem-fit":
            try:
                gaps += fit_gaps(outputs[job.out])
            except (ValueError, KeyError):
                pass
    return max(gaps) if gaps else None
