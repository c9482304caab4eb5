"""Benchmark runner for ffrestrict.

    python3 perfbench/run.py --workload fit-small-p --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

One workload runs in this process: it drives `ffrestrict.cli.main(argv)`
in passes for `--seconds` (a pass starts only if it should end in time;
there is always one), checks every output, compares every pass after the
first with the first byte for byte, and prints one JSON result as its
last line.  `wall_s` sums each job's fastest time over the passes;
`setup_s` is the median of set-up probes spread over the run.
`--trace 1` alternates untraced and traced passes (see layers.py) and
reports per-layer metrics, plus the tracing overhead as the median of
traced minus untraced wall time, instead of the end-to-end metrics.
`--all` runs every workload, each in a fresh process, and prints a table.

The package is imported from `src/` next to this directory, never from
an installed copy; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

# fresh interpreters timed for setup_s, spread over the run; the median
# is reported
SETUP_PROBES = 7
RSS_METHOD = ("resource.getrusage(RUSAGE_SELF).ru_maxrss of the workload "
              "process, KiB / 1024, read after the last pass")
PROBE = ("import ffrestrict.cli as cli; cli.build_parser(); "
         "print(cli.__file__, flush=True)")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Pass:
    wall_s: float
    job_wall_s: list[float]
    outputs: dict[str, bytes]
    codes: list[int]
    layers: dict[str, tuple[float, str]] | None = None
    spans: int = 0


def _inside(path: str, directory: Path) -> bool:
    return Path(path).resolve().is_relative_to(directory.resolve())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("FFR_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    ffrestrict and built the CLI parser."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE], cwd=ROOT,
                          env=child_env(), stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or not _inside(line.strip(), SRC):
        raise BenchError(f"set-up probe failed (exit {code}, "
                         f"imported {line.strip() or 'nothing'})")
    return elapsed


def fastest_pass_s(passes: list[Pass]) -> float:
    """Each job's fastest time over the passes, summed over the jobs.

    Other tenants of the host only ever add time, and they come and go
    over seconds to minutes, so the fastest run of a job is the steadiest
    estimate of what the job itself costs."""
    return sum(min(times) for times in zip(*(p.job_wall_s for p in passes)))


def import_cli():
    if not (SRC / "ffrestrict" / "cli.py").is_file():
        raise BenchError(f"no ffrestrict sources under {SRC}")
    os.environ.pop("FFR_THREADS", None)
    sys.path.insert(0, str(SRC))
    import ffrestrict.cli as cli
    if not _inside(cli.__file__, SRC):
        raise BenchError(f"imported ffrestrict from {cli.__file__}")
    return cli


def _openblas() -> dict:
    import numpy as np
    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["build"] = blas.get("openblas configuration", blas.get("name"))
        info["version"] = blas.get("version")
    except (KeyError, TypeError):
        info["build"] = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    info["threads"] = "unknown"
    for path in libs:
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        info["threads"] = fn()
    return info


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    sp = workloads.seed_params(seed)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas(),
        "FFR_THREADS": "unset",
        "git_commit": _git_commit(),
        "seed": seed,
        "j": sp.j,
        "r": sp.r,
        "sweep_seeds": list(sp.sweep_seeds),
        "rss_method": RSS_METHOD,
    }


def run_pass(cli, job_list: list[workloads.Job], out_dir: Path,
             traced: bool) -> Pass:
    out_dir.mkdir(parents=True)
    tracer = layers.Tracer() if traced else None
    if tracer:
        tracer.install()
    try:
        codes, job_wall = [], []
        t0 = time.perf_counter()
        for job in job_list:
            t = time.perf_counter()
            # look cli.main up on each call so the tracer's span is used
            codes.append(cli.main([*job.argv, "--out",
                                   str(out_dir / job.out)]))
            job_wall.append(time.perf_counter() - t)
        wall = time.perf_counter() - t0
    finally:
        if tracer:
            tracer.uninstall()
    outputs = {}
    for job in job_list:
        path = out_dir / job.out
        outputs[job.out] = path.read_bytes() if path.is_file() else b""
    return Pass(wall, job_wall, outputs, codes,
                tracer.metrics() if tracer else None,
                sum(tracer.calls.values()) if tracer else 0)


def check_pass(job_list: list[workloads.Job], p: Pass,
               first: Pass | None) -> list[workloads.Check]:
    checks = []
    for job, code in zip(job_list, p.codes):
        checks.append(workloads.Check(f"{job.out}: exit code", code == 0,
                                      f"exit {code}"))
        if code == 0:
            checks += workloads.check_output(job, p.outputs[job.out])
        if first is not None:
            checks.append(workloads.Check(
                f"{job.out}: identical to first pass",
                p.outputs[job.out] == first.outputs[job.out]))
    return checks


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    job_list = workloads.jobs(name, seed)
    cli = import_cli()
    setup: list[float] = []
    out_dir = OUT_ROOT / f"{name}-{os.getpid()}"
    untraced: list[Pass] = []
    traced: list[Pass] = []
    checks: list[workloads.Check] = []
    # a traced run alternates untraced and traced passes, so the two
    # sides of each pair see the same machine state
    kinds = (False, True) if trace else (False,)
    start = time.perf_counter()
    last_round = 0.0
    try:
        # start another round only if it should end within `seconds`
        while not untraced or \
                time.perf_counter() - start + last_round <= seconds:
            # set-up probe i waits until i/SETUP_PROBES of the run is over
            while len(setup) < SETUP_PROBES and time.perf_counter() - start \
                    >= len(setup) * seconds / SETUP_PROBES:
                setup.append(measure_setup())
            round_start = time.perf_counter()
            for is_traced in kinds:
                n = len(untraced) + len(traced)
                p = run_pass(cli, job_list, out_dir / f"pass{n}", is_traced)
                checks += check_pass(job_list, p,
                                     untraced[0] if untraced else None)
                (traced if is_traced else untraced).append(p)
            last_round = time.perf_counter() - round_start
        setup += [measure_setup() for _ in range(SETUP_PROBES - len(setup))]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = [c for c in checks if not c.ok]
    cells = sum(job.cells for job in job_list)
    wall = fastest_pass_s(untraced)
    gaps = [g for g in (workloads.fit_gap_max(job_list, p.outputs)
                        for p in untraced + traced) if g is not None]
    if trace:
        metrics = {}
        for n, (_, unit) in traced[0].layers.items():
            values = [p.layers[n][0] for p in traced]
            # counts repeat exactly; times vary from pass to pass
            value = values[0] if len(set(values)) == 1 \
                else statistics.median(values)
            metrics[n] = {"value": value, "unit": unit}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(t.wall_s - u.wall_s
                                       for u, t in zip(untraced, traced)),
            "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "cells_per_s": {"value": cells / wall, "unit": "1/s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    detail = {
        "workload": name,
        "cells": cells,
        "environment": environment(seed),
        "pass_wall_s": [p.wall_s for p in untraced],
        "pass_wall_median_s": statistics.median(p.wall_s for p in untraced),
        "pass_job_wall_s": [p.job_wall_s for p in untraced],
        "traced_pass_wall_s": [p.wall_s for p in traced],
        "setup_samples_s": setup,
        "peak_rss_mib": peak_rss_mib,
        "error_rate": len(failed) / len(checks),
        "fit_gap_max": max(gaps) if gaps else None,
        "failed_checks": [f"{c.name} ({c.detail})" for c in failed],
    }
    if trace:
        detail["absent_layer_metrics"] = sorted(
            set(layers.METRICS) - set(traced[0].layers))
        detail["spans_per_traced_pass"] = traced[0].spans
    return {"detail": detail,
            "result": {"correct": not failed, "attempted": len(checks),
                       "failed": len(failed), "metrics": metrics}}


def extra_rows(detail: dict) -> list[tuple[str, float, str]]:
    """Printed beside the metrics but not declared in BENCHMARK.json."""
    rows = [("error_rate", detail["error_rate"], "1")]
    if detail["fit_gap_max"] is not None:
        rows.append(("fit_gap_max", detail["fit_gap_max"], "1"))
    return rows


def print_report(report: dict) -> None:
    detail, result = report["detail"], report["result"]
    env = detail["environment"]
    print(f"workload {detail['workload']}: seed {env['seed']} "
          f"(j={env['j']}, r={env['r']}, sweep seeds {env['sweep_seeds']}), "
          f"{len(detail['pass_wall_s'])} untraced and "
          f"{len(detail['traced_pass_wall_s'])} traced passes, "
          f"{result['failed']}/{result['attempted']} checks failed")
    rows = [(name, m["value"], m["unit"])
            for name, m in result["metrics"].items()]
    for name, value, unit in rows + extra_rows(detail):
        print(f"  {name:28s} {value:>16.6g} {unit}")
    for line in detail["failed_checks"]:
        print(f"  FAILED {line}")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; one table of every metric."""
    rows = []
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"{name}: failed with exit code {proc.returncode}")
            status = 1
            continue
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        status |= 0 if result["correct"] else 1
        for metric, m in result["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
        rows += [(name, *row) for row in extra_rows(detail)]
        for line in detail["failed_checks"]:
            print(f"{name}: FAILED {line}")
    print(f"{'workload':12s} {'metric':28s} {'value':>16s} unit")
    for name, metric, value, unit in rows:
        print(f"{name:12s} {metric:28s} {value:>16.6g} {unit}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=workloads.WORKLOADS)
    group.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        if args.all:
            return run_all(args)
        report = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
