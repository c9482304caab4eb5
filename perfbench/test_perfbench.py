"""Tests of the benchmark's own code.  Run with

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

import layers
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")

sys.path.insert(0, str(ROOT / "src"))


def _fit_report(rows: list[tuple[float, float]]) -> bytes:
    lines = ['# {"config":{"command":"salem-fit"},"tool":"ffrestrict"}',
             "family,params,p_exp,fitted_s,stderr,n_points,predicted_s"]
    for i, (fitted, predicted) in enumerate(rows):
        lines.append(f'hamming,"{{}}",{2 ** (i + 1)},{fitted!r},0.01,5,'
                     f"{predicted!r}")
    return ("\n".join(lines) + "\n").encode()


def _sweep_report(q: str, slope: float, regime: str,
                  converged: bool = True) -> bytes:
    env = {"config": {"command": "sweep", "q": float(q),
                      "fitted_growth_exponent": repr(slope),
                      "regime": regime}, "tool": "ffrestrict"}
    lines = ["# " + json.dumps(env),
             "family,params,p,d,q,lower_bound,witness_tag,converged,iters,"
             "regime"]
    for p in workloads.SWEEP_SIZES.split(","):
        lines.append(f'hamming,"{{}}",{p},2,{q},1.5,constant,'
                     f"{str(converged).lower()},3,{regime}")
    return ("\n".join(lines) + "\n").encode()


def _job(workload: str, out: str) -> workloads.Job:
    return next(j for j in workloads.jobs(workload, 0) if j.out == out)


def test_fit_row_with_gap_02_is_a_failure():
    job = _job("fit-large-p", "hamming-d2.csv")
    good = workloads.check_fit(job, _fit_report([(0.5, 0.5)] * 4))
    assert all(c.ok for c in good)
    bad = workloads.check_fit(
        job, _fit_report([(0.5, 0.5), (0.7, 0.5), (0.5, 0.5), (0.5, 0.5)]))
    assert [c.name for c in bad if not c.ok] == ["hamming-d2.csv: row 1 gap"]
    assert workloads.fit_gap_max([job], {job.out: _fit_report(
        [(0.5, 0.5), (0.7, 0.5)])}) == pytest.approx(0.2)


def test_fit_report_with_missing_rows_is_a_failure():
    job = _job("fit-large-p", "hamming-d2.csv")
    checks = workloads.check_fit(job, _fit_report([(0.5, 0.5)] * 3))
    assert not all(c.ok for c in checks)


def test_sweep_rules():
    q6 = _job("ext-sweep", "sweep-q6-seed0.csv")
    q3 = _job("ext-sweep", "sweep-q3-seed0.csv")
    assert all(c.ok for c in workloads.check_sweep(
        q6, _sweep_report("6", 0.02, "bounded")))
    assert all(c.ok for c in workloads.check_sweep(
        q3, _sweep_report("3", 0.3, "growing")))
    slow = workloads.check_sweep(q3, _sweep_report("3", 0.05, "growing"))
    assert [c.name for c in slow if not c.ok] == ["sweep-q3-seed0.csv: slope"]
    for report in (_sweep_report("6", 0.2, "bounded"),
                   _sweep_report("6", 0.0, "growing"),
                   _sweep_report("6", 0.0, "bounded", converged=False)):
        assert not all(c.ok for c in workloads.check_sweep(q6, report))


def test_pass_that_differs_from_the_first_is_a_failure():
    job = _job("fit-large-p", "hamming-d2.csv")
    data = _fit_report([(0.5, 0.5)] * 4)
    first = run.Pass(1.0, [1.0], {job.out: data}, [0])
    same = run.check_pass(
        [job], run.Pass(1.0, [1.0], {job.out: data}, [0]), first)
    assert all(c.ok for c in same)
    other = run.check_pass(
        [job], run.Pass(1.0, [1.0], {job.out: data + b"\n"}, [0]), first)
    assert [c.name for c in other if not c.ok] == \
        ["hamming-d2.csv: identical to first pass"]
    failed = run.check_pass(
        [job], run.Pass(1.0, [1.0], {job.out: b""}, [2]), None)
    assert [c.ok for c in failed] == [False]


def test_wall_sums_each_jobs_fastest_time():
    passes = [run.Pass(sum(times), times, {}, [])
              for times in ([3.0, 1.0], [2.0, 4.0], [5.0, 1.5])]
    assert run.fastest_pass_s(passes) == 3.0
    assert run.fastest_pass_s(passes[:1]) == 4.0


def _flag(job: workloads.Job, flag: str) -> str:
    return job.argv[job.argv.index(flag) + 1]


def test_seed_picks_j_r_and_sweep_seeds():
    seen = set()
    sweep_seeds: list[int] = []
    for seed in range(16):
        sp = workloads.seed_params(seed)
        k = workloads.SWEEP_SEEDS
        assert (sp.j, sp.r, sp.sweep_seeds) == \
            (1 + seed % 4, 1 + seed // 4 % 4,
             tuple(range(k * seed, k * seed + k)))
        seen.add((sp.j, sp.r))
        fits = workloads.jobs("fit-small-p", seed)
        assert {_flag(job, "--j") for job in fits if "--j" in job.argv} \
            == {str(sp.j)}
        assert {_flag(job, "--r") for job in fits if "--r" in job.argv} \
            == {str(sp.r)}
        sweeps = workloads.jobs("ext-sweep", seed)
        assert {_flag(job, "--j") for job in sweeps} == {str(sp.j)}
        seeds = [int(_flag(job, "--seed")) for job in sweeps]
        assert sorted(set(seeds)) == list(sp.sweep_seeds)
        assert sorted(_flag(job, "--q") for job in sweeps) == \
            ["3"] * k + ["6"] * k
        sweep_seeds += sp.sweep_seeds
    assert len(seen) == 16
    assert len(set(sweep_seeds)) == len(sweep_seeds)
    with pytest.raises(ValueError):
        workloads.seed_params(-1)


def test_jobs_use_only_surface_that_stays():
    for name in workloads.WORKLOADS:
        for job in workloads.jobs(name, 3):
            assert not {"--kernel", "--threads", "--format"} & set(job.argv)
    cells = {name: sum(j.cells for j in workloads.jobs(name, 0))
             for name in workloads.WORKLOADS}
    assert cells == {"fit-small-p": 70, "fit-large-p": 16,
                     "ext-sweep": 14 * workloads.SWEEP_SEEDS}


def test_metric_names_and_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    names = end_to_end + per_layer + [w["name"] for w in spec["workloads"]]
    for name in names + list(layers.METRICS):
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(names)) == len(names)
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    assert set(per_layer) == set(layers.METRICS) | {"trace.overhead_s"}
    assert set(end_to_end) == {"wall_s", "cells_per_s", "peak_rss_mib",
                               "setup_s"}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_tracer_counts_and_partitions_a_small_fit(tmp_path):
    cli = run.import_cli()
    tracer = layers.Tracer()
    tracer.install()
    try:
        code = cli.main(["salem-fit", "--family", "hamming", "--d", "2",
                         "--p-grid", "2,inf", "--field-sizes", "5,7,11,13",
                         "--out", str(tmp_path / "fit.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    m = {name: value for name, (value, _) in tracer.metrics().items()}
    assert m["ensembles.build_calls"] == m["spectral.forward_calls"] == 8
    assert m["spectral.norm_calls"] == 8
    assert m["spectral.points"] == 2 * (25 + 49 + 121 + 169)
    assert m["spectral.array_mib_max"] == 16 * 169 / 2 ** 20
    assert m["restriction.rows"] == 0
    assert tracer.calls["cli"] == 1
    # layer self times add up to the single cli.main span
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.top_s)
    assert not tracer._undo
    assert cli.main.__name__ == "main" and not hasattr(cli.main,
                                                       "__wrapped__")


def test_tracer_reports_a_missing_entry_point_as_absent(monkeypatch):
    import ffrestrict.restriction as restriction
    monkeypatch.delattr(restriction, "fourier_inverse")
    tracer = layers.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracer.metrics()
    assert "spectral.inverse" in tracer.missing
    assert "spectral.inverse_s" not in metrics
    assert "spectral.us_per_call" not in metrics
    assert "spectral.forward_s" in metrics
