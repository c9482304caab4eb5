"""The benchmark's traced run finds every layer it wraps.

`perfbench/layers.py` wraps entry points at the module attributes their
callers look up and silently drops the metrics of a target that is gone.
These tests load it by path, without changing it, and fail when a
wrapped name is renamed or removed, or when a traced run loses a metric
or writes to stdout.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from ffrestrict import cli

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_is_callable(layers):
    for module_name, attr, layer in layers.WRAPS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), \
            f"{module_name}.{attr} ({layer}) is gone"


def test_traced_fit_and_sweep_report_every_metric(layers, tmp_path, capsys):
    runs = [
        ["salem-fit", "--family", "hamming", "--d", "2", "--p-grid", "2,inf",
         "--field-sizes", "5,7,11,13", "--out", str(tmp_path / "fit.csv")],
        ["sweep", "--family", "hamming", "--d", "2", "--q", "6",
         "--field-sizes", "5,7,11,13", "--starts", "1", "--max-iter", "50",
         "--out", str(tmp_path / "sweep.csv")],
    ]
    tracer = layers.Tracer()
    tracer.install()
    try:
        codes = [cli.main(argv) for argv in runs]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    assert tracer.missing == set()
    assert set(tracer.metrics()) == set(layers.METRICS)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("family, grid, sizes", [
    (["sphere-product", "--k", "2", "--m", "2"], "2,4,inf", "5,7,11,13"),
    (["cutoff-cylinder", "--n", "2", "--m", "1", "--k", "3"], "2,inf",
     "3,5,7,11"),
], ids=["sphere-product", "cutoff-cylinder"])
def test_traced_fit_builds_and_transforms_once_per_cell(layers, tmp_path,
                                                        capsys, family, grid,
                                                        sizes):
    # the benchmark's per-layer counts assume one build, one transform
    # and one norm per (exponent, field size)
    tracer = layers.Tracer()
    tracer.install()
    try:
        code = cli.main(["salem-fit", "--family", *family, "--p-grid", grid,
                         "--field-sizes", sizes,
                         "--out", str(tmp_path / "fit.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.missing == set()
    metrics = tracer.metrics()
    cells = len(grid.split(",")) * len(sizes.split(","))
    assert metrics["ensembles.build_calls"][0] == cells
    assert metrics["spectral.forward_calls"][0] == cells
    assert metrics["spectral.norm_calls"][0] == cells
    assert capsys.readouterr().out == ""
