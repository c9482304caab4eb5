"""Pinned CLI commands print exactly the committed bytes.

Each command runs in-process through `cli.main` with `--out -` (except
`verify`, which writes only to stdout and takes no `--out`), in the
`tests/golden` directory, so an input file is named by the same relative
path (`inputs/...`) in every message.  A command in `COMMANDS` must exit
0 and its stdout must equal `tests/golden/<name>.txt` byte for byte.  A
command in `FAILING` must exit with its pinned code, print nothing on
stdout, and its stderr must equal the golden file.  The demos' stdout is
pinned in `tests/golden/demo-<name>.txt` (`tests/test_demos.py`).  A
change that moves any printed digit or message shows up here as a diff.
To rewrite the files after an intended change, run

    PYTHONPATH=src python3 tests/test_golden.py

and list the moved lines in CHANGES.md.  The script also records the
numpy version in `tests/golden/numpy-version.txt`, and a failed
comparison names it next to the running one.
"""

import contextlib
import io
import pathlib
import sys

import numpy as np
import pytest
from test_demos import DEMOS, NUMPY_VERSION, demo_golden, numpy_note, run_demo

from ffrestrict import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

SWEEP_HAMMING = ["sweep", "--family", "hamming", "--d", "2",
                 "--field-sizes", "5,7,11,13", "--starts", "2"]
SWEEP_BENCH = ["sweep", "--family", "hamming", "--d", "2", "--j", "1",
               "--field-sizes", "5,7,11,13,17,19,23", "--starts", "8",
               "--seed", "0"]
PROFILE_GRID = ["--p-grid", "1,2,4,8,inf"]
FIT_SIZES = ["--field-sizes", "3,5,7,11"]

COMMANDS = {
    "sweep-hamming-d2-q3": [*SWEEP_HAMMING, "--q", "3"],
    "sweep-hamming-d2-q6": [*SWEEP_HAMMING, "--q", "6"],
    # the sweeps the ext-sweep benchmark runs at seed 0: p = 17..23 and
    # eight random starts reach rows that stop at the max_iter cap
    "sweep-hamming-d2-q3-bench": [*SWEEP_BENCH, "--q", "3"],
    "sweep-hamming-d2-q6-bench": [*SWEEP_BENCH, "--q", "6"],
    "ext-norm-sphere-k2-p7-q4": ["ext-norm", "--family", "sphere", "--k", "2",
                                 "--p", "7", "--q", "4"],
    "ext-norm-sidon-embedded-p5-q6": ["ext-norm", "--family",
                                      "sidon-embedded", "--p", "5",
                                      "--q", "6"],
    "build-set-sidon-embedded-p7": ["build-set", "--family",
                                    "sidon-embedded", "--p", "7"],
    "build-set-zero-sphere-product-p3": ["build-set", "--family",
                                         "zero-sphere-product", "--p", "3"],
    "salem-profile-sidon-embedded-p5": ["salem-profile", "--family",
                                        "sidon-embedded", "--p", "5",
                                        *PROFILE_GRID],
    "salem-profile-zero-sphere-product-p5": ["salem-profile", "--family",
                                             "zero-sphere-product",
                                             "--p", "5", *PROFILE_GRID],
    "salem-fit-sidon-embedded": ["salem-fit", "--family", "sidon-embedded",
                                 *FIT_SIZES],
    "salem-fit-zero-sphere-product": ["salem-fit", "--family",
                                      "zero-sphere-product", *FIT_SIZES],
    "salem-fit-cutoff-cylinder": ["salem-fit", "--family", "cutoff-cylinder",
                                  *FIT_SIZES],
    "salem-fit-random": ["salem-fit", "--family", "random", "--seed", "2",
                         *FIT_SIZES],
    # the set with no product structure that the large-p benchmark fits
    "salem-fit-hamming-d2": ["salem-fit", "--family", "hamming", "--d", "2",
                             "--field-sizes", "5,7,11,13"],
    # p = 2, where the frequency p/2 is its own mirror
    "salem-profile-random-d3-p2": ["salem-profile", "--family", "random",
                                   "--d", "3", "--p", "2", "--seed", "2",
                                   *PROFILE_GRID],
    # a half spectrum of 129,795 entries and an ascent block of
    # 26 x 15,625, both above the size at which an FFT pass runs in two
    # threads
    "salem-profile-hamming-d2-p509": ["salem-profile", "--family", "hamming",
                                      "--d", "2", "--p", "509",
                                      "--p-grid", "2,4,inf"],
    "ext-norm-cutoff-cylinder-p5-q4": ["ext-norm", "--family",
                                       "cutoff-cylinder", "--n", "2",
                                       "--m", "1", "--k", "3", "--p", "5",
                                       "--q", "4"],
    # every suite and the mutation line; its measured errors are the same
    # from run to run
    "verify": ["verify"],
    "transform-f5x2": ["transform", "--in", "inputs/f5x2.csv"],
    "transform-inverse-f5x2": ["transform", "--in", "inputs/f5x2.csv",
                               "--inverse"],
    **{f"build-set-{family}-p{p}": ["build-set", "--family", family,
                                    "--p", str(p), *extra]
       for family, p, extra in [
           ("hamming", 5, []), ("sphere", 7, []), ("sphere-product", 3, []),
           ("cutoff-cylinder", 3, []), ("sidon-parabola", 7, []),
           ("full-space", 5, []), ("random", 5, ["--seed", "2"])]},
    **{f"exponents-{family}": ["exponents", "--family", family]
       for family in ["hamming", "sphere", "sphere-product",
                      "zero-sphere-product", "cutoff-cylinder",
                      "sidon-parabola", "sidon-embedded"]},
}

EXT_NORM_SPHERE = ["ext-norm", "--family", "sphere", "--p", "5", "--q", "4"]

# name -> (exit code, argv); the golden file holds the stderr
FAILING = {
    "ext-norm-max-iter-0": (1, [*EXT_NORM_SPHERE, "--max-iter", "0"]),
    "ext-norm-tol-nan": (1, [*EXT_NORM_SPHERE, "--tol", "nan"]),
    "sweep-starts-negative": (1, ["sweep", "--family", "hamming", "--q", "4",
                                  "--field-sizes", "5,7,11,13",
                                  "--starts", "-1"]),
    "salem-fit-full-space": (2, ["salem-fit", "--family", "full-space",
                                 *FIT_SIZES]),
    "transform-header-p9": (1, ["transform", "--in",
                                "inputs/header-p9.csv"]),
    "transform-header-p-too-large": (1, ["transform", "--in",
                                         "inputs/header-p-too-large.csv"]),
    "transform-header-d0": (1, ["transform", "--in", "inputs/header-d0.csv"]),
    "sweep-abbreviated-flag": (1, ["sweep", "--family", "random", "--p", "5",
                                   "--q", "4", "--field-sizes", "5,7,11,13"]),
    "build-set-seed-negative": (1, ["build-set", "--family", "random",
                                    "--p", "5", "--seed", "-1"]),
    "ext-norm-seed-negative": (1, ["ext-norm", "--family", "random",
                                   "--p", "5", "--q", "4", "--seed", "-1"]),
}


def run(argv: list[str]) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    if argv[0] != "verify":
        argv = [*argv, "--out", "-"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            contextlib.chdir(GOLDEN):
        code = cli.main(argv)
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden_bytes(name):
    code, out, _ = run(COMMANDS[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_bytes(), numpy_note()


@pytest.mark.parametrize("name", sorted(FAILING))
def test_cli_failure_matches_golden_exit_code_and_stderr(name):
    want_code, argv = FAILING[name]
    code, out, err = run(argv)
    assert code == want_code
    assert out == b""
    assert err == (GOLDEN / f"{name}.txt").read_bytes(), numpy_note()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    NUMPY_VERSION.write_text(f"{np.__version__}\n")
    print(f"wrote {NUMPY_VERSION.name} (numpy {np.__version__})")
    for name, argv in COMMANDS.items():
        code, out, _ = run(argv)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN / f"{name}.txt").write_bytes(out)
        print(f"wrote {name}.txt ({len(out)} bytes)")
    for name, (want_code, argv) in FAILING.items():
        code, out, err = run(argv)
        if code != want_code or out:
            sys.exit(f"{name}: exit code {code}, {len(out)} bytes on stdout")
        (GOLDEN / f"{name}.txt").write_bytes(err)
        print(f"wrote {name}.txt ({len(err)} bytes of stderr)")
    for demo in DEMOS:
        proc = run_demo(demo)
        if proc.returncode != 0:
            sys.exit(f"{demo.name}: exit code {proc.returncode}")
        demo_golden(demo).write_bytes(proc.stdout)
        print(f"wrote {demo_golden(demo).name} ({len(proc.stdout)} bytes)")
