"""Pinned CLI commands print exactly the committed bytes.

Each command runs in-process through `cli.main` with `--out -`; its exit
code must be 0 and its stdout must equal `tests/golden/<name>.txt` byte
for byte.  A change that moves any printed digit shows up here as a
diff.  To rewrite the files after an intended change, run

    PYTHONPATH=src python3 tests/test_golden.py

and list the moved lines in CHANGES.md.
"""

import contextlib
import io
import pathlib
import sys

import pytest

from ffrestrict import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

SWEEP_HAMMING = ["sweep", "--family", "hamming", "--d", "2",
                 "--field-sizes", "5,7,11,13", "--starts", "2"]

COMMANDS = {
    "sweep-hamming-d2-q3": [*SWEEP_HAMMING, "--q", "3"],
    "sweep-hamming-d2-q6": [*SWEEP_HAMMING, "--q", "6"],
    "ext-norm-sphere-k2-p7-q4": ["ext-norm", "--family", "sphere", "--k", "2",
                                 "--p", "7", "--q", "4"],
    "ext-norm-sidon-embedded-p5-q6": ["ext-norm", "--family",
                                      "sidon-embedded", "--p", "5",
                                      "--q", "6"],
}


def run(argv: list[str]) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([*argv, "--out", "-"])
    return code, buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden_bytes(name):
    code, out = run(COMMANDS[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        code, out = run(argv)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN / f"{name}.txt").write_bytes(out)
        print(f"wrote {name}.txt ({len(out)} bytes)")
