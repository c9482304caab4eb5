"""Fuzzed input boundary: malformed function files and argv.

Every input drawn here is malformed by construction, so the CLI must
answer with a message, never an escaping exception or a traceback.  A
malformed function file is an invalid config (exit code 1); malformed
argv may also surface as a computation error (exit code 2).
"""

import contextlib
import io
import json
import math

from hypothesis import example, given, settings, strategies as st

from ffrestrict import cli

# ------------------------------------------------------- function files

# header values that name no allowed space (p=5 and d=1 are allowed)
_BAD_P = [0, 1, 4, -5, 2 ** 31 + 11, True, None, "x", [], {}, math.inf,
          -math.inf, math.nan, 1e308]
_BAD_D = [0, -1, 100, 10 ** 15, None, "x", [], math.inf, math.nan, 1e308]


def _header_line(header) -> str:
    return json.dumps(header)  # allow_nan: Infinity and NaN are kept


_bad_header = st.one_of(
    st.builds(lambda p, d: {"p": p, "d": d},
              st.sampled_from(_BAD_P), st.sampled_from([1, *_BAD_D])),
    st.builds(lambda d: {"p": 5, "d": d}, st.sampled_from(_BAD_D)),
    st.sampled_from([{}, {"p": 5}, {"d": 1}]),
).map(_header_line)

# a first line that is not a JSON object
_not_an_object = st.one_of(
    st.text(max_size=30).filter(lambda t: not t.lstrip().startswith("{")),
    st.sampled_from([json.dumps(v) for v in (5, [5, 1], "p", None)]),
)

_GOOD_CELL = ["0", "1", "4", "0.5", "-2.25", "1e-3"]
_bad_row = st.one_of(
    # wrong column count
    st.lists(st.sampled_from(_GOOD_CELL), min_size=1, max_size=5)
    .filter(lambda cells: len(cells) != 3),
    # an index that is not a point of F_5
    st.tuples(st.sampled_from(["-1", "5", "99", "x", "", "1.5", "9" * 30]),
              st.sampled_from(_GOOD_CELL), st.sampled_from(_GOOD_CELL))
    .map(list),
    # a value that is not a finite number
    st.tuples(st.sampled_from(["0", "4"]),
              st.sampled_from(["x", "", "nan", "inf", "1e400", "1+2j"]),
              st.sampled_from(_GOOD_CELL)).map(list),
)
_good_row = st.tuples(st.sampled_from(["0", "1", "2", "3", "4"]),
                      st.sampled_from(_GOOD_CELL),
                      st.sampled_from(_GOOD_CELL)).map(list)


@st.composite
def _bad_body(draw) -> str:
    # the bad row comes last, after up to three well-formed ones
    rows = draw(st.lists(_good_row, max_size=3)) + [draw(_bad_row)]
    return "index,re,im\n" + "".join(",".join(r) + "\n" for r in rows)


_bad_column_header = st.sampled_from(
    ["", "index,re\n", "idx,re,im\n", "index;re;im\n", "re,im,index\n"])

_good_header_line = _header_line({"p": 5, "d": 1})
_bad_function_file = st.one_of(
    st.tuples(_bad_header, st.one_of(_bad_body(), st.just("index,re,im\n"))),
    st.tuples(_not_an_object, st.just("index,re,im\n0,1,0\n")),
    st.tuples(st.just(_good_header_line), _bad_column_header),
    st.tuples(st.just(_good_header_line), _bad_body()),
).map(lambda parts: parts[0] + "\n" + parts[1])

# ----------------------------------------------------------------- argv

_MAYBE_FLAGS = st.lists(st.tuples(
    st.sampled_from(["--d", "--j", "--k", "--m", "--r", "--n", "--percent",
                     "--seed", "--max-points"]),
    st.sampled_from(["-3", "0", "1", "2", "3", "5", "12", "x", ""])),
    max_size=4)
_FAMILIES = st.sampled_from(["hamming", "sphere", "sphere-product",
                             "zero-sphere-product", "cutoff-cylinder",
                             "sidon", "sidon-embedded", "full-space",
                             "random", "nosuch", ""])
# each of these alone makes the command's config invalid
_BAD_COMMON = [["--family", "nosuch"], ["--bogus", "1"], ["--p-grid"]]
_BAD_BUILD_SET = [["--p", v] for v in
                  ("4", "1", "0", "-7", "x", "5.0", "", "9" * 5000)]
_BAD_FIT = ([["--field-sizes", v] for v in
             ("5,7", "5,7,11,12", "a,b,c,d", "", "5,5,5,5", "5,7,11,x")]
            + [["--p-grid", v] for v in
               ("abc", "0.5", "nan", "1/0", ",", "1e400", "-inf",
                "2,1e999", "1e-400", "Infinity")])


@st.composite
def _bad_argv(draw) -> list[str]:
    command = draw(st.sampled_from(["build-set", "salem-fit"]))
    argv = [command]
    for flag, value in draw(_MAYBE_FLAGS):
        argv += [flag, value]
    argv += ["--family", draw(_FAMILIES)]
    if command == "build-set":
        argv += ["--p", draw(st.sampled_from(["3", "5", "7"]))]
        bad = _BAD_BUILD_SET + _BAD_COMMON
    else:
        argv += ["--field-sizes", "3,5,7,11", "--p-grid", "2,inf"]
        bad = _BAD_FIT + _BAD_COMMON
    # last, so no earlier flag overrides it
    return argv + draw(st.sampled_from(bad))


@settings(max_examples=60, deadline=None)
# inputs that once escaped as exceptions: a file that ends after its
# JSON header (StopIteration), a header p of Infinity (OverflowError), a
# field past the csv module's size limit (csv.Error) and a p-grid value
# past the float range (OverflowError); and inputs that once exited 0:
# a repeated index and a float header
@example(("file", '{"p": 5, "d": 1}\n'))
@example(("file", '{"p": 5, "d": 1}\nindex,re,im\n0,' + "1" * 200000
          + ',0\n'))
@example(("file", '{"p": Infinity, "d": 1}\nindex,re,im\n'))
@example(("file", '{"p": 5, "d": 1}\nindex,re,im\n4,2,0\n4,1,0\n'))
@example(("file", '{"p": 5.9, "d": 1.7}\nindex,re,im\n0,1,0\n'))
@example(("argv", ["salem-fit", "--family", "hamming", "--field-sizes",
                   "3,5,7,11", "--p-grid", "2,1e400"]))
@given(st.one_of(_bad_function_file.map(lambda text: ("file", text)),
                 _bad_argv().map(lambda argv: ("argv", argv))))
def test_malformed_input_exits_1_or_2(tmp_path_factory, case):
    kind, payload = case
    if kind == "file":
        path = tmp_path_factory.mktemp("fuzz") / "bad.fn"
        path.write_text(payload, encoding="utf-8")
        argv = ["transform", "--in", str(path)]
    else:
        argv = payload
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in ((1,) if kind == "file" else (1, 2)), (argv, err.getvalue())
    assert out.getvalue() == ""
    assert err.getvalue() and "Traceback" not in err.getvalue()
