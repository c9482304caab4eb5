"""File formats: set files, function files, CSV/JSON envelopes,
rational serialization, and byte determinism."""

import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from ffrestrict.field import VectorSpace
from ffrestrict.ensembles import hamming_variety, sphere
from ffrestrict.spectral import random_function
from ffrestrict.salem import profile
from ffrestrict import families, rationals, reports


def _space(p, d):
    return VectorSpace(p, d)


# ------------------------------------------------------------ set files

def test_set_file_roundtrip():
    e = hamming_variety(_space(7, 2), 2)
    buf = io.StringIO()
    reports.write_set(buf, e)
    buf.seek(0)
    back = reports.read_set(buf)
    assert np.array_equal(back.membership, e.membership)
    assert back.descriptor.family == "hamming"
    assert back.descriptor.params_dict() == {"d": 2, "j": 2}


def test_set_file_layout():
    e = sphere(_space(5, 2), 1)
    buf = io.StringIO()
    reports.write_set(buf, e)
    lines = buf.getvalue().splitlines()
    header = json.loads(lines[0])
    assert header["p"] == 5 and header["d"] == 2
    assert header["family"] == "sphere"
    indices = [int(x) for x in lines[1:]]
    assert indices == sorted(indices)
    assert indices == list(e.support_indices())


@pytest.mark.parametrize("text", [
    '{"p":5,"d":1}\n-1\n',
    '{"p":5,"d":1}\n5\n',
    '{"p":2147483647,"d":3}\n0\n',
    '{"d":1}\n0\n',
], ids=["negative-index", "index-past-end", "header-over-cap",
        "header-without-p"])
def test_read_set_rejects_bad_points(text):
    with pytest.raises(ValueError):
        reports.read_set(io.StringIO(text))


# ------------------------------------------------------- function files

def test_function_file_roundtrip_exact():
    space = _space(7, 2)
    f = random_function(space, seed=12)
    buf = io.StringIO()
    reports.write_function(buf, f)
    buf.seek(0)
    back = reports.read_function(buf)
    # 17 significant digits round-trip doubles exactly
    assert np.array_equal(back.values, f.values)
    assert back.space == space


# ------------------------------------------------------------------ CSV

def test_csv_envelope_and_rows():
    e = hamming_variety(_space(5, 2), 1)
    prof = profile(e, [2, math.inf])
    buf = io.StringIO()
    reports.write_csv(buf, reports.PROFILE_FIELDS,
                      reports.profile_rows(prof),
                      {"command": "salem-profile", "seed": 0})
    text = buf.getvalue()
    assert "\r" not in text
    buf.seek(0)
    env, rows = reports.read_csv(buf)
    assert env["tool"] == "ffrestrict"
    assert env["timestamp"] is None
    assert env["config"]["command"] == "salem-profile"
    assert len(rows) == 2
    assert rows[0]["family"] == "hamming"
    assert rows[0]["p_exp"] == "2"
    assert rows[1]["p_exp"] == "inf"
    norm = float(rows[0]["norm"])
    assert norm == prof.norm_at(2.0)  # .17g round-trips exactly


def test_csv_deterministic_bytes():
    e = sphere(_space(7, 2), 1)
    prof = profile(e, [2, 4])
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        reports.write_csv(buf, reports.PROFILE_FIELDS,
                          reports.profile_rows(prof), {"seed": 1})
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]


def test_fit_rows_blank_prediction():
    build = families.builder("random", {"d": 1, "percent": 40})
    from ffrestrict.salem import fit_salem_exponent
    fit = fit_salem_exponent(build, 2.0, [5, 7, 11, 13])
    row = reports.fit_rows([fit])[0]
    assert row["predicted_s"] == ""
    assert row["n_points"] == 4


def test_profile_rows_zero_norm_log():
    row = {"norm": 0.0}
    # degenerate profiles render log norm as -inf, not an exception
    from ffrestrict.salem import SpectralProfile
    prof = SpectralProfile(None, 5, 1, 5, ((2.0, 0.0),))
    out = reports.profile_rows(prof)[0]
    assert out["log_norm"] == "-inf"


# ------------------------------------------------------------- rationals

def test_rational_formatting():
    assert rationals.fmt(Fraction(11, 3)) == "11/3"
    assert rationals.fmt(Fraction(4)) == "4/1"
    assert rationals.fmt(math.inf) == "inf"
    assert rationals.fmt(None) == "none"


def test_fmt_p_exp():
    assert reports.fmt_p_exp(2.0) == "2"
    assert reports.fmt_p_exp(math.inf) == "inf"
    assert reports.fmt_p_exp(2.5) == "2.5"


def test_f17_roundtrip():
    vals = [1.0 / 3, 0.1, 2.0 ** -40, 1e300, -1.2345678901234567e-8]
    for v in vals:
        assert float(reports.f17(v)) == v


# ------------------------------------------------------------------ JSON

def test_threshold_report_dict_hamming():
    rep = families.threshold_report("hamming", {"d": 4})
    doc = reports.threshold_report_dict(rep)
    assert doc["q_main"] == "11/3"
    assert doc["q_mocktao"] == "4/1"
    assert doc["optimal_p"] == "6/1"
    assert doc["lambda"] == "5/11"
    assert doc["improvement"] is True
    assert doc["s_inf"] == "1/3"


def test_threshold_report_dict_inadmissible():
    rep = families.threshold_report("sidon-embedded", {})
    doc = reports.threshold_report_dict(rep)
    assert doc["q_main"] == "inadmissible"
    assert doc["q_corollary"] == "inadmissible"
    assert doc["optimal_p"] == "none"
    assert doc["q_mocktao"] == "inf"


def test_json_report_roundtrip():
    buf = io.StringIO()
    reports.write_json_report(buf, {"answer": "42"}, {"command": "x"},
                              timestamp=None)
    buf.seek(0)
    doc = json.load(buf)
    assert doc["report"]["answer"] == "42"
    assert doc["config"]["command"] == "x"
    assert doc["timestamp"] is None
    assert doc["tool"] == "ffrestrict"
