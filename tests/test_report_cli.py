import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mgk import cli
from mgk import deformation
from mgk import report
from mgk import slopes_symmetry as ss
from mgk.deformation import GKSignature, residuals, solve_complete, solve_filling, solve_fillings
from mgk.hyptrig import DomainError, FillingSpec, parse_slope
from mgk.report import (
    RESIDUAL_TOL,
    build_report,
    build_reports,
    report_to_json,
    to_json,
)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_round_trip():
    sig = GKSignature(2, 1)
    spec = FillingSpec.from_pairs(1, [(5.0, 1.0)])
    rep = build_report(sig, spec, solve_filling(sig, spec))
    assert json.loads(report_to_json(rep)) == rep


def test_report_floats_round_trip_exactly():
    sig = GKSignature(3, 2)
    spec = FillingSpec.from_pairs(2, [None, (5.0, 1.0)])
    rep = build_report(sig, spec, solve_filling(sig, spec))
    coords = json.loads(report_to_json(rep))["coords"]
    assert len(coords) == len(rep["coords"])
    assert all(a.hex() == b.hex() for a, b in zip(coords, rep["coords"]))


def test_report_with_nan_is_refused():
    sig = GKSignature(2, 1)
    spec = FillingSpec.from_pairs(1, [(5.0, 1.0)])
    rep = build_report(sig, spec, solve_filling(sig, spec))
    rep["return_path_length"] = float("nan")
    with pytest.raises(DomainError):
        report_to_json(rep)
    # the batch document goes through the same encoder
    with pytest.raises(DomainError):
        to_json([rep])


def test_report_refuses_bad_residual():
    sig = GKSignature(2, 1)
    spec = FillingSpec.from_pairs(1, [(5.0, 1.0)])
    x = solve_filling(sig, spec) + 1e-3
    with pytest.raises(DomainError, match="above reporting tolerance"):
        build_report(sig, spec, x)


def test_build_report_is_the_one_item_batch():
    sig = GKSignature(3, 2)
    spec = FillingSpec.from_pairs(2, [None, (5.0, 1.0)])
    records = []
    (x,) = solve_fillings(sig, [spec], out=records)
    assert build_report(sig, spec, x) == build_reports(sig, [spec], records)[0]
    assert build_reports(sig, [], []) == []


def test_build_reports_refuse_specs_and_records_of_different_lengths():
    # a plain zip would drop the unmatched specs or records without a word
    sig = GKSignature(3, 2)
    spec = FillingSpec.from_pairs(2, [None, (5.0, 1.0)])
    records = []
    solve_fillings(sig, [spec], out=records)
    for specs, recs in (([spec] * 3, records), ([spec], records * 2), ([], records)):
        with pytest.raises(ValueError):
            build_reports(sig, specs, recs)


def test_build_report_refuses_a_bare_point():
    # a point off the variety, of the wrong length or out of the box is
    # refused; in a batch a record above the gate is refused on its own,
    # and the others report as they do alone
    sig = GKSignature(3, 2)
    specs = [FillingSpec.from_pairs(2, pairs) for pairs in ([None, (5.0, 1.0)], [(7.0, 2.0), None])]
    records = []
    xs = solve_fillings(sig, specs * 2, out=records)
    bad = {
        "above reporting tolerance": xs[0] + 1e-3,
        "expected 25 coordinates": np.append(xs[0], 0.5),
        "(0, pi)": np.full(sig.n_coords, 4.0),
    }
    for text, x in bad.items():
        with pytest.raises(DomainError) as info:
            build_report(sig, specs[0], x)
        assert text in str(info.value)
    records[2] = deformation.Solved(xs[2], records[2].residual + 1e-3)
    reps = build_reports(sig, specs * 2, records)
    assert reps[0] == build_report(sig, specs[0], xs[0])
    assert reps[1] == reps[3] == build_report(sig, specs[1], xs[1])
    assert isinstance(reps[2], DomainError) and "above reporting tolerance" in str(reps[2])


def test_build_reports_refuse_a_panel_or_a_spec_per_item():
    # a point whose panel is undefined (the core length of a filled cusp at
    # the complete structure), and a spec whose cusp count is not k, are
    # each their own error: one aborted the whole call, the other reported
    # a truncated panel, 1 cusp and homology rank 4 at (3, 2)
    sig = GKSignature(2, 1)
    spec = FillingSpec.parse("5/1", 1)
    records = []
    x, x0 = solve_fillings(sig, [spec, FillingSpec.unfilled(1)], out=records)
    reps = build_reports(sig, [spec, spec], records)
    assert reps[0] == build_report(sig, spec, x)
    assert isinstance(reps[1], DomainError) and str(reps[1]).startswith("cusp 0 is unfilled")
    with pytest.raises(DomainError, match="^cusp 0 is unfilled"):
        build_report(sig, spec, x0)
    sig, one = GKSignature(3, 2), FillingSpec.parse("5/1", 1)
    x = solve_filling(sig, FillingSpec.parse("5/1,inf", 2))
    (solved,) = solve_fillings(sig, [one])
    with pytest.raises(DomainError) as info:
        build_report(sig, one, x)
    assert str(info.value) == str(solved) == "spec has 1 cusps, signature has 2"


def test_build_reports_pass_an_error_entry_through():
    # the error that solve_fillings returns for a list is that list's result
    sig = GKSignature(3, 2)
    specs = [DomainError("cannot parse"), FillingSpec.parse("inf,5/1", 2)]
    records = []
    xs = solve_fillings(sig, specs, out=records)
    reps = build_reports(sig, specs, records)
    assert reps[0] is specs[0] and xs[0] is specs[0]
    assert reps[1] == build_report(sig, specs[1], xs[1])


def test_cli_fill_batch_parse_error_beside_a_list(capsys):
    # the list that does not parse is an error record, exit 2, and the other
    # list keeps the report it gets alone
    code, out, _ = run(capsys, ["fill", "--g", "3", "--k", "2", "--batch", "--json", "--coeffs", "5/1;inf,5/1"])
    assert code == 2
    bad, good = json.loads(out)
    assert bad["coeffs"] == "5/1" and bad["error"]["exit"] == 2
    assert run(capsys, ["fill", "--g", "3", "--k", "2", "--json", "--coeffs", "inf,5/1"])[1] == to_json(good) + "\n"


# slopes of squared length 7 to 39 in both signs, every one hyperbolic
_LONG_SLOPES = [
    (p, q) for p in range(-7, 8) for q in range(-7, 8) if math.gcd(p, q) == 1 and 7 <= p * p - p * q + q * q < 40
]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), k=st.integers(1, 4))
def test_solver_record_gates_the_report_as_residuals_would(data, k):
    # the gate that reads the solver's final residual is the max of
    # `residuals` at x, bit for bit, and each document is that of the bare
    # point, `build_report`
    g = data.draw(st.integers(k + 1, 12))
    pairs = st.lists(st.one_of(st.none(), st.sampled_from(_LONG_SLOPES)), min_size=k, max_size=k)
    lists = data.draw(st.lists(pairs.filter(any), min_size=1, max_size=4))
    sig = GKSignature(g, k)
    specs = [FillingSpec.from_pairs(k, p) for p in lists]
    records = []
    xs = solve_fillings(sig, specs, out=records)
    reps = build_reports(sig, specs, records)
    for spec, x, rec, rep in zip(specs, xs, records, reps):
        assert rec.x is x and rec.residual.shape == (sig.n_coords,)
        assert rep["residual_max"] == np.abs(residuals(sig, x)).max()
        assert rep == build_report(sig, spec, x)


def shift_first_record(mp, shift):
    """Make the solver's record of the first list that `mgk fill` solves
    carry `shift(r)` in place of its final residual r."""
    real = deformation.solve_fillings

    def shifted(sig, specs, **kw):
        xs = real(sig, specs, **kw)
        kw["out"][0].residual = shift(kw["out"][0].residual.copy())
        return xs

    mp.setattr(deformation, "solve_fillings", shifted)


def test_cli_fill_batch_evaluates_residuals_once(monkeypatch, capsys):
    # the reports are gated on the residuals of the solver's records, with
    # no evaluation: a filled list's final Newton residual, and for a list
    # with every cusp unfilled the residual that certified the complete
    # structure
    calls, real = [], report.residuals
    monkeypatch.setattr(report, "residuals", lambda sig, x: calls.append(x) or real(sig, x))
    argv = ["--json", "fill", "--g", "5", "--k", "2", "--batch", "--coeffs", "5/1,inf;inf,3/1;7/2,2/3;3/1,8/1"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and len(json.loads(out)) == 4
    assert calls == []
    argv[-1] = "inf,inf;5/1,inf;inf,inf"
    code, out, _ = run(capsys, argv)
    assert code == 0 and len(json.loads(out)) == 3
    assert calls == []


@pytest.mark.parametrize("g, k", [(2, 1), (3, 2), (9, 4), (17, 16), (200, 64)])
def test_an_all_unfilled_list_is_the_complete_report(capsys, g, k):
    # `fill` of a list with every cusp unfilled writes the bytes of
    # `complete`, in text and JSON.  Its record holds the read-only residual
    # that certified the complete structure, whose structure rows give the
    # max of `residuals` at x0 bit for bit
    sig, dims = GKSignature(g, k), ["--g", str(g), "--k", str(k)]
    for fmt in ([], ["--json"]):
        fill = run(capsys, fmt + ["fill"] + dims + ["--coeffs", ",".join(["inf"] * k)])
        assert fill == run(capsys, fmt + ["complete"] + dims) and fill[0] == 0
    cs, records = solve_complete(sig), []
    (x,) = solve_fillings(sig, [FillingSpec.unfilled(k)], out=records)
    assert x.tobytes() == cs.x0.tobytes()
    assert records[0].residual is cs.residual and not cs.residual.flags.writeable
    gate = np.abs(deformation._structure_rows(records[0].residual, k)).max()
    assert gate.tobytes() == np.abs(residuals(sig, cs.x0)).max().tobytes()


def test_cli_fill_batch_refused_report_fails_alone(monkeypatch, capsys):
    # a report refused at the residual gate is its own list's error record,
    # exit 2, and the other lists still report

    def off_first(r):
        r[0] = 10.0 * RESIDUAL_TOL
        return r

    argv = ["--json", "fill", "--g", "6", "--k", "1", "--batch", "--coeffs", "5/1;7/2"]
    _, before, _ = run(capsys, argv)
    shift_first_record(monkeypatch, off_first)
    code, out, _ = run(capsys, argv)
    assert code == 2
    bad, good = json.loads(out)
    assert bad["coeffs"] == "5/1" and bad["error"]["exit"] == 2
    assert "above reporting tolerance" in bad["error"]["message"]
    assert good == json.loads(before)[1]


def test_cli_fill_refused_report_without_batch(monkeypatch, capsys):
    shift_first_record(monkeypatch, lambda r: r + 1.0)
    code, out, err = run(capsys, ["fill", "--g", "2", "--k", "1", "--coeffs", "5/1"])
    assert code == 2 and out == ""
    assert "above reporting tolerance" in err


_INTS = st.integers(min_value=-(2**70), max_value=2**70)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_TEXTS = st.text(alphabet=st.characters(codec="utf-8") | st.sampled_from('"\\\b\f\n\r\t\x00\x1f\x7f'), max_size=12)


# subclasses whose conversions and repr json.dumps ignores, as to_json must
class _Str(str):
    def __str__(self):
        return "masked"


class _Int(int):
    def __int__(self):
        return 7

    def __repr__(self):
        return "seven"


class _Float(float):
    def __float__(self):
        return 0.5

    def __repr__(self):
        return "half"


# leaves of a document: every kind that JSON writes, with the strings,
# ints and floats at the edges of their encodings, and subclasses of str,
# int and float, which the writer tests after their exact types
_LEAVES = st.one_of(
    _TEXTS,
    _TEXTS.map(_Str),
    st.booleans(),
    st.none(),
    _INTS,
    _FLOATS,
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 1e-7, 0.1]),
    _FLOATS.map(np.float64),
    _FLOATS.map(_Float),
    _INTS.map(_Int),
)
_DOCS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        # the lists that the writer joins in one pass, only floats or only
        # ints, and the mixes that must take the per-item path: bool with
        # int, int with float, np.float64 among floats
        st.lists(_FLOATS, max_size=6),
        st.lists(_INTS, max_size=6),
        st.lists(st.one_of(st.booleans(), _INTS), max_size=6),
        st.lists(st.one_of(_INTS, _FLOATS), max_size=6),
        st.lists(st.one_of(_FLOATS, _FLOATS.map(np.float64)), max_size=6),
        st.dictionaries(st.text(max_size=8), inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(doc=_DOCS)
def test_to_json_is_the_stdlib_text(doc):
    assert to_json(doc) == json.dumps(doc, indent=2, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(
    doc=_DOCS,
    bad=st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan")]),
    where=st.randoms(use_true_random=False),
)
def test_to_json_refuses_non_finite_floats_at_any_depth(doc, bad, where):
    # put the value in a random container of the document, or make it the document
    containers = []

    def walk(o):
        if isinstance(o, (list, dict)):
            containers.append(o)
            for v in (o.values() if isinstance(o, dict) else o):
                walk(v)

    walk(doc)
    if not containers:
        doc = bad
    else:
        box = where.choice(containers)
        if isinstance(box, dict):
            box["nan"] = bad
        else:
            box.insert(where.randint(0, len(box)), bad)
    with pytest.raises(ValueError):
        json.dumps(doc, indent=2, allow_nan=False)
    with pytest.raises(DomainError, match="cannot write JSON"):
        to_json(doc)


@pytest.mark.parametrize("doc", [object(), {1: 2}], ids=["object", "int-key"])
def test_to_json_refuses_what_it_does_not_write(doc):
    # json.dumps writes the key 1 as "1"; to_json takes str keys only
    with pytest.raises(TypeError):
        to_json(doc)


def test_cli_complete_human(capsys):
    code, out, err = run(capsys, ["complete", "--g", "2", "--k", "1"])
    assert code == 0
    assert "g=2 k=1" in out
    assert "heegaard genus  3" in out
    # (2,1) is a chain-family signature, so the report carries abc
    assert "abc" in out


def test_cli_trailing_global_flags(capsys):
    # shared flags are accepted on either side of the subcommand
    code, out, _ = run(capsys, ["complete", "--g", "2", "--k", "1", "--json"])
    assert code == 0
    assert json.loads(out)["schema"] == "mgk/1"


def test_cli_complete_json_schema(capsys):
    code, out, _ = run(capsys, ["--json", "complete", "--g", "3", "--k", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "mgk/1"
    assert doc["signature"] == {"g": 3, "k": 2}
    assert doc["homology_rank"] == 5
    assert all(c["coefficients"] == "inf" for c in doc["cusps"])


def test_cli_invalid_signature_exit_2(capsys):
    code, _, err = run(capsys, ["complete", "--g", "1", "--k", "1"])
    assert code == 2
    assert "input error" in err


def test_cli_fill_isolated_cusp(capsys):
    code, out, _ = run(
        capsys, ["--json", "fill", "--g", "3", "--k", "2", "--coeffs", "inf,5/1"]
    )
    assert code == 0
    doc = json.loads(out)
    tau = doc["cusps"][0]["modulus"]
    assert abs(complex(*tau) - complex(0.5, math.sqrt(3) / 2)) < 1e-9
    assert doc["cusps"][1]["complex_length"] is not None
    assert doc["homology_rank"] == 4


def test_cli_small_beta_signatures(capsys):
    # beta ~ 0.05 here; both exited 3 while 1 - cos(beta) cancelled
    code, _, _ = run(capsys, ["complete", "--g", "10", "--k", "3"])
    assert code == 0
    code, out, _ = run(capsys, ["--json", "fill", "--g", "13", "--k", "1", "--coeffs", "5/1"])
    assert code == 0
    assert json.loads(out)["cusps"][0]["coefficients"] == pytest.approx([5.0, 1.0], abs=1e-9)


def test_cli_fill_short_slope_rejected(capsys):
    code, _, err = run(capsys, ["fill", "--g", "2", "--k", "1", "--coeffs", "2/1"])
    assert code == 2
    assert "sqrt(7)" in err


def test_cli_fill_has_no_flag_past_the_sqrt7_gate(capsys):
    # the sqrt(7) refusal is the only behaviour: argparse knows no such flag
    code, out, err = run(capsys, ["fill", "--g", "2", "--k", "1", "--coeffs", "2/1", "--allow-short"])
    assert code == 2 and out == ""
    assert err.endswith("mgk: error: unrecognized arguments: --allow-short\n")


def test_cli_fill_non_coprime_rejected(capsys):
    code, _, err = run(capsys, ["fill", "--g", "2", "--k", "1", "--coeffs", "10/2"])
    assert code == 2


def test_cli_fill_continuation_failure_exit_3(monkeypatch, capsys):
    # every solve to s = 1 fails, so the path creeps towards it in halving
    # steps until the step underflows, short of s = 1
    newton = deformation._newton

    def fail_answers(sig, x0, rows, tol):
        x, r, errors = newton(sig, x0, rows, tol)
        if tol == deformation._FILL_TOL:
            errors = [deformation.ConvergenceError("forced failure", 0.5)] * len(x)
        return x, r, errors

    monkeypatch.setattr(deformation, "_newton", fail_answers)
    code, _, err = run(capsys, ["fill", "--g", "2", "--k", "1", "--coeffs", "5/1"])
    assert code == 3
    # the signature, the slopes, the t of the last solved point and the
    # residual of the last failed Newton solve
    t = re.fullmatch(
        r"numerical failure: g=2 k=1 slopes 5/1: continuation step underflow at t=(\S+), residual 0.5\n", err
    )
    assert t and 1.0 < float(t.group(1)) < 1.001, err


def test_cli_fill_first_step_failure_exit_3(monkeypatch, capsys):
    def singular(sig, r, *args):
        return np.full_like(r, np.nan)

    monkeypatch.setattr(deformation, "_block_step", singular)
    code, _, err = run(capsys, ["fill", "--g", "2", "--k", "1", "--coeffs", "5/1"])
    assert code == 3
    # no point was solved, and every Newton solve stopped at its start
    residual = re.fullmatch(
        r"numerical failure: g=2 k=1 slopes 5/1: continuation step underflow at t=inf, residual (\S+)\n", err
    )
    assert residual and 0.0 < float(residual.group(1)) < math.inf, err


def test_cli_fill_batch(capsys):
    code, out, _ = run(
        capsys,
        [
            "--json",
            "fill",
            "--g",
            "2",
            "--k",
            "1",
            "--coeffs",
            "5/1;7/2",
            "--batch",
        ],
    )
    assert code == 0
    docs = json.loads(out)
    assert len(docs) == 2
    assert docs[0]["filling"] == [[5.0, 1.0]]


def test_cli_fill_batch_errors_per_entry(monkeypatch, capsys):
    argv = ["fill", "--g", "2", "--k", "1", "--coeffs", "5/1;2/1;10/2", "--batch"]
    code, out, _ = run(capsys, ["--json"] + argv)
    assert code == 2
    good, short, bad = json.loads(out)
    _, single, _ = run(capsys, ["--json", "fill", "--g", "2", "--k", "1", "--coeffs", "5/1"])
    assert good == json.loads(single)
    assert short["schema"] == "mgk/1" and short["coeffs"] == "2/1"
    assert short["error"]["exit"] == 2 and "sqrt(7)" in short["error"]["message"]
    assert bad["coeffs"] == "10/2" and bad["error"]["exit"] == 2
    code, out, _ = run(capsys, argv)
    assert code == 2
    assert out.startswith("signature       g=2 k=1")
    assert "\n\nerror           2/1: input error: " in out
    assert "\n\nerror           10/2: input error: " in out
    # a numerical failure outranks an input error in the exit code: the
    # path of 5/1 fails beside the two input errors
    path = deformation._path

    def fail_5_1(sig, cs, spec, *rest):
        if spec.pairs == ((5.0, 1.0),):
            return deformation.ConvergenceError("forced failure", 1.0), None
        return path(sig, cs, spec, *rest)

    monkeypatch.setattr(deformation, "_path", fail_5_1)
    code, out, _ = run(capsys, ["--json"] + argv)
    assert code == 3
    docs = json.loads(out)
    assert [d["error"]["exit"] for d in docs] == [3, 2, 2]
    assert docs[0]["error"]["message"] == "numerical failure: forced failure"


def test_cli_fill_batch_bad_report_fails_alone(monkeypatch, capsys):
    # a report that JSON cannot hold is its own list's error record, exit 2,
    # and the other lists still print
    real, calls = report.ci.return_path_length, []

    def nan_first(x):
        calls.append(1)
        return float("nan") if len(calls) == 1 else real(x)

    monkeypatch.setattr(report.ci, "return_path_length", nan_first)
    argv = ["--json", "fill", "--g", "6", "--k", "1", "--batch", "--coeffs", "5/1;7/2"]
    code, out, _ = run(capsys, argv)
    assert code == 2
    assert out == to_json(json.loads(out)) + "\n"
    bad, good = json.loads(out)
    assert bad["coeffs"] == "5/1" and bad["error"]["exit"] == 2
    assert "cannot write JSON" in bad["error"]["message"]
    _, single, _ = run(capsys, ["--json", "fill", "--g", "6", "--k", "1", "--coeffs", "7/2"])
    assert good == json.loads(single)


@pytest.mark.parametrize(
    "g, coeffs, floor",
    [
        ("2", "9876543/1", "cusp-row rounding floor"),
        ("1000", "5/1", "length-row rounding floor"),
        ("2", "1801439/1", "cusp-row rounding floor"),
    ],
)
def test_cli_fill_below_the_rounding_floor_is_an_input_error(capsys, g, coeffs, floor):
    code, out, err = run(capsys, ["fill", "--g", g, "--k", "1", "--coeffs", coeffs])
    assert code == 2 and out == ""
    assert err.startswith("input error: ") and floor in err and "times the gate 1e-10" in err
    # in a batch only that list fails; at g = 1000 the unfilled list still
    # gets the complete structure
    other = "5/1" if g == "2" else "inf"
    code, out, _ = run(capsys, ["--json", "fill", "--g", g, "--k", "1", "--batch", "--coeffs", coeffs + ";" + other])
    assert code == 2
    bad, good = json.loads(out)
    assert bad["error"] == {"exit": 2, "message": err.strip()}
    _, single, _ = run(capsys, ["--json", "fill", "--g", g, "--k", "1", "--coeffs", other])
    assert good == json.loads(single)
    if coeffs == "1801439/1":
        # the edge of the cusp floor: one less in p is not an input error
        code, _, inside = run(capsys, ["fill", "--g", g, "--k", "1", "--coeffs", "1801438/1"])
        assert code != 2, inside


@pytest.mark.parametrize("coeffs", [";", "", "5/1,3/1; "])
def test_cli_fill_batch_empty_list_is_an_error(capsys, coeffs):
    # an empty list fails as it does without --batch: exit 2, same message
    code, _, err = run(capsys, ["fill", "--g", "3", "--k", "2", "--coeffs", ""])
    assert code == 2
    message = err.strip()
    assert message == "input error: expected 2 comma-separated entries, got 1"
    record = {"schema": "mgk/1", "coeffs": "", "error": {"exit": 2, "message": message}}
    entries = [c.strip() for c in coeffs.split(";")]
    argv = ["fill", "--g", "3", "--k", "2", "--coeffs", coeffs, "--batch"]
    code, out, _ = run(capsys, ["--json"] + argv)
    assert code == 2
    docs = json.loads(out)
    assert len(docs) == len(entries)
    for entry, doc in zip(entries, docs):
        assert (doc == record) == (entry == "")
    code, out, _ = run(capsys, argv)
    assert code == 2
    blocks = out.rstrip("\n").split("\n\n")
    assert len(blocks) == len(entries)
    for entry, block in zip(entries, blocks):
        assert (block == "error           : " + message) == (entry == "")


def test_cli_fill_equal_invariants_inequivalent_slopes(capsys):
    code1, out1, _ = run(
        capsys, ["--json", "fill", "--g", "2", "--k", "1", "--coeffs", "19/11"]
    )
    code2, out2, _ = run(
        capsys, ["--json", "fill", "--g", "2", "--k", "1", "--coeffs", "16/-1"]
    )
    code3, out3, _ = run(
        capsys, ["--json", "fill", "--g", "2", "--k", "1", "--coeffs", "8/19"]
    )
    assert code1 == code2 == code3 == 0
    d1, d2, d3 = json.loads(out1), json.loads(out2), json.loads(out3)
    assert d1["homology_rank"] == d2["homology_rank"]
    assert d1["heegaard_genus"] == d2["heegaard_genus"]
    # equal-length but inequivalent slopes: scalar panel agrees only to
    # the slope-length order, the manifolds are not isometric
    assert abs(d1["return_path_length"] - d2["return_path_length"]) < 1e-6
    # same dihedral orbit (8/19 is the rotated 19/11): exact agreement
    assert abs(d1["return_path_length"] - d3["return_path_length"]) < 1e-10


def test_cli_slopes_table(capsys):
    code, out, _ = run(capsys, ["--json", "slopes", "--max-len-sq", "7"])
    assert code == 0
    doc = json.loads(out)
    rows = {r["length_sq"]: r["orbits"] for r in doc["orbits"]}
    assert [len(o) for o in rows[1]] == [3]
    assert [len(o) for o in rows[3]] == [3]
    assert [len(o) for o in rows[7]] == [6]


@pytest.mark.parametrize("bound", [ss.MAX_LEN_SQ + 1, 2 ** 62])
def test_cli_slopes_refuses_a_bound_too_large_for_memory(monkeypatch, capsys, bound):
    # classify_slopes scans O(max_len_sq) pairs: from 1e7 on it would run
    # until memory runs out, so a bound above the declared 10**6 is refused
    # before the first pair
    monkeypatch.setattr(ss, "Slope", None)
    code, out, err = run(capsys, ["slopes", "--max-len-sq", str(bound)])
    assert (code, out, err) == (2, "", "input error: request too large for memory\n")


def test_cli_similar(capsys):
    code, out, _ = run(
        capsys, ["similar", "--k", "3", "3/1@1,5/1@2", "3/1@2,5/1@3"]
    )
    assert code == 0
    assert out.startswith("equivalent")
    code, out, _ = run(capsys, ["similar", "--k", "1", "19/11@1", "16/-1@1"])
    assert code == 0
    assert out.startswith("not equivalent")
    # the reflected slope needs an orientation-reversing witness
    code, out, _ = run(capsys, ["similar", "--k", "1", "19/11@1", "8/-11@1"])
    assert code == 0 and out.startswith("not equivalent")
    code, out, _ = run(
        capsys, ["similar", "--k", "1", "19/11@1", "8/-11@1", "--reflections"]
    )
    assert code == 0 and out.startswith("equivalent")


@pytest.mark.parametrize("entry", ["x/1@1", "3/1@x", "3@1"])
def test_cli_similar_rejects_malformed_entry(capsys, entry):
    code, out, err = run(capsys, ["similar", "--k", "2", entry, "3/1@1"])
    assert code == 2
    assert out == "" and err.startswith("input error") and repr(entry) in err


_HUGE = "1%s/1@1" % ("0" * 400)


def test_cli_commensurable_overflow_is_an_input_error(capsys):
    code, out, err = run(capsys, ["commensurable", "--k", "1", _HUGE])
    assert code == 2
    assert out == "" and err.startswith("input error") and "no finite slope length" in err


@pytest.mark.parametrize(
    "sets, reason",
    [(["2/1@1", "5/x@2"], "threshold sqrt(7)"), (["5/x@2", "2/1@1"], "cannot parse slope '5/x'")],
)
def test_cli_commensurable_fails_with_the_first_failing_set(capsys, sets, reason):
    # a set that does not parse keeps its place: the first failing set in
    # input order fails the command, whether it fails to parse or to solve
    code, out, err = run(capsys, ["commensurable", "--k", "3", *sets])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("input error: ") and reason in err


def test_cli_similar_takes_slopes_of_any_size(capsys):
    # similar compares exact integers and never needs a float
    code, out, _ = run(capsys, ["similar", "--k", "1", _HUGE, _HUGE])
    assert code == 0 and out.startswith("equivalent")


_BIG_K = str(2**62)


@pytest.mark.parametrize(
    "argv",
    [
        ["similar", "--k", _BIG_K, "3/1@1", "3/1@1"],
        # the chain family takes odd k only
        ["commensurable", "--k", str(2**62 + 1), "3/1@1"],
        ["complete", "--g", str(2**62 + 1), "--k", _BIG_K],
        ["tangent", "--g", str(2**62 + 1), "--k", _BIG_K],
        ["trace", "--g", str(2**62 + 1), "--k", _BIG_K],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_request_too_large_for_memory_is_an_input_error(capsys, argv):
    # Python refuses a list or tuple of 2**62 entries by its size check,
    # and GKSignature a k whose 12k+1 doubles numpy cannot size, before
    # anything is allocated
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == "" and err == "input error: request too large for memory\n"


_SLOPE_INTS = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))
_SLOPE_TEXTS = st.one_of(
    # signed pairs, (0, 0) and non-coprime pairs among them
    st.builds("{}/{}".format, _SLOPE_INTS, _SLOPE_INTS),
    st.builds("{} / {}".format, _SLOPE_INTS, _SLOPE_INTS),
    st.text(alphabet="0123456789/-+_ x.", max_size=8),
)


def _accepted(parse):
    try:
        return parse()
    except DomainError:
        return None


@settings(max_examples=300, deadline=None)
@given(_SLOPE_TEXTS)
def test_fill_and_slope_set_parsers_agree(entry):
    # "inf" and its spellings mean an unfilled cusp, which only fill has
    assume(entry.strip().lower() not in ("inf", "infinity", "-"))
    spec = _accepted(lambda: FillingSpec.parse(entry, 1))
    sset = _accepted(lambda: cli._parse_slope_set(entry + "@1", 1))
    assert (spec is None) == (sset is None)
    if spec is not None:
        assert spec.canonicalized().pairs[0] == (sset[0].p, sset[0].q)


def _slope_set_reference(text, k):
    """`cli._parse_slope_set` as it was when each entry built its slope
    with `Slope.of`, which checks coprimality and sign form again."""
    if k < 1:
        raise DomainError("k must be >= 1, got %d" % k)
    slopes = [None] * k
    if text.strip():
        for item in text.split(","):
            item = item.strip()
            try:
                pq, at = item.rsplit("@", 1)
                torus, (p, q) = int(at), parse_slope(pq)
            except DomainError as exc:
                raise DomainError("slope entry %r: %s" % (item, exc)) from None
            except ValueError:
                raise DomainError("cannot parse slope entry %r (want p/q@i)" % item) from None
            if not 1 <= torus <= k:
                raise DomainError("torus index %d outside 1..%d" % (torus, k))
            if slopes[torus - 1] is not None:
                raise DomainError("torus %d given two slopes" % torus)
            slopes[torus - 1] = ss.Slope.of(p, q)
    return tuple(slopes)


def _slope_set_outcome(parse, text, k):
    try:
        sset = parse(text, k)
    except DomainError as exc:
        return "error", str(exc)
    return sset, repr(sset), [None if s is None else (type(s), hash(s)) for s in sset]


_ENTRY_INTS = st.one_of(
    st.integers(-4, 4),
    st.integers(-10**6, 10**6),
    st.integers(2**64, 2**70),
    st.integers(-2**70, -2**64),
)
# coprime and non-coprime pairs of either sign, 0/0, integers beyond 2^64,
# bad "@" parts and junk
_ENTRY_PAIRS = st.one_of(
    st.tuples(_ENTRY_INTS, _ENTRY_INTS),
    st.tuples(_ENTRY_INTS, _ENTRY_INTS, st.integers(2, 6)).map(lambda pqm: (pqm[0] * pqm[2], pqm[1] * pqm[2])),
)
_ENTRIES = st.one_of(
    st.builds("{0[0]}/{0[1]}@{1}".format, _ENTRY_PAIRS, st.integers(-1, 5)),
    st.builds("{0[0]}/{0[1]}@{1}".format, _ENTRY_PAIRS, st.sampled_from(["", "x", "1.0", " 2 ", "1@2", "+1", "2" * 30])),
    st.builds("{0[0]}/{0[1]}".format, _ENTRY_PAIRS),
    st.builds(" {0[0]} / {0[1]} @ {1} ".format, _ENTRY_PAIRS, st.integers(1, 4)),
    st.sampled_from(["3/1@1", "5/1@6", "2/1@0", "0/0@1", "0/1@1", "0/-1@2", "-1/0@1", "-3/-1@2"]),
    st.text(alphabet="0123456789/@-+ x,", max_size=10),
)


@st.composite
def _slope_set_args(draw):
    """A slope-set text and k: coprime pairs on distinct tori, to which
    about half add one entry of `_ENTRIES`; k < 1 for some."""
    k = draw(st.sampled_from([1, 2, 3, 5, 2, 3, 5, 0, -1]))
    tori = draw(st.lists(st.integers(1, max(k, 1)), unique=True, max_size=max(k, 1)))
    coprime = st.tuples(_ENTRY_INTS, _ENTRY_INTS).filter(lambda pq: math.gcd(*pq) == 1)
    entries = ["{0[0]}/{0[1]}@{1}".format(draw(coprime), t) for t in tori]
    if draw(st.booleans()):
        entries.insert(draw(st.integers(0, len(entries))), draw(_ENTRIES))
    return ",".join(entries), k


@settings(max_examples=500, deadline=None)
@given(_slope_set_args())
def test_slope_set_parser_matches_the_reference(args):
    text, k = args
    want = _slope_set_outcome(_slope_set_reference, text, k)
    assert _slope_set_outcome(cli._parse_slope_set, text, k) == want


@pytest.mark.parametrize("k", ["0", "-1"])
def test_cli_similar_rejects_k_below_one(capsys, k):
    code, out, err = run(capsys, ["similar", "--k", k, "", ""])
    assert code == 2
    assert out == "" and err.startswith("input error")


def _set_text(sset):
    return ",".join("%d/%d@%d" % (s.p, s.q, i + 1) for i, s in enumerate(sset) if s is not None)


@pytest.mark.parametrize("reflections", [False, True])
def test_cli_similar_k12(capsys, reflections):
    # beyond any exhaustive search over 12! permutations
    pairs = [(3, 1), None, (19, 11), (3, 1), (16, -1), None, (5, 1), (1, 0), (3, 1), None, (7, 2), (8, 3)]
    a = tuple(None if pq is None else ss.Slope.of(*pq) for pq in pairs)
    perm = (4, 11, 0, 7, 2, 9, 1, 3, 10, 5, 8, 6)
    local = tuple(ss.D6Element(i, reflections and i % 2 == 1) for i in range(12))
    b = ss.SlopeSetIsometry(perm, local).apply(a)
    argv = ["--json", "similar", "--k", "12", _set_text(a), _set_text(b)]
    code, out, _ = run(capsys, argv + (["--reflections"] if reflections else []))
    assert code == 0
    w = json.loads(out)["witness"]
    found = ss.SlopeSetIsometry(tuple(w["perm"]), tuple(ss.D6Element(r, bool(f)) for r, f in w["local"]))
    assert found.apply(a) == b
    assert w["orientation_preserving"] == found.orientation_preserving
    if not reflections:
        assert found.orientation_preserving
        # the mirror image of one torus is out of reach of rotations
        c = list(b)
        c[perm[0]] = ss.d6_act(ss.D6Element(0, True), c[perm[0]])
        code, out, _ = run(capsys, ["--json", "similar", "--k", "12", _set_text(a), _set_text(c)])
        assert code == 0 and json.loads(out) == {"schema": "mgk/1", "equivalent": False, "witness": None}


@pytest.mark.parametrize(
    "argv",
    [["complete", "--g", "10", "--k", "3"], ["slopes", "--max-len-sq", "2000"]],
)
def test_cli_closed_pipe_exits_quietly(argv):
    # the reader closes the pipe before the command writes anything
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "mgk.cli"] + argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert b"Traceback" not in err and b"BrokenPipeError" not in err
    assert proc.returncode == 1


def _fresh(script, *args) -> str:
    """The stdout of `script`, run with `args` in a fresh interpreter that
    imports mgk from this checkout."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_does_not_load_scipy():
    # scipy is not a dependency; importing it would dominate CLI start-up
    assert _fresh("import mgk.cli, sys; print('scipy' in sys.modules)") == "False"


# a bare `import mgk`, then `similar` and `slopes` in-process, their input
# errors too: after each, whether numpy is loaded
NO_NUMPY = """
import contextlib, io, json, sys
import mgk
seen = ["numpy" in sys.modules]
from mgk import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        seen.append([cli.main(argv), "numpy" in sys.modules])
print(json.dumps(seen))
"""


def test_similar_and_slopes_load_no_numpy():
    a8 = "7/2@1,3/1@2,5/1@3,19/11@4,16/-1@5,1/0@6,11/3@7,13/4@8"
    b8 = "1/-2@1,11/-8@2,1/1@3,7/5@4,4/13@5,8/-3@6,4/-1@7,16/17@8"
    argvs = [
        ["similar", "--k", "3", "3/1@1,5/1@2", "5/1@1,3/1@2", "--json"],
        ["similar", "--k", "8", a8, b8, "--reflections"],
        ["similar", "--k", "2", "4/2@1", ""],
        ["slopes", "--max-len-sq", "30", "--json"],
        ["slopes", "--max-len-sq", "0"],
    ]
    seen = json.loads(_fresh(NO_NUMPY, json.dumps(argvs)))
    assert seen == [False, [0, False], [0, False], [2, False], [0, False], [2, False]]


# perfbench's tracer wraps only the modules that are loaded when it
# installs, after reading `mgk.residuals`: that one name loads them all
NUMPY_HALF = """
import json, sys
import mgk
names = ["mgk." + m for m in ("deformation", "cusp_invariants", "commensurability_xk", "report", "boundary_trace")]
before = [m in sys.modules for m in names]
residuals = mgk.residuals
print(json.dumps([before, [m in sys.modules for m in names],
                  residuals is sys.modules["mgk.deformation"].residuals,
                  sorted(set(mgk.__all__) - set(vars(mgk)))]))
"""


def test_first_solver_name_loads_the_numpy_half():
    before, after, same, unbound = json.loads(_fresh(NUMPY_HALF))
    assert before == [False] * 5 and after == [True] * 5
    # every exported name is bound once the first is read
    assert same and unbound == []


STAR = """
import json
import mgk
listed = dir(mgk)
star = {}
exec("from mgk import *", star)
print(json.dumps([sorted(set(mgk.__all__) - set(listed)), sorted(set(mgk.__all__) - set(star)),
                  [n for n in mgk.__all__ if star[n] is not getattr(mgk, n)], hasattr(mgk, "no_such_name")]))
"""


def test_star_import_and_dir_give_every_exported_name():
    assert json.loads(_fresh(STAR)) == [[], [], [], False]


def test_moved_names_keep_their_old_homes():
    from mgk import hyptrig, jsontext

    assert deformation.ConvergenceError is hyptrig.ConvergenceError
    assert report.to_json is jsontext.to_json and report.SCHEMA == jsontext.SCHEMA


def test_cli_commensurable_rotated(capsys):
    code, out, _ = run(
        capsys, ["--json", "commensurable", "--k", "3", "7/2@1", "--rotated"]
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["structures"]) == 3
    assert all(p["commensurable"] is False for p in doc["pairs"])


def test_cli_commensurable_tau_pair(capsys):
    code, out, _ = run(
        capsys, ["--json", "commensurable", "--k", "3", "7/2@1", "7/2@3"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pairs"][0]["commensurable"] is True


def test_cli_tangent(capsys):
    code, out, _ = run(capsys, ["--json", "tangent", "--g", "3", "--k", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 4
    assert doc["max_jacobian_product"] < 1e-12


@pytest.mark.parametrize(
    "g, k", [(2, 1), (3, 2), (9, 3), (17, 16), (33, 32), (65, 64), (150, 1), (200, 64)]
)
def test_cli_tangent_matches_the_dense_svd(capsys, g, k):
    # the spectrum read off one cusp is that of the dense (12k+1)^2 SVD
    code, out, _ = run(capsys, ["--json", "tangent", "--g", str(g), "--k", str(k)])
    assert code == 0
    doc = json.loads(out)
    sig = deformation.GKSignature(g, k)
    J = deformation.jacobian(sig, deformation.solve_complete(sig).x0)
    want = np.linalg.svd(np.vstack([J, np.zeros((2 * k, sig.n_coords))]), compute_uv=False)
    sv = np.array(doc["singular_values"])
    assert sv.shape == (12 * k + 1,) and np.all(np.diff(sv) <= 0.0)
    assert np.max(np.abs(sv - want)) <= 1e-13 * want[0]
    assert doc["dimension"] == 2 * k
    assert doc["basis"] == deformation.tangent_basis(sig).tolist()
    assert doc["max_jacobian_product"] <= 1e-15 * want[0]


def dense_tangent_doc(g, k):
    """The `mgk tangent` document built cusp by cusp and from the dense
    public `jacobian` of the one-cusp signature: the oracle of
    `deformation.tangent_spectrum`."""
    sig = GKSignature(g, k)
    cs = deformation.solve_complete(sig)
    t = math.sqrt(3.0) * math.cos(cs.alpha_bar) / math.sin(cs.alpha_bar)
    basis = np.zeros((2 * k, sig.n_coords))
    for c in range(k):
        deformation.angle_blocks(basis[2 * c])[c] = deformation._tangent_block(t, 1.0, 0.0)
        deformation.angle_blocks(basis[2 * c + 1])[c] = deformation._tangent_block(t, 0.0, 1.0)
    one = deformation.jacobian(GKSignature(g - k + 1, 1), cs.x0[np.r_[:12, -1]])
    jn = np.max(np.abs(one[:, :12] @ basis[:2, :12].T))
    mode = one.copy()
    mode[:10, 12] *= math.sqrt(k)
    mode[10, :12] *= math.sqrt(k)
    sv = [np.linalg.svd(m, compute_uv=False) for m in (one[:10, :12], mode)]
    sv = np.sort(np.concatenate([np.tile(sv[0], k - 1), sv[1], np.zeros(2 * k)]))[::-1]
    return {
        "schema": "mgk/1",
        "dimension": 2 * k,
        "basis": basis.tolist(),
        "max_jacobian_product": float(jn),
        "singular_values": sv.tolist(),
    }


@pytest.mark.parametrize("g, k", [(2, 1), (3, 2), (9, 3), (17, 16), (65, 64)])
def test_cli_tangent_is_the_dense_one_cusp_oracle(capsys, g, k):
    # bit for bit, the JSON and the text
    doc = dense_tangent_doc(g, k)
    argv = ["tangent", "--g", str(g), "--k", str(k)]
    assert run(capsys, ["--json"] + argv) == (0, to_json(doc) + "\n", "")
    assert run(capsys, argv) == (0, cli._tangent_text(doc) + "\n", "")


def test_cli_tangent_text(capsys):
    code, out, _ = run(capsys, ["tangent", "--g", "3", "--k", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "tangent space dimension 4"
    assert re.fullmatch(r"max \|J b\| over basis vectors: \S+", lines[1])
    assert float(lines[1].split()[-1]) < 1e-12
    assert len(lines) == 2 + 4
    assert lines[2].startswith("  [1, 0, -1, ") and lines[2].endswith(", 0, 0]")


def test_cli_slopes_text(capsys):
    code, out, _ = run(capsys, ["slopes", "--max-len-sq", "7"])
    assert code == 0
    assert out.splitlines() == [
        "L^2   L        orbit size  representatives",
        "1     1        3           0/1 1/0 1/1",
        "3     1.7321   3           1/-1 1/2 2/1",
        "7     2.6458   6           1/-2 1/3 2/-1 2/3 3/1 3/2",
    ]


def test_cli_commensurable_text(capsys):
    code, out, _ = run(capsys, ["commensurable", "--k", "3", "7/2@1", "7/2@3", "--rotated"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6 + 15
    assert re.fullmatch(r"7/2@1 +abc = \(1\.4760956\d*, 1\.5164684\d*, 1\.5545678\d*\)", lines[0])
    assert lines[2].startswith("7/2@1 (rotated) ") and " abc = (1.5545678" in lines[2]
    assert "7/2@1 vs 7/2@3: commensurable" in lines
    assert "7/2@1 vs 7/2@1 (rotated): NOT commensurable" in lines
    assert "7/2@1 (rotated) vs 7/2@3 (rotated): commensurable" in lines


def test_cli_trace_text(capsys):
    code, out, _ = run(capsys, ["trace", "--g", "2", "--k", "1", "--grid", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r0        trace       trace''     stima>0"
    assert [line.split()[0] for line in lines[1:]] == ["0.1", "1.45", "2.8"]
    assert all(line.split()[-1] == "True" for line in lines[1:])
    assert abs(float(lines[2].split()[1]) - 5.58184) < 1e-5


def test_cli_trace_prints_its_bytes(capsys):
    # the rows of `mgk trace`, as text and under --json, to the last digit
    code, out, _ = run(capsys, ["trace", "--g", "2", "--k", "1", "--grid", "5"])
    assert code == 0 and out == (
        "r0        trace       trace''     stima>0\n"
        "0.1       3.74059     -8.0883     True\n"
        "0.775     4.9399      -12.0665    True\n"
        "1.45      5.58184     -14.6833    True\n"
        "2.125     5.59399     -15.6433    True\n"
        "2.8       4.97497     -14.8384    True\n"
    )
    code, out, _ = run(capsys, ["--json", "trace", "--g", "2", "--k", "1", "--grid", "5"])
    rows = [
        (0.1, 2.073306726189196, 3.7405930401183913, -8.088298895307574),
        (0.7749999999999999, 2.748306726189196, 4.939898346688479, -12.06651429143755),
        (1.45, 3.423306726189196, 5.581839233193468, -14.68327540890553),
        (2.125, 4.098306726189196, 5.59398606954536, -15.643335374126716),
        (2.8, 4.773306726189196, 4.9749683387975026, -14.838371458941758),
    ]
    doc = {"schema": "mgk/1", "delta": 0, "rows": [
        {"r0": r0, "lambda0": 11.288886117561516, "eta0": 0.986653363094598, "zeta0": zeta0,
         "trace": trace, "trace_dd": trace_dd, "stima_positive": True}
        for r0, zeta0, trace, trace_dd in rows
    ]}
    assert code == 0 and out == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize(
    "entries, message",
    [
        ("3/1@3", "input error: torus index 3 outside 1..2"),
        ("3/1@0", "input error: torus index 0 outside 1..2"),
        ("3/1@1,5/1@1", "input error: torus 1 given two slopes"),
    ],
)
def test_cli_similar_rejects_bad_torus(capsys, entries, message):
    code, out, err = run(capsys, ["similar", "--k", "2", entries, "3/1@1"])
    assert code == 2
    assert out == "" and err == message + "\n"


def test_cli_trace_grid(capsys):
    code, out, _ = run(
        capsys,
        ["--json", "trace", "--g", "2", "--k", "1", "--delta", "0", "--grid", "20"],
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 20
    assert all(abs(r["trace_dd"]) > 1e-6 for r in doc["rows"])
    assert all(r["stima_positive"] for r in doc["rows"])


@pytest.mark.parametrize("g, k, delta", [(2, 1, 0), (7, 3, 1)])
def test_cli_trace_grid_rows_are_those_of_each_r0(capsys, g, k, delta):
    # the grid solves the complete structure once, a miss of the cache that
    # every r0 then reads, and each row is the one that `varsigma_trace_data`
    # gives at its r0 alone; an r0 whose zeta0 leaves (0, 2 pi) has no row
    from mgk import boundary_trace as bt

    solve_complete.cache_clear()
    argv = ["--json", "trace", "--g", str(g), "--k", str(k), "--delta", str(delta), "--grid", "60", "--grid-max", "7"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and solve_complete.cache_info().misses == 1
    want = []
    for r0 in np.linspace(0.1, 7.0, 60):
        try:
            d = bt.varsigma_trace_data(GKSignature(g, k), delta, r0)
        except DomainError:
            continue
        want.append(
            {
                "r0": r0,
                "lambda0": d.lambda0,
                "eta0": d.eta0,
                "zeta0": d.zeta0,
                "trace": bt.trace_gamma(d.lambda0, d.eta0, d.zeta0),
                "trace_dd": bt.trace_second_derivative(d),
                "stima_positive": bt.stima_inequality(d.lambda0, d.eta0, d.zeta0),
            }
        )
    assert 0 < len(want) < 60
    assert out == to_json({"schema": "mgk/1", "delta": delta, "rows": want}) + "\n"


def test_cli_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        ["--json", "--out", str(target), "complete", "--g", "2", "--k", "1"],
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["schema"] == "mgk/1"


def test_cli_trace_grid_below_one_is_an_input_error(capsys):
    code, out, err = run(capsys, ["trace", "--g", "2", "--k", "1", "--grid", "-1"])
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "--grid" in err


def test_cli_trace_grid_too_large_for_memory_is_an_input_error(capsys):
    # 2**62 doubles exceed numpy's largest array, as GKSignature's rule reads
    # it: one input error line, not numpy's ValueError
    code, out, err = run(capsys, ["trace", "--g", "2", "--k", "1", "--grid", str(2**62)])
    assert code == 2 and out == ""
    assert err == "input error: request too large for memory\n"


@pytest.mark.parametrize("grid_max", ["inf", "-inf", "nan"])
def test_cli_trace_grid_max_not_finite_is_an_input_error(capsys, grid_max):
    # refused before np.linspace, which would warn on an infinite end; the
    # "=" form, as argparse reads "-inf" alone as an option
    code, out, err = run(capsys, ["trace", "--g", "2", "--k", "1", "--grid", "5", "--grid-max=" + grid_max])
    assert code == 2 and out == ""
    assert err == "input error: --grid-max must be finite, got %s\n" % grid_max


def test_cli_trace_single_r0(capsys):
    # without --grid one row at --r0, 1 by default; an r0 where the
    # varsigma curve has no trace data leaves no row, an input error
    code, out, _ = run(capsys, ["trace", "--g", "2", "--k", "1"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2 and lines[1].split()[0] == "1"
    code, out, err = run(capsys, ["trace", "--g", "2", "--k", "1", "--r0", "10"])
    assert code == 2 and out == ""
    assert err == "input error: no admissible r0 values in the requested range\n"


@pytest.mark.parametrize("missing", [False, True])
def test_cli_out_unwritable_is_an_input_error(tmp_path, capsys, missing):
    # a path in a directory that does not exist, or a directory itself
    target = tmp_path / "no" / "x.json" if missing else tmp_path
    code, out, err = run(capsys, ["--out", str(target), "complete", "--g", "2", "--k", "1"])
    assert code == 2 and out == ""
    assert err.startswith("input error: cannot write %s: " % target)


@pytest.mark.parametrize(
    "argv",
    [
        ["complete", "--g", "2", "--k", "1", "--tol-residual", "1"],
        ["--tol-residual", "1", "complete", "--g", "2", "--k", "1"],
        ["commensurable", "--k", "3", "7/2@1", "--rotated", "--tol-invariant", "10"],
        ["--tol-invariant", "10", "commensurable", "--k", "3", "7/2@1", "--rotated"],
    ],
)
def test_cli_tolerance_flags_are_gone(capsys, argv):
    # tolerances are fixed: no option can let a report or a verdict through
    code, out, _ = run(capsys, argv)
    assert code == 2 and out == ""


def test_cli_text_report_names_the_solved_slope(capsys):
    # %g would print 1.23457e+06/1, a different slope
    code, out, _ = run(capsys, ["fill", "--g", "2", "--k", "1", "--coeffs", "1234567/1"])
    assert code == 0
    assert "filling         1234567/1\n" in out



@pytest.mark.parametrize("pq", ["499999/3", "1234567/1"])
def test_cli_text_prints_no_wrong_coefficient_digit(capsys, pq):
    # the doubles recover q to about 5e-6 at 499999/3 and 4e-5 at
    # 1234567/1; the text rounds each coefficient where its bound allows
    code, out, _ = run(capsys, ["fill", "--g", "2", "--k", "1", "--coeffs", pq])
    assert code == 0
    assert "  coeff (%s)  core length " % pq.replace("/", ", ") in out
    _, doc, _ = run(capsys, ["--json", "fill", "--g", "2", "--k", "1", "--coeffs", pq])
    cusp = json.loads(doc)["cusps"][0]
    p, q = map(float, pq.split("/"))
    assert 1e-6 < max(abs(cusp["coefficients"][0] - p), abs(cusp["coefficients"][1] - q))
    assert 1e-6 < cusp["coefficients_error"] < 1e-4


def test_coefficients_error_covers_the_true_error():
    # seeded fillings up to 3e5, one to eight cusps, some left unfilled;
    # the slope is unoriented, so the error is to the nearer of +-(p, q)
    rng = np.random.default_rng(2027)
    for k in (1, 1, 1, 1, 2, 3, 8):
        sig = GKSignature(int(rng.integers(k + 1, 201)), k)
        pairs = []
        while len(pairs) < k:
            p, q = (int(v) for v in rng.integers(-300000, 300001, 2))
            if math.gcd(p, q) == 1 and p * p + q * q - p * q >= 7:
                pairs.append(None if len(pairs) and rng.random() < 0.3 else (p, q))
        spec = FillingSpec.from_pairs(k, pairs)
        rep = build_report(sig, spec, solve_filling(sig, spec))
        for pq, cusp in zip(pairs, rep["cusps"]):
            if pq is None:
                assert cusp["coefficients"] == "inf" and cusp["coefficients_error"] is None
                continue
            (a, b), err = cusp["coefficients"], cusp["coefficients_error"]
            true = min(max(abs(a - s * pq[0]), abs(b - s * pq[1])) for s in (1, -1))
            assert true <= err < 1e-4


def test_text_coefficient_digits_follow_the_bound():
    assert report._certain(2.9999950848239907, 8.8e-6) == "3"
    assert report._certain(1.23456, 1e-3) == "1.23"
    assert report._certain(-1.23456, 1e-3) == "-1.23"
    assert report._certain(1234567.3, 3.0) == "1234570"
    # -0.0 rounds to 0
    assert report._certain(-1e-12, 1e-10) == "0"
    # where the bound leaves every digit of %.9g, the text is %.9g's
    assert report._certain(100.00000000002, 1e-12) == "100"
    assert report._certain(1.23456789012, 1e-12) == "1.23456789"
    assert report._certain(1.23456789012, None) == "1.23456789"


# ---------------------------------------------------------------------------
# one parser per process, shared by every call of main

COMPLETE = ["complete", "--g", "2", "--k", "1"]


def test_cli_builds_its_parser_once(monkeypatch, capsys):
    run(capsys, COMPLETE)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (
        ["similar", "--k", "2", "3/1@1,5/1@2", "5/1@1,3/1@2"],
        ["fill", "--batch", "--g", "3", "--k", "2", "--coeffs", "inf,5/1;5/1,inf"],
        COMPLETE,
    ):
        assert run(capsys, argv)[0] == 0
    assert built == []


@pytest.mark.parametrize("first", [["--json"] + COMPLETE, COMPLETE + ["--json"]])
def test_cli_json_flag_does_not_leak(capsys, first):
    code, out, _ = run(capsys, first)
    assert code == 0 and json.loads(out)["schema"] == "mgk/1"
    code, out, _ = run(capsys, COMPLETE)
    assert code == 0 and out.startswith("signature       g=2 k=1\n")


def test_cli_out_flag_does_not_leak(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, ["--out", str(target)] + COMPLETE)
    assert code == 0 and out == ""
    written = target.read_text()
    code, out, _ = run(capsys, COMPLETE)
    assert code == 0 and out == written
    assert target.read_text() == written


def test_cli_parse_error_does_not_leak(capsys):
    code, out, err = run(capsys, ["complete", "--g", "2"])
    assert code == 2 and out == "" and "--k" in err
    code, out, err = run(capsys, COMPLETE)
    assert code == 0 and out.startswith("signature") and err == ""


@pytest.mark.parametrize("argv", [["--help"], ["similar", "--help"]])
def test_cli_help_before_and_after_other_calls(capsys, argv):
    code, before, _ = run(capsys, argv)
    assert code == 0 and before.startswith("usage: mgk")
    assert run(capsys, ["--json"] + COMPLETE)[0] == 0
    assert run(capsys, ["complete", "--g", "x", "--k", "1"])[0] == 2
    code, after, _ = run(capsys, argv)
    assert code == 0 and after == before


# the grammar of `mgk`: per parser, each action as (class, option strings,
# dest, type, default, required, choices, nargs, help) in the order added,
# and the parser's set_defaults.  These are the fields `_read_exact` reads.
_SUP = argparse.SUPPRESS
_HELP = ("_HelpAction", ["-h", "--help"], "help", None, _SUP, False, None, 0,
         "show this help message and exit")
_JSON = ("_StoreTrueAction", ["--json"], "json", None, False, False, None, 0, "machine-readable output")
_OUT = ("_StoreAction", ["--out"], "out", None, None, False, None, None,
        "write output to this file instead of stdout")
_G = ("_StoreAction", ["--g"], "g", "int", None, True, None, None, None)
_K = ("_StoreAction", ["--k"], "k", "int", None, True, None, None, None)
_GRAMMAR = {
    "mgk": ([_HELP, _JSON, _OUT, ("_SubParsersAction", [], "command", None, None, True, [
        ("complete", "solve the complete structure"),
        ("fill", "solve a Dehn filling"),
        ("slopes", "classify short slopes into isometry orbits"),
        ("similar", "decide equivalence of two slope sets"),
        ("commensurable", "compare fillings of the odd-k chain manifold"),
        ("tangent", "tangent space at the complete solution"),
        ("trace", "boundary-trace second derivative data"),
    ], "A...", None)], {}),
    "complete": ([_G, _K], "cmd_complete"),
    "fill": ([
        _G,
        _K,
        ("_StoreAction", ["--coeffs"], "coeffs", None, None, True, None, None,
         'e.g. "inf,5/1"; with --batch, ";"-separated lists'),
        ("_StoreTrueAction", ["--batch"], "batch", None, False, False, None, 0,
         "solve several coefficient lists"),
    ], "cmd_fill"),
    "slopes": (
        [("_StoreAction", ["--max-len-sq"], "max_len_sq", "int", None, True, None, None, None)],
        "cmd_slopes",
    ),
    "similar": ([
        _K,
        ("_StoreAction", [], "set_a", None, None, True, None, None, 'e.g. "3/1@1,5/1@2"'),
        ("_StoreAction", [], "set_b", None, None, True, None, None, None),
        ("_StoreTrueAction", ["--reflections"], "reflections", None, False, False, None, 0,
         "allow orientation-reversing witnesses"),
    ], "cmd_similar"),
    "commensurable": ([
        _K,
        ("_StoreAction", [], "sets", None, None, True, None, "+", 'slope sets, e.g. "7/2@1"'),
        ("_StoreTrueAction", ["--rotated"], "rotated", None, False, False, None, 0,
         "include the two rotated companions"),
    ], "cmd_commensurable"),
    "tangent": ([_G, _K], "cmd_tangent"),
    "trace": ([
        _G,
        _K,
        ("_StoreAction", ["--delta"], "delta", "int", 0, False, (0, 1), None, None),
        ("_StoreAction", ["--r0"], "r0", "float", 1.0, False, None, None, None),
        ("_StoreAction", ["--grid"], "grid", "int", None, False, None, None,
         "scan this many r0 values instead"),
        ("_StoreAction", ["--grid-max"], "grid_max", "float", 2.8, False, None, None, None),
    ], "cmd_trace"),
}


def _grammar(parser):
    rows = []
    for a in parser._actions:
        choices = a.choices
        if isinstance(a, argparse._SubParsersAction):
            choices = [(c.dest, c.help) for c in a._choices_actions]
        kind = getattr(a.type, "__name__", a.type)
        rows.append(
            (type(a).__name__, a.option_strings, a.dest, kind, a.default, a.required, choices, a.nargs, a.help)
        )
    return rows, {k: v.__name__ for k, v in parser._defaults.items()}


@pytest.mark.parametrize("name", sorted(_GRAMMAR))
def test_cli_grammar(name):
    ap, commands, _ = cli._parsers()
    actions, defaults = _GRAMMAR[name]
    if name == "mgk":
        assert _grammar(ap) == (actions, defaults)
        assert list(commands) == [row[0] for row in actions[-1][6]]
        return
    # every subcommand takes --json and --out after its own arguments, with
    # SUPPRESS defaults so that the top parser's values stand
    common = [row[:4] + (_SUP,) + row[5:] for row in (_JSON, _OUT)]
    assert _grammar(commands[name]) == ([_HELP] + actions + common, {"func": defaults})


# `parse` reads a well-formed argv after a leading subcommand from that
# subcommand's action table (`_read_exact`) and leaves every other argv to
# the full parse: it must read what the full parse reads, and fail where
# and as it fails
SIMILAR = ["similar", "--k", "2", "3/1@1", "5/1@2"]


def _parsed(parse, argv):
    """The fields of `parse(argv)`, by repr so that a NaN equals itself, or
    the exit code, stdout and stderr of the SystemExit it raises."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parse(argv)
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()
    assert out.getvalue() == err.getvalue() == ""
    return sorted((k, repr(v)) for k, v in vars(args).items())


@pytest.mark.parametrize(
    "argv",
    [
        SIMILAR,
        SIMILAR + ["--json", "--reflections"],
        ["--json"] + SIMILAR + ["--out", "x"],
        ["similar", "--k=2", "--", "3/1@1", "5/1@2"],
        COMPLETE + ["--out", "x", "--json"],
        ["fill", "--g", "3", "--k", "2", "--coeffs", "inf,5/1", "--batch", "--allow"],
        ["fill", "--g", "3", "--k", "2", "--coeffs", "-"],
        ["trace", "--g", "2", "--k", "1", "--grid", "3"],
        # argparse gives a nargs="+" positional one run: 5/1@1 is unread
        ["commensurable", "--k", "3", "7/2@1", "--rotated", "5/1@1"],
        ["commensurable", "--k", "3", "7/2@1", "5/1@1", "--rotated"],
    ],
)
def test_cli_parse_reads_what_the_full_parse_reads(argv):
    ap = cli._parsers()[0]
    assert _parsed(cli.parse, argv) == _parsed(ap.parse_args, argv)


# per subcommand: its options that take a value, its flags, and its
# positionals as argparse assigns them (a nargs="+" set is one run)
_SUBCOMMANDS = {
    "complete": (["--g", "--k"], [], []),
    "fill": (["--g", "--k", "--coeffs"], ["--batch"], []),
    "slopes": (["--max-len-sq"], [], []),
    "similar": (["--k"], ["--reflections"], [["3/1@1"], ["5/1@1,3/1@2"]]),
    "commensurable": (["--k"], ["--rotated"], [["7/2@1", "5/1@1"]]),
    "tangent": (["--g", "--k"], [], []),
    "trace": (["--g", "--k", "--delta", "--r0", "--grid", "--grid-max"], [], []),
}
_REQUIRED = ("--g", "--k", "--coeffs", "--max-len-sq")
# well-formed values of the options (an int where none is named here),
# but --delta 2 is outside its choices
_GOOD_VALUES = {
    "--coeffs": st.sampled_from(["inf,5/1", "5/1;7/2"]),
    "--out": st.just("x.json"),
    "--delta": st.sampled_from(["0", "1", "2"]),
    "--r0": st.sampled_from(["0.5", "1", "2.5e0"]),
    "--grid-max": st.sampled_from(["2.8", "3"]),
}
# negative, float, NaN, junk, empty and option-like values
_VALUES = st.one_of(
    st.sampled_from(["-1", "-3/1@1", "nan", "-", "x", "", " 3 ", "3/1@1", "--", "-h", "--json", "-x"]),
    st.integers(-3, 70).map(str),
    st.floats(-5, 5, allow_nan=False).map(repr),
)
# abbreviations (--gri is ambiguous in trace), unknown options, help, and
# options of the top parser or of another subcommand
_NOISE = ["--ref", "--allow", "--js", "--rot", "--gri", "--grid-m", "--co", "--max", "--bogus",
          "-x", "--", "-h", "--help", "--g", "--coeffs", "--rotated", "similar"]


@st.composite
def _argv(draw):
    """A subcommand's argv: its required options and positionals in a
    drawn order with more options and flags, repeated ones too, so that
    about half are well formed; the others add noise: a bad value,
    --opt=value, an abbreviation, a value that starts with "-", an unknown
    option, a positional too many or too few, "--" or -h."""
    name = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    valued, flags, positionals = _SUBCOMMANDS[name]
    valued, flags = valued + ["--out"], flags + ["--json"]

    def value(option):
        return _GOOD_VALUES.get(option, st.integers(1, 9).map(str))

    part = st.one_of(
        st.sampled_from(valued).flatmap(lambda o: value(o).map(lambda v: [o, v])),
        st.sampled_from(flags).map(lambda f: [f]),
    )
    parts = [[o, draw(value(o))] for o in valued if o in _REQUIRED or draw(st.booleans())]
    parts += [[f] for f in flags if draw(st.booleans())] + positionals
    parts += draw(st.lists(part, max_size=2))
    head = []
    if draw(st.booleans()):
        noise = st.one_of(
            st.tuples(st.sampled_from(valued), _VALUES).map(list),
            st.tuples(st.sampled_from(valued), _VALUES).map(lambda ov: ["=".join(ov)]),
            st.sampled_from(["3/1@1", "", "-3/1@1", "7/2@1,5/1@2"]).map(lambda s: [s]),
            st.sampled_from(flags).map(lambda f: [f, "3/1@1"]),
            st.sampled_from(_NOISE).map(lambda n: [n]),
        )
        parts += draw(st.lists(noise, min_size=1, max_size=2))
        if draw(st.booleans()):
            del parts[draw(st.integers(0, len(parts) - 1))]
        head = draw(st.sampled_from([[]] * 5 + [["--json"], ["--bogus"], ["-h"]]))
    parts = draw(st.permutations(parts))
    return head + [name] + [arg for p in parts for arg in p]


@settings(max_examples=1000, deadline=None)
@given(_argv())
def test_cli_parse_is_the_full_parse(argv):
    ap = cli._parsers()[0]
    assert _parsed(cli.parse, argv) == _parsed(ap.parse_args, argv)


_WELL_FORMED = [
    ["complete", "--json", "--g", "2", "--k", "1"],
    ["fill", "--g", "3", "--k", "2", "--coeffs", "inf,5/1", "--batch", "--json", "--out", "x"],
    ["slopes", "--max-len-sq", "30"],
    ["similar", "3/1@1", "--reflections", "5/1@2", "--k", "2", "--k", "3"],
    ["tangent", "--k", "3", "--g", "4", "--json", "--json"],
    ["trace", "--g", "2", "--k", "1", "--delta", "1", "--r0", "0.5", "--grid", "3", "--grid-max", "2.5"],
]


@pytest.mark.parametrize("argv", _WELL_FORMED, ids=lambda argv: argv[0])
def test_cli_reads_a_well_formed_argv_without_argparse(monkeypatch, argv):
    ap, commands, _ = cli._parsers()
    want = vars(ap.parse_args(argv))

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed %r" % (argv,))

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    # nor does it read argparse's private tables and action classes, which
    # a Python upgrade may change: only the actions that add_argument returned
    for p in commands.values():
        monkeypatch.delattr(p, "_option_string_actions")
        monkeypatch.delattr(p, "_actions")
    for name in ("_StoreConstAction", "_StoreAction"):
        monkeypatch.setattr(argparse, name, type(name, (argparse.Action,), {}))
    assert vars(cli.parse(argv)) == want


def test_cli_leaves_a_many_valued_positional_to_argparse(monkeypatch):
    # `commensurable`'s sets take one or more values: the exact reader has no
    # table for it, and a well-formed argv is argparse's full parse
    ap, commands, tables = cli._parsers()
    assert sorted(tables) == sorted(set(commands) - {"commensurable"})
    argv = ["commensurable", "--k", "3", "7/2@1", "5/1@1", "--rotated"]
    want, calls = vars(ap.parse_args(argv)), []
    parse_known_args = argparse.ArgumentParser.parse_known_args
    monkeypatch.setattr(
        argparse.ArgumentParser, "parse_known_args", lambda *a, **kw: calls.append(1) or parse_known_args(*a, **kw)
    )
    assert vars(cli.parse(argv)) == want and calls


@pytest.mark.parametrize("extra", [["--bogus"], ["extra"], ["--bogus", "--json"], ["--json", "x", "--bogus"]])
def test_cli_unread_argument_is_the_top_level_error(capsys, extra):
    code, out, err = run(capsys, SIMILAR + extra)
    unread = " ".join(a for a in extra if a != "--json")
    assert code == 2 and out == "" and err.startswith("usage: mgk [-h] [--json] [--out OUT]")
    assert err.endswith("mgk: error: unrecognized arguments: %s\n" % unread)
