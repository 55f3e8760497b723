import csv
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

import bmtrunc
from bmtrunc import build_generator, cli, lc_truncate, load_model, solve
from bmtrunc.cli import CSV_HEADER, exit_code_for, main
from bmtrunc.errors import (
    BmtruncError,
    DriftViolated,
    InvalidBmap,
    InvalidModelFile,
    NoConvergence,
)
from helpers import UP_ONLY_ROWS, affine_disaster_queue, bmap_doc, write_model


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def mm1_path(mm1, tmp_path):
    return write_model(tmp_path / "mm1.json", bmap_doc(mm1))


def banded_doc(rows, d=1, L=1, U=1, K_hom=1):
    blocks = [
        {"level": level, "offset": off, "matrix": np.asarray(m).tolist()}
        for level, per in rows.items()
        for off, m in per.items()
    ]
    return {"d": d, "kind": "ExplicitBanded",
            "parameters": {"L": L, "U": U, "K_hom": K_hom, "blocks": blocks}}


def test_exit_code_mapping():
    assert exit_code_for(InvalidModelFile("x")) == 2
    assert exit_code_for(DriftViolated(level=0, phase=0, slack=1.0)) == 1
    assert exit_code_for(NoConvergence("x")) == 3
    assert exit_code_for(BmtruncError("x")) == 3


def test_validate_ok(runner, mm1_path):
    result = runner.invoke(main, ["validate", "--model", mm1_path])
    assert result.exit_code == 0
    assert "conservative: yes" in result.output
    assert "BM_1: yes" in result.output


def test_validate_against(runner, mm1, tmp_path):
    import dataclasses

    from bmtrunc import MuRule

    slow = write_model(tmp_path / "slow.json", bmap_doc(mm1))
    fast_model = dataclasses.replace(mm1, mu=MuRule(table=(2.2,)))
    fast = write_model(tmp_path / "fast.json", bmap_doc(fast_model))
    # faster service pushes the chain downward, so it is dominated by the
    # slower chain, not the other way around
    ok = runner.invoke(main, ["validate", "--model", fast, "--against", slow])
    assert ok.exit_code == 0
    assert f"dominated by {slow}: yes" in ok.output
    bad = runner.invoke(main, ["validate", "--model", slow, "--against", fast])
    assert bad.exit_code == 1
    assert f"dominated by {fast}: no" in bad.output
    assert "violation at" in bad.output


def test_validate_flags_leaky_rows(runner, tmp_path):
    doc = banded_doc({
        0: {0: [[-1.0]], 1: [[0.5]]},
        1: {-1: [[2.0]], 0: [[-3.0]], 1: [[1.0]]},
    })
    path = write_model(tmp_path / "leaky.json", doc)
    result = runner.invoke(main, ["validate", "--model", path])
    assert result.exit_code == 1
    assert "conservative: no" in result.output


def test_bad_model_files_exit_2(runner, tmp_path):
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    result = runner.invoke(main, ["validate", "--model", str(junk)])
    assert result.exit_code == 2
    missing = runner.invoke(main, ["validate", "--model", str(tmp_path / "nope.json")])
    assert missing.exit_code == 2


@pytest.mark.parametrize("field, value", [("L", -1), ("U", -1)])
def test_a_model_file_with_a_negative_band_exits_2(runner, tmp_path, field, value):
    # "L": -1 loaded, and validate judged the model ("conservative: no",
    # exit 1); "U": -1 was refused only through its offset-0 block
    doc = banded_doc({0: {0: [[-1.0]], 1: [[1.0]]}, 1: {-1: [[2.0]], 0: [[-3.0]], 1: [[1.0]]}},
                     **{field: value})
    result = runner.invoke(main, ["validate", "--model", write_model(tmp_path / "m.json", doc)])
    assert result.exit_code == 2
    assert f"{field} must be >= 0, got -1" in result.output


@pytest.mark.parametrize("D", [
    [[[-1.0]], [[0.9]]],
    [(-np.eye(2)).tolist(), np.eye(2).tolist()],
    [[[-1.0]], [[float("nan")]]],
], ids=["nonconservative", "reducible", "nonfinite"])
def test_invalid_queue_files_fail_at_load(runner, tmp_path, D):
    doc = {"d": len(D[0]), "kind": "BmapQueue",
           "parameters": {"D": D, "mu": {"table": [2.0]}}}
    path = write_model(tmp_path / "bad.json", doc)
    with pytest.raises(InvalidBmap):
        load_model(path)
    for args in (["validate"], ["truncate", "--n", "3"]):
        result = runner.invoke(main, [*args, "--model", path])
        assert result.exit_code == 2, result.output


def _nonfinite_doc(kind, bad):
    if kind == "banded":
        return banded_doc({
            0: {0: [[-1.0]], 1: [[1.0]]},
            1: {-1: [[bad]], 0: [[-3.0]], 1: [[1.0]]},
        })
    params = {"A": [[[2.0]], [[-3.0]], [[1.0]]], "B": [[[-1.0]], [[1.0]]]}
    if kind == "mg1_block":
        params["A"][0] = [[bad]]
    else:
        params["tail"] = {"coef": [[bad]], "ratio": 0.5}
    return {"d": 1, "kind": "MG1Type", "parameters": params}


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("kind", ["banded", "mg1_block", "mg1_tail"])
def test_nonfinite_model_files_fail_at_load(runner, tmp_path, kind, bad):
    path = write_model(tmp_path / "bad.json", _nonfinite_doc(kind, bad))
    with pytest.raises(InvalidModelFile):
        load_model(path)
    for args in (["validate"], ["solve", "--n", "3"],
                 ["sweep", "--n-min", "2", "--n-max", "2"]):
        result = runner.invoke(main, [args[0], "--model", path, *args[1:]])
        assert result.exit_code == 2, (args, result.output)


def test_truncate_writes_npy(runner, mm1, mm1_path, tmp_path):
    out = tmp_path / "corner.npy"
    result = runner.invoke(main, ["truncate", "--model", mm1_path, "--n", "4",
                                  "--out", str(out)])
    assert result.exit_code == 0
    expected = lc_truncate(build_generator(mm1), 4).matrix.values
    np.testing.assert_array_equal(np.load(out), expected)


def test_truncate_writes_csv(runner, mm1, mm1_path, tmp_path):
    out = tmp_path / "corner.csv"
    result = runner.invoke(main, ["truncate", "--model", mm1_path, "--n", "4",
                                  "--out", str(out)])
    assert result.exit_code == 0
    expected = lc_truncate(build_generator(mm1), 4).matrix.values
    np.testing.assert_array_equal(np.loadtxt(out, delimiter=","), expected)


def test_truncate_prints_matrix(runner, mm1_path):
    result = runner.invoke(main, ["truncate", "--model", mm1_path, "--n", "1",
                                  "--style", "fc"])
    assert result.exit_code == 0
    assert "-3." in result.output


def test_solve_csv_is_a_distribution(runner, mm1_path, tmp_path):
    out = tmp_path / "pi.csv"
    result = runner.invoke(main, ["solve", "--model", mm1_path, "--n", "10",
                                  "--out", str(out)])
    assert result.exit_code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"level", "phase", "probability"}
    assert len(rows) == 11
    total = sum(float(r["probability"]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_solve_stdout_rows(runner, mm1_path):
    result = runner.invoke(main, ["solve", "--model", mm1_path, "--n", "3"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 4
    total = sum(float(line.split(",")[2]) for line in lines)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_bound_output(runner, mm1_path):
    result = runner.invoke(main, ["bound", "--model", mm1_path, "--n", "10",
                                  "--t", "0.0", "--n-ref", "60"])
    assert result.exit_code == 0
    assert "n=10 t_star=7.56252197 bound_min=8.57241739" in result.output
    assert "bound at t=0.0: 13.6568543" in result.output
    assert "true_tv (vs n_ref=60):" in result.output
    assert "provenance:" in result.output


def test_bound_past_the_float_range_is_a_one_line_error(runner, tmp_path):
    # at beta = 37.5 this queue's certificate needs offset level 199, and
    # beta**k passes the float range from level 196
    path = write_model(tmp_path / "q.json", bmap_doc(affine_disaster_queue()))
    result = runner.invoke(main, ["bound", "--model", path, "--n", "50", "--beta", "37.5"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "float range" in lines[0]


@pytest.mark.parametrize("args", [
    ["solve", "--n", "10000000000"],
    ["sweep", "--n-min", "2", "--n-max", "4", "--n-ref", "100000000000"],
    ["bound", "--n", "5", "--n-ref", "10000000000"],
])
def test_an_unallocatable_corner_is_a_one_line_error(runner, mm1_path, args):
    # the corner is refused before its levels are walked: at once, exit 2
    started = time.perf_counter()
    result = runner.invoke(main, [args[0], "--model", mm1_path, *args[1:]])
    assert time.perf_counter() - started < 10.0
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: the corner over levels 0..")
    assert "GiB and cannot be allocated" in lines[0]


def test_bound_rejects_a_negative_time(runner, mm1_path):
    result = runner.invoke(main, ["bound", "--model", mm1_path, "--n", "10", "--t", "-1"])
    assert result.exit_code == 2
    assert result.output.splitlines() == ["error: time must be >= 0, got -1.0"]


def test_bound_refuses_levels_that_do_not_exist(runner, mm1_path):
    for levels in (["--n", "-1"], ["--n", "0"], ["--n", "5", "--n-ref", "3"],
                   ["--n", "5", "--n-ref", "5"]):
        result = runner.invoke(main, ["bound", "--model", mm1_path, *levels])
        assert result.exit_code == 2, (levels, result.output)
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), levels


def test_bound_rejects_non_queue_models(runner, tmp_path):
    doc = banded_doc({
        0: {0: [[-1.0]], 1: [[1.0]]},
        1: {-1: [[2.0]], 0: [[-3.0]], 1: [[1.0]]},
    })
    path = write_model(tmp_path / "banded.json", doc)
    result = runner.invoke(main, ["bound", "--model", path, "--n", "5"])
    assert result.exit_code == 2


def sweep_args(path, extra=()):
    return ["sweep", "--model", path, "--n-min", "2", "--n-max", "4",
            "--step", "1", "--n-ref", "16", *extra]


def test_sweep_csv_contract(runner, mm1_path):
    result = runner.invoke(main, sweep_args(mm1_path, [
        "--style", "lc", "--style", "fc", "--style", "custom",
        "--weights", "0=0.5,n=0.5"]))
    assert result.exit_code == 0
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[0] == CSV_HEADER
    body = rows[1:]
    assert len(body) == 9
    by_name = [dict(zip(CSV_HEADER, r)) for r in body]
    assert all(r["ordering_pass"] == "yes" for r in by_name)
    for r in by_name:
        if r["style"] == "lc":
            assert r["t_star"] != "" and r["bound_min"] != ""
        else:
            assert r["t_star"] == "" and r["bound_min"] == ""
    lc_tv = [float(r["true_tv"]) for r in by_name if r["style"] == "lc"]
    assert lc_tv == sorted(lc_tv, reverse=True)


def test_sweep_to_file(runner, mm1_path, tmp_path):
    out = tmp_path / "sweep.csv"
    result = runner.invoke(main, sweep_args(mm1_path, ["--out", str(out)]))
    assert result.exit_code == 0
    assert f"wrote 6 rows to {out}" in result.output
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert {r["style"] for r in rows} == {"lc", "fc"}


def test_sweep_and_solve_write_lf_lines(runner, mm1_path, tmp_path):
    # stdout_bytes, not output: the runner's text output folds CRLF into LF
    printed = runner.invoke(main, sweep_args(mm1_path))
    assert printed.exit_code == 0
    assert b"\r" not in printed.stdout_bytes
    assert printed.stdout_bytes.count(b"\n") == 7
    sweep_out, solve_out = tmp_path / "sweep.csv", tmp_path / "pi.csv"
    for args, out in ((sweep_args(mm1_path, ["--out", str(sweep_out)]), sweep_out),
                      (["solve", "--model", mm1_path, "--n", "5", "--out", str(solve_out)],
                       solve_out)):
        assert runner.invoke(main, args).exit_code == 0
        assert b"\r" not in out.read_bytes() and out.read_bytes().endswith(b"\n")


@pytest.mark.parametrize("d", [1.7, True, "2", None, [2]])
def test_model_file_refuses_a_d_that_is_not_an_integer(runner, mm1, tmp_path, d):
    doc = dict(bmap_doc(mm1), d=d)
    path = write_model(tmp_path / "q.json", doc)
    with pytest.raises(InvalidModelFile, match="d must be an integer"):
        load_model(path)
    result = runner.invoke(main, ["solve", "--model", path, "--n", "3"])
    assert result.exit_code == 2
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "d must be an integer" in lines[0]


@pytest.mark.parametrize("field, value", [
    ("U", 1.9), ("L", True), ("K_hom", 1.2), ("level", 1.7), ("offset", 1.2),
    ("k_max", 1.5), ("k_max", True),
])
def test_model_file_refuses_integer_fields_that_are_not_integers(runner, mm1, tmp_path,
                                                                 field, value):
    # int() would truncate each of these to the value the file needs
    if field == "k_max":
        doc = bmap_doc(mm1)
        doc["parameters"]["k_max"] = value
    else:
        doc = banded_doc({0: {0: [[-1.0]], 1: [[1.0]]},
                          1: {-1: [[2.0]], 0: [[-3.0]], 1: [[1.0]]}})
        params = doc["parameters"]
        (params if field in params else params["blocks"][-1])[field] = value
    path = write_model(tmp_path / "m.json", doc)
    with pytest.raises(InvalidModelFile, match=f"{field} must be an integer"):
        load_model(path)
    result = runner.invoke(main, ["validate", "--model", path])
    assert result.exit_code == 2
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def _queue_doc(**params):
    """The M/M/1 queue file with the given parameters replaced."""
    return {"d": 1, "kind": "BmapQueue",
            "parameters": {"D": [[[-1.0]], [[1.0]]], "mu": {"table": [2.0]}, **params}}


_MG1 = {"A": [[[2.0]], [[-3.0]], [[1.0]]], "B": [[[-1.0]], [[1.0]]]}


@pytest.mark.parametrize("doc, field", [
    # each loaded, as another queue than it describes: mu = (2, 5), mu = (3,),
    # psi = 1, psi = 0.5, D(1) = 1
    (_queue_doc(mu={"table": "25"}), "mu.table"),
    (_queue_doc(mu={"table": {"3": 1}}), "mu.table"),
    (_queue_doc(psi=True), "psi"),
    (_queue_doc(psi="0.5"), "psi"),
    (_queue_doc(D=[[[-1.0]], [[True]]]), "D[1][0][0]"),
    (_queue_doc(D=[[[-1.0]], [["1"]]]), "D[1][0][0]"),
    (_queue_doc(mu={"table": [2.0], "eventual": "affine", "slope": "0.5"}), "mu.slope"),
    (_queue_doc(mu={"table": [2.0], "value": True}), "mu.value"),
    (_queue_doc(D=[[[-1.5]], [[1.0]]], tail={"coef": [[1.0]], "ratio": "0.5"}),
     "tail.ratio"),
    (_queue_doc(D=[[[-1.5]], [[1.0]]], tail={"coef": [[True]], "ratio": 0.5}),
     "tail.coef[0][0]"),
    ({"d": 1, "kind": "MG1Type", "parameters": dict(_MG1, A=[[[2.0]], [["-3"]], [[1.0]]])},
     "A[1][0][0]"),
    ({"d": 1, "kind": "MG1Type", "parameters": dict(_MG1, B=[[[-1.0]], [[True]]])},
     "B[1][0][0]"),
    (banded_doc({0: {0: [[-1.0]], 1: [[True]]}, 1: {-1: [[2.0]], 0: [[-3.0]], 1: [[1.0]]}}),
     "block level 0 offset 1[0][0]"),
], ids=["mu_table_string", "mu_table_object", "psi_true", "psi_string", "D_true", "D_string",
        "mu_slope_string", "mu_value_false", "tail_ratio_string", "tail_coef_true",
        "mg1_A_string", "mg1_B_true", "banded_block_true"])
def test_model_file_refuses_numbers_that_are_not_json_numbers(runner, tmp_path, doc, field):
    # float() and numpy read a bool, a digit string or an object's keys as
    # numbers; the file would certify a queue other than the one it names
    path = write_model(tmp_path / "m.json", doc)
    with pytest.raises(InvalidModelFile, match=r"must be a (number|list)"):
        load_model(path)
    result = runner.invoke(main, ["validate", "--model", path])
    assert result.exit_code == 2
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {field} must be a ")


def test_sweep_rows_time_their_own_stack(runner, mm1_path, monkeypatch):
    # 20 corners of 2..11 states; a stack holds at most half the 41-state
    # reference's 1681 entries: (1, lc) through (7, lc) make 13 corners of
    # 8^2 states, 832 entries, and (7, fc) starts the next stack
    real = solve.truncation

    def slow_first(M, spec, out=None):
        if (spec.n, spec.style) == (1, "lc"):
            time.sleep(0.05)
        return real(M, spec, out)

    monkeypatch.setattr(solve, "truncation", slow_first)
    result = runner.invoke(main, ["sweep", "--model", mm1_path, "--n-min", "1",
                                  "--n-max", "10", "--step", "1", "--n-ref", "40"])
    assert result.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert len(rows) == 20
    slow = [(int(row["n"]), row["style"]) for row in rows if float(row["runtime_ms"]) >= 50.0]
    assert slow == [(n, style) for n in range(1, 7) for style in ("lc", "fc")] + [(7, "lc")]
    assert len({row["runtime_ms"] for row in rows[:13]}) == 1


def test_sweep_stacks_never_outgrow_the_reference(runner, fleet, tmp_path):
    # 120 corners of up to 122 states: in one stack they would hold 14 MB,
    # nearly eight times the reference corner's 482^2 entries (1.9 MB), and
    # a pivot's update may need a temporary as large as its stack
    path = write_model(tmp_path / "d2.json", bmap_doc(fleet["d2"]))
    args = ["sweep", "--model", path, "--n-min", "1", "--n-max", "60", "--step", "1",
            "--n-ref", "240"]
    assert runner.invoke(main, args).exit_code == 0
    tracemalloc.start()
    try:
        result = runner.invoke(main, args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0
    assert peak <= 1.5 * 8 * 482 ** 2, f"peak {peak / 8 / 482 ** 2:.2f} reference corners"


def test_sweep_guards(runner, mm1_path):
    too_small = runner.invoke(main, ["sweep", "--model", mm1_path, "--n-min",
                                     "2", "--n-max", "4", "--n-ref", "8"])
    assert too_small.exit_code == 2
    no_weights = runner.invoke(main, ["sweep", "--model", mm1_path, "--n-min",
                                      "2", "--n-max", "4", "--style", "custom"])
    assert no_weights.exit_code == 2
    assert "custom style needs --weights" in no_weights.output


@pytest.mark.parametrize("n_min, n_max", [("4", "2"), ("0", "4"), ("-3", "-5")])
def test_sweep_refuses_a_range_without_levels(runner, mm1_path, n_min, n_max):
    result = runner.invoke(main, ["sweep", "--model", mm1_path, "--n-min", n_min,
                                  "--n-max", n_max])
    assert result.exit_code == 2, result.output
    assert result.output.splitlines() == [f"error: bad sweep range [{n_min}, {n_max}]"]


def test_validate_names_a_block_monotonicity_violation(runner, tmp_path):
    # level 2 drops to level 0 at rate 3 and level 1 at rate 1: the higher
    # level reaches the levels below 1 faster, which block monotonicity
    # forbids
    doc = banded_doc({
        0: {0: [[-1.0]], 1: [[1.0]]},
        1: {-1: [[1.0]], 0: [[-2.0]], 1: [[1.0]]},
        2: {-2: [[3.0]], -1: [[0.0]], 0: [[-4.0]], 1: [[1.0]]},
    }, L=2, K_hom=2)
    result = runner.invoke(main, ["validate", "--model", write_model(tmp_path / "q.json", doc)])
    assert result.exit_code == 1, result.output
    assert result.output == ("conservative: yes, BM_1: no, "
                             "violation at ((2, 0, 1, 0), 2.0)\n")


@pytest.mark.parametrize("weights, message", [
    # only the literal n names the top level; -1 is a level like any other
    pytest.param("-1=1", "target level -1 outside 0..3", id="-1"),
    pytest.param("-2=1", "target level -2 outside 0..3", id="-2"),
    pytest.param("x=1", "bad weight entry 'x=1', expected LEVEL=FRACTION", id="x=1"),
    pytest.param("0=abc", "bad weight entry '0=abc', expected LEVEL=FRACTION", id="0=abc"),
    pytest.param("0=1,3", "bad weight entry '3', expected LEVEL=FRACTION", id="0=1,3"),
    pytest.param("0=nan", "non-finite weight nan at level 0", id="0=nan"),
    pytest.param("0=0.5,3=nan", "non-finite weight nan at level 3", id="0=0.5,3=nan"),
])
def test_solve_refuses_bad_weights(runner, mm1_path, weights, message):
    result = runner.invoke(main, ["solve", "--model", mm1_path, "--n", "3",
                                  "--style", "custom", "--weights", weights])
    assert result.exit_code == 2, result.output
    assert result.output.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("case", ["3", "-1", "reducible", "reference"])
def test_sweep_error_row(runner, mm1_path, tmp_path, case):
    sweep = ["sweep", "--n-min", "2", "--n-max", "4", "--step", "2"]
    if case in ("reducible", "reference"):
        # the lc corners at levels 2 and 4 are reducible, and the sweep's
        # one stack meets level 4's zero pivot first: the error is level
        # 2's, the first in sweep order, with no RuntimeWarning on the way.
        # As the reference, level 4 fails in the one solve call with the
        # levels, after the header; it once exited before any output
        path = write_model(tmp_path / "up.json", banded_doc(UP_ONLY_ROWS, L=2, K_hom=5))
        args = [*sweep, "--model", path]
        state = 2
        if case == "reference":
            args = ["sweep", "--n-min", "1", "--n-max", "1", "--n-ref", "4", "--model", path]
            state = 4
        message = (f"error: elimination pivot 0.000e+00 at state {state}: no path from the "
                   "top states back down, the chain is reducible")
        error, code = "MultipleClosedClasses", 3
    else:
        args = [*sweep, "--model", mm1_path, "--style", "custom", "--weights", f"{case}=1"]
        message = f"error: target level {case} outside 0..2"
        error, code = "InvalidRedistribution", 2
    expected = [",".join(CSV_HEADER), f"error,{error},,,,,"]
    printed = runner.invoke(main, args)
    assert printed.exit_code == code
    lines = printed.output.splitlines()
    assert message in lines
    assert [line for line in lines if line != message] == expected
    out = tmp_path / "sweep.csv"
    written = runner.invoke(main, [*args, "--out", str(out)])
    assert written.exit_code == code
    assert written.output.splitlines() == [message]
    assert out.read_text().splitlines() == expected


@pytest.mark.parametrize("step", ["0", "-1"])
def test_sweep_rejects_a_step_below_one(runner, mm1_path, step):
    result = runner.invoke(main, ["sweep", "--model", mm1_path, "--n-min", "2",
                                  "--n-max", "4", "--step", step])
    assert result.exit_code == 2
    assert result.output.splitlines() == [f"error: sweep step must be >= 1, got {step}"]


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_sweep_refuses_a_negative_or_nan_tolerance(runner, mm1_path, tol):
    result = runner.invoke(main, ["sweep", "--model", mm1_path, "--n-min", "2",
                                  "--n-max", "4", "--tol", tol])
    assert result.exit_code == 2
    assert result.output.splitlines() == [
        f"error: ordering tolerance must be >= 0, got {float(tol)}"]


def test_sweep_refuses_an_infinite_tolerance(runner, mm1_path):
    # under tol = inf every ordering check held, and every row read
    # ordering_pass=yes
    result = runner.invoke(main, ["sweep", "--model", mm1_path, "--n-min", "2",
                                  "--n-max", "4", "--tol", "inf"])
    assert result.exit_code == 2
    assert result.output.splitlines() == ["error: ordering tolerance must be finite, got inf"]


def test_cli_import_leaves_multiprocessing_unloaded():
    # a fresh start imports the CLI; no command needs a process pool
    code = ("import sys, bmtrunc.cli\n"
            "loaded = [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules]\n"
            "assert not loaded, loaded\n")
    src = os.path.dirname(os.path.dirname(bmtrunc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
