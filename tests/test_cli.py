import csv
import io
import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from bmtrunc import build_generator, cli, lc_truncate, load_model
from bmtrunc.cli import CSV_HEADER, exit_code_for, main
from bmtrunc.errors import (
    BmtruncError,
    DriftViolated,
    InvalidBmap,
    InvalidModelFile,
    NoConvergence,
)
from helpers import affine_disaster_queue, bmap_doc, write_model


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


def test_sweep_to_file_and_parallel(runner, mm1_path, tmp_path):
    out = tmp_path / "sweep.csv"
    result = runner.invoke(main, sweep_args(mm1_path, ["--jobs", "2",
                                                       "--out", str(out)]))
    assert result.exit_code == 0
    assert f"wrote 6 rows to {out}" in result.output
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert {r["style"] for r in rows} == {"lc", "fc"}


def test_sweep_rows_time_their_own_style(runner, mm1_path, monkeypatch):
    real = cli.stationary

    def slow_lc_solve(G, *args, source="full-reference", **kwargs):
        if source == "lc":
            time.sleep(0.05)
        return real(G, *args, source=source, **kwargs)

    monkeypatch.setattr(cli, "stationary", slow_lc_solve)
    result = runner.invoke(main, sweep_args(mm1_path))
    assert result.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(result.output)))
    for row in rows:
        slow = row["style"] == "lc"
        assert (float(row["runtime_ms"]) >= 50.0) == slow


def test_sweep_guards(runner, mm1_path):
    too_small = runner.invoke(main, ["sweep", "--model", mm1_path, "--n-min",
                                     "2", "--n-max", "4", "--n-ref", "8"])
    assert too_small.exit_code == 2
    no_weights = runner.invoke(main, ["sweep", "--model", mm1_path, "--n-min",
                                      "2", "--n-max", "4", "--style", "custom"])
    assert no_weights.exit_code == 2
    assert "custom style needs --weights" in no_weights.output
