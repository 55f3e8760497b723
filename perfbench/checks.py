"""Output checks: what a correct answer of each op looks like.

Each check returns the values the op printed (for comparison against the
record) and a list of problems.  Invariants hold whatever the seed:

- a `bound` with `--n-ref` has bound_min >= true_tv;
- every `sweep` row has ordering_pass = yes, and lc rows with a bound have
  bound_min >= true_tv;
- every DecayReport is ok.

The record (expected/<workload>.json, taken with the library as of commit
50ce47b) adds, for the seeds it covers: an op that succeeded must succeed
again with every printed value within 1e-8 relative, and an op that failed
must fail with the same exit code or succeed.  The second case is allowed so that a fix of
a known failure (near-critical drift checks) shows as fewer failures, not
as a wrong answer; a recovered op still passes the invariants.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

REL_TOL = 1e-8
_NUMBER = r"([-+0-9.eEinfa]+)"
_BOUND_LINE = re.compile(rf"^n=\d+ t_star={_NUMBER} bound_min={_NUMBER}$", re.M)
_TRUE_TV = re.compile(rf"^true_tv \(vs n_ref=\d+\): {_NUMBER}$", re.M)


def check_output(op, code: int, output) -> tuple[dict, list[str]]:
    """Printed values and invariant problems of one finished op."""
    if code != 0:
        return {}, []
    if op.kind == "bound":
        return _check_bound(output)
    if op.kind == "sweep":
        return _check_sweep(output)
    if not output.ok:
        return {}, [f"decay envelope exceeded: measured {output.measured} > {output.limits}"]
    return {}, []


def _check_bound(text: str):
    m = _BOUND_LINE.search(text)
    if m is None:
        return {}, [f"no bound line in output {text!r}"]
    values = {"t_star": float(m.group(1)), "bound_min": float(m.group(2))}
    tv = _TRUE_TV.search(text)
    if tv is not None:
        values["true_tv"] = float(tv.group(1))
        if not values["bound_min"] >= values["true_tv"]:
            return values, [f"bound_min {values['bound_min']} < true_tv {values['true_tv']}"]
    return values, []


def _check_sweep(text: str):
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return {}, ["sweep printed no rows"]
    values = {}
    problems = []
    for row in rows:
        key = f"{row['n']}/{row['style']}"
        if row["ordering_pass"] != "yes":
            problems.append(f"row {key}: ordering_pass={row['ordering_pass']!r}")
        for field in ("t_star", "bound_min", "true_tv"):
            if row[field]:
                values[f"{key}/{field}"] = float(row[field])
        if row["style"] == "lc" and row["bound_min"]:
            if not float(row["bound_min"]) >= float(row["true_tv"]):
                problems.append(f"row {key}: bound_min {row['bound_min']} < true_tv {row['true_tv']}")
    return values, problems


def compare_to_record(expected: dict, code: int, values: dict) -> tuple[list[str], bool]:
    """Problems against one recorded op, and whether a recorded failure recovered."""
    if expected["exit"] != 0:
        if code == 0:
            return [], True
        if code != expected["exit"]:
            return [f"exit {code}, recorded {expected['exit']}"], False
        return [], False
    if code != 0:
        return [f"exit {code}, recorded success"], False
    problems = []
    if set(values) != set(expected["values"]):
        problems.append(f"printed {sorted(values)}, recorded {sorted(expected['values'])}")
    for key, want in expected["values"].items():
        got = values.get(key)
        if got is not None and not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            problems.append(f"{key}={got!r}, recorded {want!r}")
    return problems, False


def load_record(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}
