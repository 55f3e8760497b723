"""One rule for a level: `blockmat.check_level`.

Every public entry point that takes a level, a count of levels or phases,
or a block size refuses a value it cannot use with the caller's
`BmtruncError` subclass and one of the rule's three messages, never with a
bare exception and never by reading a bool as 0 or 1.
"""

import ast
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bmtrunc
from bmtrunc import (
    BandedModel,
    BmapQueueModel,
    BmtruncError,
    DimensionMismatch,
    DistributionVector,
    GeometricVector,
    InputError,
    InvalidBmap,
    InvalidModelFile,
    InvalidRedistribution,
    TruncationSpec,
    bound_pipeline,
    check_no_closed_classes_above,
    drift_check,
    lc_truncate,
    transient_decay_check,
)
from bmtrunc.blockmat import check_block_length, check_level
from bmtrunc.truncate import check_truncation_levels

PACKAGE = Path(bmtrunc.__file__).parent

BANDED_ROWS = {0: {0: [[-1.0]], 1: [[1.0]]}, 1: {-1: [[2.0]], 0: [[-3.0]], 1: [[1.0]]}}


# name -> (call with the level, error class, argument named, least, most,
# inputs every run checks besides the drawn one); `c` holds the M/M/1
# queue, its certificate, its truncation T at n = 4 and a weight rule v
ENTRY_POINTS = {
    "block_size": (lambda c, x: check_block_length(4, x), DimensionMismatch, "block size", 1,
                   None, ()),
    "vector_block_size": (lambda c, x: DistributionVector(d=x, values=[0.5, 0.5]),
                          DimensionMismatch, "block size", 1, None, ()),
    "window": (lambda c, x: c.queue.window(x), InputError, "window level", 0, None, ()),
    "block_row": (lambda c, x: c.T.matrix.block(x, 0), InputError, "block row", 0, 4, ()),
    "block_column": (lambda c, x: c.T.matrix.block(0, x), InputError, "block column", 0, 4,
                     ()),
    "banded_d": (lambda c, x: BandedModel(d=x, L=1, U=1, K_hom=1, rows=BANDED_ROWS),
                 InputError, "d", 1, None, ()),
    "banded_L": (lambda c, x: BandedModel(d=1, L=x, U=1, K_hom=1, rows=BANDED_ROWS),
                 InputError, "L", 0, None, ()),
    "banded_U": (lambda c, x: BandedModel(d=1, L=1, U=x, K_hom=1, rows=BANDED_ROWS),
                 InputError, "U", 0, None, ()),
    "banded_K_hom": (lambda c, x: BandedModel(d=1, L=0, U=1, K_hom=x, rows=BANDED_ROWS),
                     InputError, "K_hom", 0, None, ()),
    # x is the rows' or offsets' first key: a dict keeps the first of keys
    # that compare equal, such as 0.0 and 0
    "banded_row": (lambda c, x: BandedModel(d=1, L=1, U=1, K_hom=1, rows={
                       x: BANDED_ROWS[1], 0: BANDED_ROWS[0]}),
                   InvalidModelFile, "block row", 0, 1, ()),
    "banded_offset": (lambda c, x: BandedModel(d=1, L=1, U=1, K_hom=1, rows={
                          0: BANDED_ROWS[0], 1: {x: [[1.0]], **BANDED_ROWS[1]}}),
                      InputError, "block row 1 offset", -1, 1, ()),
    "queue_d": (lambda c, x: BmapQueueModel(d=x, D=c.queue.D, mu=c.queue.mu), InvalidBmap,
                "phase count d", 1, None, ()),
    "weight_level": (lambda c, x: c.v.level(x), InputError, "level", 0, None, ()),
    "weight_levels": (lambda c, x: c.v.levels(x), InputError, "level", 0, None, ()),
    "drift_check_K": (lambda c, x: drift_check(c.queue, c.cert.v, c.cert.c, c.cert.b, K=x),
                      InputError, "offset level K", 0, None, ()),
    "truncation_level": (lambda c, x: lc_truncate(c.queue, x), InputError, "truncation level",
                         1, None, (5.5,)),
    "truncation_spec": (lambda c, x: TruncationSpec(n=x), InputError, "truncation level", 1,
                        None, (True,)),
    "pipeline_level": (lambda c, x: bound_pipeline(c.queue, [x]), InputError,
                       "truncation level", 1, None, (5.5,)),
    "reference_level": (lambda c, x: check_truncation_levels(5, x), InputError,
                        "reference level n_ref", 6, None, ()),
    "pipeline_reference": (lambda c, x: bound_pipeline(c.queue, [5], n_ref=x), InputError,
                           "reference level n_ref", 6, None, ()),
    "target_level": (lambda c, x: TruncationSpec(n=4, style="custom", weights={x: 1.0}),
                     InvalidRedistribution, "target level", 0, 4, ()),
    "decay_start": (lambda c, x: transient_decay_check(c.queue, c.cert, (1.0,), start_level=x,
                                                       n_ref=20),
                    InputError, "start level", 0, 20, ()),
    "decay_reference": (lambda c, x: transient_decay_check(c.queue, c.cert, (1.0,), n_ref=x),
                        InputError, "reference level n_ref", 1, None, ()),
    "extended_probe": (lambda c, x: c.T.extended_matrix(x), InputError, "probe", 0, None, ()),
    "closed_class_probe": (lambda c, x: check_no_closed_classes_above(c.T, x), InputError,
                           "probe", 1, None, ()),
}


@pytest.fixture(scope="module")
def context(mm1, fleet_certs):
    return SimpleNamespace(queue=mm1, cert=fleet_certs["mm1"], T=lc_truncate(mm1, 4),
                           v=GeometricVector(beta=2.0, u=[1.0]))


def bad_levels(least, most=None):
    """Values that are no level in least..most: floats (integral ones and
    NaN included), numpy floats, bools, strings, integers below least and,
    where there is a top, integers above it."""
    kinds = [st.floats(), st.floats().map(np.float64), st.booleans(), st.text(max_size=3),
             st.integers(min_value=least - 10**6, max_value=least - 1)]
    if most is not None:
        kinds.append(st.integers(min_value=most + 1, max_value=most + 10**6))
    return st.one_of(kinds)


@pytest.mark.parametrize("name", ENTRY_POINTS)
@given(data=st.data())
def test_every_entry_point_refuses_a_bad_level_by_the_one_rule(context, name, data):
    call, error, what, least, most, inputs = ENTRY_POINTS[name]
    for x in (*inputs, data.draw(bad_levels(least, most), label="level")):
        with pytest.raises(BmtruncError) as info:
            call(context, x)
        assert isinstance(info.value, error)
        assert str(info.value) in (f"{what} must be an integer, got {x!r}",
                                   f"{what} must be >= {least}, got {x}",
                                   f"{what} {x} outside {least}..{most}")


def test_the_entry_points_take_their_good_levels(mm1, fleet_certs):
    # numpy integers are levels, and each range's ends are in it
    cert = fleet_certs["mm1"]
    T = lc_truncate(mm1, 4)
    assert mm1.window(np.int64(0)).n == 0
    assert T.matrix.block(np.int32(4), 4).shape == (1, 1)
    assert T.extended_matrix(0).n == 4
    assert check_no_closed_classes_above(T, np.int64(1))
    assert TruncationSpec(n=4, style="custom", weights={np.int64(4): 1.0}).targets == {4: 1.0}
    report = transient_decay_check(mm1, cert, (1.0,), start_level=np.int64(1), n_ref=1)
    assert report.start_level == 1
    check_truncation_levels(np.int64(5), 6)


def test_check_level_returns_the_level_and_raises_the_callers_class():
    assert check_level(np.int64(3), "x", 1, 3) == 3
    with pytest.raises(InvalidBmap, match=re.escape("x 4 outside 1..3")):
        check_level(4, "x", 1, 3, InvalidBmap)
    with pytest.raises(InputError, match=re.escape("x must be >= 1, got 0")):
        check_level(0, "x", 1)
    with pytest.raises(InputError, match=re.escape("x must be an integer, got True")):
        check_level(True, "x")


# The entry points that leaked a bare TypeError or read a bool as 1.

@pytest.mark.parametrize("n", [2.5, True])
def test_a_window_takes_only_levels(mm1, n):
    # 2.5 raised a bare TypeError from numpy, and True gave levels 0..1
    message = f"window level must be an integer, got {n!r}"
    with pytest.raises(InputError, match=re.escape(message)):
        mm1.window(n)


def test_an_extended_matrix_takes_only_levels(mm1):
    with pytest.raises(InputError, match="probe must be an integer, got 2.5"):
        lc_truncate(mm1, 4).extended_matrix(2.5)


@pytest.mark.parametrize("probe, message", [(-1, "probe must be >= 1, got -1"),
                                            (0, "probe must be >= 1, got 0"),
                                            (2.5, "probe must be an integer, got 2.5")])
def test_the_closed_class_check_inspects_at_least_one_level(mm1, probe, message):
    # probe=-1 returned True having checked no level
    with pytest.raises(InputError, match=re.escape(message)):
        check_no_closed_classes_above(lc_truncate(mm1, 4), probe)


@pytest.mark.parametrize("d", [2.0, True])
def test_a_queue_phase_count_is_a_level(mm1, d):
    # np.eye raised a bare TypeError
    message = f"phase count d must be an integer, got {d!r}"
    with pytest.raises(InvalidBmap, match=re.escape(message)):
        BmapQueueModel(d=d, D=mm1.D, mu=mm1.mu)


def test_a_banded_row_and_offset_are_levels():
    # an offset of 0.5 was stored and never read, and a row keyed True was
    # taken for row 1
    with pytest.raises(InputError, match="block row 1 offset must be an integer, got 0.5"):
        BandedModel(d=1, L=1, U=1, K_hom=1,
                    rows={0: BANDED_ROWS[0], 1: {**BANDED_ROWS[1], 0.5: [[1.0]]}})
    with pytest.raises(InvalidModelFile, match="block row must be an integer, got True"):
        BandedModel(d=1, L=1, U=1, K_hom=1, rows={0: BANDED_ROWS[0], True: BANDED_ROWS[1]})


def test_the_decay_check_blames_its_reference_level(mm1, fleet_certs):
    # n_ref=-1 was reported as "start level 0 outside the proxy's levels 0..-1"
    with pytest.raises(InputError, match="reference level n_ref must be >= 1, got -1"):
        transient_decay_check(mm1, fleet_certs["mm1"], (1.0,), n_ref=-1)


def test_levels_are_checked_only_by_the_one_rule():
    # is_level is called inside check_level only, and no other code spells
    # the rule's integer message itself
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        rule = {id(node) for f in ast.walk(tree)
                if isinstance(f, ast.FunctionDef) and f.name == "check_level"
                for node in ast.walk(f)}
        for node in ast.walk(tree):
            if id(node) in rule:
                continue
            if isinstance(node, ast.Call) and "is_level" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.append((path.name, node.lineno, "is_level"))
            if isinstance(node, ast.Constant) and "must be an integer" in str(node.value):
                found.append((path.name, node.lineno, node.value))
    assert found == []
