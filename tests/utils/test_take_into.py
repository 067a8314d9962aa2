"""Unbuffered row gathers: ``take_into`` and the guard that keeps them.

``np.take(..., out=...)`` in its default ``mode="raise"`` gathers into a
hidden temporary and copies it into ``out``. :func:`take_into` proves the
index range once and gathers with ``mode="clip"`` instead; the fused round
passes ``mode="clip"`` directly and range-checks its one outside input (the
neighbour table) when its plan is built.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.engine.fused import _FusedPlan
from repro.utils.arrays import take_into

DTYPES = [np.float32, np.float64, np.intp]


@pytest.mark.parametrize("dtype", DTYPES)
def test_flat_gather_bitwise_equals_np_take(dtype):
    rng = np.random.default_rng(0)
    src = (rng.standard_normal(50) * 1e3).astype(dtype)
    idx = rng.integers(0, 50, size=(6, 7))
    expect = np.empty(idx.shape, dtype=dtype)
    np.take(src, idx, out=expect)
    out = np.empty(idx.shape, dtype=dtype)
    assert take_into(src, idx, out) is out
    assert out.tobytes() == expect.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
def test_row_gather_bitwise_equals_np_take(dtype):
    rng = np.random.default_rng(1)
    src = (rng.standard_normal((20, 3)) * 1e3).astype(dtype)
    idx = rng.integers(0, 20, size=(4, 5))
    expect = np.empty((4, 5, 3), dtype=dtype)
    np.take(src, idx, axis=0, out=expect)
    out = np.empty((4, 5, 3), dtype=dtype)
    take_into(src, idx, out, axis=0)
    assert out.tobytes() == expect.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
def test_empty_index_array(dtype):
    src = np.arange(6, dtype=dtype).reshape(3, 2)
    idx = np.empty((0,), dtype=np.intp)
    out = np.empty((0, 2), dtype=dtype)
    take_into(src, idx, out, axis=0)
    out_flat = np.empty((0,), dtype=dtype)
    take_into(src, idx, out_flat)
    # An empty source with an empty index is still a valid gather.
    take_into(np.empty((0, 2), dtype=dtype), idx, out, axis=0)


@pytest.mark.parametrize("bad", [5, 6, -1, -6])
@pytest.mark.parametrize("axis", [None, 0])
def test_out_of_range_index_raises_and_leaves_out_untouched(bad, axis):
    src = np.arange(10.0).reshape(5, 2) if axis == 0 else np.arange(5.0)
    idx = np.array([0, 4, bad, 2])
    out = np.full((4, 2) if axis == 0 else (4,), 7.0)
    with pytest.raises(IndexError):
        take_into(src, idx, out, axis=axis)
    assert (out == 7.0).all()


def test_index_into_empty_source_raises():
    out = np.full((1,), 7.0)
    with pytest.raises(IndexError):
        take_into(np.empty((0,)), np.array([0]), out)
    assert (out == 7.0).all()


def _plan(table):
    F = table.shape[0]
    mask = table >= 0
    return _FusedPlan("k", F, 4, 1, 2, np.dtype(np.float64), np.dtype(np.float64),
                      table, mask, False)


def test_fused_plan_accepts_in_range_neighbour_table():
    plan = _plan(np.array([[1, 3], [2, 0], [3, 1], [0, -1]]))
    assert plan.width == 4 and not plan.all_valid


def test_fused_plan_rejects_out_of_range_neighbour_table():
    with pytest.raises(IndexError):
        _plan(np.array([[1, 3], [2, 0], [3, 4], [0, 2]]))


def _buffered_takes(tree: ast.AST) -> list[int]:
    """Line numbers of ``take(..., out=...)`` calls that pass no ``mode=``.

    ``np.take(a, idx, axis, out)`` / ``a.take(idx, axis, out)`` may also
    pass ``out`` positionally; both spellings count.
    """
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "take":
            continue
        keywords = {kw.arg for kw in node.keywords}
        is_module_take = (isinstance(func, ast.Attribute)
                          and isinstance(func.value, ast.Name)
                          and func.value.id in ("np", "numpy"))
        positional_out = len(node.args) >= (4 if is_module_take else 3)
        if ("out" in keywords or positional_out) and "mode" not in keywords:
            hits.append(node.lineno)
    return hits


def test_guard_catches_a_buffered_gather():
    src = ("np.take(a, i, axis=0, out=o)\n"
           "a.take(i, 0, o)\n"
           "a.take(i, out=o, mode='clip')\n"
           "take_into(a, i, o)\n"
           "np.take(a, i)\n")
    assert _buffered_takes(ast.parse(src)) == [1, 2]


def test_no_buffered_out_gathers_in_the_library():
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        for line in _buffered_takes(ast.parse(path.read_text(), filename=str(path))):
            offenders.append(f"{path.relative_to(root)}:{line}")
    assert not offenders, (
        "np.take(..., out=...) without mode= gathers through a hidden "
        f"temporary; use repro.utils.arrays.take_into: {offenders}")
