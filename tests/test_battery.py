import math

import pytest

from serrin.battery import CLEAN, branch, certificate, gate, verify_table
from serrin.errors import AnalysisError
from serrin.geometry import Axis


def test_gate_names_the_first_bound_missed_and_carries_the_measurements():
    measured = {"a": 1.0, "b": 2.0, "c": "completed"}
    assert gate(measured, {"a": ("<=", 1.0), "c": ("==", "completed")}) is measured
    with pytest.raises(AnalysisError) as info:
        gate(measured, {"a": ("<", 5.0), "b": ("<", 2.0), "c": ("==", "stopped")})
    assert str(info.value).startswith("b=2.0 misses its bound < 2.0")
    assert info.value.details is measured


@pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "=="])
def test_gate_fails_a_nan_under_every_comparison(op):
    with pytest.raises(AnalysisError):
        gate({"x": math.nan}, {"x": (op, 0.0)})


@pytest.mark.parametrize("axis", ["xi", "eta"])
@pytest.mark.parametrize("check, key, bound", [(certificate, "spectral_gap", (">", math.inf)),
                                               (branch, "defect", ("<", 0.0))])
def test_new_rows_fail_past_an_unreachable_bound(axis, check, key, bound):
    # verify's own sample and bounds pass; only the bound given here can fail them
    name, _, sample, bounds, _ = next(row for row in verify_table(axis) if row[1] is check)
    measured = gate(check(Axis(axis), CLEAN, **sample), bounds)
    with pytest.raises(AnalysisError) as info:
        gate(measured, {**bounds, key: bound})
    assert str(info.value).startswith(f"{key}=")
