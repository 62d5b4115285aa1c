import json
import math

import numpy as np
import pytest

from ccc4.serialize import dumps, format_float

from helpers import dumps_reference


def test_floats_get_17_significant_digits():
    assert format_float(1.0 / 3.0) == "0.33333333333333331"
    assert format_float(0.5) == "0.5"
    assert format_float(2.0) == "2.0"
    assert format_float(-1e300) == "-1.0000000000000001e+300"


def test_formatted_floats_round_trip_exactly():
    rng = np.random.default_rng(80)
    for _ in range(1000):
        x = float(rng.normal() * 10.0 ** rng.integers(-300, 300))
        assert float(format_float(x)) == x


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        format_float(math.nan)
    with pytest.raises(ValueError):
        format_float(math.inf)


def test_dumps_structure_and_types():
    doc = {"a": 1, "b": [True, False, None], "c": {"x": 0.1},
           "d": np.float64(0.25), "e": np.bool_(True), "f": "quote\"back\\slash"}
    text = dumps(doc)
    back = json.loads(text)
    assert back["a"] == 1
    assert back["b"] == [True, False, None]
    assert back["c"]["x"] == 0.1
    assert back["d"] == 0.25
    assert back["e"] is True
    assert back["f"] == 'quote"back\\slash'


def test_dumps_is_deterministic():
    doc = {"z": 1.0, "a": [2.0, {"k": 3.0}]}
    assert dumps(doc) == dumps(doc)


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps({"x": object()})


def test_empty_containers():
    assert json.loads(dumps({})) == {}
    assert json.loads(dumps({"a": [], "b": {}})) == {"a": [], "b": {}}


@pytest.mark.parametrize("doc", [
    {},
    [],
    {"a": {}, "b": [], "c": [[], {}]},
    [{"x": [1, {"y": [2.5, {"z": []}]}]}, [[{"k": None}]], {"w": [{}]}],
    {"f": np.float64(0.1), "i": np.int64(-7), "l": [np.float64(1e-5), np.int64(0)]},
    [None, True, False, np.bool_(True), {"n": None, "t": True, "f": False}],
    {'quote"d': 'a "b" \\c\\', "s": ["\\", '"', '\\"', ""]},
    [-0.0, 0.0, 1e300, -1e300, 5e-324, 2.0, 1.0 / 3.0],
    "plain",
    3,
    -0.0,
])
def test_dumps_equals_the_recursive_emitter(doc):
    assert dumps(doc) == dumps_reference(doc)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_dumps_rejects_non_finite_floats_at_any_depth(bad):
    for doc in (bad, [bad], {"a": [1.0, {"b": bad}]}):
        with pytest.raises(ValueError):
            dumps(doc)


def test_records_and_reports_equal_the_recursive_emitter():
    from ccc4.solver import certify_minimum, minimize_U
    rng = np.random.default_rng(14)
    for _ in range(10):
        rec = minimize_U((10.0 ** rng.uniform(-3.0, 3.0, 4)).tolist())
        for doc in (rec.to_json_dict(), certify_minimum(rec).to_json_dict()):
            assert dumps(doc) == dumps_reference(doc)
