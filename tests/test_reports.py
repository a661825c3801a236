"""JSON round-tripping with non-finite tokens and CSV flattening."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from kyle_stability import ModelParams, equilibrium_from_params
from kyle_stability.reports import (
    dumps_report,
    flatten_rows,
    from_jsonable,
    loads_report,
    rows_to_csv,
    to_jsonable,
)


def test_round_trip_nonfinite_and_complex():
    payload = {
        "pos": float("inf"),
        "neg": float("-inf"),
        "nan": float("nan"),
        "z": 1.5 - 2.0j,
        "vec": np.array([1.0, float("inf")]),
        "ints": np.arange(3),
        "flag": np.bool_(True),
        "nested": {"ev": np.array([1 + 1j, 2 - 0.5j])},
    }
    text = dumps_report(payload)
    back = loads_report(text)
    assert back["pos"] == math.inf
    assert back["neg"] == -math.inf
    assert math.isnan(back["nan"])
    assert back["z"] == 1.5 - 2.0j
    assert back["vec"] == [1.0, math.inf]
    assert back["ints"] == [0, 1, 2]
    assert back["flag"] is True
    assert back["nested"]["ev"] == [1 + 1j, 2 - 0.5j]


def test_json_text_is_strict():
    text = dumps_report({"x": float("inf"), "y": float("nan")})
    # Tokens, not bare Infinity/NaN, so any strict JSON parser accepts it.
    assert "Infinity" not in text
    assert "NaN" not in text
    json.loads(text)


def test_dataclasses_serialize():
    params = ModelParams(n_periods=2)
    eq = equilibrium_from_params(params)
    data = to_jsonable(eq)
    assert isinstance(data, dict)
    assert data["beta"] == list(eq.beta)
    round_tripped = from_jsonable(json.loads(dumps_report(eq)))
    assert round_tripped["lam"] == list(eq.lam)


def test_unknown_type_raises():
    with pytest.raises(TypeError):
        to_jsonable({"bad": object()})


def test_flatten_rows_nested():
    rows = flatten_rows(
        [
            {"a": 1, "b": {"c": 2.5, "d": [1.0, 2.0]}},
            {"a": 2, "b": {"c": float("inf"), "e": 1 + 2j}},
        ]
    )
    assert rows[0]["b.c"] == "2.5"
    assert rows[0]["b.d"] == "1.0;2.0"
    assert rows[1]["b.c"] == "inf"
    assert "1+2j" in rows[1]["b.e"].replace("(", "").replace(")", "")


def test_rows_to_csv_union_header():
    text = rows_to_csv([{"a": 1, "b": 2}, {"a": 3, "c": 4}])
    lines = text.strip().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,2,"
    assert lines[2] == "3,,4"


def test_rows_to_csv_scalar_result():
    text = rows_to_csv(3.14)
    lines = text.strip().splitlines()
    assert lines[0] == "value"
    assert lines[1] == "3.14"


def test_rows_to_csv_none_cell():
    text = rows_to_csv([{"a": None, "b": 1.0}])
    lines = text.strip().splitlines()
    assert lines[1] == ",1.0"


def test_rows_to_csv_nonfinite_and_complex_cells():
    text = rows_to_csv(
        [
            {"x": float("inf"), "y": float("nan"), "z": 1 + 2j},
            {
                "x": np.float64("inf"),
                "y": np.float64("nan"),
                "z": np.complex128(1 + 2j),
            },
        ]
    )
    lines = text.strip().splitlines()
    assert lines[0] == "x,y,z"
    assert lines[1] == "inf,nan,(1+2j)"
    assert lines[2] == "inf,nan,(1+2j)"
