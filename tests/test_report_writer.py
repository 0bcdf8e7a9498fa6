"""cli's JSON report writer gives exactly json.dumps(doc, indent=2, sort_keys=True)."""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from shiftq.cli import _json_text

GOLDEN = Path(__file__).parent / "golden"


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
def test_writer_matches_json_on_every_golden_document(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert _json_text(doc) == _dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [
        math.nan,
        math.inf,
        -math.inf,
        -0.0,
        1e300,
        5e-324,
        0.1,
        10**30,
        -(10**30),
        True,
        False,
        None,
        0,
        "",
        "café ☃ \U0001d11e",
        'say "hi" \\ back\\slash\nnew line\ttab\x00',
        {},
        [],
        (),
        (1, (2.5, "x"), []),
        [{}, [[]], {"a": ()}],
        {"b": 1, "a": [True, None, {"d": -0.0, "c": math.nan}], "": {}},
        {"x": np.float64(0.25), "y": [np.float64(-math.inf)]},
        {3: "int key", 1: "int key", -2: "int key"},
        {1.5: "float key", -0.5: "float key", math.inf: "inf key"},
        {True: "bool key"},
        {None: "null key"},
    ],
)
def test_writer_matches_json_on_edge_cases(doc):
    assert _json_text(doc) == _dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [
        Fraction(1, 3),
        {"q": Fraction(2, 3)},
        [np.int64(3)],
        {"rows": [{1, 2}]},
        {Fraction(1, 2): "rational key"},
        {object(): "object key"},
        {1: "mixed", "a": "keys"},
    ],
)
def test_writer_refuses_what_json_refuses(doc):
    # A rational that leaks into a report must fail loudly, not be written as a float.
    with pytest.raises(TypeError):
        _dumps(doc)
    with pytest.raises(TypeError):
        _json_text(doc)
