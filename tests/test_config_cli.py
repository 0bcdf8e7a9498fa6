import csv
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftq import (
    ConfigError,
    FiniteAtoms,
    Gaussian,
    coefficient_sumset,
    config,
    estimators,
    exact_quality_discrete,
    parse_config,
    serialize_config,
    window_bound_one_sample,
)
from shiftq import cli
from shiftq.cli import main
from shiftq.config import ESTIMATORS, EstimatorSpec, ExperimentConfig, build_estimator
from shiftq.util import number_repr

MINIMAL_QUALITY = """
{
  "distribution": {"family": "gaussian", "mean": 0.0, "sigma": 1.0},
  "estimator": {"kind": "mean"},
  "delta": 1.0
}
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL_QUALITY)
    assert cfg.command == "quality"
    assert cfg.mc.trials == 100_000
    assert cfg.mc.seed == 42
    assert cfg.n == 1
    assert cfg.theta_grid is None
    assert not cfg.closed_interval
    assert cfg.output.format == "json"
    assert isinstance(cfg.distribution, Gaussian)


def test_negative_delta_is_a_field_error():
    with pytest.raises(ConfigError) as exc:
        parse_config('{"command": "quality", "delta": -0.5}')
    assert any(path == "delta" and "positive" in msg for path, msg in exc.value.errors)


def test_bad_atom_masses_name_the_sum():
    doc = """
    {
      "command": "bounds",
      "distribution": {"family": "atoms", "points": [[0, 0.4], [1, 0.5]]},
      "delta": 0.25
    }
    """
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    # The float masses are read as the decimals 2/5 and 1/2, so the sum is exact.
    assert exc.value.errors == [("distribution", "atom masses sum to 9/10, expected 1")]


def test_all_errors_are_collected_at_once():
    doc = """
    {
      "command": "quality",
      "distribution": {"family": "martian"},
      "estimator": {"kind": "telepathy"},
      "delta": -1,
      "mc": {"trials": 3}
    }
    """
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    paths = {path for path, _ in exc.value.errors}
    assert {"distribution.family", "estimator.kind", "delta", "mc.trials"} <= paths


def test_rational_float_mixing_is_read_exactly():
    # Float atoms next to 'p/q' ones are read as the decimals they print as.
    doc = """
    {
      "command": "lemma-check",
      "distribution": {"family": "atoms", "points": [[0.5, 0.5], ["3/2", 0.5]]},
      "delta": "1/4"
    }
    """
    cfg = parse_config(doc)
    assert cfg.distribution.atoms == ((Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 2), Fraction(1, 2)))
    assert cfg == parse_config(doc.replace("0.5", '"1/2"'))


def test_float_shift_grid_next_to_rational_atoms_is_read_exactly(tmp_path):
    doc = {
        "distribution": {"family": "atoms", "points": [["0", "1/2"], ["1", "1/2"]]},
        "estimator": {"kind": "discrete_mle"},
        "delta": "1/4",
        "theta_grid": [0.1, 0.2],
    }
    floats = _report(tmp_path, "floats", ["quality"], doc)
    assert floats == _report(tmp_path, "texts", ["quality"], {**doc, "theta_grid": ["1/10", "1/5"]})
    assert floats.splitlines()[1:] == [b"0/1,1/2,0.0,true,true", b"1/10,1/2,0.0,true,false", b"1/5,1/2,0.0,true,false"]


def test_round_trip_preserves_the_config():
    doc = """
    {
      "command": "lemma-check",
      "distribution": {"family": "atoms",
                       "points": [[0, "1/4"], [1, "7/20"], [10, "2/5"]]},
      "estimator": {"kind": "discrete_mle"},
      "delta": "3/4",
      "n": 1,
      "k": 4,
      "mc": {"trials": 5000, "seed": 9, "parallelism": 2},
      "closed_interval": true,
      "output": {"format": "csv", "path": "out.csv"}
    }
    """
    cfg = parse_config(doc)
    assert cfg.delta == Fraction(3, 4)
    again = parse_config(json.dumps(serialize_config(cfg)))
    assert again == cfg


def test_round_trip_with_mixture_estimator():
    doc = """
    {
      "command": "quality",
      "distribution": {"family": "exponential", "rate": 2.0},
      "estimator": {"kind": "mixture", "parts": [
        {"weight": 0.25, "estimator": {"kind": "min_shift"}},
        {"weight": 0.75, "estimator": {"kind": "constant", "value": 0.0}}
      ]},
      "delta": 0.25,
      "theta_grid": [0, 1.5]
    }
    """
    cfg = parse_config(doc)
    assert cfg.estimator.kind == "mixture"
    assert cfg.estimator.parts[0][0] == 0.25
    assert isinstance(cfg.estimator.parts[0][1], EstimatorSpec)
    assert parse_config(json.dumps(serialize_config(cfg))) == cfg


NESTED_MIXTURE = {
    "kind": "mixture",
    "parts": [
        {"weight": 0.5, "estimator": {"kind": "constant", "value": 0}},
        {"weight": 0.5, "estimator": {"kind": "mixture", "parts": [
            {"weight": 0.5, "estimator": {"kind": "mean"}},
            {"weight": 0.5, "estimator": {"kind": "constant", "value": 1}},
        ]}},
    ],
}


@pytest.mark.parametrize("distribution", [
    {"family": "gaussian"},
    {"family": "atoms", "points": [["0", "1/2"], ["1", "1/2"]]},
])
def test_a_nested_mixture_is_refused_at_parse_time(tmp_path, capsys, distribution):
    # Both engines used to accept it here and fail at run time, when the inner
    # mixture had no generator to draw its components from.
    doc = {"command": "quality", "distribution": distribution, "estimator": NESTED_MIXTURE,
           "delta": "1/4", "n": 2, "mc": {"trials": 1000}}
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(doc))
    assert [path for path, _ in info.value.errors] == ["estimator.parts[1].estimator.kind"]
    assert "cannot itself be a mixture" in info.value.errors[0][1]
    cfg = write(tmp_path, "nested.json", json.dumps(doc))
    assert main(["quality", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error at estimator.parts[1].estimator.kind" in err and "needs a generator" not in err


def _parts(weights):
    return [{"weight": w, "estimator": {"kind": "constant", "value": v}} for v, w in enumerate(weights)]


def test_non_positive_mixture_weights_are_refused_at_parse_time():
    # They sum to 1, so only the positivity check sees them.
    doc = {"command": "quality", "distribution": {"family": "gaussian"},
           "estimator": {"kind": "mixture", "parts": _parts([1.5, -0.5])}, "delta": 0.5}
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(doc))
    assert info.value.errors == [("estimator.parts", "mixture weights must be positive")]


def test_mixture_weights_must_sum_to_exactly_one(tmp_path, capsys):
    # Three float thirds are read as the decimal 0.3333333333333333 each; "1/3" is a third.
    doc = {"distribution": {"family": "atoms", "points": [[0, 1]]},
           "estimator": {"kind": "mixture", "parts": _parts([1 / 3] * 3)}, "delta": "1/2", "theta_grid": [0]}
    assert main(["quality", "--config", write(tmp_path, "floats.json", json.dumps(doc))]) == 2
    assert capsys.readouterr().err.strip() == (
        "config error at estimator.parts: mixture weights sum to 9999999999999999/10000000000000000, expected 1"
    )
    doc["estimator"]["parts"] = _parts(["1/3"] * 3)
    cfg = parse_config(json.dumps(doc))
    assert parse_config(json.dumps(serialize_config(cfg))) == cfg  # the thirds are written as "1/3"
    out = str(tmp_path / "q.json")
    assert main(["quality", "--config", write(tmp_path, "thirds.json", json.dumps(doc)), "--out", out]) == 0
    assert json.load(open(out))["per_theta"][0]["q"] == "1/3"


FLOAT_MIXTURE_ON_ATOMS = {
    "distribution": {"family": "atoms", "points": [[0, 0.25], [1, 0.35], [10, 0.4]]},
    "estimator": {"kind": "mixture", "parts": [
        {"weight": 0.375, "estimator": {"kind": "discrete_mle"}},
        {"weight": 0.625, "estimator": {"kind": "constant", "value": 0}},
    ]},
    "delta": 0.75,
    "theta_grid": [0, 1, 0.5],
    "k": 3,
}


def test_a_float_weight_mixture_on_atoms_is_scored_exactly(tmp_path):
    # The weights are 3/8 and 5/8, so the rows and the averaging check stay rational.
    cfg = write(tmp_path, "mix.json", json.dumps(FLOAT_MIXTURE_ON_ATOMS))
    q_out, l_out = str(tmp_path / "q.json"), str(tmp_path / "l.json")
    assert main(["quality", "--config", cfg, "--out", q_out]) == 0
    rows = json.load(open(q_out))["per_theta"]
    assert [(r["theta"], r["q"], r["exact"]) for r in rows] == [
        ("0/1", "17/20", True), ("1/1", "9/40", True), ("1/2", "17/20", True)
    ]
    assert main(["lemma-check", "--config", cfg, "--out", l_out]) == 0
    report = json.load(open(l_out))
    assert (report["average_quality"], report["bound"], report["holds"]) == ("53/180", "1/1", True)


KIND_PARAMS = {"value": "1/3", "bias": 0.2, "strength": "1/2"}


@pytest.mark.parametrize(
    "space, kind", [(space, kind) for space, kinds in ESTIMATORS.items() for kind in kinds]
)
def test_round_trip_for_every_estimator_kind(space, kind):
    entry = ESTIMATORS[space][kind]
    estimator = {"kind": kind}
    if kind == "mixture":
        estimator["parts"] = [{"weight": 1.0, "estimator": {"kind": "mean"}}]
    elif entry.param is not None:
        estimator[entry.param] = KIND_PARAMS[entry.param]
    doc = {
        "command": "circle-avg" if space == "circle" else "quality",
        "distribution": {"family": "gaussian"},
        "estimator": estimator,
        "delta": 0.25,
    }
    cfg = parse_config(json.dumps(doc))
    written = serialize_config(cfg)
    assert written["estimator"].keys() == estimator.keys()
    assert parse_config(json.dumps(written)) == cfg
    if space == "circle":
        # Circle labels format the parameter with :g, which a Fraction refuses.
        assert build_estimator(cfg.estimator, cfg).label.startswith(kind)


def test_invalid_json_reports_position():
    with pytest.raises(ConfigError) as exc:
        parse_config("{nope")
    assert exc.value.errors[0][0] == "/"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_quality_writes_deterministic_csv(tmp_path):
    base = {
        "distribution": {"family": "exponential", "rate": 1.0},
        "estimator": {"kind": "min_shift"},
        "delta": 0.25,
        "n": 2,
        "theta_grid": [-5, 0, 3, 100],
        "mc": {"trials": 20000, "seed": 11, "parallelism": 1},
    }
    cfg1 = write(tmp_path, "a.json", json.dumps(base))
    base["mc"]["parallelism"] = 3
    cfg3 = write(tmp_path, "b.json", json.dumps(base))

    out1, out2, out3 = (str(tmp_path / f"{i}.csv") for i in range(3))
    assert main(["quality", "--config", cfg1, "--out", out1, "--format", "csv"]) == 0
    assert main(["quality", "--config", cfg1, "--out", out2, "--format", "csv"]) == 0
    assert main(["quality", "--config", cfg3, "--out", out3, "--format", "csv"]) == 0

    b1 = open(out1, "rb").read()
    assert b1 == open(out2, "rb").read()
    assert b1 == open(out3, "rb").read()

    rows = list(csv.DictReader(open(out1)))
    assert rows[0].keys() == {"theta", "q", "ci_half_width", "exact", "is_worst_case"}
    worst = [r for r in rows if r["is_worst_case"] == "true"]
    assert len(worst) == 1
    assert abs(float(worst[0]["q"]) - 0.632) < 0.03


def test_cli_bounds_json(tmp_path):
    cfg = write(
        tmp_path,
        "b.json",
        json.dumps(
            {
                "distribution": {
                    "family": "atoms",
                    "points": [[0, "1/4"], [1, "7/20"], [10, "2/5"]],
                },
                "delta": "3/4",
            }
        ),
    )
    out = str(tmp_path / "bounds.json")
    assert main(["bounds", "--config", cfg, "--out", out]) == 0
    doc = json.load(open(out))
    kinds = {b["kind"]: b for b in doc["bounds"]}
    assert kinds["window"]["value"] == "3/5"
    assert kinds["packing"]["value"] == "13/20"
    assert kinds["window"]["equality_certified"] is False


def test_cli_bounds_closed_interval_atoms_have_no_packing_row(tmp_path):
    # Atoms 2*delta apart: a closed window catches both, so discrete_mle
    # scores 1, above the packing value 1/2 of the open-window argument.
    doc = {
        "distribution": {"family": "atoms", "points": [[0, "1/2"], [1, "1/2"]]},
        "delta": "1/2",
        "estimator": {"kind": "discrete_mle"},
        "theta_grid": ["0", "1/3"],
    }
    cfg = write(tmp_path, "c.json", json.dumps(doc))
    rows = {}
    for closed in (False, True):
        out = str(tmp_path / f"bounds-{closed}.json")
        assert main(["bounds", "--config", cfg, "--out", out] + ["--closed-interval"] * closed) == 0
        rows[closed] = [(b["kind"], b["value"], b["equality_certified"]) for b in json.load(open(out))["bounds"]]
    assert rows[False] == [("window", "1/2", True), ("packing", "1/2", True)]
    assert rows[True] == [("window", "1/1", False)]
    out = str(tmp_path / "quality.json")
    assert main(["quality", "--config", cfg, "--closed-interval", "--out", out]) == 0
    assert [row["q"] for row in json.load(open(out))["per_theta"]] == ["1/1", "1/1"]


@pytest.mark.parametrize("knots", [[[0.5, 4], [1, 0]], [[-1, 4], [-0.5, 0]]])
def test_cli_bounds_halfline_rows_wherever_the_support_starts(tmp_path, capsys, knots):
    doc = {"distribution": {"family": "piecewise", "knots": knots}, "delta": 0.1}
    assert main(["bounds", "--config", write(tmp_path, "ramp.json", json.dumps(doc)), "--n", "3"]) == 0
    rows = [line.split()[:3] for line in capsys.readouterr().out.splitlines()[2:]]
    assert rows == [["window", "1", "0.640000"], ["packing", "3", "0.953344"]]


def test_cli_lemma_check(tmp_path):
    cfg = write(
        tmp_path,
        "l.json",
        json.dumps(
            {
                "distribution": {
                    "family": "atoms",
                    "points": [[0, "1/4"], [1, "7/20"], [10, "2/5"]],
                },
                "delta": "3/4",
                "k": 4,
            }
        ),
    )
    out = str(tmp_path / "lemma.json")
    assert main(["lemma-check", "--config", cfg, "--out", out]) == 0
    doc = json.load(open(out))
    assert doc["holds"] is True
    assert doc["average_quality"] == "3/5"


def test_cli_min_shift_starts_at_the_support_and_reaches_the_packing_row(tmp_path):
    # On a ramp decreasing from lo = 0.5 the rule is min(x) - (lo + delta), which attains
    # the half-line packing row; min(x) - delta would score 0.
    doc = {
        "distribution": {"family": "piecewise", "knots": [[0.5, 4], [1, 0]]},
        "estimator": {"kind": "min_shift"},
        "delta": 0.1,
        "n": 3,
        "theta_grid": [0.0],
        "mc": {"trials": 20000, "seed": 3},
    }
    cfg = write(tmp_path, "ramp.json", json.dumps(doc))
    q_out, b_out = str(tmp_path / "q.json"), str(tmp_path / "b.json")
    assert main(["quality", "--config", cfg, "--out", q_out]) == 0
    assert main(["bounds", "--config", cfg, "--out", b_out]) == 0
    quality = json.load(open(q_out))
    (packing,) = [r for r in json.load(open(b_out))["bounds"] if r["kind"] == "packing"]
    assert quality["estimator"] == "min_shift(delta=0.1, lo=0.5)"
    assert float(packing["value"]) == pytest.approx(0.953344, abs=1e-12)
    (row,) = quality["per_theta"]
    assert abs(row["q"] - float(packing["value"])) <= row["ci_half_width"]


@pytest.mark.parametrize("kind", ["mean", "min_shift"])
def test_cli_lemma_check_with_any_one_sample_rule(tmp_path, kind):
    # The CLI builds whichever rule the config names at n = 1.
    doc = {
        "distribution": {"family": "atoms", "points": [["0", "1/4"], ["1", "7/20"], ["10", "2/5"]]},
        "estimator": {"kind": kind},
        "delta": "3/4",
        "k": 3,
    }
    out = str(tmp_path / "lemma.json")
    assert main(["lemma-check", "--config", write(tmp_path, "l.json", json.dumps(doc)), "--out", out]) == 0
    report = json.load(open(out))
    cfg = parse_config(json.dumps({**doc, "command": "lemma-check"}))
    d, delta = cfg.distribution, cfg.delta
    rule = {"mean": estimators.mean_estimator(d, 1), "min_shift": estimators.min_shift_estimator(delta, 1)}[kind]
    shifts = coefficient_sumset(d.locations, 3)
    average = Fraction(sum(exact_quality_discrete(rule, d, theta, delta) for theta in shifts), len(shifts))
    grown = len({s + z for s in shifts for z in d.locations})
    bound = window_bound_one_sample(d, delta).value * Fraction(grown, len(shifts))
    assert (report["average_quality"], report["bound"]) == (number_repr(average), number_repr(bound))
    assert report["holds"] is True


@pytest.mark.parametrize(
    "doc, average",
    [
        # One atom of int mass 1: the hit total is an int.
        ({"distribution": {"family": "atoms", "points": [[0, 1]]}, "delta": "1/2", "k": 3}, "1/1"),
        # A constant far from every shift: nothing hits, the total is the int 0.
        ({"distribution": {"family": "atoms", "points": [["0", "1/3"], ["5/2", "2/3"]]},
          "estimator": {"kind": "constant", "value": 1000}, "delta": "3/4", "k": 3}, "0/1"),
    ],
)
def test_cli_lemma_check_writes_an_int_total_as_a_rational_average(tmp_path, doc, average):
    out = str(tmp_path / "lemma.json")
    assert main(["lemma-check", "--config", write(tmp_path, "l.json", json.dumps(doc)), "--out", out]) == 0
    assert json.load(open(out))["average_quality"] == average


def test_cli_tree_demo_emits_rational_pairs(tmp_path):
    out = str(tmp_path / "tree.json")
    assert main(["tree-demo", "--radius", "4", "--out", out]) == 0
    doc = json.load(open(out))
    assert doc["truncation_quality"] == [2, 3]
    assert doc["translate_max_quality"] == [1, 3]
    by_theta = {row["theta"]: row["q"] for row in doc["rows"]}
    assert by_theta[""] == [1, 1]
    assert by_theta["a"] == [1, 1]
    assert by_theta["b"] == [2, 3]
    assert doc["comparison_holds"] is True


def test_cli_tree_demo_rejects_tiny_radius():
    assert main(["tree-demo", "--radius", "1"]) == 2


def test_cli_circle_avg_with_density_file(tmp_path):
    dens = write(
        tmp_path, "dens.json", json.dumps({"knots": [[0.0, 0.5], [0.5, 1.5], [1.0, 0.5]]})
    )
    out = str(tmp_path / "circle.csv")
    code = main(
        [
            "circle-avg",
            "--density",
            dens,
            "--delta",
            "0.1",
            "--n",
            "2",
            "--anchor-grid",
            "8",
            "--trials",
            "5000",
            "--seed",
            "3",
            "--out",
            out,
            "--format",
            "csv",
        ]
    )
    assert code == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 8
    assert rows[0].keys() == {"anchor", "q", "ci_half_width"}


def test_cli_validation_failures_exit_2(tmp_path):
    bad = write(tmp_path, "bad.json", '{"command": "quality", "delta": -1}')
    assert main(["quality", "--config", bad]) == 2
    # Missing required pieces for the subcommand.
    empty = write(tmp_path, "empty.json", "{}")
    assert main(["quality", "--config", empty]) == 2
    # Estimator/family mismatch caught at build time.
    mismatch = write(
        tmp_path,
        "mismatch.json",
        json.dumps(
            {
                "distribution": {"family": "gaussian"},
                "estimator": {"kind": "discrete_mle"},
                "delta": 0.5,
            }
        ),
    )
    assert main(["quality", "--config", mismatch]) == 2


@pytest.mark.parametrize(
    "argv, path",
    [
        (["circle-avg", "--n", "0"], "n"),
        (["quality", "--delta", "0"], "delta"),
        (["quality", "--delta", "-1"], "delta"),
        (["bounds", "--n", "0"], "n"),
        (["bounds", "--n", "-3"], "n"),
        (["lemma-check"], "n"),  # the one-sample check refuses the file's n = 3
    ],
)
def test_cli_flags_are_validated_like_config_fields(tmp_path, capsys, argv, path):
    # "constant" is a kind on the line and on the circle, so the file suits every subcommand.
    doc = {
        "distribution": {"family": "atoms", "points": [[0.0, 0.25], [1.0, 0.75]]},
        "estimator": {"kind": "constant", "value": 0.25},
        "delta": 0.1,
        "n": 3,
        "anchor_grid": 8,
        "mc": {"trials": 1000},
    }
    cfg = write(tmp_path, "c.json", json.dumps(doc))
    assert main(argv + ["--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err and all(line.startswith(f"config error at {path}: ") for line in err)


def test_cli_estimator_table_follows_the_subcommand(tmp_path):
    doc = {"command": "quality", "estimator": {"kind": "warped", "strength": 0.5}, "delta": 0.1}
    cfg = write(tmp_path, "w.json", json.dumps(doc))
    out = str(tmp_path / "w.out.json")
    argv = ["circle-avg", "--config", cfg, "--trials", "1000", "--anchor-grid", "8", "--out", out]
    assert main(argv) == 0
    assert json.load(open(out))["estimator"] == "warped(strength=0.5)"
    assert main(["quality", "--config", cfg]) == 2


def test_cli_density_file_is_validated_like_the_config_field(tmp_path, capsys):
    dens = write(tmp_path, "dens.json", json.dumps({"knots": [[0, 1, 3]]}))
    assert main(["circle-avg", "--density", dens, "--trials", "1000"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error at density.knots: expected [position, value] pairs"]


def test_cli_uniform_with_low_high_exits_2(tmp_path, capsys):
    doc = {"command": "bounds", "distribution": {"family": "uniform", "low": 2, "high": 5}, "delta": 0.5}
    cfg = write(tmp_path, "u.json", json.dumps(doc))
    assert main(["bounds", "--config", cfg]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error at distribution.low: unknown key",
        "config error at distribution.high: unknown key",
    ]


def test_unknown_keys_are_rejected_at_every_level():
    doc = {
        "distribution": {"family": "gaussian", "sigma": 2.0, "sd": 1},
        "estimator": {
            "kind": "mixture",
            "parts": [
                {"weight": 0.5, "estimator": {"kind": "constant", "value": 1, "vlaue": 2}},
                {"weight": 0.5, "estimator": {"kind": "mean", "value": 0}, "w": 1},
            ],
            "label": "m",
        },
        "delta": 0.5,
        "detla": 0.5,
        "mc": {"trials": 1000, "parallelism": 4, "seeds": 1},
        "output": {"format": "csv", "fmt": "csv"},
    }
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(doc))
    assert {path for path, _ in info.value.errors} == {
        "detla",
        "distribution.sd",
        "estimator.label",
        "estimator.parts[0].estimator.vlaue",
        "estimator.parts[1].w",
        "estimator.parts[1].estimator.value",
        "mc.seeds",
        "output.fmt",
    }
    assert {message for _, message in info.value.errors} == {"unknown key"}
    circle = {
        "command": "circle-avg",
        "density": {"knots": [[0, 1], [1, 1]], "wrap": True},
        "estimator": {"kind": "warped", "bias": 0.1},
    }
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(circle))
    assert info.value.errors == [("density.wrap", "unknown key"), ("estimator.bias", "unknown key")]
    # parallelism is still accepted and ignored.
    kept = {"command": "bounds", "distribution": {"family": "gaussian"}, "delta": 0.5}
    cfg = parse_config(json.dumps({**kept, "mc": {"parallelism": 4}}))
    assert cfg == parse_config(json.dumps(kept))


def test_cli_enumeration_limit_exits_1(tmp_path):
    points = [[i, "1/7"] for i in range(6)] + [[10, "1/7"]]
    cfg = write(
        tmp_path,
        "big.json",
        json.dumps(
            {
                "distribution": {"family": "atoms", "points": points},
                "delta": "1/4",
                "k": 5,
            }
        ),
    )
    assert main(["lemma-check", "--config", cfg]) == 1


def test_cli_quality_cap_counts_multisets_for_symmetric_rules(tmp_path, capsys):
    # 4^10 ordered tuples exceed the cap of 10^6; the mean on atoms walks the
    # 286 multisets instead, also when the atoms are spelled as floats.
    doc = {
        "distribution": {"family": "atoms", "points": [[z, "1/4"] for z in ("0", "1", "3", "7")]},
        "estimator": {"kind": "mean"},
        "delta": "1/2",
        "n": 10,
        "theta_grid": ["0"],
    }
    rational = _report(tmp_path, "rational", ["quality"], doc)
    doc["distribution"]["points"] = [[z, 0.25] for z in (0.0, 1.0, 3.0, 7.0)]
    doc["delta"], doc["theta_grid"] = 0.5, [0.0]
    assert _report(tmp_path, "float", ["quality"], doc) == rational
    assert capsys.readouterr().err == ""


def test_cli_paper_suite_passes(tmp_path):
    out = str(tmp_path / "suite.json")
    assert main(["paper-suite", "--trials", "40000", "--out", out]) == 0
    doc = json.load(open(out))
    assert doc["all_passed"] is True
    assert len(doc["scenarios"]) >= 8


def test_cli_exact_quality_report_stays_rational(tmp_path):
    doc = {
        "distribution": {"family": "atoms", "points": [["0", "1/2"], ["1", "1/2"]]},
        "estimator": {"kind": "discrete_mle"},
        "delta": "1",
        "theta_grid": ["0", "1/3"],
    }
    cfg = write(tmp_path, "exact.json", json.dumps(doc))
    out_csv, out_json = str(tmp_path / "q.csv"), str(tmp_path / "q.json")
    assert main(["quality", "--config", cfg, "--out", out_csv, "--format", "csv"]) == 0
    assert main(["quality", "--config", cfg, "--out", out_json]) == 0
    rows = [(r["theta"], r["q"], r["is_worst_case"]) for r in csv.DictReader(open(out_csv))]
    assert rows == [("0/1", "1/1", "true"), ("1/3", "1/1", "false")]
    report = json.load(open(out_json))
    assert [(t["theta"], t["q"]) for t in report["per_theta"]] == [("0/1", "1/1"), ("1/3", "1/1")]
    assert report["worst_case"] == {"q": "1/1", "theta": "0/1"}


def test_cli_window_search_without_convergence_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(estimators, "WINDOW_MAX_STEPS", 1)
    # A strictly log-concave piecewise law: the Gaussian window rule takes the closed form at n >= 2.
    doc = {
        "distribution": {"family": "piecewise", "knots": [[0.0, 0.16], [1.0, 0.48], [2.0, 0.4], [3.0, 0.08]]},
        "estimator": {"kind": "window_mle"},
        "delta": 0.3,
        "n": 4,
        "theta_grid": [0.0],
        "mc": {"trials": 1000, "seed": 3},
    }
    # The one-sample window bound runs the window rule's search, so it fails as loudly.
    expo = {"distribution": {"family": "exponential", "rate": 1.5}, "delta": 0.2, "n": 5}
    cases = (
        ("quality", "PiecewiseDensity", doc),
        ("bounds", "PiecewiseDensity", doc),
        ("bounds", "Exponential", expo),
    )
    for command, family, cfg in cases:
        assert main([command, "--config", write(tmp_path, "w.json", json.dumps(cfg))]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"no convergence: window search on {family}")


def test_cli_repeated_shift_flags_one_worst_case_row(tmp_path):
    mc_doc = {
        "distribution": {"family": "gaussian", "mean": 0.0, "sigma": 1.0},
        "estimator": {"kind": "mean"},
        "delta": 0.5,
        "n": 2,
        "theta_grid": [0.0, 2.5, 0.0],
        "mc": {"trials": 1000, "seed": 5},
    }
    exact_doc = {
        "distribution": {"family": "atoms", "points": [["0", "1/4"], ["1", "3/4"]]},
        "estimator": {"kind": "discrete_mle"},
        "delta": "1/3",
        "theta_grid": ["0", "5/2", "0"],
    }
    for name, doc in (("mc", mc_doc), ("exact", exact_doc)):
        out = str(tmp_path / f"{name}.csv")
        cfg = write(tmp_path, f"{name}.json", json.dumps(doc))
        assert main(["quality", "--config", cfg, "--out", out, "--format", "csv"]) == 0
        rows = list(csv.DictReader(open(out)))
        assert [r["is_worst_case"] for r in rows] == ["true", "false", "false"], name


def test_cli_quality_at_a_huge_shift_exits_0(tmp_path):
    doc = {
        "distribution": {"family": "gaussian", "mean": 0.0, "sigma": 1.0},
        "estimator": {"kind": "mean"},
        "delta": 0.5,
        "n": 4,
        "theta_grid": [0, 1e15],
        "mc": {"trials": 60000, "seed": 3},
    }
    out = str(tmp_path / "huge.csv")
    cfg = write(tmp_path, "huge.json", json.dumps(doc))
    assert main(["quality", "--config", cfg, "--out", out, "--format", "csv"]) == 0
    rows = list(csv.DictReader(open(out)))
    assert [r["q"] for r in rows] == ["0.6823166666666667"] * 2


def test_cli_false_invariance_claim_exits_1(tmp_path, monkeypatch, capsys):
    liar = estimators.Estimator(
        label="liar",
        fn=lambda x: 0.0,
        n=1,
        invariance_claim=estimators.SHIFT_INVARIANT,
        batch_fn=lambda x: np.zeros(x.shape[0]),
    )
    monkeypatch.setattr(estimators, "mean_estimator", lambda d, n: liar)
    doc = {
        "distribution": {"family": "gaussian", "mean": 0.0, "sigma": 1.0},
        "estimator": {"kind": "mean"},
        "delta": 1.0,
        "theta_grid": [0.0, 6.0],
        "mc": {"trials": 1000, "seed": 3},
    }
    assert main(["quality", "--config", write(tmp_path, "liar.json", json.dumps(doc))]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("invariance: liar claims shift invariance")


RATIONAL_ATOMS = {"family": "atoms", "points": [["0", "1/4"], ["1", "7/20"], ["10", "2/5"]]}
FLOAT_ATOMS = {"family": "atoms", "points": [[0.0, 0.25], [1.0, 0.75]]}


# numpy sits in sys.modules from the start as a lazy module; its submodules appear once it runs.
NUMPY_UNLOADED = "assert not [m for m in sys.modules if m.startswith('numpy.')], 'numpy was loaded'\n"


@pytest.mark.parametrize(
    "command, doc",
    [
        ("quality", MINIMAL_QUALITY),
        ("quality", {"distribution": {"family": "exponential", "rate": 2.0}, "estimator": {"kind": "min_shift"},
                     "delta": 0.25}),
        ("quality", {"distribution": {"family": "uniform", "lo": 0, "hi": 1}, "estimator": {"kind": "mean"},
                     "delta": 0.25}),
        ("bounds", {"distribution": {"family": "piecewise", "knots": [[0, 0], [1, 1], [2, 0]]}, "delta": 0.25}),
        ("quality", {"distribution": RATIONAL_ATOMS, "estimator": {"kind": "mean"}, "delta": "3/4", "n": 2}),
        ("bounds", {"distribution": FLOAT_ATOMS, "delta": 0.75}),
        ("lemma-check", {"distribution": RATIONAL_ATOMS, "delta": "3/4", "k": 3}),
        ("circle-avg", {"density": {"knots": [[0, 0.5], [0.5, 1.5], [1, 0.5]]}, "delta": 0.1, "n": 3}),
        ("tree-demo", {"radius": 3}),
        ("paper-suite", {}),
    ],
    ids=["gaussian", "exponential", "uniform", "piecewise", "rational-atoms", "float-atoms",
         "lemma-check", "circle-avg", "tree-demo", "paper-suite"],
)
def test_cli_import_and_parse_leave_scipy_special_unloaded(command, doc):
    # A cold start loads the parser's modules only; each subcommand imports its engine when it runs.
    text = doc if isinstance(doc, str) else json.dumps(doc)
    code = (
        "import sys\n"
        "import shiftq.cli\n"
        "from shiftq.config import parse_config\n"
        f"parse_config({text!r}, default_command={command!r})\n"
        "assert 'scipy.special' not in sys.modules, 'scipy.special was imported'\n"
        + NUMPY_UNLOADED
        + "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'shiftq')\n"
        "assert loaded == ['shiftq', 'shiftq.cli', 'shiftq.config', 'shiftq.distributions', 'shiftq.util'], loaded\n"
        "assert 'csv' not in sys.modules, 'csv was imported'\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    subprocess.run([sys.executable, "-c", code], check=True, env=dict(os.environ, PYTHONPATH=src))


def test_exact_commands_leave_numpy_unloaded_and_mc_reports_unchanged(tmp_path):
    # The exact commands run without loading numpy; a Gaussian quality in the same process
    # then loads it on first use and writes the same bytes as a process that imported
    # numpy before shiftq.
    exact = [
        ["tree-demo", "--radius", "3"],
        ["quality", "--config", write(tmp_path, "q.json", json.dumps(
            {"distribution": RATIONAL_ATOMS, "estimator": {"kind": "mean"}, "delta": "3/4", "n": 2}))],
        ["lemma-check", "--config", write(tmp_path, "l.json", json.dumps(
            {"distribution": RATIONAL_ATOMS, "delta": "3/4", "k": 3}))],
        ["lemma-check", "--config", write(tmp_path, "lf.json", json.dumps(
            {"distribution": FLOAT_ATOMS, "delta": 0.75, "k": 2}))],
        ["bounds", "--config", write(tmp_path, "b.json", json.dumps({"distribution": RATIONAL_ATOMS, "delta": "3/4"}))],
    ]
    mc = ["quality", "--config", write(tmp_path, "g.json", json.dumps(
        {"distribution": {"family": "gaussian", "mean": 0.3, "sigma": 1.2}, "estimator": {"kind": "window_mle"},
         "delta": 0.4, "n": 3, "mc": {"trials": 3000, "seed": 5}})), "--format", "csv"]

    def run(numpy_first: bool, out: str) -> None:
        code = (
            "import sys\n"
            + ("import numpy\n" if numpy_first else "")
            + "from shiftq.cli import main\n"
            f"for argv in {exact!r}:\n"
            "    assert main(argv) == 0, argv\n"
            + ("" if numpy_first else NUMPY_UNLOADED)
            + f"assert main({mc + ['--out', out]!r}) == 0\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        subprocess.run([sys.executable, "-c", code], check=True, env=dict(os.environ, PYTHONPATH=src),
                       stdout=subprocess.DEVNULL)

    run(False, str(tmp_path / "lazy.csv"))
    run(True, str(tmp_path / "eager.csv"))
    lazy = (tmp_path / "lazy.csv").read_bytes()
    assert lazy and lazy == (tmp_path / "eager.csv").read_bytes()


@pytest.mark.parametrize(
    "command, doc",
    [
        ("quality", {"distribution": RATIONAL_ATOMS, "estimator": {"kind": "mean"}, "delta": "3/4"}),
        ("quality", json.loads(MINIMAL_QUALITY)),
        ("bounds", {"distribution": RATIONAL_ATOMS, "delta": "3/4"}),
        ("lemma-check", {"distribution": RATIONAL_ATOMS, "delta": "3/4", "k": 2}),
        ("tree-demo", {}),
        ("circle-avg", {}),
        ("paper-suite", {}),
    ],
    ids=["exact-quality", "mc-quality", "bounds", "lemma-check", "tree-demo", "circle-avg", "paper-suite"],
)
def test_negative_seed_is_a_field_error_on_every_command(tmp_path, capsys, command, doc):
    cfg = write(tmp_path, "c.json", json.dumps(doc))
    assert main([command, "--config", cfg, "--seed", "-5"]) == 2
    assert capsys.readouterr().err.splitlines() == ["config error at mc.seed: must be at least 0"]
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps({**doc, "mc": {"seed": -1}}), default_command=command)
    assert exc.value.errors == [("mc.seed", "must be at least 0")]


@pytest.mark.parametrize(
    "command, field, doc, bad",
    [
        ("circle-avg", "density", {"knots": [[None, 1], [1, 1]]}, "[null, 1]"),
        ("bounds", "distribution", {"family": "piecewise", "knots": [[0, 1], [1, None], [2, 0]]}, "[1, null]"),
        ("bounds", "distribution", {"family": "piecewise", "knots": [[0, 1], [1, {}], [2, 0]]}, "[1, {}]"),
    ],
)
def test_non_number_knot_is_a_field_error(tmp_path, capsys, command, field, doc, bad):
    # Reported with the document's other field errors, not as an uncaught TypeError.
    cfg = write(tmp_path, "k.json", json.dumps({field: doc, "delta": -1}))
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error at {field}.knots: expected numbers in [position, value] pairs, got {bad}",
        "config error at delta: delta must be positive",
    ]


def test_infinite_delta_is_a_field_error(tmp_path, capsys):
    # The default shift grid is built in rationals from delta, which has none for infinity.
    doc = {"distribution": {"family": "gaussian"}, "estimator": {"kind": "mean"}, "delta": math.inf}
    assert main(["quality", "--config", write(tmp_path, "inf.json", json.dumps(doc))]) == 2
    assert capsys.readouterr().err.splitlines() == ["config error at delta: delta must be finite"]


def _report(tmp_path, name, argv, doc, fmt="csv"):
    cfg = write(tmp_path, f"{name}.json", json.dumps(doc))
    out = tmp_path / f"{name}.out"
    assert main(argv + ["--config", cfg, "--out", str(out), "--format", fmt]) == 0
    return out.read_bytes()


def test_quality_report_writes_an_exact_delta_as_p_q(tmp_path):
    doc = {"distribution": RATIONAL_ATOMS, "estimator": {"kind": "mean"}, "delta": "1/3", "n": 2, "theta_grid": ["0"]}
    quality = json.loads(_report(tmp_path, "quality", ["quality"], doc, "json"))
    bounds = json.loads(_report(tmp_path, "bounds", ["bounds"], doc, "json"))
    assert quality["delta"] == "1/3" and {row["delta"] for row in bounds["bounds"]} == {"1/3"}
    # A float delta next to atoms is read as its decimal; next to any other law it stays a float.
    assert json.loads(_report(tmp_path, "decimal", ["quality"], {**doc, "delta": 0.3}, "json"))["delta"] == "3/10"
    gaussian = {**doc, "distribution": {"family": "gaussian"}, "delta": 0.3, "mc": {"trials": 1000}}
    assert json.loads(_report(tmp_path, "gaussian", ["quality"], gaussian, "json"))["delta"] == 0.3


def test_a_shift_that_rounds_to_float_zero_is_not_shift_zero(tmp_path):
    # 10^-400 is 0.0 as a float; an invariant rule still gets its row at shift 0 ahead of it.
    tiny = "1/1" + "0" * 400
    doc = {"distribution": RATIONAL_ATOMS, "estimator": {"kind": "discrete_mle"}, "delta": "3/4", "theta_grid": [tiny]}
    rows = json.loads(_report(tmp_path, "tiny", ["quality"], doc, "json"))["per_theta"]
    assert [(row["theta"], row["q"]) for row in rows] == [("0/1", "3/5"), (tiny, "3/5")]


@given(
    locations=st.lists(st.integers(-300, 300), min_size=1, max_size=4, unique=True),
    cuts=st.lists(st.integers(1, 99), max_size=3, unique=True),
    delta=st.integers(1, 200),
    kind=st.sampled_from(["mean", "min_shift", "discrete_mle"]),
    n=st.integers(1, 2),
    closed=st.booleans(),
)
def test_one_law_in_three_spellings_gives_one_report(locations, cuts, delta, kind, n, closed):
    # A law in hundredths, its delta and a shift grid, written as JSON numbers, as 'p/q' strings
    # and as the floats an API caller passes (FiniteAtoms in an ExperimentConfig, serialised),
    # give the same bytes in every exact report.
    cuts = sorted(cuts)
    locs = sorted(locations)[: len(cuts) + 1]
    cuts = cuts[: len(locs) - 1]
    units = [b - a for a, b in zip([0, *cuts], [*cuts, 100])]
    floats = tuple((z / 100, u / 100) for z, u in zip(locs, units))
    n = 1 if kind == "discrete_mle" else n
    common = {"estimator": {"kind": kind}, "n": n, "k": 3, "closed_interval": closed}
    api = ExperimentConfig(
        command="quality", distribution=FiniteAtoms(atoms=floats), estimator=EstimatorSpec(kind=kind),
        delta=delta / 100, n=n, k=3, theta_grid=(0.0, 0.37, -1e15), closed_interval=closed,
    )
    spellings = {
        "numbers": {**common, "distribution": {"family": "atoms", "points": [list(p) for p in floats]},
                    "delta": delta / 100, "theta_grid": [0.0, 0.37, -1e15]},
        "texts": {**common, "distribution": {"family": "atoms", "points": [[f"{z}/100", f"{u}/100"]
                                                                           for z, u in zip(locs, units)]},
                  "delta": f"{delta}/100", "theta_grid": ["0", "37/100", "-1000000000000000"]},
        "api": serialize_config(api),
    }
    with tempfile.TemporaryDirectory() as tmp:
        for command in ("quality", "bounds", "lemma-check")[: 3 if n == 1 else 2]:
            reports = [
                _report(pathlib.Path(tmp), f"{command}-{name}", [command], {**doc, "command": command}, "json")
                for name, doc in spellings.items()
            ]
            assert reports[0] == reports[1] == reports[2], command


@pytest.mark.parametrize(
    "command, doc, flags, document_delta",
    [
        # A Gaussian holds delta as a float; the default grid follows its type.
        ("quality", {"distribution": {"family": "gaussian"}, "estimator": {"kind": "mean"},
                     "n": 2, "mc": {"trials": 2000}}, ["0.3"], 0.3),
        ("bounds", {"distribution": {"family": "exponential", "rate": 2.0}, "n": 3}, ["0.3"], 0.3),
        ("bounds", {"distribution": {"family": "gaussian"}, "n": 2, "mc": {"trials": 2000}}, ["3/8"], 0.375),
        # Rational atoms hold it as an exact 'p/q' string.
        ("quality", {"distribution": {"family": "atoms", "points": [["0", "1/3"], ["1/2", "2/3"]]},
                     "estimator": {"kind": "mean"}, "n": 2}, ["3/4", "0.75"], "3/4"),
        ("lemma-check", {"distribution": {"family": "atoms", "points": [["0", "1/3"], ["5/2", "2/3"]]},
                         "k": 3}, ["3/4", "0.75"], "3/4"),
        # Float atoms are read as decimals, and a float delta next to them too.
        ("bounds", {"distribution": {"family": "atoms", "points": [[0.0, 0.25], [1.0, 0.75]]}},
         ["0.75"], 0.75),
        ("lemma-check", {"distribution": {"family": "atoms", "points": [[0.0, 0.25], [1.5, 0.75]]},
                         "k": 3}, ["0.75", "3/4"], 0.75),
    ],
)
def test_delta_flag_matches_the_config_field(tmp_path, command, doc, flags, document_delta):
    expected = _report(tmp_path, "doc", [command], {**doc, "delta": document_delta})
    for i, text in enumerate(flags):
        assert _report(tmp_path, f"flag{i}", [command, "--delta", text], doc) == expected


GAUSSIAN_MEAN = {"distribution": {"family": "gaussian"}, "estimator": {"kind": "mean"}, "delta": 0.5}


@pytest.mark.parametrize(
    "doc, path, name",
    [
        ({**GAUSSIAN_MEAN, "distribution": {"family": "gaussian", "mean": math.inf}}, "distribution.mean", "mean"),
        ({**GAUSSIAN_MEAN, "distribution": {"family": "gaussian", "sigma": math.inf}}, "distribution.sigma", "sigma"),
        ({**GAUSSIAN_MEAN, "distribution": {"family": "uniform", "hi": math.inf}}, "distribution.hi", "hi"),
        ({**GAUSSIAN_MEAN, "distribution": {"family": "exponential", "rate": math.inf}}, "distribution.rate", "rate"),
        ({**GAUSSIAN_MEAN, "distribution": {"family": "piecewise", "knots": [[0, 1], [1, math.nan]]}},
         "distribution.knots", "knots"),
        ({**GAUSSIAN_MEAN, "distribution": {"family": "atoms", "points": [[0, 0.5], [math.inf, 0.5]]},
          "estimator": {"kind": "constant"}}, "distribution.points[1]", "points[1]"),
        ({**GAUSSIAN_MEAN, "theta_grid": [0, math.inf]}, "theta_grid[1]", "theta_grid[1]"),
        ({**GAUSSIAN_MEAN, "theta_grid": [0, math.nan]}, "theta_grid[1]", "theta_grid[1]"),
        ({**GAUSSIAN_MEAN, "estimator": {"kind": "constant", "value": math.nan}}, "estimator.value", "value"),
        ({**GAUSSIAN_MEAN, "delta": math.nan}, "delta", "delta"),
        ({**GAUSSIAN_MEAN, "mc": {"ci_level": math.inf}}, "mc.ci_level", "ci_level"),
        # Numbers too large for a float overflow where they are used.
        ({**GAUSSIAN_MEAN, "distribution": {"family": "gaussian", "mean": 10**400}}, "distribution.mean", "mean"),
        ({**GAUSSIAN_MEAN, "theta_grid": [0, 10**400]}, "theta_grid[1]", "theta_grid[1]"),
        ({**GAUSSIAN_MEAN, "theta_grid": ["0", "1" + "0" * 400]}, "theta_grid[1]", "theta_grid[1]"),
        ({**GAUSSIAN_MEAN, "distribution": {"family": "piecewise", "knots": [[0, 1], [10**400, 0]]}},
         "distribution.knots", "knots"),
    ],
)
def test_non_finite_numbers_are_field_errors(tmp_path, capsys, doc, path, name):
    assert main(["quality", "--config", write(tmp_path, "c.json", json.dumps(doc))]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error at {path}: {name} must be finite"]


def test_non_finite_circle_knots_are_field_errors(tmp_path, capsys):
    dens = write(tmp_path, "dens.json", json.dumps({"knots": [[0, 1], [0.5, math.inf]]}))
    assert main(["circle-avg", "--density", dens, "--trials", "1000"]) == 2
    assert capsys.readouterr().err.splitlines() == ["config error at density.knots: knots must be finite"]


@pytest.mark.parametrize("command", ["circle-avg", "tree-demo"])
def test_closed_interval_is_refused_where_nothing_counts_it(tmp_path, capsys, command):
    doc = {"command": command, "closed_interval": True, "anchor_grid": 8, "mc": {"trials": 1000}}
    assert main([command, "--config", write(tmp_path, "c.json", json.dumps(doc))]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error at closed_interval: {command} has no closed windows; closed_interval must be false"
    ]
    assert not parse_config(json.dumps({**doc, "closed_interval": False})).closed_interval


def test_command_table_defaults_are_part_of_the_config():
    circle = serialize_config(parse_config('{"command": "circle-avg"}'))
    assert (circle["delta"], circle["estimator"]) == (0.1, {"kind": "biased_mean", "bias": 0.1})
    assert circle["density"] == {"knots": [[0.0, 1.0], [1.0, 1.0]]}
    lemma = {"command": "lemma-check", "distribution": {"family": "atoms", "points": [["0", "1"]]}, "delta": "1/2"}
    assert serialize_config(parse_config(json.dumps(lemma)))["estimator"] == {"kind": "discrete_mle"}
    # A field the document gives wins over the table's default.
    assert parse_config('{"command": "circle-avg", "delta": 0.25}').delta == 0.25
    with pytest.raises(ConfigError) as exc:
        parse_config('{"command": "nope"}')
    assert exc.value.errors[0] == ("command", f"unknown command 'nope'; expected one of {tuple(config.COMMANDS)}")
    assert tuple(config.COMMANDS)[0] == "quality"


@pytest.mark.parametrize("name", list(config.COMMANDS))
def test_each_subcommand_takes_the_flags_its_table_entry_names(name):
    command = config.COMMANDS[name]
    parser = cli._build_parser([name])
    sub = next(a for a in parser._actions if a.dest == "command").choices[name]
    dests = {a.dest for a in sub._actions} - {"help"}
    common = {"config", "seed", "trials", "out", "format"}
    assert dests == common | set(command.flags) | ({"closed_interval"} if command.closed_interval else set())


def test_parser_fills_only_the_invoked_subcommand():
    # A known command gets only its own subparser; -h, no command or an unknown one get all six, empty.
    cases = [
        (["bounds", "--n", "2"], "bounds"),
        (["circle-avg"], "circle-avg"),
        (["-h"], None),
        ([], None),
        (["nope"], None),
    ]
    for argv, invoked in cases:
        choices = next(a for a in cli._build_parser(argv)._actions if a.dest == "command").choices
        assert list(choices) == ([invoked] if invoked else list(config.COMMANDS))
        filled = {name for name, sub in choices.items() if {a.dest for a in sub._actions} != {"help"}}
        assert filled == ({invoked} if invoked else set())


def test_top_level_help_lists_every_subcommand_with_its_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name, command in config.COMMANDS.items():
        assert name in out and command.help in out


@pytest.mark.parametrize("name", list(config.COMMANDS))
def test_subcommand_help_shows_its_flags(name, capsys):
    with pytest.raises(SystemExit) as exc:
        main([name, "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    command = config.COMMANDS[name]
    own = [f"--{field.replace('_', '-')}" for field in command.flags]
    for flag in ["--config", "--seed", "--trials", "--out", "--format", *own]:
        assert flag in out
    assert ("--closed-interval" in out) == command.closed_interval


@pytest.mark.parametrize("argv", [["nope"], ["nope", "--config", "x.json"], []])
def test_unknown_or_missing_subcommand_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: shiftq" in capsys.readouterr().err
