import csv
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from shiftq import (
    ConfigError,
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
from shiftq.config import ESTIMATORS, EstimatorSpec, build_estimator
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
    assert any("0.9" in msg for _, msg in exc.value.errors)


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


def test_rational_float_mixing_is_rejected():
    doc = """
    {
      "command": "lemma-check",
      "distribution": {"family": "atoms", "points": [[0.5, 0.5], ["3/2", 0.5]]},
      "delta": "1/4"
    }
    """
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert any("mixed" in msg for _, msg in exc.value.errors)


def test_float_shift_grid_next_to_rational_atoms_is_rejected(tmp_path):
    doc = {
        "distribution": {"family": "atoms", "points": [["0", "1/2"], ["1", "1/2"]]},
        "estimator": {"kind": "discrete_mle"},
        "delta": "1/4",
        "theta_grid": [0.1, 0.2],
    }
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert [path for path, _ in exc.value.errors] == ["theta_grid"]
    assert main(["quality", "--config", write(tmp_path, "grid.json", json.dumps(doc))]) == 2


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
    average = sum(exact_quality_discrete(rule, d, theta, delta) for theta in shifts) / len(shifts)
    grown = len({s + z for s in shifts for z in d.locations})
    bound = window_bound_one_sample(d, delta).value * Fraction(grown, len(shifts))
    assert (report["average_quality"], report["bound"]) == (number_repr(average), number_repr(bound))
    assert report["holds"] is True


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
    # 4^10 ordered tuples exceed the cap of 10^6; the mean on rational atoms
    # walks the 286 multisets instead. Float atoms keep the ordered walk.
    doc = {
        "distribution": {"family": "atoms", "points": [[z, "1/4"] for z in ("0", "1", "3", "7")]},
        "estimator": {"kind": "mean"},
        "delta": "1/2",
        "n": 10,
        "theta_grid": ["0"],
    }
    assert main(["quality", "--config", write(tmp_path, "rational.json", json.dumps(doc))]) == 0
    capsys.readouterr()
    doc["distribution"]["points"] = [[z, 0.25] for z in (0.0, 1.0, 3.0, 7.0)]
    doc["delta"], doc["theta_grid"] = 0.5, [0.0]
    assert main(["quality", "--config", write(tmp_path, "float.json", json.dumps(doc))]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("enumeration limit: 4^10 sample tuples")


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
    doc = {
        "distribution": {"family": "gaussian", "mean": 0.0, "sigma": 1.0},
        "estimator": {"kind": "window_mle"},
        "delta": 0.5,
        "n": 4,
        "theta_grid": [0.0],
        "mc": {"trials": 1000, "seed": 3},
    }
    # The one-sample window bound runs the window rule's search, so it fails as loudly.
    expo = {"distribution": {"family": "exponential", "rate": 1.5}, "delta": 0.2, "n": 5}
    cases = (("quality", "Gaussian", doc), ("bounds", "Gaussian", doc), ("bounds", "Exponential", expo))
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
    monkeypatch.setattr(config, "mean_estimator", lambda d, n: liar)
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


def test_cli_import_and_parse_leave_scipy_special_unloaded():
    code = (
        "import sys\n"
        "import shiftq.cli\n"
        "from shiftq.config import parse_config\n"
        f"parse_config({MINIMAL_QUALITY!r}, default_command='quality')\n"
        "assert 'scipy.special' not in sys.modules, 'scipy.special was imported'\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    subprocess.run([sys.executable, "-c", code], check=True, env=dict(os.environ, PYTHONPATH=src))


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


def _report(tmp_path, name, argv, doc):
    cfg = write(tmp_path, f"{name}.json", json.dumps(doc))
    out = tmp_path / f"{name}.out"
    assert main(argv + ["--config", cfg, "--out", str(out), "--format", "csv"]) == 0
    return out.read_bytes()


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
        # Float atoms hold it as a float; the flag used to turn it rational and exit 2.
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
