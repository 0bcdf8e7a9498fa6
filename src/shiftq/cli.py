"""Command line experiment runner.

Subcommands: quality | bounds | lemma-check | tree-demo | circle-avg |
paper-suite, one entry each of config.COMMANDS, which names their flags.
Each takes a JSON config (see config module) plus flag overrides, prints a
human-readable summary to stdout, and optionally writes a machine-readable
report (--out, --format csv|json): the JSON document, or as CSV the named
columns of its rows. Flags are merged into the config document and
validated with it. Identical configs, seeds included, produce
byte-identical report files.

Exit status: 0 on success, 2 on config or validation problems, 1 on runtime
failures (enumeration caps, a solver that does not converge, a false
invariance claim, failed verdicts).

A cold start imports only this module, config, distributions and util:
each subcommand imports its engine when it runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import sys
from fractions import Fraction
from typing import NamedTuple

from .config import COMMANDS, ConfigError, ExperimentConfig, MCConfig, build_estimator, parse_config
from .distributions import Exponential, FiniteAtoms, Gaussian, uniform_circle_density
from .util import ConvergenceError, EnumerationLimitError, InvarianceError, np, number_doc, number_repr

__all__ = ["main"]

_GAUSS_HALF_WIDTH_ONE = 0.6826894921370859  # mass of the unit window, standard normal
# Tree distances are integers, so this delta stands for every delta in (0, 1).
_TREE_DELTA = Fraction(1, 2)

# How each field that a command takes as a flag (COMMANDS[...].flags) is read.
_FLAGS = {
    "delta": {"help": "override delta (number or 'p/q')"},
    "n": {"type": int, "help": "override the sample count"},
    "radius": {"type": int, "help": "ball radius for the shift table"},
    "anchor_grid": {"type": int, "help": "number of anchors"},
    "density": {"help": "JSON file with a piecewise-linear density table"},
}


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return number_repr(value)
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _emit(args, cfg, doc, rows, columns):
    """Write the report: doc as JSON, or the named columns of the row dicts as CSV."""
    path = args.out or cfg.output.path
    if path is None:
        return
    if (args.format or cfg.output.format) == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(row[c]) for c in columns] for row in rows)
        text = buf.getvalue()
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _merged_config(args) -> ExperimentConfig:
    """The config file, or an empty one, with the subcommand and its flags merged in."""
    text = "{}"
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    flags = vars(args)
    overrides = {k: flags[k] for k in COMMANDS[args.command].flags if flags[k] is not None}
    if "density" in overrides:
        with open(overrides["density"], encoding="utf-8") as fh:
            overrides["density"] = json.load(fh)
    overrides["command"] = args.command
    overrides["mc"] = {k: flags[k] for k in ("seed", "trials") if flags[k] is not None}
    if flags.get("closed_interval"):
        overrides["closed_interval"] = True
    return parse_config(text, overrides=overrides)


def __getattr__(name):
    """cli.quality_inf is quality's, imported on first access: perfbench/layers.py wraps it by this name."""
    if name == "quality_inf":
        from .quality import quality_inf

        return quality_inf
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _run_quality(args) -> int:
    from .quality import default_theta_grid, quality_inf

    cfg = _merged_config(args)
    e = build_estimator(cfg.estimator, cfg)
    grid = cfg.theta_grid
    if grid is None:
        grid = default_theta_grid(cfg.delta, cfg.n)
    report = quality_inf(e, cfg.distribution, cfg.delta, grid, cfg.mc, closed_interval=cfg.closed_interval)

    print(f"estimator: {e.label}")
    print(f"delta={float(cfg.delta):g}  n={cfg.n}  trials={cfg.mc.trials}  seed={cfg.mc.seed}")
    print(f"{'theta':>12}  {'quality':>10}  {'ci':>9}  exact")
    for t in report.per_theta:
        print(f"{float(t.theta):>12.6g}  {float(t.q):>10.6f}  {t.ci_half_width:>9.6f}  {t.exact}")
    q, argmin = report.worst_case
    certainty = "infimum" if report.infimum_certified else "grid minimum (upper bound)"
    print(f"worst case: {float(q):.6f} at theta={float(argmin):g} ({certainty})")

    # Exact values are written as 'p/q' strings.
    rows = [
        {"theta": number_doc(t.theta), "q": number_doc(t.q), "ci_half_width": t.ci_half_width, "exact": t.exact}
        for t in report.per_theta
    ]
    doc = {
        "delta": report.delta,
        "per_theta": rows,
        "worst_case": {"q": number_doc(q), "theta": number_doc(argmin)},
        "infimum_certified": report.infimum_certified,
        "estimator": e.label,
        "n": cfg.n,
    }
    # Only the first row at the worst case is flagged, even when the grid repeats its shift.
    worst = next((i for i, t in enumerate(report.per_theta) if t.theta == argmin and t.q == q), None)
    rows = [{**row, "is_worst_case": i == worst} for i, row in enumerate(rows)]
    _emit(args, cfg, doc, rows, ["theta", "q", "ci_half_width", "exact", "is_worst_case"])
    return 0


def _bound_row(r) -> dict:
    """One ceiling, a bounds.BoundReport, as a report row; exact values become 'p/q' strings."""
    witness = r.witness
    if isinstance(witness, tuple):
        witness = [[number_repr(z), number_repr(m)] for z, m in witness]
    elif witness is not None and not isinstance(witness, str):
        witness = number_repr(witness)
    return {
        "kind": r.kind,
        "n": r.n,
        "delta": number_repr(r.delta),
        "value": number_repr(r.value),
        "method": r.method,
        "equality_certified": r.equality_certified,
        "witness": witness,
        "ci_half_width": r.ci_half_width,
    }


def _run_bounds(args) -> int:
    from . import bounds

    cfg = _merged_config(args)
    reports = bounds.applicable_bounds(
        cfg.distribution, cfg.n, cfg.delta, cfg.mc, closed_interval=cfg.closed_interval
    )
    print(f"delta={float(cfg.delta):g}  n={cfg.n}")
    print(f"{'kind':>8}  {'n':>3}  {'value':>12}  certified  method")
    for r in reports:
        print(
            f"{r.kind:>8}  {r.n:>3}  {float(r.value):>12.6f}  "
            f"{str(r.equality_certified):>9}  {r.method}"
        )

    rows = [_bound_row(r) for r in reports]
    columns = ["kind", "n", "delta", "value", "method", "equality_certified", "witness", "ci_half_width"]
    _emit(args, cfg, {"bounds": rows}, rows, columns)
    return 0


def _run_lemma_check(args) -> int:
    from . import bounds

    cfg = _merged_config(args)
    e = build_estimator(cfg.estimator, cfg)
    result = bounds.sumset_average_bound(
        e, cfg.distribution, cfg.delta, cfg.k, closed_interval=cfg.closed_interval
    )

    print(f"estimator: {e.label}")
    print(f"k={cfg.k}  average quality = {float(result.average_quality):.6f}")
    print(f"scaled window bound = {float(result.bound):.6f}")
    print(f"holds: {result.holds}")

    doc = {
        "k": cfg.k,
        "estimator": e.label,
        "average_quality": number_repr(result.average_quality),
        "bound": number_repr(result.bound),
        "holds": result.holds,
    }
    _emit(args, cfg, doc, [doc], ["k", "average_quality", "bound", "holds"])
    return 0 if result.holds else 1


def _rational_pair(q: Fraction) -> list[int]:
    f = Fraction(q)
    return [f.numerator, f.denominator]


class _TreeComparison(NamedTuple):
    rows: list  # (shift, truncation quality) over the ball, in ball order
    argmin: str  # the first shift at the truncation's minimum
    truncation_quality: Fraction
    translate_max: Fraction
    translate_count: int
    holds: bool  # truncation reaches 2/3 and no translate exceeds 1/3


def _tree_comparison(radius: int, word_radius: int) -> _TreeComparison:
    """Truncation against every left and right translate by a word of length <= word_radius.

    Each rule is scored over the radius ball. The truncation table is the
    full sweep quality_inf_ball would make: min keeps the first minimiser in
    ball order, as the sweep does. The translates are scored by
    max_quality_inf_ball, which stops a rule's sweep once the rule cannot
    raise the largest minimum found before it; the maximum stays exact.
    """
    from . import group_tree

    mu = group_tree.standard_tree_distribution()
    trunc = group_tree.truncation_estimator()
    rows = [
        (theta, group_tree.exact_quality_tree(trunc, mu, theta, _TREE_DELTA))
        for theta in group_tree.ball(radius)
    ]
    argmin, global_q = min(rows, key=lambda row: row[1])
    translates = [
        make(word)
        for word in group_tree.ball(word_radius)
        for make in (group_tree.left_translate_estimator, group_tree.right_translate_estimator)
    ]
    translate_max = group_tree.max_quality_inf_ball(translates, mu, _TREE_DELTA, radius)
    holds = global_q == Fraction(2, 3) and translate_max <= Fraction(1, 3)
    return _TreeComparison(rows, argmin, global_q, translate_max, len(translates), holds)


def _run_tree_demo(args) -> int:
    cfg = _merged_config(args)
    tree = _tree_comparison(cfg.radius, 4)
    rows = tree.rows

    print(f"truncation estimator, radius-{cfg.radius} ball ({len(rows)} shifts):")
    for theta, q in rows[:7]:
        label = theta if theta else "(identity)"
        print(f"  theta={label:<10}  q={number_repr(q)}")
    rest = [q for _, q in rows[7:]]
    if rest and all(q == rest[0] for q in rest):
        print(f"  ... {len(rest)} more shifts, every remaining q = {number_repr(rest[0])}")
    elif rest:
        print(
            f"  ... {len(rest)} more shifts, remaining q from {number_repr(min(rest))} "
            f"to {number_repr(max(rest))}"
        )
    print(f"global quality: {number_repr(tree.truncation_quality)} (at theta={tree.argmin or '(identity)'})")
    print(
        f"best translate quality over {tree.translate_count} estimators (|w| <= 4): "
        f"{number_repr(tree.translate_max)}"
    )
    print(f"2/3 vs 1/3 comparison holds: {tree.holds}")

    doc = {
        "radius": cfg.radius,
        "delta": _rational_pair(_TREE_DELTA),
        "rows": [{"theta": theta, "q": _rational_pair(q)} for theta, q in rows],
        "truncation_quality": _rational_pair(tree.truncation_quality),
        "translate_max_quality": _rational_pair(tree.translate_max),
        "translate_count": tree.translate_count,
        "comparison_holds": tree.holds,
    }
    # The CSV keeps each quality as one 'p/q' cell.
    _emit(args, cfg, doc, [{"theta": theta, "q": q} for theta, q in rows], ["theta", "q"])
    return 0 if tree.holds else 1


def _run_circle_avg(args) -> int:
    from .compact_circle import averaging_check

    cfg = _merged_config(args)
    delta = float(cfg.delta)
    e = build_estimator(cfg.estimator, cfg)

    report = averaging_check(e, cfg.density, delta, cfg.anchor_grid, cfg.mc)

    print(f"estimator: {e.label}  delta={delta:g}  n={cfg.n}  anchors={cfg.anchor_grid}")
    print(
        f"worst case of the raw estimator: {report.q_e:.6f} "
        f"(+-{report.q_e_ci:.6f}) at theta={report.theta_argmin:g}"
    )
    print(
        f"best pinned copy: anchor={report.best_anchor:g} "
        f"quality={report.q_best:.6f} (+-{report.q_best_ci:.6f})"
    )
    print(f"average pinned quality: {report.average_pinned_quality:.6f}")
    print(f"averaging check holds: {report.holds}")

    rows = [{"anchor": a, "q": q, "ci_half_width": ci} for a, q, ci in report.anchor_qualities]
    doc = {
        "estimator": e.label,
        "delta": delta,
        "n": cfg.n,
        "anchor_grid": cfg.anchor_grid,
        "q_e": report.q_e,
        "q_e_ci": report.q_e_ci,
        "theta_argmin": report.theta_argmin,
        "anchor_qualities": rows,
        "best_anchor": report.best_anchor,
        "q_best": report.q_best,
        "q_best_ci": report.q_best_ci,
        "average_pinned_quality": report.average_pinned_quality,
        "holds": report.holds,
    }
    _emit(args, cfg, doc, rows, ["anchor", "q", "ci_half_width"])
    return 0 if report.holds else 1


def _suite_scenarios(mc: MCConfig, closed_interval: bool):
    """Registered end-to-end checks; each yields a result dict."""
    from . import bounds
    from .compact_circle import averaging_check, biased_mean_circle_estimator
    from .estimators import _window_center_batch, discrete_mle_estimator, mean_estimator, min_shift_estimator
    from .quality import exact_quality_discrete, quality_at, quality_inf

    def within_ci(achieved, reference, ci):
        return abs(achieved - reference) <= 3.0 * ci

    # Window and mean estimators coincide on Gaussian data. The Gaussian window
    # rule is the mean in closed form, so the window side is the solved centre.
    d = Gaussian(0.0, 1.0)
    mean = mean_estimator(d, 4)
    rng = np.random.default_rng(mc.seed)
    x = rng.normal(0.0, 1.0, size=(200, 4))
    window = x[:, 0] - _window_center_batch(d, 0.5, x - x[:, :1])
    gap = float(np.max(np.abs(window - mean.evaluate_batch(x))))
    yield {
        "scenario": "gaussian-window-equals-mean",
        "achieved": gap,
        "reference": 0.0,
        "passed": gap < 1e-6,
        "note": "max |window - mean| over 200 random size-4 inputs",
    }

    # Quality of the optimal Gaussian estimator at n=4, delta=0.5.
    q, ci = quality_at(mean, d, 0.0, 0.5, mc)
    yield {
        "scenario": "gaussian-quality-n4",
        "achieved": q,
        "reference": _GAUSS_HALF_WIDTH_ONE,
        "passed": within_ci(q, _GAUSS_HALF_WIDTH_ONE, ci),
        "note": "worst-case quality vs the unit-window normal mass",
    }

    # Min-shift on the exponential family matches its closed form.
    expo = Exponential(1.0)
    for n in (1, 2, 5):
        e = min_shift_estimator(0.25, n)
        reference = 1.0 - math.exp(-0.5 * n)
        report = quality_inf(e, expo, 0.25, (-5.0, 0.0, 3.0, 100.0), mc)
        q, _ = report.worst_case
        ci = max(t.ci_half_width for t in report.per_theta)
        yield {
            "scenario": f"exponential-min-shift-n{n}",
            "achieved": q,
            "reference": reference,
            "passed": within_ci(q, reference, ci),
            "note": "worst case over {-5, 0, 3, 100} vs 1 - exp(-2*delta*n)",
        }

    # The discrete one-sample rule achieves the window bound exactly.
    atoms = FiniteAtoms(
        atoms=(
            (Fraction(0), Fraction(1, 4)),
            (Fraction(1), Fraction(7, 20)),
            (Fraction(10), Fraction(2, 5)),
        )
    )
    delta = Fraction(3, 4)
    window_bound = bounds.window_bound_one_sample(atoms, delta, closed_interval=closed_interval)
    e1 = discrete_mle_estimator(atoms, delta, closed_interval=closed_interval)
    shifts = bounds.coefficient_sumset(list(atoms.locations), 4)
    qualities = [
        exact_quality_discrete(e1, atoms, theta, delta, closed_interval=closed_interval)
        for theta in shifts
    ]
    exact_match = all(q == window_bound.value for q in qualities)
    yield {
        "scenario": "discrete-window-equality",
        "achieved": float(min(qualities)),
        "reference": float(window_bound.value),
        "passed": exact_match,
        "note": f"exact equality with the window bound at {len(shifts)} shifts",
    }

    # Two samples with distinct pairwise atom distances do strictly better.
    e2 = discrete_mle_estimator(atoms, delta, 2, closed_interval=closed_interval)
    q2 = exact_quality_discrete(e2, atoms, Fraction(0), delta, closed_interval=closed_interval)
    yield {
        "scenario": "discrete-two-sample",
        "achieved": float(q2),
        "reference": float(window_bound.value),
        "passed": q2 == Fraction(21, 25) and q2 >= window_bound.value,
        "note": "exact two-sample quality 21/25 beats the one-sample bound",
    }

    # Averaged quality over the coefficient sumset respects the scaled bound.
    lemma = bounds.sumset_average_bound(
        e1, atoms, delta, 4, closed_interval=closed_interval
    )
    yield {
        "scenario": "sumset-average-bound",
        "achieved": float(lemma.average_quality),
        "reference": float(lemma.bound),
        "passed": lemma.holds,
        "note": "average quality over the sumset vs the scaled window bound",
    }

    # Tree qualities: truncation hits 2/3 globally, translates stay at 1/3.
    tree = _tree_comparison(6, 2)
    q = dict(tree.rows)
    yield {
        "scenario": "tree-qualities",
        "achieved": float(tree.truncation_quality),
        "reference": float(Fraction(2, 3)),
        "passed": tree.holds and q[""] == 1 and q["a"] == 1 and q["b"] == Fraction(2, 3),
        "note": "exact tree qualities and the 1/3 translate ceiling",
    }

    # Circle averaging on the uniform density: every pinned copy hits 2*delta.
    density = uniform_circle_density()
    e = biased_mean_circle_estimator(0.1, 2)
    circle_mc = dataclasses.replace(mc, trials=max(10_000, mc.trials // 4))
    report = averaging_check(e, density, 0.1, 8, circle_mc)
    pinned_ok = all(abs(q - 0.2) <= 3.0 * (ci + 1e-12) for _, q, ci in report.anchor_qualities)
    yield {
        "scenario": "circle-averaging-uniform",
        "achieved": report.q_best,
        "reference": 0.2,
        "passed": report.holds and pinned_ok,
        "note": "averaging check holds and every pinned quality is 2*delta",
    }


def _run_paper_suite(args) -> int:
    cfg = _merged_config(args)
    results = list(_suite_scenarios(cfg.mc, cfg.closed_interval))
    width = max(len(r["scenario"]) for r in results)
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        print(
            f"{status}  {r['scenario']:<{width}}  achieved={r['achieved']:.6f}  "
            f"reference={r['reference']:.6f}  ({r['note']})"
        )
    all_passed = all(r["passed"] for r in results)
    print(f"{'all scenarios passed' if all_passed else 'FAILURES above'} "
          f"({sum(r['passed'] for r in results)}/{len(results)})")

    doc = {"scenarios": results, "all_passed": all_passed}
    _emit(args, cfg, doc, results, ["scenario", "achieved", "reference", "passed"])
    return 0 if all_passed else 1


_RUNS = {
    "quality": _run_quality,
    "bounds": _run_bounds,
    "lemma-check": _run_lemma_check,
    "tree-demo": _run_tree_demo,
    "circle-avg": _run_circle_avg,
    "paper-suite": _run_paper_suite,
}


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for argv: only the invoked subcommand, with its arguments, when argv names one.

    The top level takes no option but -h, so the first token of argv that
    does not start with "-" names the subcommand. With no such token, or an
    unknown one, every subcommand is added with its help and no arguments,
    so `shiftq -h` lists all six and argparse names them in its error;
    `shiftq CMD -h` shows CMD's flags.
    """
    parser = argparse.ArgumentParser(
        prog="shiftq",
        description="Worst-case threshold-quality experiments for shift estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    invoked = next((a for a in argv if not a.startswith("-")), None)
    for name in [invoked] if invoked in COMMANDS else COMMANDS:
        command = COMMANDS[name]
        p = sub.add_parser(name, help=command.help)
        if name != invoked:
            continue
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int, help="override mc.seed")
        p.add_argument("--trials", type=int, help="override mc.trials")
        p.add_argument("--out", help="write the machine-readable report here")
        p.add_argument("--format", choices=("csv", "json"), help="report format")
        if command.closed_interval:
            p.add_argument(
                "--closed-interval",
                action="store_true",
                help="count exact threshold hits as successes",
            )
        for field in command.flags:
            p.add_argument(f"--{field.replace('_', '-')}", **_FLAGS[field])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    try:
        return _RUNS[args.command](args)
    except ConfigError as exc:
        for path, message in exc.errors:
            print(f"config error at {path}: {message}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except EnumerationLimitError as exc:
        print(f"enumeration limit: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return 1
    except InvarianceError as exc:
        print(f"invariance: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
