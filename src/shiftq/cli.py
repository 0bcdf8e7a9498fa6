"""Command line experiment runner.

Subcommands: quality | bounds | lemma-check | tree-demo | circle-avg |
paper-suite. Each takes a JSON config (see config module) plus flag
overrides, prints a human-readable summary to stdout, and optionally writes
a machine-readable report (--out, --format csv|json). Flags are merged into
the config document and validated with it. Identical configs, seeds
included, produce byte-identical report files.

Exit status: 0 on success, 2 on config or validation problems, 1 on runtime
failures (enumeration caps, a solver that does not converge, a false
invariance claim, failed verdicts).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import group_tree
from .compact_circle import averaging_check, biased_mean_circle_estimator, uniform_circle_density
from .config import ConfigError, EstimatorSpec, ExperimentConfig, build_estimator, parse_config
from .distributions import Exponential, FiniteAtoms, Gaussian
from .estimators import (
    discrete_mle_estimator,
    mean_estimator,
    min_shift_estimator,
    window_mle_estimator,
)
from .quality import MCConfig, quality_inf, quality_report_dict, quality_report_rows
from .util import ConvergenceError, EnumerationLimitError, InvarianceError, number_repr

__all__ = ["main"]

_GAUSS_HALF_WIDTH_ONE = 0.6826894921370859  # mass of the unit window, standard normal


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


def _write_csv(path, fieldnames, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    _write_text(path, buf.getvalue())


def _write_json(path, doc):
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _emit(args, cfg, doc, fieldnames, rows):
    path = args.out or cfg.output.path
    if path is None:
        return
    fmt = args.format or cfg.output.format
    if fmt == "csv":
        _write_csv(path, fieldnames, rows)
    else:
        _write_json(path, doc)
    print(f"wrote {path}")


def _merged_config(args, command: str) -> ExperimentConfig:
    """The config file, or an empty one, with the subcommand and its flags merged in."""
    text = "{}"
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    flags = vars(args)
    overrides = {k: flags[k] for k in ("delta", "n", "radius", "anchor_grid") if flags.get(k) is not None}
    overrides["command"] = command
    overrides["mc"] = {k: flags[k] for k in ("seed", "trials") if flags[k] is not None}
    if flags.get("closed_interval"):
        overrides["closed_interval"] = True
    if flags.get("density"):
        with open(args.density, encoding="utf-8") as fh:
            overrides["density"] = json.load(fh)
    return parse_config(text, overrides=overrides)


def _run_quality(args) -> int:
    cfg = _merged_config(args, "quality")
    e = build_estimator(cfg.estimator, cfg)
    grid = cfg.theta_grid
    if grid is None:
        from .quality import default_theta_grid

        grid = default_theta_grid(cfg.delta, cfg.n)
    report = quality_inf(
        e, cfg.distribution, cfg.delta, grid, cfg.mc, n=cfg.n, closed_interval=cfg.closed_interval
    )

    print(f"estimator: {e.label}")
    print(f"delta={float(cfg.delta):g}  n={cfg.n}  trials={cfg.mc.trials}  seed={cfg.mc.seed}")
    print(f"{'theta':>12}  {'quality':>10}  {'ci':>9}  exact")
    for t in report.per_theta:
        print(f"{float(t.theta):>12.6g}  {float(t.q):>10.6f}  {t.ci_half_width:>9.6f}  {t.exact}")
    q, argmin = report.worst_case
    certainty = "infimum" if report.infimum_certified else "grid minimum (upper bound)"
    print(f"worst case: {float(q):.6f} at theta={float(argmin):g} ({certainty})")

    doc = quality_report_dict(report)
    doc["estimator"] = e.label
    doc["n"] = cfg.n
    rows = quality_report_rows(report)
    # Only the first row at the worst case is flagged, even when the grid repeats its shift.
    worst = next((i for i, row in enumerate(rows) if row[0] == argmin and row[1] == q), None)
    rows = [row + (i == worst,) for i, row in enumerate(rows)]
    _emit(args, cfg, doc, ["theta", "q", "ci_half_width", "exact", "is_worst_case"], rows)
    return 0


def _applicable_bounds(cfg) -> list:
    d, delta, n = cfg.distribution, cfg.delta, cfg.n
    if isinstance(d, FiniteAtoms):
        return bounds_mod._atom_bounds(d, delta, cfg.closed_interval)
    traits = d.traits()
    reports = [bounds_mod.window_bound_one_sample(d, delta, closed_interval=cfg.closed_interval)]
    if traits.monotone_on_halfline:
        reports.append(bounds_mod.packing_bound_halfline(d, n, delta))
    if traits.log_concave_strict and n > 1:
        reports.append(
            bounds_mod.window_bound_log_concave(
                d, n, delta, cfg.mc, closed_interval=cfg.closed_interval
            )
        )
    return reports


def _run_bounds(args) -> int:
    cfg = _merged_config(args, "bounds")
    reports = _applicable_bounds(cfg)
    print(f"delta={float(cfg.delta):g}  n={cfg.n}")
    print(f"{'kind':>8}  {'n':>3}  {'value':>12}  certified  method")
    for r in reports:
        print(
            f"{r.kind:>8}  {r.n:>3}  {float(r.value):>12.6f}  "
            f"{str(r.equality_certified):>9}  {r.method}"
        )

    doc = {"bounds": [bounds_mod.bound_report_dict(r) for r in reports]}
    fieldnames = ["kind", "n", "delta", "value", "method", "equality_certified", "witness", "ci_half_width"]
    rows = [
        (
            r.kind,
            r.n,
            r.delta,
            r.value,
            r.method,
            r.equality_certified,
            bounds_mod.bound_report_dict(r)["witness"],
            r.ci_half_width,
        )
        for r in reports
    ]
    _emit(args, cfg, doc, fieldnames, rows)
    return 0


def _run_lemma_check(args) -> int:
    cfg = _merged_config(args, "lemma-check")
    spec = cfg.estimator or EstimatorSpec(kind="discrete_mle")
    e = build_estimator(spec, dataclasses.replace(cfg, n=1))
    result = bounds_mod.sumset_average_bound(
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
    rows = [(cfg.k, result.average_quality, result.bound, result.holds)]
    _emit(args, cfg, doc, ["k", "average_quality", "bound", "holds"], rows)
    return 0 if result.holds else 1


def _rational_pair(q: Fraction) -> list[int]:
    f = Fraction(q)
    return [f.numerator, f.denominator]


def _run_tree_demo(args) -> int:
    cfg = _merged_config(args, "tree-demo")
    radius = cfg.radius
    delta = Fraction(1, 2)
    mu = group_tree.standard_tree_distribution()
    trunc = group_tree.truncation_estimator()

    rows = [
        (theta, group_tree.exact_quality_tree(trunc, mu, theta, delta))
        for theta in group_tree.ball(radius)
    ]
    # The table is the full sweep quality_inf_ball would make: min keeps the
    # first minimiser in ball order, as the sweep does.
    arg, global_q = min(rows, key=lambda row: row[1])

    translate_rows = []
    for word in group_tree.ball(4):
        for make, kind in (
            (group_tree.left_translate_estimator, "left"),
            (group_tree.right_translate_estimator, "right"),
        ):
            q, _ = group_tree.quality_inf_ball(make(word), mu, delta, radius)
            translate_rows.append((kind, word, q))
    translate_max = max(q for _, _, q in translate_rows)
    comparison_holds = global_q == Fraction(2, 3) and translate_max <= Fraction(1, 3)

    print(f"truncation estimator, radius-{radius} ball ({len(rows)} shifts):")
    for theta, q in rows[:7]:
        label = theta if theta else "(identity)"
        print(f"  theta={label:<10}  q={number_repr(q)}")
    if len(rows) > 7:
        print(f"  ... {len(rows) - 7} more shifts, every remaining q = {number_repr(rows[-1][1])}")
    print(f"global quality: {number_repr(global_q)} (at theta={arg or '(identity)'})")
    print(
        f"best translate quality over {len(translate_rows)} estimators (|w| <= 4): "
        f"{number_repr(translate_max)}"
    )
    print(f"2/3 vs 1/3 comparison holds: {comparison_holds}")

    doc = {
        "radius": radius,
        "delta": _rational_pair(delta),
        "rows": [{"theta": theta, "q": _rational_pair(q)} for theta, q in rows],
        "truncation_quality": _rational_pair(global_q),
        "translate_max_quality": _rational_pair(translate_max),
        "translate_count": len(translate_rows),
        "comparison_holds": comparison_holds,
    }
    _emit(args, cfg, doc, ["theta", "q"], rows)
    return 0 if comparison_holds else 1


def _run_circle_avg(args) -> int:
    cfg = _merged_config(args, "circle-avg")
    density = cfg.density or uniform_circle_density()
    delta = float(cfg.delta) if cfg.delta is not None else 0.1
    e = build_estimator(cfg.estimator or EstimatorSpec(kind="biased_mean", value=0.1), cfg)

    report = averaging_check(e, density, delta, cfg.anchor_grid, cfg.mc)

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

    doc = {
        "estimator": e.label,
        "delta": delta,
        "n": cfg.n,
        "anchor_grid": cfg.anchor_grid,
        "q_e": report.q_e,
        "q_e_ci": report.q_e_ci,
        "theta_argmin": report.theta_argmin,
        "anchor_qualities": [
            {"anchor": a, "q": q, "ci_half_width": ci} for a, q, ci in report.anchor_qualities
        ],
        "best_anchor": report.best_anchor,
        "q_best": report.q_best,
        "q_best_ci": report.q_best_ci,
        "average_pinned_quality": report.average_pinned_quality,
        "holds": report.holds,
    }
    rows = list(report.anchor_qualities)
    _emit(args, cfg, doc, ["anchor", "q", "ci_half_width"], rows)
    return 0 if report.holds else 1


def _suite_scenarios(mc: MCConfig, closed_interval: bool):
    """Registered end-to-end checks; each yields a result dict."""
    import numpy as np

    from .quality import exact_quality_discrete, quality_at

    def within_ci(achieved, reference, ci):
        return abs(achieved - reference) <= 3.0 * ci

    # Window and mean estimators coincide on Gaussian data.
    d = Gaussian(0.0, 1.0)
    window = window_mle_estimator(d, 0.5)
    mean = mean_estimator(d)
    rng = np.random.default_rng(mc.seed)
    x = rng.normal(0.0, 1.0, size=(200, 4))
    gap = float(np.max(np.abs(window.evaluate_batch(x) - mean.evaluate_batch(x))))
    yield {
        "scenario": "gaussian-window-equals-mean",
        "achieved": gap,
        "reference": 0.0,
        "passed": gap < 1e-6,
        "note": "max |window - mean| over 200 random size-4 inputs",
    }

    # Quality of the optimal Gaussian estimator at n=4, delta=0.5.
    q, ci = quality_at(mean, d, 0.0, 0.5, mc, n=4)
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
        e = min_shift_estimator(0.25)
        reference = 1.0 - math.exp(-0.5 * n)
        report = quality_inf(e, expo, 0.25, (-5.0, 0.0, 3.0, 100.0), mc, n=n)
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
    window_bound = bounds_mod.window_bound_one_sample(atoms, delta, closed_interval=closed_interval)
    e1 = discrete_mle_estimator(atoms, delta, closed_interval=closed_interval)
    shifts = bounds_mod.coefficient_sumset(list(atoms.locations), 4)
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
    q2 = exact_quality_discrete(e2, atoms, Fraction(0), delta, n=2, closed_interval=closed_interval)
    yield {
        "scenario": "discrete-two-sample",
        "achieved": float(q2),
        "reference": float(window_bound.value),
        "passed": q2 == Fraction(21, 25) and q2 >= window_bound.value,
        "note": "exact two-sample quality 21/25 beats the one-sample bound",
    }

    # Averaged quality over the coefficient sumset respects the scaled bound.
    lemma = bounds_mod.sumset_average_bound(
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
    mu = group_tree.standard_tree_distribution()
    trunc = group_tree.truncation_estimator()
    tree_delta = Fraction(1, 2)
    q_id = group_tree.exact_quality_tree(trunc, mu, "", tree_delta)
    q_a = group_tree.exact_quality_tree(trunc, mu, "a", tree_delta)
    q_b = group_tree.exact_quality_tree(trunc, mu, "b", tree_delta)
    global_q, _ = group_tree.quality_inf_ball(trunc, mu, tree_delta, 6)
    translate_max = max(
        group_tree.quality_inf_ball(make(w), mu, tree_delta, 6)[0]
        for w in group_tree.ball(2)
        for make in (group_tree.left_translate_estimator, group_tree.right_translate_estimator)
    )
    passed = (
        q_id == 1
        and q_a == 1
        and q_b == Fraction(2, 3)
        and global_q == Fraction(2, 3)
        and translate_max <= Fraction(1, 3)
    )
    yield {
        "scenario": "tree-qualities",
        "achieved": float(global_q),
        "reference": float(Fraction(2, 3)),
        "passed": passed,
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
    cfg = _merged_config(args, "paper-suite")
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
    rows = [(r["scenario"], r["achieved"], r["reference"], r["passed"]) for r in results]
    _emit(args, cfg, doc, ["scenario", "achieved", "reference", "passed"], rows)
    return 0 if all_passed else 1


def _add_common(p, *, closed=True):
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--seed", type=int, help="override mc.seed")
    p.add_argument("--trials", type=int, help="override mc.trials")
    p.add_argument("--out", help="write the machine-readable report here")
    p.add_argument("--format", choices=("csv", "json"), help="report format (default json)")
    if closed:
        p.add_argument(
            "--closed-interval",
            action="store_true",
            dest="closed_interval",
            help="count exact threshold hits as successes",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftq",
        description="Worst-case threshold-quality experiments for shift estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quality", help="per-shift quality of an estimator")
    _add_common(p)
    p.add_argument("--delta", help="override delta (number or 'p/q')")
    p.add_argument("--n", type=int, help="override the sample count")
    p.set_defaults(run=_run_quality)

    p = sub.add_parser("bounds", help="applicable quality ceilings for a distribution")
    _add_common(p)
    p.add_argument("--delta", help="override delta (number or 'p/q')")
    p.add_argument("--n", type=int, help="override the sample count")
    p.set_defaults(run=_run_bounds)

    p = sub.add_parser("lemma-check", help="sumset averaging bound on an atomic law")
    _add_common(p)
    p.add_argument("--delta", help="override delta (number or 'p/q')")
    p.set_defaults(run=_run_lemma_check)

    p = sub.add_parser("tree-demo", help="exact qualities on the trivalent tree")
    _add_common(p, closed=False)
    p.add_argument("--radius", type=int, help="ball radius for the shift table (default 8)")
    p.set_defaults(run=_run_tree_demo)

    p = sub.add_parser("circle-avg", help="anchor-averaging check on the circle")
    _add_common(p, closed=False)
    p.add_argument("--density", help="JSON file with a piecewise-linear density table")
    p.add_argument("--delta", help="override delta")
    p.add_argument("--n", type=int, help="override the sample count")
    p.add_argument("--anchor-grid", type=int, dest="anchor_grid", help="number of anchors")
    p.set_defaults(run=_run_circle_avg)

    p = sub.add_parser("paper-suite", help="run every registered scenario")
    _add_common(p)
    p.set_defaults(run=_run_paper_suite)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
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
