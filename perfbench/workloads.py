"""Seeded inputs for the two workloads, and the check of every report.

A workload is a list of operations. An operation is one subcommand
invocation, `shiftq.cli.main(argv)` with its report written to a file,
together with the check of that report against the oracles in oracles.py.
Inputs come from `random.Random(seed)`; the program sees only the generated
config files. Expected values are computed once, when the operation is built.

A family is the set of commands of one kind of input: `line-mc` (continuous
laws on the line, by Monte Carlo), `line-exact` (atomic laws in rationals, by
enumeration), `tree` (`tree-demo`) and `circle` (`circle-avg`). The `mc`
workload runs the Monte Carlo families, line-mc and circle, at full size;
the `exact` workload runs the exact ones, line-exact and tree. The benchmark
prints every end-to-end metric on every workload, so each workload also runs
the other two families at probe size, five times per pass: enough that
every subcommand and every traced layer does some work. Probes are timed
apart from the workload's own operations (`Op.own`): a subcommand metric of
the workload's own families, and `wall_s`, count only its own operations, so
a change to the exact engine leaves the `mc` workload's own figures alone,
and a change to the sampling kernels leaves those of `exact` alone.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles

# One MC check tolerance for every sampled figure: five 99% Wilson
# half-widths, about thirteen standard errors.
CI_SLACK = 5.0


class CheckError(AssertionError):
    """A report disagrees with its oracle."""


@dataclass
class Op:
    metric: str  # the end-to-end metric this invocation's time counts toward
    argv: list[str]
    out: str
    check: Callable[[str], None]
    own: bool = True  # False for a probe of another family


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _doc(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cell(text: str):
    return Fraction(text) if "/" in text else float(text)


def _is_exact_value(text: str, expected: Fraction) -> bool:
    """A cell passes when written as p/q and equal, or as the float of the exact value."""
    value = _cell(text)
    if isinstance(value, Fraction):
        return value == expected
    return value == float(expected)


def _near(value: float, expected: float, ci: float, what: str) -> None:
    _expect(ci > 0.0, f"{what}: Monte Carlo row without a confidence interval")
    _expect(
        abs(value - expected) <= CI_SLACK * ci,
        f"{what}: {value!r} is not within {CI_SLACK} x {ci:.3g} of {expected!r}",
    )


def _close(value: float, expected: float, tol: float, what: str) -> None:
    _expect(abs(value - expected) <= tol, f"{what}: {value!r} differs from {expected!r} by more than {tol:g}")


class _Writer:
    """Writes each config as JSON under the run directory and names report files."""

    def __init__(self, root: str):
        self.root = root
        self.count = 0

    def op(self, metric, command, doc, check, fmt="csv") -> Op:
        self.count += 1
        stem = os.path.join(self.root, f"{self.count:02d}-{command}")
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = f"{stem}.out.{fmt}"
        argv = [command, "--config", stem + ".json", "--out", out, "--format", fmt]
        return Op(metric, argv, out, check)


# --- line-mc: continuous laws, every figure by Monte Carlo -------------------

# Trials per config at full size; probes use PROBE_TRIALS everywhere.
MC_TRIALS = {"window": 60_000, "mean": 60_000, "min": 180_000, "mixture": 18_000, "piecewise": 150_000}
PROBE_TRIALS = 300


def _quality_check(oracle: Callable[[float], float], invariant: bool, thetas=None):
    def check(path):
        rows = _rows(path)
        _expect(len(rows) >= (len(thetas) if thetas else 41), f"{path}: {len(rows)} rows")
        if thetas:
            _expect({float(r["theta"]) for r in rows} >= set(thetas), f"{path}: shift grid differs")
        for r in rows:
            theta, q, ci = float(r["theta"]), float(r["q"]), float(r["ci_half_width"])
            _expect(r["exact"] == "false", f"{path}: MC row marked exact")
            _near(q, oracle(theta), ci, f"{path} q at theta={theta!r}")
        flagged = [r for r in rows if r["is_worst_case"] == "true"]
        _expect(len(flagged) >= 1, f"{path}: no worst-case row")
        if invariant:
            _expect(all(float(r["theta"]) == 0.0 for r in flagged), f"{path}: worst case not at shift 0")
        else:
            lowest = min(float(r["q"]) for r in rows)
            _expect(all(float(r["q"]) == lowest for r in flagged), f"{path}: worst case is not the grid minimum")

    return check


def _bounds_check(expected: list[tuple]):
    """expected: (kind, n, value, tolerance or None for MC, certified) per row, in order."""

    def check(path):
        rows = _rows(path)
        _expect(len(rows) == len(expected), f"{path}: {len(rows)} bound rows, expected {len(expected)}")
        for r, (kind, n, value, tol, certified) in zip(rows, expected):
            what = f"{path} {kind} n={n}"
            _expect(r["kind"] == kind and int(r["n"]) == n, f"{what}: got {r['kind']} n={r['n']}")
            _expect(r["equality_certified"] == ("true" if certified else "false"), f"{what}: certification")
            if isinstance(value, Fraction):
                _expect(_is_exact_value(r["value"], value), f"{what}: {r['value']} != {value}")
            elif tol is None:
                _near(float(r["value"]), value, float(r["ci_half_width"]), what)
            else:
                _close(float(r["value"]), value, tol, what)

    return check


def _default_grid(delta: float, n: int, k: int = 10) -> list[float]:
    span = 10.0 * delta * n
    return [-span + 2.0 * span * i / 40 for i in range(41)] + [2.0 * delta * i for i in range(1, k + 1)]


def line_mc(rng: random.Random, w: _Writer, probe: bool) -> list[Op]:
    def trials(kind):
        return PROBE_TRIALS if probe else MC_TRIALS[kind]

    def mc(kind):
        return {"trials": trials(kind), "seed": rng.randrange(2**31), "parallelism": 1}

    def gaussian():
        return round(rng.uniform(-2.0, 2.0), 3), round(rng.uniform(0.7, 1.6), 3)

    def probe_grid():
        # A probe's cost is per shift, not per trial: two shifts, not the default grid.
        return [0.0, round(rng.uniform(-10.0, 10.0), 2)] if probe else None

    def gaussian_bounds(sigma, delta, n):
        rows = [("window", 1, oracles.gaussian_mean_quality(delta, 1, sigma), 1e-8, True)]
        if n > 1:
            rows.append(("window", n, oracles.gaussian_mean_quality(delta, n, sigma), None, True))
        return _bounds_check(rows)

    ops = []

    # The window estimator on Gaussian noise is the recentred mean.
    mu, sigma = gaussian()
    delta, n = round(rng.uniform(0.3, 0.6), 3), 4
    thetas = [0.0, round(rng.uniform(-50.0, 50.0), 2)]
    doc = {
        "distribution": {"family": "gaussian", "mean": mu, "sigma": sigma},
        "estimator": {"kind": "window_mle"},
        "delta": delta, "n": n, "theta_grid": thetas, "mc": mc("window"),
    }
    q = oracles.gaussian_mean_quality(delta, n, sigma)
    ops.append(w.op("quality", "quality", doc, _quality_check(lambda t, q=q: q, True, thetas)))
    doc = dict(doc, mc=mc("window"))
    ops.append(w.op("bounds", "bounds", doc, gaussian_bounds(sigma, delta, n)))

    # The mean over the default shift grid. A dyadic delta keeps the grid's
    # float points exact, so it has the same 48 shifts whatever the seed.
    mu, sigma = gaussian()
    delta, n, thetas = rng.randint(13, 32) / 64, 3, probe_grid()
    doc = {
        "distribution": {"family": "gaussian", "mean": mu, "sigma": sigma},
        "estimator": {"kind": "mean"}, "delta": delta, "n": n, "theta_grid": thetas, "mc": mc("mean"),
    }
    q_mean = oracles.gaussian_mean_quality(delta, n, sigma)
    ops.append(w.op("quality", "quality", doc, _quality_check(lambda t, q=q_mean: q, True, thetas)))
    doc = dict(doc, mc=mc("mean"))
    ops.append(w.op("bounds", "bounds", doc, gaussian_bounds(sigma, delta, n)))

    # min_shift on exponential noise.
    rate, delta, n = round(rng.uniform(0.5, 2.0), 3), round(rng.uniform(0.04, 0.12), 3), 5
    thetas = [0.0, round(rng.uniform(-20.0, 0.0), 2), round(rng.uniform(0.0, 20.0), 2)]
    doc = {
        "distribution": {"family": "exponential", "rate": rate},
        "estimator": {"kind": "min_shift"},
        "delta": delta, "n": n, "theta_grid": thetas, "mc": mc("min"),
    }
    q_min = oracles.exponential_min_quality(delta, n, rate)
    ops.append(w.op("quality", "quality", doc, _quality_check(lambda t, q=q_min: q, True, thetas)))
    ops.append(w.op("bounds", "bounds", doc, _bounds_check([
        ("window", 1, oracles.exponential_min_quality(delta, 1, rate), 1e-8, True),
        ("packing", n, q_min, 1e-12, True),
    ])))

    # A non-equivariant mixture of a constant guess and the mean, over the
    # default grid (41 shifts at n=2 with a dyadic delta).
    mu, sigma = gaussian()
    delta, n, thetas = rng.randint(13, 32) / 64, 2, probe_grid()
    weight = rng.choice((0.25, 0.375, 0.5))
    grid = thetas or _default_grid(delta, n)
    while True:  # keep the constant guess clear of every window edge
        c = round(rng.uniform(-5.0 * delta * n, 5.0 * delta * n), 4)
        if all(abs(abs(c - t) - delta) > 1e-6 for t in grid):
            break
    doc = {
        "distribution": {"family": "gaussian", "mean": mu, "sigma": sigma},
        "estimator": {"kind": "mixture", "parts": [
            {"weight": weight, "estimator": {"kind": "constant", "value": c}},
            {"weight": 1.0 - weight, "estimator": {"kind": "mean"}},
        ]},
        "delta": delta, "n": n, "theta_grid": thetas, "mc": mc("mixture"),
    }
    q_part = oracles.gaussian_mean_quality(delta, n, sigma)
    ops.append(w.op("quality", "quality", doc, _quality_check(
        lambda t, c=c, d=delta, wt=weight, p=q_part: wt * (abs(c - t) < d) + (1.0 - wt) * p, False, thetas)))
    ops.append(w.op("bounds", "bounds", dict(doc, mc=mc("mixture")), gaussian_bounds(sigma, delta, n)))

    # The window estimator on a unimodal piecewise-linear law, one sample.
    xs = [0.0]
    for _ in range(5):
        xs.append(round(xs[-1] + rng.uniform(0.3, 1.2), 3))
    peak = rng.randrange(1, len(xs) - 1)
    heights = sorted(rng.uniform(0.2, 1.0) for _ in range(len(xs) - 3))
    fs = [0.0] + heights[: peak - 1] + [1.5] + sorted(heights[peak - 1 :], reverse=True) + [0.0]
    law = oracles.LinearLaw(list(zip(xs, fs)))
    knots = [[x, round(f, 12)] for x, f in zip(law.x, law.f)]
    delta = round(rng.uniform(0.15, 0.5), 3)
    thetas = [0.0, round(rng.uniform(-30.0, 30.0), 2)]
    doc = {
        "distribution": {"family": "piecewise", "knots": knots},
        "estimator": {"kind": "window_mle"},
        "delta": delta, "n": 1, "theta_grid": thetas, "mc": mc("piecewise"),
    }
    best = oracles.LinearLaw(knots).best_window(delta)
    ops.append(w.op("quality", "quality", doc, _quality_check(lambda t, q=best: q, True, thetas)))
    ops.append(w.op("bounds", "bounds", doc, _bounds_check([("window", 1, best, 1e-8, True)])))
    return ops


# --- line-exact: atomic laws in p/q rationals, every figure by enumeration ---


def _sidon(rng: random.Random, count: int, limit: int) -> list[int]:
    """Random integers with pairwise distinct differences."""
    chosen, diffs = [], set()
    for v in rng.sample(range(limit), limit):
        new = {abs(v - u) for u in chosen}
        if len(new) == len(chosen) and not new & diffs:
            chosen.append(v)
            diffs |= new
            if len(chosen) == count:
                return sorted(chosen)
    raise ValueError("no Sidon set of that size below the limit")


DENOM = 7  # denominator of every atom location


def _masses(rng: random.Random, count: int) -> list[Fraction]:
    """A random split of 8 * count units into count positive parts, so denominators stay alike across seeds."""
    units = 8 * count
    cuts = sorted(rng.sample(range(1, units), count - 1))
    return [Fraction(b - a, units) for a, b in zip([0, *cuts], [*cuts, units])]


def _atom_law(rng: random.Random, count: int):
    """(atoms, delta): rational atoms with distinct pairwise distances and one heaviest window."""
    while True:
        locs = [Fraction(v, DENOM) for v in _sidon(rng, count, 12 * count * count)]
        atoms = list(zip(locs, _masses(rng, count)))
        if rng.random() < 0.5:  # a width that makes two atoms clash for the packing bound
            a, b = rng.sample(locs, 2)
            delta = abs(b - a) / (2 * rng.randint(1, 3))
        else:
            delta = Fraction(rng.randint(DENOM, 4 * DENOM * count), 2 * DENOM)
        if oracles.window_is_unique(atoms, delta):
            return atoms, delta


def _lemma_law(rng: random.Random, count: int, k: int):
    """(atoms, delta) whose coefficient sumset has all k^count sums distinct.

    Location i is (100^i + t_i) / DENOM with 0 <= t_i <= 3: base-100 digits
    that no carry can reach, so the sumset, and with it the work of
    lemma-check, has the same size for every seed.
    """
    if (k - 1) * (3 * count + 1) >= 100:
        raise ValueError("k and count too large for carry-free base-100 locations")
    locs = [Fraction(100**i + rng.randint(0, 3), DENOM) for i in range(count)]
    return list(zip(locs, _masses(rng, count))), Fraction(rng.randint(1, 60), 2 * DENOM)


def _atoms_doc(atoms) -> dict:
    return {"family": "atoms", "points": [[str(z), str(m)] for z, m in atoms]}


def _exact_quality_check(expected: Fraction, thetas: list[Fraction]):
    def check(path):
        rows = _rows(path)
        _expect(len(rows) == len(thetas), f"{path}: {len(rows)} rows for {len(thetas)} shifts")
        for r, theta in zip(rows, thetas):
            _expect(_is_exact_value(r["theta"], theta), f"{path}: theta {r['theta']} != {theta}")
            _expect(_is_exact_value(r["q"], expected), f"{path}: q {r['q']} != {expected} at {theta}")
            _expect(r["exact"] == "true" and _cell(r["ci_half_width"]) == 0, f"{path}: row not exact")
        flagged = [r for r in rows if r["is_worst_case"] == "true"]
        _expect(
            len(flagged) == 1 and _is_exact_value(flagged[0]["theta"], Fraction(0)), f"{path}: worst case not at 0"
        )

    return check


def _atom_bounds_check(atoms, delta):
    window = oracles.window_subset(atoms, delta)[0]
    packing = oracles.packing_subset_mass(atoms, delta)
    rows = [("window", 1, window, None, window == packing), ("packing", 1, packing, None, window == packing)]
    return _bounds_check(rows)


def _lemma_check(k: int, average: Fraction, bound: Fraction):
    def check(path):
        rows = _rows(path)
        _expect(len(rows) == 1, f"{path}: {len(rows)} rows")
        r = rows[0]
        _expect(int(r["k"]) == k, f"{path}: k={r['k']}")
        _expect(_is_exact_value(r["average_quality"], average), f"{path}: average {r['average_quality']} != {average}")
        _expect(_is_exact_value(r["bound"], bound), f"{path}: bound {r['bound']} != {bound}")
        _expect(r["holds"] == "true", f"{path}: lemma reported as failing")

    return check


def line_exact(rng: random.Random, w: _Writer, probe: bool) -> list[Op]:
    ops = []
    # discrete_mle at n >= 3 on ten atoms with distinct pairwise distances.
    atoms, delta = _atom_law(rng, 6 if probe else 10)
    n = 2 if probe else 3
    thetas = [Fraction(0)] + [Fraction(rng.randint(-999, 999), rng.choice((1, 2, 3, 7, 11))) for _ in range(2 if probe else 9)]
    doc = {
        "distribution": _atoms_doc(atoms), "estimator": {"kind": "discrete_mle"},
        "delta": str(delta), "n": n, "theta_grid": [str(t) for t in thetas],
    }
    expected = oracles.recovery_rule_quality(atoms, delta, n)
    ops.append(w.op("quality", "quality", doc, _exact_quality_check(expected, thetas)))
    ops.append(w.op("bounds", "bounds", doc, _atom_bounds_check(atoms, delta)))

    # The symmetric mean rule on a second law.
    atoms, delta = _atom_law(rng, 6 if probe else 8)
    n = 2 if probe else 4
    thetas = [Fraction(0)] + [Fraction(rng.randint(-999, 999), rng.choice((1, 3, 5))) for _ in range(2 if probe else 3)]
    doc = {
        "distribution": _atoms_doc(atoms), "estimator": {"kind": "mean"},
        "delta": str(delta), "n": n, "theta_grid": [str(t) for t in thetas],
    }
    expected = oracles.mean_rule_quality(atoms, delta, n)
    ops.append(w.op("quality", "quality", doc, _exact_quality_check(expected, thetas)))

    # The averaging lemma over the coefficient sumset, k >= 5 (k = 4 in the probe).
    k = 4 if probe else 5
    atoms, delta = _lemma_law(rng, 4 if probe else 5, k)
    doc = {"distribution": _atoms_doc(atoms), "delta": str(delta), "k": k}
    ops.append(w.op("lemma_check", "lemma-check", doc, _lemma_check(k, *oracles.lemma_values(atoms, delta, k))))
    ops.append(w.op("bounds", "bounds", doc, _atom_bounds_check(atoms, delta)))
    return ops


# --- tree and circle: the other two homogeneous spaces --------------------------

TREE_RADIUS = 8
ANCHOR_GRID = 64
CIRCLE_TRIALS = 20_000


def _tree_check(radius: int):
    tables = oracles.tree_tables(radius)

    def pair(q: Fraction) -> list[int]:
        return [q.numerator, q.denominator]

    def check(path):
        doc = _doc(path)
        got = {r["theta"]: r["q"] for r in doc["rows"]}
        _expect(len(got) == len(doc["rows"]) == len(tables["rows"]), f"{path}: ball size differs")
        for theta, q in tables["rows"].items():
            _expect(got.get(theta) == pair(q), f"{path}: q at {theta!r} is {got.get(theta)}, expected {q}")
        _expect(doc["truncation_quality"] == pair(tables["truncation"]), f"{path}: truncation quality")
        _expect(doc["translate_max_quality"] == pair(tables["translate_max"]), f"{path}: translate ceiling")
        _expect(doc["translate_count"] == tables["translate_count"], f"{path}: translate count")
        _expect(doc["comparison_holds"] is True, f"{path}: 2/3 vs 1/3 comparison reported as failing")

    return check


def _circle_check(anchor_grid: int, pinned: Callable[[float], float], raw: Callable[[float], float]):
    def check(path):
        doc = _doc(path)
        rows = doc["anchor_qualities"]
        _expect(len(rows) == anchor_grid, f"{path}: {len(rows)} anchors")
        for i, r in enumerate(rows):
            _expect(r["anchor"] == i / anchor_grid, f"{path}: anchor {r['anchor']}")
            _near(r["q"], pinned(r["anchor"]), r["ci_half_width"], f"{path} pinned q at {r['anchor']}")
        theta = doc["theta_argmin"]
        _expect(theta * anchor_grid == round(theta * anchor_grid), f"{path}: argmin {theta} is off the grid")
        _near(doc["q_e"], raw(theta), doc["q_e_ci"], f"{path} raw q at {theta}")
        best = max(rows, key=lambda r: r["q"])
        _expect(doc["q_best"] == best["q"] and doc["best_anchor"] == best["anchor"], f"{path}: best anchor")
        _close(doc["average_pinned_quality"], math.fsum(r["q"] for r in rows) / len(rows), 1e-12, f"{path} average")
        _expect(doc["holds"] is True, f"{path}: averaging check reported as failing")

    return check


def tree(rng: random.Random, w: _Writer, probe: bool) -> list[Op]:
    radius = 2 if probe else TREE_RADIUS
    return [w.op("tree_demo", "tree-demo", {"radius": radius}, _tree_check(radius), fmt="json")]


def circle(rng: random.Random, w: _Writer, probe: bool) -> list[Op]:
    ops = []
    xs = sorted(rng.sample(range(1, 100), 4))
    raw_knots = [(0.0, rng.uniform(0.3, 2.0))] + [(x / 100, rng.uniform(0.3, 2.0)) for x in xs]
    law = oracles.CircleLaw(raw_knots)
    knots = [[x, round(f, 12)] for x, f in zip(law.turn.x, law.turn.f)][: len(raw_knots)]
    law = oracles.CircleLaw(knots)
    delta = round(rng.uniform(0.05, 0.15), 3)
    anchors = 8 if probe else ANCHOR_GRID
    trials = 2_000 if probe else CIRCLE_TRIALS

    def doc(estimator):
        return {
            "density": {"knots": knots}, "estimator": estimator, "delta": delta, "n": 1,
            "anchor_grid": anchors, "mc": {"trials": trials, "seed": rng.randrange(2**31)},
        }

    bias = round(rng.uniform(-0.3, 0.3), 3)
    q_bias = law.shifted_window(bias, delta)
    ops.append(w.op("circle_avg", "circle-avg", doc({"kind": "biased_mean", "bias": bias}),
                    _circle_check(anchors, lambda a: q_bias, lambda t: q_bias), fmt="json"))
    strength = round(rng.uniform(0.2, 0.8), 3)
    ops.append(w.op("circle_avg", "circle-avg", doc({"kind": "warped", "strength": strength}), _circle_check(
        anchors,
        lambda a: law.shifted_window(strength * a * (1.0 - a), delta),
        lambda t: oracles.warped_quality(law, t, delta, strength),
    ), fmt="json"))
    return ops


FAMILIES = {"line-mc": line_mc, "line-exact": line_exact, "tree": tree, "circle": circle}

# The families each workload runs at full size; every other family runs as a probe.
WORKLOADS = {"mc": ("line-mc", "circle"), "exact": ("line-exact", "tree")}

# Each probe runs this many times per pass, the copies spread evenly between
# the workload's own operations: a probe figure then samples the machine at
# several moments of the pass, as the long operations do, instead of once.
PROBE_ROUNDS = 5


def build(workload: str, seed: int, root: str) -> list[Op]:
    """The workload's operations in pass order: its own families at full size, interleaved, with the probes."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {tuple(WORKLOADS)}")
    writer = _Writer(root)

    def family_ops(name: str, probe: bool) -> list[Op]:
        return FAMILIES[name](random.Random(f"{seed}:{name}"), writer, probe=probe)

    own = [family_ops(name, probe=False) for name in WORKLOADS[workload]]
    probes = [op for name in FAMILIES if name not in WORKLOADS[workload] for op in family_ops(name, probe=True)]
    for op in probes:
        op.own = False
    probes *= PROBE_ROUNDS
    slots = [((i + 0.5) / len(ops), op) for ops in own for i, op in enumerate(ops)]
    slots += [(j / len(probes), op) for j, op in enumerate(probes)]
    return [op for _, op in sorted(slots, key=lambda slot: slot[0])]


def self_test(root: str) -> None:
    """Check that an exact report passes in both written forms and fails on a wrong value."""
    check = _exact_quality_check(Fraction(1), [Fraction(0), Fraction(1, 3)])
    forms = {
        "fraction": "0/1,1/1,0/1,true,true\n1/3,1/1,0/1,true,false\n",
        "float": "0.0,1.0,0.0,true,true\n0.3333333333333333,1.0,0.0,true,false\n",
        "wrong": "0/1,1/1,0/1,true,true\n1/3,1/2,0/1,true,false\n",
    }
    for name, body in forms.items():
        path = os.path.join(root, f"self-test-{name}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("theta,q,ci_half_width,exact,is_worst_case\n" + body)
        try:
            check(path)
            passed = True
        except CheckError:
            passed = False
        finally:
            os.remove(path)
        if passed != (name != "wrong"):
            raise AssertionError(f"exact quality check {'rejects' if name != 'wrong' else 'accepts'} the {name} form")
