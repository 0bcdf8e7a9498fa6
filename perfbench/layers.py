"""Per-layer spans for the traced run, recorded from outside the package.

Each public function of a layer is wrapped where it is looked up: a module
that imported a name binds its own reference, so `cli.quality_inf` is
patched beside `quality.quality_inf`, and methods are patched on the class
(`Gaussian.ppf`). A span records its wall time, the time its traced children
cover, and a unit count (draws, rows, tuples, shifts). Spans live in memory
and are folded into the per-layer metrics after each traced pass.
"""

from __future__ import annotations

import re
import time
from collections import defaultdict

PER_LAYER = {
    # name: unit; every one is better lower
    "config.parse_s": "s",
    "cli.emit_s": "s",
    "import.numpy_s": "s",
    "import.scipy_special_s": "s",
    "import.shiftq_s": "s",
    "distributions.ppf_ns_per_draw.gaussian": "ns/draw",
    "distributions.ppf_ns_per_draw.exponential": "ns/draw",
    "distributions.ppf_ns_per_draw.piecewise": "ns/draw",
    "distributions.draws": "count",
    "estimators.batch_ns_per_row.mean": "ns/row",
    "estimators.batch_ns_per_row.window_mle": "ns/row",
    "estimators.batch_ns_per_row.min_shift": "ns/row",
    "estimators.batch_ns_per_row.mixture": "ns/row",
    "estimators.batch_rows": "count",
    "estimators.evaluate_calls": "count",
    "estimators.evaluate_us_per_call": "us/call",
    "util.threshold_ns_per_row": "ns/row",
    "util.within_threshold_calls": "count",
    "quality.quality_at_calls": "count",
    "quality.quality_at_self_s": "s",
    "quality.shifts_evaluated": "count",
    "quality.exact_calls": "count",
    "quality.exact_tuples": "count",
    "quality.exact_us_per_tuple": "us/tuple",
    "bounds.log_concave_s": "s",
    "bounds.window_one_sample_s": "s",
    "bounds.packing_s": "s",
    "bounds.sumset_size": "count",
    "bounds.coefficient_sumset_s": "s",
    "bounds.sumset_average_self_s": "s",
    "group_tree.shifts_evaluated": "count",
    "group_tree.us_per_shift": "us/shift",
    "group_tree.ball_s": "s",
    "compact_circle.quality_at_calls": "count",
    "compact_circle.quality_at_self_s": "s",
    "compact_circle.ppf_ns_per_draw": "ns/draw",
    "compact_circle.batch_ns_per_row.biased_mean": "ns/row",
    "compact_circle.batch_ns_per_row.warped": "ns/row",
    "compact_circle.batch_ns_per_row.pinned": "ns/row",
    "trace.overhead_s": "s",
}

# Estimator label prefix -> metric suffix; other labels are traced as "other".
_BATCH_KINDS = (("mean", "mean"), ("window(", "window_mle"), ("min_shift(", "min_shift"))
_CIRCLE_KINDS = (("biased_mean(", "biased_mean"), ("warped(", "warped"), ("pinned(", "pinned"))


def _kind(label: str, table) -> str:
    return next((kind for prefix, kind in table if label.startswith(prefix)), "other")


def _size(array) -> int:
    return int(getattr(array, "size", 1))


class Tracer:
    """Installs the wrappers, accumulates spans, and restores every original."""

    def __init__(self):
        self.reset()
        self._originals = []

    def reset(self):
        self.time = defaultdict(float)  # span name -> wall seconds, outermost calls only
        self.self_time = defaultdict(float)  # span name -> seconds not covered by traced children
        self.calls = defaultdict(int)
        self.units = defaultdict(int)  # span name -> work units of its outermost calls
        self._stack = []

    def _wrap(self, owner, attr, name, units=None, group=None):
        """Replace owner.attr by a span; name and units may depend on the call.

        A call made inside an open span of the same group (by default, the same
        name) adds no time or units of its own: a mixture's batch already
        covers its components' batches, and a pinned circle rule its base rule.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            span = name(args) if callable(name) else name
            key = group or span
            nested = any(frame[0] == key for frame in tracer._stack)
            frame = [key, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed
            tracer.calls[span] += 1
            if not nested:
                tracer.time[span] += elapsed
                tracer.self_time[span] += elapsed - frame[1]
                if units is not None:
                    tracer.units[span] += units(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._originals.append((owner, attr, original))

    def install(self):
        from shiftq import bounds, cli, compact_circle, distributions, estimators, group_tree, quality

        rows = lambda a, k, r: int(a[1].shape[0])  # noqa: E731  (self, x) -> rows of x
        draws = lambda a, k, r: _size(a[1])  # noqa: E731  (self, u) -> draws
        length = lambda a, k, r: len(r)  # noqa: E731

        self._wrap(cli, "parse_config", "config.parse")
        self._wrap(cli, "_emit", "cli.emit")
        for family in ("Gaussian", "Exponential", "PiecewiseDensity"):
            cls = getattr(distributions, family)
            self._wrap(cls, "ppf", f"distributions.ppf.{family.lower()}", draws)
        self._wrap(distributions.ShiftedDistribution, "sample_with_rng", "distributions.sample")
        self._wrap(
            estimators.Estimator, "evaluate_batch",
            lambda a: "estimators.batch." + _kind(a[0].label, _BATCH_KINDS), rows, group="estimators.batch",
        )
        self._wrap(
            estimators.RandomizedEstimator, "evaluate_batch", "estimators.batch.mixture", rows,
            group="estimators.batch",
        )
        self._wrap(estimators.Estimator, "evaluate", "estimators.evaluate")
        self._wrap(quality, "within_threshold_array", "util.threshold_array", lambda a, k, r: _size(r))
        for module in (quality, bounds):
            self._wrap(module, "within_threshold", "util.within_threshold")
            self._wrap(module, "quality_at", "quality.quality_at")
            self._wrap(module, "exact_quality_discrete", "quality.exact", _tuples)
        for module in (cli, quality):
            self._wrap(module, "quality_inf", "quality.quality_inf", lambda a, k, r: len(r.per_theta))
        self._wrap(bounds, "window_bound_log_concave", "bounds.log_concave")
        self._wrap(bounds, "window_bound_one_sample", "bounds.window_one_sample")
        self._wrap(bounds, "packing_bound_discrete", "bounds.packing")
        self._wrap(bounds, "packing_bound_halfline", "bounds.packing")
        self._wrap(bounds, "coefficient_sumset", "bounds.coefficient_sumset", length)
        self._wrap(bounds, "sumset_average_bound", "bounds.sumset_average")
        self._wrap(group_tree, "exact_quality_tree", "group_tree.exact_quality")
        self._wrap(group_tree, "ball", "group_tree.ball")
        self._wrap(compact_circle, "circle_quality_at", "compact_circle.quality_at")
        self._wrap(compact_circle.CircleDensity, "sample_with_rng", "compact_circle.sample")
        self._wrap(compact_circle.CircleDensity, "ppf", "compact_circle.ppf", draws)
        self._wrap(
            compact_circle.CircleEstimator, "evaluate_batch",
            lambda a: "compact_circle.batch." + _kind(a[0].label, _CIRCLE_KINDS), rows,
            group="compact_circle.batch",
        )

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """The per-layer figures of the spans recorded since the last reset."""
        t, calls, units = self.time, self.calls, self.units

        def per(span, scale):
            return scale * t[span] / units[span] if units[span] else 0.0

        out = {
            "config.parse_s": t["config.parse"],
            "cli.emit_s": t["cli.emit"],
            "distributions.draws": sum(units[f"distributions.ppf.{f}"] for f in ("gaussian", "exponential", "piecewisedensity")),
            "estimators.batch_rows": sum(units[f"estimators.batch.{k}"] for k in ("mean", "window_mle", "min_shift", "mixture")),
            "estimators.evaluate_calls": calls["estimators.evaluate"],
            "estimators.evaluate_us_per_call": 1e6 * t["estimators.evaluate"] / max(calls["estimators.evaluate"], 1),
            "util.threshold_ns_per_row": per("util.threshold_array", 1e9),
            "util.within_threshold_calls": calls["util.within_threshold"],
            "quality.quality_at_calls": calls["quality.quality_at"],
            "quality.quality_at_self_s": self.self_time["quality.quality_at"],
            "quality.shifts_evaluated": units["quality.quality_inf"],
            "quality.exact_calls": calls["quality.exact"],
            "quality.exact_tuples": units["quality.exact"],
            "quality.exact_us_per_tuple": per("quality.exact", 1e6),
            "bounds.log_concave_s": t["bounds.log_concave"],
            "bounds.window_one_sample_s": t["bounds.window_one_sample"],
            "bounds.packing_s": t["bounds.packing"],
            "bounds.sumset_size": units["bounds.coefficient_sumset"],
            "bounds.coefficient_sumset_s": t["bounds.coefficient_sumset"],
            "bounds.sumset_average_self_s": self.self_time["bounds.sumset_average"],
            "group_tree.shifts_evaluated": calls["group_tree.exact_quality"],
            "group_tree.us_per_shift": 1e6 * t["group_tree.exact_quality"] / max(calls["group_tree.exact_quality"], 1),
            "group_tree.ball_s": t["group_tree.ball"],
            "compact_circle.quality_at_calls": calls["compact_circle.quality_at"],
            "compact_circle.quality_at_self_s": self.self_time["compact_circle.quality_at"],
            "compact_circle.ppf_ns_per_draw": per("compact_circle.ppf", 1e9),
        }
        for family in ("gaussian", "exponential"):
            out[f"distributions.ppf_ns_per_draw.{family}"] = per(f"distributions.ppf.{family}", 1e9)
        out["distributions.ppf_ns_per_draw.piecewise"] = per("distributions.ppf.piecewisedensity", 1e9)
        for kind in ("mean", "window_mle", "min_shift", "mixture"):
            out[f"estimators.batch_ns_per_row.{kind}"] = per(f"estimators.batch.{kind}", 1e9)
        for kind in ("biased_mean", "warped", "pinned"):
            out[f"compact_circle.batch_ns_per_row.{kind}"] = per(f"compact_circle.batch.{kind}", 1e9)
        return out


def _tuples(args, kwargs, result) -> int:
    """Sample tuples one exact_quality_discrete call enumerates: r^n, summed over mixture parts."""
    e, d = args[0], args[1]
    n = kwargs.get("n") or e.n
    if hasattr(e, "components"):
        return len(e.components) * len(d.atoms) ** n
    return len(d.atoms) ** n


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)")


def import_times(stderr: str) -> dict[str, float]:
    """Seconds from `python -X importtime`: numpy and scipy.special cumulative, shiftq's own modules."""
    cumulative, own = {}, 0
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        self_us, cum_us, _, module = match.groups()
        cumulative.setdefault(module, int(cum_us))
        if module == "shiftq" or module.startswith("shiftq."):
            own += int(self_us)
    return {
        "import.numpy_s": cumulative.get("numpy", 0) / 1e6,
        "import.scipy_special_s": cumulative.get("scipy.special", 0) / 1e6,
        "import.shiftq_s": own / 1e6,
    }
