"""Experiment configuration: JSON parsing, validation, serialization.

Configs are plain JSON. Validation is total: every problem in the document is
collected as a (path, message) pair and reported at once through ConfigError,
so a config either parses into a fully validated ExperimentConfig or fails
before any computation starts. Numbers may be given as 'p/q' strings to opt
in to exact rational arithmetic where the computation supports it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .compact_circle import (
    CircleDensity,
    biased_mean_circle_estimator,
    constant_circle_estimator,
    warped_circle_estimator,
)
from .distributions import (
    Distribution,
    Exponential,
    FiniteAtoms,
    Gaussian,
    PiecewiseDensity,
    Uniform,
)
from .estimators import (
    constant_estimator,
    discrete_mle_estimator,
    mean_estimator,
    min_shift_estimator,
    mixture,
    window_mle_estimator,
)
from .quality import MCConfig
from .util import is_exact, number_doc, parse_number

__all__ = [
    "ConfigError",
    "ESTIMATORS",
    "EstimatorKind",
    "EstimatorSpec",
    "OutputSpec",
    "ExperimentConfig",
    "build_estimator",
    "parse_config",
    "serialize_config",
]

COMMANDS = ("quality", "bounds", "lemma-check", "tree-demo", "circle-avg", "paper-suite")
# Top-level keys of a config document. A key that no parser here names is an
# error at every level, so a misspelled key cannot silently keep its default.
_TOP_KEYS = (
    "command", "distribution", "density", "estimator", "delta", "n", "theta_grid", "k",
    "radius", "anchor_grid", "mc", "closed_interval", "output",
)
# Families whose JSON keys are their constructor's number fields, with defaults.
_NUMBER_FAMILIES = {
    "gaussian": (Gaussian, {"mean": 0.0, "sigma": 1.0}),
    "exponential": (Exponential, {"rate": 1.0}),
    "uniform": (Uniform, {"lo": 0.0, "hi": 1.0}),
}
# Keys each distribution family reads besides "family".
_FAMILY_KEYS = {
    **{family: tuple(params) for family, (_, params) in _NUMBER_FAMILIES.items()},
    "piecewise": ("knots",),
    "atoms": ("points",),
}
# Fields a command cannot run without; the other commands have defaults for all.
_REQUIRED = {
    "quality": ("distribution", "estimator", "delta"),
    "bounds": ("distribution", "delta"),
    "lemma-check": ("distribution", "delta"),
}


class ConfigError(ValueError):
    """Carries every field-level problem found in a config document."""

    def __init__(self, errors: list[tuple[str, str]]):
        self.errors = list(errors)
        super().__init__("; ".join(f"{path}: {message}" for path, message in self.errors))


@dataclass(frozen=True)
class EstimatorSpec:
    """Validated estimator description; construction happens at run time."""

    kind: str
    value: object = None
    parts: tuple[tuple[float, "EstimatorSpec"], ...] = ()


@dataclass(frozen=True)
class OutputSpec:
    format: str = "json"
    path: str | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    distribution: Distribution | None = None
    density: CircleDensity | None = None
    estimator: EstimatorSpec | None = None
    delta: object = None
    n: int = 1
    theta_grid: tuple | None = None
    k: int = 6
    radius: int = 8
    anchor_grid: int = 64
    mc: MCConfig = field(default_factory=MCConfig)
    closed_interval: bool = False
    output: OutputSpec = field(default_factory=OutputSpec)


@dataclass(frozen=True)
class EstimatorKind:
    """One estimator kind of a space.

    param is the kind's single JSON parameter key (None if it takes none),
    default its value when the key is absent, and cast the conversion of the
    parsed number. build(spec, cfg) makes the rule for a validated spec,
    reading the law, delta, n and closed_interval from cfg.
    """

    build: Callable
    param: str | None = None
    default: object = None
    cast: Callable = lambda value: value


# Every estimator kind, once per space. `circle-avg` runs on the circle and
# every other command on the line. The circle's bias and strength are cast to
# float because its labels format them with :g, which a Fraction refuses.
# `mixture` takes a `parts` list of weighted specs instead of a parameter.
ESTIMATORS: dict[str, dict[str, EstimatorKind]] = {
    "line": {
        "mean": EstimatorKind(lambda spec, cfg: mean_estimator(cfg.distribution)),
        "window_mle": EstimatorKind(
            lambda spec, cfg: window_mle_estimator(cfg.distribution, float(cfg.delta))
        ),
        "min_shift": EstimatorKind(lambda spec, cfg: min_shift_estimator(cfg.delta)),
        "discrete_mle": EstimatorKind(
            lambda spec, cfg: discrete_mle_estimator(
                cfg.distribution, cfg.delta, cfg.n, closed_interval=cfg.closed_interval
            )
        ),
        "constant": EstimatorKind(
            lambda spec, cfg: constant_estimator(spec.value, n=cfg.n), "value", 0.0
        ),
        "mixture": EstimatorKind(
            lambda spec, cfg: mixture([(build_estimator(part, cfg), w) for w, part in spec.parts])
        ),
    },
    "circle": {
        "constant": EstimatorKind(
            lambda spec, cfg: constant_circle_estimator(float(spec.value), n=cfg.n), "value", 0.0
        ),
        "biased_mean": EstimatorKind(
            lambda spec, cfg: biased_mean_circle_estimator(spec.value, cfg.n), "bias", 0.0, float
        ),
        "warped": EstimatorKind(
            lambda spec, cfg: warped_circle_estimator(spec.value, n=cfg.n), "strength", 0.25, float
        ),
    },
}


def _estimator_kinds(command: str) -> dict[str, EstimatorKind]:
    return ESTIMATORS["circle" if command == "circle-avg" else "line"]


def build_estimator(spec: EstimatorSpec, cfg: ExperimentConfig):
    """Make the rule a validated spec describes, in the space of cfg's command."""
    return _estimator_kinds(cfg.command)[spec.kind].build(spec, cfg)


class _Collector:
    def __init__(self):
        self.errors: list[tuple[str, str]] = []

    def add(self, path: str, message: str):
        self.errors.append((path, message))


def _check_keys(doc: dict, keys, path: str, errs: _Collector):
    for key in doc:
        if key not in keys:
            errs.add(f"{path}{key}", "unknown key")


def _get_number(doc: dict, key: str, path: str, errs: _Collector, *, required=False, default=None):
    if key not in doc:
        if required:
            errs.add(f"{path}{key}", "required field is missing")
        return default
    try:
        return parse_number(doc[key])
    except (ValueError, TypeError, ZeroDivisionError):
        errs.add(f"{path}{key}", f"expected a number or 'p/q' string, got {doc[key]!r}")
        return default


def _get_int(doc: dict, key: str, path: str, errs: _Collector, *, default=None, minimum=None):
    if key not in doc:
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        errs.add(f"{path}{key}", f"expected an integer, got {value!r}")
        return default
    if minimum is not None and value < minimum:
        errs.add(f"{path}{key}", f"must be at least {minimum}")
        return default
    return value


def _knot_pairs(knots: list, path: str, errs: _Collector) -> tuple | None:
    """The [position, value] pairs as floats; the first pair float() refuses is an error at path."""
    pairs = []
    for pair in knots:
        try:
            pairs.append((float(pair[0]), float(pair[1])))
        except (TypeError, ValueError):
            errs.add(path, f"expected numbers in [position, value] pairs, got {json.dumps(pair)}")
            return None
    return tuple(pairs)


def _build_distribution(spec, path: str, errs: _Collector) -> Distribution | None:
    if not isinstance(spec, dict):
        errs.add(path, "expected an object with a 'family' field")
        return None
    family = spec.get("family")
    if family not in _FAMILY_KEYS:
        errs.add(f"{path}.family", f"unknown family {family!r}")
        return None
    _check_keys(spec, ("family", *_FAMILY_KEYS[family]), f"{path}.", errs)
    try:
        if family in _NUMBER_FAMILIES:
            cls, params = _NUMBER_FAMILIES[family]
            return cls(**{
                key: float(_get_number(spec, key, f"{path}.", errs, default=default))
                for key, default in params.items()
            })
        if family == "piecewise":
            knots = spec.get("knots")
            if not isinstance(knots, list) or any(
                not isinstance(p, list) or len(p) != 2 for p in knots
            ):
                errs.add(f"{path}.knots", "expected a list of [position, value] pairs")
                return None
            pairs = _knot_pairs(knots, f"{path}.knots", errs)
            return None if pairs is None else PiecewiseDensity(knots=pairs)
        # atoms, the one family left
        points = spec.get("points")
        if not isinstance(points, list) or any(
            not isinstance(p, list) or len(p) != 2 for p in points
        ):
            errs.add(f"{path}.points", "expected a list of [location, mass] pairs")
            return None
        pairs = []
        for i, (z, m) in enumerate(points):
            try:
                pairs.append((parse_number(z), parse_number(m)))
            except (ValueError, TypeError, ZeroDivisionError):
                errs.add(f"{path}.points[{i}]", f"expected numbers or 'p/q' strings, got {[z, m]!r}")
        if len(pairs) != len(points):
            return None
        return FiniteAtoms(atoms=tuple(pairs))
    except ValueError as exc:
        errs.add(path, str(exc))
        return None


def _build_density(spec, path: str, errs: _Collector) -> CircleDensity | None:
    if not isinstance(spec, dict) or not isinstance(spec.get("knots"), list):
        errs.add(path, "expected an object with a 'knots' list of [position, value] pairs")
        return None
    _check_keys(spec, ("knots",), f"{path}.", errs)
    knots = spec["knots"]
    if any(not isinstance(p, list) or len(p) != 2 for p in knots):
        errs.add(f"{path}.knots", "expected [position, value] pairs")
        return None
    pairs = _knot_pairs(knots, f"{path}.knots", errs)
    if pairs is None:
        return None
    try:
        return CircleDensity(knots=pairs)
    except ValueError as exc:
        errs.add(path, str(exc))
        return None


def _build_estimator_spec(spec, path: str, errs: _Collector, kinds) -> EstimatorSpec | None:
    if not isinstance(spec, dict):
        errs.add(path, "expected an object with a 'kind' field")
        return None
    kind = spec.get("kind")
    if kind not in kinds:
        errs.add(f"{path}.kind", f"unknown estimator kind {kind!r}; expected one of {tuple(kinds)}")
        return None
    if kind == "mixture":
        _check_keys(spec, ("kind", "parts"), f"{path}.", errs)
        parts = spec.get("parts")
        if not isinstance(parts, list) or not parts:
            errs.add(f"{path}.parts", "mixture needs a nonempty 'parts' list")
            return None
        built = []
        for i, part in enumerate(parts):
            if not isinstance(part, dict):
                errs.add(f"{path}.parts[{i}]", "expected an object with 'weight' and 'estimator'")
                continue
            _check_keys(part, ("weight", "estimator"), f"{path}.parts[{i}].", errs)
            weight = _get_number(part, "weight", f"{path}.parts[{i}].", errs, required=True)
            inner = _build_estimator_spec(
                part.get("estimator"), f"{path}.parts[{i}].estimator", errs, kinds
            )
            if weight is not None and inner is not None:
                built.append((float(weight), inner))
        if len(built) != len(parts):
            return None
        total = sum(w for w, _ in built)
        if abs(total - 1.0) > 1e-12:
            errs.add(f"{path}.parts", f"mixture weights sum to {total:.12g}, expected 1")
            return None
        return EstimatorSpec(kind=kind, parts=tuple(built))
    entry = kinds[kind]
    _check_keys(spec, ("kind", entry.param), f"{path}.", errs)
    if entry.param is None:
        return EstimatorSpec(kind=kind)
    value = _get_number(spec, entry.param, f"{path}.", errs, default=entry.default)
    return EstimatorSpec(kind=kind, value=entry.cast(value))


def _check_rational_mixing(distribution, delta, theta_grid, errs: _Collector):
    """Atoms either go all-exact (locations, delta and shifts rational) or all-float."""
    from numbers import Rational

    if not isinstance(distribution, FiniteAtoms):
        return
    values = list(distribution.locations) + [delta]
    exact_flags = [isinstance(v, Rational) for v in values if v is not None]
    if any(exact_flags) and not all(exact_flags):
        errs.add(
            "delta",
            "rational and float values are mixed; give every atom location and delta "
            "as 'p/q' strings for exact arithmetic, or none of them",
        )
    elif all(exact_flags) and any(not isinstance(t, Rational) for t in theta_grid or ()):
        errs.add(
            "theta_grid",
            "float shifts next to rational atoms and delta; give the shifts as 'p/q' strings",
        )


def _flag_delta(text: str, distribution):
    """A --delta flag's text, read as the document would hold delta for this law.

    Next to atoms whose locations are all exact it is a Fraction, as a
    "delta": "0.3" string would be; next to any other law it is a float, as
    "delta": 0.3 would be. Text that is no number is left for the delta
    field's own check to report.
    """
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return text
    if isinstance(distribution, FiniteAtoms) and is_exact(*distribution.locations):
        return value
    try:
        return float(text)
    except ValueError:  # 'p/q' text
        return float(value)


def parse_config(
    text: str, default_command: str = "quality", overrides: dict | None = None
) -> ExperimentConfig:
    """Parse and validate a JSON config; raises ConfigError with every problem.

    overrides (the command line's flags) replace document fields before
    validation, so they are checked like the fields they replace; a nested
    dict, such as {"mc": {"seed": 3}}, replaces keys inside that object. A
    delta given there as text is read as the document would hold it for the
    law (see _flag_delta).
    """
    errs = _Collector()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([("/", f"invalid JSON: {exc}")]) from exc
    if not isinstance(doc, dict):
        raise ConfigError([("/", "top level must be a JSON object")])
    for key, value in (overrides or {}).items():
        if not isinstance(value, dict):
            doc[key] = value
        elif isinstance(doc.setdefault(key, {}), dict):
            doc[key].update(value)

    _check_keys(doc, _TOP_KEYS, "", errs)
    command = doc.get("command", default_command)
    if command not in COMMANDS:
        errs.add("command", f"unknown command {command!r}; expected one of {COMMANDS}")
        command = "quality"

    distribution = None
    if "distribution" in doc:
        distribution = _build_distribution(doc["distribution"], "distribution", errs)
    flag_delta = (overrides or {}).get("delta")
    if isinstance(flag_delta, str):
        doc["delta"] = _flag_delta(flag_delta, distribution)
    density = None
    if "density" in doc:
        density = _build_density(doc["density"], "density", errs)

    estimator = None
    if "estimator" in doc:
        estimator = _build_estimator_spec(
            doc["estimator"], "estimator", errs, _estimator_kinds(command)
        )

    delta = _get_number(doc, "delta", "", errs)
    if delta is not None and not float(delta) > 0:
        errs.add("delta", "delta must be positive")
    elif delta is not None and float(delta) == math.inf:
        errs.add("delta", "delta must be finite")

    n = _get_int(doc, "n", "", errs, default=1, minimum=1)
    k = _get_int(doc, "k", "", errs, default=6, minimum=1)
    radius = _get_int(doc, "radius", "", errs, default=8, minimum=2)
    anchor_grid = _get_int(doc, "anchor_grid", "", errs, default=64, minimum=8)

    theta_grid = None
    if doc.get("theta_grid") is not None:
        raw = doc["theta_grid"]
        if not isinstance(raw, list) or not raw:
            errs.add("theta_grid", "expected a nonempty list of shifts")
        else:
            grid = []
            for i, value in enumerate(raw):
                try:
                    grid.append(parse_number(value))
                except (ValueError, TypeError, ZeroDivisionError):
                    errs.add(f"theta_grid[{i}]", f"expected a number, got {value!r}")
            theta_grid = tuple(grid)

    mc_doc = doc.get("mc", {})
    if not isinstance(mc_doc, dict):
        errs.add("mc", "expected an object")
        mc_doc = {}
    # parallelism is accepted and ignored: older configs still carry it.
    _check_keys(mc_doc, ("trials", "seed", "ci_level", "parallelism"), "mc.", errs)
    trials = _get_int(mc_doc, "trials", "mc.", errs, default=100_000, minimum=100)
    seed = _get_int(mc_doc, "seed", "mc.", errs, default=42)
    ci_level = _get_number(mc_doc, "ci_level", "mc.", errs, default=0.99)
    try:
        mc = MCConfig(trials=trials, seed=seed, ci_level=float(ci_level))
    except ValueError as exc:
        errs.add("mc", str(exc))
        mc = MCConfig()

    closed = doc.get("closed_interval", False)
    if not isinstance(closed, bool):
        errs.add("closed_interval", f"expected true or false, got {closed!r}")
        closed = False

    out_doc = doc.get("output", {})
    if not isinstance(out_doc, dict):
        errs.add("output", "expected an object")
        out_doc = {}
    _check_keys(out_doc, ("format", "path"), "output.", errs)
    fmt = out_doc.get("format", "json")
    if fmt not in ("json", "csv"):
        errs.add("output.format", f"expected 'json' or 'csv', got {fmt!r}")
        fmt = "json"
    path = out_doc.get("path")
    if path is not None and not isinstance(path, str):
        errs.add("output.path", "expected a string path")
        path = None

    for key in _REQUIRED.get(command, ()):
        if key not in doc:
            errs.add(key, f"{command} needs this field")
    if command == "lemma-check" and not isinstance(distribution, (FiniteAtoms, type(None))):
        errs.add("distribution", "lemma-check needs the atoms family")
    _check_rational_mixing(distribution, delta, theta_grid, errs)

    if errs.errors:
        raise ConfigError(errs.errors)
    return ExperimentConfig(
        command=command,
        distribution=distribution,
        density=density,
        estimator=estimator,
        delta=delta,
        n=n,
        theta_grid=theta_grid,
        k=k,
        radius=radius,
        anchor_grid=anchor_grid,
        mc=mc,
        closed_interval=closed,
        output=OutputSpec(format=fmt, path=path),
    )


def _distribution_doc(d: Distribution) -> dict:
    for family, (cls, params) in _NUMBER_FAMILIES.items():
        if isinstance(d, cls):
            return {"family": family, **{key: getattr(d, key) for key in params}}
    if isinstance(d, PiecewiseDensity):
        return {"family": "piecewise", "knots": [[x, f] for x, f in d.knots]}
    if isinstance(d, FiniteAtoms):
        return {
            "family": "atoms",
            "points": [[number_doc(z), number_doc(m)] for z, m in d.atoms],
        }
    raise TypeError(f"cannot serialize distribution {d!r}")


def _estimator_doc(spec: EstimatorSpec, kinds: dict[str, EstimatorKind]) -> dict:
    doc = {"kind": spec.kind}
    if spec.kind == "mixture":
        doc["parts"] = [
            {"weight": w, "estimator": _estimator_doc(inner, kinds)} for w, inner in spec.parts
        ]
    elif kinds[spec.kind].param is not None:
        doc[kinds[spec.kind].param] = number_doc(spec.value)
    return doc


def serialize_config(cfg: ExperimentConfig) -> dict:
    """JSON-ready document; parse_config(json.dumps(result)) round-trips."""
    doc: dict = {"command": cfg.command}
    if cfg.distribution is not None:
        doc["distribution"] = _distribution_doc(cfg.distribution)
    if cfg.density is not None:
        doc["density"] = {"knots": [[x, f] for x, f in cfg.density.knots]}
    if cfg.estimator is not None:
        doc["estimator"] = _estimator_doc(cfg.estimator, _estimator_kinds(cfg.command))
    if cfg.delta is not None:
        doc["delta"] = number_doc(cfg.delta)
    doc["n"] = cfg.n
    if cfg.theta_grid is not None:
        doc["theta_grid"] = [number_doc(t) for t in cfg.theta_grid]
    doc["k"] = cfg.k
    doc["radius"] = cfg.radius
    doc["anchor_grid"] = cfg.anchor_grid
    doc["mc"] = {
        "trials": cfg.mc.trials,
        "seed": cfg.mc.seed,
        "ci_level": cfg.mc.ci_level,
    }
    doc["closed_interval"] = cfg.closed_interval
    doc["output"] = {"format": cfg.output.format, "path": cfg.output.path}
    return doc
