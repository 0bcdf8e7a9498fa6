"""Experiment configuration: JSON parsing, validation, serialization.

Configs are plain JSON. Validation is total: every problem in the document is
collected as a (path, message) pair and reported at once through ConfigError,
so a config either parses into a fully validated ExperimentConfig or fails
before any computation starts. Numbers may be given as 'p/q' strings to opt
in to exact rational arithmetic where the computation supports it.
"""

from __future__ import annotations

import importlib
import json
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .distributions import (
    CircleDensity,
    Distribution,
    Exponential,
    FiniteAtoms,
    Gaussian,
    PiecewiseDensity,
    Uniform,
    uniform_circle_density,
)
from .util import is_exact, number_doc, parse_number

__all__ = [
    "COMMANDS",
    "Command",
    "ConfigError",
    "ESTIMATORS",
    "EstimatorKind",
    "EstimatorSpec",
    "OutputSpec",
    "ExperimentConfig",
    "MCConfig",
    "build_estimator",
    "parse_config",
    "serialize_config",
]

# Top-level keys of a config document. A key that no parser here names is an
# error at every level, so a misspelled key cannot silently keep its default.
_TOP_KEYS = (
    "command", "distribution", "density", "estimator", "delta", "n", "theta_grid", "k",
    "radius", "anchor_grid", "mc", "closed_interval", "output",
)
# Families whose JSON keys are their constructor's number fields.
_NUMBER_FAMILIES = {
    "gaussian": (Gaussian, ("mean", "sigma")),
    "exponential": (Exponential, ("rate",)),
    "uniform": (Uniform, ("lo", "hi")),
}
# Keys each distribution family reads besides "family".
_FAMILY_KEYS = {
    **{family: keys for family, (_, keys) in _NUMBER_FAMILIES.items()},
    "piecewise": ("knots",),
    "atoms": ("points",),
}


class ConfigError(ValueError):
    """Carries every field-level problem found in a config document."""

    def __init__(self, errors: list[tuple[str, str]]):
        self.errors = list(errors)
        super().__init__("; ".join(f"{path}: {message}" for path, message in self.errors))


@dataclass(frozen=True)
class MCConfig:
    """Monte Carlo run parameters; equal configs give bit-identical results."""

    trials: int = 100_000
    seed: int = 42
    ci_level: float = 0.99

    def __post_init__(self):
        integral, real = (numbers.Integral, "an int"), (numbers.Real, "a real number")
        for name, (kind, what) in (("trials", integral), ("seed", integral), ("ci_level", real)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise TypeError(f"{name} must be {what}, got {value!r}")
        if self.trials < 100:
            raise ValueError("trials must be at least 100")
        if self.seed < 0:
            raise ValueError("seed must be at least 0")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must lie in (0, 1)")


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


def _support_start(d: Distribution):
    """Where d's support starts: its smallest atom or lower support end, 0 if unbounded below."""
    lo = d.locations[0] if isinstance(d, FiniteAtoms) else d.support()[0]
    return lo if math.isfinite(lo) else 0


def _engine(name: str):
    """The module shiftq.<name>, imported when a rule is built: parsing a config never needs it."""
    return importlib.import_module(f"{__package__}.{name}")


# Every estimator kind, once per space. The circle's bias and strength are cast to
# float because its labels format them with :g, which a Fraction refuses.
# `mixture` takes a `parts` list of weighted specs instead of a parameter.
ESTIMATORS: dict[str, dict[str, EstimatorKind]] = {
    "line": {
        "mean": EstimatorKind(
            lambda spec, cfg: _engine("estimators").mean_estimator(cfg.distribution, cfg.n)
        ),
        "window_mle": EstimatorKind(
            lambda spec, cfg: _engine("estimators").window_mle_estimator(
                cfg.distribution, float(cfg.delta), cfg.n
            )
        ),
        "min_shift": EstimatorKind(
            lambda spec, cfg: _engine("estimators").min_shift_estimator(
                cfg.delta, cfg.n, lo=_support_start(cfg.distribution)
            )
        ),
        "discrete_mle": EstimatorKind(
            lambda spec, cfg: _engine("estimators").discrete_mle_estimator(
                cfg.distribution, cfg.delta, cfg.n, closed_interval=cfg.closed_interval
            )
        ),
        "constant": EstimatorKind(
            lambda spec, cfg: _engine("estimators").constant_estimator(spec.value, cfg.n), "value", 0.0
        ),
        "mixture": EstimatorKind(
            lambda spec, cfg: _engine("estimators").mixture(
                [(build_estimator(part, cfg), w) for w, part in spec.parts]
            )
        ),
    },
    "circle": {
        "constant": EstimatorKind(
            lambda spec, cfg: _engine("compact_circle").constant_circle_estimator(float(spec.value), n=cfg.n),
            "value", 0.0,
        ),
        "biased_mean": EstimatorKind(
            lambda spec, cfg: _engine("compact_circle").biased_mean_circle_estimator(spec.value, cfg.n),
            "bias", 0.0, float,
        ),
        "warped": EstimatorKind(
            lambda spec, cfg: _engine("compact_circle").warped_circle_estimator(spec.value, n=cfg.n),
            "strength", 0.25, float,
        ),
    },
}


@dataclass(frozen=True)
class Command:
    """One subcommand: what its config must name, what it fills in, and its flags.

    required lists the fields a config must give; defaults the values the
    command fills in for absent fields, over ExperimentConfig's own; flags
    the fields it also takes as command-line flags, besides the --config,
    --seed, --trials, --out and --format that every command takes.
    closed_interval says whether it counts closed windows, and so takes
    --closed-interval and may set the field true; space names its table in
    ESTIMATORS.
    """

    help: str
    required: tuple[str, ...] = ()
    defaults: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()
    closed_interval: bool = True
    space: str = "line"


COMMANDS: dict[str, Command] = {
    "quality": Command(
        "per-shift quality of an estimator",
        required=("distribution", "estimator", "delta"),
        flags=("delta", "n"),
    ),
    "bounds": Command(
        "applicable quality ceilings for a distribution",
        required=("distribution", "delta"),
        flags=("delta", "n"),
    ),
    "lemma-check": Command(
        "sumset averaging bound on an atomic law",
        required=("distribution", "delta"),
        defaults={"estimator": EstimatorSpec(kind="discrete_mle")},
        flags=("delta",),
    ),
    "tree-demo": Command("exact qualities on the trivalent tree", flags=("radius",), closed_interval=False),
    "circle-avg": Command(
        "anchor-averaging check on the circle",
        defaults={
            "density": uniform_circle_density(),
            "estimator": EstimatorSpec(kind="biased_mean", value=0.1),
            "delta": 0.1,
        },
        flags=("density", "delta", "n", "anchor_grid"),
        closed_interval=False,
        space="circle",
    ),
    "paper-suite": Command("run every registered scenario"),
}


def _estimator_kinds(command: str) -> dict[str, EstimatorKind]:
    return ESTIMATORS[COMMANDS[command].space]


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


def _read_numbers(values, path: str, errs: _Collector, expected: Callable[[], str], read=parse_number):
    """read(v) for every v, if each is a finite number; otherwise None after one error at path.

    expected() is the error for a value that is no number at all. A number
    too large for a float is not finite, so it is refused like inf and NaN.
    """
    try:
        numbers = tuple(map(read, values))
        finite = all(map(math.isfinite, numbers))
    except OverflowError:
        finite = False
    except (ValueError, TypeError, ZeroDivisionError):
        errs.add(path, expected())
        return None
    if not finite:
        errs.add(path, f"{path.rsplit('.', 1)[-1]} must be finite")
        return None
    return numbers


def _get_number(doc: dict, key: str, path: str, errs: _Collector, *, required=False, default=None):
    if key not in doc:
        if required:
            errs.add(f"{path}{key}", "required field is missing")
        return default
    numbers = _read_numbers(
        (doc[key],), f"{path}{key}", errs, lambda: f"expected a number or 'p/q' string, got {doc[key]!r}"
    )
    return default if numbers is None else numbers[0]


def _get_int(doc: dict, key: str, path: str, errs: _Collector, *, minimum=None):
    if key not in doc:
        return None
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        errs.add(f"{path}{key}", f"expected an integer, got {value!r}")
        return None
    if minimum is not None and value < minimum:
        errs.add(f"{path}{key}", f"must be at least {minimum}")
        return None
    return value


def _knot_pairs(knots: list, path: str, errs: _Collector) -> tuple | None:
    """The [position, value] pairs as floats; the first pair float() refuses is an error at path."""
    pairs = []
    for pair in knots:
        numbers = _read_numbers(
            pair, path, errs, lambda: f"expected numbers in [position, value] pairs, got {json.dumps(pair)}", float
        )
        if numbers is None:
            return None
        pairs.append(numbers)
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
            cls, keys = _NUMBER_FAMILIES[family]
            values = {key: _get_number(spec, key, f"{path}.", errs) for key in keys}
            return cls(**{key: float(v) for key, v in values.items() if v is not None})
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
        pairs = [
            _read_numbers(p, f"{path}.points[{i}]", errs, lambda: f"expected numbers or 'p/q' strings, got {p!r}")
            for i, p in enumerate(points)
        ]
        return None if None in pairs else FiniteAtoms(atoms=tuple(pairs))
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
    law (see _flag_delta). A field the document leaves out takes the
    command's default from COMMANDS, or else ExperimentConfig's own.
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
        errs.add("command", f"unknown command {command!r}; expected one of {tuple(COMMANDS)}")
        command = "quality"
    spec = COMMANDS[command]

    # The fields the document gives, each None if it is absent or invalid.
    given = {}
    if "distribution" in doc:
        given["distribution"] = _build_distribution(doc["distribution"], "distribution", errs)
    flag_delta = (overrides or {}).get("delta")
    if isinstance(flag_delta, str):
        doc["delta"] = _flag_delta(flag_delta, given.get("distribution"))
    if "density" in doc:
        given["density"] = _build_density(doc["density"], "density", errs)
    if "estimator" in doc:
        given["estimator"] = _build_estimator_spec(
            doc["estimator"], "estimator", errs, _estimator_kinds(command)
        )

    given["delta"] = _get_number(doc, "delta", "", errs)
    if given["delta"] is not None and not given["delta"] > 0:
        errs.add("delta", "delta must be positive")

    for key, minimum in (("n", 1), ("k", 1), ("radius", 2), ("anchor_grid", 8)):
        given[key] = _get_int(doc, key, "", errs, minimum=minimum)

    if doc.get("theta_grid") is not None:
        raw = doc["theta_grid"]
        if not isinstance(raw, list) or not raw:
            errs.add("theta_grid", "expected a nonempty list of shifts")
        else:
            grid = [
                _read_numbers((value,), f"theta_grid[{i}]", errs, lambda: f"expected a number, got {value!r}")
                for i, value in enumerate(raw)
            ]
            if None not in grid:
                given["theta_grid"] = tuple(theta for theta, in grid)

    mc_doc = doc.get("mc", {})
    if not isinstance(mc_doc, dict):
        errs.add("mc", "expected an object")
        mc_doc = {}
    # parallelism is accepted and ignored: older configs still carry it.
    _check_keys(mc_doc, ("trials", "seed", "ci_level", "parallelism"), "mc.", errs)
    mc = {
        "trials": _get_int(mc_doc, "trials", "mc.", errs, minimum=100),
        "seed": _get_int(mc_doc, "seed", "mc.", errs, minimum=0),
        "ci_level": _get_number(mc_doc, "ci_level", "mc.", errs),
    }
    if mc["ci_level"] is not None:
        mc["ci_level"] = float(mc["ci_level"])
    try:
        given["mc"] = MCConfig(**_present(mc))
    except ValueError as exc:
        errs.add("mc", str(exc))

    if isinstance(doc.get("closed_interval"), bool):
        given["closed_interval"] = doc["closed_interval"]
    elif "closed_interval" in doc:
        errs.add("closed_interval", f"expected true or false, got {doc['closed_interval']!r}")

    out_doc = doc.get("output", {})
    if not isinstance(out_doc, dict):
        errs.add("output", "expected an object")
        out_doc = {}
    _check_keys(out_doc, ("format", "path"), "output.", errs)
    if "format" in out_doc and out_doc["format"] not in ("json", "csv"):
        errs.add("output.format", f"expected 'json' or 'csv', got {out_doc['format']!r}")
    if out_doc.get("path") is not None and not isinstance(out_doc["path"], str):
        errs.add("output.path", "expected a string path")
    given["output"] = OutputSpec(**_present({key: out_doc.get(key) for key in ("format", "path")}))

    cfg = ExperimentConfig(command=command, **{**spec.defaults, **_present(given)})
    for key in spec.required:
        if key not in doc:
            errs.add(key, f"{command} needs this field")
    if command == "lemma-check" and not isinstance(cfg.distribution, (FiniteAtoms, type(None))):
        errs.add("distribution", "lemma-check needs the atoms family")
    if command == "lemma-check" and cfg.n != 1:
        errs.add("n", "lemma-check bounds one-sample rules; n must be 1")
    if cfg.closed_interval and not spec.closed_interval:
        errs.add("closed_interval", f"{command} has no closed windows; closed_interval must be false")
    _check_rational_mixing(given.get("distribution"), given["delta"], given.get("theta_grid"), errs)

    if errs.errors:
        raise ConfigError(errs.errors)
    return cfg


def _present(fields: dict) -> dict:
    """The fields that are not None: the rest keep their dataclass defaults."""
    return {key: value for key, value in fields.items() if value is not None}


def _distribution_doc(d: Distribution) -> dict:
    for family, (cls, keys) in _NUMBER_FAMILIES.items():
        if isinstance(d, cls):
            return {"family": family, **{key: getattr(d, key) for key in keys}}
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
