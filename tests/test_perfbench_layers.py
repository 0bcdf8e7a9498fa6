"""The traced benchmark wraps package names; each must still exist."""

import importlib.util
from pathlib import Path

import numpy as np

from shiftq import cli, compact_circle, distributions, quality
from shiftq import Gaussian, MCConfig, PiecewiseDensity, constant_estimator, mean_estimator, mixture

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.Tracer()


def test_tracer_installs_and_uninstalls():
    originals = (
        cli.parse_config,
        distributions.ShiftedDistribution.sample_with_rng,
        compact_circle.CircleEstimator.evaluate_batch,
    )
    tracer = _tracer()
    tracer.install()
    try:
        assert cli.parse_config is not originals[0]
    finally:
        tracer.uninstall()
    assert originals == (
        cli.parse_config,
        distributions.ShiftedDistribution.sample_with_rng,
        compact_circle.CircleEstimator.evaluate_batch,
    )


def test_a_mixture_grid_and_a_piecewise_draw_run_under_the_tracer():
    d = Gaussian(0.3, 1.2)
    m = mixture([(constant_estimator(0.5, 2), 0.25), (mean_estimator(d, 2), 0.75)])
    law = PiecewiseDensity(knots=((0.0, 0.0), (1.0, 1.0), (1.5, 0.5), (2.0, 0.0)))
    u = np.random.default_rng(3).random((500, 2))
    mc = MCConfig(trials=3000, seed=5)
    thetas = [-1.0, 0.0, 0.4, 2.0]

    def run():
        return quality.quality_inf(m, d, 0.3, thetas, mc), law.ppf(u)  # looked up where the tracer wraps it

    untraced = run()
    tracer = _tracer()
    tracer.install()
    originals = list(tracer._originals)
    try:
        traced = run()
    finally:
        tracer.uninstall()
    assert traced[0] == untraced[0]
    assert traced[1].tobytes() == untraced[1].tobytes()
    assert tracer.units["distributions.ppf.piecewisedensity"] == u.size
    assert tracer.units["quality.quality_inf"] == len(thetas)
    # The grid scores the mixture's parts on their own rows, so the spans count them, not the mixture.
    assert tracer.units["estimators.batch.mean"] > 0 and tracer.units["estimators.batch.mixture"] == 0
    for owner, attr, original in originals:
        assert (vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)) is original
