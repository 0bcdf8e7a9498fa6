"""The traced benchmark wraps package names; each must still exist."""

import importlib.util
from pathlib import Path

from shiftq import cli, compact_circle, distributions

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    originals = (
        cli.parse_config,
        distributions.ShiftedDistribution.sample_with_rng,
        compact_circle.CircleEstimator.evaluate_batch,
    )
    tracer = layers.Tracer()
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
