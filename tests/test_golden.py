"""Reports of small fixed configs, compared byte for byte with stored copies.

Each `tests/golden/<name>.config.json` is run through the CLI and its report
must equal `tests/golden/<name>.<csv|json>` exactly: the determinism
contract says identical configs give identical reports, release to release.
A change that moves a report on purpose regenerates the stored copy and says
so in CHANGES.md.
"""

from pathlib import Path

import pytest

from shiftq.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("quality_mean", "quality", "csv"),
    ("quality_mixture", "quality", "json"),
    ("quality_window_piecewise", "quality", "csv"),
    ("circle_avg", "circle-avg", "json"),
    ("circle_avg_normalised", "circle-avg", "json"),
    ("tree_demo_r3", "tree-demo", "json"),
    ("lemma_check_rational", "lemma-check", "csv"),
    ("lemma_check_float_atoms", "lemma-check", "json"),
    ("quality_exact_atoms", "quality", "csv"),
]


@pytest.mark.parametrize("name, command, fmt", CASES)
def test_report_matches_golden_bytes(tmp_path, name, command, fmt):
    out = tmp_path / f"{name}.{fmt}"
    config = GOLDEN / f"{name}.config.json"
    assert main([command, "--config", str(config), "--out", str(out), "--format", fmt]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.{fmt}").read_bytes()
