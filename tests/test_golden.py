"""Reports of small fixed configs, compared byte for byte with stored copies.

Each `tests/golden/<name>.config.json` is run through the CLI and its report
must equal `tests/golden/<name>.<csv|json>` exactly: the determinism
contract says identical configs give identical reports, release to release.
A change that moves a report on purpose regenerates the stored copy and says
so in CHANGES.md. `report_digests.json` holds the same contract for every
report the benchmark writes, as sha256 digests; regenerate it with
`python3 scripts/report_digests.py --seeds 1 --out tests/golden/report_digests.json`.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from shiftq.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("quality_mean", "quality", "csv"),
    ("quality_mixture", "quality", "json"),
    ("quality_mixture_atoms", "quality", "json"),
    ("quality_window_piecewise", "quality", "csv"),
    ("circle_avg", "circle-avg", "json"),
    ("circle_avg_normalised", "circle-avg", "json"),
    ("circle_avg_default", "circle-avg", "json"),
    ("tree_demo_r3", "tree-demo", "json"),
    ("lemma_check_rational", "lemma-check", "csv"),
    ("lemma_check_float_atoms", "lemma-check", "json"),
    ("quality_exact_atoms", "quality", "csv"),
    ("bounds_exponential_n5", "bounds", "csv"),
    ("bounds_gaussian_n4", "bounds", "csv"),
    ("bounds_atoms_rational", "bounds", "json"),
    ("paper_suite", "paper-suite", "json"),
]


@pytest.mark.parametrize("name, command, fmt", CASES)
def test_report_matches_golden_bytes(tmp_path, name, command, fmt):
    out = tmp_path / f"{name}.{fmt}"
    config = GOLDEN / f"{name}.config.json"
    assert main([command, "--config", str(config), "--out", str(out), "--format", fmt]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.{fmt}").read_bytes()


def test_benchmark_reports_match_their_digests(monkeypatch):
    # Every operation of every benchmark workload at seed 1, probes included:
    # exit code, report sha256 and oracle verdict, as scripts/report_digests.py
    # records them. Like the goldens, the Monte Carlo digests hold for one
    # numpy version.
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("report_digests", root / "scripts" / "report_digests.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "path", list(sys.path))  # _load puts src/ and perfbench/ in front
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    names = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    got = script.digests(*script._load(root), names, [1])
    assert script.compare(json.loads((GOLDEN / "report_digests.json").read_text()), got) == []
