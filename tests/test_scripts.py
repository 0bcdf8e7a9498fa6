"""The scripts under scripts/ import public shiftq names; each must still run."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv, header, rows",
    [
        ("bound_gap_scan", ["--instances", "5"], "delta,window,packing,gap,equal", 5),
        (
            "delta_sweep",
            ["--trials", "1000", "--deltas", "0.1", "--n", "1"],
            "delta,n,q_mc,ci_half_width,q_closed_form,gap_in_ci",
            1,
        ),
    ],
)
def test_script_runs_and_writes_its_csv(capsys, name, argv, header, rows):
    assert load(name).main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + rows
