"""The scripts under scripts/ import public shiftq names; each must still run."""

import importlib.util
import runpy
import sys
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


def test_run_paper_suite_matches_the_cli(capsys, monkeypatch):
    from shiftq.cli import main

    expected_code = main(["paper-suite", "--trials", "2000"])
    expected = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["run_paper_suite.py", "--trials", "2000"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "run_paper_suite.py"), run_name="__main__")
    assert exit_info.value.code == expected_code
    assert capsys.readouterr().out == expected


def test_bench_pairs_summary_on_synthetic_runs():
    bench_pairs = load("bench_pairs")
    end_to_end = [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "quality_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]

    def run(side, seed, wall, quality, failed=0, correct=True):
        return {"workload": "mc", "seed": seed, "side": side, "correct": correct, "attempted": 100,
                "failed": failed, "metrics": {"wall_s": wall, "quality_s": quality}}

    records = [
        run("parent", 1, 1.0, 0.40), run("change", 1, 0.9, 0.60),
        run("change", 2, 1.1, 0.55), run("parent", 2, 1.2, 0.40),
        run("parent", 3, 0.8, 0.40), run("change", 3, 0.8, 0.50),
        run("parent", 4, 5.0, 9.00),  # no change run at seed 4: not paired
    ]
    summary = bench_pairs.summarize(records, end_to_end)
    mc = summary["mc"]
    assert mc["seeds"] == [1, 2, 3]
    assert mc["runs"]["parent"] == {"all_correct": True, "attempted": 300, "failed": 0, "failed_share": 0.0}
    wall = mc["metrics"]["wall_s"]
    assert wall["parent"]["median"] == 1.0 and wall["change"]["median"] == 0.9
    assert wall["wins"] == 2 and wall["pairs"] == 3  # the tie at seed 3 counts for neither side
    assert abs(wall["median_ratio"] - 11 / 12) < 1e-12 and wall["within_bound"]
    quality = mc["metrics"]["quality_s"]
    assert quality["wins"] == 0 and abs(quality["median_shift"] - 0.375) < 1e-12
    assert not quality["within_bound"]
    assert not bench_pairs.verdict(summary)

    fixed = [dict(r, metrics={"wall_s": r["metrics"]["wall_s"], "quality_s": 0.4}) for r in records]
    assert bench_pairs.verdict(bench_pairs.summarize(fixed, end_to_end))
    failing = fixed + [run("change", 4, 5.0, 0.4, failed=1)]
    assert not bench_pairs.verdict(bench_pairs.summarize(failing, end_to_end))
    wrong = [dict(r, correct=r["side"] == "parent") for r in fixed]
    assert not bench_pairs.verdict(bench_pairs.summarize(wrong, end_to_end))
    assert "| mc | `wall_s` | 1.0000 [" in bench_pairs.table(summary)

    # The claim rule: the parent's quartile spread, gain and unresolved.
    assert abs(wall["spread"] - 0.4) < 1e-12  # quartiles 0.8 and 1.2 around the median 1.0
    assert not wall["gain"] and wall["unresolved"]  # 2 wins of 3; spread above the bound, runs overlap
    assert quality["spread"] == 0.0 and not quality["gain"] and not quality["unresolved"]
    assert "| 2/3 | 40.0% | False | True |" in bench_pairs.table(summary)

    def paired(parents, changes):
        return [rec for seed, (p, c) in enumerate(zip(parents, changes))
                for rec in (run("parent", seed, p, 0.4), run("change", seed, c, 0.4))]

    def claim(parents, changes):
        m = bench_pairs.summarize(paired(parents, changes), end_to_end)["mc"]["metrics"]["wall_s"]
        return m["gain"], m["unresolved"]

    tight = [1.0 + 0.01 * i for i in range(10)]
    assert claim(tight, [0.8 * p for p in tight[:9]] + [2.0]) == (True, False)  # 9 of 10, gap 0.2 > 0.05
    assert claim(tight, [0.8 * p for p in tight[:8]] + [2.0, 2.0]) == (False, False)  # 8 of 10
    wide = [1.0 + 0.1 * i for i in range(10)]
    assert claim(wide, [p - 0.01 for p in wide]) == (False, True)  # 10 of 10, gap 0.01 < spread
    assert claim(wide, [0.5 + 0.01 * i for i in range(10)]) == (True, False)  # every change run below every parent
    assert bench_pairs.verdict(bench_pairs.summarize(paired(wide, [p - 0.01 for p in wide]), end_to_end))


def test_bench_pairs_main_keeps_what_the_scratch_directory_holds(tmp_path, monkeypatch, capsys):
    import io
    import json
    import tarfile

    bench_pairs = load("bench_pairs")
    root, scratch = tmp_path / "repo", tmp_path / "scratch"
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 7,
        "workloads": [{"name": "mc"}, {"name": "exact"}],
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}],
    }))
    for side in bench_pairs.SIDES:  # a user's own directories that happen to share the side names
        (scratch / side).mkdir(parents=True)
        (scratch / side / "keep.txt").write_text(side)
    archive = io.BytesIO()
    with tarfile.open(fileobj=archive, mode="w") as tar:
        info = tarfile.TarInfo("perfbench/run.py")
        tar.addfile(info, io.BytesIO(b""))
        source = b"a = 1\nb = 2\nc = 3\n"
        info = tarfile.TarInfo("src/shiftq/core.py")
        info.size = len(source)
        tar.addfile(info, io.BytesIO(source))

    def git(*args):
        return b"0" * 40 + b"\n" if args[0] == "rev-parse" else archive.getvalue()

    runs = []

    def run_once(checkout, workload, seed, seconds):
        assert (checkout / "perfbench" / "run.py").is_file()
        runs.append((checkout.name.split("-")[0], workload, seed, seconds))
        return {"workload": workload, "seed": seed, "returncode": 0, "correct": True,
                "attempted": 10, "failed": 0, "metrics": {"wall_s": 1.0}}

    monkeypatch.setattr(bench_pairs, "ROOT", root)
    monkeypatch.setattr(bench_pairs, "_git", git)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = ["--parent", "A", "--change", "B", "--label", "t", "--scratch", str(scratch), "--pairs", "2"]
    assert bench_pairs.main(argv) == 0
    for side in bench_pairs.SIDES:
        assert (scratch / side / "keep.txt").read_text() == side
        assert not (scratch / side / "perfbench").exists()
    assert runs == [("parent", "mc", 1, 7), ("change", "mc", 1, 7), ("parent", "exact", 1, 7),
                    ("change", "exact", 1, 7), ("change", "mc", 2, 7), ("parent", "mc", 2, 7),
                    ("change", "exact", 2, 7), ("parent", "exact", 2, 7)]
    doc = json.loads((root / "BENCH_t.json").read_text())
    assert doc["ok"] and doc["seconds"] == 7 and doc["pairs"] == 2
    assert sorted(doc["workloads"]) == ["exact", "mc"]
    assert [doc["sides"][side]["src_lines"] for side in bench_pairs.SIDES] == [3, 3]
    assert "src/shiftq lines: parent 3, change 3" in capsys.readouterr().out.splitlines()
    with pytest.raises(SystemExit):
        bench_pairs.main(argv + ["--seconds", "1"])
    capsys.readouterr()


def test_report_digests_runs_each_operation_once_and_compares(tmp_path, monkeypatch, capsys):
    import hashlib
    import json
    from types import SimpleNamespace

    report_digests = load("report_digests")
    root = tmp_path / "repo"
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps({"workloads": [{"name": "mc"}, {"name": "exact"}]}))
    calls = []

    def build(workload, seed, run_dir):
        def op(stem, check):
            out = str(Path(run_dir) / f"{stem}.out.csv")
            return SimpleNamespace(argv=[stem, "--out", out], out=out, check=check)

        def wrong(path):
            raise AssertionError(f"{workload} q too low")

        probe = op("02-bounds", wrong)
        return [op("01-quality", lambda path: None), probe, probe]  # a probe repeats in a pass

    def main(argv):
        calls.append(argv[0])
        print("table on stdout")
        if argv[0] == "02-bounds":
            raise ValueError("no report")
        Path(argv[2]).write_text("q\n")
        return 0

    monkeypatch.setattr(report_digests, "_load", lambda checkout: (SimpleNamespace(build=build), main))
    a = tmp_path / "a.json"
    assert report_digests.main(["--root", str(root), "--seeds", "1", "2", "--out", str(a)]) == 0
    assert calls == ["01-quality", "02-bounds"] * 4
    assert capsys.readouterr().out == ""
    doc = json.loads(a.read_text())
    ok = [0, hashlib.sha256(b"q\n").hexdigest(), "pass"]
    assert doc["mc/2/01-quality.out.csv"] == doc["exact/1/01-quality.out.csv"] == ok
    failed = ["ValueError: no report", None, "AssertionError: exact q too low"]
    assert doc["exact/2/02-bounds.out.csv"] == failed
    assert len(doc) == 8

    b = tmp_path / "b.json"
    changed = dict(doc)
    changed["mc/1/01-quality.out.csv"] = [0, "0" * 64, "pass"]
    del changed["exact/2/02-bounds.out.csv"]
    b.write_text(json.dumps(changed))
    assert report_digests.main(["--compare", str(a), str(a)]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 of 8 reports differ"]
    assert report_digests.main(["--compare", str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    differ = [line.split(":")[0] for line in lines[:-1]]
    assert differ == ["exact/2/02-bounds.out.csv", "mc/1/01-quality.out.csv"]
    assert lines[-1] == "2 of 8 reports differ"
