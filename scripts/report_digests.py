"""Digests of every benchmark report, to check that a change leaves reports byte-identical.

Usage (from the root of a checkout):

    python3 scripts/report_digests.py --seeds 1 2 3 --out change.json
    python3 scripts/report_digests.py --root <parent checkout> --seeds 1 2 3 --out parent.json
    python3 scripts/report_digests.py --compare parent.json change.json

For every workload of BENCHMARK.json and every seed, the operations that
perfbench/workloads.py builds (the workload's own and its probes, each once)
are run through `shiftq.cli.main`, each workload and seed in a new
directory, with standard output and error swallowed. The JSON written maps `workload/seed/report` to
[exit code, sha256 of the report file (null if none was written), oracle
verdict ("pass" or the check's message)]. --root names the checkout whose
src/shiftq and perfbench/workloads.py are used (default: this one), so a
parent exported with `git archive` can be digested without the script.
workloads.py is imported as it is and no bytecode is written next to it.

--compare A B lists every key whose entry differs between the two files or
is missing from one of them, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(root: Path):
    """perfbench/workloads.py and shiftq.cli.main of the checkout at root."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from shiftq.cli import main

    return workloads, main


def _sha256(path: str):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def digests(workloads, main, names: list[str], seeds: list[int]) -> dict:
    """{workload/seed/report: [exit code, report sha256, verdict]} over every distinct operation."""
    out = {}
    for name in names:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                ops = {op.out: op for op in workloads.build(name, seed, tmp)}  # probes repeat
                for path, op in ops.items():
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                        try:
                            code = main(op.argv)
                        except (Exception, SystemExit) as exc:
                            code = f"{type(exc).__name__}: {exc}"
                    try:
                        op.check(path)
                        verdict = "pass"
                    except (AssertionError, OSError, ValueError, KeyError) as exc:  # as perfbench/run.py
                        verdict = f"{type(exc).__name__}: {exc}"
                    out[f"{name}/{seed}/{Path(path).name}"] = [code, _sha256(path), verdict]
    return out


def compare(a: dict, b: dict) -> list[str]:
    """Keys whose entries differ, or that only one side has, in sorted order."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", type=Path, default=ROOT, help="checkout whose program and workloads run")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--out", type=Path, help="JSON file to write (default: standard output)")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"), help="compare two digest files")
    args = p.parse_args(argv)
    if args.compare:
        a, b = (json.loads(path.read_text()) for path in args.compare)
        differ = compare(a, b)
        for key in differ:
            print(f"{key}: {a.get(key)} != {b.get(key)}")
        print(f"{len(differ)} of {len(a.keys() | b.keys())} reports differ")
        return 1 if differ else 0
    root = args.root.resolve()
    names = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    text = json.dumps(digests(*_load(root), names, args.seeds), indent=1, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
