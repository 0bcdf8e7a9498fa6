"""Paired benchmark runs of two revisions, summarised into BENCH_<label>.json.

Usage (from the root of a checkout):

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD --label pr12 \\
        --scratch /tmp/bench-pairs --pairs 10

Each side is exported with `git archive` into a new directory of its own
under --scratch (made with tempfile.mkdtemp, so nothing already there is
touched), which must lie outside the repository. `--change WORKTREE` copies
the working tree instead (tracked files and untracked ones that git does not
ignore), so uncommitted work can be measured; the record then names HEAD and
a digest of the copied files. Pair i runs each side's own, unchanged
`perfbench/run.py --workload W --seed S --seconds T --trace 0` for every
workload W of BENCHMARK.json, with T its run_seconds and the same seed
S = --first-seed + i on both sides, parent first on even pairs and change
first on odd ones, so drift in machine speed falls on both sides alike.

For every workload and every end-to-end metric of BENCHMARK.json the file
holds each side's median and quartiles (statistics.quantiles, n=4), the
median of the per-pair ratios change/parent, the pairs the change wins (ties
count for neither), and whether the change's median stays within the
metric's bound of the parent's. It also states the claim rule: `spread` is
the parent's quartile spread (q3 - q1) as a share of its median; `gain` is
true when the change wins at least 9 pairs in 10 and its median beats the
parent's by more than that quartile spread; `unresolved` is true when the
spread exceeds the metric's bound and not every change run beats every
parent run, so a shift within the bound cannot be told from noise. Per side it holds whether every run read
`correct: true` and the share of operations that failed; then the seeds,
both full revisions with the line count of each side's src/shiftq/*.py, and
every raw run record. The file is rewritten after each pair, so an
interrupted set keeps the pairs it finished. Both line counts are printed
under the table.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
WORKTREE = "WORKTREE"


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=True).stdout


def export(spec: str, dest: Path) -> dict:
    """Write the sources of spec (a git revision, or WORKTREE) into the empty directory dest.

    Returns what was exported.
    """
    if spec != WORKTREE:
        revision = _git("rev-parse", "--verify", f"{spec}^{{commit}}").decode().strip()
        with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", revision))) as tar:
            tar.extractall(dest)
        return {"spec": spec, "revision": revision}
    digest = hashlib.sha256()
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode().split("\0")
    for name in sorted(n for n in names if n and (ROOT / n).is_file()):
        data = (ROOT / name).read_bytes()
        digest.update(name.encode() + b"\0" + data + b"\0")
        (dest / name).parent.mkdir(parents=True, exist_ok=True)
        (dest / name).write_bytes(data)
    head = _git("rev-parse", "HEAD").decode().strip()
    return {"spec": spec, "revision": head, "worktree_sha256": digest.hexdigest()}


def src_lines(checkout: Path) -> int:
    """Lines of the package sources, src/shiftq/*.py, counted as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "shiftq").glob("*.py"))


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout, as a record; a run that does not finish reads correct=False."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # each side imports its own src/
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=False)
    record = {"workload": workload, "seed": seed, "returncode": done.returncode}
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {**record, "correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": done.stderr[-800:]}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {**record, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(records: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload: each side's runs, and per end-to-end metric the paired comparison.

    records carry workload, seed, side, correct, attempted, failed and
    metrics (name -> value); end_to_end is BENCHMARK.json's list of metrics
    with their direction and bound. Only seeds run on both sides are paired.
    """
    out = {}
    for workload in sorted({r["workload"] for r in records}):
        by_side = {side: {r["seed"]: r for r in records if r["workload"] == workload and r["side"] == side}
                   for side in SIDES}
        seeds = sorted(set(by_side["parent"]) & set(by_side["change"]))
        runs = {}
        for side in SIDES:
            mine = [by_side[side][s] for s in seeds]
            attempted = sum(r["attempted"] for r in mine)
            failed = sum(r["failed"] for r in mine)
            runs[side] = {"all_correct": all(r["correct"] for r in mine), "attempted": attempted,
                          "failed": failed, "failed_share": failed / attempted if attempted else None}
        metrics = {}
        for m in end_to_end:
            name, lower = m["name"], m["better"] == "lower"
            pairs = [(by_side["parent"][s]["metrics"][name], by_side["change"][s]["metrics"][name])
                     for s in seeds
                     if name in by_side["parent"][s]["metrics"] and name in by_side["change"][s]["metrics"]]
            if not pairs:
                continue
            parent = _quartiles([p for p, _ in pairs])
            change = _quartiles([c for _, c in pairs])
            shift = change["median"] / parent["median"] - 1.0 if parent["median"] else 0.0
            ratios = [c / p for p, c in pairs if p]
            wins = sum((c < p) if lower else (c > p) for p, c in pairs)
            gap = (parent["median"] - change["median"]) * (1 if lower else -1)
            iqr = parent["q3"] - parent["q1"]
            spread = iqr / parent["median"] if parent["median"] else 0.0
            parents, changes = [p for p, _ in pairs], [c for _, c in pairs]
            separated = max(changes) < min(parents) if lower else min(changes) > max(parents)
            metrics[name] = {
                "unit": m["unit"],
                "better": m["better"],
                "bound": m["bound"],
                "parent": parent,
                "change": change,
                "median_shift": shift,
                "median_ratio": statistics.median(ratios) if ratios else None,
                "wins": wins,
                "pairs": len(pairs),
                "within_bound": (shift if lower else -shift) <= m["bound"],
                "spread": spread,
                "gain": 10 * wins >= 9 * len(pairs) and gap > iqr,
                "unresolved": spread > m["bound"] and not separated,
            }
        out[workload] = {"seeds": seeds, "runs": runs, "metrics": metrics}
    return out


def verdict(summary: dict) -> bool:
    """True when every run reads correct, no larger share of operations fails and every metric keeps its bound."""
    for entry in summary.values():
        parent, change = entry["runs"]["parent"], entry["runs"]["change"]
        if not (parent["all_correct"] and change["all_correct"]):
            return False
        if (change["failed_share"] or 0.0) > (parent["failed_share"] or 0.0):
            return False
        if not all(m["within_bound"] for m in entry["metrics"].values()):
            return False
    return True


def table(summary: dict) -> str:
    """Markdown rows: medians [quartiles] per side, the median shift, the wins and the claim rule."""
    lines = ["| workload | metric | parent | change | wins | spread | gain | unresolved |",
             "|---|---|---|---|---|---|---|---|"]
    for workload, entry in summary.items():
        for name, m in entry["metrics"].items():
            p, c = m["parent"], m["change"]
            lines.append(
                f"| {workload} | `{name}` | {p['median']:.4f} [{p['q1']:.4f}, {p['q3']:.4f}] | "
                f"{c['median']:.4f} [{c['q1']:.4f}, {c['q3']:.4f}] ({m['median_shift']:+.1%}) | "
                f"{m['wins']}/{m['pairs']} | {m['spread']:.1%} | {m['gain']} | {m['unresolved']} |"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision of the parent side")
    p.add_argument("--change", required=True, help=f"git revision of the change side, or {WORKTREE}")
    p.add_argument("--label", required=True, help="the report is BENCH_<label>.json")
    p.add_argument("--scratch", required=True, type=Path, help="directory outside the repository")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    scratch = args.scratch.resolve()
    if scratch.is_relative_to(ROOT.resolve()):
        p.error("--scratch must lie outside the repository")
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    out = ROOT / f"BENCH_{args.label}.json"

    scratch.mkdir(parents=True, exist_ok=True)
    checkouts = {side: Path(tempfile.mkdtemp(prefix=f"{side}-", dir=scratch)) for side in SIDES}
    sides = {side: {**export(spec, checkouts[side]), "src_lines": src_lines(checkouts[side])}
             for side, spec in zip(SIDES, (args.parent, args.change))}
    doc = {
        "label": args.label,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "seconds": seconds,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(), "system": platform.platform()},
        "sides": sides,
    }
    records = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                record = {"side": side, **run_once(checkouts[side], workload, seed, seconds)}
                records.append(record)
                print(f"pair {i + 1} {workload} seed {seed} {side}: correct={record['correct']} "
                      f"failed={record['failed']}/{record['attempted']}", file=sys.stderr)
        summary = summarize(records, bench["end_to_end"])
        doc.update(pairs=i + 1, ok=verdict(summary), workloads=summary, records=records)
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(table(doc["workloads"]))
    print("src/shiftq lines: " + ", ".join(f"{side} {sides[side]['src_lines']}" for side in SIDES))
    print(f"{'ok' if doc['ok'] else 'NOT OK'}: wrote {out}")
    return 0 if doc["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
