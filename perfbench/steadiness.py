"""Steadiness check: two sets of runs of the same code, compared metric by metric.

Usage (from the root of a checkout):

    python3 perfbench/steadiness.py --runs 10            # every workload
    python3 perfbench/steadiness.py --runs 5 --workload exact

Each run is `perfbench/run.py --trace 0` with its own seed; the runs of the
two sets alternate, so drift in machine speed falls on both alike. For every
end-to-end metric on every workload it prints each set's median and
quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median, and the
shift of the second median against the first, and says whether both sets'
spreads and the shift, either way, stay within the metric's bound from
BENCHMARK.json. The share of failed operations must be equal in both sets.
The full record is written to perfbench/out/steadiness.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SET_SEEDS = (1, 1001)  # first seed of each set


def _run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {done.returncode}: {done.stderr[-800:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10, help="runs per set and workload (at least 2)")
    p.add_argument("--workload", action="append", help="repeatable; default every workload")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record, ok = {"seconds": args.seconds, "runs": args.runs, "workloads": {}}, True
    for workload in names:
        sets = ([], [])
        for i in range(args.runs):
            for s, runs in enumerate(sets):
                result = _run(workload, SET_SEEDS[s] + i, args.seconds)
                runs.append(result)
                print(f"{workload} set {s + 1} seed {SET_SEEDS[s] + i}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
        rows = {}
        print(f"\n{workload}: {args.runs} runs per set of {args.seconds} s")
        print(f"{'metric':<14} {'bound':>6} " + " ".join(
            f"{'med' + str(s + 1):>9} {'q1':>9} {'q3':>9} {'spread':>7}" for s in range(2)) + "   shift  verdict")
        for name, bound in bounds.items():
            summaries = [_summary([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            shift = summaries[1]["median"] / summaries[0]["median"] - 1.0
            row = {"bound": bound, "sets": summaries, "shift": shift,
                   "ok": all(x["spread"] <= bound for x in summaries) and abs(shift) <= bound}
            line = f"{name:<14} {bound:>6.2f} " + " ".join(
                f"{x['median']:>9.4f} {x['q1']:>9.4f} {x['q3']:>9.4f} {x['spread']:>7.3f}" for x in summaries
            ) + f" {shift:>+7.3f}"
            ok &= row["ok"]
            rows[name] = row
            print(line + ("  ok" if row["ok"] else "  OUT OF BOUND"))
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        ok &= correct and len(set(shares)) == 1
        print(f"failed share per set: {shares}; every report correct: {correct}")
        record["workloads"][workload] = {"metrics": rows, "failed_share": shares, "correct": correct}

    out = HERE / "out" / "steadiness.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"\n{'steady' if ok else 'NOT steady'}; record in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
