"""Sweep the threshold width for the min-shift estimator on an exponential law.

Writes one CSV row per (delta, n) cell: Monte Carlo worst-case quality over a
shift grid, the closed-form value 1 - exp(-2*delta*rate*n), and the gap in CI
units. Useful as a quick calibration check of the MC harness.
"""

import argparse
import csv
import math
import sys

from shiftq import Exponential, MCConfig, min_shift_estimator, quality_inf


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rate", type=float, default=1.0)
    ap.add_argument("--deltas", type=float, nargs="+", default=[0.05, 0.1, 0.25, 0.5, 1.0])
    ap.add_argument("--n", type=int, nargs="+", default=[1, 2, 5])
    ap.add_argument("--trials", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", default="-")
    args = ap.parse_args(argv)

    d = Exponential(args.rate)
    mc = MCConfig(trials=args.trials, seed=args.seed)
    grid = (-5.0, 0.0, 3.0, 100.0)

    sink = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["delta", "n", "q_mc", "ci_half_width", "q_closed_form", "gap_in_ci"])
    for delta in args.deltas:
        for n in args.n:
            report = quality_inf(min_shift_estimator(delta, n), d, delta, grid, mc)
            q, theta = report.worst_case
            ci = next(r.ci_half_width for r in report.per_theta if r.theta == theta)
            closed = 1.0 - math.exp(-2.0 * delta * args.rate * n)
            writer.writerow([delta, n, repr(q), repr(ci), repr(closed), repr(abs(q - closed) / ci)])
    if sink is not sys.stdout:
        sink.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
