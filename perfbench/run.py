"""Benchmark of shiftq: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mc --seed 1 --seconds 60 --trace 0

The run generates the workload's configs from the seed, times `setup_s` over
cold spawns of perfbench/setup_probe.py, then imports shiftq.cli in this
process and runs whole passes over the workload's operations until the
measuring time is up: each operation is `shiftq.cli.main(argv)` with a report
file, and every report is checked against the oracles. Times are the
median over passes. `wall_s` and the subcommand metrics of the workload's own
families count its own operations; the other subcommand metrics count the
probes (see workloads.py). With `--trace 1` the passes alternate untraced
and traced and the run prints the per-layer metrics instead.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; a table with CPU time beside wall time
goes to standard error.
"""

from __future__ import annotations

import os

# Held before numpy loads, here and in every spawned interpreter.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
from collections import defaultdict  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = ("setup_s", "wall_s", "peak_rss_mb", "quality_s", "bounds_s", "lemma_check_s", "tree_demo_s", "circle_avg_s")
COMMAND_METRICS = ("quality", "bounds", "lemma_check", "tree_demo", "circle_avg")
MIN_PASSES = 5  # timed passes per run (per side, when traced), however short the run


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Run:
    """Executes passes over the operations and keeps the tallies."""

    def __init__(self, ops):
        from shiftq import cli

        self.cli = cli
        self.ops = ops
        self.attempted = 0
        self.failures: list[str] = []  # operations that did not complete
        self.mismatches: list[str] = []  # completed operations whose report disagrees with its oracle

    def one_pass(self) -> dict:
        """Run every operation once; return wall and CPU seconds per timing key (see _key)."""
        wall, cpu = defaultdict(float), defaultdict(float)
        for op in self.ops:
            with contextlib.suppress(FileNotFoundError):
                os.remove(op.out)
            sink = io.StringIO()
            self.attempted += 1
            gc.collect()  # each operation starts on a clean heap, as a fresh process would
            w0, c0 = time.perf_counter(), time.process_time()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = self.cli.main(op.argv)
                except (Exception, SystemExit) as exc:  # a crash is a failed operation, not a dead run
                    code = f"{type(exc).__name__}: {exc}"
            for side, elapsed in ((wall, time.perf_counter() - w0), (cpu, time.process_time() - c0)):
                side[op.metric if op.own else f"probe.{op.metric}"] += elapsed
                side["pass" if op.own else "probes"] += elapsed
            if code != 0:
                self.failures.append(f"{' '.join(op.argv[:3])} exited with {code}: {sink.getvalue()[-300:]}")
                continue
            try:
                op.check(op.out)
            except (workloads.CheckError, OSError, ValueError, KeyError) as exc:
                self.mismatches.append(f"{' '.join(op.argv[:3])}: {exc}")
        return {"wall": wall, "cpu": cpu}


def _key(metric: str, ops) -> str:
    """Timing key of a subcommand metric: the own operations if the workload has any, else the probes."""
    return metric if any(op.own and op.metric == metric for op in ops) else f"probe.{metric}"


def _spawn_setup(ops, importtime: bool) -> tuple[float, str]:
    """Wall seconds of one cold interpreter that imports shiftq.cli and parses the configs."""
    configs = sorted({f"{op.argv[0]}={op.argv[2]}" for op in ops})
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), str(HERE / "setup_probe.py"), str(SRC), *configs]
    start = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr[-500:]}")
    return elapsed, done.stderr


def _median_of(passes, side, key) -> float:
    return statistics.median(p[side][key] for p in passes)


def _table(passes) -> str:
    keys = sorted(passes[0]["wall"], key=lambda k: (k in ("pass", "probes"), k.startswith("probe."), k))
    lines = [f"{'key':<18} {'wall_s':>9} {'cpu_s':>9}   (median of {len(passes)} passes)"]
    for key in keys:
        lines.append(f"{key:<18} {_median_of(passes, 'wall', key):>9.4f} {_median_of(passes, 'cpu', key):>9.4f}")
    return "\n".join(lines)


def _measure(run: Run, seconds: float, tracer=None):
    """Timed passes until the measuring time is up, each plain pass followed by one cold spawn.

    The first pass warms up (lazy imports and caches settle) and is not
    counted. Traced passes alternate with plain ones. Spreading the spawns
    over the run lets `setup_s` see the same machine as the passes do.
    """
    plain, traced, layer_rows, spawns = [], [], [], []
    deadline = time.perf_counter() + seconds
    run.one_pass()
    gc.freeze()  # the benchmark's own objects (oracles, modules) stay out of every collection
    while time.perf_counter() < deadline or len(plain) < MIN_PASSES or (tracer and len(traced) < MIN_PASSES):
        if tracer is not None and len(traced) < len(plain):
            tracer.reset()
            tracer.install()
            try:
                traced.append(run.one_pass())
            finally:
                tracer.uninstall()
            layer_rows.append(tracer.metrics())
        else:
            plain.append(run.one_pass())
            spawns.append(_spawn_setup(run.ops, importtime=tracer is not None))
    return plain, traced, layer_rows, spawns


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "shiftq" / "cli.py").is_file():
        print(f"no shiftq sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    oracles.self_test()
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=OUT)
    try:
        workloads.self_test(workdir)
        ops = workloads.build(args.workload, args.seed, workdir)
        _spawn_setup(ops, importtime=False)  # writes the bytecode cache

        sys.path.insert(0, str(SRC))
        import shiftq

        if not Path(shiftq.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"shiftq was imported from {shiftq.__file__}, not from {SRC}", file=sys.stderr)
            return 2
        run = Run(ops)
        tracer = layers.Tracer() if args.trace else None
        plain, traced, layer_rows, spawns = _measure(run, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        rows = layer_rows + [layers.import_times(stderr) for _, stderr in spawns]
        metrics = {
            name: statistics.median(r[name] for r in rows if name in r)
            for name in layers.PER_LAYER
            if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = _median_of(traced, "wall", "pass") - _median_of(plain, "wall", "pass")
        units = layers.PER_LAYER
        trace_file = OUT / f"trace-{args.workload}-s{args.seed}.json"
        trace_file.write_text(json.dumps({"passes": layer_rows, "metrics": metrics}, indent=1) + "\n")
        print("traced passes:\n" + _table(traced), file=sys.stderr)
    else:
        metrics = {
            "setup_s": statistics.median(elapsed for elapsed, _ in spawns),
            "wall_s": _median_of(plain, "wall", "pass"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for key in COMMAND_METRICS:
            metrics[f"{key}_s"] = _median_of(plain, "wall", _key(key, run.ops))
        units = {name: "MiB" if name == "peak_rss_mb" else "s" for name in END_TO_END}
    print("untraced passes:\n" + _table(plain), file=sys.stderr)
    for line in run.failures[:10]:
        print("FAILED " + line, file=sys.stderr)
    for line in run.mismatches[:10]:
        print("MISMATCH " + line, file=sys.stderr)

    result = {
        "correct": not run.mismatches,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
