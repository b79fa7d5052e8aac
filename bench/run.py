"""gridwatch benchmark: one workload per process, or all of them.

    python3 bench/run.py --workload demo-replay --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

A single workload prints the environment, its figures by name, and as the
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` or the per-layer
metrics with ``--trace 1``. ``--workload all`` runs every workload in a
fresh process, untraced and then traced, and prints the tracing overhead.
The exit code is 0 only when every output check passed, 2 when there is no
gridwatch source to measure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import common  # noqa: E402

WORKLOADS = {"demo-replay": "demo_replay", "live-poll": "live_poll", "report-query": "report_query"}
# The figure of each workload's one-off job, in its ``details``; ``trace.job_s`` is the same.
JOBS = {"demo-replay": "replay_s", "live-poll": "checkpoint_s", "report-query": "report_cold_s"}

# name -> (unit, per-workload meaning); the order is the print order.
END_TO_END = {
    "setup_s": ("s", "median import of gridwatch plus the median set-up, at the speed probe's nominal speed"),
    "peak_rss_mb": ("MB", "peak resident set of the process, read when the timed part ends"),
    "scaled_ops_per_cpu_s": ("1/s", "polls / polls / API requests per CPU second of the process, "
                             "at the speed probe's nominal machine speed"),
}
DEFAULT_SECONDS = 20
IMPORT_REPEATS = 5  # fresh interpreters timed importing gridwatch; set-up counts the median


def detail_unit(name: str) -> str:
    """The unit a ``details`` figure's name implies."""
    if name.endswith(("_per_s", "_per_cpu_s")):
        return "1/s"
    if "_ms" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


def import_seconds() -> float:
    """The median time to import gridwatch (every module) in a fresh
    interpreter, at the speed probe's nominal speed."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import gridwatch.cli; print(time.perf_counter() - t)")
    probe = common.SpeedProbe()
    times = []
    for _ in range(IMPORT_REPEATS):
        proc, _, slowdown = probe.around(lambda: subprocess.run(
            [sys.executable, "-c", code, str(common.SRC)],
            capture_output=True, text=True, timeout=120, check=True))
        times.append(float(proc.stdout) / slowdown)
    return statistics.median(times)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    try:
        common.use_checkout_source()
    except common.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = import_seconds()
    import gridwatch.cli  # noqa: F401  (imports every module)

    layers = None
    if trace:
        from layers import Layers

        layers = Layers()
        layers.install()
    module = importlib.import_module(WORKLOADS[workload])
    try:
        outcome = module.run(seed, seconds, layers)
    finally:
        if layers is not None:
            layers.uninstall()
    outcome.end_to_end["setup_s"] += import_s

    env = common.environment(seed)
    print(f"workload {workload}  " + "  ".join(f"{k} {v}" for k, v in env.items())
          + f"  seconds {seconds}  trace {int(trace)}")
    print("details " + json.dumps(outcome.details, sort_keys=True))
    for name, value in outcome.details.items():
        print(f"  . {name:<24} {value:16.6f} {detail_unit(name)}")
    e2e_units = {name: unit for name, (unit, _) in END_TO_END.items()}
    for name, unit in e2e_units.items():
        if name in outcome.end_to_end:
            print(f"  {name:<20} {outcome.end_to_end[name]:14.6f} {unit}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    if trace:
        from layers import PER_LAYER

        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        values = outcome.per_layer
    else:
        units, values = e2e_units, outcome.end_to_end
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()
               if name in values and math.isfinite(values[name])}
    correct = not outcome.problems
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced, then traced, each in a fresh process."""
    print("environment " + json.dumps(common.environment(seed)))
    summary = {}
    worst = 0
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            worst = max(worst, proc.returncode)
            lines = proc.stdout.splitlines()
            if proc.returncode not in (0, 1) or not lines:
                print(f"{workload} trace={trace} exited {proc.returncode}\n{proc.stderr}")
                continue
            details = next((json.loads(ln[len("details "):])
                            for ln in lines if ln.startswith("details ")), {})
            results[trace] = (json.loads(lines[-1]), details)
            print(f"\n== {workload} (trace {trace})")
            print("\n".join(ln for ln in lines[:-1] if not ln.startswith("details ")))
        if 0 in results and 1 in results:
            plain, traced = results[0][0]["metrics"], results[1][0]["metrics"]
            overhead = {
                "job_s": traced["trace.job_s"]["value"] / results[0][1][JOBS[workload]] - 1,
                "scaled_ops_per_cpu_s": plain["scaled_ops_per_cpu_s"]["value"]
                / traced["trace.scaled_ops_per_cpu_s"]["value"] - 1,
            }
            print(f"  tracing overhead: job_s {overhead['job_s']:+.1%}, "
                  f"scaled_ops_per_cpu_s {overhead['scaled_ops_per_cpu_s']:+.1%}")
            for name, m in traced.items():
                print(f"  ~ {name:<32} {m['value']:.6g} {m['unit']}")
            summary[workload] = {
                "correct": results[0][0]["correct"] and results[1][0]["correct"],
                "attempted": results[0][0]["attempted"],
                "failed": results[0][0]["failed"],
                "end_to_end": {k: v["value"] for k, v in plain.items()},
                "details": results[0][1],
                "per_layer": {k: v["value"] for k, v in traced.items()},
                "tracing_overhead": overhead,
            }
    print(json.dumps({"environment": common.environment(seed), "seconds": seconds,
                      "workloads": summary}, sort_keys=True))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of the measured part of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
