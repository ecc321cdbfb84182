"""Decision benchmark for johnson_embed.

One workload, as a result line (the last line of stdout is JSON):

    python3 perfbench/run.py --workload families-accept --seed 1 --seconds 40 --trace 0

Every workload, as tables of end-to-end or (--trace 1) per-layer metrics:

    python3 perfbench/run.py --seed 1 --seconds 40 [--trace 1]

Every workload, both kinds of metrics, written with the environment to a file:

    python3 perfbench/run.py --seed 1 --seconds 40 --record perfbench/baseline.json

Each workload runs in its own worker process (worker.py), so peak RSS belongs
to that workload.  Set-up is timed in SETUP_RUNS extra processes that stop
after set-up, and `setup_s` is the median over those and the measured one.
Run from the root of a checkout; the program is imported from its `src`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402  (needs HERE on sys.path)
import workloads  # noqa: E402

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_RUNS = 5
# Keeps a whole run, set-up processes included, under 180 seconds.
WORKER_TIMEOUT = 165.0

# Which end-to-end metric each layer metric should move, and on which workload.
LAYER_MAP = [
    {"layer": "graphs.is_convex.*", "moves": ["ops_per_s", "op_p90_ms"],
     "workload": "families-accept"},
    {"layer": "graphs.distance_matrix.self_ms, graphs.Graph.self_ms",
     "moves": ["op_p50_ms", "ops_per_s"], "workload": "random-reject"},
    {"layer": "walls.w_sets.self_ms, graphs.induced_components.self_ms",
     "moves": ["op_p50_ms"], "workload": "families-accept"},
    {"layer": "embedder.verify_embedding.self_ms, embedder.run_pipeline.self_ms",
     "moves": ["op_p50_ms", "peak_rss_mb"], "workload": "families-accept"},
    {"layer": "cli.*, matroid.*, graphs.parse_graph, graphs.induced_is_pattern",
     "moves": ["op_p50_ms", "op_p90_ms"], "workload": "cli-small"},
]
GAPS = [
    "Q7, J(4,8) and the scale graphs Q12, J(5,11) and C1024 take 5-35 s or more "
    "each at this commit; they wait for a later benchmark change.",
    "The oracle layer is a cross-check only and is not timed.",
    "In-program per-stage statistics (PipelineRun.stats, --stats) are a later change.",
    "failed_share is 0 on a correct program, and BENCHMARK.json lists only metrics "
    "that are never 0, so failed_share is printed and reported as failed/attempted "
    "instead of being listed there.",
]


class BenchError(RuntimeError):
    """A worker failed to start, crashed or timed out."""


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               setup_only: bool, timeout: float) -> dict:
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--started-at", repr(started)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{workload}: worker timed out after {timeout:.0f} s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Set-up-only processes (untraced runs only), then the measured worker."""
    deadline = time.monotonic() + WORKER_TIMEOUT
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS):
            setups.append(run_worker(workload, seed, seconds, 0, True,
                                     deadline - time.monotonic())["setup_s"])
    result = run_worker(workload, seed, seconds, trace, False, deadline - time.monotonic())
    setups.append(result["setup_s"])
    if not trace:
        result["end_to_end"]["setup_s"] = statistics.median(setups)
    return result


def _unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    return "ms" if name.endswith("_ms") else "share" if name.endswith("_share") else "count"


def metrics_doc(result: dict, trace: int) -> dict:
    values = result["per_layer" if trace else "end_to_end"]
    return {name: {"value": value, "unit": _unit(name)} for name, value in values.items()}


def describe(workload: str, seed: int, result: dict, trace: int) -> list[str]:
    attempted, failed = result["attempted"], result["failed"]
    lines = [f"{workload}: seed={seed} corpus_sha256={result['fingerprint']} "
             f"inputs={result['inputs']} ops_per_pass={result['ops_per_pass']} "
             f"passes={result['passes']} samples={attempted} "
             f"failed_share={failed / attempted:.4f} ({failed}/{attempted})"]
    lines += [f"  FAILED {reason}" for reason in result["failures"]]
    if result.get("absent"):
        lines.append("  absent from the program: " + ", ".join(result["absent"]))
    if not trace:
        return lines + [f"  {name:12} {result['end_to_end'][name]:12.4f} {unit}"
                        for name, unit in END_TO_END.items()] + [
            f"  {'failed_share':12} {failed / attempted:12.4f} share"]
    layer = result["per_layer"]
    busiest = sorted((name for name in tracer.traced_names() if layer[f"{name}.calls"]),
                     key=lambda name: -layer[f"{name}.self_ms"])
    lines.append(f"  {'per operation':34} {'self ms':>12} {'calls':>12}")
    lines += [f"  {name:34} {layer[name + '.self_ms']:12.4f} {layer[name + '.calls']:12.2f}"
              for name in busiest]
    return lines + [f"  {name:34} {value:12.4f}" for name, value in layer.items()
                    if not name.endswith((".calls", ".self_ms"))]


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=30).stdout.strip()
    except OSError:
        commit = ""
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "loadavg_start": os.getloadavg(), "commit": commit or "unknown"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(workloads.WHY),
                        help="run one workload and print its result line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="run every workload untraced and traced; write them here")
    args = parser.parse_args(argv)

    try:
        if args.workload:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
            print("\n".join(describe(args.workload, args.seed, result, args.trace)))
            print(json.dumps({"correct": result["failed"] == 0,
                              "attempted": result["attempted"], "failed": result["failed"],
                              "metrics": metrics_doc(result, args.trace)}))
            return 0
        env = environment() if args.record else None
        entries = {}
        for name, why in workloads.WHY.items():
            entry = entries[name] = {"why": why}
            for trace in ((0, 1) if args.record else (args.trace,)):
                result = run_workload(name, args.seed, args.seconds, trace)
                print("\n".join(describe(name, args.seed, result, trace)), flush=True)
                entry.update(fingerprint=result["fingerprint"], inputs=result["inputs"])
                entry["per_layer" if trace else "end_to_end"] = result[
                    "per_layer" if trace else "end_to_end"]
                if not trace:
                    entry.update(samples=result["attempted"],
                                 failed_share=result["failed"] / result["attempted"])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.record:
        env["loadavg_end"] = os.getloadavg()
        record = {"environment": env, "seed": args.seed, "seconds": args.seconds,
                  "units": dict(END_TO_END, per_layer="per operation: calls and counts; "
                                "self_ms in ms; shares are fractions"),
                  "workloads": entries, "layer_map": LAYER_MAP, "gaps": GAPS}
        args.record.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
