"""One workload run in its own process; `run.py` starts it.

The worker sets the workload up, then runs whole passes over the operations
in a closed loop with one caller until the time is up, and writes one JSON
line of results.  Each operation's latency is its fastest pass;
`ops_per_s` is the number of operations over the sum of those latencies, and
the percentiles are taken over them, each counted once per pass.

Set-up time runs from --started-at, the parent's time.monotonic() just
before it started this process, to the first timed operation; on Linux that
clock is shared by all processes.

With --trace 1 passes alternate between untraced and traced, so drift on a
shared machine hits both halves alike; the untraced half is the base of
`tracing.overhead_share`.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import corpus
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# A percentile is reported only with at least ten samples beyond it.
MIN_OPS = 100
# Past --seconds, keep going up to this long to reach MIN_OPS.
MAX_SECONDS = 120.0
MAX_REPORTED_FAILURES = 5


def load_program():
    """Import johnson_embed from this checkout's src, and from nowhere else."""
    if not (SRC / "johnson_embed" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no johnson_embed package under {SRC}")
    sys.path.insert(0, str(SRC))
    import johnson_embed
    if not Path(johnson_embed.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: johnson_embed imported from {johnson_embed.__file__}")


def measure(ops, seconds: float, trace: bool) -> dict:
    tracer = Tracer() if trace else None
    # latencies[traced][i] holds every latency of operation i.
    latencies = {False: [[] for _ in ops], True: [[] for _ in ops]}
    failures: list[str] = []
    attempted = failed = passes = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        enough = attempted >= MIN_OPS or elapsed >= MAX_SECONDS
        if elapsed >= seconds and enough and (not trace or passes >= 2):
            break
        traced = trace and passes % 2 == 1
        passes += 1
        with tracer if traced else nullcontext():
            for i, op in enumerate(ops):
                if traced:
                    tracer.begin_op()
                    dm_calls = tracer.calls["graphs.distance_matrix"]
                t0 = time.perf_counter()
                try:
                    output = op.run()
                except Exception as exc:  # an operation failing is a result, not a crash
                    dt = time.perf_counter() - t0
                    reason = f"{type(exc).__name__}: {exc}"
                else:
                    dt = time.perf_counter() - t0
                    try:
                        reason = op.check(output)
                    except (KeyError, IndexError, TypeError, ValueError) as exc:
                        reason = f"malformed answer: {type(exc).__name__}: {exc}"
                if reason is None and traced and op.decides:
                    calls = tracer.calls["graphs.distance_matrix"] - dm_calls
                    if calls != 1:
                        reason = f"graphs.distance_matrix called {calls} times"
                latencies[traced][i].append(dt)
                attempted += 1
                if reason is not None:
                    failed += 1
                    if len(failures) < MAX_REPORTED_FAILURES:
                        failures.append(f"{op.label}: {reason}")
    out = {"attempted": attempted, "failed": failed, "failures": failures, "passes": passes}
    # An operation's latency is its fastest repetition in the run, as timeit
    # advises: the program is deterministic, so a slower repetition only adds
    # interference from the rest of a shared host, whose speed drifts by a
    # third over minutes while its fastest spells recur within seconds.
    untraced = [min(lat) for lat in latencies[False]]
    if trace:
        traced_ops = sum(len(lat) for lat in latencies[True])
        layer = tracer.metrics(traced_ops)
        traced_best = [min(lat) for lat in latencies[True]]
        layer["tracing.overhead_share"] = sum(traced_best) / sum(untraced) - 1
        out["per_layer"] = layer
        out["absent"] = tracer.absent
    else:
        # Whole passes ran every operation equally often; counting each
        # operation's latency once per pass keeps ten samples beyond p90.
        weighted = [m for m, lat in zip(untraced, latencies[False]) for _ in lat]
        deciles = statistics.quantiles(weighted, n=10)
        out["end_to_end"] = {
            "ops_per_s": (1 - failed / attempted) * len(ops) / sum(untraced),
            "op_p50_ms": statistics.median(weighted) * 1000,
            "op_p90_ms": deciles[8] * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started-at", type=float, required=True,
                        help="the parent's time.monotonic() when it started this process")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up; used to time set-up repeatedly")
    args = parser.parse_args(argv)

    load_program()
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=scratch))
    try:
        setup = workloads.setup(args.workload, args.seed, workdir)
        setup_s = time.monotonic() - args.started_at
        result = {} if args.setup_only else measure(setup.ops, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = setup_s
    result["fingerprint"] = corpus.fingerprint(setup.inputs)
    result["inputs"] = len(setup.inputs)
    result["ops_per_pass"] = len(setup.ops)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
