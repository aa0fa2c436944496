#!/usr/bin/env python3
"""concatqec benchmark: one workload per run, one closed-loop client.

Usage, from the repository root:

    python3 perfbench/run.py --workload wr-mixed --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/README.md for why each exists): ``wr-mixed``,
``pq-correctable`` and ``graph-cold``.  The package is imported from
``src/`` next to this directory; nothing is installed.

A run sets up, runs untimed warm-up ops, then times ops one after another
until ``--seconds`` of op time have passed and at least the workload's
fixed prefix of ops is done.  Every op's output is checked after its
timer stops; a failed check or an exception counts the op as failed.

Standard output ends with two JSON lines: the run's context, then the
result ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
fixed prefix runs traced and gives the per-layer metrics, and the rest of
the time runs untraced to measure the tracing overhead.  ``--smoke`` runs
a handful of ops for the benchmark's own test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPANS_DIR = HERE / "out"
# Listed here, not taken from workloads.py, so that parsing arguments does not
# import numpy before set-up is timed.
WORKLOADS = ("wr-mixed", "pq-correctable", "graph-cold")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fixed op counts, one set-up, no warm-up")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up once and print the set-up time")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; returns the cap."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)
    return min(int(os.environ[var]) for var in BLAS_THREAD_VARS)


def timed_setup(name: str, seed: int, smoke: bool):
    """Import the package and build the workload; returns (seconds, workload)."""
    t0 = time.perf_counter()
    import concatqec
    import workloads
    w = workloads.WORKLOADS[name](seed, smoke)
    elapsed = time.perf_counter() - t0
    if Path(concatqec.__file__).resolve().parent != SRC / "concatqec":
        raise SystemExit(f"imported concatqec from {concatqec.__file__}, "
                         f"not from {SRC}")
    return elapsed, w


def probe_setup(name: str, seed: int, smoke: bool) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


class Loop:
    """Runs ops in order, times each, checks each after its timer stops."""

    def __init__(self, w: Any, prefix_ops: int) -> None:
        from workloads import TIMED_STREAM, WARMUP_STREAM
        self.timed_stream, self.warmup_stream = TIMED_STREAM, WARMUP_STREAM
        self.w = w
        self.prefix_ops = prefix_ops
        self.prefix_peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.outputs = hashlib.sha256()

    def run_op(self, stream: int, i: int, tracer: Any = None) -> float:
        inp = self.w.make_input(stream, i)
        out = error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = self.w.op(inp)
            else:
                out = tracer.run_op(i, self.w.op, inp)
        except Exception as exc:  # an op that raises is a failed op
            error = exc
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        ok = False
        if error is None:
            try:
                ok = self.w.check(inp, out)
                if ok and stream == self.timed_stream and i < self.prefix_ops:
                    self.outputs.update(repr(self.w.outputs_key(inp, out)).encode())
            except Exception as exc:  # a check that raises is a failed op
                error = exc
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"stream {stream} op {i}: "
                                     + (repr(error) if error else "check failed"))
        return elapsed

    def timed(self, first: int, min_ops: int, seconds: float,
              max_ops: Optional[int], tracer: Any = None) -> List[float]:
        """Latencies of ops ``first, first + 1, ...``: at least ``min_ops``,
        then on until ``seconds`` of op time or ``max_ops`` ops in total."""
        latencies: List[float] = []
        total = 0.0
        i = first
        while len(latencies) < min_ops or total < seconds:
            if max_ops is not None and i >= max_ops:
                break
            latencies.append(self.run_op(self.timed_stream, i, tracer))
            total += latencies[-1]
            i += 1
            if i == self.prefix_ops:
                self.prefix_peak_rss_mb = peak_rss_mb()
        return latencies


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_info() -> Dict[str, Any]:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    blas_threads = cap_blas_threads()
    if not (SRC / "concatqec" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        elapsed, _w = timed_setup(args.workload, args.seed, args.smoke)
        print(json.dumps({"setup_s": elapsed}))
        return 0

    probes = [probe_setup(args.workload, args.seed, args.smoke)
              for _ in range(1 if args.smoke else SETUP_PROBES)]
    inproc_setup_s, w = timed_setup(args.workload, args.seed, args.smoke)
    setup_samples = probes + [inproc_setup_s]

    import numpy as np

    fixed_ops = w.SMOKE_OPS if args.smoke else w.FIXED_OPS
    loop = Loop(w, fixed_ops)
    warmup_ops = 0 if args.smoke else w.WARMUP_OPS
    for i in range(warmup_ops):
        loop.run_op(loop.warmup_stream, i)
    seconds = 0.0 if args.smoke else args.seconds

    context: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads_cap": blas_threads, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas_info(),
        "setup_samples_s": setup_samples, "warmup_ops": warmup_ops,
        "fixed_prefix_ops": fixed_ops,
    }

    if args.trace == 0:
        latencies = loop.timed(0, fixed_ops, seconds, w.max_ops)
        context["timed_ops"] = len(latencies)
        if len(latencies) >= 100:
            context["latency_p90_ms"] = (
                1e3 * statistics.quantiles(latencies, n=10)[-1])
        metrics = {
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (loop.prefix_peak_rss_mb, "MB"),
        }
    else:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced = loop.timed(0, fixed_ops, 0.0, w.max_ops, tracer)
        finally:
            tracer.uninstall()
        untraced = loop.timed(len(traced), 1, seconds - sum(traced), w.max_ops)
        spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(spans_path)
        context.update(traced_ops=len(traced), untraced_ops=len(untraced),
                       spans=len(tracer.names),
                       spans_file=str(spans_path.relative_to(HERE.parent)))
        layer = tracer.layer_metrics(len(traced), w.fresh_graph_per_op)
        throughput_ratio = ((len(traced) / sum(traced))
                            / (len(untraced) / sum(untraced)) if untraced else 0.0)
        metrics = {name: (value, _unit(name)) for name, value in layer.items()}
        metrics["trace.throughput_ratio"] = (throughput_ratio, "ratio")

    context.update(attempted=loop.attempted, failed=loop.failed,
                   error_rate=loop.failed / loop.attempted,
                   failures=loop.failures,
                   outputs_sha256=loop.outputs.hexdigest(),
                   peak_rss_mb_end=peak_rss_mb())
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("bytes_computed"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
