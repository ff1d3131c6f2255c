"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bulk-large --seed 1 --seconds 10 \\
        --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload, each in its own process, and
ends with one such object whose metric names carry the workload name.
The command exits non-zero on any wrong answer, and when the program
under test (``src/repro``) is missing.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("rpc-small", "bulk-large", "mixed-writes", "cluster-2")

#: name -> unit, in the order of BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "keys_per_s": "1/s",
    "index_bytes_per_key": "B",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics; a layer a workload never crosses reports 0.
PER_LAYER = {
    "batcher.wait_p50_ms": "ms",
    "batcher.batch_size_mean": "count",
    "batcher.rejected": "count",
    "server.hop_us_per_dispatch": "us",
    "server.dispatches": "count",
    "index.self_us_per_call": "us",
    "kernels.serve_ns_per_key": "ns",
    "kernels.fixed_us_per_call": "us",
    "kernels.predict_ns_per_key": "ns",
    "kernels.search_ns_per_key": "ns",
    "kernels.window_width_mean": "count",
    "kernels.comparisons_mean": "count",
    "kernels.model_evals_mean": "count",
    "core.build_s": "s",
    "kernels.pack_s": "s",
    "kernels.warm_s": "s",
    "server.start_s": "s",
    "core.index_bytes": "B",
    "writable.apply_us_per_write": "us",
    "writable.serve_ns_per_key": "ns",
    "writable.delta_len_mean": "count",
    "writable.delta_len_max": "count",
    "writable.rebuilds": "count",
    "writable.rebuild_s_mean": "s",
    "writable.staleness_max_ms": "ms",
    "writable.read_p99_during_rebuild_ms": "ms",
    "writable.write_ops_per_s": "1/s",
    "writable.write_p99_ms": "ms",
    "router.self_us_per_chunk": "us",
    "router.shard_skew": "ratio",
    "cluster.call_us": "us",
    "cluster.worker_us": "us",
    "cluster.wire_us": "us",
    "process.cpu_s_per_mkey": "s",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.high_p50_ms": "ms",
    "loadgen.high_p90_ms": "ms",
    "latency.p90_ms": "ms",
    "trace.overhead_pct": "%",
}


def _environment() -> None:
    """Confine every file the run writes to the benchmark directory."""
    cache = HERE / ".cache"
    (cache / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_KERNELS_CACHE"] = str(cache / "kernels")
    os.environ["REPRO_KERNELS"] = "cext"
    os.environ.pop("REPRO_CACHE_DIR", None)
    os.environ["TMPDIR"] = str(cache / "tmp")
    tempfile.tempdir = str(cache / "tmp")
    sys.path.insert(0, str(ROOT / "src"))


def _pin() -> "frozenset[int]":
    """Run on one CPU from here on; return the CPUs the run may use.

    Called before any thread starts, so every thread of the run (event
    loop, executors, rebuild daemon) inherits the pin.  On a host whose
    CPUs are shared with other tenants, a hand-off between threads on
    two CPUs waits whenever either CPU is taken away, and timings of
    the same code then spread by a fifth to two fifths of their median
    between runs; on one CPU they spread by about a tenth.
    """
    cpus = frozenset(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(cpus)})
    return cpus


def run_all(args) -> int:
    """Every workload in a fresh process; one combined result line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        print(f"== {name} (exit {proc.returncode})")
        print(proc.stdout, end="")
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            total["correct"] = False
            continue
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            total["metrics"][f"{name}:{metric}"] = m
    print(json.dumps(total))
    return worst


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing "
              f"({ROOT / 'src' / 'repro'})", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    _environment()
    cpus = _pin()

    import workloads
    from repro.kernels import set_default_backend

    set_default_backend("cext")
    workloads.backend()  # compile/load the C kernels before any timing
    ctx = workloads.Ctx(seed=args.seed, seconds=args.seconds,
                        trace=bool(args.trace), cpus=cpus)
    runner = getattr(workloads, args.workload.replace("-", "_"))
    try:
        outcome = asyncio.run(runner(ctx))
    finally:
        for line in ctx.log:
            print(line)
    names = PER_LAYER if ctx.trace else END_TO_END
    missing = set(outcome.metrics) - set(names)
    if missing:
        raise RuntimeError(f"undeclared metrics {sorted(missing)}")
    metrics = {name: {"value": float(outcome.metrics.get(name, 0.0)),
                      "unit": unit} for name, unit in names.items()}
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {outcome.attempted}, failed {outcome.failed}, "
          f"wrong {outcome.wrong}")
    print(json.dumps({
        "correct": outcome.wrong == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0 if outcome.wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
