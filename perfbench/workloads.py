"""The four serving workloads.

Each workload function takes a :class:`Ctx` and returns an
:class:`Outcome`: the end-to-end metrics of an untraced run, or -- with
``ctx.trace`` -- the per-layer metrics of a run whose first half is
untraced and whose second half is traced (the difference between the
halves is the tracing overhead).  Every answer is checked against an
oracle.  Every call into the program is a public one; the traced run
wraps those calls from here and never edits ``src/``.
"""

from __future__ import annotations

import asyncio
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import inputs
from common import (
    MARK_S,
    Tracer,
    cpu_seconds,
    host_ticks,
    keys_of_batch,
    mean,
    peak_rss_mb,
    pct,
    quiet,
    tail_pct,
    timed,
    trace_backend,
    untrace_backend,
)
from pacer import LAG_BOUND_MS, run_phase

CHUNK = 4096
RANGE_FRACTION = 0.1
_E_U64 = np.empty(0, dtype=np.uint64)


@dataclass
class Ctx:
    seed: int
    seconds: float
    trace: bool
    #: CPUs the run may use; its own threads are pinned to one of them.
    cpus: "frozenset[int]"
    log: "list[str]" = field(default_factory=list)

    def note(self, line: str) -> None:
        self.log.append(line)


@dataclass
class Outcome:
    metrics: "dict[str, float]"
    attempted: int
    failed: int
    wrong: int


@dataclass
class Loop:
    """What one closed-loop phase measured, in completion order."""

    lat_ms: np.ndarray
    done_at: np.ndarray
    work: np.ndarray
    start: float
    end: float
    wrong: int
    #: ``(time, busy, stolen)`` host ticks at the window boundaries.
    marks: np.ndarray

    @property
    def served(self) -> int:
        return int(self.work.sum())

    def _quiet(self) -> "tuple[np.ndarray, float]":
        """Mask of the dispatches completed in the run's quiet windows,
        and those windows' total length in seconds."""
        return quiet(self.marks, self.done_at)

    def latency(self, q: float) -> float:
        """``q``-th percentile of the dispatches in the quiet windows."""
        return pct(self.lat_ms[self._quiet()[0]], q)

    def e2e(self) -> "dict[str, float]":
        mask, seconds = self._quiet()
        return {
            "p50_ms": pct(self.lat_ms[mask], 50),
            "keys_per_s": float(self.work[mask].sum()) / seconds,
        }


class Recorder:
    """Collects one :class:`Loop` as a client records each dispatch."""

    def __init__(self) -> None:
        self.lat, self.done, self.work = [], [], []
        self.wrong = 0
        self.start = time.perf_counter()
        self.marks = [(self.start, *host_ticks())]

    def record(self, t0: float, work: int, wrong: int) -> None:
        now = time.perf_counter()
        self.lat.append(now - t0)
        self.done.append(now)
        self.work.append(work)
        self.wrong += wrong
        if now - self.marks[-1][0] >= MARK_S:
            self.marks.append((now, *host_ticks()))

    def loop(self) -> Loop:
        end = time.perf_counter()
        return Loop(np.asarray(self.lat) * 1e3, np.asarray(self.done),
                    np.asarray(self.work), self.start, end, self.wrong,
                    np.asarray([*self.marks, (end, *host_ticks())],
                               dtype=np.float64))


def build_index(keys: np.ndarray):
    from repro.baselines import INDEX_TYPES

    return INDEX_TYPES["rmi"](keys)


def backend():
    from repro.kernels import get_backend

    return get_backend("cext")


def median_parts(samples: "list[dict[str, float]]") -> "dict[str, float]":
    return {k: float(np.median([s[k] for s in samples]))
            for k in samples[0]}


def budget_line(name: str, p50_ms: float, self_us: "dict[str, float]") -> str:
    """Each layer's self time as a share of the traced p50, and their sum
    (the blocking path's coverage of the p50)."""
    shares = ", ".join(f"{k} {v / (p50_ms * 1e3) * 100:.0f}%"
                       for k, v in self_us.items())
    total = sum(self_us.values()) / (p50_ms * 1e3)
    return (f"{name} layer budget of traced p50 {p50_ms:.3f} ms: {shares}; "
            f"path sum / p50 = {total:.3f}")


# ---------------------------------------------------------------------------
# Layer probes shared by the workloads
# ---------------------------------------------------------------------------


def kernel_probes(index, queries: np.ndarray) -> "dict[str, float]":
    """Fig 13 split on the workload's own queries, plus exact counts."""
    from repro.kernels import pack_rmi
    from repro.workload.runner import trace_sample

    be = backend()
    packed, pack_s = timed(pack_rmi, index.rmi)
    keys = index.keys
    queries = np.ascontiguousarray(queries, dtype=np.uint64)
    # Fresh chunks for every repetition, so a large key set stays as
    # cold in cache as it is under the workload itself.
    reps = max(min(len(queries) // CHUNK, 41), 1)
    predict, lookup, fixed = [], [], []
    for r in range(reps):
        sample = queries[r * CHUNK:(r + 1) * CHUNK]
        predict.append(timed(be.rmi_predict, packed, sample)[1]
                       / len(sample))
        lookup.append(timed(be.rmi_lookup, packed, keys, sample)[1]
                      / len(sample))
        fixed.append(timed(be.rmi_serve, packed, keys, sample[:1], _E_U64,
                           _E_U64)[1])
    p_ns = float(np.median(predict)) * 1e9
    l_ns = float(np.median(lookup)) * 1e9
    counters = trace_sample(index.rmi, queries, sample=512)
    return {
        "kernels.pack_s": pack_s,
        "kernels.predict_ns_per_key": p_ns,
        "kernels.search_ns_per_key": l_ns - p_ns,
        "kernels.fixed_us_per_call": float(np.median(fixed)) * 1e6,
        "kernels.window_width_mean": counters.mean_interval,
        "kernels.comparisons_mean": counters.mean_comparisons,
        "kernels.model_evals_mean": counters.mean_evaluation_steps,
        "core.index_bytes": float(index.size_in_bytes()),
    }


def kernel_rate(groups) -> "dict[str, float]":
    spans = groups.get("kernel", [])
    work = sum(s.work for s in spans)
    busy = sum(s.duration for s in spans)
    return {"kernels.serve_ns_per_key": busy / work * 1e9 if work else 0.0}


def self_p50_us(groups, name: str) -> float:
    return pct([s.self_time() for s in groups.get(name, [])], 50) * 1e6


def children_p50_us(groups, name: str) -> float:
    return pct([sum(c.duration for c in s.children)
                for s in groups.get(name, [])], 50) * 1e6


@contextmanager
def traced_calls(tracer: Tracer, index):
    """Trace the kernels and ``index.serve_batch`` for the ``with`` body."""
    be = backend()
    trace_backend(tracer, be)
    index.serve_batch = tracer.wrap(index.serve_batch, "index",
                                    keys_of_batch)
    try:
        yield
    finally:
        untrace_backend(be)
        del index.serve_batch


def overhead_pct(traced: float, untraced: float) -> float:
    return (traced - untraced) / untraced * 100


async def setup_server(keys: np.ndarray, reps: int, writable: bool = False):
    """Keys in memory -> first answer served, ``reps`` times.

    Returns the last ``(server, index, daemon)``, still running, and the
    median of every set-up part.
    """
    from repro.serve.server import IndexServer
    from repro.writable import RebuildDaemon, WritableIndex

    parts = []
    state = None
    for _ in range(reps):
        if state is not None:
            await stop_server(*state)
        t0 = time.perf_counter()
        index, build_s = timed(build_index, keys)
        served = WritableIndex(index) if writable else index
        _, warm_s = timed(served.warm_kernels)
        server = IndexServer(served)
        t1 = time.perf_counter()
        await server.start()
        daemon = None
        if writable:
            daemon = await RebuildDaemon(served, server=server).start()
        start_s = time.perf_counter() - t1
        pos, _, _ = await server.serve_bulk(keys[:1], _E_U64, _E_U64)
        total = time.perf_counter() - t0
        if int(pos[0]) != 0:
            raise RuntimeError("first answer is wrong")
        parts.append({"setup_s": total, "core.build_s": build_s,
                      "kernels.warm_s": warm_s, "server.start_s": start_s})
        state = (server, served, daemon)
    return state, median_parts(parts)


async def stop_server(server, served, daemon) -> None:
    if daemon is not None:
        await daemon.stop()
    await server.stop()


# ---------------------------------------------------------------------------
# bulk-large: one client, one 4096-key chunk in flight
# ---------------------------------------------------------------------------


async def _bulk_loop(server, pool, seconds: float, tracer=None) -> Loop:
    rec = Recorder()
    t_end = rec.start + seconds
    i = 0
    while time.perf_counter() < t_end:
        q, want = pool.queries[i % len(pool)], pool.expected[i % len(pool)]
        i += 1
        if tracer is not None:
            span, token = tracer.begin("server", len(q))
            tracer.anchor = span
        t0 = time.perf_counter()
        pos, _, _ = await server.serve_bulk(q, _E_U64, _E_U64)
        if tracer is not None:
            tracer.end(span, token)
            tracer.anchor = None
        rec.record(t0, len(q), int(np.count_nonzero(pos != want)))
    return rec.loop()


async def bulk_large(ctx: Ctx) -> Outcome:
    keys = inputs.dataset("books", 16_000_000)
    pool = inputs.point_chunks(keys, np.random.default_rng(ctx.seed),
                               256, CHUNK)
    (server, index, _), setup = await setup_server(keys, reps=5)
    try:
        await _bulk_loop(server, pool, 0.1 * ctx.seconds)
        span = ctx.seconds / 2 if ctx.trace else ctx.seconds
        cpu0 = cpu_seconds()
        run = await _bulk_loop(server, pool, span)
        cpu = cpu_seconds() - cpu0
        wrong, attempted = run.wrong, run.served
        metrics = {
            "setup_s": setup["setup_s"],
            **run.e2e(),
            "index_bytes_per_key": index.size_in_bytes() / len(keys),
            "peak_rss_mb": peak_rss_mb(),
        }
        ctx.note(f"bulk-large: {len(run.lat_ms)} dispatches")
        if ctx.trace:
            tracer = Tracer()
            with traced_calls(tracer, index):
                traced = await _bulk_loop(server, pool, span, tracer)
            wrong += traced.wrong
            attempted += traced.served
            groups = tracer.finish()
            hop = self_p50_us(groups, "server")
            idx = self_p50_us(groups, "index")
            ker = pct([s.duration for s in groups["kernel"]], 50) * 1e6
            t_p50 = pct(traced.lat_ms, 50)
            metrics = {
                **{k: v for k, v in setup.items() if k != "setup_s"},
                **kernel_probes(index, pool.queries.ravel()),
                **kernel_rate(groups),
                "server.hop_us_per_dispatch": hop,
                "server.dispatches": float(len(groups["server"])),
                "index.self_us_per_call": idx,
                "process.cpu_s_per_mkey": cpu / (run.served / 1e6),
                "latency.p90_ms": run.latency(90),
                "trace.overhead_pct": overhead_pct(
                    traced.latency(50), metrics["p50_ms"]),
            }
            ctx.note(budget_line("bulk-large", t_p50, {
                "server": hop, "index": idx, "kernel": ker}))
    finally:
        await server.stop()
    if ctx.trace:
        # The cluster-2 load is not a benchmark workload of its own (its
        # timings do not repeat on a two-core host; see README.md), so
        # its router and cluster layers are measured here, on the same
        # bulk lane.
        del server, index, keys, pool
        layers, traced = await cluster_layers(ctx, ctx.seconds / 4)
        metrics.update(layers)
        wrong += traced.wrong
        attempted += traced.served
    return Outcome(metrics, attempted, wrong, wrong)


# ---------------------------------------------------------------------------
# rpc-small: the per-request lane under open-loop Poisson load
# ---------------------------------------------------------------------------

RATE_LOW = 2000.0
RATE_HIGH = 5000.0
#: Latency limit of ``max_qps_at_slo``: p90 from due time, ms.
SLO_MS = 10.0
#: Offered rates of the ladder, climbed until the limit is missed.
LADDER = tuple(float(r) for r in range(8000, 60001, 2000))
#: Requests per ladder rung.
RUNG_REQUESTS = 4000


def max_qps_at_slo(rungs) -> float:
    """Rate where the p90 crosses the limit, interpolated between rungs.

    A rung fails when its p90 exceeds :data:`SLO_MS` (a request not
    served counts as missing it) or its generator lag is out of bound.
    The crossing is interpolated linearly between the last passing and
    the first failing rung (a failing p90 is capped at twice the limit),
    so the figure moves smoothly with the server's capacity.
    """
    prev_rate, prev_ms = 0.0, 0.0
    for res in rungs:
        ms = res.tail_ms if res.valid else float("inf")
        if ms > SLO_MS:
            ms = min(ms, 2 * SLO_MS)
            frac = (SLO_MS - prev_ms) / (ms - prev_ms)
            return prev_rate + frac * (res.rate - prev_rate)
        prev_rate, prev_ms = res.rate, ms
    return prev_rate


def phase_line(name: str, res) -> str:
    """One human-readable line per phase.  A phase whose generator lag is
    out of bound is flagged here and never counts as meeting the limit
    on the ladder; the fixed-rate phases still report, since their
    latencies are timed from the due time and so include the lag."""
    lat = res.latency_ms
    flag = "" if res.valid else \
        f" [generator lag above {LAG_BOUND_MS} ms: invalid]"
    return (f"{name} {res.rate:.0f} qps: {res.attempted} requests, "
            f"p50/p90/p99 {pct(lat, 50):.3f}/{pct(lat, 90):.3f}/"
            f"{pct(lat, 99):.3f} ms, lag p99 {res.lag_p99_ms:.3f} ms, "
            f"not served {res.not_ok}{flag}")


async def rpc_small(ctx: Ctx) -> Outcome:
    keys = inputs.dataset("books", 200_000)
    rng = np.random.default_rng(ctx.seed)
    S = ctx.seconds

    def plan(rate: float, seconds: float):
        return inputs.request_plan(keys, rng, rate, seconds, RANGE_FRACTION)

    (server, index, _), setup = await setup_server(keys, reps=25)
    attempted = failed = wrong = 0

    def account(res, count_unserved: bool = True) -> None:
        nonlocal attempted, failed, wrong
        attempted += res.attempted
        wrong += res.wrong
        failed += res.wrong + (res.not_ok if count_unserved else 0)

    try:
        await run_phase(server, plan(RATE_LOW, 0.05 * S))  # warm-up
        cpu0 = cpu_seconds()
        low = await run_phase(server, plan(RATE_LOW, 0.6 * S))
        cpu_low = cpu_seconds() - cpu0
        high = await run_phase(server, plan(RATE_HIGH, 0.15 * S))
        cpu = cpu_seconds() - cpu0
        for res in (low, high):
            account(res)
            ctx.note(phase_line("rpc-small", res))
        if not ctx.trace:
            # The ladder's crossing point is printed, not reported: across
            # seeds it spreads by about a third of its median.
            rungs = []
            for rate in LADDER:
                res = await run_phase(server, plan(rate, RUNG_REQUESTS / rate))
                account(res, count_unserved=False)
                rungs.append(res)
                ctx.note(phase_line("rpc-small ladder", res))
                if not res.valid or res.tail_ms > SLO_MS:
                    break
            ctx.note(f"rpc-small max_qps_at_slo {max_qps_at_slo(rungs):.0f} "
                     f"(p90 <= {SLO_MS} ms)")
            metrics = {
                "setup_s": setup["setup_s"],
                "p50_ms": low.p50_ms,
                "keys_per_s": (low.attempted + high.attempted) / cpu,
                "index_bytes_per_key": index.size_in_bytes() / len(keys),
                "peak_rss_mb": peak_rss_mb(),
            }
        else:
            traced, layers = await _rpc_traced(server, index,
                                               plan(RATE_LOW, 0.5 * S))
            account(traced)
            kernel_us = layers.pop("kernel_p50_us")
            path = {"loadgen": pct(traced.lag_ms, 50) * 1e3,
                    "batcher": layers["batcher.wait_p50_ms"] * 1e3,
                    "server": layers["server.hop_us_per_dispatch"],
                    "index": layers["index.self_us_per_call"],
                    "kernel": kernel_us}
            t_p50 = pct(traced.latency_ms, 50)
            metrics = {
                **{k: v for k, v in setup.items() if k != "setup_s"},
                **kernel_probes(index, plan(RATE_LOW, 1.0).a),
                **layers,
                "process.cpu_s_per_mkey": cpu_low / (low.attempted / 1e6),
                "loadgen.lag_p99_ms": low.lag_p99_ms,
                "loadgen.high_p50_ms": high.p50_ms,
                "loadgen.high_p90_ms": high.tail_ms,
                "latency.p90_ms": low.tail_ms,
                "trace.overhead_pct": overhead_pct(traced.p50_ms,
                                                   low.p50_ms),
            }
            ctx.note(budget_line("rpc-small", t_p50, path))
    finally:
        await server.stop()
    return Outcome(metrics, attempted, failed, wrong)


async def _rpc_traced(server, index, plan):
    """One traced low-rate phase: batcher, server hop, index, kernel.

    The server's own dispatch loop is not a public call, so the batcher
    and hop figures come from wrapping the batcher's ``collect`` (when a
    batch leaves the queue, and when the loop next asks for one) around
    the index's ``serve_batch`` span.
    """
    tracer = Tracer()
    batcher = server.batcher
    collects = []  # (call start, return, return on the monotonic clock, batch)
    collect = batcher.collect

    async def traced_collect():
        t0 = time.perf_counter()
        batch = await collect()
        collects.append((t0, time.perf_counter(), time.monotonic(), batch))
        return batch

    rejected0 = int(server.metrics.rejected)
    batcher.collect = traced_collect
    try:
        with traced_calls(tracer, index):
            res = await run_phase(server, plan)
    finally:
        del batcher.collect
    groups = tracer.finish()
    waits, sizes = [], []
    for _, _, mono, batch in collects:
        if batch:
            sizes.append(len(batch))
            waits.extend(mono - r.enqueued_at for r in batch)
    starts = np.array([c[0] for c in collects])
    rets = np.array([c[1] for c in collects])
    hops = []
    for s in groups.get("index", []):
        i = np.searchsorted(rets, s.start) - 1   # batch being served
        j = np.searchsorted(starts, s.end)       # next collect call
        if i >= 0 and j < len(starts):
            hops.append((s.start - rets[i]) + (starts[j] - s.end))
    return res, {
        "batcher.wait_p50_ms": pct(waits, 50) * 1e3,
        "batcher.batch_size_mean": mean(sizes),
        "batcher.rejected": float(int(server.metrics.rejected) - rejected0),
        "server.hop_us_per_dispatch": pct(hops, 50) * 1e6,
        "server.dispatches": float(len(groups.get("index", []))),
        "index.self_us_per_call": self_p50_us(groups, "index"),
        "kernel_p50_us": pct([s.duration for s in groups.get("kernel", [])],
                             50) * 1e6,
        **kernel_rate(groups),
    }


# ---------------------------------------------------------------------------
# mixed-writes: writes beside reads through the writable tier
# ---------------------------------------------------------------------------

MIXED_WRITES = 1024      # per segment: 20% of the segment's operations
MIXED_DELETES = 0.4
MIN_REBUILDS = 3
#: Segments of the warm-up phase per second of ``--seconds``; its rate
#: sizes the measured phases so that each lasts about its share.
WARM_SEGMENTS_PER_S = 8


@dataclass
class MixedLoop:
    loop: Loop
    write_ms: np.ndarray
    writes: int
    deltas: "list[int]"
    stale_s: "list[float]"
    bytes_per_key: float


async def _mixed_loop(server, windex, segments, tracer=None) -> MixedLoop:
    """Closed loop of segments: one write burst, then one read chunk.

    Every segment runs: the oracle generated them in order and expects
    each write burst applied.
    """
    rec = Recorder()
    write_ms, deltas, stale, sizes = [], [], [], []
    writes = 0
    for n, seg in enumerate(segments):
        t0 = time.perf_counter()
        if tracer is not None:
            span, token = tracer.begin("server.write", len(seg.write_keys))
            tracer.anchor = span
        await server.apply_writes(seg.write_keys, seg.write_ops)
        write_ms.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end(span, token)
            span, token = tracer.begin("server", seg.reads)
            tracer.anchor = span
        pos, starts, counts = await server.serve_bulk(seg.points, seg.lows,
                                                      seg.highs)
        if tracer is not None:
            tracer.end(span, token)
            tracer.anchor = None
        rec.record(t0, seg.reads + len(seg.write_keys), int(
            np.count_nonzero(pos != seg.want_pos)
            + np.count_nonzero(starts != seg.want_starts)
            + np.count_nonzero(counts != seg.want_counts)))
        writes += len(seg.write_keys)
        deltas.append(windex.delta_len)
        stale.append(windex.staleness_s())
        if n % 16 == 0:
            sizes.append(windex.size_in_bytes() / windex.n)
    return MixedLoop(rec.loop(), np.asarray(write_ms) * 1e3, writes, deltas,
                     stale, mean(sizes))


async def mixed_writes(ctx: Ctx) -> Outcome:
    from repro.writable.rebuild import rebuilt_base_for

    keys = inputs.dataset("books", 2_000_000)
    (server, windex, daemon), setup = await setup_server(keys, reps=5,
                                                         writable=True)
    stream = inputs.MixedStream(
        windex.keys, np.random.default_rng(ctx.seed),
        reads=4 * MIXED_WRITES, writes=MIXED_WRITES,
        delete_share=MIXED_DELETES, range_fraction=RANGE_FRACTION)
    base_index = windex.base

    def segments(count: int):
        # Generated before the clock starts, oracle answers included.
        return [stream.next_segment() for _ in range(max(count, 1))]

    try:
        warm = await _mixed_loop(
            server, windex, segments(int(WARM_SEGMENTS_PER_S * ctx.seconds)))
        per_s = len(warm.loop.lat_ms) / (warm.loop.end - warm.loop.start)
        span = ctx.seconds / 2 if ctx.trace else ctx.seconds
        work = segments(int(per_s * span))
        rebuilds0 = daemon.rebuilds
        cpu0 = cpu_seconds()
        run = await _mixed_loop(server, windex, work)
        cpu = cpu_seconds() - cpu0
        rebuilds = daemon.rebuilds - rebuilds0
        wrong, attempted = run.loop.wrong, run.loop.served
        metrics = {
            "setup_s": setup["setup_s"],
            **run.loop.e2e(),
            "index_bytes_per_key": run.bytes_per_key,
            "peak_rss_mb": peak_rss_mb(),
        }
        ctx.note(f"mixed-writes: {len(run.loop.lat_ms)} segments, "
                 f"{run.writes} writes, {rebuilds} rebuilds")
        if rebuilds < MIN_REBUILDS:
            raise RuntimeError(f"only {rebuilds} rebuilds in the run; the "
                               f"workload needs {MIN_REBUILDS}")
        if ctx.trace:
            work = segments(int(per_s * span))
            tracer = Tracer()
            windex.apply = tracer.wrap(windex.apply, "writable.apply",
                                       lambda k, o: len(k))
            daemon.factory = tracer.wrap(
                lambda live: rebuilt_base_for(windex.base, live), "rebuild")
            try:
                with traced_calls(tracer, windex):
                    traced = await _mixed_loop(server, windex, work, tracer)
            finally:
                del windex.apply
                daemon.factory = None
            wrong += traced.loop.wrong
            attempted += traced.loop.served
            groups = tracer.finish()
            rebuild_spans = groups.get("rebuild", [])
            during = [s.duration for s in groups.get("server", [])
                      if any(s.start < r.end and r.start < s.end
                             for r in rebuild_spans)]
            applies = groups.get("writable.apply", [])
            serves = groups.get("index", [])
            path = {"write hop": self_p50_us(groups, "server.write"),
                    "writable.apply": self_p50_us(groups, "writable.apply"),
                    "server": self_p50_us(groups, "server"),
                    "index": self_p50_us(groups, "index"),
                    "kernel": children_p50_us(groups, "index")}
            t_p50 = pct(traced.loop.lat_ms, 50)
            sample = stream.live[np.random.default_rng(ctx.seed).integers(
                0, len(stream.live), 41 * CHUNK)]
            metrics = {
                **{k: v for k, v in setup.items() if k != "setup_s"},
                **kernel_probes(base_index, sample),
                **kernel_rate(groups),
                "server.hop_us_per_dispatch": path["server"],
                "server.dispatches": float(len(groups.get("server", []))),
                "index.self_us_per_call": path["index"],
                "writable.apply_us_per_write":
                    sum(s.duration for s in applies)
                    / max(sum(s.work for s in applies), 1) * 1e6,
                "writable.serve_ns_per_key":
                    sum(s.duration for s in serves)
                    / max(sum(s.work for s in serves), 1) * 1e9,
                "writable.delta_len_mean": mean(traced.deltas),
                "writable.delta_len_max": float(max(traced.deltas)),
                "writable.rebuilds": float(len(rebuild_spans)),
                "writable.rebuild_s_mean":
                    mean([s.duration for s in rebuild_spans]),
                "writable.staleness_max_ms": max(traced.stale_s) * 1e3,
                "writable.read_p99_during_rebuild_ms":
                    pct(during, tail_pct(len(during))) * 1e3,
                "writable.write_ops_per_s":
                    run.writes / (run.write_ms.sum() / 1e3),
                "writable.write_p99_ms":
                    pct(run.write_ms, tail_pct(len(run.write_ms))),
                "process.cpu_s_per_mkey": cpu / (run.loop.served / 1e6),
                "latency.p90_ms": run.loop.latency(90),
                "trace.overhead_pct": overhead_pct(
                    traced.loop.latency(50), metrics["p50_ms"]),
            }
            ctx.note(budget_line("mixed-writes", t_p50, path))
        # Exact final state: the served live keys equal the oracle's.
        if not np.array_equal(windex.keys, stream.live_keys()):
            wrong += 1
            ctx.note("mixed-writes: final live-key set differs")
    finally:
        await stop_server(server, windex, daemon)
    return Outcome(metrics, attempted, wrong, wrong)


# ---------------------------------------------------------------------------
# cluster-2: router scatter/gather over a two-process cluster
# ---------------------------------------------------------------------------

SHARDS = 2
#: Chunks in flight.  Two keep the router and both workers (each with an
#: event loop and an executor thread) asking for more than the host's
#: two cores, and a pipeline that oversubscribed turns every slowdown of
#: the host into a larger one of its own: over the same nine-run
#: interleaved series the p50 spread was 0.12 of the median with one
#: chunk in flight and 0.28 with two.
IN_FLIGHT = 1


async def setup_cluster(keys: np.ndarray, reps: int, cpus):
    """Keys in memory -> first routed answer, ``reps`` times.

    The shard workers may run on every CPU in ``cpus``, one per core;
    the router stays on the run's own CPU.
    """
    from repro.serve.cluster import Cluster
    from repro.serve.router import ShardRouter

    parts = []
    state = None
    for _ in range(reps):
        if state is not None:
            await stop_cluster(*state)
        t0 = time.perf_counter()
        cluster = Cluster(keys=keys, num_shards=SHARDS, index_type="rmi")
        pinned = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus)  # inherited by the forked workers
        try:
            await cluster.start()
        finally:
            os.sched_setaffinity(0, pinned)
        router = ShardRouter(cluster)
        await router.start()
        start_s = time.perf_counter() - t0
        pos = await router.lookup_batch(keys[-1:])
        total = time.perf_counter() - t0
        if int(pos[0]) != len(keys) - 1:
            raise RuntimeError("first answer is wrong")
        parts.append({"setup_s": total, "server.start_s": start_s})
        state = (cluster, router)
    return state, median_parts(parts)


async def stop_cluster(cluster, router) -> None:
    await router.stop()
    await cluster.stop()


async def _cluster_loop(router, pool, seconds: float, tracer=None) -> Loop:
    """:data:`IN_FLIGHT` closed-loop clients, one chunk in flight each."""
    rec = Recorder()
    t_end = rec.start + seconds

    async def client(c: int) -> None:
        i = c
        while time.perf_counter() < t_end:
            q, want = pool.queries[i % len(pool)], pool.expected[i % len(pool)]
            i += IN_FLIGHT
            if tracer is not None:
                span, token = tracer.begin("router", len(q))
            t0 = time.perf_counter()
            pos = await router.lookup_batch(q)
            if tracer is not None:
                tracer.end(span, token)
            rec.record(t0, len(q), int(np.count_nonzero(pos != want)))

    await asyncio.gather(*(client(c) for c in range(IN_FLIGHT)))
    return rec.loop()


def _worker_latency(states) -> "tuple[float, int]":
    """Summed serve_bulk seconds and dispatches over the shard workers."""
    total = count = 0
    for state in states:
        if state is not None:
            hist = state["histograms"]["latency_s"]
            total += hist["total"]
            count += hist["count"]
    return total, count


def _cluster_inputs(ctx: Ctx):
    keys = inputs.dataset("books", 2_000_000)
    pool = inputs.point_chunks(keys, np.random.default_rng(ctx.seed),
                               128, CHUNK)
    return keys, pool


async def _cluster_traced(ctx: Ctx, cluster, router, pool, seconds: float):
    """Traced router/cluster layers: ``(metrics, loop, dispatches)``."""
    tracer = Tracer()
    cluster.execute_bulk = tracer.wrap_async(
        cluster.execute_bulk, "cluster.call", lambda s, p, lo, hi: len(p))
    w_total0, w_count0 = _worker_latency(await cluster.shard_metrics())
    try:
        traced = await _cluster_loop(router, pool, seconds, tracer)
    finally:
        del cluster.execute_bulk
    w_total, w_count = _worker_latency(await cluster.shard_metrics())
    groups = tracer.finish()
    chunks = [s for s in groups["router"] if s.children]
    calls = groups["cluster.call"]
    worker_us = (w_total - w_total0) / max(w_count - w_count0, 1) * 1e6
    call_us = mean([s.duration for s in calls]) * 1e6
    router_us = self_p50_us(groups, "router")
    # The chunk waits for its slowest shard: that call is the blocking
    # path below the router.
    critical = pct([max(c.duration for c in s.children)
                    for s in chunks], 50) * 1e6
    skew = mean([max(c.work for c in s.children) / (s.work / SHARDS)
                 for s in chunks])
    ctx.note(budget_line("cluster-2", pct(traced.lat_ms, 50), {
        "router": router_us,
        "wire (critical shard)": critical - worker_us,
        "worker": worker_us}))
    return {
        "router.self_us_per_chunk": router_us,
        "router.shard_skew": skew,
        "cluster.call_us": call_us,
        "cluster.worker_us": worker_us,
        "cluster.wire_us": call_us - worker_us,
    }, traced, len(calls)


async def cluster_layers(ctx: Ctx, seconds: float):
    """The cluster-2 load, traced, for another workload's traced run:
    ``(router and cluster metrics, loop)``."""
    keys, pool = _cluster_inputs(ctx)
    (cluster, router), _ = await setup_cluster(keys, reps=1, cpus=ctx.cpus)
    try:
        await _cluster_loop(router, pool, 0.15 * seconds)
        layers, traced, _ = await _cluster_traced(ctx, cluster, router, pool,
                                                  seconds)
    finally:
        await stop_cluster(cluster, router)
    return layers, traced


async def cluster_2(ctx: Ctx) -> Outcome:
    keys, pool = _cluster_inputs(ctx)
    (cluster, router), setup = await setup_cluster(keys, reps=5, cpus=ctx.cpus)
    pids = [info["pid"] for info in cluster.worker_info]
    try:
        await _cluster_loop(router, pool, 0.15 * ctx.seconds)
        span = ctx.seconds / 2 if ctx.trace else ctx.seconds
        cpu0 = cpu_seconds(pids)
        run = await _cluster_loop(router, pool, span)
        cpu = cpu_seconds(pids) - cpu0
        wrong, attempted = run.wrong, run.served
        local = build_index(keys[:len(keys) // SHARDS])
        metrics = {
            "setup_s": setup["setup_s"],
            **run.e2e(),
            "index_bytes_per_key": SHARDS * local.size_in_bytes() / len(keys),
            "peak_rss_mb": peak_rss_mb(pids),
        }
        ctx.note(f"cluster-2: {len(run.lat_ms)} dispatches")
        if ctx.trace:
            layers, traced, calls = await _cluster_traced(
                ctx, cluster, router, pool, span)
            wrong += traced.wrong
            attempted += traced.served
            build_s = timed(build_index, keys[:len(keys) // SHARDS])[1]
            mine = pool.queries.ravel()
            metrics = {
                **kernel_probes(local, mine[mine <= local.keys[-1]]),
                "server.start_s": setup["server.start_s"],
                "core.build_s": build_s,
                **layers,
                "server.dispatches": float(calls),
                "process.cpu_s_per_mkey": cpu / (run.served / 1e6),
                "latency.p90_ms": run.latency(90),
                "trace.overhead_pct": overhead_pct(
                    traced.latency(50), metrics["p50_ms"]),
            }
    finally:
        await stop_cluster(cluster, router)
    return Outcome(metrics, attempted, wrong, wrong)
