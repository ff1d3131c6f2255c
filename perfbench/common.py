"""Shared helpers: statistics, the in-memory span tracer, process probes.

The tracer records spans from the benchmark's side of each public call
(name, start, end, parent, work count) and never touches ``src/``: a
traced call is the original bound method wrapped in a closure that the
benchmark installs on the object it created.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

_TICKS = os.sysconf("SC_CLK_TCK")


def pct(values, q: float) -> float:
    """``q``-th percentile of ``values`` (0.0 for an empty sample)."""
    arr = np.asarray(values, dtype=np.float64)
    return float(np.percentile(arr, q)) if len(arr) else 0.0


def host_ticks() -> "tuple[int, int]":
    """``(busy, stolen)`` CPU ticks so far of the CPU this thread is
    pinned to (of the whole machine when it is not pinned).

    Stolen ticks (``/proc/stat``) are time a CPU of this virtual machine
    wanted to run and the host ran another tenant instead; a machine
    that reports none reads 0.
    """
    cpus = os.sched_getaffinity(0)
    name = f"cpu{min(cpus)}" if len(cpus) == 1 else "cpu"
    with open("/proc/stat") as f:
        row = next(line.split() for line in f if line.split()[0] == name)
    ticks = [int(x) for x in row[1:9]]
    ticks += [0] * (8 - len(ticks))
    user, nice, system, _idle, _iowait, irq, softirq, steal = ticks
    return user + nice + system + irq + softirq, steal


#: A measured phase marks host ticks at most this often, in seconds;
#: the marks cut it into windows.
MARK_S = 0.25
#: Share of those windows, the least disturbed by the host, that a
#: phase's timings are taken from.
QUIET_SHARE = 0.25


def quiet(marks, times) -> "tuple[np.ndarray, float]":
    """Which of the events at ``times`` fell in the windows the host
    disturbed least, and those windows' total length in seconds.

    ``marks`` are ``(time, busy, stolen)`` rows in time order, from the
    clock of ``times``.  A window's disturbance is its stolen share of
    the CPU time the machine wanted, which does not depend on how busy
    the program keeps it; the windows at or below the
    :data:`QUIET_SHARE` quantile of that share are kept (on an
    undisturbed host: every window).
    """
    m = np.asarray(marks, dtype=np.float64)
    busy, stolen = np.diff(m[:, 1]), np.diff(m[:, 2])
    share = stolen / np.maximum(busy + stolen, 1.0)
    keep = share <= np.quantile(share, QUIET_SHARE, method="lower")
    window = np.clip(np.searchsorted(m[:, 0], times, "right") - 1,
                     0, len(keep) - 1)
    return keep[window], float(np.diff(m[:, 0])[keep].sum())


def mean(values) -> float:
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()) if len(arr) else 0.0


def tail_pct(n: int) -> float:
    """Highest percentile with at least ten samples beyond it (<= 99)."""
    return 99.0 if n >= 1000 else max(50.0, 100.0 * (1.0 - 10.0 / max(n, 1)))


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


@dataclass
class Span:
    sid: int
    name: str
    start: float
    parent: "int | None"
    work: int = 0
    end: float = 0.0
    children: "list[Span]" = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        """Duration minus the part of it that child spans cover."""
        covered = 0.0
        cursor = self.start
        for child in sorted(self.children, key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return self.duration - covered


class Tracer:
    """Spans kept in memory; parents follow the caller's context.

    Within one thread or asyncio task the parent is the innermost open
    span (a ``ContextVar``).  A call handed to another thread without
    its context (``run_in_executor``) falls back to :attr:`anchor`,
    which a single-in-flight client sets to its open dispatch span.
    """

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self.anchor: "Span | None" = None
        self._ids = itertools.count(1)
        self._current: "contextvars.ContextVar[Span | None]" = \
            contextvars.ContextVar("perfbench_span", default=None)

    def begin(self, name: str, work: int = 0) -> "tuple[Span, object]":
        parent = self._current.get() or self.anchor
        span = Span(next(self._ids), name, time.perf_counter(),
                    parent.sid if parent is not None else None, work)
        return span, self._current.set(span)

    def end(self, span: Span, token: object) -> None:
        span.end = time.perf_counter()
        self._current.reset(token)
        self.spans.append(span)

    def wrap(self, fn, name: str, work=lambda *a: 0):
        """Trace a synchronous callable; ``work(*args)`` counts its keys."""
        def traced(*args, **kwargs):
            span, token = self.begin(name, work(*args))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span, token)
        return traced

    def wrap_async(self, fn, name: str, work=lambda *a: 0):
        async def traced(*args, **kwargs):
            span, token = self.begin(name, work(*args))
            try:
                return await fn(*args, **kwargs)
            finally:
                self.end(span, token)
        return traced

    def finish(self) -> "dict[str, list[Span]]":
        """Link children to parents; return spans grouped by name."""
        by_id = {s.sid: s for s in self.spans}
        groups: "dict[str, list[Span]]" = {}
        for s in self.spans:
            if s.parent in by_id:
                by_id[s.parent].children.append(s)
            groups.setdefault(s.name, []).append(s)
        return groups


def keys_of_batch(points, lows=(), highs=()) -> int:
    return len(points) + 2 * len(lows)


def keys_of_kernel(packed, keys, points, lows=None, highs=None) -> int:
    return len(points) + (2 * len(lows) if lows is not None else 0)


def trace_backend(tracer: Tracer, backend) -> None:
    """Trace the kernel entry points the serving path calls."""
    backend.rmi_serve = tracer.wrap(backend.rmi_serve, "kernel",
                                    keys_of_kernel)
    backend.rmi_lookup = tracer.wrap(backend.rmi_lookup, "kernel",
                                     keys_of_kernel)
    backend.delta_correct = tracer.wrap(
        backend.delta_correct, "kernel.delta",
        lambda dk, corr, base, q: len(q))


def untrace_backend(backend) -> None:
    for name in ("rmi_serve", "rmi_lookup", "delta_correct"):
        backend.__dict__.pop(name, None)


# ---------------------------------------------------------------------------
# Process probes
# ---------------------------------------------------------------------------


def cpu_seconds(pids=()) -> float:
    """CPU time of this process plus the live processes ``pids``."""
    total = time.process_time()
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / _TICKS
        except OSError:
            pass
    return total


def peak_rss_mb(pids=()) -> float:
    """Peak resident set of this process plus the live ``pids``, MB."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def timed(fn, *args):
    """``(result, seconds)`` of one call."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0
