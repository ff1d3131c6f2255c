"""Paced open-loop load generator for the per-request lane.

One coroutine walks the arrival schedule and starts each request when
it falls due, so no request exists before its due time and the event
loop never holds a backlog of sleeping coroutines.  Latency is timed
from the due time (a generator or server stall is charged to every
request it delays), and the generator's own lateness is recorded per
request as *lag*: when the request actually entered the server minus
when it was due.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

import numpy as np

from common import MARK_S, host_ticks, pct, quiet

#: A phase whose generator lag at the :data:`TAIL` percentile exceeds
#: this is invalid: its latencies would measure the generator, not the
#: server.  The check, like the phase's latencies, is taken over the
#: requests due in the host's quiet windows (``common.quiet``).
LAG_BOUND_MS = 5.0

#: Tail percentile of the per-request lane.  Host CPU steal arrives in
#: 5-20 ms bursts covering a few percent of wall time, so a p99 here
#: measures the host more than the server and does not repeat between
#: runs; p90 lies below that noise.
TAIL = 90

#: Latency charged to a request that was not served (rejected, timed
#: out, failed): it misses every limit.
UNSERVED_MS = 1e6


@dataclass
class PhaseResult:
    rate: float
    latency_ms: np.ndarray  # from due time; inf for a request not served
    lag_ms: np.ndarray
    wrong: int
    not_ok: int             # rejected + timeout + error
    due: np.ndarray         # due times, on the clock of ``marks``
    #: ``(time, busy, stolen)`` host ticks at the window boundaries.
    marks: np.ndarray

    @property
    def attempted(self) -> int:
        return len(self.latency_ms)

    @property
    def lag_p99_ms(self) -> float:
        return pct(self.lag_ms, 99)

    @property
    def p50_ms(self) -> float:
        return pct(self._served_ms()[self._quiet()], 50)

    @property
    def tail_ms(self) -> float:
        """The :data:`TAIL` percentile; a request not served misses."""
        return pct(self._served_ms()[self._quiet()], TAIL)

    def _served_ms(self) -> np.ndarray:
        return np.where(np.isinf(self.latency_ms), UNSERVED_MS,
                        self.latency_ms)

    def _quiet(self) -> np.ndarray:
        """Mask of the requests due in the phase's quiet windows."""
        return quiet(self.marks, self.due)[0]

    @property
    def valid(self) -> bool:
        return pct(self.lag_ms[self._quiet()], TAIL) <= LAG_BOUND_MS


async def run_phase(server, plan) -> PhaseResult:
    """Offer ``plan`` (an :class:`inputs.RequestPlan`) to ``server``."""
    loop = asyncio.get_running_loop()
    m = len(plan)
    latency = np.full(m, np.inf)
    lag = np.zeros(m)
    wrong = not_ok = 0
    t0 = loop.time() + 0.005
    due = t0 + plan.offsets
    marks = [(loop.time(), *host_ticks())]

    async def one(i: int) -> None:
        nonlocal wrong, not_ok
        lag[i] = loop.time() - due[i]
        if plan.is_range[i]:
            resp = await server.range_query(int(plan.a[i]), int(plan.b[i]))
        else:
            resp = await server.lookup(int(plan.a[i]))
        if not resp.ok:
            not_ok += 1
            return
        latency[i] = loop.time() - due[i]
        if resp.position != plan.want_pos[i] or (
                plan.is_range[i] and resp.count != plan.want_count[i]):
            wrong += 1

    # Only unfinished requests stay referenced: a list of every task
    # would keep the phase's whole history alive for the collector to
    # traverse, and its pauses would land in the measured tail.  A
    # finished task's exception is kept and re-raised after the phase.
    pending: "set[asyncio.Task]" = set()
    errors: "list[BaseException]" = []

    def finished(task: asyncio.Task) -> None:
        pending.discard(task)
        if not task.cancelled() and task.exception() is not None:
            errors.append(task.exception())

    i = 0
    while i < m:
        wait = due[i] - loop.time()
        if wait > 0:
            await asyncio.sleep(wait)
        now = loop.time()
        if now - marks[-1][0] >= MARK_S:
            marks.append((now, *host_ticks()))
        while i < m and due[i] <= now:
            task = asyncio.create_task(one(i))
            pending.add(task)
            task.add_done_callback(finished)
            i += 1
    while pending:
        await asyncio.wait(set(pending))
    if errors:
        raise errors[0]
    marks.append((loop.time(), *host_ticks()))
    return PhaseResult(plan.rate, latency * 1e3, lag * 1e3, wrong, not_ok,
                       due, np.asarray(marks, dtype=np.float64))
