"""Background rebuild: merge-sorted base construction + hot-swap.

The rebuild loop is what keeps the writable tier fast under sustained
writes: the delta buffer answers correctly at any size, but every
dirty lookup pays the three-pass merge arithmetic, and the base
index's compiled kernels are bypassed until the delta drains.  The
grouped closed-form fits (44x at 1M keys), and on the cext backend
the compiled RMI build (~5x faster again at 1M keys), are what make
*continuous* rebuilding affordable -- the default factory below
rebuilds through exactly that fast path (``RMIConfig.grouped_fit``
defaults on), and through the artifact cache when one is active, so a
rebuild over keys this process (or a previous run) already built is a
snapshot restore.

:class:`RebuildDaemon` runs the loop on the server's event loop:
snapshot (:meth:`~repro.writable.index.WritableIndex.begin_rebuild`),
build in a worker thread (NumPy releases the GIL, so serving
continues), publish (:meth:`finish_rebuild`), then notify the
:class:`~repro.serve.server.IndexServer` through ``swap_index`` -- the
swap counter, kernel warm-up, and the staleness gauge reset all ride
the server's existing hot-swap protocol.
"""

from __future__ import annotations

import asyncio
import hashlib
import logging
from typing import Any, Callable

import numpy as np

__all__ = ["default_base_factory", "rebuilt_base_for", "RebuildDaemon",
           "WritableFactory"]

log = logging.getLogger("repro.writable")


def rebuilt_base_for(base: Any, live_keys: np.ndarray) -> Any:
    """Build (or cache-restore) a same-type base over ``live_keys``.

    The writable tier's rebuild inputs are ad-hoc merged key arrays, so
    unlike :func:`repro.cache.index_for` (keyed by dataset coordinates)
    the cache address here is the SHA-256 of the key bytes themselves
    plus the base class name -- content-addressed like every other
    artifact.  Without an active cache this is a plain same-type build,
    which for ``RMIAsIndex`` takes the compiled or grouped-fit fast path.
    """
    from .. import cache as artifact_cache
    from ..cache.fingerprint import index_fingerprint

    live_keys = np.ascontiguousarray(live_keys, dtype=np.uint64)
    cls = type(base)
    store = artifact_cache.active_cache()
    if store is None:
        return cls(live_keys)
    digest = hashlib.sha256(live_keys.tobytes()).hexdigest()
    fp = index_fingerprint(digest, cls.__name__, {"rebuild": "writable"})
    path = store.get("indexes", fp)
    if path is not None:
        try:
            with np.load(path, allow_pickle=False) as data:
                state = {k: data[k] for k in data.files}
            return cls.restore_state(live_keys, state)
        except Exception:
            store.discard("indexes", fp)
    index = cls(live_keys)
    try:
        state = index.snapshot_state()
        store.put("indexes", fp, lambda tmp: _savez(tmp, state))
    except Exception:
        pass  # not snapshottable: rebuilt on every miss
    return index


def _savez(tmp, arrays: "dict[str, np.ndarray]") -> None:
    with open(tmp, "wb") as f:
        np.savez(f, **arrays)


def default_base_factory(base: Any) -> "Callable[[np.ndarray], Any]":
    """The factory :meth:`WritableIndex.rebuild` uses when given none."""
    return lambda live_keys: rebuilt_base_for(base, live_keys)


class WritableFactory:
    """Picklable ``factory(keys)`` building a writable shard index.

    Cluster worker specs cross a process boundary, so a closure cannot
    carry the wrap-in-``WritableIndex`` step; this class can.  Pass as
    ``Cluster(index_factory=WritableFactory("rmi"))`` to make every
    shard accept the ``write`` and ``"@rebuild"`` messages.
    """

    def __init__(self, index_type: str = "binary-search") -> None:
        from ..baselines import INDEX_TYPES

        if index_type not in INDEX_TYPES:
            raise KeyError(f"unknown index type {index_type!r}")
        self.index_type = index_type

    def __call__(self, keys: np.ndarray) -> Any:
        from ..baselines import INDEX_TYPES
        from .index import WritableIndex

        return WritableIndex(INDEX_TYPES[self.index_type](keys))


class RebuildDaemon:
    """Periodic background rebuild of one served ``WritableIndex``.

    Every ``interval_s`` the daemon checks the delta; once it holds at
    least ``min_delta`` entries, a rebuild runs in a worker thread and
    the result is swapped in.  With a ``server`` attached the swap goes
    through ``IndexServer.swap_index`` (same object, new base), which
    warms the new base's kernels, bumps the swap counter, and resets
    the staleness gauge.  ``rebuild_now`` forces one cycle -- the
    cluster's ``"@rebuild"`` shard swap and the tests use it.
    """

    def __init__(
        self,
        windex: Any,
        *,
        server: Any = None,
        interval_s: float = 0.05,
        min_delta: int = 1,
        factory: "Callable[[np.ndarray], Any] | None" = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if min_delta < 1:
            raise ValueError("min_delta must be >= 1")
        self.windex = windex
        self.server = server
        self.interval_s = float(interval_s)
        self.min_delta = int(min_delta)
        self.factory = factory
        self.rebuilds = 0
        self.skipped = 0
        self._task: "asyncio.Task | None" = None
        self._rebuilding = False

    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.done()

    async def start(self) -> "RebuildDaemon":
        if self.running:
            raise RuntimeError("rebuild daemon is already running")
        self._task = asyncio.create_task(self._loop(),
                                         name="repro-writable-rebuild")
        return self

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def __aenter__(self) -> "RebuildDaemon":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def _loop(self) -> None:
        while True:
            await asyncio.sleep(self.interval_s)
            try:
                await self.rebuild_now()
            except asyncio.CancelledError:
                raise
            except Exception:
                log.exception("background rebuild failed; will retry")

    async def rebuild_now(self, *, force: bool = False) -> bool:
        """One rebuild cycle; returns whether a swap was published.

        ``force=True`` ignores the ``min_delta`` trigger (any non-empty
        delta rebuilds) -- the drain path of benchmarks and tests that
        want a fully compacted final state regardless of batch sizing.
        """
        if self._rebuilding:
            return False  # a forced cycle raced the periodic one
        windex = self.windex
        if windex.delta_len < (1 if force else self.min_delta):
            return False
        ticket = windex.begin_rebuild()
        if not len(ticket.live_keys):
            self.skipped += 1
            return False  # everything deleted: nothing to build over
        factory = self.factory
        if factory is None:
            factory = default_base_factory(ticket.base)
        self._rebuilding = True
        try:
            new_base = await asyncio.to_thread(factory, ticket.live_keys)
            windex.finish_rebuild(new_base, ticket.watermark)
        finally:
            self._rebuilding = False
        self.rebuilds += 1
        if self.server is not None:
            # Re-swapping the same wrapper rides the server's hot-swap
            # protocol: kernel warm-up for the new base, swap counter,
            # staleness gauge reset.
            self.server.swap_index(windex)
        log.debug("rebuild %d: %d live keys, delta now %d",
                  self.rebuilds, len(ticket.live_keys), windex.delta_len)
        return True
