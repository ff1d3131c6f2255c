"""Benchmark inputs: cached key sets, query pools, and the write stream.

Everything here runs before the timed region.  Key sets are the repo's
synthesized SOSD stand-ins (``repro.data.generate``) cached as ``.npy``
under ``perfbench/.cache`` by ``(dataset, n, data seed)``; the key set
is fixed per workload, the way the real ``books`` file is fixed, and the
run's ``--seed`` drives every query, arrival time and write.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CACHE_DIR = Path(__file__).resolve().parent / ".cache"

#: Seed of the synthesized key set (the repo-wide default data seed).
DATA_SEED = 42

#: Widest range query, in key positions.
MAX_RANGE_SPAN = 100


def dataset(name: str, n: int, seed: int = DATA_SEED) -> np.ndarray:
    """Sorted unique uint64 keys, generated once and cached.

    A missing key set is generated in a child process, so that the first
    run in a checkout has the same peak resident set as every later one.
    """
    path = CACHE_DIR / f"{name}-{n}-{seed}.npy"
    if not path.exists():
        src = Path(__file__).resolve().parent.parent / "src"
        subprocess.run([sys.executable, __file__, name, str(n), str(seed)],
                       check=True, env={**os.environ, "PYTHONPATH": str(src)})
    return np.load(path)


def _generate(name: str, n: int, seed: int) -> None:
    from repro.data import generate

    keys = np.ascontiguousarray(generate(name, n=n, seed=seed),
                                dtype=np.uint64)
    if len(keys) != n or np.any(keys[1:] <= keys[:-1]):
        raise ValueError(f"{name} n={n}: keys must be sorted and unique")
    path = CACHE_DIR / f"{name}-{n}-{seed}.npy"
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}.npy")
    np.save(tmp, keys)
    os.replace(tmp, path)


def ranges(keys: np.ndarray, rng: np.random.Generator, m: int):
    """``m`` half-open ranges ``[low, high)`` over existing keys."""
    n = len(keys)
    at = rng.integers(0, n, m)
    span = rng.integers(0, MAX_RANGE_SPAN + 1, m)
    lows = keys[at]
    highs = keys[np.minimum(at + span, n - 1)]
    return lows, highs


@dataclass
class Chunks:
    """A pool of point-lookup chunks with their expected answers."""

    queries: np.ndarray   # (count, size) uint64
    expected: np.ndarray  # (count, size) int64

    def __len__(self) -> int:
        return len(self.queries)


def point_chunks(keys: np.ndarray, rng: np.random.Generator,
                 count: int, size: int) -> Chunks:
    """Uniform point lookups over the indexed keys, oracle included."""
    queries = keys[rng.integers(0, len(keys), (count, size))]
    expected = np.searchsorted(keys, queries.ravel(), side="left")
    return Chunks(queries, expected.reshape(count, size).astype(np.int64))


@dataclass
class RequestPlan:
    """One open-loop phase: arrival offsets and per-request operands."""

    rate: float
    offsets: np.ndarray   # seconds from phase start, ascending
    is_range: np.ndarray  # bool
    a: np.ndarray         # point key, or range low
    b: np.ndarray         # range high (unused for points)
    want_pos: np.ndarray  # expected position / range start
    want_count: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets)


def request_plan(keys: np.ndarray, rng: np.random.Generator, rate: float,
                 seconds: float, range_fraction: float) -> RequestPlan:
    """Poisson arrivals at ``rate`` for ``seconds``; uniform access."""
    m = max(int(rate * seconds), 1)
    offsets = np.cumsum(rng.exponential(1.0 / rate, m))
    is_range = rng.random(m) < range_fraction
    a = keys[rng.integers(0, len(keys), m)]
    lows, highs = ranges(keys, rng, m)
    a = np.where(is_range, lows, a)
    b = np.where(is_range, highs, a)
    want_pos = np.searchsorted(keys, a, side="left").astype(np.int64)
    want_count = np.where(
        is_range, np.searchsorted(keys, b, side="left") - want_pos, 0
    ).astype(np.int64)
    return RequestPlan(rate, offsets, is_range, a, b, want_pos, want_count)


# ---------------------------------------------------------------------------
# Mixed read/write stream with an incremental oracle
# ---------------------------------------------------------------------------


@dataclass
class Segment:
    write_keys: np.ndarray
    write_ops: np.ndarray
    points: np.ndarray
    lows: np.ndarray
    highs: np.ndarray
    want_pos: np.ndarray
    want_starts: np.ndarray
    want_counts: np.ndarray

    @property
    def reads(self) -> int:
        return len(self.points) + len(self.lows)


class MixedStream:
    """Segments of (write burst, read chunk) plus their expected answers.

    The oracle is independent of the writable tier: the live set is a
    materialized sorted array plus two small sorted side sets, keys
    inserted since the last materialization and keys deleted from it.
    A lower bound is ``searchsorted(live) - searchsorted(deleted) +
    searchsorted(inserted)``.  The side sets fold into the array once
    they pass :attr:`FOLD_AT` entries.
    """

    FOLD_AT = 16384

    def __init__(self, keys: np.ndarray, rng: np.random.Generator, *,
                 reads: int, writes: int, delete_share: float,
                 range_fraction: float) -> None:
        self.live = np.array(keys, dtype=np.uint64)
        self.ins = np.empty(0, dtype=np.uint64)
        self.dels = np.empty(0, dtype=np.uint64)
        self.rng = rng
        self.reads = reads
        self.writes = writes
        self.delete_share = delete_share
        self.range_fraction = range_fraction
        self.lo_key = int(keys[0])
        self.hi_key = int(keys[-1])

    @staticmethod
    def _union(*arrays: np.ndarray) -> np.ndarray:
        """Sorted distinct union (sort-based: no hashing of uint64)."""
        a = np.sort(np.concatenate(arrays))
        if len(a):
            a = a[np.concatenate(([True], a[1:] != a[:-1]))]
        return a

    @staticmethod
    def _merge(sorted_arr: np.ndarray, new: np.ndarray) -> np.ndarray:
        """Insert sorted ``new`` (disjoint from ``sorted_arr``) in order."""
        return np.insert(sorted_arr,
                         np.searchsorted(sorted_arr, new, side="left"), new)

    @staticmethod
    def _member(sorted_arr: np.ndarray, q: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(sorted_arr, q, side="left")
        hit = idx < len(sorted_arr)
        hit[hit] = sorted_arr[idx[hit]] == q[hit]
        return hit

    def _lower_bound_at(self, at: np.ndarray) -> np.ndarray:
        """Live lower bound of ``live[at]`` (its position needs no search)."""
        q = self.live[at]
        return (at - np.searchsorted(self.dels, q, side="left")
                + np.searchsorted(self.ins, q, side="left")).astype(np.int64)

    def _fold(self) -> None:
        live = np.delete(self.live, np.searchsorted(self.live, self.dels))
        self.live = self._merge(live, self.ins)
        self.ins = np.empty(0, dtype=np.uint64)
        self.dels = np.empty(0, dtype=np.uint64)

    def live_keys(self) -> np.ndarray:
        self._fold()
        return self.live

    def next_segment(self) -> Segment:
        from repro.writable.delta import OP_INSERT, OP_TOMBSTONE

        rng = self.rng
        n_del = int(round(self.writes * self.delete_share))
        n_ins = self.writes - n_del
        # Deletes: distinct keys of the materialized array still live.
        cand = self._union(
            self.live[rng.integers(0, len(self.live), n_del)])
        dels = cand[~self._member(self.dels, cand)]
        # Inserts: distinct fresh keys not currently live.
        cand = self._union(rng.integers(self.lo_key, self.hi_key, n_ins,
                                        dtype=np.uint64))
        live_now = self._member(self.live, cand) & \
            ~self._member(self.dels, cand)
        ins = cand[~live_now & ~self._member(self.ins, cand)]
        ins = ins[~self._member(dels, ins)]
        keys = np.concatenate([dels, ins])
        ops = np.concatenate([np.full(len(dels), OP_TOMBSTONE, np.int8),
                              np.full(len(ins), OP_INSERT, np.int8)])
        order = rng.permutation(len(keys))
        keys, ops = keys[order], ops[order]
        # Apply to the oracle.  An insert of a key deleted from the
        # materialized array revives it; every other insert is fresh.
        revived = self._member(self.dels, ins)
        if revived.any():
            self.dels = self.dels[~self._member(ins[revived], self.dels)]
        self.ins = self._merge(self.ins, ins[~revived])
        self.dels = self._merge(self.dels, dels)
        if len(self.ins) + len(self.dels) > self.FOLD_AT:
            self._fold()
        # Reads sampled from the materialized array by position (keys
        # deleted since are valid absent-key lookups).
        m_range = int(round(self.reads * self.range_fraction))
        m_point = self.reads - m_range
        n = len(self.live)
        at_points = rng.integers(0, n, m_point)
        at_lows = rng.integers(0, n, m_range)
        at_highs = np.minimum(
            at_lows + rng.integers(0, MAX_RANGE_SPAN + 1, m_range), n - 1)
        want_starts = self._lower_bound_at(at_lows)
        return Segment(
            keys, ops, self.live[at_points], self.live[at_lows],
            self.live[at_highs], self._lower_bound_at(at_points),
            want_starts, self._lower_bound_at(at_highs) - want_starts,
        )


if __name__ == "__main__":
    _generate(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
