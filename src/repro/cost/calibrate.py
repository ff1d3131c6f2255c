"""Calibrate the cost model's machine constants on the host.

The default :class:`~repro.cost.model.MachineModel` describes the
paper's Xeon E5-2620 v4.  To project lookup costs onto *your* machine
instead, :func:`calibrate_machine` measures the two quantities the
model depends on -- dependent random-access latency at several working
set sizes, and throughput of simple arithmetic -- and returns a fitted
``MachineModel``.

Measurement technique: a pointer-chase over a random permutation
(dependent loads defeat both prefetching and out-of-order overlap),
batched through NumPy in blocks large enough to amortize interpreter
overhead.  Python adds a constant per-block cost which the measurement
subtracts via a tiny-working-set baseline, so the *differences* between
cache tiers are meaningful even though absolute numbers carry
interpreter noise.  Calibration is best-effort by design: it refuses to
return nonsense (monotonicity of tier latencies is enforced).
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import replace

import numpy as np

from .model import MachineModel

__all__ = [
    "measure_chase_latency",
    "calibrate_machine",
    "calibrate_kernel_overhead",
    "cached_kernel_overhead",
    "machine_id",
    "KERNEL_FAMILIES",
]


def _pointer_chase(size_bytes: int, hops: int, seed: int = 0) -> float:
    """Seconds per hop of a dependent pointer chase in a working set."""
    n = max(size_bytes // 8, 16)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n).astype(np.int64)
    # Build a single cycle so the chase visits the whole working set.
    chain = np.empty(n, dtype=np.int64)
    chain[perm[:-1]] = perm[1:]
    chain[perm[-1]] = perm[0]
    idx = int(perm[0])
    # Chase in Python but with a stride of vectorized gathers: each
    # gather of the "next" pointers is one dependent load per element.
    hops_done = 0
    t0 = time.perf_counter()
    while hops_done < hops:
        idx = int(chain[idx])
        hops_done += 1
    elapsed = time.perf_counter() - t0
    return elapsed / hops


def measure_chase_latency(
    sizes_bytes: "list[int] | None" = None, hops: int = 200_000
) -> dict[int, float]:
    """Per-hop latency (ns) for several working-set sizes.

    The smallest working set serves as the interpreter baseline; the
    returned values are baseline-subtracted so they approximate the
    pure memory-latency difference between tiers.
    """
    sizes = sizes_bytes or [
        16 * 1024,          # comfortably L1
        128 * 1024,         # L2
        4 * 1024 * 1024,    # L3
        64 * 1024 * 1024,   # memory
    ]
    raw = {s: _pointer_chase(s, hops) * 1e9 for s in sizes}
    base = min(raw.values())
    return {s: max(v - base, 0.0) for s, v in raw.items()}


def calibrate_machine(
    hops: int = 200_000, base: MachineModel | None = None
) -> MachineModel:
    """Return a MachineModel with latencies fitted to this host.

    Only the latency *ladder* is replaced; cache sizes keep the paper
    machine's defaults unless the measurements are degenerate, in which
    case the base model is returned unchanged.
    """
    base = base or MachineModel()
    lat = measure_chase_latency(hops=hops)
    tiers = sorted(lat.items())
    values = [v for _, v in tiers]
    # Enforce the monotone ladder the model assumes; bail out to the
    # defaults when the measurement is too noisy to honor it.
    if any(b < a for a, b in zip(values, values[1:])):
        values = list(np.maximum.accumulate(values))
    l1, l2, l3, mem = values[:4]
    floor = base.l1_latency_ns
    fitted = replace(
        base,
        l1_latency_ns=max(l1, floor),
        l2_latency_ns=max(l2, floor * 2),
        l3_latency_ns=max(l3, floor * 4),
        memory_latency_ns=max(mem, floor * 8),
    )
    if not (
        fitted.l1_latency_ns
        <= fitted.l2_latency_ns
        <= fitted.l3_latency_ns
        <= fitted.memory_latency_ns
    ):  # pragma: no cover - construction forbids it
        return base
    return fitted


#: Kernel families :func:`calibrate_kernel_overhead` can probe.
KERNEL_FAMILIES = ("search", "rmi", "pla", "tree")


def _family_probe(family: str, n: int):
    """A ``(keys, packed)`` pair whose fused lookup does near-zero
    search work, so timing it isolates the family's dispatch/descent
    overhead.

    The keys are ``0..n-1``, making every structure's prediction exact
    (windows of width <= a few slots) and the true position of query
    ``q`` simply ``q``.
    """
    keys = np.arange(n, dtype=np.uint64)
    if family == "rmi":
        from ..core.rmi import RMI
        from ..kernels import pack_rmi

        packed = pack_rmi(RMI(keys, layer_sizes=[64], bound_type="labs"))
    elif family == "pla":
        from ..kernels import PLA_SEGMENT, pack_pla_levels

        packed = pack_pla_levels(
            "calibration", PLA_SEGMENT,
            [(np.asarray([0], dtype=np.uint64), np.asarray([1.0]),
              np.asarray([0.0]))],
            eps=1, n=n,
        )
    else:  # "tree"
        from ..kernels import pack_sparse_directory

        packed = pack_sparse_directory(
            "calibration", keys[::8],
            np.arange(0, n, 8, dtype=np.int64), n,
        )
    if packed is None:  # pragma: no cover - shapes above always pack
        raise RuntimeError(f"calibration probe for {family!r} did not pack")
    return keys, packed


def calibrate_kernel_overhead(
    backend: "str | None" = None,
    n: int = 100_000,
    batch: int = 4096,
    repeats: int = 5,
    seed: int = 0,
    family: str = "search",
) -> dict:
    """Measure the fixed per-lookup cost of a kernel backend's dispatch.

    ``family="search"`` (the default) times
    :meth:`~repro.kernels.base.KernelBackend.lower_bound_window` over
    width-1 windows (``lo == hi`` at the true position), where the
    search itself does near-zero work -- so the median per-lookup time
    approximates the backend's call/dispatch overhead.  This is the
    value to install as ``CostModel.per_lookup_overhead_ns``.

    The packed families (``"rmi"``, ``"pla"``, ``"tree"``) instead time
    a compiled backend's *fused* lookup over a tiny synthetic structure
    whose predictions are exact, isolating that family's dispatch-plus-
    descent floor -- the constant a cost model should charge a packed
    index on this backend before any real search work.  On a backend
    that is not compiled every family serves through its staged path,
    which completes in ``lower_bound_window``, so the packed families
    run the ``"search"`` probe there: the measurement is of the path
    that serves.

    Unlike built indexes, this is a *performance* measurement: the
    result depends on the executing backend and family, so the returned
    dict carries explicit ``backend``/``family`` fields and pairs with
    :func:`repro.cache.fingerprint.calibration_fingerprint` (which
    fingerprints per ``(backend, family)`` and never serves across
    either).
    """
    from ..kernels import get_backend

    if family not in KERNEL_FAMILIES:
        raise ValueError(
            f"unknown kernel family {family!r}; pick from {KERNEL_FAMILIES}"
        )
    be = get_backend(backend)
    rng = np.random.default_rng(seed)
    if family == "search" or not be.compiled:
        keys = np.sort(rng.integers(0, 2**63, size=n, dtype=np.uint64))
        queries = keys[rng.integers(0, n, size=batch)]
        true_pos = np.searchsorted(keys, queries, side="left").astype(np.int64)

        def probe():
            return be.lower_bound_window(keys, queries, true_pos, true_pos)
    else:
        keys, packed = _family_probe(family, n)
        queries = keys[rng.integers(0, n, size=batch)]
        true_pos = queries.astype(np.int64)

        def probe():
            return be.lookup(packed, keys, queries)
    # Warm call outside the timed loop (loads code paths, page-faults
    # the arrays).
    probe()
    per_call = []
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        got = probe()
        per_call.append(time.perf_counter() - t0)
    if not np.array_equal(got, true_pos):  # pragma: no cover - conformance
        raise RuntimeError(f"backend {be.name!r} mis-answered the probe")
    overhead_ns = float(np.median(per_call)) / batch * 1e9
    return {
        "backend": be.name,
        "family": str(family),
        "compiled": bool(be.compiled),
        "per_lookup_overhead_ns": overhead_ns,
        "params": {
            "n": int(n),
            "batch": int(batch),
            "repeats": int(repeats),
            "seed": int(seed),
        },
    }


def machine_id() -> str:
    """A stable identifier for the measured host.

    Calibrations are performance measurements, so a cached one is only
    valid on the machine that produced it; this string is the
    ``machine_id`` field of
    :func:`repro.cache.fingerprint.calibration_fingerprint`.
    """
    return "-".join((
        platform.node() or "unknown",
        platform.machine() or "unknown",
        f"{os.cpu_count() or 0}c",
    ))


#: In-process calibration memo: (machine, backend, family, params) ->
#: result.  Even without a disk cache a process probes each pair once.
_overhead_memo: "dict[tuple, dict]" = {}


def cached_kernel_overhead(
    backend: "str | None" = None,
    n: int = 100_000,
    batch: int = 4096,
    repeats: int = 5,
    seed: int = 0,
    family: str = "search",
    cache=None,
) -> dict:
    """:func:`calibrate_kernel_overhead`, probed at most once per pair.

    Results persist through the artifact cache (kind
    ``"calibrations"``) keyed by
    :func:`~repro.cache.fingerprint.calibration_fingerprint` over
    ``(machine_id(), backend, params, family)``, so a ``(backend,
    family)`` pair is never re-probed on the same machine -- the
    autotune controller calls this on every planning cycle and must not
    pay ~100ms of probe per family each time.  An in-process memo backs
    the disk store so the fast path is a dict hit.  ``cache=None`` uses
    the process's active cache (``repro.cache.active_cache()``); pass an
    :class:`~repro.cache.store.ArtifactCache` to override.
    """
    from ..cache import active_cache
    from ..cache.fingerprint import calibration_fingerprint
    from ..kernels import get_backend

    be = get_backend(backend)
    params = {"n": int(n), "batch": int(batch), "repeats": int(repeats),
              "seed": int(seed)}
    host = machine_id()
    memo_key = (host, be.name, str(family), tuple(sorted(params.items())))
    hit = _overhead_memo.get(memo_key)
    if hit is not None:
        return dict(hit)
    store = cache if cache is not None else active_cache()
    fp = calibration_fingerprint(host, be.name, params, family)
    if store is not None:
        path = store.get("calibrations", fp)
        if path is not None:
            result = json.loads(path.read_text())
            _overhead_memo[memo_key] = result
            return dict(result)
    result = calibrate_kernel_overhead(
        be.name, n=n, batch=batch, repeats=repeats, seed=seed,
        family=family,
    )
    if store is not None:
        store.put(
            "calibrations", fp,
            lambda p: p.write_text(json.dumps(result, indent=2) + "\n"),
        )
    _overhead_memo[memo_key] = result
    return dict(result)
