"""The compiled RMI build against the staged grouped build.

``RMI`` trains eligible configs (two layers, root LS/LR, leaves LS/LR,
``grouped_fit=True``, ``copy_keys=False``) through the backend's
compiled build when it has one.  The staged NumPy build stays the
executable reference, and the contract is byte identity: the same
``rmi_payload`` and the same ``leaf_model_ids``.  This file pins

* NumPy's ``np.add.reduceat`` summation order, which the compiled LR
  fit replays (a NumPy change must fail here first);
* compiled == staged on hostile key sets, for every eligible config;
* that ineligible configs never reach the kernel, and that a kernel
  declining the keys falls back to the staged build.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import data
from repro.core.bounds import BOUND_TYPES, _per_model_extremes
from repro.core.rmi import RMI
from repro.core.serialize import rmi_from_payload, rmi_payload
from repro.kernels import backend_available, get_backend

needs_cext = pytest.mark.skipif(not backend_available("cext"),
                                reason="no C compiler")

ROOTS = ("ls", "lr")
LEAVES = ("ls", "lr")
BOUNDS = ("labs", "lind", "gabs", "gind", "nb")
ELIGIBLE = [
    (root, leaf, bound, tomi)
    for root in ROOTS
    for leaf in LEAVES
    for bound in BOUNDS
    for tomi in (True, False)
]


# ---------------------------------------------------------------------------
# The summation order the compiled LR fit replays
# ---------------------------------------------------------------------------


def _pairwise(a: np.ndarray) -> float:
    """NumPy's pairwise summation of a contiguous float64 run."""
    n = len(a)
    if n < 8:
        res = -0.0
        for v in a.tolist():
            res += v
        return res
    if n <= 128:
        stop = n - n % 8
        r = a[:8].copy()
        for i in range(8, stop, 8):
            r += a[i:i + 8]  # eight independent accumulators
        r = r.tolist()
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in a[stop:].tolist():
            res += v
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise(a[:n2]) + _pairwise(a[n2:])


def _segment_lengths() -> list[int]:
    rng = np.random.default_rng(3)
    sampled = rng.integers(301, 300_001, 24).tolist()
    return [*range(1, 301), *sampled, 300_000]


def test_reduceat_is_first_plus_pairwise_rest():
    """``np.add.reduceat`` sums a segment as ``a[0] + pairwise(a[1:])``.

    Values span ~2^63 magnitudes with mixed signs and -0.0 entries, so
    any other association order shows in the last bits.
    """
    rng = np.random.default_rng(11)
    lengths = _segment_lengths()
    total = sum(lengths)
    values = rng.standard_normal(total) * 2.0 ** rng.integers(-20, 63, total)
    values[rng.integers(0, total, total // 50)] = -0.0
    # All -0.0 segments tell a -0.0 start of the short loop from +0.0.
    zeros = list(range(1, 10))
    lengths += zeros
    values = np.concatenate([values, np.full(sum(zeros), -0.0)])
    starts = np.cumsum([0, *lengths[:-1]])
    sums = np.add.reduceat(values, starts)
    for length, start, got in zip(lengths, starts.tolist(), sums.tolist()):
        seg = values[start:start + length]
        want = seg[0] + _pairwise(seg[1:]) if length > 1 else float(seg[0])
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), length


@pytest.mark.parametrize("bound", BOUNDS)
def test_bounds_from_extremes_match_compute(bound):
    """The compiled build's per-leaf extremes give the staged bounds,
    empty models (sentinel extremes) included."""
    rng = np.random.default_rng(4)
    n, models = 500, 64
    model_ids = np.sort(rng.integers(0, models, n))
    predictions = rng.integers(0, n, n)
    positions = np.arange(n)
    errors = positions - predictions
    cls = BOUND_TYPES[bound]
    want = cls.compute(predictions, positions, model_ids, models, n)
    got = cls.from_extremes(
        *_per_model_extremes(errors, model_ids, models), n)
    assert type(got) is type(want)
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field


# ---------------------------------------------------------------------------
# Differential: compiled == staged
# ---------------------------------------------------------------------------


def _assert_identical(compiled: RMI, staged: RMI) -> None:
    assert compiled.build_stats.compiled
    assert not staged.build_stats.compiled
    a = rmi_payload(compiled, include_keys=False)
    b = rmi_payload(staged, include_keys=False)
    assert a.keys() == b.keys()
    for name in a:
        x, y = np.asarray(a[name]), np.asarray(b[name])
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name
    assert compiled.leaf_model_ids.dtype == staged.leaf_model_ids.dtype
    assert np.array_equal(compiled.leaf_model_ids, staged.leaf_model_ids)


def _build_pair(keys, fanout, root, leaf, bound, tomi):
    kwargs = dict(layer_sizes=[fanout], model_types=(root, leaf),
                  bound_type=bound, train_on_model_index=tomi)
    return (RMI(keys, kernels="cext", **kwargs),
            RMI(keys, kernels="numpy", **kwargs))


@st.composite
def hostile_keys(draw):
    """Key sets the compiled build must get exactly right."""
    kind = draw(st.sampled_from(
        ["single", "duplicates", "runs", "near-max", "sparse"]))
    if kind == "single":
        keys = np.array([draw(st.integers(0, 2**64 - 1))], dtype=np.uint64)
    elif kind == "duplicates":
        keys = np.full(draw(st.integers(1, 400)),
                       draw(st.integers(0, 2**64 - 1)), dtype=np.uint64)
    elif kind == "runs":
        # Long duplicate runs on few distinct values: runs straddle the
        # leaf boundaries the root draws.
        values = draw(st.lists(st.integers(0, 2**40), min_size=1,
                               max_size=12, unique=True))
        counts = draw(st.lists(st.integers(1, 200), min_size=len(values),
                               max_size=len(values)))
        keys = np.sort(np.repeat(np.asarray(values, dtype=np.uint64),
                                 counts))
    elif kind == "near-max":
        # Keys within a few thousand of 2^64 collapse to a handful of
        # float64 values: equal x at distinct positions.
        offsets = draw(st.lists(st.integers(0, 5000), min_size=1,
                                max_size=300))
        keys = np.sort(np.uint64(2**64 - 1)
                       - np.asarray(offsets, dtype=np.uint64))
    else:
        keys = np.sort(np.asarray(
            draw(st.lists(st.integers(0, 2**64 - 1), min_size=1,
                          max_size=60)), dtype=np.uint64))
    # Fanouts up to well past n: many empty leaves.
    fanout = draw(st.sampled_from([2, 3, 16, 1024, 4 * len(keys) + 1]))
    return keys, fanout


@needs_cext
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=hostile_keys())
def test_compiled_matches_staged_on_hostile_keys(case):
    keys, fanout = case
    for config in ELIGIBLE:
        _assert_identical(*_build_pair(keys, fanout, *config))


@needs_cext
@pytest.mark.parametrize("dataset", ["books", "fb", "osmc", "wiki"])
@pytest.mark.parametrize("root,leaf,bound,tomi", ELIGIBLE)
def test_compiled_matches_staged_on_datasets(dataset, root, leaf, bound,
                                             tomi):
    keys = data.generate(dataset, n=20_000, seed=5)
    for fanout in (4, 2**10, 2**16):
        _assert_identical(*_build_pair(keys, fanout, root, leaf, bound,
                                       tomi))


@needs_cext
def test_compiled_build_serves_and_restores_like_staged():
    """A payload cached from a staged build restores and serves exactly
    like a fresh compiled build (no artifact format or fingerprint
    change)."""
    keys = data.generate("books", n=50_000, seed=1)
    compiled, staged = _build_pair(keys, 512, "ls", "lr", "labs", True)
    restored = rmi_from_payload(rmi_payload(staged, include_keys=False),
                                keys=keys)
    q = np.concatenate([keys[::7], keys[::13] + np.uint64(1)])
    want = np.searchsorted(keys, q, side="left")
    for rmi in (compiled, restored):
        assert np.array_equal(rmi.lookup_batch(q), want)


# ---------------------------------------------------------------------------
# Dispatch: who reaches the kernel
# ---------------------------------------------------------------------------


@pytest.fixture
def kernel_spy(monkeypatch):
    """Records every compiled-build call on the cext backend."""
    backend = get_backend("cext")
    calls = []
    original = backend.rmi_build

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(backend, "rmi_build", spy)
    return calls


@needs_cext
@pytest.mark.parametrize("kwargs", [
    dict(model_types=("cs", "lr")),
    dict(model_types=("ls", "cs")),
    dict(model_types=("rx", "lr")),
    dict(copy_keys=True),
    dict(grouped_fit=False),
    dict(layer_sizes=[4, 16], model_types=("ls", "lr", "lr")),
    dict(layer_sizes=[1]),
    dict(kernels="numpy"),
], ids=["cs-root", "cs-leaves", "rx-root", "copy-keys", "per-segment",
        "three-layers", "one-leaf", "numpy-backend"])
def test_ineligible_configs_never_call_the_kernel(kernel_spy, kwargs):
    keys = data.generate("books", n=5_000, seed=2)
    kwargs = {"kernels": "cext", **kwargs}
    rmi = RMI(keys, **kwargs)
    assert kernel_spy == []
    assert not rmi.build_stats.compiled


@needs_cext
def test_eligible_config_calls_the_kernel_once(kernel_spy):
    keys = data.generate("books", n=5_000, seed=2)
    rmi = RMI(keys, kernels="cext")
    assert len(kernel_spy) == 1
    assert rmi.build_stats.compiled


@needs_cext
def test_declined_build_falls_back_to_staged(monkeypatch):
    keys = data.generate("books", n=5_000, seed=2)
    monkeypatch.setattr(get_backend("cext"), "rmi_build",
                        lambda *args: None)
    fallback = RMI(keys, kernels="cext")
    staged = RMI(keys, kernels="numpy")
    assert not fallback.build_stats.compiled
    a = rmi_payload(fallback, include_keys=False)
    b = rmi_payload(staged, include_keys=False)
    for name in a:
        assert np.asarray(a[name]).tobytes() == np.asarray(b[name]).tobytes()


@needs_cext
def test_kernel_declines_out_of_order_routing():
    """A root that routes keys out of order (negative slope) is left to
    the staged build, which re-sorts them."""
    keys = np.arange(100, dtype=np.uint64)
    backend = get_backend("cext")
    assert backend.rmi_build(keys, 8, -0.05, 7.9, 1.0, 1, True) is None
    assert backend.rmi_build(keys, 8, 0.05, 0.0, 1.0, 1, True) is not None
    assert backend.rmi_build(keys, 8, 0.05, 0.0, 1.0, 3, True) is None


def test_backends_without_a_compiled_build_return_none():
    keys = np.arange(10, dtype=np.uint64)
    assert get_backend("numpy").rmi_build(
        keys, 2, 0.1, 0.0, 1.0, 1, True) is None


@needs_cext
def test_unsorted_keys_raise_before_the_kernel(kernel_spy):
    with pytest.raises(ValueError, match="sorted"):
        RMI(np.array([3, 1, 2], dtype=np.uint64), kernels="cext")
    assert kernel_spy == []
