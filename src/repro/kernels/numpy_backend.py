"""Pure-NumPy kernel backend: the reference and universal fallback.

``lower_bound_window`` delegates to the staged implementation in
:mod:`repro.core.search`; the ``rmi_*`` kernels replay the exact
arithmetic of :class:`repro.core.rmi.RMI`'s batch path over the packed
arrays (same operations, same order), so their outputs are
bit-identical to both the staged path and the compiled backend.  This
backend is always available, its ``rmi_*`` replay is the baseline leg
of ``python -m repro.bench kernels``, and it doubles as the executable
specification the compiled backend is conformance-tested against.
Packed PLA/tree structures have no replay here: under this backend the
baselines serve through their own staged ``lookup_batch``.
"""

from __future__ import annotations

import numpy as np

from .base import KernelBackend
from .packed import BOUNDS_NONE, BOUNDS_PER_MODEL, PackedRMI

__all__ = ["NumpyBackend"]


def _eval_rows(
    codes: np.ndarray, rows: np.ndarray, queries: np.ndarray
) -> np.ndarray:
    """Per-key model evaluation, one ``eval_soa`` call per family.

    Mirrors ``LayerTable.predict_routed``'s SoA path on pre-gathered
    rows; bit-identical because the per-element arithmetic is the same.
    """
    from ..core.models import SOA_CODE_MODELS

    present = np.unique(codes)
    if len(present) == 1:
        return SOA_CODE_MODELS[int(present[0])].eval_soa(rows, queries)
    out = np.empty(len(queries), dtype=np.float64)
    for code in present:
        mask = codes == code
        out[mask] = SOA_CODE_MODELS[int(code)].eval_soa(
            rows[mask], queries[mask]
        )
    return out


class NumpyBackend(KernelBackend):
    """Staged NumPy kernels over packed arrays (always available)."""

    name = "numpy"
    compiled = False

    # -- bounded search --------------------------------------------------

    def lower_bound_window(self, keys, queries, lo, hi):
        from ..core.search import _batch_lower_bound_window_numpy

        return _batch_lower_bound_window_numpy(keys, queries, lo, hi)

    # -- fused RMI path --------------------------------------------------

    def _route(self, packed: PackedRMI, queries: np.ndarray) -> np.ndarray:
        """Equation 3 over the packed layers (cf. ``RMI._route_batch``)."""
        assign = np.zeros(len(queries), dtype=np.int64)
        offsets = packed.offsets
        for depth in range(packed.num_layers - 1):
            rows_idx = offsets[depth] + assign
            preds = _eval_rows(
                packed.codes[rows_idx], packed.params[rows_idx], queries
            )
            next_fanout = int(offsets[depth + 2] - offsets[depth + 1])
            est = preds if packed.scaled else preds * packed.scales[depth]
            est = np.clip(np.nan_to_num(est), 0.0, float(next_fanout - 1))
            assign = np.floor(est).astype(np.int64)
        return assign

    def rmi_predict(self, packed: PackedRMI, queries: np.ndarray):
        queries = np.asarray(queries, dtype=np.uint64)
        model_ids = self._route(packed, queries)
        rows_idx = packed.offsets[-2] + model_ids
        est = _eval_rows(
            packed.codes[rows_idx], packed.params[rows_idx], queries
        )
        est = np.clip(np.nan_to_num(est), 0.0, float(packed.n - 1))
        return model_ids, est.astype(np.int64)

    def _intervals(self, packed: PackedRMI, positions, model_ids):
        n = packed.n
        if packed.bkind == BOUNDS_NONE:
            lo = np.zeros(len(positions), dtype=np.int64)
            hi = np.full(len(positions), n - 1, dtype=np.int64)
            return lo, hi
        if packed.bkind == BOUNDS_PER_MODEL:
            lo = positions + packed.blo[model_ids]
            hi = positions + packed.bhi[model_ids]
        else:  # BOUNDS_GLOBAL
            lo = positions + packed.blo[0]
            hi = positions + packed.bhi[0]
        return np.clip(lo, 0, n - 1), np.clip(hi, 0, n - 1)

    def rmi_lookup(self, packed: PackedRMI, keys, queries):
        queries = np.asarray(queries, dtype=np.uint64)
        model_ids, positions = self.rmi_predict(packed, queries)
        lo, hi = self._intervals(packed, positions, model_ids)
        return self.lower_bound_window(keys, queries, lo, hi)

    def rmi_serve(self, packed: PackedRMI, keys, point_queries,
                  range_lows, range_highs):
        if len(point_queries):
            positions = self.rmi_lookup(packed, keys, point_queries)
        else:
            positions = np.empty(0, dtype=np.int64)
        if len(range_lows):
            starts = self.rmi_lookup(packed, keys, range_lows)
            counts = self.rmi_lookup(packed, keys, range_highs) - starts
        else:
            starts = np.empty(0, dtype=np.int64)
            counts = np.empty(0, dtype=np.int64)
        return positions, starts, counts
