"""Abstract interface every kernel backend implements.

A backend provides the hot kernels of the lookup path over flat arrays
(see :mod:`repro.kernels.packed`, :mod:`repro.kernels.packed_pla`,
:mod:`repro.kernels.packed_tree`):

``lower_bound_window``
    Window-restricted batch lower bound with interval-escape repair --
    the shared completion step of *every* index's batch lookup
    (``core/search.batch_lower_bound_window`` dispatches here).
``delta_correct``
    The writable tier's merged-lookup completion: full-range lower
    bound over the sorted delta buffer plus a per-rank position
    correction gather, fused into one pass
    (``repro.writable.index._View.lookup`` dispatches here).
``rmi_predict`` / ``rmi_lookup`` / ``rmi_serve``
    The RMI-specific fused paths: Equation-3 routing + Equation-4 leaf
    prediction, the full predict→bounds→bounded-search lookup, and the
    serving-layer point+range unit chaining three lookups in one call.
``rmi_build``
    The compiled build of a two-layer linear RMI (routing, leaf fits,
    error extremes in three passes).  Optional: backends without one
    return ``None`` and ``RMI`` takes its staged build.
``lookup`` / ``serve``
    The same fused shapes over a packed structure of any family,
    dispatched on its ``packed_kind`` tag: an RMI, a
    :class:`~repro.kernels.packed_pla.PackedPLA` (PGM descent,
    FITing-Tree segment routing, RadixSpline knot interpolation) or a
    :class:`~repro.kernels.packed_tree.PackedTree` (sparse B+-tree
    directory, Hist-Tree bin descent).  Compiled backends only: the
    baselines' kernel hand-off (``OrderedIndex._kernel_state``) never
    reaches them on an interpreted backend.

Contract: every backend returns **bit-identical positions** to the
staged NumPy reference on the same inputs -- the conformance suite
(`tests/test_conformance.py`, `tests/test_kernels.py`) pins this per
backend.  Inputs follow the repo-wide conventions: ``keys``/``queries``
are ``uint64``, windows are inclusive ``int64`` bounds already clamped
to ``[0, n-1]``, results are ``int64`` lower-bound positions.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["KernelBackend", "LinearRMIBuild"]


class LinearRMIBuild(NamedTuple):
    """What :meth:`KernelBackend.rmi_build` hands back to ``RMI``.

    ``offsets`` bounds each leaf's run of keys (the routing is
    non-decreasing), ``codes``/``params`` are the leaf layer's SoA
    table, ``err_lo``/``err_hi`` the raw per-leaf
    extremes of the signed error (``INT64_MAX``/``INT64_MIN`` for empty
    leaves; see ``ErrorBounds.from_extremes``) and ``seconds`` the
    (segment, leaf fit, bounds) pass times.
    """

    offsets: np.ndarray
    codes: np.ndarray
    params: np.ndarray
    err_lo: np.ndarray
    err_hi: np.ndarray
    seconds: "tuple[float, float, float]"


class KernelBackend:
    """One implementation of the hot lookup kernels."""

    #: Registry name (``"numpy"``, ``"cext"``).
    name: str = "?"
    #: True when the kernels run as machine code outside the NumPy
    #: staged path.  Indexes only divert to the fused kernels for
    #: compiled backends; the NumPy backend's ``rmi_*`` replay exists
    #: for conformance testing and as the benchmark baseline.
    compiled: bool = False

    def lower_bound_window(
        self,
        keys: np.ndarray,
        queries: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
    ) -> np.ndarray:
        """Batch lower bound inside inclusive ``[lo, hi]`` windows."""
        raise NotImplementedError

    def delta_correct(
        self,
        delta_keys: np.ndarray,
        corr: np.ndarray,
        base_positions: np.ndarray,
        queries: np.ndarray,
    ) -> np.ndarray:
        """Merged-lookup completion for the writable tier's dirty reads.

        ``out[i] = base_positions[i] + corr[rank]`` where ``rank`` is
        the full-range lower bound of ``queries[i]`` in the sorted,
        per-key-unique ``delta_keys`` (``corr`` has ``len(delta_keys)
        + 1`` entries).  This staged form is the reference every
        backend must match bit-for-bit; the C backend overrides it
        with a fused single-pass kernel
        (:meth:`CExtBackend.delta_correct`).
        """
        idx = np.searchsorted(
            np.ascontiguousarray(delta_keys, dtype=np.uint64),
            np.ascontiguousarray(queries, dtype=np.uint64),
            side="left",
        )
        return np.asarray(base_positions, dtype=np.int64) + \
            np.asarray(corr, dtype=np.int64)[idx]

    def rmi_predict(
        self, packed, queries: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Fused routing + leaf prediction: ``(model_ids, positions)``."""
        raise NotImplementedError

    def rmi_lookup(
        self, packed, keys: np.ndarray, queries: np.ndarray
    ) -> np.ndarray:
        """Full fused lookup: route→predict→bounds→bounded search."""
        raise NotImplementedError

    def rmi_serve(
        self,
        packed,
        keys: np.ndarray,
        point_queries: np.ndarray,
        range_lows: np.ndarray,
        range_highs: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Fused serving unit: ``(positions, range_starts, range_counts)``."""
        raise NotImplementedError

    def rmi_build(
        self,
        keys: np.ndarray,
        fanout: int,
        root_slope: float,
        root_intercept: float,
        scale: float,
        leaf_code: int,
        with_bounds: bool,
    ) -> "LinearRMIBuild | None":
        """Build the leaf layer of a two-layer linear RMI, or ``None``.

        ``keys`` are sorted ``uint64``; the caller has fitted the linear
        root (``root_slope``/``root_intercept``), whose predictions are
        multiplied by ``scale`` before Equation-3 routing into
        ``fanout`` leaves of SoA family ``leaf_code`` (LR or LS).
        ``None`` means "no compiled build here" -- the default, and the
        answer for inputs the kernel does not handle (keys the root
        routes out of order) -- and the caller falls back to its staged
        build, whose output a compiled build must match bit for bit.
        """
        return None

    def lookup(self, packed, keys: np.ndarray,
               queries: np.ndarray) -> np.ndarray:
        """Fused lookup for any packed family (compiled backends)."""
        raise NotImplementedError

    def serve(
        self,
        packed,
        keys: np.ndarray,
        point_queries: np.ndarray,
        range_lows: np.ndarray,
        range_highs: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Fused serving unit for any packed family (compiled backends)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "compiled" if self.compiled else "interpreted"
        return f"<KernelBackend {self.name} ({kind})>"
