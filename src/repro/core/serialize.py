"""Persist trained RMIs to disk.

Training an RMI over hundreds of millions of keys takes seconds to
minutes (Section 7); a production deployment trains once and serves
many processes.  This module saves a trained
:class:`~repro.core.rmi.RMI` to a single ``.npz`` file and restores it
without retraining.

Format: one parameter matrix per layer (models of the Table 2 families
have a fixed number of scalar parameters) plus a per-model type code --
necessary because the CS→LS fallback (footnote 1) produces mixed-type
layers -- the error-bound payload, and the configuration needed to
rebuild the lookup path.  The indexed key array itself is stored
optionally (``include_keys``): real deployments usually map the data
array from elsewhere.

Models with array-valued parameters (the neural extension) are out of
scope for the matrix format and rejected with ``TypeError``.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

import numpy as np

from .bounds import (
    GlobalAbsoluteBounds,
    GlobalIndividualBounds,
    LocalAbsoluteBounds,
    LocalIndividualBounds,
    NoBounds,
)
from .models import (
    ConstantModel,
    CubicSpline,
    LinearRegression,
    LinearSpline,
    Model,
    Radix,
)
from .rmi import RMI

__all__ = ["save_rmi", "load_rmi", "rmi_payload", "rmi_from_payload"]

#: Type codes for the serializable model families.  Parameter columns
#: are the dataclass fields in declaration order, zero-padded to the
#: widest family (CubicSpline's 6 columns).
_MODEL_CODES: dict[type, int] = {
    ConstantModel: 0,
    LinearRegression: 1,
    LinearSpline: 2,
    CubicSpline: 3,
    Radix: 4,
}
_CODE_MODELS = {code: cls for cls, code in _MODEL_CODES.items()}
_PARAM_COLUMNS = 6


def _model_params(model: Model) -> list[float]:
    if type(model) not in _MODEL_CODES:
        raise TypeError(
            f"{type(model).__name__} is not serializable; only the Table 2 "
            "model families (and ConstantModel) are supported"
        )
    values = [float(getattr(model, f.name))
              for f in dataclasses.fields(model)]
    return values + [0.0] * (_PARAM_COLUMNS - len(values))


def _model_from_params(code: int, params: np.ndarray) -> Model:
    cls = _CODE_MODELS[int(code)]
    fields = dataclasses.fields(cls)
    kwargs = {}
    for field, value in zip(fields, params):
        caster = int if field.type in ("int",) else float
        kwargs[field.name] = caster(value)
    return cls(**kwargs)


def rmi_payload(rmi: RMI, include_keys: bool = True) -> dict:
    """A trained RMI as a dict of arrays (the ``.npz`` member layout).

    This is the serialization format itself, exposed so other persistence
    layers (the artifact cache, most prominently) can embed a trained
    RMI without going through a file path.  ``save_rmi`` is exactly
    ``np.savez_compressed(path, **rmi_payload(rmi))``.
    """
    payload: dict[str, np.ndarray] = {
        "format_version": np.array([1]),
        "n": np.array([rmi.n], dtype=np.int64),
        "layer_sizes": np.asarray(rmi.layer_sizes, dtype=np.int64),
        "train_on_model_index": np.array([int(rmi.train_on_model_index)]),
        "search": np.array([rmi.search_name]),
        "bound_abbrev": np.array([rmi.bounds.abbreviation]),
    }
    for i, layer in enumerate(rmi.layers):
        soa_codes = getattr(layer, "codes", None)
        if soa_codes is not None:
            # SoA layer tables share this module's code/param layout,
            # so they serialize without materializing model objects.
            # Codes beyond the Table 2 families (extension models) are
            # rejected like their object counterparts below.
            if np.any(soa_codes > max(_MODEL_CODES.values())):
                bad = int(np.max(soa_codes))
                from .models import SOA_CODE_MODELS

                raise TypeError(
                    f"{SOA_CODE_MODELS[bad].__name__} is not serializable; "
                    "only the Table 2 model families (and ConstantModel) "
                    "are supported"
                )
            payload[f"layer{i}_codes"] = np.asarray(soa_codes, dtype=np.int8)
            payload[f"layer{i}_params"] = np.asarray(
                layer.params, dtype=np.float64
            )
            continue
        for m in layer:
            if type(m) not in _MODEL_CODES:
                raise TypeError(
                    f"{type(m).__name__} is not serializable; only the "
                    "Table 2 model families (and ConstantModel) are "
                    "supported"
                )
        codes = np.asarray([_MODEL_CODES[type(m)] for m in layer],
                           dtype=np.int8)
        params = np.asarray([_model_params(m) for m in layer],
                            dtype=np.float64)
        payload[f"layer{i}_codes"] = codes
        payload[f"layer{i}_params"] = params
    b = rmi.bounds
    if isinstance(b, LocalIndividualBounds):
        payload["bounds_min"] = b.min_err
        payload["bounds_max"] = b.max_err
    elif isinstance(b, LocalAbsoluteBounds):
        payload["bounds_abs"] = b.abs_err
    elif isinstance(b, GlobalIndividualBounds):
        payload["bounds_min"] = np.array([b.min_err], dtype=np.int64)
        payload["bounds_max"] = np.array([b.max_err], dtype=np.int64)
    elif isinstance(b, GlobalAbsoluteBounds):
        payload["bounds_abs"] = np.array([b.abs_err], dtype=np.int64)
    payload["leaf_model_ids"] = rmi.leaf_model_ids
    if include_keys:
        payload["keys"] = rmi.keys
    return payload


def save_rmi(rmi: RMI, path: "str | os.PathLike",
             include_keys: bool = True) -> None:
    """Serialize a trained RMI to ``path`` (``.npz``)."""
    np.savez_compressed(Path(path), **rmi_payload(rmi, include_keys))


def rmi_from_payload(data, keys: np.ndarray | None = None) -> RMI:
    """Rebuild an RMI from a :func:`rmi_payload`-layout mapping.

    ``data`` is any mapping of member name to array -- an open ``.npz``
    file or a plain dict.  ``keys`` must be supplied when the payload
    was produced with ``include_keys=False`` and must equal the
    training keys (length is verified; the lookup guarantee only holds
    over the original array).
    """
    n = int(data["n"][0])
    if keys is None:
        if "keys" not in data:
            raise ValueError(
                "payload has no embedded keys; pass the key array"
            )
        keys = data["keys"]
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    if len(keys) != n:
        raise ValueError(
            f"key array has {len(keys)} keys but the RMI was trained "
            f"on {n}"
        )

    rmi = RMI.__new__(RMI)
    rmi.keys = keys
    rmi.n = n
    rmi.layer_sizes = [int(s) for s in data["layer_sizes"]]
    rmi.search_name = str(data["search"][0])
    from .search import resolve_search_algorithm

    rmi._search = resolve_search_algorithm(rmi.search_name)
    rmi.train_on_model_index = bool(int(data["train_on_model_index"][0]))
    rmi.copy_keys = False
    rmi.cs_fallback = True
    rmi.grouped_fit = True
    rmi.kernels = None  # deserialized RMIs follow the process default
    rmi._packed_cache = None
    from .rmi import BuildStats

    rmi.build_stats = BuildStats()

    from .layers import LayerTable

    rmi.layers = []
    for i in range(len(rmi.layer_sizes)):
        codes = data[f"layer{i}_codes"]
        params = data[f"layer{i}_params"]
        # The on-disk codes/params layout is exactly the SoA layer
        # layout (shared dataclass-field convention), so layers are
        # restored without materializing per-segment objects.
        rmi.layers.append(
            LayerTable(
                codes.astype(np.int8),
                np.ascontiguousarray(params, dtype=np.float64),
            )
        )
    rmi.model_types = [type(layer[0]) for layer in rmi.layers]

    abbrev = str(data["bound_abbrev"][0])
    num_leaves = rmi.layer_sizes[-1]
    if abbrev == "lind":
        rmi.bounds = LocalIndividualBounds(
            data["bounds_min"].astype(np.int64),
            data["bounds_max"].astype(np.int64),
        )
    elif abbrev == "labs":
        rmi.bounds = LocalAbsoluteBounds(
            data["bounds_abs"].astype(np.int64)
        )
    elif abbrev == "gind":
        rmi.bounds = GlobalIndividualBounds(
            int(data["bounds_min"][0]), int(data["bounds_max"][0])
        )
    elif abbrev == "gabs":
        rmi.bounds = GlobalAbsoluteBounds(int(data["bounds_abs"][0]))
    else:
        rmi.bounds = NoBounds(n)
    rmi.bound_type = type(rmi.bounds)
    del num_leaves

    rmi._leaf_model_ids = data["leaf_model_ids"].astype(np.int64)
    rmi._leaf_offsets = None
    rmi._leaf_linear = None
    rmi._cache_linear_leaves()
    return rmi


def load_rmi(path: "str | os.PathLike",
             keys: np.ndarray | None = None) -> RMI:
    """Restore an RMI saved by :func:`save_rmi` without retraining.

    ``keys`` must be supplied when the file was written with
    ``include_keys=False`` and must equal the training keys (length is
    verified; the lookup guarantee only holds over the original array).
    """
    with np.load(Path(path), allow_pickle=False) as data:
        return rmi_from_payload(data, keys=keys)
