"""Model JSON round-tripping.

Complex scalars are stored as [re, im] pairs, matrices as nested lists of
those pairs, so files diff cleanly and parse everywhere.
"""

from __future__ import annotations

import json

import numpy as np

from .aaa import BarycentricModel
from .errors import SampleError
from .loewner import StateSpaceModel
from .vectorfit import PoleResidueModel


def _encode(arr: np.ndarray):
    arr = np.asarray(arr, dtype=complex)
    if arr.ndim == 1:
        return [[z.real, z.imag] for z in arr]
    return [[[z.real, z.imag] for z in row] for row in arr]


def _decode(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


#: The one place that tells the model types apart: each class with its
#: JSON type tag and its fields as {JSON key: attribute}, in file order.
#: Complex arrays are encoded as above; float fields are stored as they are.
_MODEL_TYPES = {
    StateSpaceModel: ("state_space", {"E": "E", "A": "A", "B": "B", "C": "C"}),
    BarycentricModel: (
        "barycentric",
        {"support": "support_points", "values": "support_values", "weights": "weights"},
    ),
    PoleResidueModel: ("pole_residue", {"poles": "poles", "residues": "residues", "d": "d", "h": "h"}),
}


def model_to_dict(model, meta: dict | None = None) -> dict:
    if type(model) not in _MODEL_TYPES:
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    tag, fields = _MODEL_TYPES[type(model)]
    doc = {"type": tag, "order": model.order}
    for key, attr in fields.items():
        value = getattr(model, attr)
        doc[key] = value if isinstance(value, float) else _encode(value)
    if meta:
        doc["meta"] = meta
    return doc


def model_from_dict(doc: dict):
    kind = doc.get("type")
    for cls, (tag, fields) in _MODEL_TYPES.items():
        if tag == kind:
            if missing := [key for key in fields if key not in doc]:
                raise SampleError(f"{tag} model lacks {', '.join(missing)}")
            return cls(**{
                attr: _decode(doc[key]) if isinstance(doc[key], list) else doc[key]
                for key, attr in fields.items()
            })
    raise SampleError(f"unknown model type {kind!r}")


def save_model(model, path, meta: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model, meta), fh, indent=1)
        fh.write("\n")


def load_model(path):
    with open(path) as fh:
        return model_from_dict(json.load(fh))
