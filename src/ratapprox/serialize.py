"""Model JSON round-tripping.

Complex scalars are stored as [re, im] pairs, matrices as nested lists of
those pairs, so files diff cleanly and parse everywhere.
"""

from __future__ import annotations

import json
import numbers

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


def _finite_numbers(data):
    """``data`` as a float array if it is a number or evenly nested lists of numbers, all finite, else None."""
    def numeric(x):
        return all(map(numeric, x)) if isinstance(x, list) else isinstance(x, numbers.Real) and not isinstance(x, bool)

    try:
        arr = np.asarray(data, dtype=float) if numeric(data) else None
    except (ValueError, OverflowError):  # lists nested unevenly, or an integer beyond the float range
        return None
    return arr if arr is not None and np.isfinite(arr).all() else None


def _decode(tag: str, key: str, data) -> np.ndarray:
    arr = _finite_numbers(data)
    if arr is None or arr.ndim < 2 or arr.shape[-1] != 2:
        raise SampleError(f"{tag} model field {key!r} must be a list of finite [re, im] number pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _decode_float(tag: str, key: str, data) -> float:
    arr = _finite_numbers(data)
    if arr is None or arr.ndim != 0:
        raise SampleError(f"{tag} model field {key!r} must be a finite number, got {data!r}")
    return float(arr)


#: The one place that tells the model types apart: each class with its
#: JSON type tag and its fields as {JSON key: attribute}, in file order.
#: Complex arrays are encoded as above; the float fields, named in
#: ``_FLOAT_KEYS``, are stored as they are.
_MODEL_TYPES = {
    StateSpaceModel: ("state_space", {"E": "E", "A": "A", "B": "B", "C": "C"}),
    BarycentricModel: (
        "barycentric",
        {"support": "support_points", "values": "support_values", "weights": "weights"},
    ),
    PoleResidueModel: ("pole_residue", {"poles": "poles", "residues": "residues", "d": "d", "h": "h"}),
}
_FLOAT_KEYS = {"d", "h"}


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
    """The model of a document as :func:`model_to_dict` writes it.

    A document that is not a dict, lacks a field or has an unknown type, a
    complex field that is not a list of finite [re, im] number pairs and a
    float field that is not a finite number raise ``SampleError``.
    """
    if not isinstance(doc, dict):
        raise SampleError(f"a model document must be a JSON object, got {type(doc).__name__}")
    kind = doc.get("type")
    for cls, (tag, fields) in _MODEL_TYPES.items():
        if tag == kind:
            if missing := [key for key in fields if key not in doc]:
                raise SampleError(f"{tag} model lacks {', '.join(missing)}")
            return cls(**{
                attr: (_decode_float if key in _FLOAT_KEYS else _decode)(tag, key, doc[key])
                for key, attr in fields.items()
            })
    raise SampleError(f"unknown model type {kind!r}")


def save_model(model, path, meta: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model, meta), fh, indent=1)
        fh.write("\n")


def load_model(path):
    """The model saved at ``path``; a file that is not JSON raises ``SampleError``, as :func:`model_from_dict` does."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # malformed JSON, or bytes that are not text
            raise SampleError(f"{path} is not a JSON document: {exc}") from exc
    return model_from_dict(doc)
