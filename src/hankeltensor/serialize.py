"""JSON forms for every on-disk object.

Readers validate field presence and type and raise ValueError naming the
offending field; writers emit plain dicts whose numbers round-trip (Python's
float repr).  Every result type is written by :func:`to_dict`, one key per
dataclass field; only the plane, decomposition and copositivity report keep
shapes of their own.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .core import HankelTensor
from .plane import _plane
from .vandermonde import DiscreteMeasure, VandermondeDecomposition


def _require(doc, name, kinds, where):
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected a JSON object")
    if name not in doc:
        raise ValueError(f"{where}: missing field '{name}'")
    val = doc[name]
    if isinstance(val, bool) or not isinstance(val, kinds):
        raise ValueError(f"{where}: field '{name}' has the wrong type")
    return val


def _number_list(doc, name, where):
    val = _require(doc, name, list, where)
    out = []
    for i, x in enumerate(val):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ValueError(f"{where}: field '{name}' entry {i} is not a number")
        out.append(float(x))
    return np.array(out)


def _plain(val):
    return val.tolist() if isinstance(val, np.ndarray) else val


def to_dict(obj):
    """Any package dataclass: one key per field, in field order; arrays become lists."""
    return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}


def tensor_from_dict(doc):
    order = _require(doc, "order", int, "tensor")
    dim = _require(doc, "dim", int, "tensor")
    gen = _number_list(doc, "gen", "tensor")
    return HankelTensor(order, dim, gen)


def plane_to_dict(p):
    degree, coeffs = _plane(p)
    return {"degree": degree, "p": coeffs.tolist()}


def plane_from_dict(doc):
    degree = _require(doc, "degree", int, "plane")
    coeffs = _number_list(doc, "p", "plane")
    return HankelTensor(degree, 2, coeffs)


def decomposition_to_dict(d):
    return {
        "terms": [
            {"node": float(u), "coeff": float(c)}
            for u, c in zip(np.asarray(d.nodes), np.asarray(d.coeffs))
        ]
    }


def decomposition_from_dict(doc):
    terms = _require(doc, "terms", list, "decomposition")
    nodes, coeffs = [], []
    for i, term in enumerate(terms):
        where = f"decomposition terms[{i}]"
        nodes.append(float(_require(term, "node", (int, float), where)))
        coeffs.append(float(_require(term, "coeff", (int, float), where)))
    return VandermondeDecomposition(np.array(nodes), np.array(coeffs))


def measure_from_dict(doc):
    nodes = _number_list(doc, "nodes", "measure")
    weights = _number_list(doc, "weights", "measure")
    return DiscreteMeasure(nodes, weights)


def report_to_dict(report):
    """:func:`to_dict` with ``is_copositive`` written as ``"copositive"``."""
    return {("copositive" if k == "is_copositive" else k): v for k, v in to_dict(report).items()}


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
