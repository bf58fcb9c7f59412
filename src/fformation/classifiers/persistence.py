"""Model save/load: a self-describing versioned JSON document.

Floats are serialized with Python's shortest round-trip repr, so a
save -> load cycle reproduces bit-identical predictions.
"""

from __future__ import annotations

import json
import os
from typing import Any

import numpy as np

from .base import FeatureScaling, TrainedModel, canonical_kind
from .knn import KnnParams
from .logreg import LogisticParams
from .trees import ForestParams, TreeArrays

FORMAT_NAME = "fformation-model"
FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """The model document is malformed or from an unsupported version."""


def model_to_dict(model: TrainedModel) -> dict[str, Any]:
    if model.kind == "weighted_knn":
        params = {
            "points": model.params.points.tolist(),
            "labels": model.params.labels.tolist(),
        }
    elif model.kind == "bagged_trees":
        params = {
            "trees": [
                {
                    "feature": t.feature.tolist(),
                    "threshold": t.threshold.tolist(),
                    "left": t.left.tolist(),
                    "right": t.right.tolist(),
                    "value": t.value.tolist(),
                }
                for t in model.params.trees
            ]
        }
    else:
        params = {"coef": model.params.coef.tolist()}
    return {
        "format": FORMAT_NAME,
        "schema_version": FORMAT_VERSION,
        "kind": model.kind,
        "seed": model.seed,
        "hyperparams": model.hyperparams,
        "scaling": {
            "mean": model.scaling.mean.tolist(),
            "std": model.scaling.std.tolist(),
        },
        "params": params,
    }


def _check(ok, what: str) -> None:
    if not ok:
        raise ModelFormatError(f"malformed model document: {what}")


def _floats(values, what: str) -> np.ndarray:
    a = np.asarray(values, dtype=np.float64)
    _check(np.isfinite(a).all(), f"{what} must be finite")
    return a


def _ints(values, what: str) -> np.ndarray:
    a = np.asarray(values)
    _check(a.ndim == 1 and a.dtype.kind in "iu", f"{what} must be a list of integers")
    return a


def _scaling(raw: dict[str, Any]) -> FeatureScaling:
    mean = _floats(raw["mean"], "scaling.mean")
    std = _floats(raw["std"], "scaling.std")
    _check(mean.shape == (2,) and std.shape == (2,), "scaling.mean and scaling.std need 2 values")
    _check((std > 0.0).all(), "scaling.std must be positive")
    return FeatureScaling(mean=mean, std=std)


def _knn_params(raw: dict[str, Any], hyperparams: dict[str, Any]) -> KnnParams:
    points = _floats(raw["points"], "knn points")
    _check(points.ndim == 2 and points.shape[0] >= 1 and points.shape[1] == 2,
           "knn points must have shape (n, 2) with n >= 1")
    labels = _ints(raw["labels"], "knn labels")
    _check(labels.shape == (points.shape[0],), "knn needs one label per point")
    _check(np.isin(labels, (0, 1)).all(), "knn labels must be 0 or 1")
    k = hyperparams["k"]
    _check(isinstance(k, int) and not isinstance(k, bool) and k >= 1,
           "hyperparams.k must be an integer >= 1")
    return KnnParams(points=points, labels=labels.astype(np.uint8))


def _tree(raw: dict[str, Any]) -> TreeArrays:
    """Node arrays whose every path reaches a leaf: children follow parents."""
    feature = _ints(raw["feature"], "tree feature")
    left = _ints(raw["left"], "tree left")
    right = _ints(raw["right"], "tree right")
    threshold = _floats(raw["threshold"], "tree threshold")
    value = np.asarray(raw["value"], dtype=np.float64)
    m = feature.shape[0]
    _check(m >= 1 and all(a.shape == (m,) for a in (left, right, threshold, value)),
           "tree arrays must be nonempty and of equal length")
    _check(np.isin(feature, (-1, 0, 1)).all(), "tree feature must be -1, 0 or 1")
    node = np.arange(m)
    split = (left > node) & (right > node) & (left < m) & (right < m)
    leaf = (left == -1) & (right == -1)
    _check(np.where(feature >= 0, split, leaf).all(),
           "tree children must follow their node inside the arrays, and leaves have none")
    _check(((value >= 0.0) & (value <= 1.0)).all(), "tree values must lie in [0, 1]")
    return TreeArrays(
        feature=feature.astype(np.int32),
        threshold=threshold,
        left=left.astype(np.int32),
        right=right.astype(np.int32),
        value=value,
    )


def model_from_dict(doc: dict[str, Any]) -> TrainedModel:
    """Rebuild a model from its document.

    Raises ModelFormatError for a wrong format or version, a missing or
    mistyped field, a non-finite number, scaling without a positive std,
    kNN labels other than 0/1, a k below 1, and tree arrays whose paths
    could fail to end in a leaf.
    """
    try:
        if doc.get("format") != FORMAT_NAME:
            raise ModelFormatError(f"not a {FORMAT_NAME} document")
        if doc.get("schema_version") != FORMAT_VERSION:
            raise ModelFormatError(f"unsupported schema_version {doc.get('schema_version')!r}")
        kind = canonical_kind(doc["kind"])
        scaling = _scaling(doc["scaling"])
        hyperparams = dict(doc["hyperparams"])
        raw = doc["params"]
        if kind == "weighted_knn":
            params: Any = _knn_params(raw, hyperparams)
        elif kind == "bagged_trees":
            params = ForestParams(trees=tuple(_tree(t) for t in raw["trees"]))
        else:
            coef = _floats(raw["coef"], "logreg coef")
            _check(coef.shape == (3,), "logreg coef needs 3 values")
            params = LogisticParams(coef=coef)
        return TrainedModel(
            kind=kind,
            scaling=scaling,
            seed=int(doc["seed"]),
            hyperparams=hyperparams,
            params=params,
        )
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from exc


def save_model(model: TrainedModel, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=1)
        fh.write("\n")


def load_model(path: str | os.PathLike) -> TrainedModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{path}: expected a JSON object at top level")
    return model_from_dict(doc)
