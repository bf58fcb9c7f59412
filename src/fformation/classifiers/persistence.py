"""Model save/load: a self-describing versioned JSON document.

This module writes and checks the envelope: format, version, kind, seed,
hyperparams and scaling. The kind's module writes and checks ``params``.
Files hold the compact text of ``json.dumps`` (see ``jsonfile``). Floats
are serialized with Python's shortest round-trip repr, so a save -> load
cycle reproduces bit-identical predictions.
"""

from __future__ import annotations

import os
from typing import Any

from ..core import is_integer
from ..jsonfile import read_json, write_json
from .base import (
    FeatureScaling,
    ModelFormatError,
    TrainedModel,
    _check,
    _floats,
    _known,
    canonical_kind,
    hyperparams_problem,
)
from .kinds import REGISTRY

FORMAT_NAME = "fformation-model"
FORMAT_VERSION = 1

_DOCUMENT_KEYS = ("format", "schema_version", "kind", "seed", "hyperparams", "scaling", "params")


def model_to_dict(model: TrainedModel) -> dict[str, Any]:
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
        "params": REGISTRY[model.kind].to_params(model.params),
    }


def _scaling(raw: dict[str, Any]) -> FeatureScaling:
    mean = _floats(raw["mean"], "scaling.mean")
    std = _floats(raw["std"], "scaling.std")
    _check(mean.shape == (2,) and std.shape == (2,), "scaling.mean and scaling.std need 2 values")
    _check((std > 0.0).all(), "scaling.std must be positive")
    _known(raw, ("mean", "std"), "scaling")
    return FeatureScaling(mean=mean, std=std)


def model_from_dict(doc: dict[str, Any]) -> TrainedModel:
    """Rebuild a model from its document.

    Raises ModelFormatError for a wrong format or version, a missing or
    mistyped field (a string or a boolean where a number belongs, a seed
    that is not an integer), a non-finite number or an integer too large
    for a float, a hyperparameter the kind does not have or a value outside
    its range, scaling without a positive std, a key that loading does not
    read, and ``params`` that the kind's ``from_params`` rejects.
    """
    try:
        if doc.get("format") != FORMAT_NAME:
            raise ModelFormatError(f"not a {FORMAT_NAME} document")
        if doc.get("schema_version") != FORMAT_VERSION:
            raise ModelFormatError(f"unsupported schema_version {doc.get('schema_version')!r}")
        kind = canonical_kind(doc["kind"])
        scaling = _scaling(doc["scaling"])
        hyperparams = dict(doc["hyperparams"])
        problem = hyperparams_problem(kind, hyperparams)
        _check(problem is None, problem)
        _check(is_integer(doc["seed"]), "seed must be an integer")
        params = REGISTRY[kind].from_params(doc["params"], hyperparams)
        _known(doc, _DOCUMENT_KEYS, "the model document")
        return TrainedModel(
            kind=kind, scaling=scaling, seed=doc["seed"], hyperparams=hyperparams, params=params
        )
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from exc


def save_model(model: TrainedModel, path: str | os.PathLike) -> None:
    write_json(model_to_dict(model), path)


def load_model(path: str | os.PathLike) -> TrainedModel:
    doc = read_json(path, ModelFormatError)
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{path}: expected a JSON object at top level")
    return model_from_dict(doc)
