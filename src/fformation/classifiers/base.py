"""Shared classifier machinery: sample matrices, feature scaling, model type,
and the checks every part of a model document goes through on load."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Optional, Sequence

import numpy as np

from ..core import (AT_LEAST_ONE, COUNT, NON_NEGATIVE, POSITIVE, PairSample, PairTable, Rule,
                    rule_problem)


class TrainingError(ValueError):
    """Training preconditions violated (degenerate labels or features)."""


class ModelFormatError(ValueError):
    """The model document is malformed or from an unsupported version."""


KINDS = ("weighted_knn", "bagged_trees", "logistic_regression")

# Short names accepted anywhere a kind is expected; the CLI uses these.
KIND_ALIASES = {
    "knn": "weighted_knn",
    "trees": "bagged_trees",
    "logreg": "logistic_regression",
}

DEFAULT_HYPERPARAMS: dict[str, dict[str, Any]] = {
    "weighted_knn": {"k": 10},
    "bagged_trees": {"n_trees": 30, "max_depth": 12, "min_leaf": 5, "bootstrap": True},
    "logistic_regression": {"l2": 1e-4, "epochs": 2000, "tol": 1e-8},
}


def canonical_kind(kind: str) -> str:
    kind = KIND_ALIASES.get(kind, kind)
    if kind not in KINDS:
        raise ValueError(f"unknown classifier kind {kind!r}; expected one of {KINDS}")
    return kind


# The rule each hyperparameter keeps; the names are unique across kinds.
_HYPERPARAM_RULES: dict[str, Rule] = {
    "k": AT_LEAST_ONE,
    "n_trees": AT_LEAST_ONE,
    "max_depth": (lambda v: v is None or AT_LEAST_ONE[0](v), "None or an integer >= 1"),
    "min_leaf": AT_LEAST_ONE,
    "l2": NON_NEGATIVE,
    "epochs": COUNT,
    "tol": NON_NEGATIVE,
    "bootstrap": (lambda v: isinstance(v, bool), "true or false"),
    "learning_rate": POSITIVE,
}

# Names a kind no longer takes. Model files written before may carry them;
# they load, checked by their old rule, and are not used.
RETIRED_HYPERPARAMS: dict[str, tuple[str, ...]] = {"logistic_regression": ("learning_rate",)}


def hyperparams_problem(kind: str, hyperparams: dict[str, Any]) -> Optional[str]:
    """Why the first entry of ``hyperparams`` that is no hyperparameter of
    the kind is not, or None."""
    for key, value in hyperparams.items():
        if key not in DEFAULT_HYPERPARAMS[kind] and key not in RETIRED_HYPERPARAMS.get(kind, ()):
            return f"unknown hyperparameter {key!r} for kind {kind!r}"
        if problem := rule_problem(f"hyperparameter {key}", value, _HYPERPARAM_RULES[key]):
            return problem
    return None


def resolve_hyperparams(kind: str, overrides: Optional[dict[str, Any]]) -> dict[str, Any]:
    """The kind's defaults updated by ``overrides``.

    Raises ValueError for a name the kind does not have, and TrainingError
    for a value that breaks the name's rule.
    """
    params = dict(DEFAULT_HYPERPARAMS[kind])
    for key, value in (overrides or {}).items():
        if key not in params:
            raise ValueError(f"unknown hyperparameter {key!r} for kind {kind!r}")
        params[key] = value
    if problem := hyperparams_problem(kind, params):
        raise TrainingError(problem)
    return params


def _check(ok, what: str) -> None:
    if not ok:
        raise ModelFormatError(f"malformed model document: {what}")


def _known(raw: dict, keys: tuple[str, ...], what: str) -> None:
    """Reject a key of ``raw`` that loading does not read."""
    for key in raw:
        _check(key in keys, f"unknown key {key!r} in {what}")


def _typed(items, types: set, what: str, accepted: str) -> None:
    """Reject items of another type: numpy would parse the string "0.5" and
    read true as 1. One pass of C-level calls, with no Python loop."""
    _check(set(map(type, items)) <= types, f"{what} must be {accepted}")


def _floats(values, what: str, rows: bool = False) -> np.ndarray:
    """A list of numbers, or with ``rows`` a list of lists of numbers."""
    # JSON numbers; booleans and strings are not.
    _typed(chain.from_iterable(values) if rows else values, {int, float}, what, "numbers")
    a = np.asarray(values, dtype=np.float64)
    _check(np.isfinite(a).all(), f"{what} must be finite")
    return a


def _ints(values, what: str) -> np.ndarray:
    _typed(values, {int}, what, "a list of integers")
    a = np.asarray(values)
    _check(a.ndim == 1 and a.dtype.kind in "iu", f"{what} must be a list of integers")
    return a


@dataclass(frozen=True, eq=False)
class FeatureScaling:
    """Per-feature z-score parameters learned from the training set."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean) / self.std


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """A trained pairwise classifier.

    ``params`` holds the kind-specific learned state (KNN keeps its
    standardized training set, bagged trees their node arrays, logistic
    regression its three coefficients). Prediction is a pure function of
    (params, scaling, input); models are immutable and safe to share
    across threads. A model, its scaling and its params hold arrays, so
    they compare and hash by identity: compare models by ``model_to_dict``.
    """

    kind: str
    scaling: FeatureScaling
    seed: int
    hyperparams: dict[str, Any]
    params: Any


def samples_to_arrays(pairs: PairTable | Sequence[PairSample]) -> tuple[np.ndarray, np.ndarray]:
    """Order-normalized (X, y) matrices from labeled pairs: a PairTable or
    a sequence of PairSamples.

    Rows are sorted by (distance, effort_angle, label, ids) so that
    training is deterministic regardless of caller ordering. Raises
    TrainingError for unlabeled samples, fewer than 2 samples,
    single-class label sets, zero-variance features, or labels other
    than 0 and 1.
    """
    table = PairTable.from_samples(pairs, "training", TrainingError)
    if len(table) < 2:
        raise TrainingError(f"need at least 2 labeled samples, got {len(table)}")
    distance, effort_angle = table.X.T
    labels = table.y
    # lexsort is stable and takes its last key as the primary one.
    order = np.lexsort((table.ids[:, 1], table.ids[:, 0], labels, effort_angle, distance))
    X = table.X[order]
    if not np.isfinite(X).all():
        raise TrainingError("non-finite feature values in training samples")
    if len(np.unique(labels)) < 2:
        raise TrainingError("degenerate labels: training set contains a single class")
    if not np.isin(labels, (0, 1)).all():
        raise TrainingError("labels must be 0 or 1")
    return X, labels[order].astype(np.uint8)


def fit_scaling(X: np.ndarray) -> FeatureScaling:
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    if np.any(std <= 0.0):
        bad = int(np.argmin(std))
        name = ("distance", "effort_angle")[bad]
        raise TrainingError(f"degenerate feature: {name} has zero variance")
    return FeatureScaling(mean=mean, std=std)
