"""Shared classifier machinery: sample matrices, feature scaling, model type,
and the checks every part of a model document goes through on load."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..core import PairSample


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


def _integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


_AT_LEAST_ONE = (lambda v: _integer(v) and v >= 1, "an integer >= 1")
_NON_NEGATIVE = (lambda v: _finite(v) and v >= 0, "a finite number >= 0")

# The values each hyperparameter accepts, as (test, description); the
# names are unique across kinds.
_HYPERPARAM_RULES: dict[str, tuple[Callable[[Any], bool], str]] = {
    "k": _AT_LEAST_ONE,
    "n_trees": _AT_LEAST_ONE,
    "max_depth": (lambda v: v is None or (_integer(v) and v >= 1), "None or an integer >= 1"),
    "min_leaf": _AT_LEAST_ONE,
    "l2": _NON_NEGATIVE,
    "epochs": (lambda v: _integer(v) and v >= 0, "an integer >= 0"),
    "tol": _NON_NEGATIVE,
    "bootstrap": (lambda v: isinstance(v, bool), "true or false"),
    "learning_rate": (lambda v: _finite(v) and v > 0, "a finite number > 0"),
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
        test, accepted = _HYPERPARAM_RULES[key]
        if not test(value):
            return f"hyperparameter {key} must be {accepted}, got {value!r}"
    return None


def resolve_hyperparams(kind: str, overrides: Optional[dict[str, Any]]) -> dict[str, Any]:
    """The kind's defaults updated by ``overrides``.

    Raises ValueError for a name the kind does not have, and TrainingError
    for a value outside the range the name accepts.
    """
    params = dict(DEFAULT_HYPERPARAMS[kind])
    for key, value in (overrides or {}).items():
        if key not in params:
            raise ValueError(f"unknown hyperparameter {key!r} for kind {kind!r}")
        params[key] = value
    problem = hyperparams_problem(kind, params)
    if problem is not None:
        raise TrainingError(problem)
    return params


def _check(ok, what: str) -> None:
    if not ok:
        raise ModelFormatError(f"malformed model document: {what}")


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


@dataclass(frozen=True)
class FeatureScaling:
    """Per-feature z-score parameters learned from the training set."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean) / self.std


@dataclass(frozen=True)
class TrainedModel:
    """A trained pairwise classifier.

    ``params`` holds the kind-specific learned state (KNN keeps its
    standardized training set, bagged trees their node arrays, logistic
    regression its three coefficients). Prediction is a pure function of
    (params, scaling, input); models are immutable and safe to share
    across threads.
    """

    kind: str
    scaling: FeatureScaling
    seed: int
    hyperparams: dict[str, Any]
    params: Any


def samples_to_arrays(samples: Sequence[PairSample]) -> tuple[np.ndarray, np.ndarray]:
    """Order-normalized (X, y) matrices from labeled samples.

    Samples are sorted by (distance, effort_angle, label, ids) so that
    training is deterministic regardless of caller ordering. Raises
    TrainingError for unlabeled samples, fewer than 2 samples,
    single-class label sets, zero-variance features, or labels other
    than 0 and 1.
    """
    if any(s.label is None for s in samples):
        raise TrainingError("training requires labeled samples")
    if len(samples) < 2:
        raise TrainingError(f"need at least 2 labeled samples, got {len(samples)}")
    distance = np.array([s.distance for s in samples], dtype=np.float64)
    effort_angle = np.array([s.effort_angle for s in samples], dtype=np.float64)
    labels = np.array([s.label for s in samples])
    id_a = np.array([s.id_a for s in samples])
    id_b = np.array([s.id_b for s in samples])
    # lexsort is stable and takes its last key as the primary one.
    order = np.lexsort((id_b, id_a, labels, effort_angle, distance))
    X = np.column_stack((distance, effort_angle))[order]
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
