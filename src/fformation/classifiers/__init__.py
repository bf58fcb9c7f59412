"""Trainable pairwise classifiers: are two agents in the same group?

Three kinds share one interface: ``weighted_knn``, ``bagged_trees``, and
``logistic_regression`` (aliases ``knn``/``trees``/``logreg``). All of
them consume the two standardized pair features (distance, effort angle)
and emit a positive-class score in [0, 1]; the predicted label is 1
exactly when the score is >= 0.5.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from ..core import Frame, PairSample, RelationMatrix, validate_frame
from ..features import distance as _distance
from ..features import effort_angle as _effort_angle
from .base import (
    DEFAULT_HYPERPARAMS,
    KIND_ALIASES,
    KINDS,
    FeatureScaling,
    TrainedModel,
    TrainingError,
    canonical_kind,
    fit_scaling,
    resolve_hyperparams,
    samples_to_arrays,
)
from .persistence import ModelFormatError, load_model, model_from_dict, model_to_dict, save_model
from . import knn as _knn
from . import logreg as _logreg
from . import trees as _trees

DECISION_THRESHOLD = 0.5

__all__ = [
    "KINDS",
    "KIND_ALIASES",
    "DEFAULT_HYPERPARAMS",
    "DECISION_THRESHOLD",
    "FeatureScaling",
    "TrainedModel",
    "TrainingError",
    "ModelFormatError",
    "canonical_kind",
    "train",
    "predict",
    "predict_batch",
    "pairwise_accuracy",
    "build_relation_matrix",
    "save_model",
    "load_model",
    "model_to_dict",
    "model_from_dict",
]


def train(
    samples: Sequence[PairSample],
    kind: str,
    hyperparams: Optional[dict[str, Any]] = None,
    seed: int = 0,
) -> TrainedModel:
    """Fit a classifier of the given kind on labeled pair samples.

    Features are z-score standardized with statistics from the training
    set; the statistics are stored in the returned model and reapplied
    at prediction time. Training is deterministic for a fixed seed.
    """
    kind = canonical_kind(kind)
    hp = resolve_hyperparams(kind, hyperparams)
    X, y = samples_to_arrays(samples)
    scaling = fit_scaling(X)
    Xs = scaling.apply(X)
    if kind == "weighted_knn":
        params: Any = _knn.fit(Xs, y)
    elif kind == "bagged_trees":
        params = _trees.fit(
            Xs,
            y,
            seed=seed,
            n_trees=hp["n_trees"],
            max_depth=hp["max_depth"],
            min_leaf=hp["min_leaf"],
            bootstrap=hp["bootstrap"],
        )
    else:
        params = _logreg.fit(
            Xs,
            y,
            l2=hp["l2"],
            epochs=hp["epochs"],
            tol=hp["tol"],
        )
    return TrainedModel(kind=kind, scaling=scaling, seed=int(seed), hyperparams=hp, params=params)


def _raw_scores(model: TrainedModel, Xs: np.ndarray) -> np.ndarray:
    if model.kind == "weighted_knn":
        return _knn.scores(model.params, model.hyperparams["k"], Xs)
    if model.kind == "bagged_trees":
        return _trees.scores(model.params, Xs)
    return _logreg.scores(model.params, Xs)


def predict_batch(model: TrainedModel, X) -> tuple[np.ndarray, np.ndarray]:
    """(labels, scores) for an (n, 2) array of [distance, effort_angle] rows.

    Raises ValueError when the standardized inputs or the scores are not
    finite: a finite input far beyond a tiny ``std`` can still overflow.
    """
    Xs = model.scaling.apply(np.atleast_2d(np.asarray(X, dtype=np.float64)))
    if not np.isfinite(Xs).all():
        raise ValueError("prediction inputs must be finite, also once standardized")
    scores = _raw_scores(model, Xs)
    if not np.isfinite(scores).all():
        raise ValueError("prediction scores must be finite")
    labels = (scores >= DECISION_THRESHOLD).astype(np.uint8)
    return labels, scores


def predict(model: TrainedModel, distance: float, effort_angle: float) -> tuple[int, float]:
    """(label, score) for a single feature pair; label is 1 iff score >= 0.5."""
    labels, scores = predict_batch(model, [[distance, effort_angle]])
    return int(labels[0]), float(scores[0])


def pairwise_accuracy(model: TrainedModel, samples: Sequence[PairSample]) -> float:
    """Fraction of labeled samples whose predicted label matches."""
    if not samples:
        raise ValueError("no samples to score")
    if any(s.label is None for s in samples):
        raise ValueError("pairwise_accuracy requires labeled samples")
    X = np.array([[s.distance, s.effort_angle] for s in samples], dtype=np.float64)
    y = np.array([s.label for s in samples], dtype=np.uint8)
    labels, _ = predict_batch(model, X)
    return float((labels == y).mean())


def build_relation_matrix(model: TrainedModel, frame: Frame) -> RelationMatrix:
    """Classify every unordered pair in a frame into a relation matrix.

    Ids are sorted ascending; entry (i, j) is the predicted label for the
    pair, the diagonal is fixed at 1, and the result is symmetric by
    construction (the pair features themselves are order-independent).
    """
    validate_frame(frame)
    ids = tuple(sorted(a.agent_id for a in frame.agents))
    n = len(ids)
    m = np.eye(n, dtype=np.uint8)
    if n > 1:
        pose = {a.agent_id: a for a in frame.agents}
        rows = []
        for i in range(n):
            for j in range(i + 1, n):
                a, b = pose[ids[i]], pose[ids[j]]
                rows.append([_distance(a, b), _effort_angle(a, b)])
        labels, _ = predict_batch(model, np.array(rows, dtype=np.float64))
        i, j = np.nonzero(np.arange(n)[:, None] < np.arange(n))  # the pairs above, in order
        m[i, j] = m[j, i] = labels
    return RelationMatrix(ids=ids, m=m)
