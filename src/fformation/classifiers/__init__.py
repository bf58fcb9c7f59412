"""Trainable pairwise classifiers: are two agents in the same group?

Three kinds share the interface of ``kinds.REGISTRY``: ``weighted_knn``,
``bagged_trees`` and ``logistic_regression`` (aliases ``knn``/``trees``/
``logreg``). All of them consume the two standardized pair features
(distance, effort angle) and emit a positive-class score in [0, 1]; the
predicted label is 1 exactly when the score is >= 0.5.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from ..core import COUNT, Frame, PairSample, PairTable, RelationMatrix, _upper_cells, rule_problem
from ..features import _pair_rows
from .base import (
    DEFAULT_HYPERPARAMS,
    KIND_ALIASES,
    KINDS,
    FeatureScaling,
    ModelFormatError,
    TrainedModel,
    TrainingError,
    canonical_kind,
    fit_scaling,
    resolve_hyperparams,
    samples_to_arrays,
)
from .kinds import REGISTRY
from .persistence import load_model, model_from_dict, model_to_dict, save_model

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
    pairs: PairTable | Sequence[PairSample],
    kind: str,
    hyperparams: Optional[dict[str, Any]] = None,
    seed: int = 0,
) -> TrainedModel:
    """Fit a classifier of the given kind on labeled pairs: a PairTable
    (see :func:`features.pairwise_deconstruct`) or a sequence of
    PairSamples; the same pairs in either form give the same model document.

    Features are z-score standardized with statistics from the training
    set; the statistics are stored in the returned model and reapplied
    at prediction time. Training is deterministic for a fixed seed, an
    integer >= 0 (Python or numpy, not a bool). A bad seed or hyperparameter
    value, an integer too large for a float too, raises TrainingError.
    """
    kind = canonical_kind(kind)
    hp = resolve_hyperparams(kind, hyperparams)
    seed = int(seed) if isinstance(seed, np.integer) else seed
    if problem := rule_problem("seed", seed, COUNT):
        raise TrainingError(problem)
    X, y = samples_to_arrays(pairs)
    scaling = fit_scaling(X)
    params = REGISTRY[kind].fit(scaling.apply(X), y, hp, seed)
    return TrainedModel(kind=kind, scaling=scaling, seed=seed, hyperparams=hp, params=params)


def predict_batch(model: TrainedModel, X) -> tuple[np.ndarray, np.ndarray]:
    """(labels, scores) for an (n, 2) array of [distance, effort_angle] rows.

    Raises ValueError when the standardized inputs or the scores are not
    finite: a finite input far beyond a tiny ``std`` can still overflow, and
    so can the logit of huge logreg coefficients. Such overflows raise no
    numpy warning: the finiteness checks decide.
    """
    with np.errstate(all="ignore"):
        X = np.asarray(X, dtype=np.float64)  # standardizing copies it
        Xs = model.scaling.apply(X if X.ndim > 1 else X.reshape(1, -1))
        if not np.isfinite(Xs).all():
            raise ValueError("prediction inputs must be finite, also once standardized")
        scores = REGISTRY[model.kind].scores(model.params, model.hyperparams, Xs)
    if not np.isfinite(scores).all():
        raise ValueError("prediction scores must be finite")
    return (scores >= DECISION_THRESHOLD).view(np.uint8), scores


def predict(model: TrainedModel, distance: float, effort_angle: float) -> tuple[int, float]:
    """(label, score) for a single feature pair; label is 1 iff score >= 0.5."""
    labels, scores = predict_batch(model, [[distance, effort_angle]])
    return int(labels[0]), float(scores[0])


def pairwise_accuracy(model: TrainedModel, pairs: PairTable | Sequence[PairSample]) -> float:
    """Fraction of labeled pairs (a PairTable or PairSamples) whose
    predicted label matches."""
    table = PairTable.from_samples(pairs, "pairwise_accuracy")
    if not len(table):
        raise ValueError("no samples to score")
    labels, _ = predict_batch(model, table.X)
    return float((labels == table.y).mean())


def build_relation_matrix(
    model: TrainedModel, frames: Frame | Sequence[Frame]
) -> RelationMatrix | list[RelationMatrix]:
    """Classify every unordered pair of a frame into a relation matrix.

    Ids are sorted ascending; entry (i, j) is the predicted label for the
    pair, the diagonal is fixed at 1, and the result is symmetric by
    construction (the pair features themselves are order-independent).
    Given a sequence of frames, returns one matrix per frame, and the
    pairs of all of them are scored in one ``predict_batch`` call.

    The labels are scattered into a write-locked ``m``, which is valid by
    construction, so the ``RelationMatrix`` constructor's checks are not
    rerun; ``greedy_reconstruct`` reads its belief rows from ``m``.
    """
    single = isinstance(frames, Frame)
    batch = [frames] if single else list(frames)
    poses, offsets, _, _, X = _pair_rows(batch)
    labels, _ = predict_batch(model, X)
    ids = [p.agent_id for p in poses]
    matrices = []
    start = 0
    for f, frame in enumerate(batch):
        n = len(frame.agents)
        # The labels go to the upper triangle, in the row-major order of
        # pair_indices, and are mirrored; numpy buffers the overlapping m.T.
        m = np.zeros((n, n), dtype=np.uint8)
        flat = m.ravel()
        flat[_upper_cells(n)] = labels[offsets[f] : offsets[f + 1]]
        m |= m.T
        flat[:: n + 1] = 1
        m.setflags(write=False)
        matrices.append(RelationMatrix._trusted(tuple(ids[start : start + n]), m))
        start += n
    return matrices[0] if single else matrices
