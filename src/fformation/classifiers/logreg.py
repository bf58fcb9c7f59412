"""Logistic regression: bias + 2 weights, fitted by damped Newton steps.

The objective is mean cross-entropy plus an L2 penalty on the two
feature weights (the bias is unpenalized). Training is convex and fully
deterministic: from zero coefficients, each iteration solves the 3 x 3
Newton system and halves the step until the loss does not rise. It stops
when the gradient norm falls below ``tol``, when no halved step lowers
the loss, or after ``epochs`` iterations; the coefficients stay finite.

``loss`` and ``gradient`` are exposed so the analytic gradient can be
checked against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import _check, _floats, _known

# A Newton step is halved at most this many times, to 2**-30 of its
# length, before the fit stops for want of a step that lowers the loss.
_MAX_HALVINGS = 30


@dataclass(frozen=True, eq=False)
class LogisticParams:
    coef: np.ndarray  # (3,) [bias, w_distance, w_effort_angle]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), from exp(-|z|) so that exp never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _logits(coef: np.ndarray, Xs: np.ndarray) -> np.ndarray:
    return coef[0] + Xs @ coef[1:]


def loss(coef: np.ndarray, Xs: np.ndarray, y: np.ndarray, l2: float) -> float:
    """Mean cross-entropy plus 0.5 * l2 * ||weights||^2 (bias excluded)."""
    z = _logits(coef, Xs)
    y = y.astype(np.float64)
    ce = y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)
    return float(ce.mean() + 0.5 * l2 * float(coef[1:] @ coef[1:]))


def gradient(coef: np.ndarray, Xs: np.ndarray, y: np.ndarray, l2: float) -> np.ndarray:
    z = _logits(coef, Xs)
    resid = _sigmoid(z) - np.asarray(y, dtype=np.float64)
    n = Xs.shape[0]
    g = np.empty(3, dtype=np.float64)
    g[0] = resid.mean()
    g[1:] = (Xs.T @ resid) / n + l2 * coef[1:]
    return g


def _newton_step(coef: np.ndarray, Xs: np.ndarray, g: np.ndarray, l2: float) -> np.ndarray:
    """-H^-1 g for H = [1, Xs]^T diag(p(1-p)) [1, Xs] / n + diag(0, l2, l2)."""
    p = _sigmoid(_logits(coef, Xs))
    w = p * (1.0 - p)
    wX = Xs * w[:, None]
    H = np.empty((3, 3), dtype=np.float64)
    H[0, 0] = w.sum()
    H[0, 1:] = H[1:, 0] = wX.sum(axis=0)
    H[1:, 1:] = Xs.T @ wX
    H /= Xs.shape[0]
    H[1, 1] += l2
    H[2, 2] += l2
    try:
        return np.linalg.solve(H, -g)
    except np.linalg.LinAlgError:
        # Separable data without a penalty can make H singular; the
        # minimum-norm solution is still a finite step. (Least squares
        # is kept off the common path: its first call adds about 1 MB of
        # resident LAPACK code to the process.)
        return np.linalg.lstsq(H, -g, rcond=None)[0]


def fit(Xs: np.ndarray, y: np.ndarray, hyperparams: dict, seed: int) -> LogisticParams:
    l2, epochs, tol = hyperparams["l2"], hyperparams["epochs"], hyperparams["tol"]
    coef = np.zeros(3, dtype=np.float64)
    y = y.astype(np.float64)
    current = loss(coef, Xs, y, l2)
    for _ in range(int(epochs)):
        g = gradient(coef, Xs, y, l2)
        if float(np.linalg.norm(g)) < tol:
            break
        step = _newton_step(coef, Xs, g, l2)
        for _ in range(_MAX_HALVINGS + 1):
            trial = coef + step
            trial_loss = loss(trial, Xs, y, l2)
            if trial_loss <= current:
                break
            step = step * 0.5
        if not (trial_loss < current and np.isfinite(trial).all()):
            break
        coef, current = trial, trial_loss
    coef.setflags(write=False)
    return LogisticParams(coef=coef)


def to_params(params: LogisticParams) -> dict:
    return {"coef": params.coef.tolist()}


def from_params(raw: dict, hyperparams: dict) -> LogisticParams:
    coef = _floats(raw["coef"], "logreg coef")
    _check(coef.shape == (3,), "logreg coef needs 3 values")
    _known(raw, ("coef",), "logreg params")
    return LogisticParams(coef=coef)


def scores(params: LogisticParams, Xs: np.ndarray) -> np.ndarray:
    """Positive-class probabilities; NaN where a logit overflows, which
    ``predict_batch`` rejects."""
    z = _logits(params.coef, Xs)
    return _sigmoid(z) + (z - z)  # z - z is +0, or NaN for an infinite z
