"""Logistic regression: bias + 2 weights, full-batch gradient descent.

The objective is mean cross-entropy plus an L2 penalty on the two
feature weights (the bias is unpenalized). Training is convex and fully
deterministic: zero initialization, fixed learning rate, fixed epoch
budget with an early stop on small gradient norm.

``loss`` and ``gradient`` are exposed so the analytic gradient can be
checked against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LogisticParams:
    coef: np.ndarray  # (3,) [bias, w_distance, w_effort_angle]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), from exp(-|z|) so that exp never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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


def fit(
    Xs: np.ndarray,
    y: np.ndarray,
    l2: float,
    learning_rate: float,
    epochs: int,
    tol: float,
) -> LogisticParams:
    coef = np.zeros(3, dtype=np.float64)
    y = y.astype(np.float64)
    for _ in range(int(epochs)):
        g = gradient(coef, Xs, y, l2)
        if float(np.linalg.norm(g)) < tol:
            break
        coef -= learning_rate * g
    coef.setflags(write=False)
    return LogisticParams(coef=coef)


def scores(params: LogisticParams, Xs: np.ndarray) -> np.ndarray:
    Xs = np.atleast_2d(np.asarray(Xs, dtype=np.float64))
    return _sigmoid(_logits(params.coef, Xs))
