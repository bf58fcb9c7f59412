"""Correctness checks that the benchmark computes apart from the program.

Each ``check_*`` function raises :class:`CheckError` on a mismatch. The
references here share no code with ``fformation``: they read only the
program's data types and a trained model's stored parameters.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import numpy as np

TOLERANCE = Fraction(2, 3)


class CheckError(AssertionError):
    """The program's output disagrees with the benchmark's reference."""


def canonical(groups) -> list[list[int]]:
    """Groups as sorted member lists, ordered by their smallest member."""
    return sorted(sorted(int(a) for a in g) for g in groups)


def digest(detections: dict[int, list]) -> str:
    """SHA-256 of a kind's detections: frame ids ascending, groups canonical."""
    doc = [[fid, canonical(detections[fid])] for fid in sorted(detections)]
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


def check_partition(agent_ids, groups, where: str) -> None:
    """Disjoint groups of two or more members, all drawn from ``agent_ids``."""
    known = set(agent_ids)
    seen: set[int] = set()
    for g in groups:
        members = set(g)
        if len(members) < 2:
            raise CheckError(f"{where}: group {sorted(members)} has fewer than 2 members")
        if members - known:
            raise CheckError(f"{where}: unknown agents {sorted(members - known)}")
        if members & seen:
            raise CheckError(f"{where}: agents {sorted(members & seen)} in two groups")
        seen |= members


def _matches(detected: frozenset, truth: frozenset) -> bool:
    """Tolerance rule at T = 2/3, in integers: ceil(2n/3) hits, floor(n/3) extras."""
    n = len(truth)
    need = -(-TOLERANCE.numerator * n // TOLERANCE.denominator)
    allowed = (TOLERANCE.denominator - TOLERANCE.numerator) * n // TOLERANCE.denominator
    return len(detected & truth) >= need and len(detected - truth) <= allowed


def reference_f1(detections: dict[int, list], truths: dict[int, list]) -> Fraction:
    """Exact micro-averaged F1: truth groups largest first, each takes the
    first unused detected group that matches it."""
    matched = n_detected = n_truth = 0
    for fid, truth in truths.items():
        det = [frozenset(g) for g in detections[fid] if len(g) >= 2]
        tru = [frozenset(g) for g in truth if len(g) >= 2]
        used = [False] * len(det)
        for t in sorted(range(len(tru)), key=lambda i: (-len(tru[i]), i)):
            for d, group in enumerate(det):
                if not used[d] and _matches(group, tru[t]):
                    used[d] = True
                    matched += 1
                    break
        n_detected += len(det)
        n_truth += len(tru)
    if matched == 0:
        return Fraction(0)
    return Fraction(2 * matched, n_detected + n_truth)


def check_f1(detections, truths, reported: float, where: str) -> Fraction:
    exact = reference_f1(detections, truths)
    if not math.isclose(reported, float(exact), rel_tol=1e-12, abs_tol=1e-15):
        raise CheckError(f"{where}: F1 {reported!r} differs from recomputed {float(exact)!r}")
    return exact


def check_printed_f1(printed: str, exact: Fraction, where: str) -> None:
    if printed != f"{float(exact):.4f}":
        raise CheckError(f"{where}: printed F1 {printed} differs from recomputed {float(exact):.4f}")


def reference_greedy(ids, m: np.ndarray) -> list[frozenset]:
    """Greedy voting on a relation matrix, one numpy step per emitted group.

    Agreement of rows i and j over the remaining agents is entry (i, j) of
    R @ R.T with R the matrix restricted to them. The row-major argmax over
    the positive upper triangle is the lexicographically smallest best pair.
    """
    n = len(ids)
    m = np.asarray(m, dtype=bool)
    remaining = np.ones(n, dtype=bool)
    groups = []
    while remaining.sum() >= 2:
        r = m & remaining[:, None] & remaining[None, :]
        agree = r.astype(np.float64) @ r.T.astype(np.float64)
        candidates = np.triu(r, k=1)
        if not candidates.any():
            break
        i, j = divmod(int(np.argmax(np.where(candidates, agree, -1.0))), n)
        emitted = r[i] & r[j]
        emitted[[i, j]] = True
        groups.append(frozenset(int(ids[k]) for k in np.flatnonzero(emitted)))
        remaining &= ~emitted
    return groups


def check_greedy(matrix, groups, where: str) -> None:
    expected = reference_greedy(matrix.ids, matrix.m)
    if list(groups) != expected:
        raise CheckError(f"{where}: groups {canonical(groups)} but voting gives {canonical(expected)}")


def _standardized(model, X: np.ndarray) -> np.ndarray:
    return (np.asarray(X, dtype=np.float64) - model.scaling.mean) / model.scaling.std


def reference_logreg(model, X) -> list[float]:
    """sigmoid(b + w . z) per row, z the standardized features."""
    b, w1, w2 = (float(c) for c in model.params.coef)
    out = []
    for z1, z2 in _standardized(model, X):
        t = b + w1 * z1 + w2 * z2
        out.append(1.0 / (1.0 + math.exp(-t)) if t >= 0 else math.exp(t) / (1.0 + math.exp(t)))
    return out


def reference_knn(model, X) -> list[float]:
    """Brute-force weighted vote of the k nearest stored training points.

    Every training point is ranked by (squared distance, label, index), the
    documented tie rule. Exact matches, if any, vote alone and unweighted;
    otherwise each neighbour weighs 1 / squared distance.
    """
    pts = model.params.points
    labels = model.params.labels
    n = len(labels)
    k = min(int(model.hyperparams["k"]), n)
    out = []
    for q in _standardized(model, X):
        d2 = (q[0] - pts[:, 0]) ** 2
        d2 += (q[1] - pts[:, 1]) ** 2
        near = np.lexsort((np.arange(n), labels, d2))[:k]
        d2k = d2[near]
        yk = labels[near].astype(np.float64)
        if d2k[0] == 0.0:
            out.append(float(yk[d2k == 0.0].mean()))
        else:
            w = 1.0 / d2k
            out.append(float((w * yk).sum() / w.sum()))
    return out


def check_scores(reference: list[float], labels, scores, where: str) -> None:
    """Scores equal to 1e-12; labels equal where the score is not at 0.5."""
    for row, (ref, label, score) in enumerate(zip(reference, labels, scores)):
        if not math.isclose(float(score), ref, rel_tol=1e-12, abs_tol=1e-15):
            raise CheckError(f"{where}: pair {row} scored {float(score)!r}, reference {ref!r}")
        if abs(ref - 0.5) > 1e-9 and int(label) != int(ref >= 0.5):
            raise CheckError(f"{where}: pair {row} labeled {int(label)} at score {ref!r}")


def check_floor(value: float, floor: float, where: str) -> None:
    if not value >= floor:
        raise CheckError(f"{where}: {value:.4f} is below {floor}")


def check_same(got: dict[int, list], expected: dict[int, list], where: str) -> None:
    if sorted(got) != sorted(expected):
        raise CheckError(f"{where}: frame ids differ")
    for fid in sorted(expected):
        if canonical(got[fid]) != canonical(expected[fid]):
            raise CheckError(
                f"{where}: frame {fid} has {canonical(got[fid])}, expected {canonical(expected[fid])}"
            )
