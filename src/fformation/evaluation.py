"""Tolerant group-matching evaluation.

A detected group counts as correct against a truth group of size n when
it contains at least ceil(T*n) of the truth members and at most
floor((1-T)*n) outsiders. T is handled as an exact rational so the
ceiling at small group sizes never falls victim to float rounding
(e.g. ceil(2/3 * 3) must be exactly 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .core import GroupSet, PairSample, PairTable

DEFAULT_TOLERANCE = Fraction(2, 3)

# The conventional decimal spelling of the default tolerance; mapped back
# to the exact rational 2/3 so ceil/floor arithmetic stays exact.
_DEFAULT_SPELLING = "0.6667"

ToleranceLike = Union[Fraction, float, int, str]


def as_tolerance(value: ToleranceLike) -> Fraction:
    """Coerce a tolerance spelling to an exact Fraction in (0, 1].

    Accepts Fractions, ints, "num/den" strings, decimal strings, and
    floats; a bool raises TypeError, although it is an int.
    Decimals are read at face value ("0.25" means 1/4, not the nearest
    binary float); the spelling 0.6667 is treated as exactly 2/3.
    """
    if isinstance(value, bool):
        raise TypeError(f"cannot interpret bool {value!r} as a tolerance")
    if isinstance(value, Fraction):
        tol = value
    elif isinstance(value, int):
        tol = Fraction(value)
    elif isinstance(value, str):
        text = value.strip()
        if text == _DEFAULT_SPELLING:
            tol = DEFAULT_TOLERANCE
        else:
            try:
                tol = Fraction(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"invalid tolerance {value!r}") from exc
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"invalid tolerance {value!r}")
        if value == float(_DEFAULT_SPELLING):
            tol = DEFAULT_TOLERANCE
        else:
            tol = Fraction(repr(value))
    else:
        raise TypeError(f"cannot interpret {type(value).__name__} as a tolerance")
    if not 0 < tol <= 1:
        raise ValueError(f"tolerance must be in (0, 1], got {tol}")
    return tol


def group_match(detected: set, truth: set, T: ToleranceLike = DEFAULT_TOLERANCE) -> bool:
    """True when `detected` matches `truth` within tolerance T.

    Requires |detected & truth| >= ceil(T*|truth|) and
    |detected - truth| <= floor((1-T)*|truth|).
    """
    if not detected or not truth:
        raise ValueError("group_match requires nonempty groups")
    tol = as_tolerance(T)
    truth = frozenset(truth)
    detected = frozenset(detected)
    n = len(truth)
    needed = math.ceil(tol * n)
    allowed_extra = math.floor((1 - tol) * n)
    return len(detected & truth) >= needed and len(detected - truth) <= allowed_extra


@dataclass(frozen=True)
class FrameScore:
    frame_id: int
    matched: int
    n_detected: int
    n_truth: int


@dataclass(frozen=True)
class EvalReport:
    """Micro-averaged precision/recall/F1 over a corpus of frames."""

    precision: float
    recall: float
    f1: float
    per_frame: tuple[FrameScore, ...]
    tolerance: Fraction


def _real_groups(gs: GroupSet) -> list[frozenset]:
    return [g for g in gs.groups if len(g) >= 2]


def _match_greedy(detected: list[frozenset], truth: list[frozenset], tol: Fraction) -> int:
    """Largest-truth-first greedy one-to-one matching; returns match count."""
    order = sorted(range(len(truth)), key=lambda t: (-len(truth[t]), t))
    used = [False] * len(detected)
    matched = 0
    for t in order:
        for d in range(len(detected)):
            if not used[d] and group_match(detected[d], truth[t], tol):
                used[d] = True
                matched += 1
                break
    return matched


def _match_exact(detected: list[frozenset], truth: list[frozenset], tol: Fraction) -> int:
    """Maximum one-to-one matching via augmenting paths; returns match count."""
    ok = [
        [bool(detected[d]) and group_match(detected[d], truth[t], tol) for d in range(len(detected))]
        for t in range(len(truth))
    ]
    owner = [-1] * len(detected)

    def augment(t: int, seen: list[bool]) -> bool:
        for d in range(len(detected)):
            if ok[t][d] and not seen[d]:
                seen[d] = True
                if owner[d] == -1 or augment(owner[d], seen):
                    owner[d] = t
                    return True
        return False

    matched = 0
    for t in range(len(truth)):
        if augment(t, [False] * len(detected)):
            matched += 1
    return matched


def evaluate(
    detections: Sequence[tuple[int, GroupSet]],
    truths: Sequence[tuple[int, GroupSet]],
    T: ToleranceLike = DEFAULT_TOLERANCE,
    matching: str = "greedy",
) -> EvalReport:
    """Score per-frame detections against truth and micro-average.

    Frame ids must align one-to-one between the two lists. Only groups
    of size >= 2 participate. `matching` is "greedy" (largest truth
    group first, lowest-index detected group on ties) or "exact"
    (maximum assignment).
    """
    if matching not in ("greedy", "exact"):
        raise ValueError(f"unknown matching {matching!r}; expected 'greedy' or 'exact'")
    tol = as_tolerance(T)
    det_by_id = dict(detections)
    truth_by_id = dict(truths)
    if len(det_by_id) != len(detections) or len(truth_by_id) != len(truths):
        raise ValueError("duplicate frame_id in detections or truths")
    if det_by_id.keys() != truth_by_id.keys():
        only_det = sorted(det_by_id.keys() - truth_by_id.keys())[:5]
        only_truth = sorted(truth_by_id.keys() - det_by_id.keys())[:5]
        raise ValueError(
            f"frame ids do not align: only in detections {only_det}, only in truth {only_truth}"
        )
    per_frame = []
    total_matched = total_detected = total_truth = 0
    for fid in sorted(det_by_id):
        det = _real_groups(det_by_id[fid])
        tru = _real_groups(truth_by_id[fid])
        if matching == "greedy":
            matched = _match_greedy(det, tru, tol)
        else:
            matched = _match_exact(det, tru, tol)
        per_frame.append(FrameScore(fid, matched, len(det), len(tru)))
        total_matched += matched
        total_detected += len(det)
        total_truth += len(tru)
    precision = total_matched / total_detected if total_detected else 0.0
    recall = total_matched / total_truth if total_truth else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return EvalReport(
        precision=precision,
        recall=recall,
        f1=f1,
        per_frame=tuple(per_frame),
        tolerance=tol,
    )


def majority_baseline(pairs: PairTable | Sequence[PairSample]) -> float:
    """Pairwise accuracy of always predicting the most frequent label of
    labeled pairs: a PairTable or PairSamples."""
    table = PairTable.from_samples(pairs, "majority_baseline")
    if not len(table):
        raise ValueError("majority_baseline requires samples")
    positives = int(table.y.sum())
    return max(positives, len(table) - positives) / len(table)


def format_report(report: EvalReport) -> str:
    """Render a report as text: per-frame rows plus a summary block."""
    lines = ["frame_id  matched  detected  truth"]
    for fs in report.per_frame:
        lines.append(f"{fs.frame_id:>8}  {fs.matched:>7}  {fs.n_detected:>8}  {fs.n_truth:>5}")
    lines.append("")
    lines.append(f"tolerance: {report.tolerance}")
    lines.append(f"frames:    {len(report.per_frame)}")
    lines.append(f"precision: {report.precision:.4f}")
    lines.append(f"recall:    {report.recall:.4f}")
    lines.append(f"f1:        {report.f1:.4f}")
    return "\n".join(lines) + "\n"
