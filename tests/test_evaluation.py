"""Tolerant group matching, report aggregation, and tolerance parsing."""

import math
import random
from fractions import Fraction

import pytest

from fformation.core import GroupSet
from fformation.evaluation import (
    EvalReport,
    as_tolerance,
    evaluate,
    format_report,
    group_match,
    majority_baseline,
)
from fformation.core import PairSample


def gs(*groups):
    return GroupSet.from_iterable(groups)


def test_as_tolerance_exact_rationals():
    assert as_tolerance("0.6667") == Fraction(2, 3)
    assert as_tolerance(0.6667) == Fraction(2, 3)
    assert as_tolerance("2/3") == Fraction(2, 3)
    assert as_tolerance(Fraction(2, 3)) == Fraction(2, 3)
    assert as_tolerance("0.25") == Fraction(1, 4)
    assert as_tolerance(0.5) == Fraction(1, 2)
    assert as_tolerance(1) == Fraction(1)
    assert as_tolerance("1") == Fraction(1)


def test_as_tolerance_rejections():
    for bad in (0, -0.5, 1.5, "0", "3/2", "abc", math.nan, math.inf):
        with pytest.raises((ValueError, TypeError)):
            as_tolerance(bad)
    with pytest.raises(TypeError):
        as_tolerance([0.5])


def test_as_tolerance_rejects_booleans():
    # bool is an int, so True would otherwise read as the tolerance 1.
    for bad in (True, False):
        with pytest.raises(TypeError, match="bool"):
            as_tolerance(bad)
    assert as_tolerance("1") == as_tolerance(1) == Fraction(1)


def test_group_match_examples():
    assert group_match({1, 2, 3}, {1, 2, 3}, Fraction(2, 3)) is True
    assert group_match({1, 2}, {1, 2, 3}, Fraction(2, 3)) is True
    assert group_match({1, 4, 5}, {1, 2, 3}, Fraction(2, 3)) is False


def test_group_match_cardinality_rule_by_hand():
    truth = {1, 2, 3}  # ceil(2/3*3)=2 needed, floor(1/3*3)=1 extra allowed
    assert group_match({1, 2, 9}, truth, "0.6667") is True
    assert group_match({1, 2, 8, 9}, truth, "0.6667") is False  # 2 extras
    assert group_match({1, 9}, truth, "0.6667") is False  # 1 < 2 covered

    truth6 = set(range(6))  # ceil(4)=4 needed, floor(2)=2 extras allowed
    assert group_match({0, 1, 2, 3, 10, 11}, truth6, Fraction(2, 3)) is True
    assert group_match({0, 1, 2, 10, 11}, truth6, Fraction(2, 3)) is False


def test_group_match_strict_tolerance_is_set_equality():
    rng = random.Random(1)
    for _ in range(300):
        truth = set(rng.sample(range(10), rng.randint(2, 6)))
        detected = set(rng.sample(range(10), rng.randint(1, 6)))
        assert group_match(detected, truth, 1) == (detected == truth)


def test_group_match_monotone_in_correct_members():
    rng = random.Random(2)
    for _ in range(500):
        universe = range(12)
        truth = set(rng.sample(universe, rng.randint(2, 8)))
        detected = set(rng.sample(universe, rng.randint(1, 8)))
        missing = truth - detected
        if not missing or not group_match(detected, truth, Fraction(2, 3)):
            continue
        added = detected | {rng.choice(sorted(missing))}
        assert group_match(added, truth, Fraction(2, 3)), (detected, truth)


def test_group_match_rejects_empty_sets():
    with pytest.raises(ValueError, match="nonempty"):
        group_match(set(), {1, 2})
    with pytest.raises(ValueError, match="nonempty"):
        group_match({1, 2}, set())


def test_evaluate_perfect_and_empty():
    truth = [(0, gs([1, 2], [3, 4, 5])), (1, gs([6, 7]))]
    report = evaluate(truth, truth)
    assert report.precision == report.recall == report.f1 == 1.0

    empty = [(0, gs()), (1, gs())]
    report = evaluate(empty, truth)
    assert report.recall == 0.0
    assert report.precision == 0.0  # zero detected, defined as 0
    assert report.f1 == 0.0


def test_evaluate_worked_single_frame():
    truth = [(0, gs([1, 2, 3], [4, 5]))]
    detected = [(0, gs([1, 2], [4, 5], [6, 7]))]
    report = evaluate(detected, truth, T=Fraction(2, 3))
    frame = report.per_frame[0]
    assert frame.matched == 2 and frame.n_detected == 3 and frame.n_truth == 2
    assert math.isclose(report.precision, 2 / 3)
    assert report.recall == 1.0
    assert math.isclose(report.f1, 2 * (2 / 3) / (2 / 3 + 1))


def test_evaluate_frame_alignment_errors():
    with pytest.raises(ValueError, match="do not align"):
        evaluate([(0, gs())], [(1, gs())])
    with pytest.raises(ValueError, match="duplicate frame_id"):
        evaluate([(0, gs()), (0, gs())], [(0, gs()), (1, gs())])
    with pytest.raises(ValueError, match="unknown matching"):
        evaluate([(0, gs())], [(0, gs())], matching="hungarian")


def _random_frame_case(rng):
    """Random disjoint truth groups plus random detected groups."""
    ids = list(range(1, 11))
    rng.shuffle(ids)
    truths = []
    pos = 0
    while pos + 2 <= len(ids) and rng.random() < 0.8:
        size = rng.randint(2, 4)
        chunk = ids[pos : pos + size]
        if len(chunk) >= 2:
            truths.append(chunk)
        pos += size
    detected = []
    for _ in range(rng.randint(0, 4)):
        detected.append(rng.sample(range(1, 11), rng.randint(2, 5)))
    return gs(*detected), gs(*truths)


def exact_equality_match_count(detected, truths):
    used = [False] * len(detected)
    matched = 0
    for t in truths:
        for i, d in enumerate(detected):
            if not used[i] and d == t:
                used[i] = True
                matched += 1
                break
    return matched


def test_strict_tolerance_agrees_with_equality_matcher():
    rng = random.Random(3)
    for _ in range(1000):
        detected, truth = _random_frame_case(rng)
        for matching in ("greedy", "exact"):
            report = evaluate([(0, detected)], [(0, truth)], T=1, matching=matching)
            want = exact_equality_match_count(list(detected.groups), list(truth.groups))
            assert report.per_frame[0].matched == want, matching


def test_exact_matching_never_below_greedy():
    rng = random.Random(4)
    for _ in range(400):
        detected, truth = _random_frame_case(rng)
        greedy = evaluate([(0, detected)], [(0, truth)], T=Fraction(2, 3), matching="greedy")
        exact = evaluate([(0, detected)], [(0, truth)], T=Fraction(2, 3), matching="exact")
        g, e = greedy.per_frame[0].matched, exact.per_frame[0].matched
        assert e >= g
        assert g <= min(len(detected), len(truth))


def test_report_bounds_on_random_corpora():
    rng = random.Random(5)
    for _ in range(100):
        detections, truths = [], []
        for fid in range(rng.randint(1, 4)):
            d, t = _random_frame_case(rng)
            detections.append((fid, d))
            truths.append((fid, t))
        report = evaluate(detections, truths)
        assert 0.0 <= report.precision <= 1.0
        assert 0.0 <= report.recall <= 1.0
        assert 0.0 <= report.f1 <= 1.0
        p, r = report.precision, report.recall
        want_f1 = 2 * p * r / (p + r) if p + r else 0.0
        assert math.isclose(report.f1, want_f1)


def _samples(labels):
    return [
        PairSample(id_a=i, id_b=i + 50, distance=1.0, effort_angle=1.0, label=lab)
        for i, lab in enumerate(labels)
    ]


def test_majority_baseline():
    assert majority_baseline(_samples([0, 0, 0, 1])) == 0.75
    assert majority_baseline(_samples([0, 1] * 10)) == 0.5
    assert majority_baseline(_samples([0] * 7)) == 1.0
    assert majority_baseline(_samples([1] * 7)) == 1.0
    with pytest.raises(ValueError):
        majority_baseline([])
    with pytest.raises(ValueError, match="labeled"):
        majority_baseline(_samples([0, None]))


def test_format_report_structure():
    report = evaluate(
        [(0, gs([1, 2])), (1, gs())],
        [(0, gs([1, 2])), (1, gs([3, 4]))],
    )
    text = format_report(report)
    assert "frame_id" in text.splitlines()[0]
    assert "precision: 1.0000" in text
    assert "recall:    0.5000" in text
    assert "tolerance: 2/3" in text
    assert "frames:    2" in text


def test_eval_report_is_immutable():
    report = evaluate([(0, gs([1, 2]))], [(0, gs([1, 2]))])
    assert isinstance(report, EvalReport)
    with pytest.raises(AttributeError):
        report.precision = 0.0
