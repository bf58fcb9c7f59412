"""Tolerant group matching, report aggregation, and tolerance parsing."""

import math
import random
from fractions import Fraction

import numpy as np
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


def test_as_tolerance_reads_numpy_scalars():
    assert as_tolerance(np.float64(0.75)) == Fraction(3, 4)
    assert as_tolerance(np.float64(0.6667)) == Fraction(2, 3)
    assert as_tolerance(np.int64(1)) == Fraction(1)
    assert as_tolerance(np.float32(0.5)) == Fraction(1, 2)
    # A float32 is read as its own shortest decimal, not as the float64 it
    # widens to (0.10000000149011612).
    assert as_tolerance(np.float32(0.1)) == Fraction(1, 10)
    for tol in (as_tolerance(np.int64(1)), as_tolerance(np.float64(0.75))):
        assert type(tol.numerator) is int and type(tol.denominator) is int
    with pytest.raises(TypeError, match="bool"):
        as_tolerance(np.bool_(True))
    for bad in (np.float64(np.nan), np.float64(np.inf), np.float64(1.5), np.int64(0)):
        with pytest.raises(ValueError):
            as_tolerance(bad)


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


def test_group_match_follows_the_rule_in_integer_arithmetic():
    # With T = p/q, ceil(T*n) is -(-p*n // q) and floor((1-T)*n) is
    # (q-p)*n // q.
    rng = random.Random(8)
    for T in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 5), Fraction(2, 3), Fraction(3, 4), 1):
        p, q = Fraction(T).numerator, Fraction(T).denominator
        for _ in range(300):
            truth = set(rng.sample(range(12), rng.randint(1, 7)))
            detected = set(rng.sample(range(12), rng.randint(1, 8)))
            n = len(truth)
            covered, extra = len(detected & truth), len(detected - truth)
            want = covered >= -(-p * n // q) and extra <= (q - p) * n // q
            assert group_match(detected, truth, T) is want, (detected, truth, T)


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


def test_exact_matching_recovers_the_pair_greedy_gives_away():
    # At T = 1/2 the first detected group matches both truth groups and the
    # second only the first. Greedy hands the first truth group the first
    # detected group, which leaves the second truth group unmatched.
    truth = [(0, gs([1, 2, 3, 4], [5, 6, 7, 8]))]
    detected = [(0, gs([1, 2, 5, 6], [3, 4]))]
    greedy = evaluate(detected, truth, T=Fraction(1, 2), matching="greedy")
    exact = evaluate(detected, truth, T=Fraction(1, 2), matching="exact")
    assert (greedy.per_frame[0].matched, exact.per_frame[0].matched) == (1, 2)


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


def _near_truth_case(rng, n_agents):
    """Truth groups of 2-6 agents (some agents alone) and detected groups
    made from them: some groups missed, members dropped, strangers added,
    some groups split, halves of two groups merged, a few random groups, all in shuffled
    order. Detected groups may overlap."""
    ids = list(range(n_agents))
    rng.shuffle(ids)
    truths, pos = [], 0
    while pos < n_agents:
        size = rng.choice((1, 2, 2, 3, 3, 4, 5, 6))
        truths.append(ids[pos : pos + size])
        pos += size
    detected = []
    for group in truths:
        group = rng.sample(group, len(group))
        if rng.random() < 0.15:
            continue
        if len(group) >= 4 and rng.random() < 0.2:
            detected += [group[: len(group) // 2], group[len(group) // 2 :]]
            continue
        kept = group[: len(group) - rng.choice((0, 0, 1, 2))]
        detected.append(kept + rng.sample(ids, rng.choice((0, 0, 1, 2))))
    detected += [rng.sample(ids, rng.randint(2, 4)) for _ in range(rng.randint(0, 2))]
    for _ in range(rng.randint(0, 1 + len(truths) // 4)):
        # Half of each of two truth groups, which may match both of them.
        a, b = rng.sample(truths, 2) if len(truths) >= 2 else (truths[0], truths[0])
        detected.append(rng.sample(a, (len(a) + 1) // 2) + rng.sample(b, (len(b) + 1) // 2))
    rng.shuffle(detected)
    return gs(*(g for g in detected if g)), gs(*(g for g in truths if len(g) >= 2))


def reference_greedy(detected, truth, T):
    """The documented greedy, pair by pair on group_match: truth groups
    largest first (index order on ties), each taking the lowest-index free
    detected group it matches."""
    used, matched = set(), 0
    for t in sorted(range(len(truth)), key=lambda t: (-len(truth[t]), t)):
        for d in range(len(detected)):
            if d not in used and group_match(detected[d], truth[t], T):
                used.add(d)
                matched += 1
                break
    return matched


def reference_augmenting(detected, truth, T):
    """Maximum matching by Kuhn's augmenting paths over group_match."""
    owner = {}

    def augment(t, seen):
        for d in range(len(detected)):
            if d not in seen and group_match(detected[d], truth[t], T):
                seen.add(d)
                if d not in owner or augment(owner[d], seen):
                    owner[d] = t
                    return True
        return False

    return sum(augment(t, set()) for t in range(len(truth)))


def brute_force_maximum(detected, truth, T):
    """Maximum matching by trying every assignment of truth groups."""
    ok = [[group_match(d, t, T) for d in detected] for t in truth]

    def best(t, used):
        if t == len(truth):
            return 0
        options = [1 + best(t + 1, used | {d}) for d in range(len(detected))
                   if ok[t][d] and d not in used]
        return max([best(t + 1, used)] + options)

    return best(0, frozenset())


def _real(groupset):
    return [g for g in groupset.groups if len(g) >= 2]


def assert_evaluate_matches_references(cases, T, exact_reference):
    detections = [(fid, d) for fid, (d, _) in enumerate(cases)]
    truths = [(fid, t) for fid, (_, t) in enumerate(cases)]
    for matching, reference in (("greedy", reference_greedy), ("exact", exact_reference)):
        report = evaluate(detections, truths, T=T, matching=matching)
        want = []
        for fid, (d, t) in enumerate(cases):
            det, tru = _real(d), _real(t)
            want.append((fid, reference(det, tru, T), len(det), len(tru)))
        got = [(f.frame_id, f.matched, f.n_detected, f.n_truth) for f in report.per_frame]
        assert got == want, (matching, T)
        matched = sum(w[1] for w in want)
        n_det, n_truth = sum(w[2] for w in want), sum(w[3] for w in want)
        precision = matched / n_det if n_det else 0.0
        recall = matched / n_truth if n_truth else 0.0
        assert (report.precision, report.recall) == (precision, recall)
        assert report.tolerance == as_tolerance(T)


# Below 1/2 a detected group can match two disjoint truth groups of
# different sizes, so only there does the size order of greedy show.
@pytest.mark.parametrize("T", [Fraction(2, 3), Fraction(1, 2), 1, Fraction(1, 3)])
def test_evaluate_matches_pair_by_pair_references_on_small_frames(T):
    rng = random.Random(6)
    for _ in range(150):
        cases = [_near_truth_case(rng, rng.randint(4, 9)) for _ in range(rng.randint(1, 4))]
        cases += [_random_frame_case(rng)]
        assert_evaluate_matches_references(cases, T, brute_force_maximum)
        assert_evaluate_matches_references(cases, T, reference_augmenting)


@pytest.mark.parametrize("T", [Fraction(2, 3), Fraction(1, 2), 1, Fraction(1, 3)])
def test_evaluate_matches_pair_by_pair_references_on_crowd_frames(T):
    rng = random.Random(7)
    cases = [_near_truth_case(rng, 200) for _ in range(3)]
    assert all(len(t) >= 40 for _, t in cases)
    assert_evaluate_matches_references(cases, T, reference_augmenting)


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
