"""Pair features: distance, effort angle, and frame deconstruction."""

import cmath
import dataclasses
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from fformation import features as features_mod
from fformation.core import AgentPose, Frame, GroupSet, PairSample, ValidationError, _upper_cells
from fformation.features import distance, effort_angle, pair_features, pairwise_deconstruct
from fformation.synthetic import SynthConfig, generate_synthetic

TWO_PI = 2.0 * math.pi


def oracle_effort_angle(a: AgentPose, b: AgentPose) -> float:
    """Independent effort-angle computation via complex phases."""
    bearing_ab = cmath.phase(complex(b.x - a.x, b.y - a.y))
    bearing_ba = cmath.phase(complex(a.x - b.x, a.y - b.y))
    da = cmath.phase(cmath.rect(1.0, a.body_theta - bearing_ab))
    db = cmath.phase(cmath.rect(1.0, b.body_theta - bearing_ba))
    return abs(da) + abs(db)


def pose(agent_id, x, y, theta):
    return AgentPose.make(agent_id, x, y, theta)


def test_distance_examples():
    assert distance(pose(1, 0, 0, 0), pose(2, 0, 0, 0)) == 0.0
    assert distance(pose(1, 0, 0, 0), pose(2, 3, 4, 0)) == 5.0
    assert distance(pose(1, 1, 1, 0), pose(2, -2, 5, 0)) == 5.0


def test_distance_symmetry_and_triangle_inequality():
    rng = random.Random(1)
    for _ in range(500):
        ps = [pose(i, rng.uniform(-5, 5), rng.uniform(-5, 5), 0) for i in range(3)]
        assert distance(ps[0], ps[1]) == distance(ps[1], ps[0])
        assert distance(ps[0], ps[2]) <= distance(ps[0], ps[1]) + distance(ps[1], ps[2]) + 1e-12


def test_effort_angle_examples():
    # Mutual facing scores 0; mutual back-to-back scores the full 2*pi.
    assert effort_angle(pose(1, 0, 0, 0.0), pose(2, 2, 0, math.pi)) == 0.0
    assert effort_angle(pose(1, 0, 0, math.pi), pose(2, 2, 0, 0.0)) == TWO_PI
    assert math.isclose(
        effort_angle(pose(1, 0, 0, math.pi / 2), pose(2, 2, 0, math.pi / 2)),
        math.pi,
        rel_tol=0,
        abs_tol=1e-12,
    )


def test_effort_angle_matches_independent_oracle():
    rng = random.Random(2)
    for _ in range(3000):
        a = pose(1, rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(0, TWO_PI))
        b = pose(2, rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(0, TWO_PI))
        got = effort_angle(a, b)
        want = oracle_effort_angle(a, b)
        assert abs(got - want) <= 1e-9, (a, b, got, want)


def test_effort_angle_commutative_and_bounded():
    rng = random.Random(3)
    for _ in range(3000):
        a = pose(1, rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(0, TWO_PI))
        b = pose(2, rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(0, TWO_PI))
        ea = effort_angle(a, b)
        assert ea == effort_angle(b, a)
        assert 0.0 <= ea <= TWO_PI


def test_effort_angle_rigid_motion_invariance():
    rng = random.Random(4)
    for _ in range(1000):
        a = pose(1, rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, TWO_PI))
        b = pose(2, rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, TWO_PI))
        base = effort_angle(a, b)
        tx, ty = rng.uniform(-20, 20), rng.uniform(-20, 20)
        shifted = effort_angle(
            pose(1, a.x + tx, a.y + ty, a.body_theta),
            pose(2, b.x + tx, b.y + ty, b.body_theta),
        )
        assert abs(shifted - base) <= 1e-9
        phi = rng.uniform(0, TWO_PI)
        c, s = math.cos(phi), math.sin(phi)
        rotated = effort_angle(
            pose(1, c * a.x - s * a.y, s * a.x + c * a.y, a.body_theta + phi),
            pose(2, c * b.x - s * b.y, s * b.x + c * b.y, b.body_theta + phi),
        )
        assert abs(rotated - base) <= 1e-9


def test_effort_angle_coincident_positions_warns_and_returns_zero():
    with pytest.warns(RuntimeWarning, match="share a position"):
        ea = effort_angle(pose(1, 1, 1, 0.3), pose(2, 1, 1, 2.0))
    assert ea == 0.0


def _circle_frame(n, truth=None, radius=1.0):
    agents = []
    for i in range(n):
        ang = TWO_PI * i / n
        agents.append(pose(i + 1, radius * math.cos(ang), radius * math.sin(ang), ang))
    return Frame(frame_id=0, agents=tuple(agents), truth=truth)


def test_pairwise_deconstruct_counts():
    assert len(pairwise_deconstruct(_circle_frame(18))) == 153
    assert len(pairwise_deconstruct(_circle_frame(2))) == 1
    assert len(pairwise_deconstruct(_circle_frame(5))) == 10
    for n in range(2, 31):
        assert len(pairwise_deconstruct(_circle_frame(n))) == n * (n - 1) // 2
    for frame in _labeled_frames():
        n = len(frame.agents)
        assert len(pairwise_deconstruct(frame)) == n * (n - 1) // 2


def test_pairwise_deconstruct_small_frames_and_errors():
    assert pairwise_deconstruct(Frame(frame_id=0, agents=())) == []
    one = Frame(frame_id=0, agents=(pose(1, 0, 0, 0),))
    assert pairwise_deconstruct(one) == []
    bad = Frame(frame_id=0, agents=(pose(1, 0, 0, 0), AgentPose(1, 1.0, 0.0, 0.0)))
    with pytest.raises(ValidationError):
        pairwise_deconstruct(bad)


def _labeled_frames():
    """Corpus frames with agents in shuffled order and ids far apart, a
    frame with every agent ungrouped, and frames of no and of one agent."""
    rng = random.Random(8)
    frames = []
    for f in generate_synthetic(SynthConfig(n_frames=12, seed=8)).frames:
        agents = [AgentPose(1000 - 7 * a.agent_id, a.x, a.y, a.body_theta) for a in f.agents]
        rng.shuffle(agents)
        truth = GroupSet.from_iterable([[1000 - 7 * i for i in g] for g in f.truth.groups])
        frames.append(Frame(frame_id=f.frame_id, agents=tuple(agents), truth=truth))
    frames.append(_circle_frame(5, truth=GroupSet()))
    frames.append(Frame(frame_id=40, agents=(), truth=GroupSet()))
    frames.append(Frame(frame_id=41, agents=(pose(1, 0, 0, 0),), truth=GroupSet()))
    return frames


def reference_samples(frame):
    """The samples of a frame built pair by pair: agents by ascending id,
    pairs row-major, features from distance and effort_angle, and labels
    from the truth groups (None without truth)."""
    agents = sorted(frame.agents, key=lambda a: a.agent_id)
    group = frame.truth.membership() if frame.truth is not None else {}
    samples = []
    for p in range(len(agents)):
        for q in range(p + 1, len(agents)):
            a, b = agents[p], agents[q]
            label = None
            if frame.truth is not None:
                label = int(a.agent_id in group and group.get(a.agent_id) == group.get(b.agent_id))
            samples.append(PairSample(a.agent_id, b.agent_id, distance(a, b), effort_angle(a, b), label))
    return samples


def test_pairwise_deconstruct_of_a_frame_warns_once_per_coincident_pair_in_id_order():
    frame = Frame(
        frame_id=0,
        agents=(pose(7, 1, 1, 0.3), pose(2, 1, 1, 2.0), pose(5, 1, 1, 4.0), pose(3, 0, 0, 1.0)),
        truth=GroupSet.from_iterable([[7, 5]]),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        samples = pairwise_deconstruct(frame)
    assert all(w.category is RuntimeWarning for w in caught)
    assert [str(w.message) for w in caught] == [
        f"agents {a} and {b} share a position; effort angle defaulted to 0"
        for a, b in ((2, 5), (2, 7), (5, 7))
    ]
    coincident = {(s.id_a, s.id_b): s for s in samples if s.distance == 0.0}
    assert sorted(coincident) == [(2, 5), (2, 7), (5, 7)]
    assert all(s.effort_angle == 0.0 for s in coincident.values())
    assert coincident[(5, 7)].label == 1 and coincident[(2, 5)].label == 0


def test_pairwise_deconstruct_labels_from_truth():
    truth = GroupSet.from_iterable([[1, 2, 3]])
    frame = _circle_frame(5, truth=truth)
    samples = pairwise_deconstruct(frame)
    by_pair = {(s.id_a, s.id_b): s.label for s in samples}
    assert by_pair[(1, 2)] == by_pair[(1, 3)] == by_pair[(2, 3)] == 1
    # Pairs touching an ungrouped agent are negative, not unlabeled.
    assert by_pair[(1, 4)] == 0
    assert by_pair[(4, 5)] == 0
    assert all(s.label is not None for s in samples)
    frames = _labeled_frames()
    for frame in frames:
        samples = pairwise_deconstruct(frame)
        assert [s.label for s in samples] == [w.label for w in reference_samples(frame)]
        assert all(type(s.label) is int for s in samples)
    ungrouped = pairwise_deconstruct(frames[12])  # the circle frame, no agent grouped
    assert len(ungrouped) == 10 and all(s.label == 0 for s in ungrouped)


def test_pairwise_deconstruct_unlabeled_without_truth():
    for frame in [_circle_frame(4), *(dataclasses.replace(f, truth=None) for f in _labeled_frames())]:
        samples = pairwise_deconstruct(frame)
        assert all(s.label is None for s in samples)
        # ids are emitted in ascending order within each sample
        assert all(s.id_a < s.id_b for s in samples)


def test_pairwise_deconstruct_features_match_direct_computation():
    frame = _circle_frame(6)
    poses = {a.agent_id: a for a in frame.agents}
    for s in pairwise_deconstruct(frame):
        a, b = poses[s.id_a], poses[s.id_b]
        assert s.distance == distance(a, b)
        assert s.effort_angle == effort_angle(a, b)
    # Shuffled agents give their samples by ascending id, pairs row-major,
    # with or without truth.
    frames = _labeled_frames()
    for frame in [*frames, *(dataclasses.replace(f, truth=None) for f in frames)]:
        assert pairwise_deconstruct(frame) == reference_samples(frame)


def test_pairwise_deconstruct_of_frames_is_the_samples_of_each_as_one_table():
    frames = _labeled_frames()
    table = pairwise_deconstruct(frames)
    samples = [s for f in frames for s in pairwise_deconstruct(f)]
    assert len(table) == len(samples)
    assert table.X.dtype == np.float64 and table.y.dtype == np.uint8
    # The same samples, bit for bit, in pair_features order.
    assert list(table) == samples
    offsets, i, j, X = pair_features(frames)
    assert np.array_equal(table.X.view(np.uint64), X.view(np.uint64))
    assert (table.ids[:, 0] < table.ids[:, 1]).all()
    assert table.y.sum() > 0 and (table.y == 0).sum() > 0


def test_pairwise_deconstruct_of_frames_needs_truth_and_valid_frames():
    frames = _labeled_frames()
    with pytest.raises(ValidationError, match="frame 3 has no ground-truth groups"):
        pairwise_deconstruct([*frames, Frame(frame_id=3, agents=())])
    bad = Frame(frame_id=9, agents=(pose(1, 0, 0, 0), AgentPose(1, 1.0, 0.0, 0.0)), truth=GroupSet())
    with pytest.raises(ValidationError, match="frame 9"):
        pairwise_deconstruct([bad])
    empty = pairwise_deconstruct([])
    assert len(empty) == 0 and empty.X.shape == (0, 2) and empty.ids.shape == (0, 2)


# ------------------------------------------------ batched pair features


def scalar_pair_rows(frames):
    """(offsets, i, j, X) built pair by pair from distance and effort_angle."""
    offsets, i, j, rows = [0], [], [], []
    for frame in frames:
        agents = sorted(frame.agents, key=lambda a: a.agent_id)
        for p in range(len(agents)):
            for q in range(p + 1, len(agents)):
                i.append(p)
                j.append(q)
                rows.append([distance(agents[p], agents[q]), effort_angle(agents[p], agents[q])])
        offsets.append(len(rows))
    return offsets, i, j, np.array(rows, dtype=np.float64).reshape(-1, 2)


def assert_bit_identical_pair_rows(frames):
    offsets, i, j, X = pair_features(frames)
    want_offsets, want_i, want_j, want_X = scalar_pair_rows(frames)
    assert offsets.tolist() == want_offsets
    assert i.tolist() == want_i and j.tolist() == want_j
    assert X.dtype == np.float64 and X.shape == want_X.shape
    assert np.array_equal(X.view(np.int64), want_X.view(np.int64))


def test_pair_features_equal_the_scalar_features_on_the_corpus():
    # The benchmark's corpus: 2000 training frames (64.9k pairs) and 500
    # evaluation frames.
    train = generate_synthetic(SynthConfig(n_frames=2000, seed=0)).frames
    assert_bit_identical_pair_rows(train)
    assert_bit_identical_pair_rows(generate_synthetic(SynthConfig(n_frames=500, seed=2)).frames)


def test_pair_features_equal_the_scalar_features_on_a_crowd_scene():
    config = SynthConfig(
        n_frames=1, groups_per_frame=(45, 45), n_distractors=50, area=(60.0, 60.0), seed=2
    )
    scene = generate_synthetic(config).frames
    assert len(scene[0].agents) > 150
    assert_bit_identical_pair_rows(scene)


def test_pair_features_equal_the_scalar_features_on_axis_aligned_pairs():
    # Offsets of +0 and -0 give bearings of pi and -pi: both offsets of a
    # pair must be computed, not one negated. A heading just below 2*pi
    # less a bearing of -pi comes close to 3*pi, where the wrap subtracts
    # 2*pi without a fmod.
    rng = random.Random(5)
    grid = [(float(x), float(y)) for x in (-1, 0, 2) for y in (-3, 0, 1)] + [(-0.0, -0.0)]
    headings = [0.0, math.pi, math.nextafter(TWO_PI, 0.0)]
    frames = [
        Frame(
            frame_id=k,
            agents=tuple(
                pose(10 - n, x, y, rng.choice([*headings, rng.uniform(0, TWO_PI)]))
                for n, (x, y) in enumerate(rng.sample(grid, rng.randint(0, len(grid))))
            ),
        )
        for k in range(40)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # (0, 0) and (-0, -0) coincide
        assert_bit_identical_pair_rows(frames)


def test_pair_features_of_no_frames_and_of_frames_without_pairs():
    offsets, i, j, X = pair_features([])
    assert offsets.tolist() == [0] and len(i) == len(j) == 0 and X.shape == (0, 2)
    empty, one = Frame(frame_id=0, agents=()), Frame(frame_id=1, agents=(pose(4, 0, 0, 0),))
    offsets, i, j, X = pair_features([empty, one, _circle_frame(3), empty])
    assert offsets.tolist() == [0, 0, 0, 3, 3]
    assert i.tolist() == [0, 0, 1] and j.tolist() == [1, 2, 2] and X.shape == (3, 2)


def test_pair_features_coincident_positions_score_zero_with_one_warning_per_pair():
    frames = [
        Frame(frame_id=0, agents=(pose(3, 1, 1, 0.3), pose(1, 1, 1, 2.0), pose(2, 1, 1, 4.0))),
        Frame(frame_id=1, agents=(pose(5, 0.0, 0.0, 1.0), pose(6, -0.0, 0.0, 2.0))),
        Frame(frame_id=2, agents=(pose(1, 0, 0, 0.0), pose(2, 2, 0, 3.0))),
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, _, _, X = pair_features(frames)
    messages = [str(w.message) for w in caught]
    assert all(w.category is RuntimeWarning for w in caught)
    assert messages == [
        f"agents {a} and {b} share a position; effort angle defaulted to 0"
        for a, b in ((1, 2), (1, 3), (2, 3), (5, 6))
    ]
    assert X[:4].tolist() == [[0.0, 0.0]] * 4
    assert X[4, 1] == effort_angle(frames[2].agents[0], frames[2].agents[1]) > 0.0


def test_pair_features_name_an_invalid_frame():
    good = _circle_frame(3)
    bad = Frame(frame_id=42, agents=(pose(1, 0, 0, 0), AgentPose(1, 1.0, 0.0, 0.0)))
    with pytest.raises(ValidationError, match="frame 42: duplicate agent id 1"):
        pair_features([good, bad])


@pytest.mark.parametrize("block", [1, 2, 4096])
def test_pair_features_name_the_agents_whose_distance_overflows(monkeypatch, block):
    # Finite positions whose offset overflows (2e308), or whose offsets are
    # finite but whose distance overflows: an error naming the frame and the
    # pair, and no numpy warning. Small blocks put the pair in a later pass.
    monkeypatch.setattr(features_mod, "_BLOCK_PAIRS", block)
    good = _circle_frame(3)
    offset = Frame(frame_id=9, agents=(pose(7, -1e308, 0, 0), pose(1, 0, 0, 0), pose(4, 1e308, 0, 0)))
    hypot = Frame(frame_id=5, agents=(pose(2, 0, 0, 0), pose(3, 1.5e308, 1.5e308, 0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for far, pair in ((offset, "4 and 7"), (hypot, "2 and 3")):
            with pytest.raises(ValidationError, match=f"frame {far.frame_id}: agents {pair} are too far"):
                pair_features([good, far, good])


def _shuffled_frames(sizes, rng, coincident):
    """Frames of the given sizes with ids in random order; with
    ``coincident``, about a third of the agents stand on another's spot."""
    frames = []
    for k, n in enumerate(sizes):
        agents = []
        for agent_id in rng.sample(range(100, 1000), n):
            if coincident and agents and rng.random() < 0.3:
                other = rng.choice(agents)
                x, y = other.x, other.y
            else:
                x, y = rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)
            agents.append(pose(agent_id, x, y, rng.uniform(0.0, TWO_PI)))
        frames.append(Frame(frame_id=k, agents=tuple(agents)))
    return frames


@pytest.mark.parametrize("coincident", [False, True])
def test_pair_features_of_every_frame_size_equal_the_scalar_features(coincident):
    # Every size from 0 to 25 agents, twice: 5.2k pairs, so the one call
    # works through more than one pass of pairs.
    frames = _shuffled_frames([*range(26), *range(25, -1, -1)], random.Random(41), coincident)
    assert sum(len(f.agents) * (len(f.agents) - 1) // 2 for f in frames) > features_mod._BLOCK_PAIRS
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert_bit_identical_pair_rows(frames)
        for frame in frames:
            assert_bit_identical_pair_rows([frame])


def test_pair_features_cached_indices_are_read_only():
    frame = _circle_frame(6)
    _, i, j, _ = pair_features([frame])
    cached = features_mod.pair_indices(6)
    assert cached.tolist() == [i.tolist(), j.tolist()]
    with pytest.raises(ValueError, match="read-only"):
        cached[0, 0] = 5
    # The caller's arrays are copies, which it may change.
    i[0] = 5
    assert features_mod.pair_indices(6)[0, 0] == 0
    # The relation matrix's cells (i, j), i < j, follow the same order.
    cells = _upper_cells(6)
    assert cells.tolist() == (6 * cached[0] + cached[1]).tolist()
    with pytest.raises(ValueError, match="read-only"):
        cells[0] = 1


def test_pair_features_transient_memory_does_not_grow_with_the_batch():
    # Two crowd scenes, 40k pairs. Their pairs are worked through in passes,
    # so beyond the result a call holds one index a pair and one pass.
    config = SynthConfig(
        n_frames=2, groups_per_frame=(45, 45), n_distractors=50, area=(60.0, 60.0), seed=2
    )
    scenes = generate_synthetic(config).frames
    pair_features(scenes)  # fills the index cache
    tracemalloc.start()
    try:
        result = pair_features(scenes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pairs = len(result[3])
    assert pairs > 35_000
    assert peak <= sum(a.nbytes for a in result) + 8 * pairs + 3_000_000
