"""Domain type invariants: angles, poses, group sets, relation matrices."""

import math

import numpy as np
import pytest

from fformation.core import (
    TWO_PI,
    AgentPose,
    Frame,
    GroupSet,
    PairSample,
    RelationMatrix,
    ValidationError,
    check_groups,
    normalize_angle,
    validate_frame,
)


def test_normalize_angle_basic():
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(TWO_PI) == 0.0
    assert math.isclose(normalize_angle(-math.pi / 2), 3 * math.pi / 2)
    assert math.isclose(normalize_angle(5 * math.pi), math.pi)


def test_normalize_angle_idempotent_and_in_range():
    import random

    rng = random.Random(0)
    for _ in range(2000):
        theta = rng.uniform(-50.0, 50.0)
        out = normalize_angle(theta)
        assert 0.0 <= out < TWO_PI
        assert normalize_angle(out) == out


def test_normalize_angle_tiny_negative_does_not_return_two_pi():
    # -1e-300 % 2*pi rounds to 2*pi exactly; the result must stay in range.
    out = normalize_angle(-1e-300)
    assert 0.0 <= out < TWO_PI


def test_normalize_angle_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            normalize_angle(bad)


def test_agent_pose_make_normalizes():
    p = AgentPose.make(3, 1.0, 2.0, -math.pi / 2, head_theta=TWO_PI + 0.25)
    assert math.isclose(p.body_theta, 3 * math.pi / 2)
    assert math.isclose(p.head_theta, 0.25)
    assert AgentPose.make(1, 0, 0, 1.0).head_theta is None


def test_group_set_helpers():
    gs = GroupSet.from_iterable([[3, 1, 2], [5, 4]])
    assert gs.member_ids() == frozenset({1, 2, 3, 4, 5})
    assert gs.as_sorted_lists() == [[1, 2, 3], [4, 5]]
    assert gs.membership() == {1: 0, 2: 0, 3: 0, 4: 1, 5: 1}
    assert len(gs) == 2
    assert len(GroupSet()) == 0


def test_check_groups_rejects_singletons_and_overlap():
    with pytest.raises(ValidationError, match="singleton"):
        check_groups(GroupSet.from_iterable([[1]]))
    with pytest.raises(ValidationError, match="more than one group"):
        check_groups(GroupSet.from_iterable([[1, 2], [2, 3]]))
    with pytest.raises(ValidationError, match="unknown agent"):
        check_groups(GroupSet.from_iterable([[1, 9]]), known_ids={1, 2})


def _frame(agents, truth=None):
    return Frame(frame_id=7, agents=tuple(agents), truth=truth)


def test_validate_frame_accepts_good_frame():
    f = _frame(
        [AgentPose.make(1, 0, 0, 0.1), AgentPose.make(2, 1, 1, 0.2)],
        truth=GroupSet.from_iterable([[1, 2]]),
    )
    assert validate_frame(f) is f


def test_validate_frame_errors_name_frame_and_agent():
    dup = _frame([AgentPose.make(1, 0, 0, 0), AgentPose.make(1, 1, 0, 0)])
    with pytest.raises(ValidationError, match=r"frame 7.*duplicate agent id 1"):
        validate_frame(dup)

    bad_pos = _frame([AgentPose(agent_id=2, x=math.nan, y=0.0, body_theta=0.0)])
    with pytest.raises(ValidationError, match=r"frame 7.*agent 2.*non-finite"):
        validate_frame(bad_pos)

    bad_angle = _frame([AgentPose(agent_id=3, x=0.0, y=0.0, body_theta=7.0)])
    with pytest.raises(ValidationError, match=r"agent 3.*outside"):
        validate_frame(bad_angle)

    bad_head = _frame([AgentPose(agent_id=4, x=0.0, y=0.0, body_theta=0.0, head_theta=-0.5)])
    with pytest.raises(ValidationError, match=r"agent 4.*outside"):
        validate_frame(bad_head)

    bad_truth = _frame(
        [AgentPose.make(1, 0, 0, 0), AgentPose.make(2, 1, 0, 0)],
        truth=GroupSet.from_iterable([[1, 3]]),
    )
    with pytest.raises(ValidationError, match=r"frame 7.*unknown agent 3"):
        validate_frame(bad_truth)


def test_frame_pose_lookup():
    f = _frame([AgentPose.make(1, 0, 0, 0), AgentPose.make(2, 1, 0, 0)])
    assert f.pose_of(2).x == 1.0
    assert f.agent_ids() == [1, 2]
    with pytest.raises(KeyError):
        f.pose_of(9)


def test_relation_matrix_validation():
    good = RelationMatrix(ids=(1, 2), m=np.array([[1, 1], [1, 1]]))
    assert good.n == 2
    assert not good.m.flags.writeable

    with pytest.raises(ValueError, match="symmetric"):
        RelationMatrix(ids=(1, 2), m=np.array([[1, 1], [0, 1]]))
    with pytest.raises(ValueError, match="diagonal"):
        RelationMatrix(ids=(1, 2), m=np.array([[0, 1], [1, 1]]))
    with pytest.raises(ValueError, match="shape"):
        RelationMatrix(ids=(1, 2, 3), m=np.eye(2, dtype=int))
    with pytest.raises(ValueError, match="0 or 1"):
        RelationMatrix(ids=(1, 2), m=np.array([[1, 2], [2, 1]]))


def test_relation_matrix_copies_input():
    src = np.eye(3, dtype=np.uint8)
    rm = RelationMatrix(ids=(1, 2, 3), m=src)
    src[0, 1] = 1
    assert rm.m[0, 1] == 0


def test_relation_matrix_copies_are_validated_and_write_locked():
    import copy
    import pickle

    rm = RelationMatrix(ids=(2, 5, 9), m=np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]]))
    for clone in (pickle.loads(pickle.dumps(rm)), copy.deepcopy(rm), copy.copy(rm)):
        assert clone.ids == rm.ids
        assert np.array_equal(clone.m, rm.m) and clone.m.dtype == rm.m.dtype
        assert not clone.m.flags.writeable
        with pytest.raises(ValueError):
            clone.m[0, 2] = 1


def test_slotted_core_types_survive_pickle_deepcopy_and_replace():
    import copy
    import dataclasses
    import pickle

    pose = AgentPose.make(3, 0.5, -1.25, 1.0, head_theta=2.0)
    frame = Frame(
        frame_id=7,
        agents=(pose, AgentPose.make(4, 1.0, 0.0, 3.0)),
        timestamp=1.5,
        truth=GroupSet.from_iterable([[3, 4]]),
    )
    sample = PairSample(id_a=3, id_b=4, distance=0.75, effort_angle=0.5, label=1)
    for value in (pose, frame, sample):
        assert not hasattr(value, "__dict__")
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.deepcopy(value) == value
    assert dataclasses.replace(pose, x=2.0) == AgentPose.make(3, 2.0, -1.25, 1.0, head_theta=2.0)
    assert dataclasses.replace(frame, truth=None).agents == frame.agents
    assert dataclasses.replace(sample, label=0).label == 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        pose.x = 1.0
