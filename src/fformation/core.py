"""Core domain types shared by every other module.

All types are immutable after construction and safe to share between
concurrent workers. Angles are radians, counterclockwise-positive, with 0
along the world +x axis; coordinates are meters in a fixed world frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

TWO_PI = 2.0 * math.pi


class ValidationError(ValueError):
    """A frame or group structure violates a core invariant."""


def normalize_angle(theta: float) -> float:
    """Reduce an angle to the canonical range [0, 2*pi).

    Raises ValueError on non-finite input. Idempotent.
    """
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    out = theta % TWO_PI
    # Tiny negative inputs can round the modulo up to exactly 2*pi.
    if out >= TWO_PI:
        out = 0.0
    return out


@dataclass(frozen=True, slots=True)
class AgentPose:
    """One person's 2-D position and body heading in a frame.

    ``body_theta`` (and ``head_theta`` when present) must already be
    normalized to [0, 2*pi); use :meth:`make` to normalize on construction.
    ``head_theta`` is carried through the pipeline but unused by the
    default feature set.
    """

    agent_id: int
    x: float
    y: float
    body_theta: float
    head_theta: Optional[float] = None

    @classmethod
    def make(
        cls,
        agent_id: int,
        x: float,
        y: float,
        body_theta: float,
        head_theta: Optional[float] = None,
    ) -> "AgentPose":
        """Build a pose, normalizing angles into [0, 2*pi)."""
        return cls(
            agent_id=int(agent_id),
            x=float(x),
            y=float(y),
            body_theta=normalize_angle(float(body_theta)),
            head_theta=None if head_theta is None else normalize_angle(float(head_theta)),
        )


@dataclass(frozen=True, slots=True)
class GroupSet:
    """A partition fragment: disjoint sets of agent ids, each of size >= 2.

    Singletons are representable only implicitly, as agents absent from
    every group. The container itself does not validate; invariants are
    enforced by :func:`validate_frame` (and by ``check_groups`` directly)
    so that loaders can report violations with frame context.
    """

    groups: tuple[frozenset[int], ...] = ()

    @classmethod
    def from_iterable(cls, groups: Iterable[Iterable[int]]) -> "GroupSet":
        return cls(tuple(frozenset(int(a) for a in g) for g in groups))

    def member_ids(self) -> frozenset[int]:
        out: set[int] = set()
        for g in self.groups:
            out |= g
        return frozenset(out)

    def membership(self) -> dict[int, int]:
        """Map agent_id -> group index, for agents that appear in a group."""
        out: dict[int, int] = {}
        for gi, g in enumerate(self.groups):
            for a in g:
                out[a] = gi
        return out

    def as_sorted_lists(self) -> list[list[int]]:
        """Canonical serializable form: members ascending, groups by smallest member."""
        return sorted((sorted(g) for g in self.groups), key=lambda g: g)

    def __len__(self) -> int:
        return len(self.groups)


@dataclass(frozen=True, slots=True)
class Frame:
    """A timestamped scene: agent poses plus optional ground-truth grouping."""

    frame_id: int
    agents: tuple[AgentPose, ...]
    timestamp: Optional[float] = None
    truth: Optional[GroupSet] = None

    def agent_ids(self) -> list[int]:
        return [a.agent_id for a in self.agents]

    def pose_of(self, agent_id: int) -> AgentPose:
        for a in self.agents:
            if a.agent_id == agent_id:
                return a
        raise KeyError(f"no agent {agent_id} in frame {self.frame_id}")


@dataclass(frozen=True, slots=True)
class PairSample:
    """Features and optional binary label for one unordered person-pair.

    ``label`` is 1 when both agents share an F-formation, 0 when not,
    and None for unlabeled data. Features are commutative, so the sample
    for (a, b) equals the sample for (b, a).
    """

    id_a: int
    id_b: int
    distance: float
    effort_angle: float
    label: Optional[int] = None


@dataclass(frozen=True, slots=True)
class RelationMatrix:
    """n x n symmetric binary matrix of pairwise same-group predictions.

    Diagonal entries are all 1. ``ids`` lists the agent ids in row order
    (ascending). The underlying array is write-locked on construction,
    and pickled or copied matrices are built through the constructor too.
    """

    ids: tuple[int, ...]
    m: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        m = np.array(self.m, dtype=np.uint8, order="C")  # a copy the caller cannot reach
        n = len(self.ids)
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match {n} ids")
        # The checks compare the entries as bytes, row-major.
        cells = m.tobytes()
        if cells != m.T.tobytes():
            raise ValueError("relation matrix must be symmetric")
        if cells[:: n + 1] != b"\1" * n:
            raise ValueError("relation matrix must have a unit diagonal")
        if cells.translate(None, b"\0\1"):
            raise ValueError("relation matrix entries must be 0 or 1")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    def __reduce__(self):
        return (RelationMatrix, (self.ids, self.m))

    @property
    def n(self) -> int:
        return len(self.ids)


def check_groups(groups: GroupSet, known_ids: Optional[set[int]] = None, where: str = "") -> None:
    """Raise ValidationError unless the GroupSet invariants hold.

    Checks pairwise disjointness and the size >= 2 rule; when ``known_ids``
    is given, also that every member is a known agent.
    """
    seen: set[int] = set()
    for g in groups.groups:
        if len(g) < 2:
            member = next(iter(g)) if g else "<empty>"
            raise ValidationError(f"{where}singleton group containing agent {member}")
        for a in g:
            if a in seen:
                raise ValidationError(f"{where}agent {a} appears in more than one group")
            if known_ids is not None and a not in known_ids:
                raise ValidationError(f"{where}group references unknown agent {a}")
        seen |= g


def validate_frame(frame: Frame) -> Frame:
    """Return the frame iff all type invariants hold, else raise ValidationError.

    Reported violations carry the frame_id and the offending agent id:
    duplicate agent ids, non-finite coordinates, out-of-range angles,
    and truth groups that are singletons, overlap, or reference unknown ids.
    """
    where = f"frame {frame.frame_id}: "
    ids: set[int] = set()
    for pose in frame.agents:
        if pose.agent_id in ids:
            raise ValidationError(f"{where}duplicate agent id {pose.agent_id}")
        ids.add(pose.agent_id)
        if not (math.isfinite(pose.x) and math.isfinite(pose.y)):
            raise ValidationError(f"{where}agent {pose.agent_id} has non-finite position")
        if not (math.isfinite(pose.body_theta) and 0.0 <= pose.body_theta < TWO_PI):
            raise ValidationError(
                f"{where}agent {pose.agent_id} body orientation {pose.body_theta!r} "
                f"outside [0, 2*pi)"
            )
        if pose.head_theta is not None and not (
            math.isfinite(pose.head_theta) and 0.0 <= pose.head_theta < TWO_PI
        ):
            raise ValidationError(
                f"{where}agent {pose.agent_id} head orientation {pose.head_theta!r} "
                f"outside [0, 2*pi)"
            )
    if frame.truth is not None:
        check_groups(frame.truth, known_ids=ids, where=where)
    return frame
