"""Descriptive shape metrics for groups: symmetry and tightness.

Symmetry accumulates, in degrees, the absolute errors between the
angular gaps of adjacent members (consecutive by polar angle about the
group centroid, wrap included) and the perfect gap 360/N. A regular
N-gon scores 0; a 2-member group is 0 by definition. Tightness is the
mean member-to-centroid distance in meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import AgentPose, Frame, GroupSet, ValidationError


@dataclass(frozen=True)
class GroupShape:
    group: frozenset
    center: tuple[float, float]
    symmetry: float  # degrees
    tightness: float  # meters


def group_center(poses: Sequence[AgentPose]) -> tuple[float, float]:
    """Arithmetic centroid of member positions."""
    if len(poses) < 2:
        raise ValueError(f"group_center requires >= 2 poses, got {len(poses)}")
    n = len(poses)
    return (sum(p.x for p in poses) / n, sum(p.y for p in poses) / n)


def perfect_gap(n: int) -> float:
    """The ideal adjacent-member gap for an N-member group, in degrees."""
    if n < 2:
        raise ValueError("perfect gap needs n >= 2")
    return 360.0 / n


def symmetry_from_angles(angles: Sequence[float]) -> float:
    """Accumulated gap error, in degrees, for members at given polar angles.

    `angles` are radians about the group center. The N gaps between
    consecutive sorted angles (including the wrap) are compared against
    the perfect gap 2*pi/N.
    """
    n = len(angles)
    if n < 2:
        raise ValueError("symmetry needs >= 2 members")
    if n == 2:
        return 0.0
    ordered = sorted(a % (2.0 * math.pi) for a in angles)
    ideal = 2.0 * math.pi / n
    total = 0.0
    for i in range(n):
        gap = ordered[(i + 1) % n] - ordered[i]
        if i == n - 1:
            gap += 2.0 * math.pi
        total += abs(ideal - gap)
    return math.degrees(total)


def symmetry(poses: Sequence[AgentPose]) -> float:
    """Accumulated adjacent-gap error about the centroid, in degrees."""
    if len(poses) < 2:
        raise ValueError(f"symmetry requires >= 2 poses, got {len(poses)}")
    if len(poses) == 2:
        return 0.0
    cx, cy = group_center(poses)
    angles = []
    for p in poses:
        dx, dy = p.x - cx, p.y - cy
        if dx == 0.0 and dy == 0.0:
            raise ValueError(
                f"agent {p.agent_id} sits exactly at the group centroid; polar angle undefined"
            )
        angles.append(math.atan2(dy, dx))
    return symmetry_from_angles(angles)


def tightness(poses: Sequence[AgentPose]) -> float:
    """Mean member-to-centroid distance in meters."""
    if len(poses) < 2:
        raise ValueError(f"tightness requires >= 2 poses, got {len(poses)}")
    cx, cy = group_center(poses)
    return sum(math.hypot(p.x - cx, p.y - cy) for p in poses) / len(poses)


def shape_of(frame: Frame, group: frozenset) -> GroupShape:
    """Shape metrics for one group of a frame."""
    poses = []
    for agent_id in sorted(group):
        try:
            poses.append(frame.pose_of(agent_id))
        except KeyError:
            raise ValidationError(
                f"frame {frame.frame_id}: group member {agent_id} has no pose"
            ) from None
    try:
        sym = symmetry(poses)
    except ValueError as exc:  # a member at the centroid
        raise ValidationError(f"frame {frame.frame_id}: {exc}") from None
    return GroupShape(
        group=frozenset(group),
        center=group_center(poses),
        symmetry=sym,
        tightness=tightness(poses),
    )


@dataclass(frozen=True)
class SizeStats:
    size: int
    count: int
    mean_symmetry: float
    mean_tightness: float


def characterize_corpus(
    frames: Sequence[Frame],
    groups_per_frame: Optional[Sequence[GroupSet]] = None,
) -> tuple[SizeStats, ...]:
    """Per-size (count, mean symmetry, mean tightness) over a corpus.

    Uses each frame's truth groups unless `groups_per_frame` supplies
    detections aligned with `frames`. Sizes are reported ascending.
    """
    if groups_per_frame is None:
        pairs = [(f, f.truth) for f in frames]
    else:
        if len(groups_per_frame) != len(frames):
            raise ValueError("groups_per_frame must align one-to-one with frames")
        pairs = list(zip(frames, groups_per_frame))
    sums: dict[int, list[float]] = {}
    for frame, gs in pairs:
        if gs is None:
            continue
        for group in gs.groups:
            shape = shape_of(frame, group)
            bucket = sums.setdefault(len(group), [0, 0.0, 0.0])
            bucket[0] += 1
            bucket[1] += shape.symmetry
            bucket[2] += shape.tightness
    return tuple(
        SizeStats(size=size, count=int(c), mean_symmetry=s / c, mean_tightness=t / c)
        for size, (c, s, t) in sorted(sums.items())
    )


def format_size_table(stats: Sequence[SizeStats]) -> str:
    """Render per-size statistics as an aligned text table."""
    lines = ["size  count  mean_symmetry_deg  mean_tightness_m"]
    for st in stats:
        lines.append(
            f"{st.size:>4}  {st.count:>5}  {st.mean_symmetry:>17.2f}  {st.mean_tightness:>16.3f}"
        )
    return "\n".join(lines) + "\n"
