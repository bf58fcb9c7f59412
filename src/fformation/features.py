"""Pairwise deconstruction of frames and the two pair features.

A frame of n people is broken into all n*(n-1)/2 unordered pairs; each
pair is described by two numbers:

* distance: Euclidean distance between the two positions, in meters.
* effort angle: total body rotation, in [0, 2*pi], that the two people
  would need in order to face each other directly. 0 means they already
  face each other; 2*pi means they stand back to back.

Both features are commutative, so one sample per unordered pair suffices.
Every pair comes from :func:`pair_features`, which gives the numbers of
:func:`distance` and :func:`effort_angle` for many frames at once, as
arrays.
"""

from __future__ import annotations

import math
import warnings
from itertools import accumulate, chain, repeat
from operator import attrgetter
from typing import Sequence

import numpy as np

from .core import (TWO_PI, AgentPose, Frame, PairSample, PairTable, ValidationError, pair_indices,
                   validate_frame)

__all__ = ["distance", "effort_angle", "ordered_agents", "pair_features", "pair_indices",
           "pairwise_deconstruct"]

_BY_ID = attrgetter("agent_id")
_POSE = attrgetter("x", "y", "body_theta")

# Pairs whose features one pass computes. Beyond its result, a call holds
# one index a pair and one pass, about 1.5 MB: most of it the Python float
# lists that the per-element math calls read, 128 bytes a pair.
_BLOCK_PAIRS = 1 << 12


def _wrap_pi(theta: float) -> float:
    """Wrap an angle difference into [-pi, pi]."""
    out = math.fmod(theta, 2.0 * math.pi)
    if out > math.pi:
        out -= 2.0 * math.pi
    elif out < -math.pi:
        out += 2.0 * math.pi
    return out


def distance(a: AgentPose, b: AgentPose) -> float:
    """Euclidean distance between two agents' positions."""
    return math.hypot(a.x - b.x, a.y - b.y)


def _turn_toward(pose: AgentPose, other: AgentPose) -> float:
    """Absolute body rotation, in [0, pi], for ``pose`` to face ``other``."""
    bearing = math.atan2(other.y - pose.y, other.x - pose.x)
    return abs(_wrap_pi(pose.body_theta - bearing))


def effort_angle(a: AgentPose, b: AgentPose) -> float:
    """Total body rotation required for a and b to face each other.

    Sum of each agent's absolute wrapped heading-to-bearing difference,
    so the result lies in [0, 2*pi] and is exactly commutative. A pair at
    coincident positions has no defined bearing; it is scored 0 and a
    RuntimeWarning is emitted (distance 0 dominates downstream anyway).
    """
    if a.x == b.x and a.y == b.y:
        warnings.warn(
            f"agents {a.agent_id} and {b.agent_id} share a position; "
            f"effort angle defaulted to 0",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    return _turn_toward(a, b) + _turn_toward(b, a)


def pair_features(frames: Sequence[Frame]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pairs of many frames as arrays ``(offsets, i, j, X)``.

    Frame ``f`` owns rows ``offsets[f]:offsets[f + 1]``. ``i < j`` index
    the frame's agents in ascending id order, and its pairs run in
    row-major order. ``X`` holds [distance, effort_angle] rows equal bit
    for bit to :func:`distance` and :func:`effort_angle`, coincident
    agents included (effort 0 and one RuntimeWarning per pair). Raises
    ValidationError, naming the frame, for an invalid frame.
    """
    _, offsets, ij, _, X = _pair_rows(frames)
    i, j = np.array(ij)  # the caller's to change, not the cache's
    return np.array(offsets, dtype=np.intp), i, j, X


def _pair_rows(
    frames: Sequence[Frame],
) -> tuple[list[AgentPose], list[int], np.ndarray, np.ndarray, np.ndarray]:
    """:func:`pair_features` as ``(poses, offsets, ij, ends, X)``, where
    ``offsets`` is a list, ``ij`` stacks ``i`` and ``j``, ``poses`` lists
    the frames' agents in row order and ``ends`` holds each pair's two
    agents as positions in ``poses``. ``ij`` and ``ends`` may be read-only."""
    poses: list[AgentPose] = []
    sizes = []
    for frame in frames:
        validate_frame(frame)
        poses += ordered_agents(frame)
        sizes.append(len(frame.agents))
    counts = [n * (n - 1) // 2 for n in sizes]
    offsets = [0, *accumulate(counts)]
    if len(sizes) < 2:
        # No frame or one: the cached indices of its agents are their
        # positions in ``poses`` already.
        ij = ends = pair_indices(sum(sizes))
    else:
        ij = np.concatenate([pair_indices(n) for n in sizes], axis=1)
        ends = ij + np.repeat([0, *accumulate(sizes[:-1])], counts)
    pose = np.fromiter(chain.from_iterable(map(_POSE, poses)), np.float64, 3 * len(poses))
    pose = pose.reshape(-1, 3)
    X = np.empty((ij.shape[1], 2))
    for start in range(0, ij.shape[1], _BLOCK_PAIRS):
        rows = slice(start, start + _BLOCK_PAIRS)
        block = ends[:, rows]
        # (2, pairs, 3): the poses of a and of b; with the halves swapped,
        # of b and of a. The offsets are taken both ways, not negated:
        # atan2 tells +0 from -0.
        at = pose[block]
        dx, dy = (at[::-1] - at).reshape(-1, 3).T[:2].tolist()
        # The turns of a toward b and of b toward a. atan2 and hypot are
        # math's, per element: numpy's own can differ from them in the last
        # ulp. :func:`_wrap_pi` without its fmod and its lower branch, which
        # change nothing here: a heading in [0, 2*pi) less a bearing in
        # [-pi, pi] lies in [-pi, 3*pi], and above 2*pi, subtracting 2*pi is
        # exact, as fmod is (Sterbenz).
        turn = at[:, :, 2] - np.fromiter(map(math.atan2, dy, dx), np.float64, len(dx)).reshape(2, -1)
        np.subtract(turn, TWO_PI, out=turn, where=turn > math.pi)
        np.abs(turn, out=turn)
        out = X[rows]
        out[:, 0] = dist = np.fromiter(map(math.hypot, dx, dy), np.float64, len(out))
        np.add(turn[0], turn[1], out=out[:, 1])
        if np.count_nonzero(dist) < len(dist):  # zero exactly when both offsets are
            for k in np.flatnonzero(dist == 0.0).tolist():
                a, b = block[:, k].tolist()
                warnings.warn(
                    f"agents {poses[a].agent_id} and {poses[b].agent_id} share a position; "
                    f"effort angle defaulted to 0",
                    RuntimeWarning,
                    stacklevel=3,
                )
            out[dist == 0.0, 1] = 0.0
    return poses, offsets, ij, ends, X


def ordered_agents(frame: Frame) -> list[AgentPose]:
    """A frame's agents in ascending id order: the order in which
    :func:`pair_features` indexes them and relation matrices list them."""
    return sorted(frame.agents, key=_BY_ID)


def pairwise_deconstruct(frames: Frame | Sequence[Frame]) -> list[PairSample] | PairTable:
    """Break a frame into one PairSample per unordered agent pair, or
    many frames into one PairTable.

    A frame gives exactly n*(n-1)/2 samples (empty when n < 2), in the
    row order of :func:`pair_features`: agents by ascending id, pairs
    row-major. When the frame carries ground truth, each sample is labeled
    1 iff both agents share a truth group; pairs with an ungrouped agent
    get label 0. Without truth the samples are unlabeled.

    A sequence of frames, which must all carry ground truth (else
    ValidationError), gives the samples of each frame in turn as one
    table from one :func:`pair_features` call.
    """
    if isinstance(frames, Frame):
        ids, X, y = _pairs([frames], labeled=frames.truth is not None)
        labels = repeat(None) if y is None else y.tolist()
        return list(map(PairSample, *ids.T.tolist(), *X.T.tolist(), labels))
    frames = list(frames)
    for frame in frames:
        if frame.truth is None:
            raise ValidationError(
                f"frame {frame.frame_id} has no ground-truth groups; cannot train on it"
            )
    ids, X, y = _pairs(frames, labeled=True)
    return PairTable(X=X, y=y, ids=ids)


def _pairs(frames: list[Frame], labeled: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The pairs of ``frames`` in :func:`pair_features` order: the
    (pairs, 2) ids of their agents, their features and, when ``labeled``,
    their labels."""
    poses, _, _, ends, X = _pair_rows(frames)
    ids = [p.agent_id for p in poses]
    y = None
    if labeled:
        # Truth groups have indices >= 0; each ungrouped agent takes a
        # negative one of its own, so its pairs are labeled 0.
        groups: list[int] = []
        for frame in frames:
            membership = frame.truth.membership()
            start = len(groups)
            frame_ids = ids[start : start + len(frame.agents)]
            groups += [membership.get(a, -1 - k) for k, a in enumerate(frame_ids, start)]
        g = np.array(groups, dtype=np.intp)[ends]
        y = (g[0] == g[1]).view(np.uint8)
    return np.array(ids)[ends.T], X, y
