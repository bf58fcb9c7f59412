"""Pairwise deconstruction of frames and the two pair features.

A frame of n people is broken into all n*(n-1)/2 unordered pairs; each
pair is described by two numbers:

* distance: Euclidean distance between the two positions, in meters.
* effort angle: total body rotation, in [0, 2*pi], that the two people
  would need in order to face each other directly. 0 means they already
  face each other; 2*pi means they stand back to back.

Both features are commutative, so one sample per unordered pair suffices.
:func:`pair_features` gives the same numbers for many frames at once, as
arrays.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache
from itertools import accumulate, combinations
from operator import attrgetter
from typing import Sequence

import numpy as np

from .core import TWO_PI, Frame, PairSample, AgentPose, validate_frame

__all__ = ["distance", "effort_angle", "pair_features", "pair_indices", "pairwise_deconstruct"]

_BY_ID = attrgetter("agent_id")

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


@lru_cache(maxsize=32)
def pair_indices(n: int) -> np.ndarray:
    """The pairs of n agents in the order :func:`pair_features` gives them:
    a read-only (2, pairs) array of rows ``i`` and ``j``, i < j, row-major.
    The last 32 sizes asked for are kept."""
    pairs = np.array(np.triu_indices(n, 1))
    pairs.setflags(write=False)
    return pairs


def pair_features(frames: Sequence[Frame]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pairs of many frames as arrays ``(offsets, i, j, X)``.

    Frame ``f`` owns rows ``offsets[f]:offsets[f + 1]``. ``i < j`` index
    the frame's agents in ascending id order, and its pairs run in
    row-major order. ``X`` holds [distance, effort_angle] rows equal bit
    for bit to :func:`distance` and :func:`effort_angle`, coincident
    agents included (effort 0 and one RuntimeWarning per pair). Raises
    ValidationError, naming the frame, for an invalid frame.
    """
    poses: list[AgentPose] = []
    sizes = []
    for frame in frames:
        validate_frame(frame)
        poses += sorted(frame.agents, key=_BY_ID)
        sizes.append(len(frame.agents))
    counts = [n * (n - 1) // 2 for n in sizes]
    offsets, starts = np.array([[0, *accumulate(counts)], [0, *accumulate(sizes)]], dtype=np.intp)
    ij = np.concatenate([pair_indices(n) for n in sizes] or [pair_indices(0)], axis=1)
    first = np.repeat(starts[:-1], counts)  # where each pair's frame starts in ``poses``
    pose = np.array([(p.x, p.y, p.body_theta) for p in poses], dtype=np.float64)
    X = np.empty((ij.shape[1], 2))
    for start in range(0, ij.shape[1], _BLOCK_PAIRS):
        rows = slice(start, start + _BLOCK_PAIRS)
        ends = ij[:, rows] + first[rows]
        # (2, pairs, 3): the poses of a and of b; with the halves swapped,
        # of b and of a. The offsets are taken both ways, not negated:
        # atan2 tells +0 from -0.
        at = pose[ends]
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
        if not dist.all():  # a distance is zero exactly when both offsets are
            for k in np.flatnonzero(dist == 0.0).tolist():
                a, b = ends[:, k].tolist()
                warnings.warn(
                    f"agents {poses[a].agent_id} and {poses[b].agent_id} share a position; "
                    f"effort angle defaulted to 0",
                    RuntimeWarning,
                    stacklevel=2,
                )
            out[dist == 0.0, 1] = 0.0
    return offsets, ij[0], ij[1], X


def pairwise_deconstruct(frame: Frame) -> list[PairSample]:
    """Break a frame into one PairSample per unordered agent pair.

    Returns exactly n*(n-1)/2 samples (empty when n < 2). When the frame
    carries ground truth, each sample is labeled 1 iff both agents share
    a truth group; pairs with an ungrouped agent get label 0. Without
    truth the samples are unlabeled.
    """
    validate_frame(frame)
    membership = frame.truth.membership() if frame.truth is not None else None
    samples = []
    for a, b in combinations(frame.agents, 2):
        label = None
        if membership is not None:
            ga = membership.get(a.agent_id)
            gb = membership.get(b.agent_id)
            label = 1 if (ga is not None and ga == gb) else 0
        id_a, id_b = a.agent_id, b.agent_id
        if id_b < id_a:
            id_a, id_b = id_b, id_a
        samples.append(
            PairSample(
                id_a=id_a,
                id_b=id_b,
                distance=distance(a, b),
                effort_angle=effort_angle(a, b),
                label=label,
            )
        )
    return samples
