"""Core domain types, value rules and the pair order shared by every other module.

All types are immutable after construction and safe to share between
concurrent workers. Angles are radians, counterclockwise-positive, with 0
along the world +x axis; coordinates are meters in a fixed world frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi


class ValidationError(ValueError):
    """A frame or group structure violates a core invariant."""


def is_integer(value: Any) -> bool:
    """Whether ``value`` is a Python int, and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value: Any) -> bool:
    """Whether ``value`` is a Python int or float, and not a bool; it may
    be infinite or NaN."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Value rules, as (test, description), of hyperparameters, training seeds
# and generator configs. A test overflows on an integer too large for a float.
Rule = tuple[Callable[[Any], bool], str]
AT_LEAST_ONE = (lambda v: is_integer(v) and v >= 1, "an integer >= 1")
COUNT = (lambda v: is_integer(v) and v >= 0, "an integer >= 0")
NON_NEGATIVE = (lambda v: is_number(v) and math.isfinite(v) and v >= 0, "a finite number >= 0")
POSITIVE = (lambda v: is_number(v) and math.isfinite(v) and v > 0, "a finite number > 0")


def rule_problem(name: str, value: Any, rule: Rule) -> Optional[str]:
    """Why ``value`` breaks ``rule``: ``<name> must be <description>, got
    <value>``, or ``<name>: <message>`` for an overflow. None if it keeps it."""
    test, accepted = rule
    try:
        return None if test(value) else f"{name} must be {accepted}, got {value!r}"
    except OverflowError as exc:
        return f"{name}: {exc}"


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
        """Build a pose, normalizing angles into [0, 2*pi) as
        :func:`normalize_angle` does."""
        # One modulo in line; normalize_angle settles what it leaves out of
        # range: a non-finite angle, or a modulo rounded up to 2*pi.
        body = float(body_theta) % TWO_PI
        body = body if body < TWO_PI else normalize_angle(float(body_theta))
        if head_theta is not None:
            head = float(head_theta) % TWO_PI
            head_theta = head if head < TWO_PI else normalize_angle(float(head_theta))
        return cls(int(agent_id), float(x), float(y), body, head_theta)


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


@dataclass(frozen=True, slots=True, eq=False)
class PairTable:
    """Labeled pairs as arrays: row r is one unordered pair.

    ``X`` holds (distance, effort_angle) rows, ``y`` the labels and ``ids``
    the (id_a, id_b) rows with id_a < id_b. ``pairwise_deconstruct`` of a
    sequence of frames builds one; :meth:`from_samples` one of PairSamples.
    Iterating gives the rows as PairSamples. Tables compare by identity.
    """

    X: np.ndarray
    y: np.ndarray
    ids: np.ndarray

    def __len__(self) -> int:
        return len(self.y)

    def __iter__(self):
        for (id_a, id_b), (d, e), label in zip(self.ids.tolist(), self.X.tolist(), self.y.tolist()):
            yield PairSample(id_a, id_b, d, e, label)

    @classmethod
    def from_samples(
        cls, pairs: "PairTable | Sequence[PairSample]", caller: str, error: type = ValueError
    ) -> "PairTable":
        """``pairs`` as a table; a table is returned as it is. Raises
        ``error("<caller> requires labeled samples")`` for an unlabeled one."""
        if isinstance(pairs, PairTable):
            return pairs
        if any(s.label is None for s in pairs):
            raise error(f"{caller} requires labeled samples")
        distance = np.array([s.distance for s in pairs], dtype=np.float64)
        effort_angle = np.array([s.effort_angle for s in pairs], dtype=np.float64)
        id_a = np.array([s.id_a for s in pairs])
        id_b = np.array([s.id_b for s in pairs])
        return cls(
            X=np.column_stack((distance, effort_angle)),
            y=np.array([s.label for s in pairs]),
            ids=np.column_stack((id_a, id_b)),
        )


@dataclass(frozen=True, slots=True, eq=False)
class RelationMatrix:
    """n x n symmetric binary matrix of pairwise same-group predictions.

    Diagonal entries are all 1. ``ids`` lists the agent ids in row order
    (ascending). The underlying array is write-locked on construction,
    and pickled or copied matrices are built through the constructor too.

    Two matrices are equal when their ids are and their ``m`` have the same
    shape and bytes, and equal matrices hash alike.

    Greedy reconstruction reads the rows of ``m`` as int bitmasks, with
    the positive pairs in row-major order (:meth:`_belief_rows`), whoever
    built the matrix. A matrix built through the constructor is validated;
    ``classifiers.build_relation_matrix`` skips those checks
    (:meth:`_trusted`), since it makes ``m`` from the pair labels valid by
    construction.
    """

    ids: tuple[int, ...]
    m: np.ndarray = field(repr=False)

    @classmethod
    def _trusted(cls, ids: tuple[int, ...], m: np.ndarray) -> "RelationMatrix":
        """A matrix whose builder made ``m`` a write-locked, C-ordered
        uint8 array, symmetric, unit-diagonal and 0/1. The constructor's
        checks are not rerun."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "ids", ids)
        object.__setattr__(matrix, "m", m)
        return matrix

    def _belief_rows(self) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
        """Each row as an int bitmask (bit k for row index k), and the
        positive pairs (i, j), i < j, in row-major order."""
        n = self.n
        upper = _upper_cells(n)
        pairs = [divmod(c, n) for c in upper[self.m.ravel()[upper].nonzero()[0]].tolist()]
        rows = [1 << k for k in range(n)]
        for i, j in pairs:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return tuple(rows), pairs

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationMatrix):
            return NotImplemented
        return (
            tuple(self.ids) == tuple(other.ids)
            and self.m.shape == other.m.shape
            and self.m.tobytes() == other.m.tobytes()
        )

    def __hash__(self) -> int:
        return hash((tuple(self.ids), self.m.tobytes()))

    @property
    def n(self) -> int:
        return len(self.ids)


@lru_cache(maxsize=32)
def pair_indices(n: int) -> np.ndarray:
    """The pairs (i, j), i < j, of n agents in row-major order, the order of
    every pair table and relation matrix, as a read-only (2, pairs) array.
    The last 32 sizes asked for are kept."""
    pairs = np.array(np.triu_indices(n, 1))
    pairs.setflags(write=False)
    return pairs


@lru_cache(maxsize=32)
def _upper_cells(n: int) -> np.ndarray:
    """The read-only positions, in an n x n matrix flattened row-major, of
    the cells (i, j) of :func:`pair_indices`; kept for the last 32 sizes."""
    i, j = pair_indices(n)
    cells = n * i + j
    cells.setflags(write=False)
    return cells


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
