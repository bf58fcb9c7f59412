"""Aggregate pairwise same-group predictions into whole groups.

Greedy reconstruction repeatedly picks the positively-classified pair
whose belief sets (matrix rows) agree on the most remaining agents,
emits that agreement as a group, and removes its members. Agents never
emitted stay ungrouped; every emitted group has at least 2 members.
"""

from __future__ import annotations

from typing import Sequence

from .classifiers import TrainedModel, build_relation_matrix
from .core import Frame, GroupSet, RelationMatrix

MODES = ("intersection", "union")


def belief_set(matrix: RelationMatrix, i: int) -> set:
    """Agent ids that row index i is predicted to share a group with.

    Always contains the agent's own id (unit diagonal).
    """
    n = matrix.n
    if not 0 <= i < n:
        raise IndexError(f"row index {i} out of range for {n} agents")
    row = matrix.m[i]
    return {matrix.ids[j] for j in range(n) if row[j] == 1}


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


def _members(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def greedy_reconstruct(matrix: RelationMatrix, mode: str = "intersection") -> GroupSet:
    """Emit disjoint groups from a relation matrix, largest agreement first.

    Each round considers remaining index pairs (i, j) with m[i][j] = 1 and
    picks the one maximizing |B_i ∩ B_j| over remaining agents, ties going
    to the lexicographically smallest (i, j). The emitted group is
    (B_i ∩ B_j) ∪ {i, j}, or B_i ∪ B_j in union mode. Rounds continue
    while 2+ agents remain and some positive off-diagonal entry survives.

    Belief rows and the remaining agents are int bitmasks, and only the
    positive pairs are scored: listed in row-major order, so the first
    maximum is the lexicographic one, and dropped once they touch an
    emitted agent. Both are read from ``m`` for every matrix: one from
    ``build_relation_matrix`` or one a caller built, which the constructor
    validated.
    """
    _check_mode(mode)
    rows, pairs = matrix._belief_rows()
    # (B_i & B_j, B_i | B_j, {i, j}) of every positive pair (i < j).
    live = [(rows[i] & rows[j], rows[i] | rows[j], (1 << i) | (1 << j)) for i, j in pairs]
    remaining = (1 << matrix.n) - 1
    groups = []
    while live:
        sizes = [(agree & remaining).bit_count() for agree, _, _ in live]
        agree, either, ends = live[sizes.index(max(sizes))]
        if mode == "union":
            emitted = either & remaining
        else:
            emitted = (agree & remaining) | ends
        groups.append(frozenset(matrix.ids[k] for k in _members(emitted)))
        remaining &= ~emitted
        live = [pair for pair in live if not pair[2] & emitted]
    return GroupSet(groups=tuple(groups))


def detect(
    model: TrainedModel, frames: Frame | Sequence[Frame], mode: str = "intersection"
) -> GroupSet | list[GroupSet]:
    """Classify all pairs of a frame and reconstruct its groups.

    Given a sequence of frames, returns one GroupSet per frame; their
    relation matrices come from one ``build_relation_matrix`` call, which
    scores every pair of every frame at once.
    """
    _check_mode(mode)
    matrices = build_relation_matrix(model, frames)
    if isinstance(matrices, RelationMatrix):
        return greedy_reconstruct(matrices, mode=mode)
    return [greedy_reconstruct(matrix, mode=mode) for matrix in matrices]
