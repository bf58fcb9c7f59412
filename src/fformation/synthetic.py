"""Deterministic synthetic labeled-scene generation.

Each frame gets one or more circular conversational groups (members on a
circle of radius taken from the per-size tightness table, facing the
center, with configurable jitter) plus distractor agents wandering alone.
Truth groups are recorded exactly as constructed, so the corpus is fully
labeled by construction.

One ``numpy.random.Generator``, seeded by the config, serves the whole
corpus. Each frame draws from it, in this order:

1. the group count, ``integers(lo, hi + 1)``;
2. the group sizes, one ``random()`` value a group;
3. the group centers, group by group, two ``random()`` values a try until
   a try keeps its clearance;
4. for each group, its angular offset, one ``random()`` value, then
   ``standard_normal`` values: for each member, one for each nonzero
   jitter, in the order angle, radius, heading;
5. for each distractor, two ``random()`` values a try for its position,
   then one for its heading.

Each value is the one the numpy call for its distribution would give, from
the same stream, at a fraction of the per-call cost:

- ``uniform(lo, hi)`` is ``lo + (hi - lo) * random()``, and ``hi * random()``
  when ``lo`` is 0;
- ``normal(0.0, s)`` is ``0.0 + s * standard_normal()``;
- ``choice(sizes, p=weights)`` is the size whose entry in the cumulative
  weights, built as ``choice`` builds them, first exceeds ``random()``.

``tests/test_synthetic.py`` keeps a generator that makes one of those
calls a draw, and checks that both give the same datasets.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from typing import Any, Callable

import numpy as np

from .core import (AT_LEAST_ONE, COUNT, NON_NEGATIVE, POSITIVE, TWO_PI, AgentPose, Frame, GroupSet,
                   Rule, is_integer, rule_problem)
from .datasets import CanonicalDataset, DatasetFormatError, _integer
from .jsonfile import read_json, write_json

# Default circle radius per group size, in meters.
DEFAULT_TIGHTNESS = {2: 0.78, 3: 0.80, 4: 0.83, 5: 0.87, 6: 0.90, 7: 0.95}

DEFAULT_SIZE_WEIGHTS = {2: 0.30, 3: 0.30, 4: 0.20, 5: 0.10, 6: 0.05, 7: 0.05}


class PlacementError(RuntimeError):
    """Could not place groups/distractors within the retry budget."""


def _sizes(value: Any) -> bool:
    return (isinstance(value, dict) and bool(value) and all(map(is_integer, value))
            and all(map(POSITIVE[0], value.values())))


def _pair(value: Any, test: Callable[[Any], bool]) -> bool:
    return isinstance(value, (tuple, list)) and len(value) == 2 and all(map(test, value))


# The rule each SynthConfig field keeps.
_FIELD_RULES: dict[str, Rule] = {
    "n_frames": AT_LEAST_ONE,
    "group_size_distribution": (_sizes, "a nonempty map of group sizes to finite weights > 0"),
    "tightness_mean_per_size": (_sizes, "a nonempty map of group sizes to finite radii > 0"),
    "radial_jitter": NON_NEGATIVE,
    "angular_jitter": NON_NEGATIVE,
    "heading_noise": NON_NEGATIVE,
    "n_distractors": COUNT,
    "area": (lambda v: _pair(v, POSITIVE[0]), "two finite extents > 0"),
    "seed": COUNT,
    "groups_per_frame": (lambda v: _pair(v, is_integer) and 0 <= v[0] <= v[1],
                         "two integers (lo, hi) with 0 <= lo <= hi"),
    "group_clearance": NON_NEGATIVE,
    "distractor_clearance": NON_NEGATIVE,
    "max_retries": AT_LEAST_ONE,
}


@dataclass(frozen=True)
class SynthConfig:
    """Generator parameters; distances in meters, angles in degrees."""

    n_frames: int = 100
    group_size_distribution: dict[int, float] = field(default_factory=DEFAULT_SIZE_WEIGHTS.copy)
    tightness_mean_per_size: dict[int, float] = field(default_factory=DEFAULT_TIGHTNESS.copy)
    radial_jitter: float = 0.05
    angular_jitter: float = 8.0
    heading_noise: float = 10.0
    n_distractors: int = 3
    area: tuple[float, float] = (12.0, 12.0)
    seed: int = 0
    groups_per_frame: tuple[int, int] = (1, 2)
    group_clearance: float = 2.0
    distractor_clearance: float = 2.0
    max_retries: int = 100

    def __post_init__(self) -> None:
        for name, rule in _FIELD_RULES.items():
            if problem := rule_problem(name, getattr(self, name), rule):
                raise ValueError(problem)
        for size in self.group_size_distribution:
            if size < 2:
                raise ValueError(f"group size {size} < 2")
            if size not in self.tightness_mean_per_size:
                raise ValueError(f"no tightness mean for group size {size}")
        _size_table(self.group_size_distribution)

    def __hash__(self) -> int:
        # Equal configs hash alike: the dict fields hash by their items.
        values = (getattr(self, f.name) for f in fields(self))
        return hash(tuple(frozenset(v.items()) if isinstance(v, dict) else v for v in values))

    def to_dict(self) -> dict[str, Any]:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        for name, value in doc.items():
            if isinstance(value, dict):
                doc[name] = {str(k): v for k, v in value.items()}
            elif isinstance(value, tuple):
                doc[name] = list(value)
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "SynthConfig":
        kwargs: dict[str, Any] = {}
        for key, value in doc.items():
            if key not in cls.__dataclass_fields__:
                raise ValueError(f"unknown SynthConfig field {key!r}")
            if isinstance(value, dict):  # group sizes are written as text
                value = {_integer(k, key): v for k, v in value.items()}
            kwargs[key] = tuple(value) if isinstance(value, list) else value
        return cls(**kwargs)


def load_synth_config(path: str | os.PathLike) -> SynthConfig:
    doc = read_json(path, DatasetFormatError)
    if not isinstance(doc, dict):
        raise DatasetFormatError(f"{path}: expected a JSON object")
    try:
        return SynthConfig.from_dict(doc)
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc


def save_synth_config(config: SynthConfig, path: str | os.PathLike) -> None:
    write_json(config.to_dict(), path)


def _size_table(distribution: dict[int, float]) -> tuple[list[int], list[float]]:
    """The group sizes in order, and the cumulative weights that
    ``Generator.choice(sizes, p=weights / weights.sum())`` searches.

    Raises ValueError when the weights, each finite, sum to infinity.
    """
    sizes = sorted(distribution)
    weights = np.array([distribution[s] for s in sizes], dtype=np.float64)
    with np.errstate(over="ignore"):
        total = weights.sum()
    if not math.isfinite(total):
        raise ValueError("group_size_distribution must have weights whose sum is finite, "
                         f"got a sum of {total}")
    weights /= total
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return sizes, cdf.tolist()


def _place_centers(
    rng: np.random.Generator, config: SynthConfig, radii: list[float]
) -> list[tuple[float, float]]:
    w, h = config.area
    centers: list[tuple[float, float]] = []
    placed_r: list[float] = []
    for r in radii:
        # Keep whole circles inside the area with room for jitter.
        margin = r + 4.0 * config.radial_jitter + 0.1
        if 2 * margin >= w or 2 * margin >= h:
            raise PlacementError(
                f"area {config.area} too small for a group of radius {r:.2f}"
            )
        span_x, span_y = (w - margin) - margin, (h - margin) - margin
        for _ in range(config.max_retries):
            ux, uy = rng.random(2).tolist()
            cx, cy = margin + span_x * ux, margin + span_y * uy
            ok = all(
                math.hypot(cx - px, cy - py) >= r + pr + config.group_clearance
                for (px, py), pr in zip(centers, placed_r)
            )
            if ok:
                centers.append((cx, cy))
                placed_r.append(r)
                break
        else:
            raise PlacementError(
                f"could not place {len(radii)} groups in area {config.area} "
                f"after {config.max_retries} retries"
            )
    return centers


def _make_frame(rng: np.random.Generator, config: SynthConfig, sizes: list[int],
                cdf: list[float], frame_id: int) -> Frame:
    lo, hi = config.groups_per_frame
    n_groups = int(rng.integers(lo, hi + 1))
    group_sizes = [sizes[bisect_right(cdf, u)] for u in rng.random(n_groups).tolist()]
    radii = [config.tightness_mean_per_size[s] for s in group_sizes]
    centers = _place_centers(rng, config, radii)

    angular, radial, heading_noise = config.angular_jitter, config.radial_jitter, config.heading_noise
    jitters = bool(angular) + bool(radial) + bool(heading_noise)
    agents: list[AgentPose] = []
    groups: list[list[int]] = []
    next_id = 1
    for size, r, (cx, cy) in zip(group_sizes, radii, centers):
        offset = TWO_PI * rng.random()
        # Each member's normals, in the order angle, radius, heading.
        z = iter(rng.standard_normal(jitters * size).tolist() if jitters else ())
        groups.append(list(range(next_id, next_id + size)))
        for i in range(size):
            ang = offset + TWO_PI * i / size
            ang += math.radians(0.0 + angular * next(z)) if angular else 0.0
            rad = r + (0.0 + radial * next(z) if radial else 0.0)
            rad = max(rad, 0.05)
            x = cx + rad * math.cos(ang)
            y = cy + rad * math.sin(ang)
            heading = math.atan2(cy - y, cx - x)
            if heading_noise:
                heading += math.radians(0.0 + heading_noise * next(z))
            agents.append(AgentPose.make(next_id, x, y, heading))
            next_id += 1

    w, h = config.area
    for _ in range(config.n_distractors):
        for _ in range(config.max_retries):
            ux, uy = rng.random(2).tolist()
            x, y = w * ux, h * uy
            ok = all(
                math.hypot(x - cx, y - cy) >= config.distractor_clearance
                for cx, cy in centers
            )
            if ok:
                break
        else:
            raise PlacementError(
                f"could not place distractor in area {config.area} "
                f"after {config.max_retries} retries"
            )
        agents.append(AgentPose.make(next_id, x, y, TWO_PI * rng.random()))
        next_id += 1

    return Frame(
        frame_id=frame_id,
        agents=tuple(agents),
        timestamp=float(frame_id),
        truth=GroupSet.from_iterable(groups),
    )


def generate_synthetic(config: SynthConfig) -> CanonicalDataset:
    """Generate a labeled corpus; identical seeds yield identical datasets."""
    rng = np.random.default_rng(config.seed)
    sizes, cdf = _size_table(config.group_size_distribution)
    frames = [_make_frame(rng, config, sizes, cdf, i) for i in range(config.n_frames)]
    return CanonicalDataset.from_frames(frames)
