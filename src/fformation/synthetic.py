"""Deterministic synthetic labeled-scene generation.

Each frame gets one or more circular conversational groups (members on a
circle of radius taken from the per-size tightness table, facing the
center, with configurable jitter) plus distractor agents wandering alone.
Truth groups are recorded exactly as constructed, so the corpus is fully
labeled by construction.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .core import AgentPose, Frame, GroupSet, is_integer
from .datasets import CanonicalDataset, DatasetFormatError
from .jsonfile import read_json, write_json

# Default circle radius per group size, in meters.
DEFAULT_TIGHTNESS = {2: 0.78, 3: 0.80, 4: 0.83, 5: 0.87, 6: 0.90, 7: 0.95}

DEFAULT_SIZE_WEIGHTS = {2: 0.30, 3: 0.30, 4: 0.20, 5: 0.10, 6: 0.05, 7: 0.05}


class PlacementError(RuntimeError):
    """Could not place groups/distractors within the retry budget."""


@dataclass(frozen=True)
class SynthConfig:
    """Generator parameters; distances in meters, angles in degrees."""

    n_frames: int = 100
    group_size_distribution: dict[int, float] = field(
        default_factory=lambda: dict(DEFAULT_SIZE_WEIGHTS)
    )
    tightness_mean_per_size: dict[int, float] = field(
        default_factory=lambda: dict(DEFAULT_TIGHTNESS)
    )
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
        for name in ("n_frames", "n_distractors", "seed", "max_retries"):
            if not is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not all(map(is_integer, self.groups_per_frame)):
            raise ValueError(f"groups_per_frame must be integers, got {self.groups_per_frame!r}")
        if self.n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        if not self.group_size_distribution:
            raise ValueError("group_size_distribution must be nonempty")
        for size, weight in self.group_size_distribution.items():
            if size < 2:
                raise ValueError(f"group size {size} < 2")
            if weight <= 0:
                raise ValueError(f"group size {size} has non-positive weight {weight}")
            if size not in self.tightness_mean_per_size:
                raise ValueError(f"no tightness mean for group size {size}")
        for size, r in self.tightness_mean_per_size.items():
            if r <= 0:
                raise ValueError(f"tightness mean for size {size} must be positive, got {r}")
        for name in ("radial_jitter", "angular_jitter", "heading_noise"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.n_distractors < 0:
            raise ValueError("n_distractors must be >= 0")
        if len(self.area) != 2 or self.area[0] <= 0 or self.area[1] <= 0:
            raise ValueError("area must be two positive extents")
        lo, hi = self.groups_per_frame
        if not 0 <= lo <= hi:
            raise ValueError("groups_per_frame must be (lo, hi) with 0 <= lo <= hi")
        if self.group_clearance < 0 or self.distractor_clearance < 0:
            raise ValueError("clearances must be >= 0")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_frames": self.n_frames,
            "group_size_distribution": {str(k): v for k, v in self.group_size_distribution.items()},
            "tightness_mean_per_size": {str(k): v for k, v in self.tightness_mean_per_size.items()},
            "radial_jitter": self.radial_jitter,
            "angular_jitter": self.angular_jitter,
            "heading_noise": self.heading_noise,
            "n_distractors": self.n_distractors,
            "area": list(self.area),
            "seed": self.seed,
            "groups_per_frame": list(self.groups_per_frame),
            "group_clearance": self.group_clearance,
            "distractor_clearance": self.distractor_clearance,
            "max_retries": self.max_retries,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "SynthConfig":
        kwargs: dict[str, Any] = {}
        fields = set(cls.__dataclass_fields__)
        for key, value in doc.items():
            if key not in fields:
                raise ValueError(f"unknown SynthConfig field {key!r}")
            if key in ("group_size_distribution", "tightness_mean_per_size"):
                value = {int(k): float(v) for k, v in value.items()}
            elif key in ("area", "groups_per_frame"):
                value = tuple(value)
            kwargs[key] = value
        return cls(**kwargs)


def load_synth_config(path: str | os.PathLike) -> SynthConfig:
    doc = read_json(path, DatasetFormatError)
    if not isinstance(doc, dict):
        raise DatasetFormatError(f"{path}: expected a JSON object")
    try:
        return SynthConfig.from_dict(doc)
    except (ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc


def save_synth_config(config: SynthConfig, path: str | os.PathLike) -> None:
    write_json(config.to_dict(), path)


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
        for _ in range(config.max_retries):
            cx = rng.uniform(margin, w - margin)
            cy = rng.uniform(margin, h - margin)
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


def _make_frame(rng: np.random.Generator, config: SynthConfig, frame_id: int) -> Frame:
    sizes = sorted(config.group_size_distribution)
    weights = np.array([config.group_size_distribution[s] for s in sizes], dtype=np.float64)
    weights /= weights.sum()
    lo, hi = config.groups_per_frame
    n_groups = int(rng.integers(lo, hi + 1))
    group_sizes = [int(rng.choice(sizes, p=weights)) for _ in range(n_groups)]
    radii = [config.tightness_mean_per_size[s] for s in group_sizes]
    centers = _place_centers(rng, config, radii)

    agents: list[AgentPose] = []
    groups: list[list[int]] = []
    next_id = 1
    for size, r, (cx, cy) in zip(group_sizes, radii, centers):
        members = []
        offset = rng.uniform(0.0, 2.0 * math.pi)
        for i in range(size):
            ang = offset + 2.0 * math.pi * i / size
            ang += math.radians(rng.normal(0.0, config.angular_jitter)) if config.angular_jitter else 0.0
            rad = r + (rng.normal(0.0, config.radial_jitter) if config.radial_jitter else 0.0)
            rad = max(rad, 0.05)
            x = cx + rad * math.cos(ang)
            y = cy + rad * math.sin(ang)
            heading = math.atan2(cy - y, cx - x)
            if config.heading_noise:
                heading += math.radians(rng.normal(0.0, config.heading_noise))
            agents.append(AgentPose.make(next_id, x, y, heading))
            members.append(next_id)
            next_id += 1
        groups.append(members)

    w, h = config.area
    for _ in range(config.n_distractors):
        for _ in range(config.max_retries):
            x = rng.uniform(0.0, w)
            y = rng.uniform(0.0, h)
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
        agents.append(AgentPose.make(next_id, x, y, rng.uniform(0.0, 2.0 * math.pi)))
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
    frames = [_make_frame(rng, config, i) for i in range(config.n_frames)]
    return CanonicalDataset.from_frames(frames)
