"""Dataset serialization and loaders.

The canonical interchange form is a single JSON document:

    {
      "schema_version": 1,
      "frames": [
        {
          "frame_id": 0,
          "timestamp": 1.5,                 # optional
          "agents": [
            {"id": 1, "x": 0.0, "y": 0.0, "body_theta": 1.5707963267948966,
             "head_theta": null}            # head_theta optional
          ],
          "groups": [[1, 2], [3, 4, 5]]     # optional; omitted = no truth,
        }                                   # [] = annotated as groupless
      ]
    }

Floats are written with Python's shortest round-trip repr, so write->load
is lossless. The two external loaders each pin one concrete CSV layout
(documented below) and fail loudly on any deviation rather than guessing.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .core import AgentPose, Frame, GroupSet, ValidationError, validate_frame

SCHEMA_VERSION = 1


class DatasetFormatError(ValueError):
    """Unparseable or structurally invalid dataset file."""


@dataclass(frozen=True)
class CanonicalDataset:
    """Validated frames sorted by frame_id."""

    schema_version: int
    frames: tuple[Frame, ...]

    @classmethod
    def from_frames(cls, frames: Iterable[Frame]) -> "CanonicalDataset":
        ordered = sorted(frames, key=lambda f: f.frame_id)
        seen: set[int] = set()
        for f in ordered:
            if f.frame_id in seen:
                raise ValidationError(f"duplicate frame_id {f.frame_id}")
            seen.add(f.frame_id)
            validate_frame(f)
        return cls(schema_version=SCHEMA_VERSION, frames=tuple(ordered))

    def __len__(self) -> int:
        return len(self.frames)


def _frame_to_dict(frame: Frame) -> dict:
    agents = []
    for a in frame.agents:
        entry = {"id": a.agent_id, "x": a.x, "y": a.y, "body_theta": a.body_theta}
        if a.head_theta is not None:
            entry["head_theta"] = a.head_theta
        agents.append(entry)
    out: dict = {"frame_id": frame.frame_id, "agents": agents}
    if frame.timestamp is not None:
        out["timestamp"] = frame.timestamp
    if frame.truth is not None:
        out["groups"] = frame.truth.as_sorted_lists()
    return out


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DatasetFormatError(msg)


def _frame_from_dict(doc: dict, where: str) -> Frame:
    _require(isinstance(doc, dict), f"{where}: frame entry must be an object")
    _require("frame_id" in doc, f"{where}: missing frame_id")
    _require("agents" in doc and isinstance(doc["agents"], list), f"{where}: missing agents list")
    frame_id = doc["frame_id"]
    _require(isinstance(frame_id, int), f"{where}: frame_id must be an integer")
    agents = []
    for k, a in enumerate(doc["agents"]):
        spot = f"{where}, agent entry {k}"
        _require(isinstance(a, dict), f"{spot}: must be an object")
        for field in ("id", "x", "y", "body_theta"):
            _require(field in a, f"{spot}: missing field {field!r}")
        _require(isinstance(a["id"], int), f"{spot}: id must be an integer")
        for field in ("x", "y", "body_theta"):
            _require(
                isinstance(a[field], (int, float)) and not isinstance(a[field], bool),
                f"{spot}: field {field!r} must be a number",
            )
        head = a.get("head_theta")
        if head is not None:
            _require(
                isinstance(head, (int, float)) and not isinstance(head, bool),
                f"{spot}: head_theta must be a number or null",
            )
        try:
            agents.append(AgentPose.make(a["id"], a["x"], a["y"], a["body_theta"], head))
        except (ValueError, OverflowError) as exc:  # an integer too large for a float overflows
            raise DatasetFormatError(f"{spot}: {exc}") from exc
    timestamp = doc.get("timestamp")
    if timestamp is not None:
        _require(
            isinstance(timestamp, (int, float)) and not isinstance(timestamp, bool),
            f"{where}: timestamp must be a number",
        )
        try:
            timestamp = float(timestamp)
        except OverflowError as exc:
            raise DatasetFormatError(f"{where}: timestamp: {exc}") from exc
    truth: Optional[GroupSet] = None
    if "groups" in doc:
        raw = doc["groups"]
        _require(isinstance(raw, list), f"{where}: groups must be a list of lists")
        for g in raw:
            _require(
                isinstance(g, list) and all(isinstance(a, int) for a in g),
                f"{where}: each group must be a list of integer agent ids",
            )
        truth = GroupSet.from_iterable(raw)
    return Frame(frame_id=frame_id, agents=tuple(agents), timestamp=timestamp, truth=truth)


def save_canonical(dataset: CanonicalDataset, path: str | os.PathLike) -> None:
    doc = {
        "schema_version": dataset.schema_version,
        "frames": [_frame_to_dict(f) for f in dataset.frames],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_canonical(path: str | os.PathLike) -> CanonicalDataset:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    _require(isinstance(doc, dict), f"{path}: top level must be an object")
    version = doc.get("schema_version")
    _require(
        version == SCHEMA_VERSION,
        f"{path}: unsupported schema_version {version!r} (supported: {SCHEMA_VERSION})",
    )
    _require(isinstance(doc.get("frames"), list), f"{path}: missing frames list")
    frames = [
        _frame_from_dict(f, f"{path}, frame entry {i}") for i, f in enumerate(doc["frames"])
    ]
    try:
        return CanonicalDataset.from_frames(frames)
    except ValidationError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc


def _parse_float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DatasetFormatError(f"{where}: expected a number, got {text!r}") from None


def _parse_group_string(text: str, where: str, sep_group: str, sep_member: str) -> GroupSet:
    text = text.strip()
    if not text:
        return GroupSet()
    groups = []
    for chunk in text.split(sep_group):
        chunk = chunk.strip().strip("{}")
        if not chunk:
            raise DatasetFormatError(f"{where}: empty group in annotation {text!r}")
        try:
            members = [int(tok) for tok in chunk.replace(sep_member, " ").split()]
        except ValueError:
            raise DatasetFormatError(f"{where}: bad agent id in annotation {text!r}") from None
        groups.append(members)
    return GroupSet.from_iterable(groups)


def load_salsa(directory: str | os.PathLike) -> CanonicalDataset:
    """Load a SALSA-style export directory.

    Expected layout (pinned; the loader fails loudly on deviation):
      geometryGT.csv    one row per annotated timestamp:
                        timestamp, then 4 columns per agent
                        (x, y, body_theta, head_theta), agents in id
                        order 1..N; 1 + 4N columns total
      fformationGT.csv  one row per timestamp: timestamp, groups —
                        groups formatted like "1 2 3;4 5"
                        (semicolon between groups, spaces between ids,
                        empty string = no groups)
    Row k of both files describes the same timestamp; frame_id is k
    (0-based). Orientations are radians and normalized on load.
    """
    geo_path = os.path.join(directory, "geometryGT.csv")
    ann_path = os.path.join(directory, "fformationGT.csv")
    for p in (geo_path, ann_path):
        if not os.path.exists(p):
            raise DatasetFormatError(f"missing expected file {p}")
    with open(geo_path, newline="", encoding="utf-8") as fh:
        geo_rows = [row for row in csv.reader(fh) if row]
    with open(ann_path, newline="", encoding="utf-8") as fh:
        ann_rows = [row for row in csv.reader(fh) if row]
    if len(geo_rows) != len(ann_rows):
        raise DatasetFormatError(
            f"row count mismatch: {geo_path} has {len(geo_rows)} rows, "
            f"{ann_path} has {len(ann_rows)}"
        )
    frames = []
    n_agents: Optional[int] = None
    for k, (geo, ann) in enumerate(zip(geo_rows, ann_rows)):
        where = f"{geo_path}, row {k + 1}"
        if (len(geo) - 1) % 4 != 0 or len(geo) < 5:
            raise DatasetFormatError(
                f"{where}: expected 1 + 4*N columns (timestamp + x,y,body,head per agent), "
                f"got {len(geo)}"
            )
        row_agents = (len(geo) - 1) // 4
        if n_agents is None:
            n_agents = row_agents
        elif row_agents != n_agents:
            raise DatasetFormatError(
                f"{where}: agent count changed from {n_agents} to {row_agents}"
            )
        ts = _parse_float(geo[0], where)
        ann_where = f"{ann_path}, row {k + 1}"
        if len(ann) != 2:
            raise DatasetFormatError(f"{ann_where}: expected 2 columns (timestamp, groups)")
        ann_ts = _parse_float(ann[0], ann_where)
        if abs(ann_ts - ts) > 1e-6:
            raise DatasetFormatError(
                f"{ann_where}: timestamp {ann_ts} does not match geometry timestamp {ts}"
            )
        agents = []
        for a in range(n_agents):
            base = 1 + 4 * a
            x, y, body, head = (_parse_float(geo[base + d], where) for d in range(4))
            try:
                agents.append(AgentPose.make(a + 1, x, y, body, head))
            except ValueError as exc:
                raise DatasetFormatError(f"{where}, agent {a + 1}: {exc}") from exc
        truth = _parse_group_string(ann[1], ann_where, sep_group=";", sep_member=" ")
        frames.append(Frame(frame_id=k, agents=tuple(agents), timestamp=ts, truth=truth))
    try:
        return CanonicalDataset.from_frames(frames)
    except ValidationError as exc:
        raise DatasetFormatError(f"{directory}: {exc}") from exc


def load_babble(directory: str | os.PathLike) -> CanonicalDataset:
    """Load a Babble-style export directory.

    Expected layout (pinned; the loader fails loudly on deviation):
      geometry.csv     header frame,time,agent,x,y,body_theta[,head_theta]
                       one row per (frame, agent); agents may vary by frame
      annotations.csv  header frame,groups — groups formatted like
                       "{2,3,5},{1,4}" (braces per group, commas between
                       members and groups; empty field = no groups)
    Every frame id must appear in both files. Orientations are radians
    and normalized on load.
    """
    geo_path = os.path.join(directory, "geometry.csv")
    ann_path = os.path.join(directory, "annotations.csv")
    for p in (geo_path, ann_path):
        if not os.path.exists(p):
            raise DatasetFormatError(f"missing expected file {p}")
    with open(geo_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        expected = ["frame", "time", "agent", "x", "y", "body_theta"]
        if header is None or [h.strip() for h in header[:6]] != expected or len(header) > 7:
            raise DatasetFormatError(
                f"{geo_path}: expected header frame,time,agent,x,y,body_theta[,head_theta], "
                f"got {header}"
            )
        has_head = len(header) == 7
        if has_head and header[6].strip() != "head_theta":
            raise DatasetFormatError(f"{geo_path}: seventh column must be head_theta")
        by_frame: dict[int, list[AgentPose]] = {}
        times: dict[int, float] = {}
        for k, row in enumerate(reader):
            if not row:
                continue
            where = f"{geo_path}, row {k + 2}"
            if len(row) != len(header):
                raise DatasetFormatError(f"{where}: expected {len(header)} columns, got {len(row)}")
            try:
                fid = int(row[0])
                agent = int(row[2])
            except ValueError:
                raise DatasetFormatError(f"{where}: frame and agent must be integers") from None
            ts = _parse_float(row[1], where)
            x, y, body = (_parse_float(row[i], where) for i in (3, 4, 5))
            head = _parse_float(row[6], where) if has_head else None
            prev_ts = times.setdefault(fid, ts)
            if prev_ts != ts:
                raise DatasetFormatError(
                    f"{where}: frame {fid} has conflicting times {prev_ts} and {ts}"
                )
            try:
                by_frame.setdefault(fid, []).append(AgentPose.make(agent, x, y, body, head))
            except ValueError as exc:
                raise DatasetFormatError(f"{where}: {exc}") from exc
    truths: dict[int, GroupSet] = {}
    with open(ann_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["frame", "groups"]:
            raise DatasetFormatError(f"{ann_path}: expected header frame,groups, got {header}")
        for k, row in enumerate(reader):
            if not row:
                continue
            where = f"{ann_path}, row {k + 2}"
            if len(row) != 2:
                raise DatasetFormatError(f"{where}: expected 2 columns, got {len(row)}")
            try:
                fid = int(row[0])
            except ValueError:
                raise DatasetFormatError(f"{where}: frame must be an integer") from None
            if fid in truths:
                raise DatasetFormatError(f"{where}: duplicate annotation for frame {fid}")
            truths[fid] = _parse_group_string(row[1], where, sep_group="},", sep_member=",")
    geo_ids = set(by_frame)
    ann_ids = set(truths)
    if geo_ids != ann_ids:
        only_geo = sorted(geo_ids - ann_ids)[:5]
        only_ann = sorted(ann_ids - geo_ids)[:5]
        raise DatasetFormatError(
            f"frame ids do not align between {geo_path} and {ann_path}: "
            f"only in geometry {only_geo}, only in annotations {only_ann}"
        )
    frames = [
        Frame(
            frame_id=fid,
            agents=tuple(sorted(by_frame[fid], key=lambda a: a.agent_id)),
            timestamp=times[fid],
            truth=truths[fid],
        )
        for fid in sorted(by_frame)
    ]
    try:
        return CanonicalDataset.from_frames(frames)
    except ValidationError as exc:
        raise DatasetFormatError(f"{directory}: {exc}") from exc


def split_frames(
    frames: Sequence[Frame], fraction: float
) -> tuple[tuple[Frame, ...], tuple[Frame, ...]]:
    """Chronological train/test split: the first `fraction` of frames train."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"split fraction must be in (0, 1), got {fraction}")
    cut = int(len(frames) * fraction)
    return tuple(frames[:cut]), tuple(frames[cut:])
