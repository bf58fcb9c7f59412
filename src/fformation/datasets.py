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

It is shown indented here; files are written as the compact text of
``json.dumps`` (see ``jsonfile``), and loading accepts any JSON whitespace.
Floats are written with Python's shortest round-trip repr, so write->load
is lossless. The two external loaders each pin one concrete CSV layout
(documented below) and fail loudly on any deviation rather than guessing.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .core import AgentPose, Frame, GroupSet, ValidationError, is_integer, is_number, validate_frame
from .jsonfile import _read_text, read_json, write_json

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


def _error(path, frame: int, problem: str, agent: Optional[int] = None) -> DatasetFormatError:
    """The error for frame entry ``frame`` of ``path``, or for its agent
    entry ``agent``. Messages are made only for a check that failed."""
    spot = f"{path}, frame entry {frame}"
    if agent is not None:
        spot += f", agent entry {agent}"
    return DatasetFormatError(f"{spot}: {problem}")


_AGENT_FIELDS = ("id", "x", "y", "body_theta")
_AGENT_KEYS = frozenset(_AGENT_FIELDS)


def _frame_from_dict(doc: dict, path, index: int) -> Frame:
    """Frame entry ``index`` of the file ``path``, checked."""
    if not isinstance(doc, dict):
        raise _error(path, index, "frame entry must be an object")
    if "frame_id" not in doc:
        raise _error(path, index, "missing frame_id")
    if not isinstance(doc.get("agents"), list):
        raise _error(path, index, "missing agents list")
    frame_id = doc["frame_id"]
    if not is_integer(frame_id):
        raise _error(path, index, "frame_id must be an integer")
    agents = []
    for k, a in enumerate(doc["agents"]):
        if not isinstance(a, dict):
            raise _error(path, index, "must be an object", k)
        if not a.keys() >= _AGENT_KEYS:
            field = next(f for f in _AGENT_FIELDS if f not in a)
            raise _error(path, index, f"missing field {field!r}", k)
        if not is_integer(a["id"]):
            raise _error(path, index, "id must be an integer", k)
        if not (is_number(a["x"]) and is_number(a["y"]) and is_number(a["body_theta"])):
            field = next(f for f in ("x", "y", "body_theta") if not is_number(a[f]))
            raise _error(path, index, f"field {field!r} must be a number", k)
        head = a.get("head_theta")
        if head is not None and not is_number(head):
            raise _error(path, index, "head_theta must be a number or null", k)
        try:
            agents.append(AgentPose.make(a["id"], a["x"], a["y"], a["body_theta"], head))
        except (ValueError, OverflowError) as exc:  # an integer too large for a float overflows
            raise _error(path, index, str(exc), k) from exc
    timestamp = doc.get("timestamp")
    if timestamp is not None:
        if not is_number(timestamp):
            raise _error(path, index, "timestamp must be a number")
        try:
            timestamp = float(timestamp)
        except OverflowError as exc:
            raise _error(path, index, f"timestamp: {exc}") from exc
        if not math.isfinite(timestamp):
            raise _error(path, index, "timestamp must be finite")
    truth: Optional[GroupSet] = None
    if "groups" in doc:
        raw = doc["groups"]
        if not isinstance(raw, list):
            raise _error(path, index, "groups must be a list of lists")
        for g in raw:
            if not (isinstance(g, list) and all(map(is_integer, g))):
                raise _error(path, index, "each group must be a list of integer agent ids")
        truth = GroupSet.from_iterable(raw)
    return Frame(frame_id=frame_id, agents=tuple(agents), timestamp=timestamp, truth=truth)


def save_canonical(dataset: CanonicalDataset, path: str | os.PathLike) -> None:
    write_json(
        {
            "schema_version": dataset.schema_version,
            "frames": [_frame_to_dict(f) for f in dataset.frames],
        },
        path,
    )


def load_canonical(path: str | os.PathLike) -> CanonicalDataset:
    doc = read_json(path, DatasetFormatError)
    if not isinstance(doc, dict):
        raise DatasetFormatError(f"{path}: top level must be an object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DatasetFormatError(
            f"{path}: unsupported schema_version {version!r} (supported: {SCHEMA_VERSION})"
        )
    if not isinstance(doc.get("frames"), list):
        raise DatasetFormatError(f"{path}: missing frames list")
    return _dataset([_frame_from_dict(f, path, i) for i, f in enumerate(doc["frames"])], path)


def _dataset(frames: list[Frame], where) -> CanonicalDataset:
    try:
        return CanonicalDataset.from_frames(frames)
    except ValidationError as exc:
        raise DatasetFormatError(f"{where}: {exc}") from exc


def _rows(path: str, header: Optional[tuple[list[str], ...]] = None) -> list[tuple[str, list[str]]]:
    """The rows of the CSV file ``path`` that are not blank, each labeled "<path>, row
    <physical line>". With ``header``, the first row must be one of its lists of
    column names, spaces around a name aside; it stays the first row."""
    if not os.path.exists(path):
        raise DatasetFormatError(f"missing expected file {path}")
    reader = csv.reader(io.StringIO(_read_text(path, DatasetFormatError)))
    try:
        rows = [(f"{path}, row {reader.line_num}", row) for row in reader if row]
    except csv.Error as exc:
        raise DatasetFormatError(f"{path}, row {reader.line_num}: {exc}") from exc
    if header is not None and (not rows or [c.strip() for c in rows[0][1]] not in header):
        raise DatasetFormatError(
            f"{path}: expected header {' or '.join(map(','.join, header))}, "
            f"got {rows[0][1] if rows else None}"
        )
    return rows


_INTEGER = re.compile(r"[+-]?[0-9]{1,4000}")
_NUMBER = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _integer(text: str, where: str) -> int:
    """``text`` as an int: an optional sign and ASCII digits, spaces around.
    At most 4000 digits, as int() converts no more than 4300."""
    digits = text.strip()
    if _INTEGER.fullmatch(digits):
        return int(digits)
    raise DatasetFormatError(f"{where}: expected an integer, got {text!r}")


def _number(text: str, where: str) -> float:
    """``text`` as a finite float, written in ASCII decimal notation."""
    digits = text.strip()
    if _NUMBER.fullmatch(digits) and math.isfinite(value := float(digits)):
        return value
    raise DatasetFormatError(f"{where}: expected a finite number, got {text!r}")


def _pose(where: str, agent: int, fields: Sequence[str]) -> AgentPose:
    """The pose of ``agent`` from its cells x, y, body_theta[, head_theta]."""
    numbers = [_number(text, where) for text in fields]
    try:
        return AgentPose.make(agent, *numbers)
    except ValueError as exc:
        raise DatasetFormatError(f"{where}: {exc}") from exc


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
            groups.append([_integer(tok, where) for tok in chunk.replace(sep_member, " ").split()])
        except DatasetFormatError:
            raise DatasetFormatError(f"{where}: bad agent id in annotation {text!r}") from None
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
    geo_rows, ann_rows = _rows(geo_path), _rows(ann_path)
    if len(geo_rows) != len(ann_rows):
        raise DatasetFormatError(
            f"row count mismatch: {geo_path} has {len(geo_rows)} rows, "
            f"{ann_path} has {len(ann_rows)}"
        )
    frames = []
    n_agents = (len(geo_rows[0][1]) - 1) // 4 if geo_rows else 0
    for k, ((where, geo), (ann_where, ann)) in enumerate(zip(geo_rows, ann_rows)):
        if (len(geo) - 1) % 4 != 0 or len(geo) < 5:
            raise DatasetFormatError(
                f"{where}: expected 1 + 4*N columns (timestamp + x,y,body,head per agent), "
                f"got {len(geo)}"
            )
        if len(geo) != 1 + 4 * n_agents:
            raise DatasetFormatError(
                f"{where}: agent count changed from {n_agents} to {(len(geo) - 1) // 4}"
            )
        ts = _number(geo[0], where)
        if len(ann) != 2:
            raise DatasetFormatError(f"{ann_where}: expected 2 columns (timestamp, groups)")
        ann_ts = _number(ann[0], ann_where)
        if abs(ann_ts - ts) > 1e-6:
            raise DatasetFormatError(
                f"{ann_where}: timestamp {ann_ts} does not match geometry timestamp {ts}"
            )
        agents = tuple(_pose(f"{where}, agent {a}", a, geo[4 * a - 3 : 4 * a + 1])
                       for a in range(1, n_agents + 1))
        truth = _parse_group_string(ann[1], ann_where, sep_group=";", sep_member=" ")
        frames.append(Frame(frame_id=k, agents=agents, timestamp=ts, truth=truth))
    return _dataset(frames, directory)


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
    columns = ["frame", "time", "agent", "x", "y", "body_theta"]
    (_, header), *geo_rows = _rows(geo_path, (columns, columns + ["head_theta"]))
    by_frame: dict[int, list[AgentPose]] = {}
    times: dict[int, float] = {}
    for where, row in geo_rows:
        if len(row) != len(header):
            raise DatasetFormatError(f"{where}: expected {len(header)} columns, got {len(row)}")
        fid, ts = _integer(row[0], where), _number(row[1], where)
        if times.setdefault(fid, ts) != ts:
            raise DatasetFormatError(
                f"{where}: frame {fid} has conflicting times {times[fid]} and {ts}"
            )
        by_frame.setdefault(fid, []).append(_pose(where, _integer(row[2], where), row[3:]))
    truths: dict[int, GroupSet] = {}
    for where, row in _rows(ann_path, (["frame", "groups"],))[1:]:
        if len(row) != 2:
            raise DatasetFormatError(f"{where}: expected 2 columns, got {len(row)}")
        fid = _integer(row[0], where)
        if fid in truths:
            raise DatasetFormatError(f"{where}: duplicate annotation for frame {fid}")
        truths[fid] = _parse_group_string(row[1], where, sep_group="},", sep_member=",")
    if by_frame.keys() != truths.keys():
        raise DatasetFormatError(
            f"frame ids do not align between {geo_path} and {ann_path}: "
            f"only in geometry {sorted(by_frame - truths.keys())[:5]}, "
            f"only in annotations {sorted(truths - by_frame.keys())[:5]}"
        )
    frames = [
        Frame(fid, tuple(sorted(agents, key=lambda a: a.agent_id)), times[fid], truths[fid])
        for fid, agents in by_frame.items()
    ]
    return _dataset(frames, directory)


def split_frames(
    frames: Sequence[Frame], fraction: float
) -> tuple[tuple[Frame, ...], tuple[Frame, ...]]:
    """Chronological train/test split: the first `fraction` of frames train."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"split fraction must be in (0, 1), got {fraction}")
    cut = int(len(frames) * fraction)
    return tuple(frames[:cut]), tuple(frames[cut:])
